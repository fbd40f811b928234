//! The one byte codec behind every hand-rolled binary format in the
//! workspace: the `0x88B5` control protocol (big-endian), and the VWS1
//! payloads, `.vwlog` records and telemetry deltas (little-endian).
//!
//! A [`Writer`] appends to the caller's `Vec<u8>`; a [`Reader`] borrows
//! the bytes it decodes. Each is given its byte order once, at
//! construction. Three rules hold for every format built on them:
//!
//! * **Reads are checked.** Every read goes through [`Reader::take`],
//!   so no input can index out of bounds or leave the cursor past the
//!   end; a short buffer is a [`ParseError`].
//! * **A counted list is bounded before it is allocated.** `list8` …
//!   `list64` are the only way to read a count followed by elements, and
//!   they refuse a count whose elements (at the caller's stated minimum
//!   encoded size) cannot fit in the bytes that remain — before reserving
//!   anything and before decoding the first element.
//! * **A length that does not fit its prefix is never wrapped.** The
//!   write side panics: every producer bounds what it encodes upstream
//!   (`vw_fsl::analyze` for script strings, the daemon's name check for
//!   metric keys, the 16 MiB frame cap for everything a client sends), so
//!   an over-long length is a bug in this program, and bytes that decode
//!   as a *different* value are worse than a crash.

use crate::ParseError;

/// Appends integers, length-prefixed strings and counted lists to a
/// caller-owned buffer in one byte order.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    big_endian: bool,
}

/// Decodes what a [`Writer`] of the same byte order wrote.
#[derive(Debug)]
pub struct Reader<'a> {
    /// What is left to read.
    rest: &'a [u8],
    /// Length of the whole input, for `position`.
    len: usize,
    big_endian: bool,
}

/// Fixed-width integers: `Writer::$int(v)` and `Reader::$int()`.
macro_rules! writer_ints {
    ($($int:ident)*) => {$(
        #[doc = concat!("Appends a `", stringify!($int), "` in the writer's byte order.")]
        #[inline]
        pub fn $int(&mut self, v: $int) {
            if self.big_endian {
                self.out.extend_from_slice(&v.to_be_bytes());
            } else {
                self.out.extend_from_slice(&v.to_le_bytes());
            }
        }
    )*};
}

macro_rules! reader_ints {
    ($($int:ident)*) => {$(
        #[doc = concat!("Reads a `", stringify!($int), "` in the reader's byte order.")]
        #[inline]
        pub fn $int(&mut self) -> Result<$int, ParseError> {
            let bytes = self.array()?;
            Ok(if self.big_endian {
                $int::from_be_bytes(bytes)
            } else {
                $int::from_le_bytes(bytes)
            })
        }
    )*};
}

/// Length prefixes and the counted lists built on them, one set per
/// prefix width.
macro_rules! writer_prefixed {
    ($($int:ident $len:ident $list:ident;)*) => {$(
        #[doc = concat!("Appends `n` as a `", stringify!($int), "` length prefix.")]
        ///
        /// # Panics
        ///
        /// If `n` does not fit the prefix (see the module docs).
        #[inline]
        pub fn $len(&mut self, n: usize) {
            let Ok(prefix) = $int::try_from(n) else {
                panic!("length {n} exceeds the {} prefix", stringify!($int));
            };
            self.$int(prefix);
        }

        #[doc = concat!("Appends a `", stringify!($int), "` count, then each item through `item`.")]
        ///
        /// # Panics
        ///
        /// If the count does not fit the prefix.
        #[inline]
        pub fn $list<I>(&mut self, items: I, mut item: impl FnMut(&mut Self, I::Item))
        where
            I: IntoIterator,
            I::IntoIter: ExactSizeIterator,
        {
            let items = items.into_iter();
            self.$len(items.len());
            for it in items {
                item(self, it);
            }
        }
    )*};
}

macro_rules! reader_prefixed {
    ($($int:ident $list:ident;)*) => {$(
        #[doc = concat!("Reads a `", stringify!($int), "` count, then that many elements through `elem`.")]
        ///
        /// `min_elem_bytes` is the smallest encoding one element can
        /// have; a count that `remaining()` cannot hold at that size is
        /// refused before anything is reserved and before `elem` runs.
        #[inline]
        pub fn $list<T>(
            &mut self,
            min_elem_bytes: usize,
            elem: impl FnMut(&mut Self) -> Result<T, ParseError>,
        ) -> Result<Vec<T>, ParseError> {
            let count = self.$int()?;
            self.list(u64::from(count), min_elem_bytes, elem)
        }
    )*};
}

impl<'a> Writer<'a> {
    /// A big-endian writer appending to `out`.
    #[inline]
    pub fn be(out: &'a mut Vec<u8>) -> Self {
        Writer {
            out,
            big_endian: true,
        }
    }

    /// A little-endian writer appending to `out`.
    #[inline]
    pub fn le(out: &'a mut Vec<u8>) -> Self {
        Writer {
            out,
            big_endian: false,
        }
    }

    /// Appends raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Appends a bool as one byte, `0` or `1`.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.out.push(u8::from(v));
    }

    writer_ints! { u16 u32 u64 u128 i64 }

    writer_prefixed! {
        u8 len8 list8;
        u16 len16 list16;
        u32 len32 list32;
        u64 len64 list64;
    }

    /// Overwrites the four bytes at `at` with `n` as a `u32` length
    /// prefix: for a length that is known only once what it counts has
    /// been written behind a placeholder.
    ///
    /// # Panics
    ///
    /// If `n` does not fit the prefix, or `at..at + 4` was never written.
    pub fn patch_len32(&mut self, at: usize, n: usize) {
        let end = self.out.len();
        self.len32(n);
        self.out.copy_within(end.., at);
        self.out.truncate(end);
    }

    /// Appends a presence byte, then the value through `some` if there
    /// is one.
    #[inline]
    pub fn opt<T>(&mut self, v: Option<T>, some: impl FnOnce(&mut Self, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            some(self, v);
        }
    }

    /// Appends a string behind a `u16` byte-length prefix.
    ///
    /// # Panics
    ///
    /// If the string is longer than 65 535 bytes.
    #[inline]
    pub fn str16(&mut self, s: &str) {
        self.len16(s.len());
        self.bytes(s.as_bytes());
    }

    /// Appends bytes behind a `u32` length prefix.
    ///
    /// # Panics
    ///
    /// If there are more than `u32::MAX` bytes.
    #[inline]
    pub fn bytes32(&mut self, bytes: &[u8]) {
        self.len32(bytes.len());
        self.bytes(bytes);
    }

    /// Appends a string behind a `u32` byte-length prefix.
    ///
    /// # Panics
    ///
    /// If the string is longer than `u32::MAX` bytes.
    #[inline]
    pub fn str32(&mut self, s: &str) {
        self.bytes32(s.as_bytes());
    }
}

impl<'a> Reader<'a> {
    /// A big-endian reader over `bytes`.
    #[inline]
    pub fn be(bytes: &'a [u8]) -> Self {
        Reader {
            rest: bytes,
            len: bytes.len(),
            big_endian: true,
        }
    }

    /// A little-endian reader over `bytes`.
    #[inline]
    pub fn le(bytes: &'a [u8]) -> Self {
        Reader {
            rest: bytes,
            len: bytes.len(),
            big_endian: false,
        }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Consumes the next `n` bytes; every other read is built on this.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ParseError> {
        let Some((head, rest)) = self.rest.split_at_checked(n) else {
            return Err(truncated(n, self.position(), self.remaining()));
        };
        self.rest = rest;
        Ok(head)
    }

    /// Consumes the next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ParseError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ParseError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than `0` or `1` is malformed.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, ParseError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format_args!("bad bool byte {other}"))),
        }
    }

    reader_ints! { u16 u32 u64 u128 i64 }

    reader_prefixed! {
        u8 list8;
        u16 list16;
        u32 list32;
        u64 list64;
    }

    fn list<T>(
        &mut self,
        count: u64,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let fits = usize::try_from(count).ok().filter(|n| {
            n.checked_mul(min_elem_bytes.max(1))
                .is_some_and(|need| need <= self.remaining())
        });
        let Some(count) = fits else {
            return Err(malformed(format_args!(
                "list of {count} elements of at least {min_elem_bytes} bytes cannot fit in {} bytes",
                self.remaining()
            )));
        };
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// Reads a presence byte, then the value through `some` if it says
    /// there is one.
    #[inline]
    pub fn opt<T>(
        &mut self,
        some: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Option<T>, ParseError> {
        self.bool()?.then(|| some(self)).transpose()
    }

    /// Reads a string written by [`Writer::str16`], as a `String` or any
    /// other type made from the text it borrows from the buffer.
    #[inline]
    pub fn str16<T: From<&'a str>>(&mut self) -> Result<T, ParseError> {
        let len = self.u16()?;
        utf8(self.take(usize::from(len))?).map(T::from)
    }

    /// Reads bytes written by [`Writer::bytes32`].
    #[inline]
    pub fn bytes32(&mut self) -> Result<&'a [u8], ParseError> {
        let len = self.u32()?;
        // A length beyond `usize` is beyond `remaining()` too.
        self.take(usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// Reads a string written by [`Writer::str32`].
    #[inline]
    pub fn str32(&mut self) -> Result<String, ParseError> {
        utf8(self.bytes32()?).map(str::to_owned)
    }

    /// Succeeds only if every byte was consumed.
    #[inline]
    pub fn finish(&self) -> Result<(), ParseError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(malformed(format_args!("{n} trailing bytes"))),
        }
    }

    /// Decodes one value that must span the whole buffer: runs `decode`,
    /// then [`finish`](Reader::finish).
    #[inline]
    pub fn whole<T>(
        mut self,
        decode: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        // The decoded value is handed on as it came, not unwrapped and
        // wrapped again: a large `T` is otherwise copied twice more.
        let result = decode(&mut self);
        if result.is_ok() {
            self.finish()?;
        }
        result
    }
}

/// `take`'s error. Out of line and fed by value, so that the reads built
/// on `take` inline small and a reader's cursor can stay in registers.
#[cold]
fn truncated(n: usize, offset: usize, left: usize) -> ParseError {
    ParseError::new(format!(
        "truncated: {n} bytes wanted at offset {offset}, {left} left"
    ))
}

/// The other read errors, out of line for the same reason.
#[cold]
fn malformed(what: std::fmt::Arguments<'_>) -> ParseError {
    ParseError::new(what.to_string())
}

fn utf8(bytes: &[u8]) -> Result<&str, ParseError> {
    std::str::from_utf8(bytes).map_err(|_| malformed(format_args!("string is not valid UTF-8")))
}
