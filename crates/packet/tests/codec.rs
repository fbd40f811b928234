//! The byte codec's contract, checked once here for every format built
//! on it: reads never panic or overrun, writes and reads invert each
//! other in both byte orders, a counted list is bounded before it is
//! allocated, and an over-long length is refused instead of wrapped.

use proptest::prelude::*;
use vw_packet::codec::{Reader, Writer};
use vw_packet::ParseError;

/// Applies read op `op` (any value; folded onto the op table).
fn read_op(r: &mut Reader<'_>, op: u8) -> Result<(), ParseError> {
    let unit = |r: &mut Reader<'_>| r.u8().map(drop);
    match op % 17 {
        0 => r.u8().map(drop),
        1 => r.bool().map(drop),
        2 => r.u16().map(drop),
        3 => r.u32().map(drop),
        4 => r.u64().map(drop),
        5 => r.u128().map(drop),
        6 => r.i64().map(drop),
        7 => r.take(usize::from(op)).map(drop),
        8 => r.array::<6>().map(drop),
        9 => r.str16::<String>().map(drop),
        10 => r.str32().map(drop),
        11 => r.bytes32().map(drop),
        12 => r.opt(Reader::u32).map(drop),
        13 => r.list8(1, unit).map(drop),
        14 => r.list16(3, Reader::str16::<String>).map(drop),
        15 => r.list32(0, unit).map(drop),
        _ => r.list64(2, |r| r.list8(1, unit)).map(drop),
    }
}

proptest! {
    /// Any byte string under any sequence of read ops: `Ok` or `Err`,
    /// never a panic, and the cursor never passes the end.
    #[test]
    fn reads_never_panic_or_overrun(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        ops in proptest::collection::vec(any::<u8>(), 0..48),
        big_endian in any::<bool>(),
    ) {
        let mut r = if big_endian { Reader::be(&bytes) } else { Reader::le(&bytes) };
        for op in ops {
            let before = r.position();
            let _ = read_op(&mut r, op);
            prop_assert!(before <= r.position() && r.position() <= bytes.len());
            prop_assert_eq!(r.position() + r.remaining(), bytes.len());
            prop_assert_eq!(r.finish().is_ok(), r.position() == bytes.len());
        }
    }

    /// Every primitive a writer appends, a reader of the same byte order
    /// hands back, and nothing is left over.
    #[test]
    fn primitives_round_trip_in_both_byte_orders(
        ints in (any::<u8>(), any::<u16>(), any::<u32>(), any::<u64>(), any::<i64>()),
        wide in (any::<u64>(), any::<u64>()),
        flag in any::<bool>(),
        text in ".{0,40}",
        blob in proptest::collection::vec(any::<u8>(), 0..40),
        maybe in proptest::option::of(any::<u32>()),
        list in proptest::collection::vec(any::<u16>(), 0..20),
        big_endian in any::<bool>(),
    ) {
        let (a, b, c, d, e) = ints;
        let wide = u128::from(wide.0) << 64 | u128::from(wide.1);
        let mut out = Vec::new();
        let mut w = if big_endian { Writer::be(&mut out) } else { Writer::le(&mut out) };
        w.u8(a);
        w.u16(b);
        w.u32(c);
        w.u64(d);
        w.i64(e);
        w.u128(wide);
        w.bool(flag);
        w.str16(&text);
        w.str32(&text);
        w.bytes32(&blob);
        w.bytes(&[1, 2, 3, 4, 5, 6]);
        w.opt(maybe, Writer::u32);
        w.list8(&list, |w, v| w.u16(*v));
        w.list16(&list, |w, v| w.u16(*v));
        w.list32(&list, |w, v| w.u16(*v));
        w.list64(&list, |w, v| w.u16(*v));

        let r = if big_endian { Reader::be(&out) } else { Reader::le(&out) };
        let back = r.whole(|r| {
            Ok((
                (r.u8()?, r.u16()?, r.u32()?, r.u64()?, r.i64()?),
                r.u128()?,
                r.bool()?,
                (r.str16()?, r.str32()?),
                r.bytes32()?.to_vec(),
                r.array::<6>()?,
                r.opt(Reader::u32)?,
                [
                    r.list8(2, Reader::u16)?,
                    r.list16(2, Reader::u16)?,
                    r.list32(2, Reader::u16)?,
                    r.list64(2, Reader::u16)?,
                ],
            ))
        });
        let lists = [list.clone(), list.clone(), list.clone(), list];
        prop_assert_eq!(
            back,
            Ok((ints, wide, flag, (text.clone(), text), blob, [1, 2, 3, 4, 5, 6], maybe, lists))
        );
    }
}

#[test]
fn byte_order_is_the_constructors() {
    let (mut be, mut le) = (Vec::new(), Vec::new());
    Writer::be(&mut be).u32(0x0102_0304);
    Writer::le(&mut le).u32(0x0102_0304);
    assert_eq!(be, [1, 2, 3, 4]);
    assert_eq!(le, [4, 3, 2, 1]);
    assert_eq!(Reader::be(&be).u32(), Ok(0x0102_0304));
    assert_eq!(Reader::le(&be).u32(), Ok(0x0403_0201));
}

/// A placeholder patched once its body is written reads back as the
/// length a `len32` written up front would have given, in either order.
#[test]
fn patch_len32_fills_in_a_placeholder() {
    for big_endian in [true, false] {
        fn writer(out: &mut Vec<u8>, big_endian: bool) -> Writer<'_> {
            if big_endian {
                Writer::be(out)
            } else {
                Writer::le(out)
            }
        }
        let (mut patched, mut direct) = (Vec::new(), Vec::new());
        let mut w = writer(&mut patched, big_endian);
        w.u8(0xD7);
        w.u32(0);
        w.bytes(b"body");
        writer(&mut patched, big_endian).patch_len32(1, 4);
        let mut w = writer(&mut direct, big_endian);
        w.u8(0xD7);
        w.len32(4);
        w.bytes(b"body");
        assert_eq!(patched, direct);
    }
}

/// A count the remaining bytes cannot hold at the stated element size is
/// refused before the element closure runs once — and so before anything
/// is reserved for it.
#[test]
fn list_refuses_a_count_the_bytes_cannot_hold() {
    // 2^24 elements of at least 5 bytes claimed over a 60-byte body.
    let mut bytes = Vec::new();
    Writer::le(&mut bytes).u32(1 << 24);
    bytes.extend_from_slice(&[0; 60]);
    let mut r = Reader::le(&bytes);
    let mut calls = 0;
    let result = r.list32(5, |r| {
        calls += 1;
        r.u8()
    });
    assert!(result.is_err());
    assert_eq!(calls, 0);
    // One element too many for the bytes: 13 × 5 > 60.
    let mut bytes = Vec::new();
    Writer::le(&mut bytes).u32(13);
    bytes.extend_from_slice(&[0; 60]);
    assert!(Reader::le(&bytes).list32(5, |r| r.take(5)).is_err());
    // What fits is read: 12 × 5 = 60.
    bytes[0] = 12;
    let elems = Reader::le(&bytes).list32(5, |r| r.take(5)).unwrap();
    assert_eq!(elems.len(), 12);
    // A u64 count beyond any buffer is an error, not an overflow.
    let mut bytes = Vec::new();
    Writer::be(&mut bytes).u64(u64::MAX);
    assert!(Reader::be(&bytes).list64(usize::MAX, Reader::u8).is_err());
}

#[test]
fn reads_are_strict_about_bools_utf8_and_trailing_bytes() {
    assert!(Reader::le(&[2]).bool().is_err());
    assert!(Reader::le(&[1, 0, 0xFF]).str16::<String>().is_err());
    assert!(Reader::le(&[7, 9]).whole(Reader::u8).is_err());
    assert_eq!(Reader::le(&[7]).whole(Reader::u8), Ok(7));
}

/// The longest string a `u16` prefix can carry is written; one byte more
/// is refused, not wrapped to a prefix of 0.
#[test]
#[should_panic(expected = "length 65536 exceeds the u16 prefix")]
fn str16_refuses_a_65536_byte_string() {
    let mut out = Vec::new();
    let mut w = Writer::be(&mut out);
    w.str16(&"x".repeat(65_535));
    assert_eq!(out.len(), 2 + 65_535);
    let mut out = Vec::new();
    Writer::be(&mut out).str16(&"x".repeat(65_536));
}
