//! Thread-local frame-buffer arena.
//!
//! Every frame traversing the simulator is an owned byte buffer, and the
//! hot path (build → clone at fan-out → drop after delivery) used to hit
//! the global allocator once per step. The arena recycles those buffers:
//! [`Frame`](crate::Frame) returns its buffer here on drop, and
//! `Frame::assemble` and `Frame::clone` take buffers from here instead
//! of allocating fresh ones.
//!
//! Buffers are segregated into power-of-two size classes and handed out
//! with their class's full capacity, so a recycled buffer never needs a
//! realloc to serve its next request — the failure mode that makes naive
//! one-bucket pools slower than the allocator they bypass.
//!
//! The pool is thread-local, so the campaign engine's worker threads each
//! keep their own arena and no synchronization is involved. Per-class
//! retention is capped and jumbo buffers are never pooled, so a burst
//! cannot pin memory forever.

use std::cell::RefCell;

/// Size classes are `2^MIN_CLASS_BITS ..= 2^MAX_CLASS_BITS` bytes; a
/// standard 1518-byte Ethernet frame lands in the 2 KiB class.
const MIN_CLASS_BITS: u32 = 6;
const MAX_CLASS_BITS: u32 = 12;
const CLASSES: usize = (MAX_CLASS_BITS - MIN_CLASS_BITS + 1) as usize;

/// Maximum number of buffers retained per class per thread.
const MAX_POOLED_PER_CLASS: usize = 64;

/// A class whose 64 buffers come to less than this retains this many
/// bytes instead: minimum-size frames (acknowledgments, tokens) queue by
/// the hundred behind a data burst on a slow port.
const MAX_POOLED_SMALL_CLASS_BYTES: usize = 32 * 1024;

struct Pool {
    classes: [Vec<Vec<u8>>; CLASSES],
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool {
        classes: std::array::from_fn(|_| Vec::new()),
    });
}

/// The size class that can serve `capacity`, if any.
fn class_for_request(capacity: usize) -> Option<usize> {
    if capacity > (1 << MAX_CLASS_BITS) {
        return None;
    }
    let bits = capacity
        .next_power_of_two()
        .trailing_zeros()
        .max(MIN_CLASS_BITS);
    Some((bits - MIN_CLASS_BITS) as usize)
}

/// Takes an empty buffer with at least `capacity` spare capacity —
/// recycled when possible, freshly allocated otherwise. Allocations are
/// rounded up to the class size so the buffer re-enters its class on
/// recycle.
pub fn take_buffer(capacity: usize) -> Vec<u8> {
    match class_for_request(capacity) {
        Some(class) => {
            let reused = POOL.with(|p| p.borrow_mut().classes[class].pop());
            match reused {
                Some(buf) => buf,
                None => Vec::with_capacity(1 << (class as u32 + MIN_CLASS_BITS)),
            }
        }
        None => Vec::with_capacity(capacity),
    }
}

/// Returns a buffer to its size class. Buffers whose capacity is not an
/// exact class size (grown, shrunk, or foreign) and overflow beyond the
/// per-class cap fall through to the allocator.
pub fn recycle_buffer(mut buf: Vec<u8>) {
    let cap = buf.capacity();
    if !((1 << MIN_CLASS_BITS)..=(1 << MAX_CLASS_BITS)).contains(&cap) || !cap.is_power_of_two() {
        return;
    }
    let bits = cap.trailing_zeros();
    let class = (bits - MIN_CLASS_BITS) as usize;
    POOL.with(|p| {
        let pool = &mut p.borrow_mut().classes[class];
        if pool.len() < MAX_POOLED_PER_CLASS.max(MAX_POOLED_SMALL_CLASS_BYTES >> bits) {
            buf.clear();
            pool.push(buf);
        }
    });
}

/// Number of buffers currently pooled on this thread (diagnostics/tests).
pub fn pooled_buffers() -> usize {
    POOL.with(|p| p.borrow().classes.iter().map(Vec::len).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_pool() {
        POOL.with(|p| {
            for class in &mut p.borrow_mut().classes {
                class.clear();
            }
        });
    }

    #[test]
    fn round_trip_reuses_buffer_without_realloc() {
        drain_pool();
        let mut buf = take_buffer(100);
        assert_eq!(buf.capacity(), 128);
        buf.extend_from_slice(&[1, 2, 3]);
        let ptr = buf.as_ptr();
        recycle_buffer(buf);
        assert_eq!(pooled_buffers(), 1);
        let again = take_buffer(128);
        assert_eq!(again.as_ptr(), ptr);
        assert!(again.is_empty());
        assert_eq!(pooled_buffers(), 0);
        drop(again);
    }

    #[test]
    fn classes_do_not_cross_contaminate() {
        drain_pool();
        recycle_buffer(Vec::with_capacity(64));
        // A 2 KiB request must not dequeue the 64-byte buffer.
        let big = take_buffer(1518);
        assert!(big.capacity() >= 1518);
        assert_eq!(pooled_buffers(), 1);
    }

    #[test]
    fn jumbo_and_odd_capacity_buffers_not_pooled() {
        drain_pool();
        recycle_buffer(Vec::with_capacity((1 << MAX_CLASS_BITS) + 1));
        recycle_buffer(Vec::with_capacity(100)); // not a power of two
        recycle_buffer(Vec::new());
        assert_eq!(pooled_buffers(), 0);
    }

    #[test]
    fn retention_is_capped_by_count_or_for_small_classes_by_bytes() {
        drain_pool();
        for _ in 0..1000 {
            recycle_buffer(Vec::with_capacity(64));
            recycle_buffer(Vec::with_capacity(2048));
        }
        assert_eq!(
            pooled_buffers(),
            MAX_POOLED_SMALL_CLASS_BYTES / 64 + MAX_POOLED_PER_CLASS
        );
        drain_pool();
    }

    #[test]
    fn small_requests_share_the_min_class() {
        assert_eq!(class_for_request(1), Some(0));
        assert_eq!(class_for_request(64), Some(0));
        assert_eq!(class_for_request(65), Some(1));
        assert_eq!(class_for_request(1518), Some(5));
        assert_eq!(class_for_request(4096), Some(6));
        assert_eq!(class_for_request(4097), None);
    }
}
