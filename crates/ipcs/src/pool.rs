//! A freelist buffer pool for hot-path frame blocks.
//!
//! Every frame the Nucleus sends is encoded into one contiguous block
//! (§5.1), and every frame a substrate receives lands in one. Allocating
//! those per message is the single biggest avoidable cost on the data
//! plane, so the [`World`](crate::World) owns one [`BufferPool`] shared by
//! every channel: senders and receivers lease a `Vec<u8>` with
//! [`BufferPool::take`], and the substrate returns sole-owner blocks with
//! [`BufferPool::give`] once the bytes are on the wire.
//!
//! The pool is deliberately simple — a bounded LIFO freelist under one
//! mutex — because lease/return pairs are short and the contention window
//! is a few instructions. Buffers above [`MAX_POOLED_CAPACITY`] are never
//! retained (one 64 MiB outlier must not pin memory forever), and the
//! freelist holds at most [`MAX_POOLED_BUFFERS`] entries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Most buffers the freelist will retain.
pub const MAX_POOLED_BUFFERS: usize = 64;

/// Largest buffer capacity the freelist will retain.
pub const MAX_POOLED_CAPACITY: usize = 1 << 20;

/// Counters describing how the pool has been used, for tests and metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Leases satisfied from the freelist.
    pub hits: u64,
    /// Leases that had to allocate fresh.
    pub misses: u64,
    /// Buffers returned and retained.
    pub returns: u64,
    /// Buffers returned but discarded (freelist full or buffer oversized).
    pub discards: u64,
}

#[derive(Debug, Default)]
struct PoolInner {
    free: Mutex<Vec<Vec<u8>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    discards: AtomicU64,
}

/// A shared freelist of `Vec<u8>` scratch buffers. Cloning is cheap and
/// all clones feed the same freelist.
#[derive(Debug, Clone, Default)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Leases an empty buffer with at least `min_capacity` bytes of
    /// capacity, reusing a pooled one when available.
    #[must_use]
    pub fn take(&self, min_capacity: usize) -> Vec<u8> {
        let reused = {
            let mut free = self.inner.free.lock().unwrap();
            // LIFO keeps the hottest (cache-resident) buffer on top; take
            // the first entry big enough rather than the exact best fit.
            free.iter()
                .rposition(|b| b.capacity() >= min_capacity)
                .map(|i| free.swap_remove(i))
        };
        match reused {
            Some(buf) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(min_capacity)
            }
        }
    }

    /// Returns a buffer to the freelist. The buffer is cleared; oversized
    /// buffers and overflow beyond the freelist bound are dropped.
    pub fn give(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
            self.inner.discards.fetch_add(1, Ordering::Relaxed);
            return;
        }
        buf.clear();
        let mut free = self.inner.free.lock().unwrap();
        if free.len() >= MAX_POOLED_BUFFERS {
            self.inner.discards.fetch_add(1, Ordering::Relaxed);
            return;
        }
        free.push(buf);
        self.inner.returns.fetch_add(1, Ordering::Relaxed);
    }

    /// Attempts to reclaim the allocation behind a [`bytes::Bytes`] block:
    /// succeeds only when the block is the sole owner of its full buffer
    /// (no outstanding zero-copy slices), which is exactly the state a
    /// frame block is in after the substrate has written it out.
    pub fn reclaim(&self, block: bytes::Bytes) {
        if let Ok(buf) = block.try_into_vec() {
            self.give(buf);
        }
    }

    /// Number of buffers currently in the freelist.
    #[must_use]
    pub fn free_buffers(&self) -> usize {
        self.inner.free.lock().unwrap().len()
    }

    /// Usage counters since the pool was created.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            returns: self.inner.returns.load(Ordering::Relaxed),
            discards: self.inner.discards.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_take_reuses_the_allocation() {
        let pool = BufferPool::new();
        let mut buf = pool.take(100);
        buf.extend_from_slice(b"hello");
        let ptr = buf.as_ptr();
        pool.give(buf);
        assert_eq!(pool.free_buffers(), 1);
        let again = pool.take(50);
        assert!(again.is_empty());
        assert_eq!(again.as_ptr(), ptr);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.returns), (1, 1, 1));
    }

    #[test]
    fn undersized_pooled_buffer_is_skipped() {
        let pool = BufferPool::new();
        pool.give(Vec::with_capacity(16));
        let big = pool.take(1024);
        assert!(big.capacity() >= 1024);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn oversized_and_overflow_buffers_are_discarded() {
        let pool = BufferPool::new();
        pool.give(Vec::with_capacity(MAX_POOLED_CAPACITY + 1));
        assert_eq!(pool.free_buffers(), 0);
        for _ in 0..MAX_POOLED_BUFFERS + 5 {
            pool.give(Vec::with_capacity(64));
        }
        assert_eq!(pool.free_buffers(), MAX_POOLED_BUFFERS);
        assert_eq!(pool.stats().discards, 6);
    }

    #[test]
    fn reclaim_requires_sole_ownership() {
        let pool = BufferPool::new();
        let block = bytes::Bytes::from(vec![1u8; 32]);
        let alias = block.clone();
        pool.reclaim(block);
        assert_eq!(pool.free_buffers(), 0); // alias still live
        pool.reclaim(alias);
        assert_eq!(pool.free_buffers(), 1);

        // A slice view is not the full buffer and is never reclaimed.
        let sliced = bytes::Bytes::from(vec![2u8; 32]).slice(1..8);
        pool.reclaim(sliced);
        assert_eq!(pool.free_buffers(), 1);
    }
}
