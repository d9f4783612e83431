//! A fixed pool of reusable block buffers.
//!
//! The paper observes that "buffering overheads can be a significant factor
//! in limiting speedups"; one avoidable overhead is allocating a fresh
//! buffer per I/O call. A [`BufferPool`] holds a fixed set of block-sized
//! buffers handed out as RAII guards; `acquire` blocks when the pool is
//! drained, which also provides natural back-pressure.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use pario_check::{Condvar, LockLevel, Mutex};

struct Inner {
    free: Mutex<Vec<Box<[u8]>>>,
    available: Condvar,
    buf_size: usize,
    capacity: usize,
}

/// A shared, fixed-capacity pool of `buf_size`-byte buffers.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<Inner>,
}

/// A pooled buffer; returns itself to the pool on drop.
#[must_use = "the buffer returns to the pool when this handle drops"]
pub struct PoolBuf {
    data: Option<Box<[u8]>>,
    inner: Arc<Inner>,
}

impl BufferPool {
    /// A pool of `capacity` zeroed buffers of `buf_size` bytes each.
    pub fn new(capacity: usize, buf_size: usize) -> BufferPool {
        assert!(capacity > 0 && buf_size > 0);
        let free = (0..capacity)
            .map(|_| vec![0u8; buf_size].into_boxed_slice())
            .collect();
        BufferPool {
            inner: Arc::new(Inner {
                free: Mutex::new_named(free, LockLevel::BufferPool),
                available: Condvar::new(),
                buf_size,
                capacity,
            }),
        }
    }

    /// Buffer size in bytes.
    pub fn buf_size(&self) -> usize {
        self.inner.buf_size
    }

    /// Total buffers owned by the pool.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Buffers currently available without blocking.
    pub fn available(&self) -> usize {
        self.inner.free.lock().len()
    }

    /// Take a buffer, blocking until one is free.
    ///
    /// Buffer contents are whatever the previous user left; callers fill
    /// before reading.
    pub fn acquire(&self) -> PoolBuf {
        let mut free = self.inner.free.lock();
        while free.is_empty() {
            self.inner.available.wait(&mut free);
        }
        PoolBuf {
            data: free.pop(),
            inner: Arc::clone(&self.inner),
        }
    }

    /// Take a buffer if one is free right now.
    pub fn try_acquire(&self) -> Option<PoolBuf> {
        let mut free = self.inner.free.lock();
        free.pop().map(|b| PoolBuf {
            data: Some(b),
            inner: Arc::clone(&self.inner),
        })
    }
}

impl Deref for PoolBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // invariant: data is Some until Drop takes it.
        self.data.as_ref().expect("buffer present until drop")
    }
}

impl DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        // invariant: data is Some until Drop takes it.
        self.data.as_mut().expect("buffer present until drop")
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if let Some(b) = self.data.take() {
            self.inner.free.lock().push(b);
            self.inner.available.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn acquire_release_cycle() {
        let pool = BufferPool::new(2, 64);
        assert_eq!(pool.available(), 2);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(a.len(), 64);
        assert_eq!(pool.available(), 0);
        assert!(pool.try_acquire().is_none());
        drop(a);
        assert_eq!(pool.available(), 1);
        drop(b);
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn buffers_are_writable() {
        let pool = BufferPool::new(1, 16);
        let mut b = pool.acquire();
        b[0] = 0xFF;
        b[15] = 0x01;
        assert_eq!(b[0], 0xFF);
        drop(b);
        // Reuse sees prior contents (pool does not re-zero).
        let b = pool.acquire();
        assert_eq!(b[0], 0xFF);
    }

    #[test]
    fn blocked_acquire_wakes_on_release() {
        let pool = BufferPool::new(1, 8);
        let held = pool.acquire();
        let p2 = pool.clone();
        let waiter = std::thread::spawn(move || {
            let b = p2.acquire();
            b.len()
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "waiter should block on empty pool");
        drop(held);
        assert_eq!(waiter.join().unwrap(), 8);
    }
}
