//! Stand-in for `bytes`: only `BytesMut`, as a `Vec<u8>` with a consumed
//! prefix. The published type splits in O(1) by sharing the allocation;
//! this one copies the split-off prefix (request heads, short replies),
//! which is part of why the benchmark's numbers compare commits and are
//! not absolutes (see the benchmark README, "Build").

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A growable byte buffer consumed from the front.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Bytes of `data` already consumed; the live bytes are `data[head..]`.
    head: usize,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&mut self) {
        self.data.clear();
        self.head = 0;
    }

    /// Make room for `additional` more bytes, reclaiming the consumed
    /// prefix before growing the allocation.
    pub fn reserve(&mut self, additional: usize) {
        if self.head > 0 && self.data.len() + additional > self.data.capacity() {
            self.data.drain(..self.head);
            self.head = 0;
        }
        self.data.reserve(additional);
    }

    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.data.extend_from_slice(bytes);
    }

    /// Consume the first `n` bytes.
    ///
    /// # Panics
    /// If `n > len()`, as the published crate does.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past the end of the buffer");
        self.head += n;
        if self.head == self.data.len() {
            self.clear();
        }
    }

    /// Split off and return the first `at` bytes; `self` keeps the rest.
    ///
    /// # Panics
    /// If `at > len()`, as the published crate does.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to past the end of the buffer");
        let front = BytesMut::from(&self[..at]);
        self.advance(at);
        front
    }

    /// Take everything, leaving `self` empty.
    pub fn split(&mut self) -> BytesMut {
        std::mem::take(self)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.head..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.head..]
    }
}

impl From<&[u8]> for BytesMut {
    fn from(bytes: &[u8]) -> Self {
        Self {
            data: bytes.to_vec(),
            head: 0,
        }
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.escape_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_to_and_advance_consume_from_the_front() {
        let mut b = BytesMut::from(&b"GET /a\r\n\r\nGET /b"[..]);
        let head = b.split_to(10);
        assert_eq!(&head[..], b"GET /a\r\n\r\n");
        assert_eq!(&b[..], b"GET /b");
        b.advance(4);
        assert_eq!(&b[..], b"/b");
        assert_eq!(b.len(), 2);
        b.advance(2);
        assert!(b.is_empty());
    }

    #[test]
    fn appending_after_consumption_keeps_only_live_bytes() {
        let mut b = BytesMut::new();
        for round in 0..1000u32 {
            b.extend_from_slice(&round.to_le_bytes());
            b.extend_from_slice(b"tail");
            let front = b.split_to(4);
            assert_eq!(&front[..], &round.to_le_bytes());
            assert_eq!(&b[..], b"tail");
            b.advance(4);
        }
        assert!(b.data.capacity() < 1024, "consumed prefix is reclaimed");
    }

    #[test]
    #[should_panic(expected = "split_to past the end")]
    fn split_past_the_end_panics() {
        BytesMut::from(&b"ab"[..]).split_to(3);
    }
}
