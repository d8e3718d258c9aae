//! Offline shim for the `bytes` crate (1.x API subset).
//!
//! [`Bytes`] is an immutable, cheaply clonable byte buffer backed by an
//! `Arc<Vec<u8>>` plus a range. As in the real crate, `From<Vec<u8>>`
//! takes the vector's buffer without copying it, and `clone` and `slice`
//! are O(1). Only the methods this workspace uses are provided.

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// Immutable shared byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn resolve(&self, range: impl RangeBounds<usize>) -> (usize, usize) {
        use std::ops::Bound::*;
        let lo = match range.start_bound() {
            Included(&n) => n,
            Excluded(&n) => n + 1,
            Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Included(&n) => n + 1,
            Excluded(&n) => n,
            Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        (lo, hi)
    }

    /// O(1) sub-slice sharing the same backing allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let (lo, hi) = self.resolve(range);
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Takes ownership of the vector's buffer: no byte is copied.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(32) {
            write!(f, "{:02x}", b)?;
        }
        if self.len() > 32 {
            write!(f, "…({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_keeps_the_buffer() {
        let v = vec![1u8, 2, 3, 4, 5];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(&b[..], &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn slice_shares_the_buffer() {
        let b = Bytes::from(vec![9u8, 8, 7, 1, 2, 3]);
        let tail = b.slice(3..);
        assert_eq!(&tail[..], &[1, 2, 3]);
        assert_eq!(tail.as_ptr(), b[3..].as_ptr());
        assert_eq!(tail, Bytes::from(vec![1, 2, 3]));
        let mid = tail.slice(1..=1);
        assert_eq!(&mid[..], &[2]);
        assert!(tail.slice(3..).is_empty());
    }
}
