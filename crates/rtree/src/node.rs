//! In-memory node representation and its page serialization.
//!
//! Page layout (little endian):
//!
//! ```text
//! offset 0: level  u8   (0 = leaf)
//! offset 1: count  u16
//! offset 3: pad    u8
//! offset 4: entries[count], each:
//!     ptr   u64            (object id, or page id in the low 32 bits)
//!     lo[D] f64 × D
//!     hi[D] f64 × D
//! ```
//!
//! Entries have the same size at every level, so one capacity bound applies
//! to leaves and internal nodes alike.

use sdj_geom::Rect;
use sdj_storage::codec::{PageReader, PageWriter};
use sdj_storage::{PageId, Result, StorageError};

use crate::entry::{Entry, EntryPtr, ObjectId};

/// Bytes of the fixed node header.
pub const HEADER_SIZE: usize = 4;

/// Serialized size of one entry in dimension `D`.
#[must_use]
pub const fn entry_size<const D: usize>() -> usize {
    8 + 16 * D
}

/// Number of entries that fit in a page of `page_size` bytes.
#[must_use]
pub const fn node_capacity<const D: usize>(page_size: usize) -> usize {
    (page_size - HEADER_SIZE) / entry_size::<D>()
}

/// A deserialized R-tree node.
#[derive(Clone, Debug, PartialEq)]
pub struct Node<const D: usize> {
    /// Level of the node: 0 for leaves, increasing towards the root.
    pub level: u8,
    /// The node's entries.
    pub entries: Vec<Entry<D>>,
}

impl<const D: usize> Node<D> {
    /// Creates an empty node at `level`.
    #[must_use]
    pub fn new(level: u8) -> Self {
        Self {
            level,
            entries: Vec::new(),
        }
    }

    /// True for leaf nodes.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Minimal bounding rectangle of all entries ([`Rect::empty`] when the
    /// node has none).
    #[must_use]
    pub fn mbr(&self) -> Rect<D> {
        self.entries
            .iter()
            .fold(Rect::empty(), |acc, e| acc.union(&e.mbr))
    }

    /// Serializes the node into a page buffer.
    pub fn encode(&self, buf: &mut [u8]) -> Result<()> {
        let mut w = PageWriter::new(buf);
        w.put_u8(self.level)?;
        let count = u16::try_from(self.entries.len())
            .map_err(|_| StorageError::Corrupt("node entry count exceeds u16"))?;
        w.put_u16(count)?;
        w.put_u8(0)?; // pad
        for e in &self.entries {
            let ptr_bits = match e.ptr {
                EntryPtr::Object(oid) => {
                    debug_assert!(self.level == 0, "object entry in internal node");
                    oid.0
                }
                EntryPtr::Child(page) => {
                    debug_assert!(self.level > 0, "child entry in leaf node");
                    u64::from(page.0)
                }
            };
            w.put_u64(ptr_bits)?;
            for a in 0..D {
                w.put_f64(e.mbr.lo()[a])?;
            }
            for a in 0..D {
                w.put_f64(e.mbr.hi()[a])?;
            }
        }
        Ok(())
    }

    /// Deserializes a node from a page buffer.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let (_, count) = Self::decode_header(buf)?;
        let mut entries = Vec::with_capacity(count);
        let level = Self::scan(buf, |_, e| entries.push(*e))?;
        Ok(Self { level, entries })
    }

    /// Deserializes a node, streaming each entry through `f(level, &entry)`
    /// instead of collecting a `Vec`. Returns the node's level.
    ///
    /// This is the allocation-free read path: callers with a reusable buffer
    /// (the join's struct-of-arrays node views) decode a page without any
    /// per-read heap traffic. Entries are fixed-stride runs of eight-byte
    /// words, read straight off the page; every entry is validated before
    /// `f` sees it, so a corrupt entry ends the scan with
    /// [`StorageError::Corrupt`] after its valid predecessors were streamed.
    pub fn scan(buf: &[u8], mut f: impl FnMut(u8, &Entry<D>)) -> Result<u8> {
        let (level, count) = Self::decode_header(buf)?;
        let body = buf
            .get(HEADER_SIZE..HEADER_SIZE + count * entry_size::<D>())
            .ok_or(StorageError::Corrupt("node body runs past the page"))?;
        let (words, _) = body.as_chunks::<8>();
        for w in words.chunks_exact(1 + 2 * D) {
            let lo: [f64; D] = std::array::from_fn(|a| f64::from_le_bytes(w[1 + a]));
            let hi: [f64; D] = std::array::from_fn(|a| f64::from_le_bytes(w[1 + D + a]));
            if !(0..D).all(|a| lo[a].is_finite() && hi[a].is_finite() && lo[a] <= hi[a]) {
                return Err(StorageError::Corrupt("invalid entry rectangle"));
            }
            let ptr_bits = u64::from_le_bytes(w[0]);
            let ptr = if level == 0 {
                EntryPtr::Object(ObjectId(ptr_bits))
            } else {
                let page = u32::try_from(ptr_bits)
                    .map_err(|_| StorageError::Corrupt("child page id exceeds u32"))?;
                EntryPtr::Child(PageId(page))
            };
            f(
                level,
                &Entry {
                    mbr: Rect::new(lo, hi),
                    ptr,
                },
            );
        }
        Ok(level)
    }

    /// Parses and validates the fixed node header: `(level, entry count)`.
    fn decode_header(buf: &[u8]) -> Result<(u8, usize)> {
        let mut r = PageReader::new(buf);
        let level = r.get_u8()?;
        let count = r.get_u16()? as usize;
        r.skip(1)?;
        if count > node_capacity::<D>(buf.len()) {
            return Err(StorageError::Corrupt("node entry count exceeds capacity"));
        }
        Ok((level, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf() -> Node<2> {
        let mut n = Node::new(0);
        n.entries.push(Entry::object(
            Rect::new([0.0, 1.0], [2.0, 3.0]),
            ObjectId(42),
        ));
        n.entries.push(Entry::object(
            Rect::new([-5.0, -5.0], [-1.0, -1.0]),
            ObjectId(u64::MAX / 2),
        ));
        n
    }

    #[test]
    fn leaf_roundtrip() {
        let n = leaf();
        let mut buf = vec![0u8; 256];
        n.encode(&mut buf).unwrap();
        let back = Node::<2>::decode(&buf).unwrap();
        assert_eq!(n, back);
    }

    #[test]
    fn internal_roundtrip() {
        let mut n: Node<2> = Node::new(3);
        n.entries
            .push(Entry::child(Rect::new([0.0, 0.0], [9.0, 9.0]), PageId(17)));
        let mut buf = vec![0u8; 256];
        n.encode(&mut buf).unwrap();
        let back = Node::<2>::decode(&buf).unwrap();
        assert_eq!(n, back);
        assert!(!back.is_leaf());
    }

    #[test]
    fn scan_streams_same_entries_as_decode() {
        let n = leaf();
        let mut buf = vec![0u8; 256];
        n.encode(&mut buf).unwrap();
        let mut streamed = Vec::new();
        let level = Node::<2>::scan(&buf, |lvl, e| {
            assert_eq!(lvl, n.level);
            streamed.push(*e);
        })
        .unwrap();
        assert_eq!(level, n.level);
        assert_eq!(streamed, n.entries);
    }

    #[test]
    fn mbr_of_entries() {
        let n = leaf();
        assert_eq!(n.mbr(), Rect::new([-5.0, -5.0], [2.0, 3.0]));
        assert!(Node::<2>::new(0).mbr().is_empty());
    }

    #[test]
    fn capacity_math() {
        assert_eq!(entry_size::<2>(), 40);
        assert_eq!(node_capacity::<2>(2048), 51);
        assert_eq!(node_capacity::<3>(1024), 18);
    }

    #[test]
    fn encode_overflow_detected() {
        let n = leaf();
        let mut buf = vec![0u8; HEADER_SIZE + entry_size::<2>()]; // room for 1
        assert!(n.encode(&mut buf).is_err());
    }

    #[test]
    fn decode_rejects_bogus_count() {
        let mut buf = vec![0u8; 64];
        buf[0] = 0;
        buf[1] = 0xFF; // count = 255, impossible in 64 bytes
        buf[2] = 0x00;
        assert!(matches!(
            Node::<2>::decode(&buf),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn decode_rejects_nonfinite_rect() {
        let mut n: Node<2> = Node::new(0);
        n.entries.push(Entry::object(
            Rect::new([0.0, 0.0], [1.0, 1.0]),
            ObjectId(1),
        ));
        let mut buf = vec![0u8; 128];
        n.encode(&mut buf).unwrap();
        // Corrupt the first coordinate with NaN bits.
        buf[HEADER_SIZE + 8..HEADER_SIZE + 16].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(
            Node::<2>::decode(&buf),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_node_roundtrip() {
        let n: Node<2> = Node::new(5);
        let mut buf = vec![0u8; 64];
        n.encode(&mut buf).unwrap();
        let back = Node::<2>::decode(&buf).unwrap();
        assert_eq!(back.level, 5);
        assert!(back.entries.is_empty());
    }
}
