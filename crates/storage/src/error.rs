//! Error type for the storage layer.

use std::fmt;

/// Errors raised by the pager, buffer pool and page codecs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// A page id referred to a page that was never allocated or is out of
    /// bounds.
    UnknownPage(u32),
    /// A page id referred to a page that has been freed.
    FreedPage(u32),
    /// A read or write buffer did not match the pager's page size.
    BadBufferSize { expected: usize, actual: usize },
    /// A codec read ran past the end of a page, or encoded data did not fit.
    OutOfBounds {
        offset: usize,
        len: usize,
        size: usize,
    },
    /// Decoded bytes were structurally invalid.
    Corrupt(&'static str),
    /// A simulated device-level I/O failure. Transient faults may succeed on
    /// retry; non-transient ones (e.g. a torn write) will not.
    Io { transient: bool },
    /// The simulated disk ran out of space while allocating a page.
    DiskFull,
    /// A bounded in-memory structure (e.g. the pair-slab arena or a
    /// per-session queue budget) ran out of capacity. Permanent for the
    /// query that hit it; the process stays up.
    ResourceExhausted(&'static str),
    /// The caller handed over a value the structure cannot store (e.g. a
    /// NaN, infinite or empty bounding rectangle). Nothing was modified.
    InvalidInput(&'static str),
}

impl StorageError {
    /// Whether retrying the failed operation could plausibly succeed.
    ///
    /// Only device-level faults explicitly marked transient qualify; logical
    /// errors (unknown/freed pages, corruption, disk-full) are permanent.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Io { transient: true })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownPage(id) => write!(f, "unknown page id {id}"),
            StorageError::FreedPage(id) => write!(f, "page {id} has been freed"),
            StorageError::BadBufferSize { expected, actual } => {
                write!(
                    f,
                    "buffer size {actual} does not match page size {expected}"
                )
            }
            StorageError::OutOfBounds { offset, len, size } => write!(
                f,
                "access of {len} bytes at offset {offset} exceeds page size {size}"
            ),
            StorageError::Corrupt(what) => write!(f, "corrupt page data: {what}"),
            StorageError::Io { transient: true } => write!(f, "transient i/o fault"),
            StorageError::Io { transient: false } => write!(f, "i/o fault"),
            StorageError::DiskFull => write!(f, "disk full"),
            StorageError::ResourceExhausted(what) => {
                write!(f, "resource exhausted: {what}")
            }
            StorageError::InvalidInput(what) => write!(f, "invalid input: {what}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            StorageError::UnknownPage(7).to_string(),
            "unknown page id 7"
        );
        assert!(StorageError::BadBufferSize {
            expected: 1024,
            actual: 10
        }
        .to_string()
        .contains("1024"));
        assert!(StorageError::OutOfBounds {
            offset: 1020,
            len: 8,
            size: 1024
        }
        .to_string()
        .contains("1020"));
        assert!(StorageError::Corrupt("bad tag")
            .to_string()
            .contains("bad tag"));
        assert_eq!(
            StorageError::Io { transient: true }.to_string(),
            "transient i/o fault"
        );
        assert_eq!(StorageError::DiskFull.to_string(), "disk full");
        assert!(StorageError::ResourceExhausted("arena slots")
            .to_string()
            .contains("arena slots"));
        assert!(StorageError::InvalidInput("bad mbr")
            .to_string()
            .contains("bad mbr"));
    }

    #[test]
    fn transience() {
        assert!(StorageError::Io { transient: true }.is_transient());
        assert!(!StorageError::Io { transient: false }.is_transient());
        assert!(!StorageError::DiskFull.is_transient());
        assert!(!StorageError::Corrupt("x").is_transient());
        assert!(!StorageError::UnknownPage(0).is_transient());
        assert!(!StorageError::ResourceExhausted("x").is_transient());
        assert!(!StorageError::InvalidInput("x").is_transient());
    }
}
