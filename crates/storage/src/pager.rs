//! The simulated disk: a flat collection of fixed-size pages with
//! allocation, free-list reuse, read/write accounting, per-page CRC32
//! checksums, and an optional deterministic fault injector.

use std::sync::Arc;

use crate::codec::crc32;
use crate::fault::{FaultInjector, ReadFault, WriteFault};
use crate::{Result, StorageError};

/// Identifier of a disk page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel used in on-page encodings for "no page" (e.g. the tail of a
    /// linked page list).
    pub const INVALID: PageId = PageId(u32::MAX);

    /// True if this id is the [`PageId::INVALID`] sentinel.
    #[must_use]
    pub fn is_invalid(self) -> bool {
        self == Self::INVALID
    }
}

/// Cumulative disk-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Number of page reads served.
    pub reads: u64,
    /// Number of page writes performed.
    pub writes: u64,
    /// Number of pages allocated.
    pub allocations: u64,
    /// Number of pages freed.
    pub frees: u64,
}

/// A simulated disk of fixed-size pages.
///
/// Freshly allocated pages are zero-filled (like a zeroed file extent), and
/// freed pages go on a free list for reuse, so page ids stay dense over the
/// lifetime of a workload — important for the hybrid priority queue, which
/// continuously allocates and frees bucket pages.
/// Every live page carries a CRC32 checksum maintained on write and verified
/// on read, so bit rot (or an injected bit flip / torn write) surfaces as
/// [`StorageError::Corrupt`] instead of silently wrong data.
#[derive(Debug)]
pub struct Pager {
    page_size: usize,
    pages: Vec<Option<Box<[u8]>>>,
    /// Checksum sidecar, indexed like `pages`; meaningless for freed slots.
    crcs: Vec<u32>,
    /// CRC of an all-zero page, cached because every allocation needs it.
    zero_crc: u32,
    free_list: Vec<PageId>,
    stats: DiskStats,
    injector: Option<Arc<FaultInjector>>,
}

impl Pager {
    /// Creates an empty pager with the given page size.
    ///
    /// # Panics
    /// Panics if `page_size` is zero.
    #[must_use]
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            page_size,
            pages: Vec::new(),
            crcs: Vec::new(),
            zero_crc: crc32(&vec![0u8; page_size]),
            free_list: Vec::new(),
            stats: DiskStats::default(),
            injector: None,
        }
    }

    /// Installs (or clears) a fault injector consulted on every subsequent
    /// read, write and fallible allocation.
    pub fn set_fault_injector(&mut self, injector: Option<Arc<FaultInjector>>) {
        self.injector = injector;
    }

    /// How many times a transient fault may be retried: the installed
    /// schedule's [`FaultConfig::retries`](crate::FaultConfig::retries), or
    /// 0 without an injector (which never produces a transient fault).
    pub(crate) fn retry_budget(&self) -> u32 {
        self.injector.as_ref().map_or(0, |i| i.config().retries)
    }

    /// The page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of live (allocated, not freed) pages.
    #[must_use]
    pub fn live_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// High-water mark of the simulated disk, in pages.
    #[must_use]
    pub fn capacity_pages(&self) -> usize {
        self.pages.len()
    }

    /// Allocates a zero-filled page, reusing a freed slot when possible.
    ///
    /// Infallible (and exempt from fault injection): index construction uses
    /// this path, while runtime consumers that can handle a full disk — the
    /// hybrid queue's spill tier — go through [`Pager::try_allocate`].
    pub fn allocate(&mut self) -> PageId {
        self.stats.allocations += 1;
        if let Some(id) = self.free_list.pop() {
            self.pages[id.0 as usize] = Some(vec![0u8; self.page_size].into_boxed_slice());
            self.crcs[id.0 as usize] = self.zero_crc;
            return id;
        }
        assert!(self.pages.len() < u32::MAX as usize, "pager overflow");
        let id = PageId(self.pages.len() as u32);
        self.pages
            .push(Some(vec![0u8; self.page_size].into_boxed_slice()));
        self.crcs.push(self.zero_crc);
        id
    }

    /// Allocates a zero-filled page, surfacing [`StorageError::DiskFull`]
    /// when the fault injector's allocation budget is exhausted.
    pub fn try_allocate(&mut self) -> Result<PageId> {
        if let Some(inj) = &self.injector {
            if inj.on_allocate() {
                return Err(StorageError::DiskFull);
            }
        }
        Ok(self.allocate())
    }

    /// Frees a page, making its id available for reuse.
    pub fn free(&mut self, id: PageId) -> Result<()> {
        let slot = self
            .pages
            .get_mut(id.0 as usize)
            .ok_or(StorageError::UnknownPage(id.0))?;
        if slot.is_none() {
            return Err(StorageError::FreedPage(id.0));
        }
        *slot = None;
        self.free_list.push(id);
        self.stats.frees += 1;
        Ok(())
    }

    /// Reads a full page into `buf` (which must be exactly one page long).
    ///
    /// The stored checksum is verified before any bytes are copied out; a
    /// mismatch surfaces as [`StorageError::Corrupt`].
    pub fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(StorageError::BadBufferSize {
                expected: self.page_size,
                actual: buf.len(),
            });
        }
        let fate = match &self.injector {
            Some(inj) => inj.on_read(),
            None => ReadFault::None,
        };
        if fate == ReadFault::Transient {
            return Err(StorageError::Io { transient: true });
        }
        let page = self
            .pages
            .get_mut(id.0 as usize)
            .ok_or(StorageError::UnknownPage(id.0))?
            .as_mut()
            .ok_or(StorageError::FreedPage(id.0))?;
        if let ReadFault::BitFlip(bit) = fate {
            // Persistent media damage: the stored byte changes, the stored
            // checksum does not, so this (and every later) read detects it.
            let bit = (bit % (self.page_size as u64 * 8)) as usize;
            page[bit / 8] ^= 1 << (bit % 8);
        }
        if crc32(page) != self.crcs[id.0 as usize] {
            return Err(StorageError::Corrupt("page checksum mismatch"));
        }
        buf.copy_from_slice(page);
        self.stats.reads += 1;
        Ok(())
    }

    /// Writes a full page from `buf` (which must be exactly one page long),
    /// updating the page's stored checksum.
    pub fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(StorageError::BadBufferSize {
                expected: self.page_size,
                actual: buf.len(),
            });
        }
        let fate = match &self.injector {
            Some(inj) => inj.on_write(),
            None => WriteFault::None,
        };
        if fate == WriteFault::Transient {
            return Err(StorageError::Io { transient: true });
        }
        let page = self
            .pages
            .get_mut(id.0 as usize)
            .ok_or(StorageError::UnknownPage(id.0))?
            .as_mut()
            .ok_or(StorageError::FreedPage(id.0))?;
        if fate == WriteFault::Torn {
            // Half the sectors land, the checksum stays stale: the next read
            // of this page reports `Corrupt` rather than mixed old/new data.
            let half = self.page_size / 2;
            page[..half].copy_from_slice(&buf[..half]);
            return Err(StorageError::Io { transient: false });
        }
        page.copy_from_slice(buf);
        self.crcs[id.0 as usize] = crc32(buf);
        self.stats.writes += 1;
        Ok(())
    }

    /// Stored checksum of a live page (used by the persist layer's
    /// versioned dump format).
    pub(crate) fn page_crc(&self, id: PageId) -> Result<u32> {
        let slot = self
            .pages
            .get(id.0 as usize)
            .ok_or(StorageError::UnknownPage(id.0))?;
        if slot.is_none() {
            return Err(StorageError::FreedPage(id.0));
        }
        Ok(self.crcs[id.0 as usize])
    }

    /// Current disk counters.
    #[must_use]
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Resets the disk counters (page contents are unaffected).
    pub fn reset_stats(&mut self) {
        self.stats = DiskStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_write_roundtrip() {
        let mut pager = Pager::new(64);
        let id = pager.allocate();
        let mut buf = vec![0u8; 64];
        pager.read(id, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "fresh pages are zeroed");
        let data: Vec<u8> = (0..64).map(|i| i as u8).collect();
        pager.write(id, &data).unwrap();
        pager.read(id, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn free_and_reuse() {
        let mut pager = Pager::new(16);
        let a = pager.allocate();
        let b = pager.allocate();
        assert_ne!(a, b);
        pager.free(a).unwrap();
        assert_eq!(pager.live_pages(), 1);
        let c = pager.allocate();
        assert_eq!(c, a, "freed ids are reused");
        let mut buf = vec![0u8; 16];
        pager.read(c, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "reused pages are re-zeroed");
    }

    #[test]
    fn errors_on_bad_access() {
        let mut pager = Pager::new(16);
        let a = pager.allocate();
        let mut small = vec![0u8; 8];
        assert!(matches!(
            pager.read(a, &mut small),
            Err(StorageError::BadBufferSize { .. })
        ));
        assert!(matches!(
            pager.read(PageId(99), &mut [0u8; 16]),
            Err(StorageError::UnknownPage(99))
        ));
        pager.free(a).unwrap();
        assert!(matches!(
            pager.read(a, &mut [0u8; 16]),
            Err(StorageError::FreedPage(_))
        ));
        assert!(matches!(pager.free(a), Err(StorageError::FreedPage(_))));
    }

    #[test]
    fn stats_track_operations() {
        let mut pager = Pager::new(16);
        let a = pager.allocate();
        let b = pager.allocate();
        let buf = vec![1u8; 16];
        pager.write(a, &buf).unwrap();
        pager.write(b, &buf).unwrap();
        let mut out = vec![0u8; 16];
        pager.read(a, &mut out).unwrap();
        pager.free(b).unwrap();
        let s = pager.stats();
        assert_eq!(s.allocations, 2);
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.frees, 1);
        pager.reset_stats();
        assert_eq!(pager.stats(), DiskStats::default());
    }

    #[test]
    fn invalid_sentinel() {
        assert!(PageId::INVALID.is_invalid());
        assert!(!PageId(0).is_invalid());
    }

    use crate::fault::FaultConfig;

    #[test]
    fn transient_read_fault_then_success() {
        let mut pager = Pager::new(32);
        let id = pager.allocate();
        pager.write(id, &[7u8; 32]).unwrap();
        pager.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultConfig {
            seed: 3,
            fail_read_nth: Some(1),
            ..FaultConfig::default()
        }))));
        let mut buf = [0u8; 32];
        assert_eq!(
            pager.read(id, &mut buf),
            Err(StorageError::Io { transient: true })
        );
        pager.read(id, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 32]);
    }

    #[test]
    fn bit_flip_detected_as_corrupt() {
        let mut pager = Pager::new(32);
        let id = pager.allocate();
        pager.write(id, &[9u8; 32]).unwrap();
        pager.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultConfig {
            seed: 5,
            bit_flip: 1.0,
            ..FaultConfig::default()
        }))));
        let mut buf = [0u8; 32];
        assert_eq!(
            pager.read(id, &mut buf),
            Err(StorageError::Corrupt("page checksum mismatch"))
        );
        // The damage is persistent: even without further injection the page
        // stays corrupt.
        pager.set_fault_injector(None);
        assert_eq!(
            pager.read(id, &mut buf),
            Err(StorageError::Corrupt("page checksum mismatch"))
        );
    }

    #[test]
    fn torn_write_leaves_corrupt_page() {
        let mut pager = Pager::new(32);
        let id = pager.allocate();
        pager.write(id, &[1u8; 32]).unwrap();
        pager.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultConfig {
            seed: 5,
            torn_write: 1.0,
            ..FaultConfig::default()
        }))));
        assert_eq!(
            pager.write(id, &[2u8; 32]),
            Err(StorageError::Io { transient: false })
        );
        pager.set_fault_injector(None);
        let mut buf = [0u8; 32];
        assert_eq!(
            pager.read(id, &mut buf),
            Err(StorageError::Corrupt("page checksum mismatch"))
        );
    }

    #[test]
    fn disk_full_on_try_allocate() {
        let mut pager = Pager::new(16);
        pager.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultConfig {
            seed: 1,
            disk_full_after: Some(1),
            ..FaultConfig::default()
        }))));
        pager.try_allocate().unwrap();
        assert_eq!(pager.try_allocate(), Err(StorageError::DiskFull));
        // Infallible allocation (index builds) is exempt.
        let _ = pager.allocate();
    }
}
