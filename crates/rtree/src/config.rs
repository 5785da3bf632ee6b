//! R*-tree construction parameters.

use crate::node::{node_capacity, HEADER_SIZE};

/// Tuning parameters of an [`crate::RTree`].
///
/// The defaults reproduce the paper's environment (§3.1): node fan-out of 50
/// and a 256-frame buffer pool. The paper used 1K pages with single-precision
/// geometry; we store `f64` coordinates, so the default page size is 2048
/// bytes with the fan-out capped at 50 — fan-out and buffer frames, not raw
/// page bytes, are what the algorithms' behaviour depends on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RTreeConfig {
    /// Size of a node page in bytes.
    pub page_size: usize,
    /// Number of page frames in the tree's buffer pool.
    pub buffer_frames: usize,
    /// Number of buffer-pool shards. `1` (the default) keeps the historical
    /// single-shard LRU pool — byte-identical miss counts for the
    /// experiments; larger values split the frames across independently
    /// locked LRU shards so parallel workers' node reads never serialise.
    /// A runtime-only knob: not persisted with the tree.
    pub buffer_shards: usize,
    /// Optional cap on the fan-out, applied after computing how many entries
    /// fit in a page. `Some(50)` by default to match the paper.
    pub fanout_cap: Option<usize>,
    /// Minimum node fill as a fraction of the maximum ("typically 40% of the
    /// maximum fan-out", §2.2.4).
    pub min_fill: f64,
    /// Fraction of entries removed on forced reinsertion (R* uses 30%).
    pub reinsert_fraction: f64,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        Self {
            page_size: 2048,
            buffer_frames: 256,
            buffer_shards: 1,
            fanout_cap: Some(50),
            min_fill: 0.4,
            reinsert_fraction: 0.3,
        }
    }
}

impl RTreeConfig {
    /// A small configuration for unit tests: tiny fan-out so trees get deep
    /// quickly.
    #[must_use]
    pub fn small(max_entries: usize) -> Self {
        Self {
            page_size: HEADER_SIZE + max_entries * crate::node::entry_size::<2>(),
            buffer_frames: 16,
            buffer_shards: 1,
            fanout_cap: Some(max_entries),
            min_fill: 0.4,
            reinsert_fraction: 0.3,
        }
    }

    /// Maximum number of entries per node for dimension `D`.
    ///
    /// # Panics
    /// Panics if the page is too small to hold at least two entries plus a
    /// header, or if configured fractions are out of range.
    #[must_use]
    pub fn max_entries<const D: usize>(&self) -> usize {
        let fit = node_capacity::<D>(self.page_size);
        let cap = match self.fanout_cap {
            Some(c) => fit.min(c),
            None => fit,
        };
        assert!(
            cap >= 2,
            "page size {} holds only {cap} entries in {D}-d; need at least 2",
            self.page_size
        );
        cap
    }

    /// Minimum number of entries per non-root node for dimension `D`.
    #[must_use]
    pub fn min_entries<const D: usize>(&self) -> usize {
        assert!(
            (0.0..=0.5).contains(&self.min_fill),
            "min_fill must be in [0, 0.5]"
        );
        let m = (self.min_fill * self.max_entries::<D>() as f64).floor() as usize;
        m.max(1)
    }

    /// Number of entries evicted by forced reinsertion for dimension `D`.
    #[must_use]
    pub fn reinsert_count<const D: usize>(&self) -> usize {
        assert!(
            (0.0..1.0).contains(&self.reinsert_fraction),
            "reinsert_fraction must be in [0, 1)"
        );
        let max = self.max_entries::<D>();
        let p = (self.reinsert_fraction * max as f64).floor() as usize;
        // Never remove so many that the node underflows, and always make
        // progress when reinsertion is enabled.
        p.clamp(1, max + 1 - self.min_entries::<D>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_fanout() {
        let c = RTreeConfig::default();
        assert_eq!(c.max_entries::<2>(), 50);
        assert_eq!(c.min_entries::<2>(), 20, "40% of 50");
        assert_eq!(c.reinsert_count::<2>(), 15, "30% of 50");
        assert_eq!(c.buffer_frames, 256);
    }

    #[test]
    fn uncapped_fanout_fills_page() {
        let c = RTreeConfig {
            fanout_cap: None,
            ..RTreeConfig::default()
        };
        // 2048-byte page, 4-byte header, 40-byte entries in 2-d.
        assert_eq!(c.max_entries::<2>(), 51);
    }

    #[test]
    fn higher_dimension_lowers_fanout() {
        let c = RTreeConfig {
            fanout_cap: None,
            ..RTreeConfig::default()
        };
        assert!(c.max_entries::<4>() < c.max_entries::<2>());
        assert!(c.max_entries::<8>() < c.max_entries::<4>());
    }

    #[test]
    fn small_config_roundtrip() {
        let c = RTreeConfig::small(4);
        assert_eq!(c.max_entries::<2>(), 4);
        assert_eq!(c.min_entries::<2>(), 1);
        assert_eq!(c.reinsert_count::<2>(), 1);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_page_rejected() {
        let c = RTreeConfig {
            page_size: 32,
            fanout_cap: None,
            ..RTreeConfig::default()
        };
        let _ = c.max_entries::<2>();
    }
}
