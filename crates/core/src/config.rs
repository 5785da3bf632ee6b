//! Join configuration: the paper's design space as data.

use sdj_geom::Metric;
use sdj_pqueue::HybridConfig;

use crate::queue::MIN_SPILL_PAGE;

pub use crate::pair::TiePolicy;

/// Memory layout of the in-memory queue backend (`DESIGN.md` §14). Result
/// streams are bit-identical across layouts; only footprint and cache
/// behaviour differ. The hybrid backend runs the flat layout only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueLayout {
    /// The paper's pointer-based pairing heap over fat pairs, kept as the
    /// cross-check layout.
    Pairing,
    /// Compact entries in a flat 4-ary implicit heap, each carrying an
    /// 8-byte handle to its pair's items interned in a shared arena (and
    /// the pair's §2.2.4 estimator slot). The default.
    #[default]
    FlatDary,
}

/// How node/node pairs are expanded (§2.2.2, evaluated in §4.1.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TraversalPolicy {
    /// Always process item 1 (the basic algorithm of Figure 3).
    Basic,
    /// Process the node at the shallower level, keeping the two trees
    /// evenly descended (the paper's best performer).
    #[default]
    Even,
    /// Process both nodes simultaneously, pairing their entries with a
    /// plane sweep restricted by the current maximum distance.
    Simultaneous,
}

/// Queue backend (§3.2 / §4.1.3).
#[derive(Clone, Copy, Debug, Default)]
pub enum QueueBackend {
    /// Purely in-memory heap (of the configured [`QueueLayout`]).
    #[default]
    Memory,
    /// The hybrid three-tier memory/disk queue with its `D_T` increment.
    Hybrid(HybridConfig),
}

/// Which upper-bound distance feeds the maximum-distance estimator
/// (§2.2.3/§2.2.4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EstimationBound {
    /// MAXDIST: bounds *every* object pair generated from the pair, so the
    /// full lower-bound subtree count may be credited.
    #[default]
    AllPairs,
    /// MINMAXDIST: bounds only the *closest* generated pair, so a single
    /// result is credited. Tighter distances, smaller counts.
    ExistsPair,
}

/// Result ordering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ResultOrder {
    /// Closest pairs first.
    #[default]
    Ascending,
    /// Farthest pairs first (§2.2.5: keys become upper-bound distances).
    Descending,
}

/// Domain of the priority-queue keys and every internal pruning bound.
///
/// Euclidean distances are monotone in their squares, so ordering pairs by
/// squared distance pops them in exactly the same order while skipping the
/// `sqrt` in every MINDIST/MAXDIST/MINMAXDIST evaluation. The single root is
/// paid when a result is reported. Reported distances are bitwise identical
/// between the two domains (see `DESIGN.md` §8). Manhattan/Chessboard keys
/// are identical under both settings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KeyDomain {
    /// Squared Euclidean keys; `sqrt` deferred to result reporting.
    #[default]
    Squared,
    /// Keys are plain distances (the pre-kernel behaviour, kept for A/B
    /// comparisons).
    Plain,
}

/// How node expansion fills its key columns. Every path walks the same
/// cached per-page `NodeView` and the same expansion code; only the routine
/// that turns a column of rectangles into MINDIST/MAXDIST keys differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExpansionPath {
    /// Batched struct-of-arrays kernels (`sdj_geom::kernels`): one pass per
    /// axis over contiguous `lo`/`hi` columns.
    #[default]
    Batched,
    /// One scalar bound evaluation per rectangle — the functions the kernel
    /// equivalence suites use as their oracle, kept selectable for A/B
    /// comparisons.
    Scalar,
    /// The batched kernels with their hottest column passes (MINDIST and
    /// MAXDIST over the expansion/sweep windows) unrolled into explicit
    /// fixed-width f64 lanes (`sdj_geom::LANE_WIDTH`). Element arithmetic is
    /// unchanged, so result streams are bit-identical to [`Self::Batched`].
    Lanes,
}

/// Full configuration of an incremental distance join.
#[derive(Clone, Copy, Debug)]
pub struct JoinConfig {
    /// Point metric underlying all distance functions.
    pub metric: Metric,
    /// Node/node expansion policy.
    pub traversal: TraversalPolicy,
    /// Equal-distance ordering.
    pub tie: TiePolicy,
    /// Priority-queue backend.
    pub queue: QueueBackend,
    /// Memory layout of the [`QueueBackend::Memory`] heap. The hybrid
    /// backend takes only the default, [`QueueLayout::FlatDary`]. Pop order
    /// and result streams are identical across layouts.
    pub layout: QueueLayout,
    /// Minimum result distance (`WHERE d >= dmin`); pairs that cannot reach
    /// it are pruned via MAXDIST.
    pub min_distance: f64,
    /// Maximum result distance (`WHERE d <= dmax`).
    pub max_distance: f64,
    /// `STOP AFTER` bound on the number of result pairs; enables the
    /// maximum-distance estimation of §2.2.4.
    pub max_pairs: Option<u64>,
    /// Bound family used by the estimator.
    pub estimation: EstimationBound,
    /// Result ordering (descending disables estimation and requires the
    /// memory queue backend).
    pub order: ResultOrder,
    /// Suppress result pairs whose two object ids are equal — for
    /// self-joins such as the all-nearest-neighbours application of §1,
    /// where an object must not be its own nearest neighbour.
    pub exclude_equal_ids: bool,
    /// Key domain for queue keys and pruning bounds (default: squared
    /// Euclidean keys, deferring the `sqrt` to result reporting).
    pub key_domain: KeyDomain,
    /// Expansion implementation (default: batched SoA kernels).
    pub expansion: ExpansionPath,
    /// Queue-driven node prefetch depth: after each expansion, up to this
    /// many node-child pages from the smallest-key pairs about to enter the
    /// queue (i.e. nearest its head) are handed to the indexes as batch
    /// prefetch hints. `0` (the default) disables hinting entirely —
    /// result streams are identical either way, and prefetch reads are
    /// counted separately from demand misses, so the node-I/O measure stays
    /// comparable.
    pub prefetch_depth: usize,
}

impl Default for JoinConfig {
    fn default() -> Self {
        Self {
            metric: Metric::Euclidean,
            traversal: TraversalPolicy::default(),
            tie: TiePolicy::default(),
            queue: QueueBackend::default(),
            layout: QueueLayout::default(),
            min_distance: 0.0,
            max_distance: f64::INFINITY,
            max_pairs: None,
            estimation: EstimationBound::default(),
            order: ResultOrder::default(),
            exclude_equal_ids: false,
            key_domain: KeyDomain::default(),
            expansion: ExpansionPath::default(),
            prefetch_depth: 0,
        }
    }
}

/// Why a [`JoinConfig`] cannot run (see [`JoinConfig::validate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A distance bound is negative (or NaN).
    NegativeBound,
    /// `min_distance` exceeds `max_distance`.
    InvertedRange,
    /// Descending order with the hybrid queue, whose disk buckets are keyed
    /// by non-negative distance.
    DescendingHybrid,
    /// The pairing layout with the hybrid queue, whose in-memory tiers are
    /// the flat layout only.
    PairingHybrid,
    /// A hybrid queue whose `D_T` is not a positive finite distance (or so
    /// small that its square is zero).
    SpillIncrement,
    /// A hybrid queue whose spill pages cannot hold one record.
    SpillPageTooSmall,
    /// A hybrid queue with no buffer frames for its spill area.
    NoSpillFrames,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NegativeBound => f.write_str("distance bounds must be non-negative"),
            Self::InvertedRange => f.write_str("min_distance exceeds max_distance"),
            Self::DescendingHybrid => {
                f.write_str("descending joins require the memory queue backend")
            }
            Self::PairingHybrid => {
                f.write_str("the hybrid queue backend runs the flat queue layout only")
            }
            Self::SpillIncrement => {
                f.write_str("the hybrid queue's D_T must be a positive finite distance")
            }
            Self::SpillPageTooSmall => write!(
                f,
                "the hybrid queue's page_size must be at least {MIN_SPILL_PAGE} bytes"
            ),
            Self::NoSpillFrames => f.write_str("the hybrid queue needs at least one buffer frame"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl JoinConfig {
    /// Checks internal consistency: non-negative range bounds, a
    /// non-inverted range, and a hybrid queue only in ascending order, under
    /// the flat layout, and with a usable spill area.
    ///
    /// # Errors
    /// The first violated rule, as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.min_distance >= 0.0 && self.max_distance >= 0.0) {
            return Err(ConfigError::NegativeBound);
        }
        if self.min_distance > self.max_distance {
            return Err(ConfigError::InvertedRange);
        }
        let QueueBackend::Hybrid(hybrid) = self.queue else {
            return Ok(());
        };
        if matches!(self.order, ResultOrder::Descending) {
            return Err(ConfigError::DescendingHybrid);
        }
        if self.layout == QueueLayout::Pairing {
            return Err(ConfigError::PairingHybrid);
        }
        // Squared keys map D_T to D_T²; one that underflows to zero would
        // put the first tier boundary at key 0.
        let dt = hybrid.dt;
        if !(dt > 0.0 && dt.is_finite() && dt * dt > 0.0) {
            return Err(ConfigError::SpillIncrement);
        }
        if hybrid.page_size < MIN_SPILL_PAGE {
            return Err(ConfigError::SpillPageTooSmall);
        }
        if hybrid.buffer_frames == 0 {
            return Err(ConfigError::NoSpillFrames);
        }
        Ok(())
    }

    /// [`validate`](Self::validate) for the infallible engine constructors.
    ///
    /// # Panics
    /// Panics with the [`ConfigError`]'s message on an invalid config.
    pub(crate) fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }

    /// Convenience: limit the result to `k` pairs (enables estimation).
    #[must_use]
    pub fn with_max_pairs(mut self, k: u64) -> Self {
        self.max_pairs = Some(k);
        self
    }

    /// Convenience: restrict result distances to `[min, max]`.
    #[must_use]
    pub fn with_range(mut self, min: f64, max: f64) -> Self {
        self.min_distance = min;
        self.max_distance = max;
        self
    }

    /// Convenience: select the key domain.
    #[must_use]
    pub fn with_key_domain(mut self, key_domain: KeyDomain) -> Self {
        self.key_domain = key_domain;
        self
    }

    /// Convenience: select the expansion implementation.
    #[must_use]
    pub fn with_expansion(mut self, expansion: ExpansionPath) -> Self {
        self.expansion = expansion;
        self
    }

    /// Convenience: select the queue memory layout.
    #[must_use]
    pub fn with_layout(mut self, layout: QueueLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Convenience: enable queue-driven node prefetch with the given depth
    /// (`0` disables it).
    #[must_use]
    pub fn with_prefetch(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// The key space implied by `metric` and `key_domain`: all queue keys,
    /// bounds, and range restrictions live in this space.
    #[must_use]
    pub fn key_space(&self) -> sdj_geom::KeySpace {
        match self.key_domain {
            KeyDomain::Squared => sdj_geom::KeySpace::squared(self.metric),
            KeyDomain::Plain => sdj_geom::KeySpace::plain(self.metric),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_papers_best_variant() {
        let c = JoinConfig::default();
        assert_eq!(c.traversal, TraversalPolicy::Even);
        assert_eq!(c.tie, TiePolicy::DepthFirst);
        assert_eq!(c.min_distance, 0.0);
        assert_eq!(c.max_distance, f64::INFINITY);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn builders_compose() {
        let c = JoinConfig::default()
            .with_range(1.0, 5.0)
            .with_max_pairs(10);
        assert_eq!(c.min_distance, 1.0);
        assert_eq!(c.max_distance, 5.0);
        assert_eq!(c.max_pairs, Some(10));
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let c = JoinConfig::default();
        assert_eq!(
            c.with_range(5.0, 1.0).validate(),
            Err(ConfigError::InvertedRange)
        );
        assert_eq!(
            c.with_range(-1.0, 1.0).validate(),
            Err(ConfigError::NegativeBound)
        );
        assert_eq!(
            c.with_range(0.0, f64::NAN).validate(),
            Err(ConfigError::NegativeBound)
        );
        let descending_hybrid = JoinConfig {
            order: ResultOrder::Descending,
            queue: QueueBackend::Hybrid(HybridConfig::default()),
            ..c
        };
        assert_eq!(
            descending_hybrid.validate(),
            Err(ConfigError::DescendingHybrid)
        );
        assert!(ConfigError::DescendingHybrid
            .to_string()
            .contains("memory queue"));
        let hybrid = |layout, h: HybridConfig| JoinConfig {
            queue: QueueBackend::Hybrid(h),
            layout,
            ..c
        };
        let flat = QueueLayout::FlatDary;
        let page = |page_size| HybridConfig {
            page_size,
            ..HybridConfig::default()
        };
        let bad = [
            (
                hybrid(QueueLayout::Pairing, HybridConfig::default()),
                ConfigError::PairingHybrid,
            ),
            (
                hybrid(flat, HybridConfig::with_dt(0.0)),
                ConfigError::SpillIncrement,
            ),
            (
                hybrid(flat, HybridConfig::with_dt(-1.0)),
                ConfigError::SpillIncrement,
            ),
            (
                hybrid(flat, HybridConfig::with_dt(f64::NAN)),
                ConfigError::SpillIncrement,
            ),
            (
                hybrid(flat, HybridConfig::with_dt(f64::INFINITY)),
                ConfigError::SpillIncrement,
            ),
            (
                hybrid(flat, HybridConfig::with_dt(1e-200)),
                ConfigError::SpillIncrement,
            ),
            (hybrid(flat, page(0)), ConfigError::SpillPageTooSmall),
            (hybrid(flat, page(5)), ConfigError::SpillPageTooSmall),
            (
                hybrid(flat, page(MIN_SPILL_PAGE - 1)),
                ConfigError::SpillPageTooSmall,
            ),
            (
                hybrid(
                    flat,
                    HybridConfig {
                        buffer_frames: 0,
                        ..HybridConfig::default()
                    },
                ),
                ConfigError::NoSpillFrames,
            ),
        ];
        for (config, want) in bad {
            assert_eq!(config.validate(), Err(want), "{config:?}");
        }
        assert_eq!(hybrid(flat, page(MIN_SPILL_PAGE)).validate(), Ok(()));
        assert!(ConfigError::SpillPageTooSmall
            .to_string()
            .contains(&MIN_SPILL_PAGE.to_string()));
    }

    #[test]
    #[should_panic(expected = "min_distance exceeds max_distance")]
    fn constructors_still_panic_on_an_inverted_range() {
        JoinConfig::default().with_range(5.0, 1.0).assert_valid();
    }
}
