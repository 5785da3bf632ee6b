//! Cost-based execution-path planner: incremental priority-queue join vs
//! bulk partition/plane-sweep join.
//!
//! The two executors answer the same query with opposite cost shapes. The
//! incremental engine ([`crate::DistanceJoin`]) pays a priority-queue
//! `log`-factor per produced pair but touches only the index regions that
//! can contribute to the first `K` results — unbeatable when `K` is small
//! relative to the result set. The bulk path ([`crate::BulkDistanceJoin`])
//! reads both trees once and sweeps grid cells with near-linear per-pair
//! cost, but always materialises *every* qualifying pair — unbeatable when
//! the consumer drains the result (a full within-range join, or `K` near
//! the result count).
//!
//! The planner estimates both costs from quantities that are cheap to read
//! before execution — input cardinalities, the joint bounding box, the
//! `[Dmin, Dmax]` restriction, `K`, and one cached page per tree (the root,
//! whose child rectangles yield the frontier signal below) — and picks the
//! smaller. The units are abstract "work units" (roughly: one distance
//! evaluation); the absolute values are meaningless, only the comparison
//! matters. What a wrong pick costs is measured by the benchmark's traced
//! `core.plan.regret` and `core.adaptive.regret` rows (`benchmark/README.md`),
//! and [`PlanChoice`] is surfaced in run reports so a misprediction is
//! visible, and overridable (`--force-plan` in `sdj-report`).
//!
//! # The frontier signal
//!
//! Under a `Dmax` restriction the incremental engine's dominant cost is
//! nearly independent of `K`: node pairs whose `mindist` is below the
//! frontier distance must be expanded before the results behind them can
//! surface, so a distance-restricted run pays for (most of) the restricted
//! *node frontier* even when the consumer stops early. That frontier is
//! invisible to pure cardinality statistics — a uniform and a clustered
//! workload with identical `(n, bbox, Dmax)` produce identical
//! [`PlanInputs`] cardinalities but frontiers an order of magnitude apart.
//! [`PlanInputs::from_trees`] therefore measures the top of the frontier
//! directly: it counts cross-tree root-child pairs within `Dmax` (at most
//! fanout² rectangle distances over two cached pages) and scales the count
//! by the average subtree cardinality, giving [`PlanInputs::est_frontier`].
//! Clustered trees put most root-child pairs far apart and score low;
//! uniform trees score high, and the measured crossovers separate
//! accordingly.

use crate::config::JoinConfig;
use crate::index::SpatialIndex;

/// Which execution path the planner selected (or was forced to).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlanChoice {
    /// The incremental priority-queue join.
    Incremental,
    /// The bulk partition/plane-sweep join.
    Bulk,
    /// The adaptive driver: start incremental, re-cost at checkpoints from
    /// observed signals, and hand the frontier to the bulk path mid-query
    /// if bulk wins by a hysteresis margin. Never produced by the static
    /// [`plan`] — it is a forced/driver-level mode, surfaced here so
    /// reports and forcing flags share one vocabulary.
    Adaptive,
}

impl PlanChoice {
    /// Every path, in [`code`](Self::code) order: the vocabulary of forcing
    /// flags and report checks.
    pub const ALL: [Self; 3] = [Self::Incremental, Self::Bulk, Self::Adaptive];

    /// Stable lowercase name, used in reports and counters.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PlanChoice::Incremental => "incremental",
            PlanChoice::Bulk => "bulk",
            PlanChoice::Adaptive => "adaptive",
        }
    }

    /// Stable numeric code: the value of the `plan.choice` gauge and report
    /// entry (0 = incremental, 1 = bulk, 2 = adaptive).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            PlanChoice::Incremental => 0,
            PlanChoice::Bulk => 1,
            PlanChoice::Adaptive => 2,
        }
    }
}

impl From<PlanChoice> for sdj_obs::PlanPath {
    fn from(choice: PlanChoice) -> Self {
        match choice {
            PlanChoice::Incremental => Self::Incremental,
            PlanChoice::Bulk => Self::Bulk,
            PlanChoice::Adaptive => Self::Adaptive,
        }
    }
}

impl std::fmt::Display for PlanChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The planner's inputs: statistics of both trees plus the query knobs the
/// cost model reads. Build one with [`PlanInputs::from_trees`] or by hand
/// (the planner unit tests pin decisions on hand-built stats).
#[derive(Clone, Copy, Debug)]
pub struct PlanInputs<const D: usize> {
    /// Object count of the first relation.
    pub n1: usize,
    /// Object count of the second relation.
    pub n2: usize,
    /// Extent of the joint bounding box per axis (non-negative; `0.0` for
    /// degenerate axes).
    pub extent: [f64; D],
    /// `STOP AFTER` bound — `None` means the consumer drains the result.
    pub max_pairs: Option<u64>,
    /// Lower distance restriction (`Dmin`).
    pub min_distance: f64,
    /// Upper distance restriction (`Dmax`; may be infinite).
    pub max_distance: f64,
    /// Estimated size of the distance-restricted node frontier: cross-tree
    /// root-child pairs within `Dmax`, scaled by the average objects per
    /// root child (see the module docs). `0.0` when a root is unreadable —
    /// the model then degrades to its cardinality terms.
    pub est_frontier: f64,
}

impl<const D: usize> PlanInputs<D> {
    /// Reads the statistics off two spatial indexes and a join config.
    /// Touches only index metadata plus the two root pages (for the
    /// frontier signal) — both cached, at most fanout² rectangle-distance
    /// evaluations, no further I/O.
    pub fn from_trees<I1, I2>(tree1: &I1, tree2: &I2, config: &JoinConfig) -> Self
    where
        I1: SpatialIndex<D> + ?Sized,
        I2: SpatialIndex<D> + ?Sized,
    {
        let bbox = match (tree1.root_region(), tree2.root_region()) {
            (Ok(r1), Ok(r2)) => Some(r1.union(&r2)),
            (Ok(r), _) | (_, Ok(r)) => Some(r),
            _ => None,
        };
        let extent = match bbox {
            Some(b) => std::array::from_fn(|a| (b.hi()[a] - b.lo()[a]).max(0.0)),
            None => [0.0; D],
        };
        Self {
            n1: tree1.len(),
            n2: tree2.len(),
            extent,
            max_pairs: config.max_pairs,
            min_distance: config.min_distance,
            max_distance: config.max_distance,
            est_frontier: est_frontier(tree1, tree2, config.max_distance),
        }
    }
}

/// Measures the top of the distance-restricted node frontier: the number
/// of cross-tree root-child pairs whose `mindist` is within `dmax`, scaled
/// by the average objects per root child of both sides. Both root pages
/// are cached (or one demand read each); an unreadable or empty root
/// yields `0.0`.
fn est_frontier<const D: usize, I1, I2>(tree1: &I1, tree2: &I2, dmax: f64) -> f64
where
    I1: SpatialIndex<D> + ?Sized,
    I2: SpatialIndex<D> + ?Sized,
{
    use sdj_geom::{Metric, SpatialObject};
    let (Ok(root1), Ok(root2)) = (
        tree1.read_node(tree1.root_id()),
        tree2.read_node(tree2.root_id()),
    ) else {
        return 0.0;
    };
    let (m1, m2) = (root1.entries.len(), root2.entries.len());
    if m1 == 0 || m2 == 0 {
        return 0.0;
    }
    let within = if dmax.is_finite() {
        root1
            .entries
            .iter()
            .flat_map(|e1| root2.entries.iter().map(move |e2| (e1, e2)))
            .filter(|(e1, e2)| e1.rect().min_distance(e2.rect(), Metric::Euclidean) <= dmax)
            .count()
    } else {
        m1 * m2
    };
    let per_child = tree1.len() as f64 / m1 as f64 + tree2.len() as f64 / m2 as f64;
    within as f64 * per_child
}

/// The planner's verdict: the chosen path plus the estimates behind it, so
/// reports can show *why* a path was picked.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The cheaper path under the cost model.
    pub choice: PlanChoice,
    /// Estimated work units of the incremental path.
    pub est_incremental: f64,
    /// Estimated work units of the bulk path.
    pub est_bulk: f64,
    /// Estimated qualifying pairs under the `[Dmin, Dmax]` restriction
    /// (uniformity assumption).
    pub est_pairs: f64,
}

/// Fixed setup charge of the incremental path (queue plumbing, initial node
/// descents) in work units.
const INCREMENTAL_SETUP: f64 = 1_000.0;
/// Work units charged per unit of [`PlanInputs::est_frontier`]: the
/// `K`-independent cost of expanding the distance-restricted node frontier
/// (child decode, kernel distances, queue staging) that a restricted run
/// pays before early results can surface. Calibrated against a 100k × 100k
/// planner sweep, where the measured frontier
/// (`incremental_distance_calcs` at `K = 10`) is ~5M on uniform data
/// against an `est_frontier` of ~1.3M, and ~0.4M on clustered data against
/// ~0.8M.
const INCREMENTAL_PER_FRONTIER: f64 = 0.7;
/// Work units charged per produced pair per `log2(n)` queue level: each
/// result costs queue pushes/pops over entries whose heap depth scales
/// with the input size. Retuned (16 → 0.4) together with the frontier
/// term: the old constant absorbed the then-unmodelled frontier cost into
/// the per-pair slope, which over-penalised large-`K` runs on clustered
/// data.
const INCREMENTAL_PER_PAIR_LEVEL: f64 = 0.4;
/// Fixed setup charge of the bulk path: both trees must be fully harvested
/// and partitioned before the first result can be emitted, whereas the
/// incremental path can stop after its first descent.
const BULK_SETUP: f64 = 1_500.0;
/// Work units the bulk path pays per harvested entry (leaf read, grid
/// replication, sort amortisation).
const BULK_PER_ENTRY: f64 = 4.0;
/// Work units the bulk path pays per candidate pair inside sweep windows
/// (kernel evaluation plus dedup/range filtering).
const BULK_PER_PAIR: f64 = 2.0;

/// Result-cardinality estimate under a uniformity assumption: along each
/// axis a pair within distance `d` keeps its centre gap within `d`, a
/// window of width `2d` out of the axis extent. `Dmax = ∞` (or a
/// degenerate axis) caps the axis selectivity at 1, i.e. the full cross
/// product. `Dmin` only *removes* pairs and mostly near zero distance,
/// where few pairs live; the model ignores it for cardinality (it still
/// reaches the executors as a filter).
fn est_pairs_of<const D: usize>(inputs: &PlanInputs<D>) -> f64 {
    let mut selectivity = 1.0f64;
    for a in 0..D {
        let ext = inputs.extent[a];
        let f = if inputs.max_distance.is_finite() && ext > 0.0 {
            (2.0 * inputs.max_distance / ext).min(1.0)
        } else {
            1.0
        };
        selectivity *= f;
    }
    inputs.n1 as f64 * inputs.n2 as f64 * selectivity
}

/// Chooses the execution path for `inputs` under the cost model above.
#[must_use]
pub fn plan<const D: usize>(inputs: &PlanInputs<D>) -> Plan {
    plan_with_bias(inputs, 1.0)
}

/// [`plan`] with the *static* incremental estimate multiplied by `bias`
/// before the comparison. A value below 1 over-favours the incremental path,
/// above 1 the bulk path — a deliberate mis-calibration the unit tests use
/// to show that the checkpoint re-costing ([`replan`]) recovers from a wrong
/// initial pick on observed signals alone: it never applies the factor.
fn plan_with_bias<const D: usize>(inputs: &PlanInputs<D>, bias: f64) -> Plan {
    let n1 = inputs.n1 as f64;
    let n2 = inputs.n2 as f64;
    let est_pairs = est_pairs_of(inputs);

    // How many pairs the incremental consumer will actually pull.
    let k_eff = match inputs.max_pairs {
        Some(k) => (k as f64).min(est_pairs),
        None => est_pairs,
    };
    let n_max = n1.max(n2).max(2.0);
    let est_incremental = (INCREMENTAL_SETUP
        + INCREMENTAL_PER_FRONTIER * inputs.est_frontier
        + k_eff * INCREMENTAL_PER_PAIR_LEVEL * n_max.log2())
        * bias;
    let est_bulk = BULK_SETUP + (n1 + n2) * BULK_PER_ENTRY + est_pairs * BULK_PER_PAIR;

    let choice = if est_incremental <= est_bulk {
        PlanChoice::Incremental
    } else {
        PlanChoice::Bulk
    };
    Plan {
        choice,
        est_incremental,
        est_bulk,
        est_pairs,
    }
}

/// Live progress counters of a running incremental join, read at an
/// adaptive checkpoint. All are cheap: they come off [`crate::JoinStats`]
/// and the queue length, no instrumentation required.
#[derive(Clone, Copy, Debug)]
pub struct ObservedProgress {
    /// Pairs dequeued so far (the checkpoint clock).
    pub pops: u64,
    /// Results reported so far.
    pub results: u64,
    /// Pairs enqueued so far.
    pub enqueued: u64,
    /// Current queue length.
    pub queue_len: usize,
}

/// A checkpoint re-costing verdict: remaining-work estimates for both
/// paths, evaluated from *observed* inputs, plus the hysteresis decision.
#[derive(Clone, Copy, Debug)]
pub struct Replan {
    /// Estimated remaining work units of continuing incrementally.
    pub est_incremental_remaining: f64,
    /// Estimated work units of switching to a frontier-seeded bulk run.
    pub est_bulk_remaining: f64,
    /// The frontier estimate after the observed ratchet (see [`replan`]).
    pub observed_frontier: f64,
    /// True when bulk wins by at least the hysteresis margin.
    pub switch: bool,
}

/// Re-evaluates the cost model mid-run with observed inputs: the static
/// frontier estimate is ratcheted up by what the run has actually staged
/// (`enqueued + queue_len` pairs have *provably* entered the frontier — the
/// estimate can only grow, never shrink, so a too-optimistic static pick is
/// corrected but a correct one is not thrashed), work already performed is
/// subtracted from the incremental side, and the bulk side is charged its
/// full setup plus the not-yet-emitted result mass. The switch fires only
/// when the remaining incremental estimate exceeds the remaining bulk
/// estimate by the `hysteresis` factor (> 1), so a near-tie never replans.
#[must_use]
pub fn replan<const D: usize>(
    inputs: &PlanInputs<D>,
    observed: &ObservedProgress,
    hysteresis: f64,
) -> Replan {
    let n1 = inputs.n1 as f64;
    let n2 = inputs.n2 as f64;
    let est_pairs = est_pairs_of(inputs);
    let k_eff = match inputs.max_pairs {
        Some(k) => (k as f64).min(est_pairs),
        None => est_pairs,
    };
    let n_max = n1.max(n2).max(2.0);

    let staged = observed.enqueued as f64 + observed.queue_len as f64;
    let observed_frontier = inputs.est_frontier.max(staged);
    let frontier_remaining =
        (observed_frontier - observed.pops as f64).max(observed.queue_len as f64);
    let results_remaining = (k_eff - observed.results as f64).max(0.0);
    let est_incremental_remaining = INCREMENTAL_PER_FRONTIER * frontier_remaining
        + results_remaining * INCREMENTAL_PER_PAIR_LEVEL * n_max.log2();
    // The bulk side still pays everything: full harvest-scale setup (the
    // frontier's subtrees are most of both trees when a switch is worth
    // considering) and the whole remaining result mass.
    let est_bulk_remaining = BULK_SETUP
        + (n1 + n2) * BULK_PER_ENTRY
        + (est_pairs - observed.results as f64).max(0.0) * BULK_PER_PAIR;

    Replan {
        est_incremental_remaining,
        est_bulk_remaining,
        observed_frontier,
        switch: est_incremental_remaining > hysteresis * est_bulk_remaining,
    }
}

/// Convenience: [`PlanInputs::from_trees`] followed by [`plan`].
pub fn plan_for_trees<const D: usize, I1, I2>(tree1: &I1, tree2: &I2, config: &JoinConfig) -> Plan
where
    I1: SpatialIndex<D> + ?Sized,
    I2: SpatialIndex<D> + ?Sized,
{
    plan(&PlanInputs::from_trees(tree1, tree2, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 100k × 100k uniform points on the unit box, `Dmax = 0.001`. The
    /// frontier value is the measured one for these trees (~267 of 1600
    /// root-child pairs within `Dmax`, 2500 objects per child per side).
    fn uniform_inputs() -> PlanInputs<2> {
        PlanInputs {
            n1: 100_000,
            n2: 100_000,
            extent: [1.0, 1.0],
            max_pairs: None,
            min_distance: 0.0,
            max_distance: 0.001,
            est_frontier: 1_335_000.0,
        }
    }

    #[test]
    fn tiny_k_prefers_incremental() {
        let inputs = PlanInputs {
            max_pairs: Some(10),
            max_distance: f64::INFINITY,
            ..uniform_inputs()
        };
        let p = plan(&inputs);
        assert_eq!(p.choice, PlanChoice::Incremental);
        assert!(p.est_incremental < p.est_bulk);
    }

    #[test]
    fn full_drain_prefers_bulk() {
        // No STOP AFTER: the consumer drains every within-range pair — the
        // incremental path would pay the queue log-factor on all of them.
        let p = plan(&uniform_inputs());
        assert_eq!(p.choice, PlanChoice::Bulk);
        // ~100k*100k*(0.002)^2 = 40k pairs estimated.
        assert!(p.est_pairs > 10_000.0 && p.est_pairs < 100_000.0);
    }

    #[test]
    fn wide_range_small_inputs_prefer_bulk() {
        let inputs = PlanInputs {
            n1: 2_000,
            n2: 2_000,
            extent: [1.0, 1.0],
            max_pairs: None,
            min_distance: 0.0,
            max_distance: f64::INFINITY,
            // Unbounded range: every root-child pair is on the frontier
            // (40 × 40 pairs, 50 objects per leaf-level child per side).
            est_frontier: 160_000.0,
        };
        let p = plan(&inputs);
        assert_eq!(p.choice, PlanChoice::Bulk);
        // Unbounded Dmax means the full cross product qualifies.
        assert!((p.est_pairs - 4_000_000.0).abs() < 1.0);
    }

    #[test]
    fn large_k_on_large_inputs_crosses_to_bulk() {
        // K = 100k of an estimated ~40k-pair result: k_eff saturates at the
        // drain, so the decision matches the full-drain case.
        let inputs = PlanInputs {
            max_pairs: Some(100_000),
            ..uniform_inputs()
        };
        assert_eq!(plan(&inputs).choice, PlanChoice::Bulk);
    }

    #[test]
    fn dmin_only_restriction_is_a_drain() {
        // A pure Dmin restriction removes almost nothing from the estimate:
        // still a full-drain bulk pick.
        let inputs = PlanInputs {
            min_distance: 0.5,
            max_distance: f64::INFINITY,
            ..uniform_inputs()
        };
        assert_eq!(plan(&inputs).choice, PlanChoice::Bulk);
    }

    #[test]
    fn empty_inputs_prefer_incremental() {
        let inputs = PlanInputs::<2> {
            n1: 0,
            n2: 0,
            extent: [0.0, 0.0],
            max_pairs: None,
            min_distance: 0.0,
            max_distance: f64::INFINITY,
            est_frontier: 0.0,
        };
        // Nothing to do either way; the tie-break keeps the streaming path.
        assert_eq!(plan(&inputs).choice, PlanChoice::Incremental);
    }

    #[test]
    fn choice_names_are_stable() {
        assert_eq!(PlanChoice::Incremental.as_str(), "incremental");
        assert_eq!(PlanChoice::Bulk.as_str(), "bulk");
        assert_eq!(PlanChoice::Bulk.to_string(), "bulk");
        assert_eq!(PlanChoice::Adaptive.as_str(), "adaptive");
    }

    #[test]
    fn bias_flips_the_static_choice_only() {
        // The full-drain point picks bulk unbiased; a bias favouring the
        // incremental side flips the static choice (the mis-calibration
        // knob), but the checkpoint re-costing still says switch.
        let inputs = uniform_inputs();
        assert_eq!(plan_with_bias(&inputs, 1.0).choice, PlanChoice::Bulk);
        assert_eq!(plan_with_bias(&inputs, 0.1).choice, PlanChoice::Incremental);
        let observed = ObservedProgress {
            pops: 4096,
            results: 0,
            enqueued: 8000,
            queue_len: 6000,
        };
        assert!(replan(&inputs, &observed, 1.05).switch);
    }

    #[test]
    fn replan_switches_on_a_drain_heavy_run() {
        // Early checkpoint of the uniform full drain: almost all frontier
        // work is still ahead, the remaining-result mass is the whole
        // result set — bulk wins by more than the hysteresis margin.
        let r = replan(
            &uniform_inputs(),
            &ObservedProgress {
                pops: 4096,
                results: 10,
                enqueued: 9000,
                queue_len: 7000,
            },
            1.05,
        );
        assert!(r.switch);
        assert!(r.est_incremental_remaining > r.est_bulk_remaining);
    }

    #[test]
    fn replan_holds_on_a_cheap_frontier() {
        // Clustered-workload shape: the frontier estimate is well below the
        // bulk side's harvest cost, so no checkpoint ever switches — even
        // deep into the run.
        let inputs = PlanInputs {
            est_frontier: 600_000.0,
            ..uniform_inputs()
        };
        for pops in [0u64, 4096, 100_000, 500_000] {
            let r = replan(
                &inputs,
                &ObservedProgress {
                    pops,
                    results: (pops / 20).min(30_000),
                    enqueued: pops / 2,
                    queue_len: 4000,
                },
                1.05,
            );
            assert!(!r.switch, "spurious switch at {pops} pops");
        }
    }

    #[test]
    fn replan_ratchet_only_raises_the_frontier() {
        // Observed staging below the static estimate leaves it untouched;
        // above it, the estimate grows to match what provably entered.
        let inputs = uniform_inputs();
        let low = replan(
            &inputs,
            &ObservedProgress {
                pops: 0,
                results: 0,
                enqueued: 10,
                queue_len: 10,
            },
            1.05,
        );
        assert!((low.observed_frontier - inputs.est_frontier).abs() < 1e-9);
        let high = replan(
            &inputs,
            &ObservedProgress {
                pops: 0,
                results: 0,
                enqueued: 2_000_000,
                queue_len: 50_000,
            },
            1.05,
        );
        assert!((high.observed_frontier - 2_050_000.0).abs() < 1e-9);
    }
}
