//! Automated checks of the paper's *qualitative* findings at test scale:
//! who wins, and in which direction each knob moves the cost. These mirror
//! the artefacts of `sdj-bench`'s `exp` binary but run in seconds under
//! `cargo test`. Costs are compared by work counters (distance
//! calculations, queue growth, node accesses) rather than wall-clock, which
//! is noisy at this scale.

use incremental_distance_join::datagen::tiger;
use incremental_distance_join::join::{
    DistanceJoin, DmaxStrategy, JoinConfig, JoinStats, QueueBackend, SemiConfig, SemiFilter,
    TraversalPolicy,
};
use incremental_distance_join::pqueue::HybridConfig;
use incremental_distance_join::rtree::{ObjectId, RTree, RTreeConfig};

fn tree(points: &[sdj_geom::Point<2>]) -> RTree<2> {
    RTree::bulk_load(
        RTreeConfig {
            buffer_frames: 32,
            ..RTreeConfig::default()
        },
        points
            .iter()
            .enumerate()
            .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
            .collect(),
    )
}

fn env() -> (RTree<2>, RTree<2>) {
    let water = tiger::water_like(1_500, 1998);
    let roads = tiger::roads_like(8_000, 1998);
    (tree(&water), tree(&roads))
}

fn run(
    t1: &RTree<2>,
    t2: &RTree<2>,
    config: JoinConfig,
    semi: Option<SemiConfig>,
    k: usize,
) -> JoinStats {
    t1.reset_io_stats();
    t2.reset_io_stats();
    let mut join = match semi {
        Some(sc) => DistanceJoin::semi(t1, t2, config, sc),
        None => DistanceJoin::new(t1, t2, config),
    };
    let produced = join.by_ref().take(k).count();
    assert!(produced > 0);
    join.stats()
}

/// Table 1's shape: the cost of the first pair is close to the cost of the
/// 1,000th, while a large result count costs much more.
#[test]
fn flat_cost_curve_then_sharp_rise() {
    let (tw, tr) = env();
    let one = run(&tw, &tr, JoinConfig::default(), None, 1);
    let thousand = run(&tw, &tr, JoinConfig::default(), None, 1_000);
    let hundred_k = run(&tw, &tr, JoinConfig::default(), None, 100_000);
    assert!(
        thousand.distance_calcs < one.distance_calcs * 3,
        "1,000 pairs should cost at most a small multiple of 1 pair \
         ({} vs {})",
        thousand.distance_calcs,
        one.distance_calcs
    );
    assert!(
        hundred_k.distance_calcs > thousand.distance_calcs * 2,
        "100,000 pairs should cost much more than 1,000"
    );
}

/// Figure 7's shape: an explicit maximum distance shrinks queue growth, and
/// a small MaxPair bound approaches the MaxDist behaviour.
#[test]
fn max_distance_and_max_pairs_prune() {
    let (tw, tr) = env();
    let k = 1_000;
    // Probe the distance of the k-th pair.
    let dk = DistanceJoin::new(&tw, &tr, JoinConfig::default())
        .nth(k - 1)
        .unwrap()
        .distance;
    let regular = run(&tw, &tr, JoinConfig::default(), None, k);
    let maxdist = run(&tw, &tr, JoinConfig::default().with_range(0.0, dk), None, k);
    let maxpair = run(
        &tw,
        &tr,
        JoinConfig::default().with_max_pairs(k as u64),
        None,
        k,
    );
    assert!(
        maxdist.max_queue * 2 < regular.max_queue,
        "MaxDist should cut the queue at least in half: {} vs {}",
        maxdist.max_queue,
        regular.max_queue
    );
    assert!(
        maxpair.max_queue < regular.max_queue,
        "MaxPair estimation should beat Regular: {} vs {}",
        maxpair.max_queue,
        regular.max_queue
    );
}

/// §4.1.1's order-sensitivity: Basic with the big relation first explodes
/// the queue relative to Even.
#[test]
fn basic_traversal_blows_up_with_large_first_relation() {
    let (tw, tr) = env();
    let basic = JoinConfig {
        traversal: TraversalPolicy::Basic,
        ..JoinConfig::default()
    };
    let even = JoinConfig::default();
    let k = 5_000;
    let basic_rw = run(&tr, &tw, basic, None, k);
    let even_rw = run(&tr, &tw, even, None, k);
    // At full scale the paper's Basic run overflowed its disk; at test
    // scale the inflation is milder but must be clearly present.
    assert!(
        basic_rw.max_queue as f64 > 1.3 * even_rw.max_queue as f64,
        "Basic (Roads first) should inflate the queue: {} vs {}",
        basic_rw.max_queue,
        even_rw.max_queue
    );
}

/// §4.1.2 note: Simultaneous only pays off with a tight maximum distance.
#[test]
fn simultaneous_needs_a_max_distance() {
    let (tw, tr) = env();
    let k = 100;
    let sim = JoinConfig {
        traversal: TraversalPolicy::Simultaneous,
        ..JoinConfig::default()
    };
    let no_bound = run(&tw, &tr, sim, None, k);
    let even_no_bound = run(&tw, &tr, JoinConfig::default(), None, k);
    assert!(
        no_bound.pairs_enqueued > even_no_bound.pairs_enqueued,
        "without a bound, Simultaneous enqueues more: {} vs {}",
        no_bound.pairs_enqueued,
        even_no_bound.pairs_enqueued
    );
    let dk = DistanceJoin::new(&tw, &tr, JoinConfig::default())
        .nth(k - 1)
        .unwrap()
        .distance;
    let sim_bounded = run(&tw, &tr, sim.with_range(0.0, dk), None, k);
    assert!(
        sim_bounded.pairs_enqueued * 2 < no_bound.pairs_enqueued,
        "a tight bound should tame Simultaneous"
    );
}

/// Figure 9's shape: more aggressive semi-join filtering does less work on
/// the full semi-join, with GlobalAll the least.
#[test]
fn semijoin_filtering_ladder() {
    let (tw, tr) = env();
    let full = tw.len();
    let strategies = [
        (SemiFilter::Inside1, DmaxStrategy::None),
        (SemiFilter::Inside2, DmaxStrategy::None),
        (SemiFilter::Inside2, DmaxStrategy::Local),
        (SemiFilter::Inside2, DmaxStrategy::GlobalAll),
    ];
    let costs: Vec<u64> = strategies
        .iter()
        .map(|(filter, dmax)| {
            let semi = SemiConfig {
                filter: *filter,
                dmax: *dmax,
            };
            let s = run(&tw, &tr, JoinConfig::default(), Some(semi), full);
            s.pairs_enqueued
        })
        .collect();
    // Local must beat plain Inside2; GlobalAll must be the cheapest.
    assert!(
        costs[2] < costs[1],
        "Local should enqueue fewer pairs than Inside2: {costs:?}"
    );
    assert!(
        costs[3] <= costs[2],
        "GlobalAll should be cheapest: {costs:?}"
    );
    assert!(
        costs[3] * 2 < costs[0],
        "GlobalAll should be far below Inside1: {costs:?}"
    );
}

/// §3.2's purpose: the hybrid queue keeps only a fraction of the queue in
/// memory while producing identical results.
#[test]
fn hybrid_queue_bounds_resident_memory() {
    let (tw, tr) = env();
    let k = 2_000usize;
    let mem_cfg = JoinConfig::default();
    let mut mem_join = DistanceJoin::new(&tw, &tr, mem_cfg);
    let mem: Vec<f64> = mem_join.by_ref().take(k).map(|r| r.distance).collect();
    let mem_peak = mem_join.stats().max_queue;

    // D_T around the k-th distance keeps the window tight.
    let dt = (mem.last().unwrap() / 4.0).max(1e-6);
    let hyb_cfg = JoinConfig {
        queue: QueueBackend::Hybrid(HybridConfig::with_dt(dt)),
        ..JoinConfig::default()
    };
    let mut hyb_join = DistanceJoin::new(&tw, &tr, hyb_cfg);
    let hyb: Vec<f64> = hyb_join.by_ref().take(k).map(|r| r.distance).collect();
    let (hstats, resident_peak) = hyb_join.hybrid_queue_info().unwrap();

    assert_eq!(mem.len(), hyb.len());
    for (a, b) in mem.iter().zip(&hyb) {
        assert!((a - b).abs() < 1e-9);
    }
    assert!(hstats.spilled > 0, "something must spill at this scale");
    assert!(
        resident_peak * 2 < mem_peak,
        "hybrid should keep under half the queue resident: {resident_peak} vs {mem_peak}"
    );
}

/// §4.2.3: the incremental GlobalAll semi-join does not do more node I/O
/// than the NN-based alternative on the full result.
#[test]
fn incremental_semijoin_competitive_with_nn_baseline() {
    use incremental_distance_join::baselines::nn_semijoin;
    use incremental_distance_join::geom::Metric;
    let (tw, tr) = env();
    let semi = SemiConfig {
        filter: SemiFilter::Inside2,
        dmax: DmaxStrategy::GlobalAll,
    };
    let inc = run(&tw, &tr, JoinConfig::default(), Some(semi), tw.len());
    let inc_accesses = inc.node_accesses;

    tw.reset_io_stats();
    tr.reset_io_stats();
    let baseline = nn_semijoin(&tw, &tr, Metric::Euclidean).unwrap();
    assert_eq!(baseline.len(), tw.len());
    let nn_accesses = tw.pool_stats().accesses() + tr.pool_stats().accesses();
    assert!(
        inc_accesses <= nn_accesses * 2,
        "incremental semi-join should be in the same ballpark or better: \
         {inc_accesses} vs {nn_accesses}"
    );
}
