//! `exp`: regenerates the paper's §4 evaluation, one artefact per table,
//! figure or text result (DESIGN.md §3).
//!
//! ```text
//! exp <artefact>... [--scale F] [--seed N] [--out DIR]
//! ```
//!
//! Each artefact builds a fresh Water/Roads environment at `--scale`
//! (default 0.2) and `--seed` (default 1998) and prints its tables to
//! stdout. With `--out DIR` the tables go to `DIR/<artefact>.txt` instead,
//! and the artefact's measured runs log their events to
//! `DIR/<artefact>.ndjson` (queue sampled every 256 pops, every 64th result
//! reported). Environment building, the warm-up run and the cut-off probes
//! are not logged.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use sdj_baselines::{nested_loop_count, nn_semijoin, nn_semijoin_shuffled, within_join};
use sdj_bench::{
    build_tree, distance_at_ranks, fmt_secs, print_table, sweep, sweep_up_to, time_join, timed,
    Cell, Env, Variant,
};
use sdj_core::{
    DistanceJoin, DmaxStrategy, EstimationBound, JoinConfig, QueueBackend, SemiConfig, SemiFilter,
    TiePolicy, TraversalPolicy,
};
use sdj_datagen::unit_box;
use sdj_geom::{Metric, Point};
use sdj_obs::{EventSink, NdjsonWriter, ObsContext};
use sdj_pqueue::HybridConfig;
use sdj_quadtree::{PrQuadtree, QuadtreeConfig};
use sdj_rtree::{ObjectId, RTreeConfig};

const USAGE: &str = "usage: exp <artefact>... [--scale F] [--seed N] [--out DIR]
artefacts: table1 fig6 fig7 fig8 fig9 fig10 swap_order alt_join alt_semijoin ablation";

type Artefact = fn(&Env, &mut dyn Write) -> io::Result<()>;

const ARTEFACTS: [(&str, Artefact); 10] = [
    ("table1", table1),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("swap_order", swap_order),
    ("alt_join", alt_join),
    ("alt_semijoin", alt_semijoin),
    ("ablation", ablation),
];

const SECS: Cell = |m| fmt_secs(m.seconds);
const CALCS: Cell = |m| m.stats.distance_calcs.to_string();
const QUEUE: Cell = |m| m.stats.max_queue.to_string();
const NODE_IO: Cell = |m| m.stats.node_io.to_string();
const PEAK: Cell = |m| m.resident_peak.to_string();
const SPILLED: Cell = |m| m.spilled.to_string();

/// The semi-join sweep: the standard counts up to `cap`, then the complete
/// semi-join (one result per outer object).
fn semi_sweep(total: u64, cap: u64) -> Vec<u64> {
    let mut ks = sweep_up_to(total.min(cap));
    if ks.last() != Some(&total) {
        ks.push(total);
    }
    ks
}

/// Table 1: performance measures of the incremental distance join using
/// depth-first tie-breaking, one-node-at-a-time processing, and even
/// traversal, for 1 … 100,000 result pairs of Water ⋈ Roads.
fn table1(env: &Env, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Table 1: incremental distance join (Even/DepthFirst), Water x Roads\n"
    )?;
    let variants = [Variant::new("Even/DepthFirst", JoinConfig::default())];
    let grid = sweep(env, &variants, &sweep_up_to(env.pairs().min(100_000)), None);
    grid.assert_complete();
    grid.print(
        out,
        &[
            ("Time (s)", 0, SECS),
            ("Dist. Calc.", 0, CALCS),
            ("Queue Size", 0, QUEUE),
            ("Node I/O", 0, NODE_IO),
        ],
    )
}

/// Figure 6: execution time of the distance join for four algorithm
/// variants as a function of the number of result pairs, with each
/// variant's maximum queue size and distance calculations.
fn fig6(env: &Env, out: &mut dyn Write) -> io::Result<()> {
    use {TiePolicy::*, TraversalPolicy::*};
    let variants = [
        ("Even/DepthFirst", Even, DepthFirst),
        ("Even/BreadthFirst", Even, BreadthFirst),
        ("Basic/DepthFirst", Basic, DepthFirst),
        ("Simult/DepthFirst", Simultaneous, DepthFirst),
    ]
    .map(|(label, traversal, tie)| {
        let config = JoinConfig {
            traversal,
            tie,
            ..JoinConfig::default()
        };
        Variant::new(label, config)
    });
    writeln!(
        out,
        "Figure 6: execution time (s) by variant, Water x Roads\n"
    )?;
    let grid = sweep(env, &variants, &sweep_up_to(env.pairs().min(100_000)), None);
    grid.print_each(out, &variants, SECS)?;
    writeln!(out, "\nMaximum queue size (hardware independent):\n")?;
    grid.print_each(out, &variants, QUEUE)?;
    writeln!(out, "\nDistance calculations (hardware independent):\n")?;
    grid.print_each(out, &variants, CALCS)
}

/// Figure 7: the effect of an explicit maximum distance ("MaxDist", set to
/// the distance of result pair #1,000 / #10,000 / #100,000) and of the
/// estimated maximum distance from a pair-count bound ("MaxPair" 1,000 and
/// 10,000) on distance-join execution time.
fn fig7(env: &Env, out: &mut dyn Write) -> io::Result<()> {
    let max = env.pairs().min(100_000);
    let ranks: Vec<u64> = [1_000u64, 10_000, 100_000]
        .into_iter()
        .filter(|r| *r <= max)
        .collect();
    eprintln!("# probing cut-off distances at ranks {ranks:?} ...");
    let cutoffs = distance_at_ranks(env, &ranks, None);
    let mut variants = vec![Variant::new("Regular", JoinConfig::default())];
    for (&r, &d) in ranks.iter().zip(&cutoffs) {
        eprintln!("#   distance of pair #{r}: {d:.6}");
        let config = JoinConfig::default().with_range(0.0, d);
        variants.push(Variant::new(format!("MaxDist {r}"), config).up_to(r));
    }
    for k in [1_000u64, 10_000].into_iter().filter(|k| *k <= max) {
        let config = JoinConfig::default().with_max_pairs(k);
        variants.push(Variant::new(format!("MaxPair {k}"), config).up_to(k));
    }
    writeln!(out, "Figure 7: execution time (s), Water x Roads\n")?;
    let grid = sweep(env, &variants, &sweep_up_to(max), None);
    grid.assert_complete();
    grid.print_each(out, &variants, SECS)
}

/// Figure 8: execution time for storing the priority queue entirely in
/// memory versus offloading parts of it to disk with the hybrid scheme
/// (§3.2), for two values of the bucket increment `D_T`.
///
/// The paper picked `D_T` values equal to the distances of result pairs
/// #7,663 and #34,906; this artefact probes the same ranks. The paper's
/// memory-only collapse at 100,000 pairs was virtual-memory thrashing on a
/// 64 MB machine; that effect cannot be reproduced on modern RAM sizes, so
/// alongside wall-clock time the table reports the evidence that matters:
/// the in-memory high-water mark of each backend (elements resident at
/// peak) and the element count the hybrid queue parked on disk instead.
fn fig8(env: &Env, out: &mut dyn Write) -> io::Result<()> {
    let max = env.pairs().min(100_000);
    let ranks: Vec<u64> = [7_663u64, 34_906].into_iter().map(|r| r.min(max)).collect();
    eprintln!("# probing D_T candidates at ranks {ranks:?} ...");
    let dts = distance_at_ranks(env, &ranks, None);
    eprintln!(
        "#   Hybrid1 D_T = {:.6}, Hybrid2 D_T = {:.6}",
        dts[0], dts[1]
    );
    let hybrid = |dt| QueueBackend::Hybrid(HybridConfig::with_dt(dt));
    let variants = [
        ("Memory", QueueBackend::Memory),
        ("Hybrid1", hybrid(dts[0])),
        ("Hybrid2", hybrid(dts[1])),
    ]
    .map(|(label, queue)| {
        let config = JoinConfig {
            queue,
            ..JoinConfig::default()
        };
        Variant::new(label, config)
    });
    writeln!(
        out,
        "Figure 8: memory-only vs hybrid priority queue, Water x Roads\n"
    )?;
    let grid = sweep(env, &variants, &sweep_up_to(max), None);
    grid.assert_complete();
    grid.print(
        out,
        &[
            ("Memory (s)", 0, SECS),
            ("Hybrid1 (s)", 1, SECS),
            ("Hybrid2 (s)", 2, SECS),
            ("Mem peak", 0, PEAK),
            ("Hyb1 peak", 1, PEAK),
            ("Hyb1 spill", 1, SPILLED),
            ("Hyb2 peak", 2, PEAK),
            ("Hyb2 spill", 2, SPILLED),
        ],
    )
}

/// Figure 9: execution time of the distance semi-join under the six
/// filtering / d_max-pruning strategies of §4.2.1 as a function of the
/// number of result pairs, including the full semi-join ("All": the
/// nearest road feature of every water feature).
fn fig9(env: &Env, out: &mut dyn Write) -> io::Result<()> {
    use {DmaxStrategy::*, SemiFilter::*};
    let mut variants = [
        ("Outside", Outside, DmaxStrategy::None),
        ("Inside1", Inside1, DmaxStrategy::None),
        ("Inside2", Inside2, DmaxStrategy::None),
        ("Local", Inside2, Local),
        ("GlobalNodes", Inside2, GlobalNodes),
        ("GlobalAll", Inside2, GlobalAll),
    ]
    .map(|(label, filter, dmax)| {
        Variant::new(label, JoinConfig::default()).semi(SemiConfig { filter, dmax })
    });
    // The paper could not run "Outside" past 10,000 pairs ("the priority
    // queue became too large"); skip it there too.
    variants[0].max_k = 10_000;
    writeln!(
        out,
        "Figure 9: distance semi-join execution time (s), Water semi-join Roads\n"
    )?;
    let total = env.water.len() as u64;
    let grid = sweep(env, &variants, &semi_sweep(total, 100_000), Some(total));
    grid.assert_complete();
    grid.print_each(out, &variants, SECS)
}

/// Figure 10: the effect of an explicit maximum distance ("MaxDist", set to
/// the distance of semi-join result #1,000 / #10,000 / the last result) and
/// of the pair-count estimation ("MaxPair" 1,000 / 10,000 / All) on the
/// distance semi-join, run over the "Local" variant as in the paper.
fn fig10(env: &Env, out: &mut dyn Write) -> io::Result<()> {
    let local = SemiConfig {
        filter: SemiFilter::Inside2,
        dmax: DmaxStrategy::Local,
    };
    let total = env.water.len() as u64;
    let ranks: Vec<u64> = [1_000u64, 10_000, total]
        .into_iter()
        .filter(|r| *r <= total)
        .collect();
    eprintln!("# probing semi-join cut-off distances at ranks {ranks:?} ...");
    let cutoffs = distance_at_ranks(env, &ranks, Some(local));
    let name = |r: u64| {
        if r == total {
            "All".to_owned()
        } else {
            r.to_string()
        }
    };
    let mut variants = vec![Variant::new("Regular", JoinConfig::default())];
    for (&r, &d) in ranks.iter().zip(&cutoffs) {
        eprintln!("#   distance of semi-join result #{r}: {d:.6}");
        let config = JoinConfig::default().with_range(0.0, d);
        variants.push(Variant::new(format!("MaxDist {}", name(r)), config).up_to(r));
    }
    for &r in &ranks {
        let config = JoinConfig::default().with_max_pairs(r);
        variants.push(Variant::new(format!("MaxPair {}", name(r)), config).up_to(r));
    }
    let variants: Vec<Variant> = variants.into_iter().map(|v| v.semi(local)).collect();
    writeln!(
        out,
        "Figure 10: distance semi-join (Local), Water semi-join Roads\n"
    )?;
    let grid = sweep(env, &variants, &semi_sweep(total, total), Some(total));
    grid.assert_complete();
    grid.print_each(out, &variants, SECS)
}

/// §4.1.1 (text): sensitivity to the order of the joined relations. The
/// distance join is symmetric, and Even traversal performs virtually the
/// same either way — but the Basic variant, which always expands the first
/// item of node/node pairs, blows up when the larger relation (Roads) comes
/// first ("too many pairs were generated for the priority queue").
fn swap_order(env: &Env, out: &mut dyn Write) -> io::Result<()> {
    let [even, basic] =
        [TraversalPolicy::Even, TraversalPolicy::Basic].map(|traversal| JoinConfig {
            traversal,
            ..JoinConfig::default()
        });
    let variants = [
        Variant::new("Even W x R", even),
        Variant::new("Even R x W", even).swapped(),
        Variant::new("Basic W x R", basic),
        Variant::new("Basic R x W", basic).swapped(),
    ];
    writeln!(
        out,
        "Order sensitivity: Basic vs Even traversal, both join orders\n"
    )?;
    let grid = sweep(env, &variants, &sweep_up_to(env.pairs().min(10_000)), None);
    grid.print(
        out,
        &[
            ("Even W x R (s)", 0, SECS),
            ("Even R x W (s)", 1, SECS),
            ("Basic W x R (s)", 2, SECS),
            ("Basic R x W (s)", 3, SECS),
            ("Basic R x W queue", 3, QUEUE),
            ("Even R x W queue", 1, QUEUE),
        ],
    )
}

/// §4.1.4: alternative distance-join implementations — the nested-loop
/// approach (compute every pairwise distance, inner relation in memory)
/// against the incremental algorithm consuming 1 … 100,000 pairs, plus the
/// within-predicate spatial join + sort for a known maximum distance.
///
/// The paper's full-scale nested loop took over 3.5 hours for ~7.5 billion
/// pairs; scale the environment so the Cartesian product stays tractable
/// (0.2 gives ~300 M pairs).
fn alt_join(env: &Env, out: &mut dyn Write) -> io::Result<()> {
    let cartesian = env.pairs();
    writeln!(
        out,
        "Section 4.1.4: alternative distance-join implementations"
    )?;
    writeln!(out, "Cartesian product: {cartesian} pairs\n")?;

    // Nested loop: all distances, nothing stored (the paper's measurement).
    let objects = |points: &[Point<2>]| -> Vec<_> {
        points
            .iter()
            .enumerate()
            .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
            .collect()
    };
    let (water, roads) = (objects(&env.water), objects(&env.roads));
    let (distances, nested) =
        timed(|| nested_loop_count(&water, &roads, Metric::Euclidean, 0.0, f64::INFINITY));
    writeln!(
        out,
        "Nested loop (all {distances} distances, none stored): {} s",
        fmt_secs(nested)
    )?;

    // Within-join + sort for the distance of pair #100,000 (or the largest
    // rank available): the non-incremental plan when a cut-off is known.
    let max = cartesian.min(100_000);
    let cutoff = distance_at_ranks(env, &[max], None)[0];
    let (w, r) = (&env.water_tree, &env.roads_tree);
    let (pairs, within) = timed(|| {
        let pairs = within_join(w, r, Metric::Euclidean, 0.0, cutoff);
        pairs.expect("simulated disk cannot fail").len()
    });
    writeln!(
        out,
        "Within-join + sort (dmax = dist of pair #{max}): {} s for {pairs} pairs\n",
        fmt_secs(within),
    )?;

    // The incremental join, for comparison, at each result count.
    let mut rows = Vec::new();
    for k in sweep_up_to(max) {
        let m = env.run_join(false, JoinConfig::default(), None, k);
        let speedup = format!("{:.0}x faster", nested / m.seconds.max(1e-9));
        rows.push(vec![k.to_string(), SECS(&m), speedup]);
    }
    print_table(out, &["Pairs", "Incremental (s)", "vs nested loop"], &rows)
}

/// §4.2.3: the complete distance semi-join via the incremental algorithm
/// ("GlobalAll", its best variant) versus the nearest-neighbour alternative
/// (one NN search per outer object + final sort), in both join orders.
///
/// The paper reports GlobalAll ≈ 25 s vs NN ≈ 27 s for Water ⋈ Roads and
/// 102 s vs 141 s for Roads ⋈ Water: the incremental algorithm wins both,
/// more clearly with the larger outer relation.
///
/// Both answers are checked, not only timed: every outer object must get
/// the same nearest-partner distance from the semi-join as from the NN
/// baseline. The semi-join's results are collected in a separate, untimed
/// run after the baselines'.
fn alt_semijoin(env: &Env, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Section 4.2.3: complete distance semi-join, incremental vs NN-based\n"
    )?;
    let mut rows = Vec::new();
    let semi = SemiConfig {
        filter: SemiFilter::Inside2,
        dmax: DmaxStrategy::GlobalAll,
    };
    for (label, swap) in [("Water x Roads", false), ("Roads x Water", true)] {
        let (t1, t2, outer) = if swap {
            (&env.roads_tree, &env.water_tree, env.roads.len() as u64)
        } else {
            (&env.water_tree, &env.roads_tree, env.water.len() as u64)
        };
        let inc = env.run_join(swap, JoinConfig::default(), Some(semi), outer);
        assert_eq!(inc.produced, outer);

        // The paper's times were disk-bound; the buffer-miss counts are the
        // hardware-independent comparison. The leaf-order scan gives
        // consecutive NN queries near-perfect buffer locality; a relation
        // scanned in storage order uncorrelated with space does not get it.
        let nn_run = |shuffle: Option<u64>| {
            t1.reset_io_stats();
            t2.reset_io_stats();
            let (pairs, seconds) = timed(|| match shuffle {
                Some(seed) => nn_semijoin_shuffled(t1, t2, Metric::Euclidean, seed),
                None => nn_semijoin(t1, t2, Metric::Euclidean),
            });
            let pairs = pairs.expect("simulated disk");
            assert_eq!(pairs.len() as u64, outer);
            (
                seconds,
                t1.pool_stats().misses + t2.pool_stats().misses,
                pairs,
            )
        };
        let (nn, nn_rand) = (nn_run(None), nn_run(Some(42)));
        // Collected after the baselines ran, so their buffer misses start
        // from the pool state the timed semi-join left.
        let mut answer: Vec<(ObjectId, f64)> =
            DistanceJoin::semi(t1, t2, JoinConfig::default(), semi)
                .map(|r| (r.oid1, r.distance))
                .collect();
        let mut want: Vec<(ObjectId, f64)> = nn.2.iter().map(|p| (p.oid1, p.distance)).collect();
        answer.sort_by_key(|r| r.0);
        want.sort_by_key(|r| r.0);
        assert_eq!(answer.len(), want.len(), "{label}: result count");
        for (got, nn) in answer.iter().zip(&want) {
            assert_eq!(got.0, nn.0, "{label}: outer objects differ");
            assert!(
                (got.1 - nn.1).abs() < 1e-9,
                "{label}: object {:?} at {} from the semi-join, {} from the NN baseline",
                got.0,
                got.1,
                nn.1
            );
        }

        rows.push(vec![
            label.to_string(),
            SECS(&inc),
            fmt_secs(nn.0),
            fmt_secs(nn_rand.0),
            inc.stats.node_io.to_string(),
            nn.1.to_string(),
            nn_rand.1.to_string(),
            outer.to_string(),
        ]);
    }
    let headers = [
        "Order",
        "GlobalAll (s)",
        "NN leaf-order (s)",
        "NN random-order (s)",
        "GlobalAll node I/O",
        "NN leaf I/O",
        "NN random I/O",
        "Results",
    ];
    print_table(out, &headers, &rows)
}

/// Ablations beyond the paper's figures (DESIGN.md §6): the estimation
/// bound family, R*-tree fan-out, buffer size, and the index substrate
/// (R*-tree vs PR quadtree vs mixed).
fn ablation(env: &Env, out: &mut dyn Write) -> io::Result<()> {
    let k = 10_000u64.min(env.pairs());
    let obs = env.obs.as_ref();
    let default = JoinConfig::default();

    writeln!(out, "Ablation A: estimation bound family (K = 1,000)\n")?;
    let mut rows = Vec::new();
    for (name, estimation) in [
        ("AllPairs (MAXDIST)", EstimationBound::AllPairs),
        ("ExistsPair (MINMAXDIST)", EstimationBound::ExistsPair),
    ] {
        let config = JoinConfig {
            estimation,
            ..default
        }
        .with_max_pairs(1_000);
        let m = env.run_join(false, config, None, 1_000);
        rows.push(vec![name.to_string(), SECS(&m), QUEUE(&m), CALCS(&m)]);
    }
    print_table(
        out,
        &["Variant", "Time (s)", "Max queue", "Dist. calc."],
        &rows,
    )?;

    // Fresh Water and Roads trees under `config`: build seconds, and a join.
    let fresh_trees = |config| {
        let build = |points| build_tree(config, points);
        let ((w, r), seconds) = timed(|| (build(&env.water), build(&env.roads)));
        (seconds, time_join(&w, &r, default, None, k, obs))
    };

    writeln!(out, "\nAblation B: R*-tree fan-out ({k} pairs)\n")?;
    let mut rows = Vec::new();
    for fanout in [10usize, 25, 50, 100] {
        let (build, run) = fresh_trees(RTreeConfig {
            page_size: 8192,
            fanout_cap: Some(fanout),
            buffer_frames: 128,
            ..RTreeConfig::default()
        });
        let (build, join, io) = (fmt_secs(build), SECS(&run), NODE_IO(&run));
        rows.push(vec![fanout.to_string(), build, join, io, QUEUE(&run)]);
    }
    let headers = ["Fan-out", "Build (s)", "Join (s)", "Node I/O", "Max queue"];
    print_table(out, &headers, &rows)?;

    writeln!(out, "\nAblation C: buffer frames per tree ({k} pairs)\n")?;
    let mut rows = Vec::new();
    for frames in [16usize, 64, 128, 512] {
        let (_, run) = fresh_trees(RTreeConfig {
            buffer_frames: frames,
            ..RTreeConfig::default()
        });
        rows.push(vec![frames.to_string(), SECS(&run), NODE_IO(&run)]);
    }
    print_table(out, &["Frames", "Join (s)", "Node I/O"], &rows)?;

    writeln!(out, "\nAblation D: index substrate ({k} pairs)\n")?;
    let quadtree = |points: &[sdj_geom::Point<2>]| {
        let mut q = PrQuadtree::new(QuadtreeConfig::new(unit_box()));
        for (i, p) in points.iter().enumerate() {
            q.insert(ObjectId(i as u64), *p).expect("in bounds");
        }
        q
    };
    let (qw, qr) = (quadtree(&env.water), quadtree(&env.roads));
    let (w, r) = (&env.water_tree, &env.roads_tree);
    let runs = [
        ("R*-tree x R*-tree", time_join(w, r, default, None, k, obs)),
        (
            "quadtree x quadtree",
            time_join(&qw, &qr, default, None, k, obs),
        ),
        (
            "quadtree x R*-tree",
            time_join(&qw, r, default, None, k, obs),
        ),
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(name, m)| {
            let accesses = m.stats.node_accesses.to_string();
            vec![name.to_string(), SECS(m), QUEUE(m), accesses]
        })
        .collect();
    let headers = ["Substrate", "Join (s)", "Max queue", "Node accesses"];
    print_table(out, &headers, &rows)
}

struct Args {
    artefacts: Vec<(&'static str, Artefact)>,
    scale: f64,
    seed: u64,
    out: Option<PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        artefacts: Vec::new(),
        scale: 0.2,
        seed: 1998,
        out: None,
    };
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{arg} takes a value"));
        match arg.as_str() {
            "--scale" => args.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => args.out = Some(value()?.into()),
            name => match ARTEFACTS.iter().find(|(n, _)| *n == name) {
                Some(&artefact) => args.artefacts.push(artefact),
                None => return Err(format!("unknown artefact or flag {name}")),
            },
        }
    }
    if args.artefacts.is_empty() {
        return Err("name at least one artefact".into());
    }
    if !(args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    Ok(args)
}

/// Runs each artefact over its own environment. With `--out`, the
/// artefact's event log lives as long as its environment: both are dropped,
/// and the log flushed and checked, before the next artefact starts.
fn run(args: &Args) -> io::Result<()> {
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir)?;
    }
    for &(name, artefact) in &args.artefacts {
        eprintln!(
            "# {name}: building Water/Roads environment at scale {} (seed {}) ...",
            args.scale, args.seed
        );
        let mut env = Env::new(args.scale, args.seed);
        eprintln!(
            "# Water: {} points (tree height {}), Roads: {} points (tree height {})",
            env.water.len(),
            env.water_tree.height(),
            env.roads.len(),
            env.roads_tree.height()
        );
        // Warm up the allocator and buffer pools so the first measured run
        // is not charged for cold-start effects.
        let _ = env.run_join(false, JoinConfig::default(), None, 100);
        let Some(dir) = &args.out else {
            artefact(&env, &mut io::stdout().lock())?;
            continue;
        };
        let log = Arc::new(NdjsonWriter::create(dir.join(format!("{name}.ndjson")))?);
        env.obs = Some(
            ObsContext::new(log.clone())
                .with_pop_sample_every(256)
                .with_result_sample_every(64),
        );
        let mut text = BufWriter::new(File::create(dir.join(format!("{name}.txt")))?);
        artefact(&env, &mut text)?;
        text.flush()?;
        drop(env);
        log.flush();
        if log.write_errors() > 0 {
            return Err(io::Error::other(format!("{name}.ndjson: write failed")));
        }
        eprintln!("# wrote {name}.txt and {name}.ndjson to {}", dir.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("exp: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("exp: {e}");
            ExitCode::FAILURE
        }
    }
}
