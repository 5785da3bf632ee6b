//! The five workloads: what data they run on, what they ask of the engines,
//! and the one code path each query takes. Measurement, tracing and
//! verification all drive the engines through the functions here, so the
//! verified path is the measured path.

use std::time::Instant;

use sdj_core::{
    AdaptiveConfig, BulkConfig, BulkStats, DistanceJoin, DmaxStrategy, JoinConfig, JoinStats,
    PlanChoice, ResultPair, SemiConfig, SemiFilter,
};
use sdj_datagen::{tiger, uniform_points, unit_box};
use sdj_exec::{run_planned, ParallelConfig};
use sdj_geom::Point;
use sdj_obs::ObsContext;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};
use sdj_service::{JoinService, ServiceConfig, ServiceError, SessionConfig, SessionHandle};
use sdj_storage::PoolStats;

/// Results a session client asks for at a time (`next_batch(64)`).
pub const BATCH: usize = 64;

/// Which generator feeds the two relations.
#[derive(Clone, Copy, Debug)]
pub enum Data {
    /// TIGER-shaped Water × Roads at the paper's cardinalities.
    Tiger { water: usize, roads: usize },
    /// Two independent uniform point sets of this size in the unit box.
    Uniform(usize),
}

/// What a workload asks of the engines.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Incremental `DistanceJoin`, `STOP AFTER k`.
    Join { k: u64 },
    /// Incremental semi-join (`Inside2` + `GlobalAll`), first `take` results.
    Semi { take: u64 },
    /// `Dmax`-only range join through the planner (`run_planned`).
    Range { dmax: f64 },
    /// A `JoinService` round: `per_round` sessions, `concurrent` at a time,
    /// shapes cycling incremental-K / adaptive-K / planner-chosen-Dmax.
    Sessions {
        k: u64,
        dmax: f64,
        concurrent: usize,
        per_round: usize,
    },
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub data: Data,
    /// Buffer-pool frames and shards per tree.
    pub frames: usize,
    pub shards: usize,
    pub kind: Kind,
    /// Discarded repetitions before the measured window.
    pub warmup: usize,
}

/// The suite. Sizes are the paper's (TIGER) or the repo's standing
/// 100 k × 100 k uniform instance; pools are the paper's 128 frames per
/// tree except where the workload is about a pool that fits.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "first_pairs",
        why: "paper headline: 1000 closest Water x Roads pairs; expansion, kernels and node reads dominate, queue is tiny",
        data: Data::Tiger { water: tiger::WATER_FULL, roads: tiger::ROADS_FULL },
        frames: 128,
        shards: 1,
        kind: Kind::Join { k: 1_000 },
        warmup: 3,
    },
    Spec {
        name: "drain_ordered",
        why: "100k x 100k uniform, 100000 ordered pairs: a 540k-entry queue and a thrashing 128-frame pool dominate",
        data: Data::Uniform(100_000),
        frames: 128,
        shards: 1,
        kind: Kind::Join { k: 100_000 },
        warmup: 1,
    },
    Spec {
        name: "range_planned",
        why: "Dmax-only range join the planner sends to bulk: partition, sweep and merge run, queue and pool policy are bypassed",
        data: Data::Uniform(100_000),
        frames: 128,
        shards: 1,
        kind: Kind::Range { dmax: 0.002 },
        warmup: 3,
    },
    Spec {
        name: "semi_nn",
        why: "distance semi-join (Inside2+GlobalAll), first 10000: same core and queue used through seen-set filtering and d_max pruning",
        data: Data::Tiger { water: tiger::WATER_FULL, roads: tiger::ROADS_FULL },
        frames: 128,
        shards: 1,
        kind: Kind::Semi { take: 10_000 },
        warmup: 2,
    },
    Spec {
        name: "sessions_mixed",
        why: "8 concurrent JoinService sessions of three plan shapes over a pool that fits: service, admission, shared-pool hits, adaptive handoff",
        data: Data::Tiger { water: tiger::WATER_FULL, roads: tiger::ROADS_FULL },
        frames: 8192,
        shards: 4,
        kind: Kind::Sessions { k: 20_000, dmax: 0.001, concurrent: 8, per_round: 24 },
        warmup: 0,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// The same workload with cardinalities and result counts multiplied by
    /// `scale` (`Dmax` and pool sizes are kept). `scale = 1` is the
    /// benchmark; smaller scales serve `quick` and the baseline oracle check.
    pub fn scaled(&self, scale: f64) -> Spec {
        let n = |v: usize| ((v as f64 * scale).round() as usize).max(8);
        let c = |v: u64| ((v as f64 * scale).round() as u64).max(4);
        let data = match self.data {
            Data::Tiger { water, roads } => Data::Tiger {
                water: n(water),
                roads: n(roads),
            },
            Data::Uniform(m) => Data::Uniform(n(m)),
        };
        let kind = match self.kind {
            Kind::Join { k } => Kind::Join { k: c(k) },
            Kind::Semi { take } => Kind::Semi { take: c(take) },
            Kind::Range { dmax } => Kind::Range { dmax },
            Kind::Sessions {
                k,
                dmax,
                concurrent,
                per_round,
            } => Kind::Sessions {
                k: c(k),
                dmax,
                concurrent,
                per_round,
            },
        };
        Spec {
            data,
            kind,
            ..*self
        }
    }
}

/// The generated relations and their trees.
pub struct Env {
    pub pts1: Vec<Point<2>>,
    pub pts2: Vec<Point<2>>,
    pub t1: RTree<2>,
    pub t2: RTree<2>,
}

/// Wall-clock parts of one set-up.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub load_s: f64,
    pub total_s: f64,
}

/// TIGER-shaped points strictly inside the unit box. The generator clamps
/// jittered centroids to the box, which piles exact duplicates onto its
/// corners; on some seeds Water and Roads then share thousands of
/// zero-distance pairs and "the 1000 closest pairs" degenerates to one
/// leaf pair. Dropping the clamped points keeps every seed the same kind of
/// workload.
fn tiger_interior(gen: fn(usize, u64) -> Vec<Point<2>>, n: usize, seed: u64) -> Vec<Point<2>> {
    let mut extra = n / 16 + 16;
    loop {
        let mut pts = gen(n + extra, seed);
        pts.retain(|p| p.x() > 0.0 && p.x() < 1.0 && p.y() > 0.0 && p.y() < 1.0);
        if pts.len() >= n {
            pts.truncate(n);
            return pts;
        }
        extra *= 2;
    }
}

fn bulk_load(points: &[Point<2>], frames: usize, shards: usize) -> RTree<2> {
    let items: Vec<_> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
        .collect();
    let config = RTreeConfig {
        buffer_frames: frames,
        buffer_shards: shards,
        ..RTreeConfig::default()
    };
    RTree::bulk_load(config, items)
}

/// Generates both relations from `seed`, STR-bulk-loads both trees
/// (fan-out 50) and constructs the service: everything a workload needs
/// before its first query.
pub fn setup(spec: &Spec, seed: u64) -> (Env, SetupTimes) {
    let t0 = Instant::now();
    let (pts1, pts2) = match spec.data {
        Data::Tiger { water, roads } => (
            tiger_interior(tiger::water_like, water, seed),
            tiger_interior(tiger::roads_like, roads, seed),
        ),
        Data::Uniform(n) => (
            uniform_points(n, &unit_box(), seed),
            uniform_points(n, &unit_box(), seed ^ 0x5EED_0002),
        ),
    };
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = bulk_load(&pts1, spec.frames, spec.shards);
    let t2 = bulk_load(&pts2, spec.frames, spec.shards);
    let env = Env { pts1, pts2, t1, t2 };
    if let Kind::Sessions { concurrent, .. } = spec.kind {
        std::hint::black_box(JoinService::new(
            &env.t1,
            &env.t2,
            service_config(concurrent),
        ));
    }
    let total_s = t0.elapsed().as_secs_f64();
    (
        env,
        SetupTimes {
            gen_s,
            load_s: total_s - gen_s,
            total_s,
        },
    )
}

impl Env {
    /// Replaces both trees' pools with fresh, empty ones of `spec`'s size
    /// (which also drops any observer attached to them).
    pub fn cold_pools(&mut self, spec: &Spec) {
        for tree in [&mut self.t1, &mut self.t2] {
            tree.rebuild_buffer(spec.frames, spec.shards)
                .expect("in-memory pager cannot fail");
        }
    }

    /// Buffer-pool counters of both trees, summed.
    pub fn pool(&self) -> PoolStats {
        let mut s = self.t1.pool_stats();
        s.absorb(&self.t2.pool_stats());
        s
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Order-sensitive digest of a result stream.
pub fn fold_digest(mut h: u64, r: &ResultPair) -> u64 {
    for w in [r.oid1.0, r.oid2.0, r.distance.to_bits()] {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn digest(results: &[ResultPair]) -> u64 {
    results.iter().fold(0xcbf2_9ce4_8422_2325, fold_digest)
}

/// One single-query repetition, as the caller saw it.
pub struct QueryRun {
    /// Query creation to the first result in the caller's hands.
    pub first_ms: f64,
    /// Query creation to the last requested result.
    pub total_ms: f64,
    /// Constructor call alone (`DistanceJoin::new/semi`); zero for planned runs.
    pub construct_ms: f64,
    pub stats: JoinStats,
    pub bulk: Option<BulkStats>,
    pub executed: Option<PlanChoice>,
    /// Buffer-pool traffic of this query, both trees.
    pub pool: PoolStats,
    /// The engine reported a storage error.
    pub error: bool,
}

/// Runs one query of a single-query workload. Results land in `out`
/// (cleared first). `force` overrides the planner on `Range` (traced
/// regret runs only).
pub fn run_query(
    env: &Env,
    kind: Kind,
    config: JoinConfig,
    force: Option<PlanChoice>,
    obs: Option<&ObsContext>,
    out: &mut Vec<ResultPair>,
) -> QueryRun {
    out.clear();
    let pool0 = env.pool();
    let t0 = Instant::now();
    let (mut join, limit) = match kind {
        Kind::Join { k } => (
            DistanceJoin::new(&env.t1, &env.t2, config.with_max_pairs(k)),
            k,
        ),
        Kind::Semi { take } => {
            let semi = SemiConfig {
                filter: SemiFilter::Inside2,
                dmax: DmaxStrategy::GlobalAll,
            };
            (DistanceJoin::semi(&env.t1, &env.t2, config, semi), take)
        }
        Kind::Range { dmax } => {
            // The API hands the whole result over at once: the first pair
            // arrives with the last.
            let run = run_planned(
                &env.t1,
                &env.t2,
                config.with_range(0.0, dmax),
                ParallelConfig::with_threads(1),
                BulkConfig::default(),
                AdaptiveConfig::default(),
                force,
                obs.cloned(),
            );
            let total_ms = ms_since(t0);
            *out = run.results;
            return QueryRun {
                first_ms: total_ms,
                total_ms,
                construct_ms: 0.0,
                stats: run.stats,
                bulk: run.bulk,
                executed: Some(run.executed),
                pool: env.pool().since(&pool0),
                error: run.error.is_some(),
            };
        }
        Kind::Sessions { .. } => unreachable!("sessions run in rounds"),
    };
    if let Some(ctx) = obs {
        join = join.with_obs(ctx);
    }
    let construct_ms = ms_since(t0);
    let mut first_ms = 0.0;
    while (out.len() as u64) < limit {
        let Some(r) = join.next() else { break };
        if out.is_empty() {
            first_ms = ms_since(t0);
        }
        out.push(r);
    }
    let total_ms = ms_since(t0);
    QueryRun {
        first_ms,
        total_ms,
        construct_ms,
        stats: join.stats(),
        bulk: None,
        executed: None,
        pool: env.pool().since(&pool0),
        error: join.take_error().is_some(),
    }
}

pub fn service_config(concurrent: usize) -> ServiceConfig {
    ServiceConfig {
        max_sessions: concurrent as u32,
        session_budget: None,
    }
}

/// Number of session shapes; shape `i` of a round is `i % SHAPES`.
pub const SHAPES: usize = 3;

/// Session shape `shape`: 0 forced-incremental `K`, 1 forced-adaptive `K`,
/// 2 planner-chosen `Dmax`-only (the planner picks bulk). Adaptive knobs
/// are explicit so no `SDJ_*` environment default leaks in.
pub fn session_config(shape: usize, k: u64, dmax: f64, base: JoinConfig) -> SessionConfig {
    let (join, force_plan) = match shape % SHAPES {
        0 => (base.with_max_pairs(k), Some(PlanChoice::Incremental)),
        1 => (base.with_max_pairs(k), Some(PlanChoice::Adaptive)),
        _ => (base.with_range(0.0, dmax), None),
    };
    SessionConfig {
        join,
        force_plan,
        adaptive: AdaptiveConfig::default(),
        bulk: BulkConfig::default(),
        budget: None,
        label: None,
    }
}

/// One finished session, as its client saw it.
pub struct SessionRun {
    /// Position in the round's opening order; the first `concurrent`
    /// sessions open together and form wave 0.
    pub index: usize,
    pub shape: usize,
    pub plan: PlanChoice,
    pub open_ms: f64,
    /// `open` to the first non-empty batch.
    pub first_ms: f64,
    /// `open` to the batch that reported `done`.
    pub total_ms: f64,
    pub pairs: u64,
    pub digest: u64,
}

/// One service round.
pub struct Round {
    pub wall_ms: f64,
    pub sessions: Vec<SessionRun>,
    /// `open` + `next_batch` calls made, and how many returned an error.
    pub ops: u64,
    pub failed_ops: u64,
    pub denied: u64,
    pub pulls: u64,
    pub pool: PoolStats,
    /// Peak over the round of Σ `held_bytes()` across live sessions,
    /// sampled after every pull.
    pub peak_held: usize,
}

struct Live<'t> {
    /// `None` once the session finished: dropping the handle returns its
    /// admission slot.
    handle: Option<SessionHandle<'t, 2>>,
    run: SessionRun,
    opened: Instant,
    held: usize,
}

/// Runs the sessions in `shapes` through one fresh `JoinService`,
/// `concurrent` at a time on this one thread, pulling `next_batch(BATCH)`
/// round-robin and replacing each finished session in its slot. With
/// `cold` the pools are rebuilt first, so every round starts from the same
/// (empty) pool state and its counts repeat exactly. `capture` receives the
/// concatenated results (solo verification runs).
#[allow(clippy::too_many_arguments)]
pub fn run_round(
    env: &mut Env,
    spec: &Spec,
    shapes: &[usize],
    concurrent: usize,
    base: JoinConfig,
    cold: bool,
    waits: &mut Vec<f64>,
    mut capture: Option<&mut Vec<ResultPair>>,
) -> Round {
    let Kind::Sessions { k, dmax, .. } = spec.kind else {
        unreachable!("rounds are for the sessions workload")
    };
    if cold {
        env.cold_pools(spec);
    }
    let env = &*env;
    let pool0 = env.pool();
    let service = JoinService::new(&env.t1, &env.t2, service_config(concurrent));
    let mut round = Round {
        wall_ms: 0.0,
        sessions: Vec::with_capacity(shapes.len()),
        ops: 0,
        failed_ops: 0,
        denied: 0,
        pulls: 0,
        pool: PoolStats::default(),
        peak_held: 0,
    };
    let mut pending = shapes.iter().copied().enumerate();
    let mut open = |round: &mut Round| -> Option<Live<'_>> {
        let (index, shape) = pending.next()?;
        let opened = Instant::now();
        round.ops += 1;
        match service.open(session_config(shape, k, dmax, base)) {
            Ok(handle) => Some(Live {
                run: SessionRun {
                    index,
                    shape,
                    plan: handle.plan(),
                    open_ms: ms_since(opened),
                    first_ms: 0.0,
                    total_ms: 0.0,
                    pairs: 0,
                    digest: digest(&[]),
                },
                handle: Some(handle),
                opened,
                held: 0,
            }),
            Err(e) => {
                round.failed_ops += 1;
                round.denied += u64::from(matches!(e, ServiceError::AdmissionDenied { .. }));
                None
            }
        }
    };

    let t_round = Instant::now();
    let mut live: Vec<Live<'_>> = Vec::with_capacity(concurrent);
    while live.len() < concurrent {
        match open(&mut round) {
            Some(l) => live.push(l),
            None => break,
        }
    }
    let mut held_total = 0usize;
    let mut slot = 0usize;
    while !live.is_empty() {
        slot %= live.len();
        let l = &mut live[slot];
        let handle = l.handle.as_mut().expect("live sessions hold a handle");
        let t = Instant::now();
        let batch = handle.next_batch(BATCH);
        waits.push(ms_since(t));
        round.ops += 1;
        round.pulls += 1;
        let done = match batch {
            Ok(b) => {
                if l.run.pairs == 0 && !b.results.is_empty() {
                    l.run.first_ms = ms_since(l.opened);
                }
                l.run.pairs += b.results.len() as u64;
                l.run.digest = b.results.iter().fold(l.run.digest, fold_digest);
                if let Some(c) = capture.as_deref_mut() {
                    c.extend_from_slice(&b.results);
                }
                b.done
            }
            Err(_) => {
                round.failed_ops += 1;
                true
            }
        };
        let held = handle.held_bytes();
        held_total = held_total + held - l.held;
        l.held = held;
        round.peak_held = round.peak_held.max(held_total);
        if !done {
            slot += 1;
            continue;
        }
        l.run.total_ms = ms_since(l.opened);
        held_total -= l.held;
        // Drop the handle before opening: its admission slot is the one the
        // replacement takes. A replacement keeps the slot in the rotation.
        l.handle = None;
        let finished = match open(&mut round) {
            Some(next) => {
                slot += 1;
                std::mem::replace(l, next)
            }
            None => live.remove(slot),
        };
        round.sessions.push(finished.run);
    }
    round.wall_ms = ms_since(t_round);
    round.pool = env.pool().since(&pool0);
    round
}
