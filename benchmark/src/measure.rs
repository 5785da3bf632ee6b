//! The untraced run: set-up, warm-up, a closed-loop measured window with one
//! client, then verification. Everything here is also the first half of the
//! traced run, which reuses the same windows.

use std::time::Instant;

use sdj_core::{JoinConfig, JoinStats, ResultPair};
use sdj_obs::ObsContext;

use crate::metrics::Report;
use crate::stats::median;
use crate::verify;
use crate::workload::{
    digest, run_query, run_round, setup, Env, Kind, QueryRun, Round, SetupTimes, Spec, SHAPES,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Repetitions a window holds at least, so its medians mean something.
const MIN_REPS: usize = 3;

/// What a run was asked to do.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Engine configuration every query starts from: `JoinConfig::default()`
    /// unless a traced run was given `--join-config`.
    pub config: JoinConfig,
}

/// Sets the workload up [`SETUP_REPS`] times (dropping each environment
/// before building the next, so peak memory is one environment's) and keeps
/// the last.
pub fn prepare(spec: &Spec, seed: u64) -> (Env, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for _ in 0..SETUP_REPS {
        drop(env.take());
        let (e, t) = setup(spec, seed);
        times.push(t);
        env = Some(e);
    }
    (env.expect("SETUP_REPS is positive"), times)
}

/// Whether a window that has spent `elapsed` seconds on `reps` repetitions,
/// the last taking `last` seconds, should run another: it stops at the
/// repetition boundary nearest to the budget.
fn more(reps: usize, elapsed: f64, last: f64, seconds: f64) -> bool {
    reps < MIN_REPS || elapsed + 0.5 * last < seconds
}

/// Whether two repetitions report the same counts. Queue bytes get 0.1 %
/// slack: under the flat layout the item arena's hash map rehashes at
/// points that depend on its per-instance random hasher, so its capacity
/// (and nothing else) wobbles by a few hundred bytes.
fn same_counts(a: &QueryRun, b: &QueryRun) -> bool {
    let rest = |s: JoinStats| JoinStats {
        queue_bytes_peak: 0,
        ..s
    };
    let (x, y) = (
        a.stats.queue_bytes_peak as f64,
        b.stats.queue_bytes_peak as f64,
    );
    (rest(a.stats), a.bulk, a.pool) == (rest(b.stats), b.bulk, b.pool) && (x - y).abs() <= 1e-3 * x
}

/// A measured window of a single-query workload.
pub struct QueryWindow {
    pub runs: Vec<QueryRun>,
    /// The stream every repetition produced (they are asserted identical).
    pub results: Vec<ResultPair>,
}

/// Repeats the workload's query for `seconds` after `warmup` discarded
/// repetitions. After warm-up every query starts from the pool state its
/// identical predecessor left, so every count must repeat exactly; a
/// repetition that differs is reported as a failure.
pub fn query_window(
    env: &Env,
    spec: &Spec,
    config: JoinConfig,
    obs: Option<&ObsContext>,
    warmup: usize,
    seconds: f64,
    report: &mut Report,
) -> QueryWindow {
    let mut results = Vec::new();
    for _ in 0..warmup {
        run_query(env, spec.kind, config, None, obs, &mut results);
    }
    let mut runs: Vec<QueryRun> = Vec::new();
    let mut first_digest = 0;
    let start = Instant::now();
    let mut last = 0.0;
    while more(runs.len(), start.elapsed().as_secs_f64(), last, seconds) {
        let run = run_query(env, spec.kind, config, None, obs, &mut results);
        last = run.total_ms / 1e3;
        let d = digest(&results);
        match runs.first() {
            None => first_digest = d,
            Some(f) if !same_counts(f, &run) || first_digest != d => {
                report.fail(format!(
                    "{}: repetition {} differs from the first (counts or stream): {:?} {:?} vs {:?} {:?}",
                    spec.name,
                    runs.len(),
                    run.stats,
                    run.pool,
                    f.stats,
                    f.pool
                ));
            }
            Some(_) => {}
        }
        runs.push(run);
    }
    QueryWindow { runs, results }
}

/// A measured window of the sessions workload.
pub struct RoundWindow {
    pub rounds: Vec<Round>,
    /// One `next_batch` latency per pull, all rounds.
    pub waits: Vec<f64>,
}

/// Repeats the service round for `seconds`. Every round starts cold, so
/// its counts and streams must repeat exactly.
pub fn round_window(
    env: &mut Env,
    spec: &Spec,
    config: JoinConfig,
    seconds: f64,
    report: &mut Report,
) -> RoundWindow {
    let Kind::Sessions {
        concurrent,
        per_round,
        ..
    } = spec.kind
    else {
        unreachable!("round windows are for the sessions workload")
    };
    let shapes: Vec<usize> = (0..per_round).collect();
    let mut waits = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    let mut last = 0.0;
    // One round is already thousands of pulls; MIN_REPS applies to queries.
    while rounds.is_empty() || start.elapsed().as_secs_f64() + 0.5 * last < seconds {
        let round = run_round(
            env, spec, &shapes, concurrent, config, true, &mut waits, None,
        );
        last = round.wall_ms / 1e3;
        let key = |r: &Round| {
            let streams: Vec<_> = r
                .sessions
                .iter()
                .map(|s| (s.index, s.pairs, s.digest))
                .collect();
            (r.pool, r.peak_held, r.pulls, streams)
        };
        if rounds.first().is_some_and(|f| key(f) != key(&round)) {
            report.fail(format!(
                "{}: round {} differs from the first",
                spec.name,
                rounds.len()
            ));
        }
        rounds.push(round);
    }
    RoundWindow { rounds, waits }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

/// Records the set-up metric.
pub fn report_setup(setups: &[SetupTimes], report: &mut Report) {
    let totals: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    report.set("setup_s", median(&totals));
    report.note("setup_s", format!("n={}", totals.len()));
}

/// End-to-end metrics of a single-query window.
pub fn report_queries(w: &QueryWindow, report: &mut Report) {
    let firsts: Vec<f64> = w.runs.iter().map(|r| r.first_ms).collect();
    let totals: Vec<f64> = w.runs.iter().map(|r| r.total_ms).collect();
    report.set_timing("first_pair_ms", &firsts);
    report.set_timing("query_ms", &totals);
    // Every query emits the same pairs, so the median query gives the
    // closed loop's throughput without a slow outlier dragging it.
    let per_query = w.results.len() as f64;
    report.set("pairs_per_s", per_query / (median(&totals) / 1e3));
    let reads: u64 = w
        .runs
        .iter()
        .map(|r| r.pool.misses + r.pool.prefetch_reads)
        .sum();
    report.set("node_reads_per_query", reads as f64 / w.runs.len() as f64);
    report.attempted += w.runs.len() as u64;
    report.failed += w.runs.iter().filter(|r| r.error).count() as u64;
}

/// End-to-end metrics of a sessions window.
pub fn report_rounds(w: &RoundWindow, report: &mut Report) {
    let sessions = || w.rounds.iter().flat_map(|r| &r.sessions);
    let firsts: Vec<f64> = sessions().map(|s| s.first_ms).collect();
    let totals: Vec<f64> = sessions().map(|s| s.total_ms).collect();
    report.set_timing("first_pair_ms", &firsts);
    report.set_timing("query_ms", &totals);
    let per_round = w.rounds.iter().map(|r| {
        let pairs: u64 = r.sessions.iter().map(|s| s.pairs).sum();
        pairs as f64 / (r.wall_ms / 1e3)
    });
    report.set("pairs_per_s", median(&per_round.collect::<Vec<_>>()));
    let reads: u64 = w
        .rounds
        .iter()
        .map(|r| r.pool.misses + r.pool.prefetch_reads)
        .sum();
    report.set("node_reads_per_query", reads as f64 / totals.len() as f64);
    report.attempted += w.rounds.iter().map(|r| r.ops).sum::<u64>();
    report.failed += w.rounds.iter().map(|r| r.failed_ops).sum::<u64>();
}

/// The correctness gate for a single-query workload (see [`verify`]).
pub fn verify_queries(
    env: &Env,
    spec: &Spec,
    args: &RunArgs,
    w: &QueryWindow,
    report: &mut Report,
) {
    let executed = w.runs.first().and_then(|r| r.executed);
    if let Err(e) = verify::check_query(env, spec.kind, args.config, executed, &w.results) {
        report.fail(format!("{}: {e}", spec.name));
    }
    if let Err(e) = verify::check_against_baselines(spec, args.seed, args.config) {
        report.fail(format!("{} at 1/50 scale: {e}", spec.name));
    }
}

/// The correctness gate for the sessions workload; returns each shape's
/// solo wall time (ms) for the traced run's overhead ratio.
pub fn verify_rounds(
    env: &mut Env,
    spec: &Spec,
    args: &RunArgs,
    w: &RoundWindow,
    report: &mut Report,
) -> [f64; SHAPES] {
    let mut walls = [0.0; SHAPES];
    match verify::check_solo_shapes(env, spec, args.config) {
        Ok(solo) => {
            for round in &w.rounds {
                if let Err(e) = verify::check_round(round, &solo) {
                    report.fail(format!("{}: {e}", spec.name));
                }
            }
            walls = solo.map(|(_, wall)| wall);
        }
        Err(e) => report.fail(format!("{}: {e}", spec.name)),
    }
    if let Err(e) = verify::check_against_baselines(spec, args.seed, args.config) {
        report.fail(format!("{} at 1/50 scale: {e}", spec.name));
    }
    walls
}

/// The untraced run: every end-to-end metric of `spec`.
pub fn run_untraced(spec: &Spec, args: &RunArgs, report: &mut Report) {
    let (mut env, setups) = prepare(spec, args.seed);
    report_setup(&setups, report);
    if let Kind::Sessions { .. } = spec.kind {
        let w = round_window(&mut env, spec, args.config, args.seconds, report);
        report_rounds(&w, report);
        report.set("peak_rss_mb", peak_rss_mb());
        verify_rounds(&mut env, spec, args, &w, report);
    } else {
        let w = query_window(
            &env,
            spec,
            args.config,
            None,
            spec.warmup,
            args.seconds,
            report,
        );
        report_queries(&w, report);
        report.set("peak_rss_mb", peak_rss_mb());
        verify_queries(&env, spec, args, &w, report);
    }
}
