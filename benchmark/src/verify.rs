//! The correctness gate: untimed, once per run, after the measured window.
//!
//! Three layers of evidence, each catching what the others cannot:
//! 1. the full-size stream is checked against the raw points (count, order,
//!    every distance recomputed, semi-join uniqueness);
//! 2. the full-size stream is cross-checked against the *other* engine
//!    (forced bulk over `[0, d_K]` for the ordered workloads, forced
//!    incremental for the planned range join), and every interleaved
//!    session stream must equal its solo run;
//! 3. a 1/50-scale instance of the same generator and code path is checked
//!    against the brute-force baselines, which share no code with either
//!    engine.

use std::collections::{HashMap, HashSet};

use sdj_baselines::{nested_loop_topk, nn_semijoin, within_join, BaselinePair};
use sdj_core::{BulkDistanceJoin, DistanceJoin, JoinConfig, PlanChoice, ResultPair};
use sdj_geom::{Metric, Point, Rect};
use sdj_rtree::ObjectId;

use crate::workload::{digest, run_query, run_round, setup, Env, Kind, Round, Spec, SHAPES};

type Check = Result<(), String>;

/// Scale of the brute-force oracle instance relative to the workload.
const ORACLE_SCALE: f64 = 1.0 / 50.0;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 4.0 * f64::EPSILON * a.abs().max(b.abs())
}

/// Count, order and recomputed distances of one stream.
fn check_stream(env: &Env, results: &[ResultPair], expect: Option<usize>, semi: bool) -> Check {
    if let Some(n) = expect {
        if results.len() != n {
            return Err(format!("expected {n} results, got {}", results.len()));
        }
    }
    if let Some(w) = results.windows(2).find(|w| w[0].distance > w[1].distance) {
        return Err(format!(
            "distances decrease: {} then {}",
            w[0].distance, w[1].distance
        ));
    }
    for r in results {
        let (Some(p), Some(q)) = (
            env.pts1.get(r.oid1.0 as usize),
            env.pts2.get(r.oid2.0 as usize),
        ) else {
            return Err(format!(
                "result names unknown objects {:?}/{:?}",
                r.oid1, r.oid2
            ));
        };
        let d = Metric::Euclidean.distance(p, q);
        if !close(d, r.distance) {
            return Err(format!(
                "pair {:?}/{:?} reported {} but is {d}",
                r.oid1, r.oid2, r.distance
            ));
        }
    }
    if semi {
        let mut seen = HashSet::with_capacity(results.len());
        if let Some(r) = results.iter().find(|r| !seen.insert(r.oid1)) {
            return Err(format!("semi-join repeats first object {:?}", r.oid1));
        }
    }
    Ok(())
}

/// Every pair within `dmax` (slightly widened, so pairs whose squared key
/// rounds past `dmax²` are not lost at the boundary) from the bulk engine.
fn bulk_within(env: &Env, config: JoinConfig, dmax: f64) -> Result<Vec<ResultPair>, String> {
    let config = JoinConfig {
        max_pairs: None,
        ..config
    }
    .with_range(0.0, dmax * (1.0 + 1e-9));
    let mut bulk = BulkDistanceJoin::new(&env.t1, &env.t2, config).map_err(|e| e.to_string())?;
    Ok(bulk.run())
}

/// An ordered top-K stream against forced bulk over `[0, d_K]`: every
/// reported pair exists with that distance, none repeats, and nothing
/// closer than `d_K` is missing.
fn cross_check_topk(env: &Env, config: JoinConfig, results: &[ResultPair]) -> Check {
    let Some(last) = results.last() else {
        return Ok(());
    };
    let all = bulk_within(env, config, last.distance)?;
    let index: HashMap<(ObjectId, ObjectId), f64> =
        all.iter().map(|r| ((r.oid1, r.oid2), r.distance)).collect();
    let mut seen = HashSet::with_capacity(results.len());
    for r in results {
        match index.get(&(r.oid1, r.oid2)) {
            Some(d) if close(*d, r.distance) => {}
            other => return Err(format!("bulk engine disagrees on {r:?}: {other:?}")),
        }
        if !seen.insert((r.oid1, r.oid2)) {
            return Err(format!("pair {:?}/{:?} reported twice", r.oid1, r.oid2));
        }
    }
    let below = |v: &[ResultPair]| v.iter().filter(|r| r.distance < last.distance).count();
    if below(&all) != below(results) {
        return Err(format!(
            "{} pairs lie below d_K={} but {} were reported",
            below(&all),
            last.distance,
            below(results)
        ));
    }
    Ok(())
}

/// A semi-join stream against nearest partners derived from forced bulk
/// over `[0, d_K]`.
fn cross_check_semi(env: &Env, config: JoinConfig, results: &[ResultPair]) -> Check {
    let Some(last) = results.last() else {
        return Ok(());
    };
    let mut nearest: HashMap<ObjectId, f64> = HashMap::new();
    for r in bulk_within(env, config, last.distance)? {
        let d = nearest.entry(r.oid1).or_insert(f64::INFINITY);
        *d = d.min(r.distance);
    }
    for r in results {
        match nearest.get(&r.oid1) {
            Some(d) if close(*d, r.distance) => {}
            other => {
                return Err(format!(
                    "nearest partner of {:?}: {r:?} vs bulk {other:?}",
                    r.oid1
                ))
            }
        }
    }
    let owed = nearest.values().filter(|d| **d < last.distance).count();
    let given = results
        .iter()
        .filter(|r| r.distance < last.distance)
        .count();
    if owed != given {
        return Err(format!(
            "{owed} first objects have a partner below d_K, {given} were reported"
        ));
    }
    Ok(())
}

fn sorted_triples(results: &[ResultPair]) -> Vec<(u64, u64, u64)> {
    let mut v: Vec<_> = results
        .iter()
        .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
        .collect();
    v.sort_unstable();
    v
}

/// A range-join result against the engine that did not produce it.
fn cross_check_range(
    env: &Env,
    config: JoinConfig,
    dmax: f64,
    executed: Option<PlanChoice>,
    results: &[ResultPair],
) -> Check {
    let config = config.with_range(0.0, dmax);
    let other: Vec<ResultPair> = if executed == Some(PlanChoice::Incremental) {
        BulkDistanceJoin::new(&env.t1, &env.t2, config)
            .map_err(|e| e.to_string())?
            .run()
    } else {
        DistanceJoin::new(&env.t1, &env.t2, config).collect()
    };
    if sorted_triples(&other) != sorted_triples(results) {
        return Err(format!(
            "range join: {} pairs, the other engine finds {} (or different ones)",
            results.len(),
            other.len()
        ));
    }
    Ok(())
}

/// Full-size checks of one single-query stream.
pub fn check_query(
    env: &Env,
    kind: Kind,
    config: JoinConfig,
    executed: Option<PlanChoice>,
    results: &[ResultPair],
) -> Check {
    match kind {
        Kind::Join { k } => {
            let expect = (k as usize).min(env.pts1.len() * env.pts2.len());
            check_stream(env, results, Some(expect), false)?;
            cross_check_topk(env, config, results)
        }
        Kind::Semi { take } => {
            check_stream(
                env,
                results,
                Some((take as usize).min(env.pts1.len())),
                true,
            )?;
            cross_check_semi(env, config, results)
        }
        Kind::Range { dmax } => {
            check_stream(env, results, None, false)?;
            cross_check_range(env, config, dmax, executed, results)
        }
        Kind::Sessions { .. } => unreachable!("sessions are checked per shape"),
    }
}

/// Runs each session shape alone and fully checks its stream; returns the
/// digest and wall time per shape. Interleaved sessions must reproduce
/// these digests exactly.
pub fn check_solo_shapes(
    env: &mut Env,
    spec: &Spec,
    config: JoinConfig,
) -> Result<[(u64, f64); SHAPES], String> {
    let Kind::Sessions { k, dmax, .. } = spec.kind else {
        unreachable!()
    };
    let mut solo = [(0u64, 0.0f64); SHAPES];
    for (shape, slot) in solo.iter_mut().enumerate() {
        let mut results = Vec::new();
        let round = run_round(
            env,
            spec,
            &[shape],
            1,
            config,
            false,
            &mut Vec::new(),
            Some(&mut results),
        );
        if round.failed_ops > 0 {
            return Err(format!("solo session of shape {shape} failed"));
        }
        let run = &round.sessions[0];
        match run.plan {
            PlanChoice::Bulk => {
                check_stream(env, &results, None, false)?;
                cross_check_range(env, config, dmax, Some(run.plan), &results)?;
            }
            _ => check_query(env, Kind::Join { k }, config, None, &results)?,
        }
        *slot = (digest(&results), round.wall_ms);
    }
    Ok(solo)
}

/// Every session of an interleaved round against its shape's solo digest.
pub fn check_round(round: &Round, solo: &[(u64, f64); SHAPES]) -> Check {
    if round.failed_ops > 0 {
        return Err(format!("{} service calls failed", round.failed_ops));
    }
    match round
        .sessions
        .iter()
        .find(|s| s.digest != solo[s.shape % SHAPES].0)
    {
        Some(s) => Err(format!(
            "an interleaved session of shape {} differs from its solo run",
            s.shape
        )),
        None => Ok(()),
    }
}

fn items(points: &[Point<2>]) -> Vec<(ObjectId, Rect<2>)> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
        .collect()
}

/// An engine stream against a brute-force baseline sorted by distance:
/// same length, same distances in order, and the same pairs wherever the
/// distance is below the last one (ties at the cut may pick differently).
fn same_ordered(results: &[ResultPair], base: &[BaselinePair]) -> Check {
    if results.len() != base.len() {
        return Err(format!(
            "engine gives {} results, baseline {}",
            results.len(),
            base.len()
        ));
    }
    if let Some((r, b)) = results
        .iter()
        .zip(base)
        .find(|(r, b)| !close(r.distance, b.distance))
    {
        return Err(format!(
            "engine distance {} vs baseline {}",
            r.distance, b.distance
        ));
    }
    let Some(cut) = base.last().map(|b| b.distance) else {
        return Ok(());
    };
    let ours: HashSet<_> = results
        .iter()
        .filter(|r| r.distance < cut)
        .map(|r| (r.oid1, r.oid2))
        .collect();
    let theirs: HashSet<_> = base
        .iter()
        .filter(|b| b.distance < cut)
        .map(|b| (b.oid1, b.oid2))
        .collect();
    if ours != theirs {
        return Err("engine and baseline disagree on which pairs lie below the cut".into());
    }
    Ok(())
}

/// The 1/50-scale instance of `spec` against `sdj_baselines`.
pub fn check_against_baselines(spec: &Spec, seed: u64, config: JoinConfig) -> Check {
    let small = spec.scaled(ORACLE_SCALE);
    let (mut env, _) = setup(&small, seed);
    let (items1, items2) = (items(&env.pts1), items(&env.pts2));
    let metric = Metric::Euclidean;
    let topk = |k: u64| nested_loop_topk(&items1, &items2, metric, k as usize);
    let within = |env: &Env, dmax: f64| {
        within_join(&env.t1, &env.t2, metric, 0.0, dmax).map_err(|e| e.to_string())
    };
    let mut out = Vec::new();
    match small.kind {
        Kind::Join { k } => {
            run_query(&env, small.kind, config, None, None, &mut out);
            same_ordered(&out, &topk(k))
        }
        Kind::Semi { take } => {
            run_query(&env, small.kind, config, None, None, &mut out);
            let mut base = nn_semijoin(&env.t1, &env.t2, metric).map_err(|e| e.to_string())?;
            base.truncate(take as usize);
            same_ordered(&out, &base)
        }
        Kind::Range { dmax } => {
            run_query(&env, small.kind, config, None, None, &mut out);
            same_ordered(&out, &within(&env, dmax)?)
        }
        Kind::Sessions { k, dmax, .. } => {
            for shape in 0..SHAPES {
                out.clear();
                let round = run_round(
                    &mut env,
                    &small,
                    &[shape],
                    1,
                    config,
                    false,
                    &mut Vec::new(),
                    Some(&mut out),
                );
                if round.failed_ops > 0 {
                    return Err(format!("oracle session of shape {shape} failed"));
                }
                // The last shape is the Dmax-only one; the others stop after K.
                let base = if shape == SHAPES - 1 {
                    within(&env, dmax)?
                } else {
                    topk(k)
                };
                same_ordered(&out, &base)?;
            }
            Ok(())
        }
    }
}
