//! The session service's correctness contract:
//!
//! * **Interleaving invariance** — N concurrent sessions over one shared
//!   buffer pool, driven by *any* fuzzed interleaving of `next_batch` /
//!   `pause` / `resume`, each produce a stream bit-identical (distance
//!   bits, oids, order) to the same query run solo on its own engine.
//!   Sessions share frames, never results.
//! * **Pause holds the frontier** — a paused session refuses pulls with a
//!   typed error and consumes nothing; resuming continues exactly where it
//!   stopped, because nothing was torn down.
//! * **Cancel is leak-free** — cancelling mid-stream drops the frontier,
//!   releases the slab refs with it, and leaves zero pinned frames in the
//!   shared pools; the results handed out before the cancel are a correct
//!   prefix of the solo stream. The admission slot returns when the handle
//!   drops.
//! * **Isolation** — one session exceeding its memory budget (or being
//!   cancelled) leaves its neighbours' streams untouched.

use proptest::prelude::*;
use sdj_core::bulk::BulkDistanceJoin;
use sdj_core::{
    AdaptiveConfig, AdaptiveDistanceJoin, ConfigError, DistanceJoin, JoinConfig, PlanChoice,
    QueueBackend, QueueLayout, ResultOrder,
};
use sdj_geom::{KeySpace, Metric, Rect};
use sdj_pqueue::HybridConfig;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};
use sdj_service::{drain_round_robin, JoinService, ServiceConfig, ServiceError, SessionConfig};

fn tree(rects: &[Rect<2>], fanout: usize) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(fanout));
    for (i, r) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *r).unwrap();
    }
    t
}

fn arb_rects(max: usize) -> impl Strategy<Value = Vec<Rect<2>>> {
    prop::collection::vec(
        (0.0..10.0f64, 0.0..10.0f64, 0.0..1.5f64, 0.0..1.5f64),
        1..max,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
            .collect()
    })
}

/// `(distance bits, oid1, oid2)` triples — bit-identity is the contract.
type Stream = Vec<(u64, u64, u64)>;

fn triples(results: &[sdj_core::ResultPair]) -> Stream {
    results
        .iter()
        .map(|r| (r.distance.to_bits(), r.oid1.0, r.oid2.0))
        .collect()
}

/// An aggressively-spilling hybrid queue, so pauses hold frontiers that
/// live partly on the spill tiers.
fn hybrid_backend() -> QueueBackend {
    QueueBackend::Hybrid(HybridConfig {
        dt: 0.2,
        page_size: 256,
        buffer_frames: 2,
        keys: KeySpace::squared(Metric::Euclidean),
    })
}

/// The fixed session mix every case runs: one per execution path, plus an
/// incremental session on the spilling hybrid backend. ≥3 concurrent
/// sessions, heterogeneous plans, per-session adaptive knobs.
fn session_mix(force_at: u64, stride: u64, k: Option<u64>) -> Vec<SessionConfig> {
    let base = JoinConfig {
        max_pairs: k,
        ..JoinConfig::default()
    };
    vec![
        SessionConfig {
            join: base,
            force_plan: Some(PlanChoice::Incremental),
            ..SessionConfig::default()
        },
        SessionConfig {
            join: base,
            force_plan: Some(PlanChoice::Adaptive),
            adaptive: AdaptiveConfig {
                pop_stride: stride,
                force_handoff_at: Some(force_at),
                ..AdaptiveConfig::default()
            },
            ..SessionConfig::default()
        },
        SessionConfig {
            join: base,
            force_plan: Some(PlanChoice::Bulk),
            ..SessionConfig::default()
        },
        SessionConfig {
            join: JoinConfig {
                queue: hybrid_backend(),
                ..base
            },
            force_plan: Some(PlanChoice::Incremental),
            ..SessionConfig::default()
        },
    ]
}

/// The same query run solo on its own engine — the reference stream a
/// session must reproduce bit-for-bit.
fn solo_stream(t1: &RTree<2>, t2: &RTree<2>, cfg: &SessionConfig) -> Stream {
    match cfg.force_plan.expect("mix forces every plan") {
        PlanChoice::Incremental => {
            let mut join = DistanceJoin::new(t1, t2, cfg.join);
            let out: Vec<_> = join.by_ref().collect();
            assert!(join.take_error().is_none());
            triples(&out)
        }
        PlanChoice::Bulk => {
            let mut join = BulkDistanceJoin::with_bulk_config(t1, t2, cfg.join, cfg.bulk).unwrap();
            triples(&join.run())
        }
        PlanChoice::Adaptive => {
            let run =
                AdaptiveDistanceJoin::with_configs(t1, t2, cfg.join, cfg.bulk, cfg.adaptive).run();
            assert!(run.error.is_none());
            triples(&run.results)
        }
    }
}

/// One step of a fuzzed schedule.
#[derive(Clone, Debug)]
enum Op {
    Pull { session: usize, n: usize },
    Pause(usize),
    Resume(usize),
}

fn arb_schedule(sessions: usize, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0..sessions, 0..10usize, 1..9usize).prop_map(|(session, what, n)| match what {
            0 => Op::Pause(session),
            1 => Op::Resume(session),
            _ => Op::Pull { session, n },
        }),
        0..len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// ≥3 concurrent sessions under a fuzzed pull/pause/resume
    /// interleaving: every per-session stream is bit-identical to its solo
    /// run, pauses refuse pulls without consuming, and the shared pools
    /// end with zero pinned frames.
    #[test]
    fn interleaved_sessions_match_solo_runs(
        a in arb_rects(40),
        b in arb_rects(45),
        fanout in 3usize..7,
        force_at in prop_oneof![Just(0u64), 1u64..60],
        stride in 1u64..32,
        k in prop::option::of(1u64..80),
        schedule in arb_schedule(4, 60),
        drain_batch in 1usize..8,
    ) {
        let t1 = tree(&a, fanout);
        let t2 = tree(&b, fanout);
        let mix = session_mix(force_at, stride, k);
        let refs: Vec<Stream> = mix.iter().map(|c| solo_stream(&t1, &t2, c)).collect();

        let service = JoinService::new(&t1, &t2, ServiceConfig::default());
        let mut sessions: Vec<_> = mix
            .iter()
            .map(|c| service.open(c.clone()).expect("admission"))
            .collect();
        prop_assert_eq!(service.active_sessions(), 4);

        let mut streams: Vec<Stream> = vec![Vec::new(); sessions.len()];
        for op in schedule {
            match op {
                Op::Pause(s) => sessions[s].pause(),
                Op::Resume(s) => sessions[s].resume(),
                Op::Pull { session, n } => {
                    let before = streams[session].len();
                    match sessions[session].next_batch(n) {
                        Ok(batch) => {
                            prop_assert!(batch.results.len() <= n);
                            streams[session].extend(triples(&batch.results));
                        }
                        Err(ServiceError::Paused) => {
                            prop_assert!(sessions[session].is_paused());
                            prop_assert_eq!(streams[session].len(), before);
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
                    }
                }
            }
            // No pull in flight: the shared pools must hold no pins.
            prop_assert_eq!(service.pinned_frames(), 0);
        }

        // Resume everything and drain fairly to exhaustion.
        for s in &mut sessions {
            s.resume();
        }
        let outcomes = drain_round_robin(&mut sessions, drain_batch);
        for (i, outcome) in outcomes.iter().enumerate() {
            prop_assert!(outcome.error.is_none(), "session {i}: {:?}", outcome.error);
            streams[i].extend(triples(&outcome.results));
        }
        for (i, (got, reference)) in streams.iter().zip(refs.iter()).enumerate() {
            prop_assert_eq!(got, reference, "session {} diverged from its solo run", i);
        }
        for s in &sessions {
            prop_assert!(s.is_done());
            prop_assert_eq!(s.held_bytes(), 0);
        }
        drop(sessions);
        prop_assert_eq!(service.active_sessions(), 0);
    }

    /// Cancelling sessions mid-stream leaks nothing: zero pinned frames in
    /// the shared pools right after the cancel, the cancelled stream is a
    /// correct prefix of its solo run, and the surviving sessions still
    /// finish bit-identical.
    #[test]
    fn cancel_mid_stream_is_leak_free_and_isolated(
        a in arb_rects(40),
        b in arb_rects(45),
        fanout in 3usize..7,
        force_at in prop_oneof![Just(0u64), 1u64..60],
        stride in 1u64..32,
        warmup in 0usize..30,
        cancel_mask in 1usize..15,
    ) {
        let t1 = tree(&a, fanout);
        let t2 = tree(&b, fanout);
        let mix = session_mix(force_at, stride, None);
        let refs: Vec<Stream> = mix.iter().map(|c| solo_stream(&t1, &t2, c)).collect();

        let service = JoinService::new(&t1, &t2, ServiceConfig::default());
        let mut sessions: Vec<_> = mix
            .iter()
            .map(|c| service.open(c.clone()).expect("admission"))
            .collect();

        // Pull a little on everyone so cancels land mid-stream.
        let mut streams: Vec<Stream> = vec![Vec::new(); sessions.len()];
        for i in 0..warmup {
            let s = i % sessions.len();
            if let Ok(batch) = sessions[s].next_batch(1 + i % 3) {
                streams[s].extend(triples(&batch.results));
            }
        }

        let cancelled: Vec<bool> = (0..sessions.len()).map(|i| cancel_mask & (1 << i) != 0).collect();
        for (i, s) in sessions.iter_mut().enumerate() {
            if cancelled[i] {
                s.cancel();
                // Frontier, slab refs, and pins are gone *now*.
                prop_assert_eq!(s.held_bytes(), 0);
                prop_assert!(matches!(s.next_batch(8), Err(ServiceError::Closed) | Ok(_)) );
            }
        }
        prop_assert_eq!(service.pinned_frames(), 0);

        let outcomes = drain_round_robin(&mut sessions, 4);
        for (i, outcome) in outcomes.iter().enumerate() {
            if cancelled[i] {
                // Whatever a cancelled session produced is a prefix.
                prop_assert!(streams[i].len() <= refs[i].len());
                prop_assert_eq!(&streams[i][..], &refs[i][..streams[i].len()]);
                continue;
            }
            prop_assert!(outcome.error.is_none(), "session {i}: {:?}", outcome.error);
            streams[i].extend(triples(&outcome.results));
            prop_assert_eq!(&streams[i], &refs[i], "survivor {} diverged", i);
        }
        drop(sessions);
        prop_assert_eq!(service.active_sessions(), 0);
    }
}

/// Per-session attribution: each session's traffic lands under its own
/// `session.<id>.*` names, lifecycle events fire, and the report sections
/// carry the right identity, plan, and counts.
#[test]
fn sessions_attribute_their_own_traffic() {
    use std::sync::Arc;

    let rects: Vec<Rect<2>> = (0..40)
        .map(|i| {
            let x = f64::from(i % 8);
            let y = f64::from(i / 8);
            Rect::new([x, y], [x + 0.5, y + 0.5])
        })
        .collect();
    let t1 = tree(&rects, 4);
    let t2 = tree(&rects, 4);
    let sink = Arc::new(sdj_obs::RingRecorder::new(256));
    let ctx = sdj_obs::ObsContext::new(Arc::clone(&sink) as Arc<dyn sdj_obs::EventSink>);
    let service = JoinService::new(&t1, &t2, ServiceConfig::default()).with_obs(&ctx);

    let mut a = service
        .open(SessionConfig {
            force_plan: Some(PlanChoice::Incremental),
            label: Some("alpha".to_string()),
            ..SessionConfig::default()
        })
        .unwrap();
    let mut b = service
        .open(SessionConfig {
            force_plan: Some(PlanChoice::Bulk),
            ..SessionConfig::default()
        })
        .unwrap();

    let mut a_total = 0u64;
    loop {
        let batch = a.next_batch(16).unwrap();
        a_total += batch.results.len() as u64;
        if batch.done {
            break;
        }
    }
    let b_batch = b.next_batch(8).unwrap();
    b.cancel();

    let snapshot = ctx.registry.snapshot();
    assert_eq!(
        snapshot.counter(&format!("session.{}.results", a.id())),
        Some(a_total),
        "session results counter disagrees with the stream"
    );
    assert!(
        snapshot
            .counter(&format!("session.{}.buf.hits", a.id()))
            .unwrap_or(0)
            > 0,
        "incremental session attributed no buffer traffic"
    );
    assert_eq!(
        snapshot.counter(&format!("session.{}.results", b.id())),
        Some(b_batch.results.len() as u64)
    );

    // Lifecycle events: 2 opens, per-pull batches, 2 closes (one cancel).
    let counts = sink.counts();
    assert!(counts.session >= 6, "missing session lifecycle events");

    let sa = a.report_section();
    assert_eq!((sa.id, sa.plan.as_str()), (a.id(), "incremental"));
    assert_eq!(sa.label, "alpha");
    assert_eq!(sa.results, a_total);
    assert!(!sa.cancelled);
    assert!(sa.counters.iter().any(|(k, v)| k == "buf.hits" && *v > 0));
    let sb = b.report_section();
    assert_eq!(sb.plan, "bulk");
    assert!(sb.cancelled);
}

/// Admission control: the limit is enforced with a typed error, and slots
/// return when handles drop.
#[test]
fn admission_limit_is_enforced_and_slots_recycle() {
    let t1 = tree(&[Rect::new([0.0, 0.0], [1.0, 1.0])], 4);
    let t2 = tree(&[Rect::new([2.0, 2.0], [3.0, 3.0])], 4);
    let service = JoinService::new(
        &t1,
        &t2,
        ServiceConfig {
            max_sessions: 2,
            session_budget: None,
        },
    );
    let s1 = service.open(SessionConfig::default()).unwrap();
    let _s2 = service.open(SessionConfig::default()).unwrap();
    match service.open(SessionConfig::default()) {
        Err(ServiceError::AdmissionDenied { active, limit }) => {
            assert_eq!((active, limit), (2, 2));
        }
        Err(other) => panic!("expected admission denial, got {other:?}"),
        Ok(_) => panic!("expected admission denial, got a session"),
    }
    drop(s1);
    assert_eq!(service.active_sessions(), 1);
    let _s3 = service
        .open(SessionConfig::default())
        .expect("slot recycled");
}

/// A join config no engine can run — bad bounds, or a hybrid queue in the
/// pairing layout, with a non-positive `D_T`, a page too small for one
/// record or no buffer frames — is refused at `open` with a typed error on
/// every plan — no panic, no admission slot kept — while a session opened
/// before it keeps streaming its solo stream.
#[test]
fn invalid_configs_are_typed_errors_and_open_sessions_keep_streaming() {
    let rects: Vec<Rect<2>> = (0..40)
        .map(|i| {
            let x = f64::from(i % 7) * 1.3;
            let y = f64::from(i / 7) * 0.8;
            Rect::new([x, y], [x + 0.4, y + 0.4])
        })
        .collect();
    let t1 = tree(&rects, 4);
    let t2 = tree(&rects[..30], 4);
    let service = JoinService::new(&t1, &t2, ServiceConfig::default());
    let mut live = service
        .open(SessionConfig {
            force_plan: Some(PlanChoice::Incremental),
            ..SessionConfig::default()
        })
        .unwrap();
    let mut got = live.next_batch(5).unwrap().results;

    let hostile = |h: HybridConfig| JoinConfig {
        queue: QueueBackend::Hybrid(h),
        ..JoinConfig::default()
    };
    let bad = [
        (
            JoinConfig::default().with_range(3.0, 1.0),
            ConfigError::InvertedRange,
        ),
        (
            JoinConfig::default().with_range(-0.5, 1.0),
            ConfigError::NegativeBound,
        ),
        (
            JoinConfig {
                order: ResultOrder::Descending,
                queue: hybrid_backend(),
                ..JoinConfig::default()
            },
            ConfigError::DescendingHybrid,
        ),
        (
            JoinConfig {
                queue: hybrid_backend(),
                layout: QueueLayout::Pairing,
                ..JoinConfig::default()
            },
            ConfigError::PairingHybrid,
        ),
        (
            hostile(HybridConfig::with_dt(0.0)),
            ConfigError::SpillIncrement,
        ),
        (
            hostile(HybridConfig::with_dt(f64::NAN)),
            ConfigError::SpillIncrement,
        ),
        (
            hostile(HybridConfig {
                page_size: 5,
                ..HybridConfig::default()
            }),
            ConfigError::SpillPageTooSmall,
        ),
        (
            // One byte short of the 6-byte page header plus one 21-byte
            // record (key, pair handle, estimator slot).
            hostile(HybridConfig {
                page_size: 26,
                ..HybridConfig::default()
            }),
            ConfigError::SpillPageTooSmall,
        ),
        (
            hostile(HybridConfig {
                buffer_frames: 0,
                ..HybridConfig::default()
            }),
            ConfigError::NoSpillFrames,
        ),
    ];
    for (join, want) in bad {
        for plan in [None].into_iter().chain(PlanChoice::ALL.map(Some)) {
            let opened = service.open(SessionConfig {
                join,
                force_plan: plan,
                ..SessionConfig::default()
            });
            match opened {
                Err(ServiceError::InvalidConfig(e)) => assert_eq!(e, want, "{plan:?}"),
                Err(other) => panic!("{plan:?}: expected InvalidConfig, got {other:?}"),
                Ok(_) => panic!("{plan:?}: an invalid config opened a session"),
            }
            assert_eq!(service.active_sessions(), 1, "refusal kept a slot");
        }
        got.extend(live.next_batch(5).unwrap().results);
    }

    loop {
        let b = live.next_batch(16).unwrap();
        got.extend(b.results);
        if b.done {
            break;
        }
    }
    let mut join = DistanceJoin::new(&t1, &t2, JoinConfig::default());
    let reference: Vec<_> = join.by_ref().collect();
    assert!(join.take_error().is_none());
    assert_eq!(triples(&got), triples(&reference));
}

/// A runaway session is killed cleanly by its byte budget — typed error,
/// no leaks — and a budget-free neighbour on the same pools is untouched.
#[test]
fn budget_kill_is_clean_and_isolated() {
    let rects: Vec<Rect<2>> = (0..60)
        .map(|i| {
            let x = f64::from(i % 8);
            let y = f64::from(i / 8);
            Rect::new([x, y], [x + 0.5, y + 0.5])
        })
        .collect();
    let t1 = tree(&rects, 4);
    let t2 = tree(&rects, 4);
    let service = JoinService::new(&t1, &t2, ServiceConfig::default());

    let mut victim = service
        .open(SessionConfig {
            force_plan: Some(PlanChoice::Incremental),
            budget: Some(64),
            ..SessionConfig::default()
        })
        .unwrap();
    let mut neighbour = service
        .open(SessionConfig {
            force_plan: Some(PlanChoice::Incremental),
            ..SessionConfig::default()
        })
        .unwrap();

    let mut killed = false;
    for _ in 0..10_000 {
        match victim.next_batch(4) {
            Ok(b) if b.done => break,
            Ok(_) => {}
            Err(ServiceError::BudgetExceeded {
                held_bytes,
                budget_bytes,
            }) => {
                assert!(held_bytes > budget_bytes);
                killed = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(killed, "64-byte budget never fired on a growing frontier");
    assert_eq!(victim.held_bytes(), 0, "killed session still holds bytes");
    assert_eq!(service.pinned_frames(), 0);
    assert!(matches!(victim.next_batch(4), Err(ServiceError::Closed)));

    // The neighbour's stream is unaffected by the kill.
    let mut join = DistanceJoin::new(&t1, &t2, JoinConfig::default());
    let reference: Vec<_> = join.by_ref().collect();
    assert!(join.take_error().is_none());
    let mut got = Vec::new();
    loop {
        let b = neighbour.next_batch(16).unwrap();
        got.extend(b.results);
        if b.done {
            break;
        }
    }
    assert_eq!(triples(&got), triples(&reference));
}

/// An adaptive session that can never replan (descending order has no
/// watermark to hand off at) is still pull-paced: a batch of `n` is exactly
/// `n` pairs, and between pulls the session holds what a solo engine paused
/// at the same point holds — its queue — not the rest of the stream.
#[test]
fn descending_adaptive_session_is_pull_paced() {
    let rects: Vec<Rect<2>> = (0..60)
        .map(|i| {
            let x = f64::from(i % 8) * 1.37;
            let y = f64::from(i / 8) * 0.91;
            Rect::new([x, y], [x + 0.5, y + 0.5])
        })
        .collect();
    let t1 = tree(&rects, 4);
    let t2 = tree(&rects[..45], 4);
    let join = JoinConfig {
        order: ResultOrder::Descending,
        ..JoinConfig::default()
    };
    let service = JoinService::new(&t1, &t2, ServiceConfig::default());
    let mut session = service
        .open(SessionConfig {
            join,
            force_plan: Some(PlanChoice::Adaptive),
            ..SessionConfig::default()
        })
        .unwrap();
    let mut solo = DistanceJoin::new(&t1, &t2, join);

    let n = 10;
    let first = session.next_batch(n).unwrap();
    assert_eq!(first.results.len(), n, "a pull of n is n pairs");
    assert!(!first.done);
    let reference: Vec<_> = solo.by_ref().take(n).collect();
    assert_eq!(triples(&first.results), triples(&reference));
    assert_eq!(
        session.held_bytes(),
        solo.queue_bytes(),
        "the session holds the paused queue, nothing else"
    );

    let mut got = first.results;
    loop {
        let b = session.next_batch(n).unwrap();
        got.extend(b.results);
        if b.done {
            break;
        }
    }
    let mut want = reference;
    want.extend(solo.by_ref());
    assert!(solo.take_error().is_none());
    assert_eq!(got.len(), 60 * 45);
    assert_eq!(triples(&got), triples(&want));
    assert_eq!(session.held_bytes(), 0);
}

/// A K-bounded incremental session holds its queue *and* the §2.2.4
/// estimator's set `M`, and its budget meters both: between pulls it holds
/// exactly what a solo engine paused at the same point holds, which is more
/// than that engine's queue.
#[test]
fn k_bounded_session_budget_meters_the_estimator() {
    let rects: Vec<Rect<2>> = (0..400)
        .map(|i| {
            let x = f64::from(i % 20) * 1.13;
            let y = f64::from(i / 20) * 0.87;
            Rect::new([x, y], [x + 0.25, y + 0.25])
        })
        .collect();
    let t1 = tree(&rects, 8);
    let t2 = tree(&rects[..300], 8);
    let join = JoinConfig::default().with_max_pairs(5_000);
    let service = JoinService::new(&t1, &t2, ServiceConfig::default());
    let mut session = service
        .open(SessionConfig {
            join,
            force_plan: Some(PlanChoice::Incremental),
            ..SessionConfig::default()
        })
        .unwrap();
    let mut solo = DistanceJoin::new(&t1, &t2, join);

    let n = 100;
    let first = session.next_batch(n).unwrap();
    let reference: Vec<_> = solo.by_ref().take(n).collect();
    assert_eq!(triples(&first.results), triples(&reference));
    assert!(solo.estimator_bytes() > 0);
    assert_eq!(
        session.held_bytes(),
        solo.queue_bytes() + solo.estimator_bytes()
    );
    assert!(session.held_bytes() > solo.queue_bytes());
}
