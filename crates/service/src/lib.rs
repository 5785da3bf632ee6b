//! Multi-query join service: concurrent cursor sessions over one shared
//! buffer pool.
//!
//! The engines below this crate answer one query each. A server answers
//! many at once, and the incremental join's defining property — the
//! priority queue *is* the whole query state — makes cursor-style serving
//! natural: holding a session paused costs exactly the queue's bytes (the
//! hybrid backend can spill those to its disk tiers), and resuming costs
//! nothing, because nothing was torn down. [`JoinService`] packages that:
//!
//! * **Shared pool** — every session reads through the same two trees,
//!   hence the same sharded [buffer pools](sdj_storage::BufferPool). The
//!   pool was built for this (shard-striped locks, atomic pin counts);
//!   sessions contend on frames, not on a global latch.
//! * **Admission control** — at most [`ServiceConfig::max_sessions`]
//!   sessions exist at a time; [`JoinService::open`] refuses beyond that
//!   with a typed [`ServiceError::AdmissionDenied`], and a session's slot
//!   is returned when its handle drops.
//! * **Per-session plans** — each session runs the path the cost model
//!   picks for *its* query (or a forced one). Whatever the path, the
//!   session holds one [`JoinCursor`] opened by [`sdj_core::open_cursor`]
//!   and knows nothing else about the engine behind it. The knobs are
//!   per-session plain data ([`SessionConfig::adaptive`],
//!   [`SessionConfig::bulk`]), so two sessions in one process can run
//!   different strides.
//! * **Memory budgets** — a session's held bytes (queue tiers plus any
//!   buffered results) are checked after every pull; exceeding the budget
//!   kills that session cleanly ([`ServiceError::BudgetExceeded`]) and
//!   leaves every other session untouched.
//! * **Fail-clean sessions** — a storage fault ends one session with a
//!   typed error after its buffered prefix drains; it never panics the
//!   process the other sessions live in.
//! * **Attribution** — with an [`ObsContext`] attached, each session's
//!   buffer-pool traffic lands in `session.<id>.buf.*` counters, its queue
//!   gauges under `session.<id>.pq.*`, its lifecycle in
//!   [`Event::SessionOpened`]/[`Event::SessionBatch`]/[`Event::SessionClosed`],
//!   and [`SessionHandle::report_section`] renders a per-session
//!   [`SessionSection`] for the run report.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use sdj_core::bulk::BulkConfig;
use sdj_core::plan::plan_for_trees;
use sdj_core::{
    open_cursor, AdaptiveConfig, ConfigError, JoinConfig, JoinCursor, PlanChoice, ResultPair,
};
use sdj_obs::{Event, ObsContext, SessionSection};
use sdj_rtree::RTree;
use sdj_storage::{PoolStats, StorageError};

/// Service-level failures. Every variant is per-session and recoverable by
/// the server: nothing here takes the process (or any *other* session)
/// down.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// `open` refused: the concurrent-session limit is already reached.
    AdmissionDenied {
        /// Sessions currently holding slots.
        active: u32,
        /// The configured limit.
        limit: u32,
    },
    /// `next_batch` on a paused session. Nothing was consumed; resume and
    /// retry.
    Paused,
    /// `next_batch` on a session that was cancelled or already torn down.
    Closed,
    /// The session's held state outgrew its memory budget. The session was
    /// killed cleanly (frontier dropped, slab refs released, pins
    /// unpinned); the results already handed out are a correct prefix.
    BudgetExceeded {
        /// Bytes the session held when the check fired.
        held_bytes: usize,
        /// The budget it was admitted under.
        budget_bytes: usize,
    },
    /// The session's engine hit a storage fault. The results handed out
    /// before this error are a correct prefix of the fault-free stream
    /// (the engines' fail-clean contract, surfaced per session).
    Storage(StorageError),
    /// `open` refused a join config no engine can run. No session was
    /// opened and no admission slot is held.
    InvalidConfig(ConfigError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::AdmissionDenied { active, limit } => {
                write!(f, "admission denied: {active} of {limit} sessions active")
            }
            Self::Paused => write!(f, "session is paused"),
            Self::Closed => write!(f, "session is closed"),
            Self::BudgetExceeded {
                held_bytes,
                budget_bytes,
            } => write!(
                f,
                "session memory budget exceeded: holding {held_bytes} bytes of {budget_bytes}"
            ),
            Self::Storage(e) => write!(f, "storage fault: {e}"),
            Self::InvalidConfig(e) => write!(f, "invalid join config: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Storage(e) => Some(e),
            Self::InvalidConfig(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ServiceError {
    fn from(e: StorageError) -> Self {
        Self::Storage(e)
    }
}

/// Service-wide knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Maximum concurrently-open sessions; `open` refuses beyond it.
    pub max_sessions: u32,
    /// Default per-session memory budget in bytes (queue tiers plus
    /// buffered results), when the session doesn't set its own. `None`
    /// means unbudgeted.
    pub session_budget: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_sessions: 16,
            session_budget: None,
        }
    }
}

/// Per-session configuration. Everything here is plain data owned by the
/// session — in particular [`Self::adaptive`], so one runaway query tuned
/// with a short stride never changes its neighbours' behaviour.
#[derive(Clone, Debug, Default)]
pub struct SessionConfig {
    /// The join itself (metric, range, `STOP AFTER k`, queue backend, …).
    pub join: JoinConfig,
    /// Forces an execution path; `None` lets the cost model pick per
    /// session.
    pub force_plan: Option<PlanChoice>,
    /// Adaptive-replanning knobs for this session.
    pub adaptive: AdaptiveConfig,
    /// Bulk grid tuning for this session.
    pub bulk: BulkConfig,
    /// Memory budget in bytes; `None` falls back to
    /// [`ServiceConfig::session_budget`].
    pub budget: Option<usize>,
    /// Human-readable label for reports; defaults to `session-<id>`.
    pub label: Option<String>,
}

/// One pull's worth of results.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    /// Up to `n` further results, in the session's stream order.
    pub results: Vec<ResultPair>,
    /// True once the stream is exhausted; later pulls return empty done
    /// batches.
    pub done: bool,
}

/// What one session produced over a whole scheduler drain: its collected
/// stream, plus the terminal error if it failed (the stream is then a
/// correct prefix).
#[derive(Clone, Debug, Default)]
pub struct SessionOutcome {
    /// Every result the session emitted, in order.
    pub results: Vec<ResultPair>,
    /// The terminal error, if the session failed or was killed.
    pub error: Option<ServiceError>,
}

/// A cursor over one join query: pull batches, pause/resume between them,
/// cancel mid-stream. Dropping the handle releases its admission slot and
/// every byte of its query state.
pub struct SessionHandle<'t, const D: usize> {
    id: u32,
    label: String,
    plan: PlanChoice,
    tree1: &'t RTree<D>,
    tree2: &'t RTree<D>,
    /// The query, behind the one pull interface. `None` once torn down
    /// (finished, failed, cancelled, or budget-killed): dropping the cursor
    /// releases the frontier, its slab references and every pin.
    cursor: Option<Box<dyn JoinCursor + Send + Sync + 't>>,
    paused: bool,
    done: bool,
    cancelled: bool,
    /// A terminal fault held until the batch that produced partial results
    /// has been handed out; surfaced on the next pull (fail-clean shape).
    pending_error: Option<ServiceError>,
    budget: Option<usize>,
    results: u64,
    batches: u64,
    /// Accumulated buffer-pool deltas attributed to this session's pulls
    /// (both trees combined): hits, misses, evictions, writebacks.
    buf: PoolStats,
    ctx: Option<ObsContext>,
    admission: Arc<AtomicU32>,
}

/// A handle can be moved to, and shared between, a server's threads.
const _: fn() = || {
    fn auto_traits<T: Send + Sync>() {}
    auto_traits::<SessionHandle<'static, 2>>();
};

impl<'t, const D: usize> SessionHandle<'t, D> {
    /// The session's numeric id (unique within its service).
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The session's report label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The execution path this session runs.
    #[must_use]
    pub fn plan(&self) -> PlanChoice {
        self.plan
    }

    /// True once the stream is exhausted (cleanly).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// True while pulls are refused with [`ServiceError::Paused`].
    #[must_use]
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// True once the session was cancelled or torn down by an error.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.cursor.is_none() && !self.done
    }

    /// Results handed out so far.
    #[must_use]
    pub fn results_emitted(&self) -> u64 {
        self.results
    }

    /// Bytes of query state held between pulls (what the budget meters):
    /// queue tiers — all of them, the in-memory heap and the spilled pages'
    /// buffer — plus any results materialised but not yet handed out.
    #[must_use]
    pub fn held_bytes(&self) -> usize {
        self.cursor.as_ref().map_or(0, |c| c.held_bytes())
    }

    /// Pauses the session: the frontier stays exactly where it is (the
    /// hybrid queue may keep most of it on its disk tiers), and pulls
    /// refuse until [`Self::resume`]. Idempotent.
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// Resumes a paused session. Idempotent; nothing to rebuild — the
    /// engine was never torn down.
    pub fn resume(&mut self) {
        self.paused = false;
    }

    /// Cancels the session mid-stream: the frontier is dropped, the pair
    /// slab's interned items are released with it, and every buffer-pool
    /// pin is unpinned. Idempotent; later pulls return
    /// [`ServiceError::Closed`].
    pub fn cancel(&mut self) {
        // Finished, failed, and already-cancelled sessions have nothing
        // left to drop, and their close event already fired.
        if self.cursor.take().is_none() {
            return;
        }
        self.cancelled = true;
        self.emit_closed(true);
        // The leak-free contract: with this session's cursor gone and no
        // pull in flight, nothing of ours may still pin a frame.
        debug_assert_eq!(
            self.tree1.pinned_frames() + self.tree2.pinned_frames(),
            0,
            "cancelled session left buffer-pool pins behind"
        );
    }

    /// Pulls up to `n` further results.
    ///
    /// Returns [`ServiceError::Paused`] (consuming nothing) while paused,
    /// [`ServiceError::Closed`] after a cancel, the stored terminal error
    /// for a failed session, and otherwise a [`Batch`] whose `done` flag
    /// marks clean exhaustion. A budget violation detected after the pull
    /// kills the session and surfaces as [`ServiceError::BudgetExceeded`].
    pub fn next_batch(&mut self, n: usize) -> Result<Batch, ServiceError> {
        if self.paused {
            return Err(ServiceError::Paused);
        }
        if let Some(e) = self.pending_error.take() {
            self.cursor = None;
            self.emit_closed(false);
            return Err(e);
        }
        if self.done {
            return Ok(Batch {
                results: Vec::new(),
                done: true,
            });
        }
        let baseline = self.pool_snapshot();
        let mut out = Vec::new();
        let Some(cursor) = &mut self.cursor else {
            return Err(ServiceError::Closed);
        };
        let pulled = cursor.advance(n, &mut out);
        self.attribute(&baseline, out.len() as u64);

        match pulled {
            Ok(done) => {
                if done {
                    self.done = true;
                    self.cursor = None;
                    self.emit_closed(false);
                } else if let Some(budget) = self.budget {
                    let held = self.held_bytes();
                    if held > budget {
                        // Runaway session: tear it down cleanly and keep
                        // the server (and its neighbours) healthy.
                        self.cursor = None;
                        self.emit_closed(true);
                        return Err(ServiceError::BudgetExceeded {
                            held_bytes: held,
                            budget_bytes: budget,
                        });
                    }
                }
                Ok(Batch {
                    results: out,
                    done: self.done,
                })
            }
            Err(e) => {
                if out.is_empty() {
                    self.cursor = None;
                    self.emit_closed(false);
                    Err(e.into())
                } else {
                    // Hand the correct prefix out first; the error
                    // surfaces on the next pull.
                    self.pending_error = Some(e.into());
                    Ok(Batch {
                        results: out,
                        done: false,
                    })
                }
            }
        }
    }

    /// Combined pool counters of both trees, for delta attribution.
    fn pool_snapshot(&self) -> PoolStats {
        let mut s = self.tree1.pool_stats();
        s.absorb(&self.tree2.pool_stats());
        s
    }

    /// Attributes this pull's buffer-pool traffic and result count to the
    /// session: local accumulators always, `session.<id>.*` registry
    /// counters and a [`Event::SessionBatch`] when instrumented.
    fn attribute(&mut self, baseline: &PoolStats, emitted: u64) {
        let delta = self.pool_snapshot().since(baseline);
        self.buf.absorb(&delta);
        self.results += emitted;
        self.batches += 1;
        if let Some(ctx) = &self.ctx {
            let id = self.id;
            let add = |name: &str, v: u64| {
                if v > 0 {
                    ctx.registry.counter(&format!("session.{id}.{name}")).add(v);
                }
            };
            add("buf.hits", delta.hits);
            add("buf.misses", delta.misses);
            add("buf.evictions", delta.evictions);
            add("buf.writebacks", delta.writebacks);
            add("results", emitted);
            ctx.sink.emit(&Event::SessionBatch {
                session: id,
                results: emitted,
                total: self.results,
            });
        }
    }

    fn emit_closed(&self, cancelled: bool) {
        if let Some(ctx) = &self.ctx {
            ctx.sink.emit(&Event::SessionClosed {
                session: self.id,
                results: self.results,
                cancelled,
            });
        }
    }

    /// Renders this session's run-report section: identity, plan, result
    /// and batch counts, and the attributed buffer-pool counters.
    #[must_use]
    pub fn report_section(&self) -> SessionSection {
        SessionSection {
            id: self.id,
            label: self.label.clone(),
            plan: self.plan.to_string(),
            results: self.results,
            batches: self.batches,
            cancelled: self.cancelled,
            counters: vec![
                ("buf.hits".to_string(), self.buf.hits),
                ("buf.misses".to_string(), self.buf.misses),
                ("buf.evictions".to_string(), self.buf.evictions),
                ("buf.writebacks".to_string(), self.buf.writebacks),
            ],
        }
    }
}

impl<const D: usize> Drop for SessionHandle<'_, D> {
    fn drop(&mut self) {
        // Return the admission slot. The cursor (frontier, slab, spill
        // pages) drops with the handle.
        self.admission.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The join server: hands out cursor sessions over two shared trees.
///
/// The service itself is cheap — trees, knobs, and two atomics. All query
/// state lives in the [`SessionHandle`]s it opens, which borrow the trees
/// (and therefore share their buffer pools) for `'t`.
pub struct JoinService<'t, const D: usize> {
    tree1: &'t RTree<D>,
    tree2: &'t RTree<D>,
    config: ServiceConfig,
    ctx: Option<ObsContext>,
    active: Arc<AtomicU32>,
    next_id: AtomicU32,
}

impl<'t, const D: usize> JoinService<'t, D> {
    /// A service over two shared trees.
    #[must_use]
    pub fn new(tree1: &'t RTree<D>, tree2: &'t RTree<D>, config: ServiceConfig) -> Self {
        Self {
            tree1,
            tree2,
            config,
            ctx: None,
            active: Arc::new(AtomicU32::new(0)),
            next_id: AtomicU32::new(0),
        }
    }

    /// Attaches instrumentation: sessions emit lifecycle events and
    /// attribute their traffic under `session.<id>.*`.
    #[must_use]
    pub fn with_obs(mut self, ctx: &ObsContext) -> Self {
        self.ctx = Some(ctx.clone());
        self
    }

    /// Sessions currently holding admission slots.
    #[must_use]
    pub fn active_sessions(&self) -> u32 {
        self.active.load(Ordering::Acquire)
    }

    /// Frames of the shared pools currently pinned by outstanding guards.
    /// Between pulls this must be zero — the leak check the cancel tests
    /// assert.
    #[must_use]
    pub fn pinned_frames(&self) -> usize {
        self.tree1.pinned_frames() + self.tree2.pinned_frames()
    }

    /// Opens a session: admission check, per-session plan choice, cursor
    /// construction, obs attribution. The handle borrows the service's
    /// trees, not the service — open sessions outlive intermediate
    /// `open` calls freely.
    ///
    /// # Errors
    /// [`ServiceError::AdmissionDenied`] at the session limit, and
    /// [`ServiceError::InvalidConfig`] for a join config no engine can run
    /// (its admission slot is returned at once).
    pub fn open(&self, config: SessionConfig) -> Result<SessionHandle<'t, D>, ServiceError> {
        let limit = self.config.max_sessions;
        if let Err(active) = self
            .active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < limit).then_some(n + 1)
            })
        {
            return Err(ServiceError::AdmissionDenied { active, limit });
        }

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let label = config
            .label
            .clone()
            .unwrap_or_else(|| format!("session-{id}"));
        let plan = config
            .force_plan
            .unwrap_or_else(|| plan_for_trees(self.tree1, self.tree2, &config.join).choice);
        let prefix = format!("session.{id}.");

        // Bulk materialises on its first pull, so opening reads nothing.
        let cursor = open_cursor(
            self.tree1,
            self.tree2,
            plan,
            config.join,
            config.bulk,
            config.adaptive,
            self.ctx.as_ref().map(|ctx| (ctx, prefix.as_str())),
        )
        .map_err(|e| {
            self.active.fetch_sub(1, Ordering::AcqRel);
            ServiceError::InvalidConfig(e)
        })?;
        if let Some(ctx) = &self.ctx {
            ctx.sink.emit(&Event::SessionOpened {
                session: id,
                path: plan.into(),
            });
        }

        Ok(SessionHandle {
            id,
            label,
            plan,
            tree1: self.tree1,
            tree2: self.tree2,
            cursor: Some(cursor),
            paused: false,
            done: false,
            cancelled: false,
            pending_error: None,
            budget: config.budget.or(self.config.session_budget),
            results: 0,
            batches: 0,
            buf: PoolStats::default(),
            ctx: self.ctx.clone(),
            admission: Arc::clone(&self.active),
        })
    }
}

/// Drains a set of sessions with a fair round-robin scheduler: one
/// `batch`-sized pull per live session per round, skipping paused sessions,
/// until every session has finished, failed, or only paused sessions
/// remain. Returns each session's collected stream plus its terminal error
/// (fail-clean: the stream is then a correct prefix).
pub fn drain_round_robin<const D: usize>(
    sessions: &mut [SessionHandle<'_, D>],
    batch: usize,
) -> Vec<SessionOutcome> {
    let mut outcomes: Vec<SessionOutcome> =
        sessions.iter().map(|_| SessionOutcome::default()).collect();
    let mut live: Vec<bool> = sessions.iter().map(|_| true).collect();
    loop {
        let mut progressed = false;
        for (i, session) in sessions.iter_mut().enumerate() {
            if !live[i] || session.is_paused() {
                continue;
            }
            match session.next_batch(batch) {
                Ok(b) => {
                    outcomes[i].results.extend(b.results);
                    if b.done {
                        live[i] = false;
                    }
                    progressed = true;
                }
                Err(e) => {
                    outcomes[i].error = Some(e);
                    live[i] = false;
                    progressed = true;
                }
            }
        }
        let any_live = live
            .iter()
            .zip(sessions.iter())
            .any(|(&l, s)| l && !s.is_paused());
        if !any_live || !progressed {
            return outcomes;
        }
    }
}
