//! The typed event taxonomy emitted by instrumented components.
//!
//! Events are small `Copy` records so emitting one costs a match and a few
//! stores, never an allocation. Each event serialises to one NDJSON line
//! (`{"e":"<name>", ...}`); the format is write-only, pinned by a golden
//! line per variant in the root `tests/observability.rs`.

/// One tier of the hybrid memory/disk priority queue (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The in-memory pairing heap (distances below `D1`).
    Heap,
    /// The unorganised in-memory window list (`[D1, D2)`).
    List,
    /// The paged disk buckets (`D2` and beyond).
    Disk,
}

impl Tier {
    /// Stable wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Heap => "heap",
            Tier::List => "list",
            Tier::Disk => "disk",
        }
    }
}

/// An execution path the cost-based planner can select.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlanPath {
    /// The incremental priority-queue join.
    Incremental,
    /// The bulk partition/plane-sweep join.
    Bulk,
    /// Adaptive: start incremental, hand off to a frontier-seeded bulk run
    /// if mid-run re-costing says so.
    Adaptive,
}

impl PlanPath {
    /// Stable wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PlanPath::Incremental => "incremental",
            PlanPath::Bulk => "bulk",
            PlanPath::Adaptive => "adaptive",
        }
    }
}

/// One instrumentation event. All payloads are `Copy`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A result pair was reported to the consumer.
    ResultReported {
        /// 1-based rank of the result in emission order.
        rank: u64,
        /// Its reported distance.
        dist: f64,
    },
    /// Periodic queue-depth sample (the Figure 6 time series).
    QueueSampled {
        /// Pops performed so far.
        pops: u64,
        /// Current queue length.
        len: u64,
        /// Results reported so far.
        results: u64,
    },
    /// Elements moved between tiers of the hybrid queue. A spill at
    /// insertion time is reported as `List -> Disk` (the element left the
    /// in-memory window for disk without ever being stored in the list).
    TierMigration {
        /// Tier the elements left.
        from: Tier,
        /// Tier the elements entered.
        to: Tier,
        /// Number of elements that moved.
        n: u32,
    },
    /// The buffer pool evicted a frame.
    BufferEvict {
        /// True if the victim was dirty and had to be written back.
        writeback: bool,
    },
    /// An incremental join's §2.2.4 maximum-distance estimate tightened.
    BoundTightened {
        /// Always 0: the incremental engine is one worker.
        worker: u32,
        /// The new, tighter bound.
        bound: f64,
    },
    /// A bulk sweep worker finished its cells.
    WorkerFinished {
        /// Worker id (1-based).
        worker: u32,
        /// Hits the worker swept.
        results: u64,
    },
    /// A storage operation failed under the buffer pool (injected or real).
    FaultInjected {
        /// True for a write-side fault, false for a read-side one.
        write: bool,
        /// Whether the fault was transient (retryable).
        transient: bool,
    },
    /// A storage operation succeeded after one or more retries of a
    /// transient fault.
    RetrySucceeded {
        /// Number of failed attempts before the success.
        retries: u32,
    },
    /// The cost-based planner selected an execution path for a run.
    PlanChosen {
        /// The path that will execute.
        path: PlanPath,
        /// True when an override forced the path instead of the cost model.
        forced: bool,
        /// The model's incremental-path cost estimate (work units).
        est_incremental: f64,
        /// The model's bulk-path cost estimate (work units).
        est_bulk: f64,
    },
    /// An adaptive run re-evaluated the cost model mid-query and switched
    /// execution paths, handing the exported frontier to the new one.
    Replanned {
        /// The path the run started on.
        from: PlanPath,
        /// The path the remainder executes on.
        to: PlanPath,
        /// Queue pops performed when the switch fired.
        at_pop: u64,
        /// Result pairs already emitted when the switch fired.
        at_pair: u64,
        /// Re-costed remaining work of staying on `from` (work units).
        est_incremental_remaining: f64,
        /// Re-costed work of switching to `to` (work units).
        est_bulk_remaining: f64,
    },
    /// A cursor session was admitted by the join service and its engine
    /// built on the planner-chosen path.
    SessionOpened {
        /// Service-assigned session id.
        session: u32,
        /// The execution path the session's engine runs on.
        path: PlanPath,
    },
    /// A session's `next_batch` pull completed.
    SessionBatch {
        /// Service-assigned session id.
        session: u32,
        /// Results delivered by this batch.
        results: u64,
        /// Cumulative results the session has emitted.
        total: u64,
    },
    /// A session ended: its stream finished, it failed, or it was cancelled
    /// (frontier dropped, pins and slab references released).
    SessionClosed {
        /// Service-assigned session id.
        session: u32,
        /// Cumulative results the session emitted.
        results: u64,
        /// True when the session was cancelled before exhausting its stream.
        cancelled: bool,
    },
}

/// Formats an `f64` for NDJSON: finite values as shortest-roundtrip Rust
/// float syntax, non-finite as quoted strings (JSON has no infinities).
fn fmt_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Ensure a decimal point or exponent so the value parses as a float.
        let s = format!("{v}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

impl Event {
    /// Stable wire name of the event type.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Event::ResultReported { .. } => "result_reported",
            Event::QueueSampled { .. } => "queue_sampled",
            Event::TierMigration { .. } => "tier_migration",
            Event::BufferEvict { .. } => "buffer_evict",
            Event::BoundTightened { .. } => "bound_tightened",
            Event::WorkerFinished { .. } => "worker_finished",
            Event::FaultInjected { .. } => "fault_injected",
            Event::RetrySucceeded { .. } => "retry_succeeded",
            Event::PlanChosen { .. } => "plan_chosen",
            Event::Replanned { .. } => "replanned",
            Event::SessionOpened { .. } => "session_opened",
            Event::SessionBatch { .. } => "session_batch",
            Event::SessionClosed { .. } => "session_closed",
        }
    }

    /// Appends the event as one NDJSON object (no trailing newline).
    pub fn write_ndjson(&self, out: &mut String) {
        out.push_str("{\"e\":\"");
        out.push_str(self.name());
        out.push('"');
        match *self {
            Event::ResultReported { rank, dist } => {
                out.push_str(",\"rank\":");
                out.push_str(&rank.to_string());
                out.push_str(",\"dist\":");
                fmt_f64(out, dist);
            }
            Event::QueueSampled { pops, len, results } => {
                out.push_str(",\"pops\":");
                out.push_str(&pops.to_string());
                out.push_str(",\"len\":");
                out.push_str(&len.to_string());
                out.push_str(",\"results\":");
                out.push_str(&results.to_string());
            }
            Event::TierMigration { from, to, n } => {
                out.push_str(",\"from\":\"");
                out.push_str(from.name());
                out.push_str("\",\"to\":\"");
                out.push_str(to.name());
                out.push_str("\",\"n\":");
                out.push_str(&n.to_string());
            }
            Event::BufferEvict { writeback } => {
                out.push_str(",\"writeback\":");
                out.push_str(if writeback { "true" } else { "false" });
            }
            Event::BoundTightened { worker, bound } => {
                out.push_str(",\"worker\":");
                out.push_str(&worker.to_string());
                out.push_str(",\"bound\":");
                fmt_f64(out, bound);
            }
            Event::WorkerFinished { worker, results } => {
                out.push_str(",\"worker\":");
                out.push_str(&worker.to_string());
                out.push_str(",\"results\":");
                out.push_str(&results.to_string());
            }
            Event::FaultInjected { write, transient } => {
                out.push_str(",\"write\":");
                out.push_str(if write { "true" } else { "false" });
                out.push_str(",\"transient\":");
                out.push_str(if transient { "true" } else { "false" });
            }
            Event::RetrySucceeded { retries } => {
                out.push_str(",\"retries\":");
                out.push_str(&retries.to_string());
            }
            Event::PlanChosen {
                path,
                forced,
                est_incremental,
                est_bulk,
            } => {
                out.push_str(",\"path\":\"");
                out.push_str(path.name());
                out.push_str("\",\"forced\":");
                out.push_str(if forced { "true" } else { "false" });
                out.push_str(",\"est_incremental\":");
                fmt_f64(out, est_incremental);
                out.push_str(",\"est_bulk\":");
                fmt_f64(out, est_bulk);
            }
            Event::Replanned {
                from,
                to,
                at_pop,
                at_pair,
                est_incremental_remaining,
                est_bulk_remaining,
            } => {
                out.push_str(",\"from\":\"");
                out.push_str(from.name());
                out.push_str("\",\"to\":\"");
                out.push_str(to.name());
                out.push_str("\",\"at_pop\":");
                out.push_str(&at_pop.to_string());
                out.push_str(",\"at_pair\":");
                out.push_str(&at_pair.to_string());
                out.push_str(",\"est_incremental_remaining\":");
                fmt_f64(out, est_incremental_remaining);
                out.push_str(",\"est_bulk_remaining\":");
                fmt_f64(out, est_bulk_remaining);
            }
            Event::SessionOpened { session, path } => {
                out.push_str(",\"session\":");
                out.push_str(&session.to_string());
                out.push_str(",\"path\":\"");
                out.push_str(path.name());
                out.push('"');
            }
            Event::SessionBatch {
                session,
                results,
                total,
            } => {
                out.push_str(",\"session\":");
                out.push_str(&session.to_string());
                out.push_str(",\"results\":");
                out.push_str(&results.to_string());
                out.push_str(",\"total\":");
                out.push_str(&total.to_string());
            }
            Event::SessionClosed {
                session,
                results,
                cancelled,
            } => {
                out.push_str(",\"session\":");
                out.push_str(&session.to_string());
                out.push_str(",\"results\":");
                out.push_str(&results.to_string());
                out.push_str(",\"cancelled\":");
                out.push_str(if cancelled { "true" } else { "false" });
            }
        }
        out.push('}');
    }
}
