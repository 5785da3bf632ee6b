//! Parallel distance-join executor.
//!
//! Wraps the serial incremental engine of `sdj-core` without changing its
//! semantics. A parallel run has three stages:
//!
//! 1. **Frontier partitioning** (`DistanceJoin::into_frontier`): the serial
//!    engine runs until its priority queue holds at least
//!    `threads * frontier_factor` pairs. Results produced on the way are the
//!    globally closest (the queue's best key never improves as the run
//!    advances), so they stream out first, unchanged. The queue is then dealt
//!    round-robin into `threads` shards. Every queue pair subtends a set of
//!    object pairs disjoint from every other queue pair's — expansion
//!    replaces a pair with pairs over disjoint children — so the shards
//!    partition the remaining work.
//! 2. **Worker pool**: one scoped thread per non-empty shard resumes an
//!    independent serial engine over its shard (`DistanceJoin::resume`).
//!    Workers share a [`SharedDistanceBound`] — an `AtomicU64` over f64
//!    bits — seeded from the frontier's proven maximum distance *key*; each
//!    worker publishes its estimator's bound to it and prunes against the
//!    fleet-wide minimum. All workers run the same [`JoinConfig`], hence the
//!    same key domain (squared distances under the default Euclidean
//!    configuration), so published keys compare consistently without ever
//!    leaving the domain. A bound proven by one shard ("the K results still
//!    owed all lie within `d`") holds globally, because the merged result
//!    set dominates any single shard's.
//! 3. **Ordered merge** ([`JoinStream`]): per-worker result streams arrive
//!    on bounded channels, each individually distance-ordered. The merge
//!    holds one *watermark* element per live worker — a bound on everything
//!    that worker will ever emit — and re-emits the best watermark, blocking
//!    on workers whose watermark is missing. For semi-joins it additionally
//!    drops repeat first objects: shards are disjoint in *pairs*, not in
//!    first objects, and the first emission in merge order is the nearest
//!    partner, exactly the serial answer.
//!
//! The output is pairwise identical to the serial engine's: the same result
//! multiset, in a valid distance order. Only the relative order of
//! equal-distance results may differ from a serial run's tie order.
//!
//! [`run_planned`] is the cost-based entry point over every path: this
//! executor for the incremental plan, and `sdj-core`'s own worker pools for
//! the bulk and adaptive plans (see the `planned` module).

mod planned;

pub use planned::{run_planned, ForcedPlan, PlannedRun};

use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};

use sdj_core::{
    DistanceJoin, DistanceOracle, JoinConfig, JoinFrontier, JoinObs, JoinStats, MbrOracle, Pair,
    PairKey, ResultOrder, ResultPair, SeenSet, SemiConfig, SharedDistanceBound, SpatialIndex,
};
use sdj_geom::Rect;
use sdj_obs::{Event, EventSink, ObsContext, Phase, SpanTimer};
use sdj_storage::{FaultConfig, FaultInjector, StorageError};

// The executor shares `&RTree` across scoped threads; this fails to compile
// if the default index ever regresses to a non-Sync interior (e.g. a RefCell
// buffer pool).
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<sdj_rtree::RTree<2>>();
};

/// One shard of a partitioned queue, as handed to `DistanceJoin::resume`.
type Shard<const D: usize> = Vec<(PairKey, Pair<D>)>;

/// Tuning knobs of a parallel run.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Number of queue shards (and worker threads: one per non-empty shard).
    pub threads: usize,
    /// Frontier target per shard: partitioning runs until the queue holds
    /// `threads * frontier_factor` pairs.
    pub frontier_factor: usize,
    /// Bound of each worker's result channel; a worker stalls when the
    /// merge falls this far behind it.
    pub channel_capacity: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(4, usize::from),
            frontier_factor: 64,
            channel_capacity: 256,
        }
    }
}

impl ParallelConfig {
    /// A configuration with `threads` workers and default tuning.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }
}

/// What a finished parallel run hands back alongside the consumer's value.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// The value returned by the stream consumer.
    pub value: R,
    /// Merged counters: the partitioning run plus every worker (counts add,
    /// peaks take the maximum).
    pub stats: JoinStats,
    /// First I/O error hit by the partitioner or any worker, if any; the
    /// stream ends early when one occurs.
    pub error: Option<StorageError>,
    /// Worker threads actually spawned (empty shards are skipped; an
    /// exhausted frontier or a partitioning error spawns none).
    pub workers_spawned: usize,
}

/// Builder for a parallel distance join or semi-join over two indexes.
///
/// Mirrors the serial constructors: [`ParallelDistanceJoin::new`] /
/// [`ParallelDistanceJoin::semi`] for leaf-stored objects, the
/// `*_with_oracle` variants for external object storage.
pub struct ParallelDistanceJoin<'a, const D: usize, O, I1, I2>
where
    O: DistanceOracle<D>,
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    tree1: &'a I1,
    tree2: &'a I2,
    oracle: O,
    config: JoinConfig,
    semi: Option<SemiConfig>,
    window1: Option<Rect<D>>,
    window2: Option<Rect<D>>,
    parallel: ParallelConfig,
    obs: Option<ObsContext>,
    queue_fault: Option<FaultConfig>,
}

impl<'a, const D: usize, I1, I2> ParallelDistanceJoin<'a, D, MbrOracle, I1, I2>
where
    I1: SpatialIndex<D> + Sync,
    I2: SpatialIndex<D> + Sync,
{
    /// Parallel distance join over indexes whose leaves store the objects.
    #[must_use]
    pub fn new(tree1: &'a I1, tree2: &'a I2, config: JoinConfig, parallel: ParallelConfig) -> Self {
        Self::with_oracle(tree1, tree2, MbrOracle, config, parallel)
    }

    /// Parallel distance semi-join.
    #[must_use]
    pub fn semi(
        tree1: &'a I1,
        tree2: &'a I2,
        config: JoinConfig,
        semi: SemiConfig,
        parallel: ParallelConfig,
    ) -> Self {
        Self::semi_with_oracle(tree1, tree2, MbrOracle, config, semi, parallel)
    }
}

impl<'a, const D: usize, O, I1, I2> ParallelDistanceJoin<'a, D, O, I1, I2>
where
    O: DistanceOracle<D> + Clone + Send,
    I1: SpatialIndex<D> + Sync,
    I2: SpatialIndex<D> + Sync,
{
    /// Parallel join with exact distances supplied by `oracle` (each worker
    /// receives a clone).
    #[must_use]
    pub fn with_oracle(
        tree1: &'a I1,
        tree2: &'a I2,
        oracle: O,
        config: JoinConfig,
        parallel: ParallelConfig,
    ) -> Self {
        Self {
            tree1,
            tree2,
            oracle,
            config,
            semi: None,
            window1: None,
            window2: None,
            parallel,
            obs: None,
            queue_fault: None,
        }
    }

    /// Parallel semi-join with an explicit oracle.
    #[must_use]
    pub fn semi_with_oracle(
        tree1: &'a I1,
        tree2: &'a I2,
        oracle: O,
        config: JoinConfig,
        semi: SemiConfig,
        parallel: ParallelConfig,
    ) -> Self {
        Self {
            semi: Some(semi),
            ..Self::with_oracle(tree1, tree2, oracle, config, parallel)
        }
    }

    /// Restricts both sides to spatial windows, as in the serial
    /// `DistanceJoin::with_windows` (§2.2.5).
    #[must_use]
    pub fn with_windows(mut self, window1: Option<Rect<D>>, window2: Option<Rect<D>>) -> Self {
        self.window1 = window1;
        self.window2 = window2;
        self
    }

    /// Instruments the run. The partitioner reports as worker 0 and emits
    /// `ResultReported` for the frontier prefix; spawned workers report as
    /// workers 1.. with per-shard result events suppressed (their local ranks
    /// would interleave) and announce `WorkerFinished` when their stream
    /// ends. Globally ranked `ResultReported` events for the merged portion
    /// are emitted by the [`JoinStream`] itself.
    #[must_use]
    pub fn with_obs(mut self, ctx: ObsContext) -> Self {
        self.obs = Some(ctx);
        self
    }

    /// Installs a fault schedule on every engine's hybrid-queue spill pager
    /// (chaos testing). The partitioner and each worker own independent
    /// queues, so each gets its own injector built from `config`, whose
    /// `retries` bounds the buffer pools' transient-fault retries. No-op
    /// under the memory queue backend.
    #[must_use]
    pub fn with_queue_fault_config(mut self, config: FaultConfig) -> Self {
        self.queue_fault = Some(config);
        self
    }

    /// Runs the join, handing the globally ordered result stream to
    /// `consume`. The stream (and the worker pool behind it) lives only for
    /// the duration of the call — scoped worker threads must join before
    /// this function returns, which is why the consumer is a closure rather
    /// than a returned iterator. Dropping the stream early (e.g. after
    /// `take(k)`) cancels the remaining work.
    pub fn run<R>(self, consume: impl FnOnce(&mut JoinStream) -> R) -> RunOutput<R> {
        let threads = self.parallel.threads.max(1);
        let frontier = self
            .build_serial(self.config, None, 0)
            .into_frontier(threads, self.parallel.frontier_factor);
        self.run_from_frontier(frontier, consume)
    }

    /// Runs the join and collects every result in order.
    pub fn collect(self) -> RunOutput<Vec<ResultPair>> {
        self.run(|stream| stream.collect())
    }

    /// Builds a serial engine sharing this builder's trees, oracle and
    /// windows: the partitioning run (`shard` = `None`) or a worker resumed
    /// from a shard. The returned lifetime may be shorter than `'a` so the
    /// engine can also borrow scope-local state (the shared bound).
    fn build_serial<'b>(
        &self,
        config: JoinConfig,
        shard: Option<(Shard<D>, Option<SeenSet>)>,
        worker: u32,
    ) -> DistanceJoin<'b, D, O, I1, I2>
    where
        'a: 'b,
    {
        let join = match shard {
            None => {
                if let Some(semi) = self.semi {
                    DistanceJoin::semi_with_oracle(
                        self.tree1,
                        self.tree2,
                        self.oracle.clone(),
                        config,
                        semi,
                    )
                } else {
                    DistanceJoin::with_oracle(self.tree1, self.tree2, self.oracle.clone(), config)
                }
            }
            Some((shard, seen)) => DistanceJoin::resume(
                self.tree1,
                self.tree2,
                self.oracle.clone(),
                config,
                self.semi,
                shard,
                seen,
            ),
        };
        let mut join = join.with_windows(self.window1, self.window2);
        if let Some(fault) = &self.queue_fault {
            join.set_queue_fault_injector(Some(Arc::new(FaultInjector::new(fault.clone()))));
        }
        match &self.obs {
            Some(ctx) => {
                let mut handle = JoinObs::for_worker(ctx, worker);
                if worker > 0 {
                    handle = handle.suppress_result_events();
                }
                join.with_obs_handle(ctx, handle)
            }
            None => join,
        }
    }

    fn run_from_frontier<R>(
        self,
        mut frontier: JoinFrontier<D>,
        consume: impl FnOnce(&mut JoinStream) -> R,
    ) -> RunOutput<R> {
        let ascending = matches!(self.config.order, ResultOrder::Ascending);
        let frontier_error = frontier.error.take();
        let shards: Vec<Shard<D>> = if frontier_error.is_some() {
            Vec::new()
        } else {
            std::mem::take(&mut frontier.shards)
                .into_iter()
                .filter(|s| !s.is_empty())
                .collect()
        };
        let workers_spawned = shards.len();

        // Seed the cross-worker bound with everything the partitioner proved
        // (descending runs key on maximum distances, which bound nothing).
        let shared = SharedDistanceBound::new(if ascending {
            frontier.dmax_hint
        } else {
            f64::INFINITY
        });
        let mut worker_config = self.config;
        worker_config.max_pairs = frontier.remaining_pairs;

        let tallies: Mutex<Vec<(JoinStats, Option<StorageError>)>> =
            Mutex::new(Vec::with_capacity(workers_spawned));

        // Per-worker busy time (span between thread start and stream end);
        // `sdj-report` divides the sum by `wall * workers` for utilization.
        let busy_hist = self
            .obs
            .as_ref()
            .map(|ctx| ctx.registry.histogram("exec.worker_busy_ns"));

        let (value, mut stats) = std::thread::scope(|scope| {
            let mut receivers = Vec::with_capacity(workers_spawned);
            for (i, shard) in shards.into_iter().enumerate() {
                let (tx, rx) = std::sync::mpsc::sync_channel(self.parallel.channel_capacity.max(1));
                receivers.push(rx);
                let worker = u32::try_from(i + 1).unwrap_or(u32::MAX);
                let mut join = self
                    .build_serial(worker_config, Some((shard, frontier.seen.clone())), worker)
                    .with_shared_bound(&shared);
                let tallies = &tallies;
                let busy_hist = busy_hist.clone();
                scope.spawn(move || {
                    let busy_start = std::time::Instant::now();
                    let mut sent: u64 = 0;
                    for result in &mut join {
                        if tx.send(Ok(result)).is_err() {
                            break; // the consumer dropped the stream
                        }
                        sent += 1;
                    }
                    if let Some(h) = &busy_hist {
                        h.record(busy_start.elapsed().as_nanos() as f64);
                    }
                    if let Some(obs) = join.obs_mut() {
                        obs.finish(sent);
                    }
                    let err = join.take_error();
                    if let Some(e) = &err {
                        // The error is this stream's final message: the merge
                        // stops at it instead of treating the worker as
                        // cleanly exhausted (which would silently drop every
                        // result the worker still owed).
                        let _ = tx.send(Err(e.clone()));
                    }
                    let tally = (join.stats(), err);
                    tallies
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(tally);
                });
            }

            let prefix = std::mem::take(&mut frontier.prefix);
            let stream_obs = self.obs.as_ref().map(|ctx| StreamObs {
                sink: Arc::clone(&ctx.sink),
                result_sample_every: ctx.result_sample_every,
                rank: prefix.len() as u64,
                spans: SpanTimer::from_context(ctx),
            });
            let mut stream = JoinStream::new(
                prefix,
                receivers,
                ascending,
                self.semi.map(|_| frontier.seen.clone().unwrap_or_default()),
                frontier.remaining_pairs,
                stream_obs,
            );
            // A partitioning error truncates the stream to the prefix with
            // no workers behind it; expose it to the consumer the same way a
            // worker error is exposed.
            stream.error = frontier_error.clone();
            let value = consume(&mut stream);
            drop(stream); // close the receivers so stalled workers exit
            (value, frontier.stats)
        });

        let mut error = frontier_error;
        for (worker_stats, worker_error) in tallies
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            stats.merge(&worker_stats);
            if error.is_none() {
                error = worker_error;
            }
        }
        RunOutput {
            value,
            stats,
            error,
            workers_spawned,
        }
    }
}

/// One worker's incoming stream and its current watermark element.
struct WorkerStream {
    rx: Option<Receiver<Result<ResultPair, StorageError>>>,
    head: Option<ResultPair>,
}

impl WorkerStream {
    /// Ensures `head` holds the worker's next element, blocking on the
    /// channel if necessary; a disconnected channel finishes the stream.
    /// Returns the worker's error if its next message is one (the stream is
    /// finished either way — an error is always a worker's final message).
    fn fill(&mut self) -> Option<StorageError> {
        if self.head.is_none() {
            if let Some(rx) = &self.rx {
                match rx.recv() {
                    Ok(Ok(item)) => self.head = Some(item),
                    Ok(Err(e)) => {
                        self.rx = None;
                        return Some(e);
                    }
                    Err(_) => self.rx = None,
                }
            }
        }
        None
    }
}

/// Merged-stream observability: global ranks can only be assigned here,
/// after the watermark merge, so the stream itself emits `ResultReported`
/// (per-worker result events are suppressed).
struct StreamObs {
    sink: Arc<dyn EventSink>,
    result_sample_every: u64,
    /// Global rank of the last emitted result; starts at the prefix length,
    /// whose ranks worker 0 already reported.
    rank: u64,
    /// Phase-span timer for the watermark merge. Merge self-time includes
    /// blocking on worker channels — it measures what the consumer waits
    /// for, not CPU burned.
    spans: Option<SpanTimer>,
}

/// The globally ordered result stream of a parallel run: the frontier's
/// prefix first, then the k-way watermark merge of the worker streams.
pub struct JoinStream {
    prefix: std::vec::IntoIter<ResultPair>,
    workers: Vec<WorkerStream>,
    ascending: bool,
    /// Semi-join only: first objects already answered; repeats are dropped.
    seen: Option<SeenSet>,
    /// Results still allowed after the prefix (`max_pairs` runs).
    remaining: Option<u64>,
    obs: Option<StreamObs>,
    /// First worker error observed by the merge. Once set, the stream ends:
    /// everything emitted so far is a correct prefix of the fault-free
    /// stream (each emission was ≤ every live worker's watermark, including
    /// the erroring worker's last one), and emitting past the error point
    /// could skip results the dead worker still owed.
    error: Option<StorageError>,
}

impl JoinStream {
    fn new(
        prefix: Vec<ResultPair>,
        receivers: Vec<Receiver<Result<ResultPair, StorageError>>>,
        ascending: bool,
        seen: Option<SeenSet>,
        remaining: Option<u64>,
        obs: Option<StreamObs>,
    ) -> Self {
        Self {
            prefix: prefix.into_iter(),
            workers: receivers
                .into_iter()
                .map(|rx| WorkerStream {
                    rx: Some(rx),
                    head: None,
                })
                .collect(),
            ascending,
            seen,
            remaining,
            obs,
            error: None,
        }
    }

    /// The worker error that ended the stream, if any. The results already
    /// pulled from the stream remain a valid prefix of the fault-free
    /// output. (The same error is also reported in [`RunOutput::error`].)
    #[must_use]
    pub fn error(&self) -> Option<&StorageError> {
        self.error.as_ref()
    }

    /// Index of the worker whose watermark is globally next, if any stream
    /// is still live. Each worker's head bounds everything it will ever
    /// emit, so the best head is safe to emit now. Distance ties go to the
    /// lowest worker index, making the merge deterministic for a fixed
    /// shard layout.
    fn best_head(&mut self) -> Option<usize> {
        if self.error.is_some() {
            return None;
        }
        for w in &mut self.workers {
            if let Some(e) = w.fill() {
                self.error = Some(e);
                return None;
            }
        }
        let mut best: Option<usize> = None;
        for (i, w) in self.workers.iter().enumerate() {
            let Some(head) = &w.head else { continue };
            let better = match best {
                None => true,
                Some(b) => {
                    let incumbent = self.workers[b].head.as_ref().expect("best head is filled");
                    if self.ascending {
                        head.distance < incumbent.distance
                    } else {
                        head.distance > incumbent.distance
                    }
                }
            };
            if better {
                best = Some(i);
            }
        }
        best
    }
}

impl Iterator for JoinStream {
    type Item = ResultPair;

    fn next(&mut self) -> Option<ResultPair> {
        // The prefix was produced before any shard work started and is
        // globally first; the workers' seen-set snapshot already excludes
        // semi-join repeats of it.
        if let Some(r) = self.prefix.next() {
            return Some(r);
        }
        if let Some(StreamObs { spans: Some(t), .. }) = &mut self.obs {
            t.enter(Phase::Merge);
        }
        let r = self.next_merged();
        if let Some(StreamObs { spans: Some(t), .. }) = &mut self.obs {
            t.exit(Phase::Merge);
        }
        r
    }
}

impl JoinStream {
    /// One element of the post-prefix watermark merge (see
    /// [`Iterator::next`]).
    fn next_merged(&mut self) -> Option<ResultPair> {
        loop {
            if self.remaining == Some(0) {
                return None;
            }
            let best = self.best_head()?;
            let r = self.workers[best].head.take().expect("best head is filled");
            if let Some(seen) = &mut self.seen {
                if !seen.insert(r.oid1.0) {
                    continue; // another shard already answered this object
                }
            }
            if let Some(rem) = &mut self.remaining {
                *rem -= 1;
            }
            if let Some(obs) = &mut self.obs {
                obs.rank += 1;
                if obs.rank.is_multiple_of(obs.result_sample_every) {
                    obs.sink.emit(&Event::ResultReported {
                        rank: obs.rank,
                        dist: r.distance,
                    });
                }
            }
            return Some(r);
        }
    }
}
