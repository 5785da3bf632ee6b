//! The metric tables — the single source `BENCHMARK.json`, the printed
//! output and the `quick` self-check are all derived from — and the report
//! a run fills in.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, supported_tail};
use crate::workload::SPECS;

/// One metric of `BENCHMARK.json`.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

/// What a user of the system sees; measured with tracing off, defined on
/// every workload (see `README.md` for the exact per-workload reading).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("first_pair_ms", "ms", "lower", 0.25),
    e2e("query_ms", "ms", "lower", 0.25),
    e2e("pairs_per_s", "pairs/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("node_reads_per_query", "reads", "lower", 0.20),
];

/// Single-layer metrics from the traced run. Layer names are crate names.
/// A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("datagen.gen_ms", "ms", "lower"),
    layer("rtree.bulk_load_ms", "ms", "lower"),
    layer("rtree.nodes", "count", "lower"),
    layer("rtree.node_accesses_per_query", "count", "lower"),
    layer("rtree.scan_hit_ns", "ns", "lower"),
    layer("rtree.est_busy_ms", "ms", "lower"),
    layer("rtree.est_busy_share", "ratio", "lower"),
    layer("storage.hit_ratio", "ratio", "higher"),
    layer("storage.misses_per_query", "count", "lower"),
    layer("storage.evictions_per_query", "count", "lower"),
    layer("storage.prefetch_reads_per_query", "count", "lower"),
    layer("storage.miss_ns", "ns", "lower"),
    layer("storage.est_busy_ms", "ms", "lower"),
    layer("storage.est_busy_share", "ratio", "lower"),
    layer("pqueue.max_len", "count", "lower"),
    layer("pqueue.peak_state_mb", "MB", "lower"),
    layer("pqueue.bytes_per_entry", "B", "lower"),
    layer("pqueue.push_ns", "ns", "lower"),
    layer("pqueue.pop_ns", "ns", "lower"),
    layer("pqueue.est_busy_ms", "ms", "lower"),
    layer("pqueue.est_busy_share", "ratio", "lower"),
    layer("geom.mindist_ns_per_rect", "ns", "lower"),
    layer("geom.est_busy_ms", "ms", "lower"),
    layer("geom.est_busy_share", "ratio", "lower"),
    layer("core.construct_ms", "ms", "lower"),
    layer("core.first_next_ms", "ms", "lower"),
    layer("core.rest_next_ms", "ms", "lower"),
    layer("core.dist_calcs_per_pair", "count", "lower"),
    layer("core.object_dist_calcs_per_pair", "count", "lower"),
    layer("core.enq_per_pair", "count", "lower"),
    layer("core.deq_per_pair", "count", "lower"),
    layer("core.useful_pop_ratio", "ratio", "higher"),
    layer("core.pruned_share", "ratio", "higher"),
    layer("core.est_self_ms", "ms", "lower"),
    layer("core.est_self_share", "ratio", "lower"),
    layer("core.semi.filtered_seen_per_pair", "count", "lower"),
    layer("core.semi.pruned_by_dmax_share", "ratio", "higher"),
    layer("core.bulk.build_ms", "ms", "lower"),
    layer("core.bulk.run_ms", "ms", "lower"),
    layer("core.bulk.cells_swept", "count", "lower"),
    layer("core.bulk.replication_factor", "ratio", "lower"),
    layer("core.bulk.dedup_share", "ratio", "lower"),
    layer("core.bulk.dist_calcs_per_pair", "count", "lower"),
    layer("core.plan.plan_ms", "ms", "lower"),
    layer("core.plan.choice", "code", "lower"),
    layer("core.plan.regret", "ratio", "lower"),
    layer("core.adaptive.replans_per_query", "count", "lower"),
    layer("core.adaptive.regret", "ratio", "lower"),
    layer("exec.run_planned_overhead_ms", "ms", "lower"),
    layer("exec.threads2_ratio", "ratio", "higher"),
    layer("service.open_ms", "ms", "lower"),
    layer("service.batch_p50_ms", "ms", "lower"),
    layer("service.batch_p99_ms", "ms", "lower"),
    layer("service.batch_p999_ms", "ms", "lower"),
    layer("service.batch_max_ms", "ms", "lower"),
    layer("service.batches", "count", "lower"),
    layer("service.peak_held_mb", "MB", "lower"),
    layer("service.overhead_ratio", "ratio", "lower"),
    layer("service.fairness_spread", "ratio", "lower"),
    layer("service.pool_hit_ratio", "ratio", "higher"),
    layer("service.admission_denied", "count", "lower"),
    layer("span.queue_pop_ms", "ms", "lower"),
    layer("span.queue_push_ms", "ms", "lower"),
    layer("span.spill_ms", "ms", "lower"),
    layer("span.reload_ms", "ms", "lower"),
    layer("span.expand_ms", "ms", "lower"),
    layer("span.kernel_ms", "ms", "lower"),
    layer("span.sweep_ms", "ms", "lower"),
    layer("span.merge_ms", "ms", "lower"),
    layer("span.io_ms", "ms", "lower"),
    layer("span.emit_ms", "ms", "lower"),
    layer("span.partition_ms", "ms", "lower"),
    layer("span.replicate_ms", "ms", "lower"),
    layer("span.dedup_ms", "ms", "lower"),
    layer("span.residual_share", "ratio", "lower"),
    layer("obs.trace_overhead_ratio", "ratio", "lower"),
];

/// What one run found: metric values by name, free-form notes per metric
/// (sample counts, supported tails), and the operation tally.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
    /// Raw samples behind each timing metric, in the order taken.
    samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Verification failures found (each is printed to stderr as found).
    failures: usize,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.values.insert(name, value);
        } else {
            self.fail(format!("{name} is not a finite number ({value})"));
            self.values.insert(name, 0.0);
        }
    }

    /// Records a timing metric as the median of `samples`, noting the sample
    /// count, the highest percentile the count supports, and the extremes.
    pub fn set_timing(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, median(samples));
        let (pct, tail) = supported_tail(samples, 99.9);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(0.0, f64::max);
        let note = format!(
            "n={} p{pct:.1}={tail:.4} min={min:.4} max={max:.4}",
            samples.len()
        );
        self.notes.insert(name, note);
        self.samples.insert(name, samples.to_vec());
    }

    pub fn note(&mut self, name: &'static str, note: String) {
        self.notes.insert(name, note);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn fail(&mut self, what: String) {
        eprintln!("VERIFICATION FAILED: {what}");
        self.failures += 1;
    }

    pub fn correct(&self) -> bool {
        self.failures == 0
    }

    /// Prints `workload metric value unit [notes]` for every metric of
    /// `table`, then the result object the driver reads as the last line.
    /// A failed verification fails every operation of the workload.
    pub fn print(&self, workload: &str, table: &[MetricDef]) {
        // The raw timings in time order, so a slow phase of a shared host
        // can be told from a slow system.
        for (name, samples) in &self.samples {
            let list: Vec<String> = samples.iter().map(|v| format!("{v:.1}")).collect();
            println!("# {workload} {name} samples: {}", list.join(" "));
        }
        for m in table {
            let note = self.notes.get(m.name).map_or("", String::as_str);
            println!(
                "{workload} {} {} {} {note}",
                m.name,
                self.get(m.name),
                m.unit
            );
        }
        let failed = if self.correct() {
            self.failed
        } else {
            self.attempted
        };
        let share = failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{workload} failed_share {share} ratio attempted={} failed={failed}",
            self.attempted
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1)
        );
        for (i, m) in table.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                self.get(m.name),
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The text of `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    fn list(rows: impl Iterator<Item = String>) -> String {
        rows.map(|r| format!("    {{{r}}}"))
            .collect::<Vec<_>>()
            .join(",\n")
    }
    let metric = |m: &MetricDef| {
        format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        )
    };
    let workloads = list(
        SPECS
            .iter()
            .map(|w| format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why)),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|m| format!("{}, \"bound\": {}", metric(m), m.bound)),
    );
    let per_layer = list(PER_LAYER.iter().map(metric));
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}
