//! Machine-readable run reports.
//!
//! A [`RunReport`] is a schema-versioned JSON document describing one
//! instrumented join run: host info, workload parameters, counters, the
//! queue-size-vs-results time series, and the distance-vs-rank curve — the
//! raw material of the paper's Figures 6–8. Reports are validated
//! ([`RunReport::validate`]) and written atomically ([`write_atomic`]).
//!
//! [`RunRecorder`] is the [`EventSink`] that collects the two series from a
//! live event stream, and [`sparkline`] renders any series as a one-line
//! Unicode chart for terminals.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::Event;
use crate::lock;
use crate::metrics::Snapshot;
use crate::sink::EventSink;
use crate::span::Phase;

/// Current report schema version. Bump on breaking field changes.
/// v2: host gains `cpu_model`; optional `profile` (per-phase span table)
/// and `plan.calibration` sections. Still v2 (additive): optional
/// `sessions` array attributing one service run's counters per cursor
/// session — absent for single-query reports, so older readers are
/// unaffected.
pub const SCHEMA_VERSION: u64 = 2;

/// Hard cap on stored series points; beyond it the recorder decimates by
/// doubling its stride, so memory stays bounded on any run length.
const SERIES_CAP: usize = 4096;

/// Static facts about the host and build that produced a report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostInfo {
    /// Hardware threads available to the process.
    pub nproc: u64,
    /// CPU model string (`"unknown"` when undetectable), so the
    /// "1-CPU container host" caveat on benchmark numbers is
    /// machine-readable.
    pub cpu_model: String,
    /// `"release"` or `"debug"`.
    pub build_profile: String,
}

impl HostInfo {
    /// Detects the current host and build profile.
    #[must_use]
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
        let build_profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        Self {
            nproc,
            cpu_model: Self::detect_cpu_model(),
            build_profile: build_profile.to_string(),
        }
    }

    /// Best-effort CPU model string: `/proc/cpuinfo` on Linux, `"unknown"`
    /// elsewhere or on failure.
    fn detect_cpu_model() -> String {
        #[cfg(target_os = "linux")]
        {
            if let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") {
                for line in info.lines() {
                    // x86 says "model name", arm says "Processor"/"CPU part".
                    if let Some(rest) = line
                        .strip_prefix("model name")
                        .or_else(|| line.strip_prefix("Processor"))
                    {
                        if let Some((_, model)) = rest.split_once(':') {
                            let model = model.trim();
                            if !model.is_empty() {
                                return model.to_string();
                            }
                        }
                    }
                }
            }
        }
        "unknown".to_string()
    }

    /// Appends this as a JSON object.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"nproc\":");
        out.push_str(&self.nproc.to_string());
        out.push_str(",\"cpu_model\":\"");
        escape_into(out, &self.cpu_model);
        out.push_str("\",\"build_profile\":\"");
        escape_into(out, &self.build_profile);
        out.push_str("\"}");
    }
}

/// One row of the EXPLAIN-ANALYZE profile table: a phase's call count and
/// self-time estimates (nested spans are charged as self-time, so rows sum
/// without double counting).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRow {
    /// Phase name ([`Phase::name`]).
    pub phase: String,
    /// Exact spans entered.
    pub calls: u64,
    /// Spans whose self-time was measured.
    pub sampled_calls: u64,
    /// Estimated total self-time (sampled time scaled to all calls), ns.
    pub est_total_ns: f64,
    /// Largest single measured self-time, ns.
    pub max_ns: u64,
    /// Median measured self-time per call, ns (histogram estimate).
    pub p50_ns: f64,
    /// 95th-percentile self-time per call, ns.
    pub p95_ns: f64,
    /// 99th-percentile self-time per call, ns.
    pub p99_ns: f64,
}

impl PhaseRow {
    /// Mean estimated self-time per call, ns.
    #[must_use]
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.est_total_ns / self.calls as f64
        }
    }
}

/// The EXPLAIN-ANALYZE profile of one run: wall clock, worker count, and
/// the per-phase self-time table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileSection {
    /// Measured wall-clock seconds of the profiled run.
    pub wall_seconds: f64,
    /// Worker threads the run used (self-times may sum up to
    /// `wall_seconds × threads`).
    pub threads: u64,
    /// Per-phase rows, in [`Phase::ALL`] order (touched phases only).
    pub phases: Vec<PhaseRow>,
}

impl ProfileSection {
    /// Builds the table from a registry snapshot: span accumulators plus
    /// the `span.<phase>.ns` histograms for the per-call quantiles.
    #[must_use]
    pub fn from_snapshot(snap: &Snapshot, wall_seconds: f64, threads: u64) -> Self {
        let phases = snap
            .spans
            .iter()
            .map(|s| {
                let hist = snap.histogram(&format!("span.{}.ns", s.phase.name()));
                let q = |f: fn(&crate::metrics::HistogramSummary) -> f64| hist.map_or(0.0, f);
                PhaseRow {
                    phase: s.phase.name().to_string(),
                    calls: s.calls,
                    sampled_calls: s.sampled_calls,
                    est_total_ns: s.est_total_ns(),
                    max_ns: s.max_ns,
                    p50_ns: q(crate::metrics::HistogramSummary::p50),
                    p95_ns: q(crate::metrics::HistogramSummary::p95),
                    p99_ns: q(crate::metrics::HistogramSummary::p99),
                }
            })
            .collect();
        Self {
            wall_seconds,
            threads: threads.max(1),
            phases,
        }
    }

    /// Sum of estimated per-phase self-times, ns.
    #[must_use]
    pub fn attributed_ns(&self) -> f64 {
        self.phases.iter().map(|p| p.est_total_ns).sum()
    }

    /// Attributed time as a fraction of the available wall clock
    /// (`wall_seconds × threads`); 0 when the wall clock is unknown.
    #[must_use]
    pub fn attributed_fraction(&self) -> f64 {
        let budget = self.wall_seconds * 1e9 * self.threads.max(1) as f64;
        if budget <= 0.0 {
            0.0
        } else {
            self.attributed_ns() / budget
        }
    }

    /// Conservation check: attributed self-time must not exceed the wall
    /// clock budget by more than `slack` (e.g. 0.25 allows 25% sampling
    /// noise). Nested spans are charged as self-time, so a sound profile
    /// cannot legitimately exceed the budget beyond estimator error.
    #[must_use]
    pub fn conserves(&self, slack: f64) -> bool {
        self.wall_seconds > 0.0 && self.attributed_fraction() <= 1.0 + slack.max(0.0)
    }
}

/// Planner calibration: the cost model's predictions recorded next to the
/// observed outcome of the run it planned.
#[derive(Clone, Debug, PartialEq)]
pub struct CalibrationSection {
    /// Path the planner chose (`"incremental"` / `"bulk"`).
    pub choice: String,
    /// Whether the executed path was forced rather than planned.
    pub forced: bool,
    /// Predicted abstract cost of the incremental path.
    pub est_incremental: f64,
    /// Predicted abstract cost of the bulk path.
    pub est_bulk: f64,
    /// Predicted result-pair count.
    pub est_pairs: f64,
    /// Predicted cost ratio `est_incremental / est_bulk` (the planner
    /// picks incremental when this is < 1).
    pub predicted_ratio: f64,
    /// Measured wall-clock seconds of the executed path.
    pub observed_seconds: f64,
    /// Observed result-pair count.
    pub observed_pairs: u64,
}

/// Per-session attribution row of a multi-cursor service run: which
/// session pulled how much, on which plan, and the share of the shared
/// buffer pool / queue memory its pulls accounted for.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionSection {
    /// Service-assigned session id.
    pub id: u32,
    /// Caller-supplied session label (may be empty).
    pub label: String,
    /// Executed plan path: `"incremental"`, `"bulk"` or `"adaptive"`.
    pub plan: String,
    /// Results the session emitted.
    pub results: u64,
    /// `next_batch` pulls the session served.
    pub batches: u64,
    /// True when the session was cancelled before exhausting its stream.
    pub cancelled: bool,
    /// Attributed counters (`buf.*` pool deltas measured across this
    /// session's serialized pull windows, `pq.*` queue occupancy peaks).
    pub counters: Vec<(String, u64)>,
}

impl SessionSection {
    /// The named attributed counter; 0 when the session recorded none.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name).unwrap_or(0)
    }
}

/// The value recorded under `name`, first match.
fn lookup<T: Copy>(pairs: &[(String, T)], name: &str) -> Option<T> {
    pairs.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// One instrumented run, ready to serialise.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Human-readable run label.
    pub label: String,
    /// Host / build facts ([`HostInfo::detect`]).
    pub host: Option<HostInfo>,
    /// Workload parameters, e.g. `("n", 10000.0)`, `("k", 1000.0)`.
    pub workload: Vec<(String, f64)>,
    /// Named end-of-run counters (from `JoinStats` and the registry).
    pub counters: Vec<(String, u64)>,
    /// `(results_reported, queue_len)` samples in run order — Figure 6.
    pub queue_series: Vec<(u64, u64)>,
    /// `(rank, distance)` samples in rank order — Figures 7–8.
    pub distance_by_rank: Vec<(u64, f64)>,
    /// Named floating-point metrics (rates, seconds, means ...).
    pub metrics: Vec<(String, f64)>,
    /// Total events the sink saw while recording.
    pub events_recorded: u64,
    /// EXPLAIN-ANALYZE-style per-phase profile, when spans were on.
    pub profile: Option<ProfileSection>,
    /// Planner predictions vs the observed run (`plan.calibration`).
    pub calibration: Option<CalibrationSection>,
    /// Per-session attribution rows of a service run (empty — and omitted
    /// from the JSON — for single-query reports).
    pub sessions: Vec<SessionSection>,
}

/// A failed [`RunReport::validate`] check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReportError(pub String);

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ReportError {}

fn fmt_metric(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        // JSON has no infinities; clamp to a sentinel the parser accepts.
        "null".to_string()
    }
}

impl RunReport {
    /// A report with the given label and detected host info.
    #[must_use]
    pub fn new(label: &str) -> Self {
        Self {
            label: label.to_string(),
            host: Some(HostInfo::detect()),
            ..Self::default()
        }
    }

    /// The named counter; 0 when the run recorded none.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name).unwrap_or(0)
    }

    /// The named workload parameter, if the run recorded it.
    #[must_use]
    pub fn workload(&self, name: &str) -> Option<f64> {
        lookup(&self.workload, name)
    }

    /// Renders the report as pretty-ish JSON (stable field order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema_version\": ");
        out.push_str(&SCHEMA_VERSION.to_string());
        out.push_str(",\n  \"label\": \"");
        escape_into(&mut out, &self.label);
        out.push_str("\",\n  \"host\": ");
        match &self.host {
            Some(h) => h.write_json(&mut out),
            None => out.push_str("null"),
        }
        out.push_str(",\n  \"workload\": {");
        for (i, (k, v)) in self.workload.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape_into(&mut out, k);
            out.push_str("\": ");
            out.push_str(&fmt_metric(*v));
        }
        out.push_str("},\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape_into(&mut out, k);
            out.push_str("\": ");
            out.push_str(&v.to_string());
        }
        out.push_str("},\n  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape_into(&mut out, k);
            out.push_str("\": ");
            out.push_str(&fmt_metric(*v));
        }
        out.push_str("},\n  \"events_recorded\": ");
        out.push_str(&self.events_recorded.to_string());
        if let Some(p) = &self.profile {
            out.push_str(",\n  \"profile\": {\"wall_seconds\": ");
            out.push_str(&fmt_metric(p.wall_seconds));
            out.push_str(", \"threads\": ");
            out.push_str(&p.threads.to_string());
            out.push_str(", \"phases\": [");
            for (i, row) in p.phases.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    {\"phase\": \"");
                escape_into(&mut out, &row.phase);
                out.push_str(&format!(
                    "\", \"calls\": {}, \"sampled_calls\": {}, \"est_total_ns\": {}, \
                     \"max_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
                    row.calls,
                    row.sampled_calls,
                    fmt_metric(row.est_total_ns),
                    row.max_ns,
                    fmt_metric(row.p50_ns),
                    fmt_metric(row.p95_ns),
                    fmt_metric(row.p99_ns),
                ));
            }
            out.push_str("\n  ]}");
        }
        if let Some(c) = &self.calibration {
            out.push_str(",\n  \"plan\": {\"calibration\": {\"choice\": \"");
            escape_into(&mut out, &c.choice);
            out.push_str(&format!(
                "\", \"forced\": {}, \"est_incremental\": {}, \"est_bulk\": {}, \
                 \"est_pairs\": {}, \"predicted_ratio\": {}, \"observed_seconds\": {}, \
                 \"observed_pairs\": {}}}}}",
                c.forced,
                fmt_metric(c.est_incremental),
                fmt_metric(c.est_bulk),
                fmt_metric(c.est_pairs),
                fmt_metric(c.predicted_ratio),
                fmt_metric(c.observed_seconds),
                c.observed_pairs,
            ));
        }
        if !self.sessions.is_empty() {
            out.push_str(",\n  \"sessions\": [");
            for (i, s) in self.sessions.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    {\"id\": ");
                out.push_str(&s.id.to_string());
                out.push_str(", \"label\": \"");
                escape_into(&mut out, &s.label);
                out.push_str("\", \"plan\": \"");
                escape_into(&mut out, &s.plan);
                out.push_str(&format!(
                    "\", \"results\": {}, \"batches\": {}, \"cancelled\": {}, \"counters\": {{",
                    s.results, s.batches, s.cancelled
                ));
                for (j, (k, v)) in s.counters.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    escape_into(&mut out, k);
                    out.push_str("\": ");
                    out.push_str(&v.to_string());
                }
                out.push_str("}}");
            }
            out.push_str("\n  ]");
        }
        out.push_str(",\n  \"queue_series\": [");
        for (i, (results, len)) in self.queue_series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{results},{len}]"));
        }
        out.push_str("],\n  \"distance_by_rank\": [");
        for (i, (rank, dist)) in self.distance_by_rank.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{rank},{}]", fmt_metric(*dist)));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Schema checks: host sanity, ranks strictly
    /// increasing, distances non-negative and non-decreasing.
    pub fn validate(&self) -> Result<(), ReportError> {
        if let Some(h) = &self.host {
            if h.nproc == 0 {
                return Err(ReportError("host.nproc must be >= 1".into()));
            }
            if h.build_profile != "release" && h.build_profile != "debug" {
                return Err(ReportError(format!(
                    "host.build_profile {:?} not release/debug",
                    h.build_profile
                )));
            }
        }
        let mut prev_rank: Option<u64> = None;
        let mut prev_dist = 0.0f64;
        for &(rank, dist) in &self.distance_by_rank {
            if let Some(p) = prev_rank {
                if rank <= p {
                    return Err(ReportError(format!(
                        "ranks not strictly increasing at {rank} (prev {p})"
                    )));
                }
            }
            if dist.is_nan() || dist < 0.0 {
                return Err(ReportError(format!("distance at rank {rank} is {dist}")));
            }
            if dist + 1e-9 < prev_dist {
                return Err(ReportError(format!(
                    "distances decrease at rank {rank}: {dist} < {prev_dist}"
                )));
            }
            prev_rank = Some(rank);
            prev_dist = dist.max(prev_dist);
        }
        if let Some(p) = &self.profile {
            if !p.wall_seconds.is_finite() || p.wall_seconds < 0.0 {
                return Err(ReportError(format!(
                    "profile.wall_seconds is {}",
                    p.wall_seconds
                )));
            }
            if p.threads == 0 {
                return Err(ReportError("profile.threads must be >= 1".into()));
            }
            let mut seen = Vec::new();
            for row in &p.phases {
                if Phase::from_name(&row.phase).is_none() {
                    return Err(ReportError(format!(
                        "unknown profile phase {:?}",
                        row.phase
                    )));
                }
                if seen.contains(&row.phase) {
                    return Err(ReportError(format!(
                        "duplicate profile phase {:?}",
                        row.phase
                    )));
                }
                seen.push(row.phase.clone());
                if row.calls == 0 {
                    return Err(ReportError(format!(
                        "profile phase {} has 0 calls",
                        row.phase
                    )));
                }
                if row.sampled_calls > row.calls {
                    return Err(ReportError(format!(
                        "profile phase {} sampled {} of {} calls",
                        row.phase, row.sampled_calls, row.calls
                    )));
                }
                if !row.est_total_ns.is_finite() || row.est_total_ns < 0.0 {
                    return Err(ReportError(format!(
                        "profile phase {} est_total_ns is {}",
                        row.phase, row.est_total_ns
                    )));
                }
                if row.sampled_calls > 0 && row.est_total_ns <= 0.0 {
                    return Err(ReportError(format!(
                        "profile phase {} was sampled but has zero time",
                        row.phase
                    )));
                }
            }
        }
        if let Some(c) = &self.calibration {
            if c.choice != "incremental" && c.choice != "bulk" && c.choice != "adaptive" {
                return Err(ReportError(format!(
                    "plan.calibration.choice {:?} not incremental/bulk/adaptive",
                    c.choice
                )));
            }
            for (name, v) in [
                ("est_incremental", c.est_incremental),
                ("est_bulk", c.est_bulk),
                ("est_pairs", c.est_pairs),
                ("predicted_ratio", c.predicted_ratio),
                ("observed_seconds", c.observed_seconds),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(ReportError(format!("plan.calibration.{name} is {v}")));
                }
            }
        }
        let mut session_ids = Vec::new();
        for s in &self.sessions {
            if session_ids.contains(&s.id) {
                return Err(ReportError(format!("duplicate session id {}", s.id)));
            }
            session_ids.push(s.id);
            if s.plan != "incremental" && s.plan != "bulk" && s.plan != "adaptive" {
                return Err(ReportError(format!(
                    "session {} plan {:?} not incremental/bulk/adaptive",
                    s.id, s.plan
                )));
            }
        }
        Ok(())
    }

    /// True if the queue-size series shows the grow-then-drain shape of
    /// the paper's Figure 6: its peak is well above both endpoints.
    #[must_use]
    pub fn grow_then_drain(&self) -> bool {
        if self.queue_series.len() < 3 {
            return false;
        }
        let first = self.queue_series.first().map_or(0, |p| p.1);
        let last = self.queue_series.last().map_or(0, |p| p.1);
        let peak = self.queue_series.iter().map(|p| p.1).max().unwrap_or(0);
        peak > first.saturating_mul(2).max(8) && peak > last.saturating_mul(2).max(8)
    }

    /// Writes the report atomically (temp file + rename) to `path`.
    pub fn write_atomic<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        write_atomic(path, self.to_json().as_bytes())
    }
}

/// Appends `s` to `out` with JSON string escaping applied (no quotes).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Writes `bytes` to `path` atomically: the data goes to a uniquely named
/// temp file in the same directory (same filesystem, so rename cannot
/// cross devices), is flushed, then renamed over the destination. Readers
/// never observe a torn file.
pub fn write_atomic<P: AsRef<Path>>(path: P, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    // Unique-enough temp name: pid + address entropy from a stack local.
    let token = {
        let local = 0u8;
        (std::ptr::addr_of!(local) as usize) ^ (std::process::id() as usize).rotate_left(17)
    };
    let tmp_name = format!(".{}.tmp{:x}", file_name.to_string_lossy(), token);
    let tmp_path = match dir {
        Some(d) => d.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };
    let result = (|| {
        let mut f = std::fs::File::create(&tmp_path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp_path, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp_path);
    }
    result
}

/// Renders `values` as a one-line Unicode sparkline of at most `width`
/// cells, downsampling by taking the max within each cell (peaks matter
/// for queue-size curves). Empty input renders as an empty string.
#[must_use]
pub fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let cells = width.min(values.len());
    let mut out = String::with_capacity(cells * 3);
    for c in 0..cells {
        let start = c * values.len() / cells;
        let end = ((c + 1) * values.len() / cells).max(start + 1);
        let cell_max = values[start..end.min(values.len())]
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        if !cell_max.is_finite() {
            out.push(BARS[0]);
            continue;
        }
        let t = if hi > lo {
            (cell_max - lo) / (hi - lo)
        } else {
            0.0
        };
        let idx = ((t * 7.0).round() as usize).min(7);
        out.push(BARS[idx]);
    }
    out
}

struct RecorderInner {
    queue_series: Vec<(u64, u64)>,
    queue_stride: u64,
    queue_seen: u64,
    distance_by_rank: Vec<(u64, f64)>,
    rank_stride: u64,
    rank_seen: u64,
    events: u64,
    last_result: Option<(u64, f64)>,
}

impl RecorderInner {
    /// Halves a series in place and doubles its stride — called when a
    /// series hits [`SERIES_CAP`], keeping memory bounded while the
    /// retained points stay evenly spaced.
    fn decimate<T: Copy>(series: &mut Vec<T>, stride: &mut u64) {
        let mut keep = 0;
        for i in (0..series.len()).step_by(2) {
            series[keep] = series[i];
            keep += 1;
        }
        series.truncate(keep);
        *stride *= 2;
    }
}

/// An [`EventSink`] that accumulates the two report series from a live
/// event stream: `QueueSampled` → queue-size-vs-results, `ResultReported`
/// → distance-vs-rank. Bounded memory via stride-doubling decimation; the
/// final result is always retained exactly.
pub struct RunRecorder {
    inner: Mutex<RecorderInner>,
}

impl Default for RunRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl RunRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(RecorderInner {
                queue_series: Vec::new(),
                queue_stride: 1,
                queue_seen: 0,
                distance_by_rank: Vec::new(),
                rank_stride: 1,
                rank_seen: 0,
                events: 0,
                last_result: None,
            }),
        }
    }

    /// Moves the recorded series into `report` (and sets
    /// `events_recorded`). The final reported result is appended to the
    /// rank curve if decimation dropped it.
    pub fn fill_report(&self, report: &mut RunReport) {
        let mut inner = lock(&self.inner);
        report.events_recorded = inner.events;
        report.queue_series = std::mem::take(&mut inner.queue_series);
        let mut ranks = std::mem::take(&mut inner.distance_by_rank);
        if let Some(last) = inner.last_result {
            if ranks.last().is_none_or(|&(r, _)| r < last.0) {
                ranks.push(last);
            }
        }
        report.distance_by_rank = ranks;
    }
}

impl EventSink for RunRecorder {
    fn emit(&self, event: &Event) {
        let mut inner = lock(&self.inner);
        inner.events += 1;
        match *event {
            Event::QueueSampled { len, results, .. } => {
                inner.queue_seen += 1;
                if inner.queue_seen.is_multiple_of(inner.queue_stride) {
                    inner.queue_series.push((results, len));
                    if inner.queue_series.len() >= SERIES_CAP {
                        let RecorderInner {
                            queue_series,
                            queue_stride,
                            ..
                        } = &mut *inner;
                        RecorderInner::decimate(queue_series, queue_stride);
                    }
                }
            }
            Event::ResultReported { rank, dist } => {
                inner.last_result = Some((rank, dist));
                inner.rank_seen += 1;
                if inner.rank_seen.is_multiple_of(inner.rank_stride) {
                    inner.distance_by_rank.push((rank, dist));
                    if inner.distance_by_rank.len() >= SERIES_CAP {
                        let RecorderInner {
                            distance_by_rank,
                            rank_stride,
                            ..
                        } = &mut *inner;
                        RecorderInner::decimate(distance_by_rank, rank_stride);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            label: "test run".into(),
            host: Some(HostInfo {
                nproc: 4,
                cpu_model: "Test CPU @ 2.0GHz".into(),
                build_profile: "release".into(),
            }),
            workload: vec![("n".into(), 10000.0), ("k".into(), 1000.0)],
            counters: vec![("distance_calcs".into(), 12345)],
            queue_series: vec![(0, 10), (100, 500), (200, 900), (300, 50)],
            distance_by_rank: vec![(1, 0.0), (2, 0.5), (10, 0.5), (100, 2.25)],
            metrics: vec![("seconds".into(), 1.25)],
            events_recorded: 42,
            profile: Some(ProfileSection {
                wall_seconds: 1.25,
                threads: 1,
                phases: vec![
                    PhaseRow {
                        phase: "queue_pop".into(),
                        calls: 5000,
                        sampled_calls: 120,
                        est_total_ns: 400_000_000.0,
                        max_ns: 90_000,
                        p50_ns: 70_000.0,
                        p95_ns: 85_000.0,
                        p99_ns: 89_000.0,
                    },
                    PhaseRow {
                        phase: "emit".into(),
                        calls: 1000,
                        sampled_calls: 60,
                        est_total_ns: 500_000_000.0,
                        max_ns: 600_000,
                        p50_ns: 480_000.0,
                        p95_ns: 550_000.0,
                        p99_ns: 590_000.0,
                    },
                ],
            }),
            calibration: Some(CalibrationSection {
                choice: "incremental".into(),
                forced: false,
                est_incremental: 123_000.0,
                est_bulk: 456_000.0,
                est_pairs: 1000.0,
                predicted_ratio: 123.0 / 456.0,
                observed_seconds: 1.25,
                observed_pairs: 1000,
            }),
            sessions: vec![
                SessionSection {
                    id: 0,
                    label: "s0".into(),
                    plan: "incremental".into(),
                    results: 400,
                    batches: 7,
                    cancelled: false,
                    counters: vec![("buf.accesses".into(), 900), ("pq.bytes_peak".into(), 4096)],
                },
                SessionSection {
                    id: 1,
                    label: String::new(),
                    plan: "bulk".into(),
                    results: 600,
                    batches: 3,
                    cancelled: true,
                    counters: Vec::new(),
                },
            ],
        }
    }

    /// `sample_report().to_json()`, every section present.
    const GOLDEN: &str = r#"{
  "schema_version": 2,
  "label": "test run",
  "host": {"nproc":4,"cpu_model":"Test CPU @ 2.0GHz","build_profile":"release"},
  "workload": {"n": 10000.0, "k": 1000.0},
  "counters": {"distance_calcs": 12345},
  "metrics": {"seconds": 1.25},
  "events_recorded": 42,
  "profile": {"wall_seconds": 1.25, "threads": 1, "phases": [
    {"phase": "queue_pop", "calls": 5000, "sampled_calls": 120, "est_total_ns": 400000000.0, "max_ns": 90000, "p50_ns": 70000.0, "p95_ns": 85000.0, "p99_ns": 89000.0},
    {"phase": "emit", "calls": 1000, "sampled_calls": 60, "est_total_ns": 500000000.0, "max_ns": 600000, "p50_ns": 480000.0, "p95_ns": 550000.0, "p99_ns": 590000.0}
  ]},
  "plan": {"calibration": {"choice": "incremental", "forced": false, "est_incremental": 123000.0, "est_bulk": 456000.0, "est_pairs": 1000.0, "predicted_ratio": 0.26973684210526316, "observed_seconds": 1.25, "observed_pairs": 1000}},
  "sessions": [
    {"id": 0, "label": "s0", "plan": "incremental", "results": 400, "batches": 7, "cancelled": false, "counters": {"buf.accesses": 900, "pq.bytes_peak": 4096}},
    {"id": 1, "label": "", "plan": "bulk", "results": 600, "batches": 3, "cancelled": true, "counters": {}}
  ],
  "queue_series": [[0,10],[100,500],[200,900],[300,50]],
  "distance_by_rank": [[1,0.0],[2,0.5],[10,0.5],[100,2.25]]
}
"#;

    #[test]
    fn to_json_matches_the_golden_document() {
        assert_eq!(sample_report().to_json(), GOLDEN);

        // An empty sessions array is omitted, key and all.
        let mut r = sample_report();
        r.sessions.clear();
        let (start, end) = (
            GOLDEN.find(",\n  \"sessions\"").unwrap(),
            GOLDEN.find(",\n  \"queue_series\"").unwrap(),
        );
        assert_eq!(
            r.to_json(),
            format!("{}{}", &GOLDEN[..start], &GOLDEN[end..])
        );
    }

    #[test]
    fn sessions_are_validated() {
        let mut dup = sample_report();
        dup.sessions[1].id = dup.sessions[0].id;
        assert!(dup.validate().is_err(), "duplicate session id");

        let mut bad = sample_report();
        bad.sessions[0].plan = "quantum".into();
        assert!(bad.validate().is_err(), "bad session plan");
    }

    #[test]
    fn counters_and_workload_are_looked_up_by_name() {
        let r = sample_report();
        assert_eq!(r.counter("distance_calcs"), 12345);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.workload("k"), Some(1000.0));
        assert_eq!(r.workload("missing"), None);
        assert_eq!(r.sessions[0].counter("pq.bytes_peak"), 4096);
        assert_eq!(r.sessions[1].counter("buf.accesses"), 0);
    }

    #[test]
    fn profile_conservation_and_validation() {
        let r = sample_report();
        let p = r.profile.as_ref().unwrap();
        // 0.9 s attributed of a 1.25 s wall clock: conserves, 72% coverage.
        assert!(p.conserves(0.25));
        assert!((p.attributed_fraction() - 0.72).abs() < 1e-9);

        let mut bad = r.clone();
        bad.profile.as_mut().unwrap().phases[0].phase = "warp_drive".into();
        assert!(bad.validate().is_err(), "unknown phase name");

        let mut bad = r.clone();
        bad.profile.as_mut().unwrap().phases[0].calls = 0;
        assert!(bad.validate().is_err(), "zero calls");

        let mut bad = r.clone();
        bad.profile.as_mut().unwrap().phases[0].sampled_calls = u64::MAX;
        assert!(bad.validate().is_err(), "sampled > calls");

        let mut bad = r.clone();
        bad.calibration.as_mut().unwrap().choice = "quantum".into();
        assert!(bad.validate().is_err(), "bad plan choice");

        let mut over = r;
        over.profile.as_mut().unwrap().phases[0].est_total_ns = 5e9;
        assert!(!over.profile.unwrap().conserves(0.25), "attribution > wall");
    }

    #[test]
    fn validate_catches_bad_series() {
        let mut r = sample_report();
        r.distance_by_rank = vec![(1, 0.5), (1, 0.6)];
        assert!(r.validate().is_err(), "duplicate rank");
        r.distance_by_rank = vec![(1, 0.5), (2, 0.1)];
        assert!(r.validate().is_err(), "decreasing distance");
        r.distance_by_rank = vec![(1, -0.5)];
        assert!(r.validate().is_err(), "negative distance");
        r.distance_by_rank.clear();
        r.host.as_mut().unwrap().nproc = 0;
        assert!(r.validate().is_err(), "zero nproc");
    }

    #[test]
    fn grow_then_drain_shape_check() {
        let mut r = sample_report();
        assert!(r.grow_then_drain());
        r.queue_series = vec![(0, 10), (1, 11), (2, 12)];
        assert!(!r.grow_then_drain(), "monotone growth is not a drain");
        r.queue_series.clear();
        assert!(!r.grow_then_drain());
    }

    #[test]
    fn write_atomic_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("sdj_obs_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sparkline_renders_shapes() {
        assert_eq!(sparkline(&[], 10), "");
        let flat = sparkline(&[1.0, 1.0, 1.0], 3);
        assert_eq!(flat, "▁▁▁");
        let ramp = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 8);
        assert_eq!(ramp, "▁▂▃▄▅▆▇█");
        let peak = sparkline(&[0.0, 10.0, 0.0], 3);
        assert_eq!(peak.chars().count(), 3);
        assert!(peak.contains('█'));
        // Width smaller than data downsamples, keeping peaks.
        let wide = sparkline(&[0.0, 0.0, 9.0, 0.0, 0.0, 0.0], 2);
        assert_eq!(wide.chars().count(), 2);
        assert!(wide.contains('█'));
    }

    #[test]
    fn escape_into_escapes_specials() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn recorder_collects_and_decimates() {
        let rec = RunRecorder::new();
        for i in 0..10_000u64 {
            rec.emit(&Event::QueueSampled {
                pops: i,
                len: i % 100,
                results: i,
            });
            rec.emit(&Event::ResultReported {
                rank: i + 1,
                dist: i as f64 * 0.001,
            });
        }
        let mut report = RunReport::new("decimation");
        rec.fill_report(&mut report);
        assert!(report.queue_series.len() <= SERIES_CAP);
        assert!(report.distance_by_rank.len() <= SERIES_CAP);
        assert!(report.queue_series.len() > SERIES_CAP / 4);
        // The final result survives decimation.
        assert_eq!(report.distance_by_rank.last().unwrap().0, 10_000);
        assert_eq!(report.events_recorded, 20_000);
        report.validate().expect("valid after decimation");
    }
}
