//! Multi-workload commands. Each workload runs in its own child process, so
//! `peak_rss_mb` is per workload and no workload inherits another's heap.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::metrics::{manifest, MetricDef, END_TO_END, PER_LAYER};
use crate::workload::SPECS;
use crate::Options;

/// Short hash of the checked-out commit, `unknown` outside a git checkout.
pub fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Metric values one child printed, by name.
type Values = BTreeMap<String, f64>;

/// Runs `run --workload ...` in a child process, echoes its output, and
/// parses its `workload metric value unit` lines. `Err` when the child
/// could not run or exited non-zero (failed verification included).
fn child(workload: &str, o: &Options, trace: bool) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args([
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
        ])
        .args([
            "--scale",
            &o.scale.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut values = Values::new();
    for line in stdout.lines() {
        println!("{line}");
        let mut words = line.split_whitespace();
        if words.next() == Some(workload) {
            if let (Some(name), Some(Ok(v))) = (words.next(), words.next().map(str::parse::<f64>)) {
                values.insert(name.to_owned(), v);
            }
        }
    }
    if out.status.success() {
        Ok(values)
    } else {
        Err(format!(
            "the {workload} run (trace={}) failed: {}",
            u8::from(trace),
            out.status
        ))
    }
}

/// Names of `table` that `values` lacks or holds a non-finite number for.
fn missing<'a>(table: &'a [MetricDef], values: &Values) -> Vec<&'a str> {
    table
        .iter()
        .map(|m| m.name)
        .filter(|n| !values.get(*n).is_some_and(|v| v.is_finite()))
        .collect()
}

fn exit(failures: &[String]) -> ExitCode {
    for f in failures {
        eprintln!("FAILED: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `all`: every workload, untraced then traced.
pub fn all(o: &Options) -> Result<ExitCode, String> {
    let mut failures = Vec::new();
    for spec in &SPECS {
        for trace in [false, true] {
            if let Err(e) = child(spec.name, o, trace) {
                failures.push(e);
            }
        }
    }
    Ok(exit(&failures))
}

/// `repeat`: the untraced suite twice on the same seed; every
/// (workload, end-to-end metric) pair must agree within the metric's bound.
pub fn repeat(o: &Options) -> Result<ExitCode, String> {
    let mut failures = Vec::new();
    let mut passes: [Vec<Values>; 2] = [Vec::new(), Vec::new()];
    for pass in &mut passes {
        for spec in &SPECS {
            pass.push(child(spec.name, o, false).unwrap_or_else(|e| {
                failures.push(e);
                Values::new()
            }));
        }
    }
    println!(
        "# repeat: {:<16} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for (i, spec) in SPECS.iter().enumerate() {
        for m in END_TO_END {
            let (Some(a), Some(b)) = (passes[0][i].get(m.name), passes[1][i].get(m.name)) else {
                failures.push(format!("{} {}: missing from a pass", spec.name, m.name));
                continue;
            };
            let diff = (b - a).abs() / a.abs();
            let verdict = if diff <= m.bound { "ok" } else { "DISAGREE" };
            println!(
                "# repeat: {:<16} {:<22} {a:>14.4} {b:>14.4} {diff:>9.4} {:>7} {verdict}",
                spec.name, m.name, m.bound
            );
            if diff > m.bound {
                failures.push(format!(
                    "{} {}: {a} vs {b} differ by {diff:.4} > {}",
                    spec.name, m.name, m.bound
                ));
            }
        }
    }
    Ok(exit(&failures))
}

/// `quick`: the five workloads at 1/20 scale for a fraction of a second
/// each, untraced and traced. Checks that `BENCHMARK.json` is what the
/// metric tables generate, that every metric it names is emitted with a
/// finite value, and that verification passes.
pub fn quick(o: &Options) -> Result<ExitCode, String> {
    let mut failures = Vec::new();
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) if text == manifest() => {}
        Ok(_) => {
            failures.push("BENCHMARK.json differs from `manifest` output: regenerate it".into())
        }
        Err(e) => failures.push(format!(
            "cannot read BENCHMARK.json (run from the repository root): {e}"
        )),
    }
    let o = Options {
        seconds: 0.25,
        scale: 0.05,
        workload: None,
        join_config: None,
        ..*o
    };
    for spec in &SPECS {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            match child(spec.name, &o, trace) {
                Ok(values) => {
                    let lacking = missing(table, &values);
                    if !lacking.is_empty() {
                        failures.push(format!(
                            "{} (trace={}): no finite value for {lacking:?}",
                            spec.name,
                            u8::from(trace)
                        ));
                    }
                }
                Err(e) => failures.push(e),
            }
        }
    }
    Ok(exit(&failures))
}
