//! The repository's benchmark. See `README.md` in this directory.

mod measure;
mod metrics;
mod probe;
mod stats;
mod suite;
mod trace;
mod verify;
mod workload;

use std::process::ExitCode;

use sdj_core::{ExpansionPath, JoinConfig, KeyDomain, QueueLayout};

use measure::RunArgs;
use metrics::{Report, END_TO_END, PER_LAYER, RUN_SECONDS};
use workload::Spec;

const USAGE: &str = "usage: sdj-benchmark <command> [options]
  run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale F] [--join-config k=v,...]
        one workload in this process; prints `workload metric value unit` lines, then one JSON object
  all [--seed N] [--seconds S]      every workload, untraced then traced, one process each
  repeat [--seed N] [--seconds S]   the untraced suite twice; fails if the two disagree beyond the bounds
  quick                             every workload at 1/20 scale; checks names, finiteness and verification
  manifest                          prints BENCHMARK.json as generated from the metric tables
--join-config (traced runs only, never a baseline): layout=flat|pairing, prefetch=<n>,
        key_domain=plain|squared, expansion=scalar|batched|lanes";

/// Options shared by the subcommands.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    pub join_config: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1998,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        scale: 1.0,
        join_config: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => o.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--scale" => o.scale = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--join-config" => o.join_config = Some(value.clone()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if o.seconds > 0.0 && o.seconds <= 600.0 && o.scale > 0.0 && o.scale <= 1.0 {
        Ok(o)
    } else {
        Err("--seconds must be in (0, 600] and --scale in (0, 1]".into())
    }
}

/// Applies `--join-config` overrides of existing `JoinConfig` fields.
fn join_config(overrides: Option<&str>) -> Result<JoinConfig, String> {
    let mut config = JoinConfig::default();
    for kv in overrides
        .unwrap_or("")
        .split([',', '|'])
        .filter(|s| !s.is_empty())
    {
        let (key, value) = kv
            .split_once('=')
            .ok_or_else(|| format!("--join-config: {kv:?} is not key=value"))?;
        match (key, value) {
            ("layout", "flat") => config.layout = QueueLayout::FlatDary,
            ("layout", "pairing") => config.layout = QueueLayout::Pairing,
            ("key_domain", "plain") => config.key_domain = KeyDomain::Plain,
            ("key_domain", "squared") => config.key_domain = KeyDomain::Squared,
            ("expansion", "scalar") => config.expansion = ExpansionPath::Scalar,
            ("expansion", "batched") => config.expansion = ExpansionPath::Batched,
            ("expansion", "lanes") => config.expansion = ExpansionPath::Lanes,
            ("prefetch", n) => {
                config.prefetch_depth = n
                    .parse()
                    .map_err(|_| format!("--join-config: prefetch={n:?}"))?;
            }
            _ => return Err(format!("--join-config: unknown override {kv:?}")),
        }
    }
    Ok(config)
}

fn host_line(name: &str) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |l| l.trim_start_matches([' ', '\t', ':']));
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "# {name}: commit={} nproc={nproc} cpu=\"{model}\"",
        suite::commit()
    )
}

/// `run`: one workload, in this process.
fn run(o: &Options) -> Result<ExitCode, String> {
    let name = o.workload.as_deref().ok_or("run needs --workload")?;
    let spec = Spec::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; the workloads are {names:?}")
    })?;
    if o.join_config.is_some() && !o.trace {
        return Err("--join-config is for traced runs only: end-to-end numbers are never taken with an override".into());
    }
    let args = RunArgs {
        seed: o.seed,
        seconds: o.seconds,
        config: join_config(o.join_config.as_deref())?,
    };
    let spec = spec.scaled(o.scale);
    println!("{}", host_line(name));
    println!(
        "# {name}: seed={} seconds={} scale={} trace={} threads=1 clients=1 (closed loop)",
        o.seed,
        o.seconds,
        o.scale,
        u8::from(o.trace)
    );
    if let Some(c) = &o.join_config {
        println!("# {name}: OVERRIDE {c} -- for explanation only, not comparable to BENCHMARK.json baselines");
    }
    let mut report = Report::default();
    if o.trace {
        trace::run_traced(&spec, &args, &mut report);
        report.print(name, PER_LAYER);
    } else {
        measure::run_untraced(&spec, &args, &mut report);
        report.print(name, END_TO_END);
    }
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // Hygiene: `AdaptiveConfig::from_env`, `SDJ_PLAN_BIAS` and
    // `SessionConfig::default()` read the environment; a stray variable
    // would silently change what the numbers mean.
    if let Some((k, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("SDJ_"))
    {
        eprintln!(
            "refusing to run with {} set: unset every SDJ_* variable first",
            k.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = parse(rest).and_then(|o| match command.as_str() {
        "run" => run(&o),
        "all" => suite::all(&o),
        "repeat" => suite::repeat(&o),
        "quick" => suite::quick(&o),
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(format!("unknown command {command:?}")),
    });
    result.unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        ExitCode::from(2)
    })
}
