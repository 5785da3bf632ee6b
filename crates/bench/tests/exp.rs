//! End-to-end run of the `exp` binary: `--out DIR` writes each artefact's
//! table to `DIR/<artefact>.txt` and every measured run's events, to the
//! last one, to `DIR/<artefact>.ndjson`, the same bytes on every run.

use std::path::{Path, PathBuf};
use std::process::Command;

use sdj_bench::sweep_up_to;

/// Runs `exp <artefacts> --scale 0.01 --out DIR` into a fresh `DIR`.
fn run_exp(artefacts: &[&str], dir_name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir_name);
    let _ = std::fs::remove_dir_all(&dir);
    let run = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(artefacts)
        .args(["--scale", "0.01", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    dir
}

/// The lines of one artefact's event log, in order.
fn log(dir: &Path, artefact: &str) -> String {
    std::fs::read_to_string(dir.join(format!("{artefact}.ndjson"))).unwrap()
}

/// The ranks of the log's `result_reported` events, read off the line
/// prefix `{"e":"result_reported","rank":N,` that the writer renders.
fn result_ranks(log: &str) -> Vec<u64> {
    log.lines()
        .filter_map(|line| line.strip_prefix(r#"{"e":"result_reported","rank":"#))
        .map(|rest| {
            let (rank, _) = rest.split_once(',').unwrap();
            rank.parse().unwrap()
        })
        .collect()
}

/// The sampled ranks of one run that reports `k` results: every 64th.
fn sampled(k: u64) -> impl Iterator<Item = u64> {
    (1..=k / 64).map(|i| i * 64)
}

#[test]
fn out_dir_holds_each_artefacts_table_and_complete_event_log() {
    let dir = run_exp(&["table1", "fig8"], "exp-out");
    for artefact in ["table1", "fig8"] {
        let text = std::fs::read_to_string(dir.join(format!("{artefact}.txt"))).unwrap();
        assert!(text.lines().count() > 8, "{artefact}.txt holds its table");
    }

    // 375 × 2005 points: the sweep runs K = 1 … 100,000. Table 1's log holds
    // exactly its six runs, flushed to the end; the warm-up run is not in it.
    let ks = sweep_up_to(100_000);
    let table1 = result_ranks(&log(&dir, "table1"));
    let expected: Vec<u64> = ks.iter().flat_map(|&k| sampled(k)).collect();
    assert_eq!(table1.len(), 1_734);
    assert_eq!(table1.last(), Some(&99_968));
    assert_eq!(table1, expected);

    // Figure 8 runs the memory queue and two hybrid queues at every K; all
    // three log, and the hybrid queues report their tier migrations.
    let fig8 = log(&dir, "fig8");
    let expected: Vec<u64> = ks
        .iter()
        .flat_map(|&k| (0..3).flat_map(move |_| sampled(k)))
        .collect();
    assert_eq!(result_ranks(&fig8), expected);
    assert!(fig8
        .lines()
        .any(|line| line.starts_with(r#"{"e":"tier_migration","#)));

    // A second run writes the same log, byte for byte.
    let again = run_exp(&["table1"], "exp-out-again");
    assert_eq!(
        std::fs::read(dir.join("table1.ndjson")).unwrap(),
        std::fs::read(again.join("table1.ndjson")).unwrap(),
        "table1.ndjson differs between two runs"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&again).unwrap();
}
