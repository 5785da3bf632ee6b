//! End-to-end run of the `exp` binary: `--out DIR` writes each artefact's
//! table to `DIR/<artefact>.txt` and every measured run's events, to the
//! last one, to `DIR/<artefact>.ndjson`.

use std::path::Path;
use std::process::Command;

use sdj_bench::sweep_up_to;
use sdj_obs::Event;

/// The events of one artefact's log, in order.
fn events(dir: &Path, artefact: &str) -> Vec<Event> {
    let log = std::fs::read_to_string(dir.join(format!("{artefact}.ndjson"))).unwrap();
    log.lines()
        .map(|line| Event::parse_ndjson(line).unwrap_or_else(|| panic!("bad line {line}")))
        .collect()
}

fn result_ranks(events: &[Event]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::ResultReported { rank, .. } => Some(*rank),
            _ => None,
        })
        .collect()
}

/// The sampled ranks of one run that reports `k` results: every 64th.
fn sampled(k: u64) -> impl Iterator<Item = u64> {
    (1..=k / 64).map(|i| i * 64)
}

#[test]
fn out_dir_holds_each_artefacts_table_and_complete_event_log() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("exp-out");
    let _ = std::fs::remove_dir_all(&dir);
    let run = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(["table1", "fig8", "--scale", "0.01", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    for artefact in ["table1", "fig8"] {
        let text = std::fs::read_to_string(dir.join(format!("{artefact}.txt"))).unwrap();
        assert!(text.lines().count() > 8, "{artefact}.txt holds its table");
    }

    // 375 × 2005 points: the sweep runs K = 1 … 100,000. Table 1's log holds
    // exactly its six runs, flushed to the end; the warm-up run is not in it.
    let ks = sweep_up_to(100_000);
    let table1 = result_ranks(&events(&dir, "table1"));
    let expected: Vec<u64> = ks.iter().flat_map(|&k| sampled(k)).collect();
    assert_eq!(table1.len(), 1_734);
    assert_eq!(table1.last(), Some(&99_968));
    assert_eq!(table1, expected);

    // Figure 8 runs the memory queue and two hybrid queues at every K; all
    // three log, and the hybrid queues report their tier migrations.
    let fig8 = events(&dir, "fig8");
    let expected: Vec<u64> = ks
        .iter()
        .flat_map(|&k| (0..3).flat_map(move |_| sampled(k)))
        .collect();
    assert_eq!(result_ranks(&fig8), expected);
    assert!(fig8
        .iter()
        .any(|e| matches!(e, Event::TierMigration { .. })));
    std::fs::remove_dir_all(&dir).unwrap();
}
