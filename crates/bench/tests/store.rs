//! The `--store` root, end to end through the built `belenos` binary: a
//! first run fills the root's `cache/` with results and its `traces/`
//! with trace artifacts, a second run simulates nothing and misses no
//! trace, and both print the report a memory-only run prints.

use belenos_json::Json;
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Command;

fn smoke_spec() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/smoke.json")
}

/// Runs `belenos campaign run examples/smoke.json --max-ops 2000` plus
/// `extra`, and returns its stdout.
fn campaign(extra: &[&OsStr]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_belenos"))
        .args(["campaign", "run"])
        .arg(smoke_spec())
        .args(["--max-ops", "2000", "--jobs", "1"])
        .args(extra)
        .output()
        .expect("belenos runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// The summed `value` of every counter event named `counter` in a JSONL
/// telemetry file, and how many such events there were.
fn counter(events: &Path, counter: &str) -> (usize, f64) {
    let text = std::fs::read_to_string(events).expect("telemetry file");
    text.lines()
        .map(|line| Json::parse(line).expect("one JSON event a line"))
        .filter(|e| {
            e.get("ev").and_then(Json::as_str) == Some("counter")
                && e.get("name").and_then(Json::as_str) == Some(counter)
        })
        .fold((0, 0.0), |(n, sum), e| {
            (
                n + 1,
                sum + e.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            )
        })
}

fn files_with_extension(dir: &Path, ext: &str) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == ext))
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn a_store_root_replays_a_campaign_without_simulating() {
    let root = std::env::temp_dir().join(format!("belenos-store-root-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let store = root.join("store");
    let (cold, warm) = (root.join("cold.jsonl"), root.join("warm.jsonl"));

    let plain = campaign(&[]);
    for events in [&cold, &warm] {
        let stdout = campaign(&[
            OsStr::new("--store"),
            store.as_os_str(),
            OsStr::new("--telemetry"),
            events.as_os_str(),
        ]);
        // `--telemetry` appends its roll-up table after the report.
        let rest = stdout.strip_prefix(plain.as_str());
        assert!(
            rest.is_some_and(|rest| rest.starts_with("Telemetry roll-up")),
            "{}: the report differs from a memory-only run's",
            events.display()
        );
    }

    assert!(files_with_extension(&store.join("cache"), "stats") > 0);
    assert!(files_with_extension(&store.join("traces"), "bin") > 0);
    assert!(counter(&cold, "jobs_simulated").1 > 0.0);
    assert_eq!(counter(&warm, "jobs_simulated").1, 0.0);
    assert_eq!(counter(&warm, "trace_store_miss").0, 0);
    assert!(counter(&warm, "trace_store_hit").0 > 0);
    let _ = std::fs::remove_dir_all(&root);
}
