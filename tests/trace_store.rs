//! End-to-end tests of the persistent content-addressed trace store:
//! warm prepares must skip the FE solve yet reproduce the cold
//! experiment exactly (fingerprint, solve summary, and simulated
//! statistics), and every damaged-entry shape — truncation anywhere,
//! version skew, key or fingerprint mismatch, a corrupt lazy flat
//! section — must degrade to a recompute-and-overwrite with a
//! structured `warn`, never a panic or a wrong trace.
//!
//! Events are captured with `belenos_telemetry::capture`, which scopes
//! a buffer sink to the calling thread, so tests running on parallel
//! threads — and prepares outside any capture — never see each other's.

use belenos::experiment::Experiment;
use belenos::trace_store::TraceStore;
use belenos_json::Json;
use belenos_telemetry::capture;
use belenos_trace::{StoreHeader, HEADER_LEN};
use belenos_workloads::ScenarioSpec;
use std::path::{Path, PathBuf};

/// Counter totals for `name` across the captured events.
fn counter_total(events: &[Json], name: &str) -> u64 {
    events
        .iter()
        .filter(|e| {
            e.get("ev").and_then(Json::as_str) == Some("counter")
                && e.get("name").and_then(Json::as_str) == Some(name)
        })
        .map(|e| e.get("value").and_then(Json::as_f64).unwrap_or(0.0) as u64)
        .sum()
}

/// The `warn` event messages among the captured events.
fn warnings(events: &[Json]) -> Vec<String> {
    events
        .iter()
        .filter(|e| e.get("ev").and_then(Json::as_str) == Some("warn"))
        .filter_map(|e| e.get("msg").and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// A small scenario with a unique id per test, so parallel tests never
/// share a store entry or a telemetry label. The kernel-op cap is
/// lowered so the expanded trace fits the store's embed cap and the
/// entry carries a flat section (which several tests corrupt).
fn small_scenario(tag: &str) -> ScenarioSpec {
    let mut spec = belenos_workloads::by_id("pd")
        .expect("pd preset")
        .with_resolution(3);
    spec.id = format!("pd-store-{tag}");
    spec.expand.max_kernel_ops = 2_000;
    spec
}

/// A fresh per-test store directory under the system temp dir.
fn fresh_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("belenos-store-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn entry_path(store: &TraceStore, spec: &ScenarioSpec) -> PathBuf {
    store.entry_path(spec.stable_digest(), &spec.expand_config())
}

fn read_entry(path: &Path) -> Vec<u8> {
    std::fs::read(path).expect("store entry readable")
}

/// Asserts the entry at `path` was rewritten into a fully decodable
/// artifact carrying `fingerprint`. (Byte identity with the original is
/// too strict — `SolveMeta` records wall time, which varies per run.)
fn assert_repaired(path: &Path, fingerprint: u64, ctx: &str) {
    let bytes = read_entry(path);
    let artifact = belenos_trace::TraceArtifact::decode(&bytes)
        .unwrap_or_else(|e| panic!("{ctx}: rewritten entry undecodable: {e}"));
    assert_eq!(artifact.trace_fingerprint, fingerprint, "{ctx}");
}

/// Runs for two scenarios at once, the cold prepares provably
/// overlapping, each thread capturing on its own: every count below is
/// exact only if a capture holds nothing of the other thread's run.
#[test]
fn warm_prepare_skips_fem_and_reproduces_the_experiment() {
    let both = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| warm_prepare_case("warm-a", &both));
        warm_prepare_case("warm-b", &both);
    });
}

fn warm_prepare_case(tag: &str, both: &std::sync::Barrier) {
    let spec = small_scenario(tag);
    let dir = fresh_store_dir(tag);
    let store = TraceStore::at(&dir);

    let (cold, cold_events) = capture(|| {
        both.wait();
        let cold = Experiment::prepare_with_store(&spec, Some(&store)).unwrap();
        // Neither capture ends before both prepares have.
        both.wait();
        cold
    });
    let phases: Vec<&str> = cold_events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("phase"))
        .filter_map(|e| e.get("workload").and_then(Json::as_str))
        .collect();
    assert!(
        !phases.is_empty() && phases.iter().all(|w| *w == spec.id),
        "{phases:?}"
    );
    assert_eq!(counter_total(&cold_events, "trace_store_miss"), 1);
    assert_eq!(counter_total(&cold_events, "trace_store_hit"), 0);
    assert!(counter_total(&cold_events, "trace_store_write_bytes") > 0);
    assert!(entry_path(&store, &spec).exists());

    let (warm, warm_events) =
        capture(|| Experiment::prepare_with_store(&spec, Some(&store)).unwrap());
    assert_eq!(counter_total(&warm_events, "trace_store_miss"), 0);
    assert_eq!(counter_total(&warm_events, "trace_store_hit"), 1);
    assert!(warnings(&warm_events).is_empty(), "{warm_events:?}");

    assert_eq!(warm.trace_fingerprint(), cold.trace_fingerprint());
    assert_eq!(warm.log().len(), cold.log().len());
    assert_eq!(warm.solve.n_dofs, cold.solve.n_dofs);
    assert_eq!(warm.solve.iterations, cold.solve.iterations);
    assert_eq!(warm.solve.converged, cold.solve.converged);
    // The replayed experiment must simulate bit-identically — this
    // drives the lazy flat-section read end to end.
    let a = cold.simulate_baseline(20_000);
    let b = warm.simulate_baseline(20_000);
    assert!(a == b, "store-hit simulation diverged from cold prepare");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entries_recompute_and_overwrite() {
    let spec = small_scenario("trunc");
    let dir = fresh_store_dir("trunc");
    let store = TraceStore::at(&dir);
    let baseline = Experiment::prepare_with_store(&spec, Some(&store)).unwrap();
    let path = entry_path(&store, &spec);
    let intact = read_entry(&path);
    let header = StoreHeader::decode(&intact).unwrap();

    // Cut inside the header, inside the log section, and inside the
    // flat section: every shape must fall back to a verified recompute
    // that repairs the entry in place.
    let cuts = [
        HEADER_LEN / 2,
        HEADER_LEN + (header.log_len as usize) / 2,
        header.flat_offset() as usize + (header.flat_len as usize) / 2,
    ];
    for cut in cuts {
        std::fs::write(&path, &intact[..cut]).unwrap();
        let (exp, events) =
            capture(|| Experiment::prepare_with_store(&spec, Some(&store)).unwrap());
        assert_eq!(exp.trace_fingerprint(), baseline.trace_fingerprint());
        assert_eq!(counter_total(&events, "trace_store_miss"), 1, "cut {cut}");
        assert_eq!(counter_total(&events, "trace_store_hit"), 0, "cut {cut}");
        let warns = warnings(&events);
        assert!(
            warns.iter().any(|w| w.contains("truncated")),
            "cut {cut}: {warns:?}"
        );
        assert_repaired(&path, baseline.trace_fingerprint(), &format!("cut {cut}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_version_recomputes_and_overwrites() {
    let spec = small_scenario("version");
    let dir = fresh_store_dir("version");
    let store = TraceStore::at(&dir);
    let baseline = Experiment::prepare_with_store(&spec, Some(&store)).unwrap();
    let path = entry_path(&store, &spec);
    let intact = read_entry(&path);

    let mut skewed = intact.clone();
    skewed[12] = 99; // version field follows the 12-byte magic
    std::fs::write(&path, &skewed).unwrap();
    let (exp, events) = capture(|| Experiment::prepare_with_store(&spec, Some(&store)).unwrap());
    assert_eq!(exp.trace_fingerprint(), baseline.trace_fingerprint());
    assert_eq!(counter_total(&events, "trace_store_miss"), 1);
    let warns = warnings(&events);
    assert!(warns.iter().any(|w| w.contains("version 99")), "{warns:?}");
    assert_repaired(&path, baseline.trace_fingerprint(), "version skew");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn key_and_fingerprint_mismatches_recompute_and_overwrite() {
    let spec = small_scenario("key");
    let dir = fresh_store_dir("key");
    let store = TraceStore::at(&dir);
    let baseline = Experiment::prepare_with_store(&spec, Some(&store)).unwrap();
    let path = entry_path(&store, &spec);
    let intact = read_entry(&path);

    // Scenario-digest skew (a misfiled entry) and trace-fingerprint skew
    // (a stale entry) live at different header offsets; both must read
    // as misses with their own warn shapes.
    for (offset, needle) in [
        (16, "keyed for a different scenario"),
        (32, "fingerprint mismatch"),
    ] {
        let mut corrupt = intact.clone();
        corrupt[offset] ^= 0xff;
        std::fs::write(&path, &corrupt).unwrap();
        let (exp, events) =
            capture(|| Experiment::prepare_with_store(&spec, Some(&store)).unwrap());
        assert_eq!(exp.trace_fingerprint(), baseline.trace_fingerprint());
        assert_eq!(counter_total(&events, "trace_store_miss"), 1, "{needle}");
        let warns = warnings(&events);
        assert!(
            warns.iter().any(|w| w.contains(needle)),
            "wanted `{needle}` in {warns:?}"
        );
        assert_repaired(&path, baseline.trace_fingerprint(), needle);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_flat_section_still_simulates_identically() {
    let spec = small_scenario("flat");
    let dir = fresh_store_dir("flat");
    let store = TraceStore::at(&dir);
    let cold = Experiment::prepare_with_store(&spec, Some(&store)).unwrap();
    let reference = cold.simulate_baseline(20_000);
    let path = entry_path(&store, &spec);
    let mut bytes = read_entry(&path);
    let header = StoreHeader::decode(&bytes).unwrap();
    assert!(
        header.flat_ops > 0,
        "test scenario must embed a flat section"
    );

    // Flip a byte inside the flat payload. The load (header + log only)
    // still hits; the lazy flat decode at simulate time must notice the
    // checksum, warn, and fall back to re-expansion — bit-identically.
    let idx = header.flat_offset() as usize + (header.flat_len as usize) / 3;
    bytes[idx] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let ((warm, stats), events) = capture(|| {
        let warm = Experiment::prepare_with_store(&spec, Some(&store)).unwrap();
        let stats = warm.simulate_baseline(20_000);
        (warm, stats)
    });
    assert_eq!(counter_total(&events, "trace_store_hit"), 1);
    assert_eq!(counter_total(&events, "trace_store_miss"), 0);
    assert_eq!(warm.trace_fingerprint(), cold.trace_fingerprint());
    let warns = warnings(&events);
    assert!(
        warns.iter().any(|w| w.contains("flat section")),
        "{warns:?}"
    );
    assert!(
        stats == reference,
        "corrupt flat section must never change simulated statistics"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
