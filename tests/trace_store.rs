//! End-to-end tests of the persistent content-addressed trace store:
//! warm prepares must skip the FE solve yet reproduce the cold
//! experiment exactly (fingerprint, solve summary, and simulated
//! statistics); every damaged-entry shape — truncation, hostile length
//! fields, version skew, key, fingerprint or checksum mismatch — must
//! degrade to a recompute-and-overwrite with a `warn` and a
//! `trace_store_miss` naming the reason, never a panic or a wrong trace;
//! and threads racing to write one entry must never tear it.
//!
//! Events are captured with `belenos_telemetry::capture`, which scopes
//! a buffer sink to the calling thread, so tests running on parallel
//! threads — and prepares outside any capture — never see each other's.

use belenos::experiment::Experiment;
use belenos::trace_store::TraceStore;
use belenos_json::Json;
use belenos_runner::{Cache, CacheKey};
use belenos_telemetry::capture;
use belenos_trace::{StoreHeader, TraceArtifact, HEADER_LEN};
use belenos_uarch::{CoreConfig, SamplingConfig, SimStats};
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

/// The `reason` field of every `trace_store_miss` among the events.
fn miss_reasons(events: &[Json]) -> Vec<String> {
    events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("trace_store_miss"))
        .map(|e| {
            let reason = e.get("reason").and_then(Json::as_str);
            reason
                .expect("every trace_store_miss carries a reason")
                .to_string()
        })
        .collect()
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
/// share a store entry or a telemetry label.
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
    let artifact = TraceArtifact::decode(&bytes)
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
    assert_eq!(miss_reasons(&cold_events), ["absent"]);
    assert_eq!(counter_total(&cold_events, "trace_store_hit"), 0);
    assert!(warnings(&cold_events).is_empty(), "{cold_events:?}");
    // What the program writes is header + kernel log, nothing else.
    let written = read_entry(&entry_path(&store, &spec));
    let header = StoreHeader::decode(&written).unwrap();
    assert_eq!(header.flat_ops, 0);
    assert_eq!(header.total_len(), written.len() as u64);
    assert_eq!(
        counter_total(&cold_events, "trace_store_write_bytes"),
        written.len() as u64
    );

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
    // The replayed experiment re-expands the stored log and must
    // simulate bit-identically.
    let a = cold.simulate_baseline(20_000);
    let b = warm.simulate_baseline(20_000);
    assert!(a == b, "store-hit simulation diverged from cold prepare");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `damaged` over the entry of a freshly stored scenario and
/// asserts the next prepare misses for exactly `reason`, warns once,
/// reproduces the baseline trace and repairs the entry in place.
fn assert_damage_is_a_reported_miss(
    spec: &ScenarioSpec,
    store: &TraceStore,
    fingerprint: u64,
    damaged: &[u8],
    reason: &str,
    ctx: &str,
) {
    let path = entry_path(store, spec);
    std::fs::write(&path, damaged).unwrap();
    let (exp, events) = capture(|| Experiment::prepare_with_store(spec, Some(store)).unwrap());
    assert_eq!(exp.trace_fingerprint(), fingerprint, "{ctx}");
    assert_eq!(miss_reasons(&events), [reason], "{ctx}");
    assert_eq!(counter_total(&events, "trace_store_hit"), 0, "{ctx}");
    assert_eq!(warnings(&events).len(), 1, "{ctx}: {events:?}");
    assert_repaired(&path, fingerprint, ctx);
}

#[test]
fn truncated_entries_recompute_and_overwrite() {
    let spec = small_scenario("trunc");
    let dir = fresh_store_dir("trunc");
    let store = TraceStore::at(&dir);
    let baseline = Experiment::prepare_with_store(&spec, Some(&store)).unwrap();
    let intact = read_entry(&entry_path(&store, &spec));
    let header = StoreHeader::decode(&intact).unwrap();

    // Cut inside the header and inside the log section: both must fall
    // back to a verified recompute that repairs the entry in place.
    for cut in [HEADER_LEN / 2, HEADER_LEN + (header.log_len as usize) / 2] {
        assert_damage_is_a_reported_miss(
            &spec,
            &store,
            baseline.trace_fingerprint(),
            &intact[..cut],
            "truncated",
            &format!("cut {cut}"),
        );
    }
    // Length fields no file could back (log_len, then flat_ops/flat_len)
    // read as truncation too — not as an overflow or a huge allocation.
    let mut huge_log = intact.clone();
    huge_log[40..48].fill(0xff);
    let mut huge_flat = intact.clone();
    let flat_ops = u64::MAX / 28;
    huge_flat[48..56].copy_from_slice(&flat_ops.to_le_bytes());
    huge_flat[56..64].copy_from_slice(&(flat_ops * 28).to_le_bytes());
    for (damaged, ctx) in [(huge_log, "huge log_len"), (huge_flat, "huge flat_len")] {
        assert_damage_is_a_reported_miss(
            &spec,
            &store,
            baseline.trace_fingerprint(),
            &damaged,
            "truncated",
            ctx,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_version_recomputes_and_overwrites() {
    let spec = small_scenario("version");
    let dir = fresh_store_dir("version");
    let store = TraceStore::at(&dir);
    let baseline = Experiment::prepare_with_store(&spec, Some(&store)).unwrap();
    let mut skewed = read_entry(&entry_path(&store, &spec));
    skewed[12] = 99; // version field follows the 12-byte magic
    assert_damage_is_a_reported_miss(
        &spec,
        &store,
        baseline.trace_fingerprint(),
        &skewed,
        "version",
        "version skew",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn key_and_fingerprint_mismatches_recompute_and_overwrite() {
    let spec = small_scenario("key");
    let dir = fresh_store_dir("key");
    let store = TraceStore::at(&dir);
    let baseline = Experiment::prepare_with_store(&spec, Some(&store)).unwrap();
    let intact = read_entry(&entry_path(&store, &spec));

    // Scenario-digest skew (a misfiled entry), trace-fingerprint skew (a
    // stale entry) and a flipped log byte live at different offsets;
    // each must read as a miss for its own reason.
    for (offset, reason) in [
        (16, "key"),
        (32, "fingerprint"),
        (HEADER_LEN + 9, "checksum"),
    ] {
        let mut corrupt = intact.clone();
        corrupt[offset] ^= 0xff;
        assert_damage_is_a_reported_miss(
            &spec,
            &store,
            baseline.trace_fingerprint(),
            &corrupt,
            reason,
            reason,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The program no longer writes flat sections, but the byte format is
/// unchanged: an entry that carries one (an older build's, or one built
/// by hand as here) still hits, and simulates from the verified log.
#[test]
fn an_entry_with_a_flat_section_still_hits_and_simulates_identically() {
    let spec = small_scenario("flat");
    let dir = fresh_store_dir("flat");
    let store = TraceStore::at(&dir);
    let cold = Experiment::prepare_with_store(&spec, Some(&store)).unwrap();
    let reference = cold.simulate_baseline(20_000);
    let path = entry_path(&store, &spec);

    let mut artifact = TraceArtifact::decode(&read_entry(&path)).unwrap();
    let expander = belenos_trace::expand::Expander::with_config(cold.log(), spec.expand_config());
    artifact.flat = Some(std::sync::Arc::new(expander.collect()));
    let bytes = artifact.encode();
    assert!(StoreHeader::decode(&bytes).unwrap().flat_ops > 0);
    std::fs::write(&path, &bytes).unwrap();

    let ((warm, stats), events) = capture(|| {
        let warm = Experiment::prepare_with_store(&spec, Some(&store)).unwrap();
        let stats = warm.simulate_baseline(20_000);
        (warm, stats)
    });
    assert_eq!(counter_total(&events, "trace_store_hit"), 1);
    assert!(miss_reasons(&events).is_empty(), "{events:?}");
    assert!(warnings(&events).is_empty(), "{events:?}");
    assert_eq!(warm.trace_fingerprint(), cold.trace_fingerprint());
    assert!(stats == reference, "store-hit simulation diverged");
    // The hit left the entry as it found it.
    assert_eq!(read_entry(&path), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Names of in-flight temps (`*.tmp*`) left in `dir`.
fn leftover_temps(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.contains(".tmp"))
        .collect()
}

/// Threads of one process cold-preparing one scenario into one store
/// directory (what `serve`'s two workers or `--local-workers 2` do): a
/// writer must never rename, truncate or delete a temp another writer
/// is still filling. Every save must land, every concurrent load must
/// either find nothing or a whole entry, and no temp may be left over.
#[test]
fn concurrent_writers_of_one_trace_entry_never_tear_it() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 8;
    let spec = small_scenario("race");
    let dir = fresh_store_dir("race");
    let store = TraceStore::at(&dir);
    let path = entry_path(&store, &spec);
    let start = std::sync::Barrier::new(WRITERS + 1);
    let writing = std::sync::atomic::AtomicUsize::new(WRITERS);

    let events = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                s.spawn(|| {
                    let ((), events) = capture(|| {
                        for _ in 0..ROUNDS {
                            // Every round starts cold for every writer.
                            start.wait();
                            Experiment::prepare_with_store(&spec, Some(&store)).unwrap();
                            start.wait();
                        }
                    });
                    writing.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                    events
                })
            })
            .collect();
        let reader = s.spawn(|| {
            capture(|| {
                while writing.load(std::sync::atomic::Ordering::SeqCst) > 0 {
                    store.load(&spec.id, spec.stable_digest(), &spec.expand_config());
                }
            })
            .1
        });
        for _ in 0..ROUNDS {
            let _ = std::fs::remove_file(&path);
            start.wait();
            start.wait();
        }
        let mut events = reader.join().unwrap();
        for writer in writers {
            events.extend(writer.join().unwrap());
        }
        events
    });

    assert!(warnings(&events).is_empty(), "{:?}", warnings(&events));
    assert!(
        miss_reasons(&events).iter().all(|r| r == "absent"),
        "{:?}",
        miss_reasons(&events)
    );
    assert!(
        leftover_temps(&dir).is_empty(),
        "{:?}",
        leftover_temps(&dir)
    );
    TraceArtifact::decode(&read_entry(&path)).expect("the surviving entry is whole");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same race through the result cache's disk tier: threads inserting
/// one key while other processes' views (a fresh `Cache` per lookup)
/// read it. Once the first insert has landed the entry is only ever
/// replaced whole, so a lookup may never miss again.
#[test]
fn concurrent_writers_of_one_stats_entry_never_tear_it() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 1000;
    let dir = fresh_store_dir("race-stats");
    let key = CacheKey::new(
        "race",
        7,
        &CoreConfig::gem5_baseline(),
        1_000,
        &SamplingConfig::off(),
    );
    let stats = SimStats {
        freq_ghz: 3.0,
        cycles: 12_345,
        committed_ops: 6_789,
        ..SimStats::default()
    };
    let start = std::sync::Barrier::new(WRITERS + 1);
    let writing = std::sync::atomic::AtomicUsize::new(WRITERS);

    let ((), events) = capture(|| {
        std::thread::scope(|s| {
            for _ in 0..WRITERS {
                s.spawn(|| {
                    let cache = Cache::with_disk(&dir);
                    start.wait();
                    for _ in 0..ROUNDS {
                        cache.insert(key.clone(), &stats);
                    }
                    writing.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
            start.wait();
            let mut served = false;
            while writing.load(std::sync::atomic::Ordering::SeqCst) > 0 {
                match Cache::with_disk(&dir).lookup(&key) {
                    Some(read) => {
                        assert!(read == stats, "a wrong entry was served");
                        served = true;
                    }
                    None => assert!(!served, "an entry that was whole is torn or gone"),
                }
            }
        })
    });

    // The reader's misses were all `absent`: nothing to count or warn.
    assert_eq!(counter_total(&events, "cache_disk_miss"), 0);
    assert!(warnings(&events).is_empty(), "{:?}", warnings(&events));
    assert!(
        leftover_temps(&dir).is_empty(),
        "{:?}",
        leftover_temps(&dir)
    );
    assert!(Cache::with_disk(&dir).lookup(&key).as_ref() == Some(&stats));
    let _ = std::fs::remove_dir_all(&dir);
}
