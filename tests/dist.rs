//! End-to-end tests of distributed campaign execution: a runner with a
//! coordinator installed, real experiments, a real shared dist
//! directory — bit-identical results, lease stealing after a
//! (simulated) SIGKILL, and crash-safe resume with zero re-simulation.
//!
//! No test here mutates process environment variables: caches, stores
//! and boards are all passed explicitly so the tests can run in
//! parallel with the rest of the suite.

use belenos::Experiment;
use belenos_dist::{board, Coordinator, DistConfig, JobDoc};
use belenos_json::Json;
use belenos_runner::{Cache, CacheKey, JobSpec, RunPlan, Runner, Simulate};
use belenos_uarch::{CoreConfig, SamplingConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_dist(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("belenos-dist-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny but real workload: the `pd` preset at a small budget.
fn experiments() -> Vec<Experiment> {
    let spec = belenos_workloads::by_id("pd").expect("pd preset");
    vec![Experiment::prepare(&spec).expect("prepare pd")]
}

fn plan() -> RunPlan {
    let mut plan = RunPlan::new();
    plan.job(0, "base", CoreConfig::gem5_baseline(), 4000);
    plan.job(
        0,
        "fast",
        CoreConfig::gem5_baseline().with_frequency(3.5),
        4000,
    );
    plan.job(
        0,
        "narrow",
        CoreConfig::gem5_baseline().with_pipeline_width(2),
        4000,
    );
    plan
}

#[test]
fn distributed_run_is_bit_identical_and_resumes_without_resimulation() {
    let dir = temp_dist("identical");
    let exps = experiments();
    let plan = plan();

    // Ground truth: a plain single-process run on a private cache.
    let expected = Runner::isolated(1).run(&exps, &plan);

    // Distributed run: every cache miss goes over the job board and is
    // executed by the coordinator's in-process worker.
    let cfg = DistConfig::new(&dir, "coord").with_lease_ttl(Duration::from_secs(10));
    let coordinator = Arc::new(Coordinator::new(cfg.clone()).with_local_workers(1));
    let runner = Runner::new(1, Cache::with_disk(cfg.cache_dir()))
        .with_distributor(Arc::clone(&coordinator) as _);
    let (results, summary) = runner.run_with_summary(&exps, &plan);

    assert_eq!(summary.simulated, 3, "all three jobs execute via the board");
    assert_eq!(summary.cache_hits, 0);
    assert_eq!(results.len(), expected.len());
    for (got, want) in results.iter().zip(&expected) {
        assert!(got.error.is_none(), "{:?}", got.error);
        assert_eq!(got.stats, want.stats, "job '{}' diverged", want.label);
    }
    let merged = coordinator.merged();
    assert_eq!(merged.jobs(), 3);
    assert_eq!(merged.per_worker.len(), 1, "one local worker did it all");
    assert!(merged.per_worker.contains_key("coord-l0"));

    // The board drained: nothing open, nothing leased, markers consumed.
    let census = belenos_dist::board_stats(&dir, Duration::from_secs(10));
    assert_eq!((census.open, census.claimed, census.done), (0, 0, 0));

    // Crash-safe resume: a restarted coordinator process re-plans the
    // campaign against the same shared disk cache and must re-simulate
    // nothing — every job is a disk hit, the board is never touched.
    let resumed = Runner::new(1, Cache::with_disk(cfg.cache_dir()));
    let (replay, resumed_summary) = resumed.run_with_summary(&exps, &plan);
    assert_eq!(
        resumed_summary.simulated, 0,
        "resume must be a pure cache replay"
    );
    assert_eq!(resumed_summary.cache_hits, 3);
    for (got, want) in replay.iter().zip(&expected) {
        assert_eq!(got.stats, want.stats);
        assert!(got.cached);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_workers_lease_is_stolen_and_the_job_still_completes() {
    let dir = temp_dist("steal");
    let exps = experiments();
    let config = CoreConfig::gem5_baseline().with_frequency(1.5);
    let mut plan = RunPlan::new();
    plan.push(JobSpec::new(0, "orphaned", config.clone(), 4000));

    // A phantom worker claims the job and then "dies" (never
    // heartbeats; its lease is backdated past the TTL — exactly the
    // on-disk state a SIGKILL leaves behind).
    let key = CacheKey::new(
        exps[0].workload_id(),
        exps[0].fingerprint(),
        &config,
        4000,
        &SamplingConfig::off(),
    );
    let dead = DistConfig::new(&dir, "dead").with_lease_ttl(Duration::from_millis(200));
    dead.ensure_layout().unwrap();
    board::publish(
        &dead,
        &JobDoc {
            digest: key.address(),
            workload: key.workload.clone(),
            label: "orphaned".into(),
            scenario: belenos_workloads::by_id("pd").unwrap(),
            config: config.clone(),
            max_ops: 4000,
            sampling: SamplingConfig::off(),
        },
    )
    .unwrap();
    let claimed = board::claim_open(&dead).expect("phantom claim");
    assert!(!claimed.stolen);
    board::backdate(&dead.lease_path(key.address()), Duration::from_secs(60)).unwrap();

    // The coordinator sees an existing lease, publishes nothing, and
    // its local worker steals the expired lease and runs the job.
    let cfg = DistConfig::new(&dir, "rescue").with_lease_ttl(Duration::from_millis(200));
    let coordinator = Arc::new(Coordinator::new(cfg.clone()).with_local_workers(1));
    let runner = Runner::new(1, Cache::with_disk(cfg.cache_dir()))
        .with_distributor(Arc::clone(&coordinator) as _);
    let (results, summary) = runner.run_with_summary(&exps, &plan);

    assert_eq!(summary.simulated, 1);
    assert!(results[0].error.is_none(), "{:?}", results[0].error);
    let expected = Runner::isolated(1).run(&exps, &plan);
    assert_eq!(results[0].stats, expected[0].stats);

    let merged = coordinator.merged();
    assert!(
        merged.stolen() >= 1,
        "the orphaned lease must be acquired by stealing: {merged:?}"
    );
    assert_eq!(merged.jobs(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The captured events of kind `ev` named `name`.
fn named<'a>(events: &'a [Json], ev: &str, name: &str) -> Vec<&'a Json> {
    let is = |e: &&Json| {
        e.get("ev").and_then(Json::as_str) == Some(ev)
            && e.get("name").and_then(Json::as_str) == Some(name)
    };
    events.iter().filter(is).collect()
}

/// Twelve frequency points over the one workload.
fn twelve_jobs() -> RunPlan {
    let mut plan = RunPlan::new();
    for i in 0..12 {
        plan.push(JobSpec::new(
            0,
            format!("f{i}"),
            CoreConfig::gem5_baseline().with_frequency(1.0 + 0.25 * i as f64),
            3000,
        ));
    }
    plan
}

#[test]
fn two_coordinator_workers_split_a_board_without_duplicating_work() {
    local_workers_resolve_a_batch(2);
}

#[test]
fn one_coordinator_worker_is_handed_every_job_of_a_batch() {
    local_workers_resolve_a_batch(1);
}

/// A twelve-job batch over `workers` in-process workers: distributed ==
/// serial == parallel, every job executed once, none republished.
fn local_workers_resolve_a_batch(workers: usize) {
    let exps = experiments();
    let plan = twelve_jobs();
    let serial = Runner::isolated(1).run(&exps, &plan);
    let parallel = Runner::isolated(2).run(&exps, &plan);
    let dir = temp_dist(&format!("split{workers}"));
    let cfg = DistConfig::new(&dir, "pair").with_lease_ttl(Duration::from_secs(10));
    let coordinator = Arc::new(Coordinator::new(cfg.clone()).with_local_workers(workers));
    let runner = Runner::new(1, Cache::with_disk(cfg.cache_dir()))
        .with_distributor(Arc::clone(&coordinator) as _);
    let ((results, summary), events) =
        belenos_telemetry::capture(|| runner.run_with_summary(&exps, &plan));

    assert_eq!(summary.simulated, 12);
    let merged = coordinator.merged();
    // Exactly twelve completions across however many workers got
    // slots — a duplicated execution would show up as a thirteenth
    // done marker.
    assert_eq!(merged.jobs(), 12, "{merged:?}");
    assert_eq!(merged.stolen(), 0, "nothing expires under a 10s TTL");
    for ((got, one), two) in results.iter().zip(&serial).zip(&parallel) {
        assert!(got.error.is_none(), "{:?}", got.error);
        assert_eq!(got.stats, one.stats, "job '{}' diverged", one.label);
        assert_eq!(got.stats, two.stats, "job '{}' diverged", two.label);
    }

    // The hand-off wakes the coordinator per done marker; a job on its
    // way board → leases → done is never mistaken for a vanished one,
    // however quickly the sweeps follow each other.
    assert!(named(&events, "counter", "dist_jobs_republished").is_empty());
    let [close] = named(&events, "span_close", "coordinator")[..] else {
        panic!("one coordinator span per batch")
    };
    let count = |key| close.get(key).and_then(Json::as_f64).expect("span field");
    let (sweeps, woken) = (count("sweeps"), count("woken"));
    assert!(woken >= 1.0, "no sweep was started by a worker's wake");
    assert!(sweeps > woken, "the first sweep is nobody's wake");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--local-workers 0`: nobody shares the coordinator's wake, and the
/// worker — a `run_worker` loop as `belenos worker` runs it — has none
/// to share. Both sides find each other by looking at the board at a
/// backed-off pace, and the batch still completes.
#[test]
fn an_external_worker_and_a_coordinator_without_local_workers_still_meet() {
    let dir = temp_dist("external");
    let exps = experiments();
    let plan = plan();
    let cfg = DistConfig::new(&dir, "coord").with_lease_ttl(Duration::from_secs(10));
    let coordinator = Arc::new(Coordinator::new(cfg.clone()).with_local_workers(0));
    let runner = Runner::new(1, Cache::with_disk(cfg.cache_dir()))
        .with_distributor(Arc::clone(&coordinator) as _);
    let stop = AtomicBool::new(false);
    let outside = DistConfig::new(&dir, "outside").with_lease_ttl(Duration::from_secs(10));
    let (results, worker) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| belenos_dist::run_worker(&outside, &stop, None));
        let results = runner.run(&exps, &plan);
        stop.store(true, Ordering::SeqCst);
        (results, worker.join().expect("worker thread"))
    });
    assert_eq!(worker.expect("worker summary").executed, 3);
    let merged = coordinator.merged();
    assert_eq!(merged.per_worker.keys().collect::<Vec<_>>(), ["outside"]);
    let expected = Runner::isolated(1).run(&exps, &plan);
    for (got, want) in results.iter().zip(&expected) {
        assert!(got.error.is_none(), "{:?}", got.error);
        assert_eq!(got.stats, want.stats, "job '{}' diverged", want.label);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
