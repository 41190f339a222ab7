//! Behavioural tests of the batch engine: parallel/serial equivalence,
//! cache-hit short-circuiting, dedup, and serial-order degeneration.

use belenos_runner::{Cache, JobSpec, RunPlan, Runner, Simulate};
use belenos_trace::expand::Expander;
use belenos_trace::{KernelCall, PhaseLog};
use belenos_uarch::{CoreConfig, O3Core, SamplingConfig, SimStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::ThreadId;

/// A small but real workload: a fixed kernel log replayed on the O3 core,
/// tracking how many simulations actually execute, on which threads, and
/// how many of them were ever alive at once.
struct CountingWorkload {
    id: String,
    log: PhaseLog,
    runs: AtomicUsize,
    ran_on: Mutex<Vec<ThreadId>>,
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingWorkload {
    fn new(id: &str) -> Self {
        let mut log = PhaseLog::new();
        for _ in 0..4 {
            log.record(KernelCall::Dot { n: 500 });
            log.record(KernelCall::Axpy { n: 500 });
            log.record(KernelCall::OmpBarrier { spin_iters: 50 });
        }
        CountingWorkload {
            id: id.to_string(),
            log,
            runs: AtomicUsize::new(0),
            ran_on: Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn runs(&self) -> usize {
        self.runs.load(Ordering::SeqCst)
    }
}

impl Simulate for CountingWorkload {
    fn workload_id(&self) -> &str {
        &self.id
    }

    fn simulate(&self, config: &CoreConfig, max_ops: usize, _: &SamplingConfig) -> SimStats {
        self.runs.fetch_add(1, Ordering::SeqCst);
        self.ran_on
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(live, Ordering::SeqCst);
        let mut core = O3Core::new(config.clone());
        let stats = core.run(Expander::new(&self.log).take(max_ops));
        self.live.fetch_sub(1, Ordering::SeqCst);
        stats
    }
}

fn frequency_plan(workloads: usize) -> RunPlan {
    let mut plan = RunPlan::new();
    for w in 0..workloads {
        for f in [1.0, 2.0, 3.0, 4.0] {
            plan.push(JobSpec::new(
                w,
                format!("{f}GHz"),
                CoreConfig::gem5_baseline().with_frequency(f),
                5_000,
            ));
        }
    }
    plan
}

#[test]
fn parallel_results_bit_identical_to_serial() {
    let workloads = [CountingWorkload::new("wa"), CountingWorkload::new("wb")];
    let plan = frequency_plan(workloads.len());

    let serial = Runner::isolated(1).run(&workloads, &plan);
    let parallel = Runner::isolated(4).run(&workloads, &plan);

    assert_eq!(serial.len(), plan.len());
    assert_eq!(parallel.len(), plan.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.workload, p.workload);
        assert_eq!(s.label, p.label);
        assert_eq!(
            s.stats, p.stats,
            "{}/{} diverged across thread counts",
            s.workload, s.label
        );
    }
}

#[test]
fn cache_hit_returns_without_resimulating() {
    let workloads = [CountingWorkload::new("wc")];
    let plan = frequency_plan(1);
    let runner = Runner::isolated(2);

    let (first, summary1) = runner.run_with_summary(&workloads, &plan);
    assert_eq!(workloads[0].runs(), 4);
    assert_eq!(summary1.simulated, 4);
    assert_eq!(summary1.cache_hits, 0);
    assert!(first.iter().all(|r| !r.cached));

    let (second, summary2) = runner.run_with_summary(&workloads, &plan);
    assert_eq!(workloads[0].runs(), 4, "cache hits must not re-simulate");
    assert_eq!(summary2.simulated, 0);
    assert_eq!(summary2.cache_hits, 4);
    assert!(second.iter().all(|r| r.cached));
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.stats, b.stats);
    }
}

#[test]
fn duplicate_jobs_in_one_plan_share_a_simulation() {
    let workloads = [CountingWorkload::new("wd")];
    let mut plan = RunPlan::new();
    for _ in 0..3 {
        plan.push(JobSpec::new(0, "base", CoreConfig::gem5_baseline(), 5_000));
    }
    // Same machine, different label: labels are cosmetic, content decides.
    plan.push(JobSpec::new(
        0,
        "3GHz",
        CoreConfig::gem5_baseline().with_frequency(3.0),
        5_000,
    ));

    let (results, summary) = Runner::isolated(4).run_with_summary(&workloads, &plan);
    assert_eq!(workloads[0].runs(), 1, "identical jobs must simulate once");
    assert_eq!(summary.simulated, 1);
    assert_eq!(summary.deduped, 3);
    assert_eq!(results.iter().filter(|r| r.cached).count(), 3);
    assert!(results.windows(2).all(|w| w[0].stats == w[1].stats));
    assert_eq!(results[3].label, "3GHz");
}

#[test]
fn single_worker_degenerates_to_serial_submission_order() {
    let workloads = [CountingWorkload::new("we"), CountingWorkload::new("wf")];
    let plan = frequency_plan(workloads.len());
    let (_, summary) = Runner::isolated(1).run_with_summary(&workloads, &plan);
    assert_eq!(summary.threads, 1);
    assert_eq!(
        summary.execution_order,
        (0..plan.len()).collect::<Vec<_>>(),
        "one worker must execute jobs exactly in submission order"
    );
    // That one worker is the caller: no thread was started.
    let me = std::thread::current().id();
    assert_eq!(*workloads[0].ran_on.lock().unwrap(), [me; 4]);
}

#[test]
fn fingerprint_separates_same_id_workloads() {
    struct Fingerprinted(CountingWorkload, u64);
    impl Simulate for Fingerprinted {
        fn workload_id(&self) -> &str {
            self.0.workload_id()
        }
        fn fingerprint(&self) -> u64 {
            self.1
        }
        fn simulate(&self, config: &CoreConfig, max_ops: usize, s: &SamplingConfig) -> SimStats {
            self.0.simulate(config, max_ops, s)
        }
    }

    // Same id, different trace fingerprints — must NOT share cache slots.
    let workloads = [
        Fingerprinted(CountingWorkload::new("wg"), 1),
        Fingerprinted(CountingWorkload::new("wg"), 2),
    ];
    let mut plan = RunPlan::new();
    plan.job(0, "base", CoreConfig::gem5_baseline(), 5_000).job(
        1,
        "base",
        CoreConfig::gem5_baseline(),
        5_000,
    );
    let (_, summary) = Runner::isolated(2).run_with_summary(&workloads, &plan);
    assert_eq!(summary.simulated, 2);
    assert_eq!(summary.deduped, 0);
}

#[test]
fn shared_cache_spans_runner_instances() {
    let workloads = [CountingWorkload::new("wh")];
    let plan = frequency_plan(1);
    let cache = Cache::fresh();
    Runner::new(2, cache.clone()).run(&workloads, &plan);
    let (_, summary) = Runner::new(4, cache).run_with_summary(&workloads, &plan);
    assert_eq!(
        summary.cache_hits, 4,
        "a shared cache must serve later runners"
    );
    assert_eq!(workloads[0].runs(), 4);
}

#[test]
#[should_panic(expected = "references workload index")]
fn out_of_bounds_workload_index_panics_clearly() {
    let workloads = [CountingWorkload::new("wi")];
    let mut plan = RunPlan::new();
    plan.job(5, "oops", CoreConfig::gem5_baseline(), 1_000);
    Runner::isolated(1).run(&workloads, &plan);
}

#[test]
fn sampling_configs_occupy_separate_cache_slots() {
    // The same (workload, config, budget) under different sampling
    // strategies must never alias: both jobs simulate, neither is a
    // cache hit or dedup of the other, and re-running each is a hit.
    let workloads = [CountingWorkload::new("wj")];
    let mut plan = RunPlan::new();
    plan.push(JobSpec::new(
        0,
        "prefix",
        CoreConfig::gem5_baseline(),
        5_000,
    ));
    plan.push(
        JobSpec::new(0, "smarts8", CoreConfig::gem5_baseline(), 5_000)
            .with_sampling(SamplingConfig::smarts(8)),
    );
    let runner = Runner::isolated(2);
    let (_, summary) = runner.run_with_summary(&workloads, &plan);
    assert_eq!(
        summary.simulated, 2,
        "sampled run must not alias prefix run"
    );
    assert_eq!(summary.deduped, 0);
    let (_, summary2) = runner.run_with_summary(&workloads, &plan);
    assert_eq!(summary2.cache_hits, 2);
    assert_eq!(summary2.simulated, 0);
}

#[test]
fn a_panicking_job_does_not_take_down_the_batch() {
    // A simulator bug (e.g. a wedged pipeline hitting STALL_LIMIT)
    // panics inside a worker; the runner must surface it per job and
    // still deliver every other result.
    struct Wedging(CountingWorkload);
    impl Simulate for Wedging {
        fn workload_id(&self) -> &str {
            self.0.workload_id()
        }
        fn simulate(&self, config: &CoreConfig, max_ops: usize, s: &SamplingConfig) -> SimStats {
            if config.freq_ghz == 2.0 {
                panic!("pipeline wedged at cycle 42: rob=1, iq=0, lq=0, sq=0");
            }
            self.0.simulate(config, max_ops, s)
        }
    }

    let workloads = [Wedging(CountingWorkload::new("wk"))];
    let plan = frequency_plan(1); // 1, 2, 3, 4 GHz — the 2 GHz job wedges
    let runner = Runner::isolated(4);
    let (results, summary) = runner.run_with_summary(&workloads, &plan);

    assert_eq!(results.len(), 4);
    assert_eq!(summary.failed, 1);
    assert!(summary.to_string().contains("1 FAILED"));
    let bad = results.iter().find(|r| r.label == "2GHz").unwrap();
    let err = bad.error.as_ref().expect("wedge surfaces as a job error");
    assert!(err.contains("pipeline wedged"), "{err}");
    assert!(err.contains("wk 2GHz"), "error names the job: {err}");
    for r in results.iter().filter(|r| r.label != "2GHz") {
        assert!(r.error.is_none());
        assert!(r.stats.committed_ops > 0, "healthy jobs must complete");
    }

    // Failed jobs are not cached: a retry re-executes only the wedge.
    let (_, summary2) = runner.run_with_summary(&workloads, &plan);
    assert_eq!(summary2.cache_hits, 3);
    assert_eq!(summary2.simulated, 1);
    assert_eq!(summary2.failed, 1);
    assert_eq!(summary2.threads, 1, "one job to run, one thread to run it");

    // Neither panic kept a helper permit: the next batch is full width.
    let fresh = [Wedging(CountingWorkload::new("wk2"))];
    let (_, summary3) = runner.run_with_summary(&fresh, &plan);
    assert_eq!((summary.threads, summary3.threads), (4, 4));
}

#[test]
fn concurrent_batches_on_clones_of_one_runner_share_its_budget() {
    let workloads = [CountingWorkload::new("wl")];
    let plans = [1.0, 5.0].map(|base| {
        let mut plan = RunPlan::new();
        for i in 0..16 {
            let config = CoreConfig::gem5_baseline().with_frequency(base + 0.25 * f64::from(i));
            plan.push(JobSpec::new(0, format!("f{i}"), config, 5_000));
        }
        plan
    });
    let serial = plans
        .each_ref()
        .map(|plan| Runner::isolated(1).run(&workloads, plan));
    assert_eq!(workloads[0].peak.swap(0, Ordering::SeqCst), 1);

    // Two top-level callers, two helper permits between them.
    let runner = Runner::new(3, Cache::fresh());
    let start = Barrier::new(2);
    let shared = std::thread::scope(|scope| {
        let running = plans.each_ref().map(|plan| {
            let (runner, workloads, start) = (runner.clone(), &workloads, &start);
            scope.spawn(move || {
                start.wait();
                runner.run(workloads, plan)
            })
        });
        running.map(|handle| handle.join().expect("batch thread"))
    });
    let peak = workloads[0].peak.load(Ordering::SeqCst);
    assert!(peak <= 2 + 2, "{peak} simulations alive at once");
    for (s, p) in serial.iter().flatten().zip(shared.iter().flatten()) {
        assert_eq!((&s.label, &s.stats), (&p.label, &p.stats));
        assert!(p.error.is_none() && !p.cached);
    }
}

#[test]
fn a_batch_inside_a_saturated_batch_runs_inline_and_in_order() {
    /// Each simulation runs a four-job batch of its own on the runner
    /// that is running it.
    struct Nesting(Runner);
    impl Simulate for Nesting {
        fn workload_id(&self) -> &str {
            "nesting"
        }
        fn simulate(&self, config: &CoreConfig, _: usize, _: &SamplingConfig) -> SimStats {
            let inner = [CountingWorkload::new(&format!("inner-{}", config.freq_ghz))];
            let (results, summary) = self.0.run_with_summary(&inner, &frequency_plan(1));
            assert_eq!(summary.threads, 1, "no permit was free to borrow");
            assert_eq!(summary.execution_order, [0, 1, 2, 3]);
            let me = std::thread::current().id();
            assert_eq!(*inner[0].ran_on.lock().unwrap(), [me; 4]);
            let labels: Vec<&str> = results.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(labels, ["1GHz", "2GHz", "3GHz", "4GHz"]);
            assert!(results.iter().all(|r| r.error.is_none() && !r.cached));
            results[0].stats.clone()
        }
    }

    // Two jobs on a budget of two: the one helper permit is out for as
    // long as either outer job runs.
    let runner = Runner::isolated(2);
    let mut plan = RunPlan::new();
    for f in [1.0, 2.0] {
        let config = CoreConfig::gem5_baseline().with_frequency(f);
        plan.push(JobSpec::new(0, format!("{f}GHz"), config, 5_000));
    }
    let (results, summary) = runner.run_with_summary(&[Nesting(runner.clone())], &plan);
    assert_eq!(summary.threads, 2);
    for r in &results {
        assert_eq!(r.error, None, "an assertion inside `simulate` failed");
    }
}
