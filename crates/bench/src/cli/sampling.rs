//! `belenos sampling`: accuracy/speed harness for SMARTS-style interval
//! sampling. For a few small catalog workloads, compares the full-trace
//! simulation against (a) sampled runs at a 10x reduced op budget and
//! (b) the historical prefix truncation at the same budget, reporting
//! IPC error, wall time and where the measurement windows land.
//!
//! Workload selection: `--workloads id,id`, default `pd,co`.
//! `--sampling N` chooses the interval count for the sampled column;
//! `--model` the backend.

use super::Invocation;
use belenos::campaign::PaperSet;
use belenos::experiment::{sampling_windows, Experiment};
use belenos_profiler::report::{fmt, Table};
use belenos_runner::run_caught;
use belenos_uarch::{CoreConfig, SamplingConfig, SimStats, DEFAULT_SAMPLING_INTERVALS};
use belenos_workloads::ScenarioSpec;
use std::time::Instant;

fn timed(f: impl FnOnce() -> SimStats) -> (SimStats, f64) {
    let t0 = Instant::now();
    let stats = f();
    (stats, t0.elapsed().as_secs_f64())
}

fn pct_err(est: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        0.0
    } else {
        (est - reference) / reference * 100.0
    }
}

/// Compared when `--workloads` is not given.
const DEFAULT_WORKLOADS: [&str; 2] = ["pd", "co"];

fn selected_specs(inv: &Invocation) -> Vec<ScenarioSpec> {
    match &inv.workloads {
        Some(set) => set.resolve(PaperSet::Catalog),
        None => DEFAULT_WORKLOADS
            .iter()
            .filter_map(|id| belenos_workloads::by_id(id))
            .collect(),
    }
}

/// `belenos sampling`.
pub fn run(inv: &Invocation) -> Result<(), String> {
    let opts = inv.options();
    let intervals = match opts.sampling.intervals {
        0 => DEFAULT_SAMPLING_INTERVALS,
        n => n,
    };
    let cfg = CoreConfig::gem5_baseline().with_model(opts.model);

    let mut t = Table::new(&[
        "Model",
        "Trace ops",
        "Budget",
        "Full IPC",
        "Sampled IPC",
        "err%",
        "Prefix IPC",
        "err%",
        "Full (s)",
        "Sampled (s)",
        "Speedup",
    ]);
    for spec in selected_specs(inv) {
        let id = &spec.id;
        let exp = Experiment::prepare(&spec).map_err(|e| format!("prepare {id}: {e}"))?;
        let total = exp.total_trace_ops();
        let budget = (total as usize / 10).max(1);

        // A wedged simulation (stall-limit panic) surfaces as an error
        // line for this workload; the harness moves on to the next one.
        let smp = SamplingConfig::smarts(intervals);
        let outcome = run_caught(&format!("workload {id}"), || {
            let (full, full_s) = timed(|| exp.simulate(&cfg, 0));
            let (sampled, sampled_s) = timed(|| exp.simulate_sampled(&cfg, budget, &smp));
            let (prefix, _) = timed(|| exp.simulate(&cfg, budget));
            (full, full_s, sampled, sampled_s, prefix)
        });
        let (full, full_s, sampled, sampled_s, prefix) = match outcome {
            Ok(v) => v,
            Err(e) => {
                eprintln!("SIMULATION FAILED: {e}");
                continue;
            }
        };

        let windows = sampling_windows(total, budget as u64, intervals);
        let (last_start, last_len) = *windows.last().expect("non-empty");
        eprintln!(
            "{id}: {} windows of {} ops; first at {:.1}%, last ends at {:.1}% of the trace",
            windows.len(),
            last_len,
            windows[0].0 as f64 / total as f64 * 100.0,
            (last_start + last_len) as f64 / total as f64 * 100.0,
        );

        t.row(vec![
            id.to_string(),
            total.to_string(),
            budget.to_string(),
            fmt(full.ipc(), 4),
            fmt(sampled.ipc(), 4),
            fmt(pct_err(sampled.ipc(), full.ipc()), 2),
            fmt(prefix.ipc(), 4),
            fmt(pct_err(prefix.ipc(), full.ipc()), 2),
            fmt(full_s, 3),
            fmt(sampled_s, 3),
            fmt(full_s / sampled_s.max(1e-9), 2),
        ]);
    }
    println!(
        "Sampling accuracy at a 10x reduced op budget ({intervals} SMARTS intervals)\n\n{}",
        t.render()
    );
    Ok(())
}
