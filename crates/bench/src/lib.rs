//! # belenos-bench
//!
//! The library behind the single `belenos` CLI
//! (`cargo run -p belenos-bench --release --bin belenos -- <subcommand>`).
//!
//! The CLI ([`cli`]) replaces the old one-binary-per-figure layout:
//! every paper table/figure, the campaign driver, the cross-backend
//! agreement table, the digest capture and the accuracy/ablation
//! harnesses are subcommands sharing one flag layer (`--max-ops`,
//! `--sampling`, `--model` set `belenos::SimOptions` over the defaults or
//! over a campaign spec's own options; `--jobs` / `BELENOS_JOBS` size
//! `belenos_runner::Budget::global`).
//!
//! Nothing in here times Belenos for a verdict: host performance is
//! measured from outside by the harness under `benchmark/`.

use belenos::experiment::{prepare_all, Experiment};
use belenos_workloads::ScenarioSpec;

pub mod cli;

/// Prepares scenarios, printing progress, and panics with a clear message
/// naming the failing scenario (the harness cannot proceed without it).
pub fn prepare_or_die(specs: &[ScenarioSpec]) -> Vec<Experiment> {
    eprintln!("solving {} workload model(s)...", specs.len());
    prepare_all(specs).unwrap_or_else(|e| panic!("workload preparation failed: {e}"))
}

/// Prints the process-lifetime runner-cache summary to stderr; campaign
/// commands call this last so shared-baseline reuse is visible.
pub fn print_run_summary() {
    eprintln!("{}", belenos_runner::process_summary());
}
