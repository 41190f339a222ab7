//! # belenos-bench
//!
//! The library behind the single `belenos` CLI
//! (`cargo run -p belenos-bench --release --bin belenos -- <subcommand>`).
//!
//! The CLI ([`cli`]) replaces the old one-binary-per-figure layout:
//! every paper table/figure, the cross-backend agreement table and the
//! campaign driver are subcommands sharing one flag layer (`--max-ops`,
//! `--sampling`, `--model` set `belenos::SimOptions` over the defaults or
//! over a campaign spec's own options; `--jobs` / `BELENOS_JOBS` size
//! `belenos_runner::Budget::global`). Every simulation a subcommand runs
//! goes through `belenos::campaign::Analysis::report` or
//! `belenos::figures::scenario_run`, and so through `belenos::sweep::run`
//! and the runner's cache, thread budget and panic containment.
//!
//! Nothing in here times Belenos: host performance, per-backend
//! throughput included, is measured from outside by the harness under
//! `benchmark/`.

pub mod cli;

/// Prints the process-lifetime runner-cache summary to stderr; campaign
/// commands call this last so shared-baseline reuse is visible.
pub fn print_run_summary() {
    eprintln!("{}", belenos_runner::process_summary());
}
