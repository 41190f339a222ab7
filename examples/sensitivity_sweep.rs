//! A miniature gem5-style sensitivity study on one workload: how the
//! contact model responds to pipeline width and L1 size — the paper's
//! Figs. 9-10 methodology in ~40 lines of user code, through the same
//! grid runner (`sweep::run`) the figures use.
//!
//! ```text
//! cargo run -p belenos --release --example sensitivity_sweep
//! ```

use belenos::experiment::Experiment;
use belenos::{sweep, SimOptions};
use belenos_runner::Runner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = belenos_workloads::by_id("co").expect("contact workload");
    println!("solving the contact model once (the trace is replayed per config)...");
    let exps = [Experiment::prepare(&spec)?];
    let runner = Runner::isolated(2);
    let opts = SimOptions::new(400_000);
    let widths = [2usize, 4, 6, 8];
    let sizes_kb = [8usize, 16, 32, 64];
    let by_width = sweep::run(&runner, &exps, &sweep::width(&widths), &opts).complete()?;
    let by_l1 = sweep::run(&runner, &exps, &sweep::l1_size(&sizes_kb), &opts).complete()?;
    // The 32 kB point of the L1 axis is the Table II baseline.
    let base = &by_l1[0][2];

    println!("\npipeline width sweep (baseline 6):");
    for (width, s) in widths.iter().zip(&by_width[0]) {
        println!(
            "  width {width}: IPC {:.3}  time {:+.1}% vs baseline",
            s.ipc(),
            sweep::percent_slower(s, base)
        );
    }

    println!("\nL1 cache sweep (baseline 32 kB):");
    for (kb, s) in sizes_kb.iter().zip(&by_l1[0]) {
        println!(
            "  L1 {kb:>2} kB: L1D MPKI {:>6.2}  IPC {:.3}",
            s.l1d_mpki(),
            s.ipc()
        );
    }

    println!(
        "\n(for the full paper sweeps run: cargo run -p belenos-bench --release --bin belenos -- figure all)"
    );
    Ok(())
}
