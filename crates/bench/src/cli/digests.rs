//! `belenos digests`: prints stable FNV digests of o3 `SimStats` over
//! the catalog — the capture harness for `tests/backends.rs`. Run after
//! an *intentional* model change and paste the output over the pinned
//! table; any unintentional drift there is a correctness regression.

use super::Invocation;
use belenos::experiment::Experiment;
use belenos_runner::cache::stats_digest as digest;
use belenos_uarch::{CoreConfig, SamplingConfig};

/// `belenos digests`.
pub fn run(_inv: &Invocation) -> Result<(), String> {
    let t0 = std::time::Instant::now();
    for spec in belenos_workloads::catalog() {
        let exp = Experiment::prepare(&spec).map_err(|e| format!("prepare {}: {e}", spec.id))?;
        let cfg = CoreConfig::gem5_baseline();
        let prefix = exp.simulate(&cfg, 40_000);
        let sampled = exp.simulate_sampled(&cfg, 30_000, &SamplingConfig::smarts(8));
        let host = exp.simulate(&CoreConfig::host_like(), 40_000);
        println!(
            "(\"{}\", 0x{:016x}, 0x{:016x}, 0x{:016x}),",
            spec.id,
            digest(&prefix),
            digest(&sampled),
            digest(&host)
        );
    }
    // One full-trace run on the smallest workload.
    let exp = Experiment::prepare(&belenos_workloads::by_id("pd").expect("pd"))
        .map_err(|e| format!("prepare pd: {e}"))?;
    let full = exp.simulate(&CoreConfig::gem5_baseline(), 0);
    println!("full pd: 0x{:016x}", digest(&full));
    eprintln!("captured in {:.1}s", t0.elapsed().as_secs_f64());
    Ok(())
}
