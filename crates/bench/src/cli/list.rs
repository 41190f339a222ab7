//! `belenos list`: what exists — workloads, analyses, backends, sets.

use super::Invocation;
use belenos::campaign::Analysis;
use belenos_uarch::ModelKind;

/// `belenos list`.
pub fn run(_inv: &Invocation) -> Result<(), String> {
    let vtune: Vec<String> = belenos_workloads::vtune_set()
        .iter()
        .map(|s| s.id.clone())
        .collect();
    let gem5: Vec<String> = belenos_workloads::gem5_set()
        .iter()
        .map(|s| s.id.clone())
        .collect();

    println!("WORKLOAD PRESETS (scenarios; see `belenos scenario list` for parameters)");
    for spec in &belenos_workloads::distinct_presets() {
        let mut sets = Vec::new();
        if belenos_workloads::catalog().iter().any(|s| s.id == spec.id) {
            sets.push("catalog");
        }
        if vtune.contains(&spec.id) {
            sets.push("vtune");
        }
        if gem5.contains(&spec.id) {
            sets.push("gem5");
        }
        println!(
            "  {:<4} {:<16} [{}]",
            spec.id,
            spec.category().name(),
            sets.join(",")
        );
    }

    println!("\nWORKLOAD SETS");
    println!("  paper    per-analysis paper sets (default)");
    println!(
        "  vtune    the VTune profiling set ({} workloads)",
        vtune.len()
    );
    println!(
        "  gem5     the gem5 sensitivity set ({} workloads)",
        gem5.len()
    );
    println!(
        "  catalog  the full Table I catalog ({} workloads)",
        belenos_workloads::catalog().len()
    );

    println!("\nANALYSES (use with `belenos figure <id>` or in a campaign spec)");
    for a in Analysis::ALL {
        println!("  {:<10} {}", a.id(), a.describe());
    }

    println!("\nBACKENDS (--model)");
    for kind in ModelKind::ALL {
        let note = match kind {
            ModelKind::O3 => "cycle-level out-of-order (default, reference)",
            ModelKind::InOrder => "scalar in-order scoreboard (~10-20x faster)",
            ModelKind::Analytic => "port-pressure/MLP bound model (>=50x faster)",
        };
        println!("  {:<9} {note}", kind.label());
    }
    Ok(())
}
