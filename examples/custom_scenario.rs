//! An off-catalog scenario end to end: define a workload as data, build
//! and solve its finite-element model, replay the trace on the simulated
//! core as a one-point grid through the cache-aware runner, and read the
//! bottleneck profile.
//!
//! ```sh
//! cargo run -p belenos --release --example custom_scenario
//! ```

use belenos::experiment::Experiment;
use belenos::options::SimOptions;
use belenos::sweep::{self, Axis};
use belenos_runner::Runner;
use belenos_uarch::CoreConfig;
use belenos_workloads::{by_id, ScenarioSpec};

fn main() {
    // A scenario no preset describes: the contact workload on a finer,
    // anatomically shuffled mesh with a stiffer penalty. Pure data —
    // the same JSON embeds in campaign specs unchanged.
    let spec = ScenarioSpec::parse(
        r#"{
            "id": "co-fine",
            "family": "contact",
            "params": {"penalty": 8e4},
            "mesh": {"nx": 6, "ny": 6, "nz": 8, "shuffle_seed": 777}
        }"#,
    )
    .expect("valid scenario");
    let preset = by_id("co").expect("the preset it derives from");
    println!(
        "scenario `{}`: family {}, mesh {} (preset co is {})",
        spec.id,
        spec.family.label(),
        spec.mesh.resolution_label(),
        preset.mesh.resolution_label(),
    );

    // Solve both models once; the off-catalog mesh is genuinely bigger.
    let exps: Vec<Experiment> = [&spec, &preset]
        .iter()
        .map(|s| Experiment::prepare(s).expect("model solves"))
        .collect();
    assert!(exps[0].solve.n_dofs > exps[1].solve.n_dofs);

    // Simulate both on the Table II baseline: a one-point axis over the
    // grid runner (cache keys include the scenario digest, so the
    // variants never alias).
    let axis = Axis::single("baseline", CoreConfig::gem5_baseline());
    let grid = sweep::run(&Runner::isolated(2), &exps, &axis, &SimOptions::new(60_000))
        .complete()
        .expect("both simulations finish");
    for (exp, row) in exps.iter().zip(&grid) {
        let stats = &row[0];
        let (retiring, frontend, bad_spec, backend) = stats.topdown();
        println!(
            "{:<8} IPC {:.3}  retiring {:4.1}%  frontend {:4.1}%  bad-spec {:4.1}%  backend {:4.1}%",
            exp.scenario().id,
            stats.ipc(),
            retiring * 100.0,
            frontend * 100.0,
            bad_spec * 100.0,
            backend * 100.0,
        );
    }
}
