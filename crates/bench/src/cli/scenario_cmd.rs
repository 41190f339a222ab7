//! `belenos scenario <list|show|validate|run>`.
//!
//! Scenarios are data: `list` prints every catalog preset with its
//! family and parameters, `show` prints one scenario's fully explicit
//! JSON normal form (a preset id or a JSON file), `validate` checks a
//! scenario document without building anything, and `run` takes
//! scenarios — presets or off-catalog JSON definitions — end to end:
//! validate → build → solve → simulate through the cache-aware runner →
//! structured report.

use super::{write_side_outputs, Format, Invocation};
use belenos::experiment::prepare_all;
use belenos::figures::scenario_run;
use belenos_json::{FromJson, Json, ToJson};
use belenos_workloads::{by_id, distinct_presets, ScenarioSpec};

/// `belenos scenario <list|show|validate|run> ...`.
pub fn run(inv: &Invocation) -> Result<(), String> {
    match inv.positionals.get(1).map(String::as_str) {
        Some("list") => list(),
        Some("show") => show(inv),
        Some("validate") => validate(inv),
        Some("run") => run_scenarios(inv),
        _ => Err("usage: belenos scenario <list|show|validate|run> [id|file.json]".into()),
    }
}

fn list() -> Result<(), String> {
    println!("SCENARIO PRESETS (each is a plain ScenarioSpec; `belenos scenario show <id>`)");
    println!(
        "  {:<5} {:<18} {:<6} {:<7} {:<18} digest",
        "id", "family", "mesh", "steps", "knobs"
    );
    for spec in distinct_presets() {
        println!(
            "  {:<5} {:<18} {:<6} {:<7} bloat={:<2} sample={:<2} spin={:<4} {:016x}",
            spec.id,
            spec.family.label(),
            spec.mesh.resolution_label(),
            spec.stepping.steps,
            spec.expand.code_bloat,
            spec.expand.sample,
            spec.spin_scale,
            spec.stable_digest(),
        );
    }
    println!("\nFAMILIES (the `family` field of a scenario document)");
    for family in belenos_workloads::Family::all_canonical() {
        println!(
            "  {:<18} category {}",
            family.label(),
            family.category().name()
        );
    }
    Ok(())
}

/// Loads scenarios from a positional argument: a preset id, or a path to
/// a JSON document holding one scenario object or an array of them.
fn load_scenarios(arg: &str) -> Result<Vec<ScenarioSpec>, String> {
    if let Some(spec) = by_id(arg) {
        return Ok(vec![spec]);
    }
    let text = std::fs::read_to_string(arg)
        .map_err(|e| format!("`{arg}` is neither a preset id nor a readable file: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{arg}: {e}"))?;
    let items: Vec<&Json> = match &json {
        Json::Arr(items) => items.iter().collect(),
        one => vec![one],
    };
    let specs: Vec<ScenarioSpec> = items
        .into_iter()
        .map(ScenarioSpec::from_json)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{arg}: {e}"))?;
    ScenarioSpec::validate_list(&specs).map_err(|e| format!("{arg}: {e}"))?;
    if specs.is_empty() {
        return Err(format!("{arg}: the document lists no scenarios"));
    }
    Ok(specs)
}

fn scenario_arg(inv: &Invocation) -> Result<&str, String> {
    inv.positionals
        .get(2)
        .map(String::as_str)
        .ok_or_else(|| "usage: belenos scenario show|validate|run <id|file.json>".into())
}

fn show(inv: &Invocation) -> Result<(), String> {
    let specs = load_scenarios(scenario_arg(inv)?)?;
    // One scenario prints as an object, several as an array — either way
    // the output is a single JSON document `scenario validate`/`run`
    // accept back unchanged.
    match specs.as_slice() {
        [one] => println!("{}", one.to_json()),
        many => println!(
            "{}",
            Json::Arr(many.iter().map(ToJson::to_json).collect()).pretty()
        ),
    }
    Ok(())
}

fn validate(inv: &Invocation) -> Result<(), String> {
    let arg = scenario_arg(inv)?;
    let specs = load_scenarios(arg)?;
    for spec in &specs {
        println!(
            "scenario `{}` is valid: family {}, mesh {}, digest {:016x}",
            spec.id,
            spec.family.label(),
            spec.mesh.resolution_label(),
            spec.stable_digest()
        );
    }
    Ok(())
}

fn run_scenarios(inv: &Invocation) -> Result<(), String> {
    let specs = load_scenarios(scenario_arg(inv)?)?;
    let opts = inv.options();
    eprintln!("solving {} scenario model(s)...", specs.len());
    let exps = prepare_all(&specs).map_err(|e| e.to_string())?;
    let (report, failures) = scenario_run(&inv.runner(), &exps, &opts);
    for failure in &failures {
        eprintln!("SIMULATION FAILED: {}", failure.message);
    }
    match inv.format {
        Format::Text => print!("{}", report.to_text()),
        Format::Json => print!("{}", report.to_json()),
        Format::Csv => print!("{}", report.to_csv()),
    }
    write_side_outputs(inv, || report.to_json(), || report.to_csv())?;
    if !failures.is_empty() {
        return Err(format!("{} scenario simulation(s) failed", failures.len()));
    }
    Ok(())
}
