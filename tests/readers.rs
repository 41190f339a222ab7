//! Every document reader — campaign specs (with their `options` and
//! `sampling` sections), scenarios, job-board documents and done
//! markers — by what it says when it refuses a document, and by what it
//! survives; and the runner's `.stats` decoder by what it refuses. Each
//! message row is an unknown key, a missing wire field, a value of the
//! wrong type or a section of the wrong shape, and the exact message a
//! user sees; the hostile inputs are `hostile.rs`'s.

mod hostile;

use belenos::campaign::CampaignSpec;
use belenos_dist::board::{DoneDoc, JobDoc};
use belenos_json::Json;
use belenos_runner::cache::{decode_stats, encode_stats, read_stats};
use belenos_runner::entry::Miss;
use belenos_uarch::SimStats;
use belenos_workloads::ScenarioSpec;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const JOB: &str = include_str!("golden/specs/job.json");
const DONE: &str = include_str!("golden/specs/done.json");

/// `doc` with `key` set to `value` (appended when absent), or removed
/// when `value` is `None`.
fn with(doc: &str, key: &str, value: Option<&str>) -> String {
    let Json::Obj(mut fields) = Json::parse(doc).expect("golden parses") else {
        panic!("golden is an object");
    };
    let at = fields.iter().position(|(k, _)| k == key);
    match (at, value.map(|v| Json::parse(v).expect("value parses"))) {
        (Some(i), Some(v)) => fields[i].1 = v,
        (Some(i), None) => {
            fields.remove(i);
        }
        (None, Some(v)) => fields.push((key.to_string(), v)),
        (None, None) => panic!("{key} is not in the document"),
    }
    Json::Obj(fields).pretty()
}

/// Runs every row, then fails once listing each row whose message moved.
fn check(rows: &[(String, &str)], read: impl Fn(&str) -> Result<(), String>) {
    let moved: Vec<String> = rows
        .iter()
        .enumerate()
        .filter_map(|(row, (doc, want))| {
            let got = match read(doc) {
                Ok(()) => "<accepted>".to_string(),
                Err(e) => e,
            };
            (got != *want).then(|| format!("row {row}\n  want: {want}\n  got:  {got}"))
        })
        .collect();
    assert!(moved.is_empty(), "\n{}", moved.join("\n"));
}

/// A campaign over `pd` with `section` spliced in.
fn campaign(section: &str) -> String {
    format!(r#"{{"workloads": ["pd"], {section}, "analyses": ["table1"]}}"#)
}

/// A campaign with `workloads` set to `value`.
fn workloads(value: &str) -> String {
    format!(r#"{{"workloads": {value}, "analyses": ["table1"]}}"#)
}

#[test]
fn campaign_spec_messages() {
    let rows: Vec<(String, &str)> = vec![
        (
            r#"{"analyses": ["table1"], "nmae": "x"}"#.into(),
            "invalid campaign spec: unknown field `nmae` \
             (expected one of: name, workloads, options, analyses)",
        ),
        (
            r#"{"name": "x"}"#.into(),
            "invalid campaign spec: `analyses` must name at least one analysis",
        ),
        ("[]".into(), "invalid campaign spec: expected an object"),
        (
            r#"{"name": 5, "analyses": ["table1"]}"#.into(),
            "invalid campaign spec: name: expected a string",
        ),
        (
            r#"{"analyses": "table1"}"#.into(),
            "invalid campaign spec: analyses: expected an array",
        ),
        (
            r#"{"analyses": [1]}"#.into(),
            "invalid campaign spec: analyses: expected analysis id strings",
        ),
        (
            r#"{"analyses": ["fig99"]}"#.into(),
            "invalid campaign spec: analyses: unknown analysis `fig99`",
        ),
        (
            campaign(r#""options": 5"#),
            "invalid campaign spec: options: expected an object",
        ),
        (
            campaign(r#""options": {"max_op": 1}"#),
            "invalid campaign spec: options: unknown field `max_op` \
             (expected one of: max_ops, sampling, model)",
        ),
        (
            campaign(r#""options": {"max_ops": "many"}"#),
            "invalid campaign spec: options.max_ops: expected a non-negative integer",
        ),
        (
            campaign(r#""options": {"max_ops": -1}"#),
            "invalid campaign spec: options.max_ops: expected a non-negative integer",
        ),
        (
            campaign(r#""options": {"model": "vliw"}"#),
            "invalid campaign spec: options.model: unknown backend `vliw` \
             (expected o3, inorder or analytic)",
        ),
        (
            campaign(r#""options": {"model": 3}"#),
            "invalid campaign spec: options.model: expected a backend name string",
        ),
        (
            campaign(r#""options": {"sampling": 0}"#),
            "invalid campaign spec: options.sampling: a zero interval count is ambiguous; \
             write \"off\"",
        ),
        (
            campaign(r#""options": {"sampling": 2.5}"#),
            "invalid campaign spec: options.sampling: interval count must be a \
             non-negative integer",
        ),
        (
            campaign(r#""options": {"sampling": "sometimes"}"#),
            "invalid campaign spec: options.sampling: expected off, on or an interval count, \
             got `sometimes`",
        ),
        (
            campaign(r#""options": {"sampling": true}"#),
            "invalid campaign spec: options.sampling: expected \"off\", \"on\", an interval \
             count or an object",
        ),
        (
            campaign(r#""options": {"sampling": {"intervls": 8}}"#),
            "invalid campaign spec: options.sampling: unknown field `intervls` \
             (expected one of: intervals, warmup_frac)",
        ),
        (
            campaign(r#""options": {"sampling": {"intervals": "8"}}"#),
            "invalid campaign spec: options.sampling.intervals: expected a non-negative integer",
        ),
        (
            campaign(r#""options": {"sampling": {"intervals": 0}}"#),
            "invalid campaign spec: options.sampling: a zero interval count is ambiguous; \
             write \"off\"",
        ),
        (
            campaign(r#""options": {"sampling": {"intervals": 8, "warmup_frac": 1.5}}"#),
            "invalid campaign spec: options.sampling.warmup_frac: must be in [0, 1)",
        ),
        (
            campaign(r#""options": {"sampling": {"intervals": 8, "warmup_frac": "x"}}"#),
            "invalid campaign spec: options.sampling.warmup_frac: expected a number",
        ),
        (
            workloads("5"),
            "invalid campaign spec: workloads: expected a set name, a list of ids/scenarios, \
             or a {base, resolutions} sweep",
        ),
        (
            workloads(r#""nope""#),
            "invalid campaign spec: workloads: unknown set `nope` \
             (expected paper, vtune, gem5, catalog, or a list of ids/scenarios)",
        ),
        (
            workloads(r#"["pd", 5]"#),
            "invalid campaign spec: workloads: scenario: expected an object",
        ),
        (
            workloads(r#"["zz", {"id": "x", "family": "contact"}]"#),
            "invalid campaign spec: workloads: unknown preset id `zz`",
        ),
        (
            workloads(r#"[{"id": "x", "family": "contact", "mesh": 5}]"#),
            "invalid campaign spec: workloads: scenario.mesh: expected an object",
        ),
        (
            workloads(r#"{"base": ["pd"], "resolutions": [3], "x": 1}"#),
            "invalid campaign spec: workloads: unknown field `x` \
             (expected one of: base, resolutions)",
        ),
        (
            workloads(r#"{"base": ["pd"]}"#),
            "invalid campaign spec: workloads: missing field `resolutions`",
        ),
        (
            workloads(r#"{"resolutions": [3]}"#),
            "invalid campaign spec: workloads: missing field `base`",
        ),
        (
            workloads(r#"{"base": "paper", "resolutions": [3]}"#),
            "invalid campaign spec: workloads.base: `paper` is per-analysis; \
             name vtune, gem5 or catalog",
        ),
        (
            workloads(r#"{"base": "nope", "resolutions": [3]}"#),
            "invalid campaign spec: workloads.base: unknown set `nope` \
             (expected paper, vtune, gem5, catalog, or a list of ids/scenarios)",
        ),
        (
            workloads(r#"{"base": ["zz"], "resolutions": [3]}"#),
            "invalid campaign spec: workloads.base: unknown preset id `zz`",
        ),
        (
            workloads(r#"{"base": 5, "resolutions": [3]}"#),
            "invalid campaign spec: workloads.base: expected a set name, a list of \
             ids/scenarios, or a {base, resolutions} sweep",
        ),
        (
            workloads(r#"{"base": ["pd"], "resolutions": 3}"#),
            "invalid campaign spec: workloads.resolutions: expected an array",
        ),
    ];
    check(&rows, |doc| {
        CampaignSpec::parse(doc)
            .map(drop)
            .map_err(|e| e.to_string())
    });
}

#[test]
fn scenario_messages() {
    let rows: Vec<(String, &str)> = [
        (
            r#"{"id": "x", "family": "contact", "mash": {}}"#,
            "invalid scenario: scenario: unknown field `mash` (expected one of: id, family, \
             params, mesh, stepping, newton, spin_scale, expand)",
        ),
        (
            r#"{"family": "contact"}"#,
            "invalid scenario: scenario: missing field `id`",
        ),
        (
            r#"{"id": "x"}"#,
            "invalid scenario: scenario: missing field `family`",
        ),
        ("[]", "invalid scenario: scenario: expected an object"),
        (
            r#"{"id": 5, "family": "contact"}"#,
            "invalid scenario: scenario.id: expected a string",
        ),
        (
            r#"{"id": "x", "family": 5}"#,
            "invalid scenario: scenario.family: expected a string",
        ),
        (
            r#"{"id": "x", "family": "warp"}"#,
            "invalid scenario: scenario.family: unknown family `warp` (expected one of: \
             arterial, biphasic, contact, fluid, muscle, multiphasic, tetrahedral, rigid, \
             prestrain, plastidamage, multigeneration, fsi, misc, material, damage, tumor, \
             rigid_joint, volume_constraint, biphasic_fsi, eye)",
        ),
        (
            r#"{"id": "x", "family": "contact", "spin_scale": "big"}"#,
            "invalid scenario: scenario.spin_scale: expected a number",
        ),
        (
            r#"{"id": "x", "family": "contact", "mesh": 5}"#,
            "invalid scenario: scenario.mesh: expected an object",
        ),
        (
            r#"{"id": "x", "family": "contact", "mesh": {"nx": -1}}"#,
            "invalid scenario: scenario.mesh.nx: expected a non-negative integer",
        ),
        (
            r#"{"id": "x", "family": "contact", "params": {"speeed": 1}}"#,
            "invalid scenario: scenario.params: unknown field `speeed` \
             (expected one of: start, speed, penalty)",
        ),
        (
            r#"{"id": "x", "family": "contact", "params": null}"#,
            "invalid scenario: scenario.params: expected an object",
        ),
    ]
    .map(|(doc, want)| (doc.to_string(), want))
    .to_vec();
    check(&rows, |doc| {
        ScenarioSpec::parse(doc)
            .map(drop)
            .map_err(|e| e.to_string())
    });
}

#[test]
fn job_document_messages() {
    let rows: Vec<(String, &str)> = vec![
        ("nonsense".into(), "job document: expected `null` (byte 0)"),
        ("5".into(), "job document: expected an object"),
        (
            with(JOB, "extra", Some("1")),
            "job document: unknown field `extra` (expected one of: v, digest, \
             workload, label, max_ops, sampling, config, scenario)",
        ),
        (
            with(JOB, "label", None),
            "job document: missing field `label`",
        ),
        (with(JOB, "v", None), "job document: missing field `v`"),
        (
            with(JOB, "v", Some("2")),
            "job document: v: unsupported version 2",
        ),
        (
            with(JOB, "v", Some("\"1\"")),
            "job document: v: expected a non-negative integer",
        ),
        (
            with(JOB, "digest", Some("5")),
            "job document: digest: expected a 16-hex-digit string",
        ),
        (
            with(JOB, "digest", Some("\"zz\"")),
            "job document: digest: expected a 16-hex-digit string",
        ),
        (
            with(JOB, "workload", Some("5")),
            "job document: workload: expected a string",
        ),
        (
            with(JOB, "max_ops", Some("\"many\"")),
            "job document: max_ops: expected a non-negative integer",
        ),
        (
            with(JOB, "sampling", Some("0")),
            "job document: sampling: a zero interval count is ambiguous; write \"off\"",
        ),
        (
            with(JOB, "sampling", Some("{\"intervls\": 8}")),
            "job document: sampling: unknown field `intervls` \
             (expected one of: intervals, warmup_frac)",
        ),
        (
            with(JOB, "config", Some("5")),
            "job document: config: expected an object",
        ),
        (
            with(JOB, "config", Some("{}")),
            "job document: config: missing field `model`",
        ),
        (
            with(JOB, "scenario", Some("5")),
            "job document: scenario: expected an object",
        ),
        (
            with(
                JOB,
                "scenario",
                Some(r#"{"id": "x", "family": "contact", "mesh": 5}"#),
            ),
            "job document: scenario.mesh: expected an object",
        ),
        (
            with(JOB, "scenario", Some(r#"{"id": "", "family": "contact"}"#)),
            "job scenario: invalid scenario: id must not be empty",
        ),
    ];
    check(&rows, |doc| JobDoc::decode(doc).map(drop));
}

#[test]
fn done_marker_messages() {
    let rows: Vec<(String, &str)> = vec![
        ("nonsense".into(), "done marker: expected `null` (byte 0)"),
        ("[]".into(), "done marker: expected an object"),
        (
            with(DONE, "extra", Some("1")),
            "done marker: unknown field `extra` \
             (expected one of: v, digest, worker, wall_s, stolen, error)",
        ),
        (
            with(DONE, "error", None),
            "done marker: missing field `error`",
        ),
        (
            with(DONE, "v", Some("2")),
            "done marker: v: unsupported version 2",
        ),
        (
            with(DONE, "digest", Some("5")),
            "done marker: digest: expected a 16-hex-digit string",
        ),
        (
            with(DONE, "worker", Some("5")),
            "done marker: worker: expected a string",
        ),
        (
            with(DONE, "wall_s", Some("\"x\"")),
            "done marker: wall_s: expected a number",
        ),
        (
            with(DONE, "stolen", Some("1")),
            "done marker: stolen: expected a boolean",
        ),
        (
            with(DONE, "error", Some("5")),
            "done marker: error: expected a string",
        ),
    ];
    check(&rows, |doc| DoneDoc::decode(doc).map(drop));
}

/// The known-good documents the hostile inputs are made from.
const GOLDENS: [&str; 10] = [
    include_str!("golden/specs/job.json"),
    include_str!("golden/specs/done.json"),
    include_str!("golden/specs/done_error.json"),
    include_str!("golden/specs/campaign_smoke.json"),
    include_str!("golden/specs/campaign_example.json"),
    include_str!("golden/specs/options_default.json"),
    include_str!("golden/specs/options_smarts8.json"),
    include_str!("golden/specs/options_sampling_object.json"),
    include_str!("golden/specs/options_analytic.json"),
    include_str!("golden/specs/co.json"),
];

/// Every reader, each with the encoding of what it accepted.
fn read_everywhere(input: &str) {
    hostile::check(input, CampaignSpec::parse, CampaignSpec::to_json);
    hostile::check(input, ScenarioSpec::parse, ScenarioSpec::to_json);
    hostile::check(input, JobDoc::decode, JobDoc::encode);
    hostile::check(input, DoneDoc::decode, DoneDoc::encode);
}

#[test]
fn byte_flips_and_truncations_are_refused_or_read_to_a_fixed_point() {
    for golden in GOLDENS {
        read_everywhere(golden);
        hostile::mutations(golden)
            .iter()
            .for_each(|doc| read_everywhere(doc));
    }
}

#[test]
fn a_value_of_every_other_type_is_refused_or_read_to_a_fixed_point() {
    for golden in GOLDENS {
        let doc = Json::parse(golden).expect("golden parses");
        for swapped in hostile::type_swaps(&doc) {
            read_everywhere(&swapped.pretty());
        }
    }
}

#[test]
fn a_damaged_stats_entry_never_decodes() {
    // Every field nonzero, so each line has digits a flip can alter.
    let mut stats = SimStats {
        freq_ghz: 3.0,
        ..SimStats::default()
    };
    for (k, (_, slot)) in stats.counters_mut().into_iter().enumerate() {
        *slot = 1000 + k as u64;
    }
    let entry = encode_stats(&stats);
    assert_eq!(decode_stats(&entry), Some(stats));
    for damaged in hostile::mutations(&entry) {
        let decoded = catch_unwind(AssertUnwindSafe(|| decode_stats(&damaged)))
            .unwrap_or_else(|_| panic!("decode_stats panicked on:\n{damaged}"));
        assert!(decoded.is_none(), "a damaged entry decoded:\n{damaged}");
    }

    let dir = std::env::temp_dir().join(format!("belenos-stats-readers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in [
        ("binary", &[0xff, 0xfe, 0x00, 0xc3][..]),
        ("empty", &[][..]),
    ] {
        let path = dir.join(format!("{name}.stats"));
        std::fs::write(&path, bytes).unwrap();
        let read = catch_unwind(|| read_stats(&path))
            .unwrap_or_else(|_| panic!("read_stats panicked on the {name} file"));
        assert!(
            matches!(read, Err(miss) if miss != Miss::Absent),
            "{name} file: {read:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The readers' vocabulary: every key of every golden, and a few values.
fn words() -> Vec<String> {
    let mut words = Vec::new();
    for golden in GOLDENS {
        hostile::keys(&Json::parse(golden).expect("golden parses"), &mut words);
    }
    let values = [
        "off",
        "on",
        "o3",
        "pd",
        "contact",
        "gem5",
        "table1",
        "deadbeef01234567",
    ];
    words.extend(values.map(str::to_string));
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn random_trees_are_refused_or_read_to_a_fixed_point(
        doc in hostile::Trees { depth: 4, words: words() }
    ) {
        read_everywhere(&doc.render());
    }
}
