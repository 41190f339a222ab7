//! Scenario-API regression and contract tests.
//!
//! The fingerprint table below was captured from the pre-refactor
//! hardcoded model builders (commit 2bf0c7c, the closed
//! `WorkloadSpec { build: fn() -> FeModel }` catalog): for every distinct
//! preset id, the trace fingerprint of the prepared experiment — a
//! content hash of the solver's phase log plus the trace-expansion
//! configuration. The parametric `ScenarioSpec` presets must reproduce
//! those builders **bit-identically**: any drift here means a preset's
//! family/parameter translation changed the physics, the mesh, the
//! solver settings or the expansion knobs.
//!
//! (The o3 digest pins in `tests/backends.rs` cover the same property at
//! the simulated-statistics level; this table fails faster and names the
//! diverging preset directly.)

use belenos::campaign::{Analysis, CampaignSpec, SpecError, WorkloadSet};
use belenos::experiment::Experiment;
use belenos_json::ToJson;
use belenos_runner::{CacheKey, Runner, Simulate};
use belenos_trace::expand::{ExpandConfig, Expander};
use belenos_trace::{Fnv64, MicroOp};
use belenos_uarch::{CoreConfig, SamplingConfig};
use belenos_workloads::{by_id, Family, ScenarioSpec};

/// (preset id, pre-refactor trace fingerprint), in historical `by_id`
/// lookup order (vtune → gem5 → catalog precedence).
const PRESET_TRACE_FINGERPRINTS: [(&str, u64); 31] = [
    ("ar", 0xa89348ac3c91da00),
    ("bp", 0x17db84cf0c8e5ea6),
    ("co", 0x76030f36ff930a80),
    ("fl", 0xeca0848b17beae5f),
    ("mu", 0xa361473feae9317d),
    ("mp", 0x298c1bbaf989fb5e),
    ("te", 0x48bc896eacc439eb),
    ("ri", 0x8d83f5439e07cc9e),
    ("ps", 0x67d3bbf6765a2259),
    ("pd", 0xe296f5921905f412),
    ("mg", 0x00107751e6d36935),
    ("fs", 0x7ef68d08832f286f),
    ("mi", 0xc60aacf18c8600fa),
    ("ma", 0x75313c424fd91fdd),
    ("dm", 0x6f6ee6d914275062),
    ("tu", 0xd6ed6ed6564e4d3f),
    ("rj", 0x3c5aa38effe5f340),
    ("vc", 0x30a81806c17c9993),
    ("bi", 0x954ea8fb1c25277e),
    ("eye", 0xa1bb325207339f59),
    ("bp07", 0x17db84cf0c8e5ea6),
    ("bp08", 0x17db84cf0c8e5ea6),
    ("bp09", 0x17db84cf0c8e5ea6),
    ("fl33", 0xbf329bdb1b18deb4),
    ("fl34", 0xeca0848b17beae5f),
    ("ma26", 0x6490f520716b60ad),
    ("ma27", 0xeddfad205e81e93d),
    ("ma28", 0x75313c424fd91fdd),
    ("ma29", 0x7c7eec074bec194d),
    ("ma30", 0x75313c424fd91fdd),
    ("ma31", 0x4229e3a4e9594c3d),
];

/// Knobs whose cap strides every subsampled kernel loop, so the stream
/// pins below cover the strided paths of real solves.
const TUNED: ExpandConfig = ExpandConfig {
    sample: 2,
    code_bloat: 3,
    spin_scale: 1.5,
    max_kernel_ops: 11,
};

/// (preset id, `stream_pin` of its log expanded under [`TUNED`]), in the
/// order of [`PRESET_TRACE_FINGERPRINTS`].
const PRESET_TUNED_STREAMS: [(&str, (u64, u64)); 31] = [
    ("ar", (33276, 0xd65b0fd11378a16d)),
    ("bp", (25392, 0xfa1f48075eca04cd)),
    ("co", (20761, 0x31b21858271f4c02)),
    ("fl", (41848, 0x1c3e23f63afb5f2e)),
    ("mu", (16299, 0x40874b6039a145bf)),
    ("mp", (37584, 0x1ec8081840b8676b)),
    ("te", (7322, 0xc7889390c21cc304)),
    ("ri", (12756, 0x15ff5d9f40565130)),
    ("ps", (6631, 0x08f334aa5c48fa8c)),
    ("pd", (40236, 0x818b334acc66e079)),
    ("mg", (18120, 0xb9a7047c20644ccc)),
    ("fs", (37878, 0x91a1e59bee325b48)),
    ("mi", (31026, 0x57bf886d1472a188)),
    ("ma", (24240, 0x43b1e19b53dfbdc4)),
    ("dm", (83580, 0xa9cd838dd0fc50c6)),
    ("tu", (13584, 0xdf25751266f41e98)),
    ("rj", (158160, 0xdf003956932f1cf0)),
    ("vc", (7880, 0x5dfb3cfaf3ed45c9)),
    ("bi", (25392, 0xb675bf417ab38cae)),
    ("eye", (18776, 0x91698ed9686ae981)),
    ("bp07", (25392, 0xfa1f48075eca04cd)),
    ("bp08", (25392, 0xfa1f48075eca04cd)),
    ("bp09", (25392, 0xfa1f48075eca04cd)),
    ("fl33", (10462, 0x5ad797083cf9d0da)),
    ("fl34", (41848, 0x1c3e23f63afb5f2e)),
    ("ma26", (24240, 0x43b1e19b53dfbdc4)),
    ("ma27", (24240, 0x43b1e19b53dfbdc4)),
    ("ma28", (24240, 0x43b1e19b53dfbdc4)),
    ("ma29", (24240, 0x43b1e19b53dfbdc4)),
    ("ma30", (24240, 0x43b1e19b53dfbdc4)),
    ("ma31", (24240, 0x43b1e19b53dfbdc4)),
];

/// `stream_pin` of `co`'s full stream under its own knobs.
const CO_STREAM: (u64, u64) = (1702608, 0xefac3b6122432704);

/// `(op count, FNV-64 over all nine fields of every op)`.
fn stream_pin(ops: impl Iterator<Item = MicroOp>) -> (u64, u64) {
    let mut h = Fnv64::new();
    let mut n = 0;
    for op in ops {
        n += 1;
        h.write_bytes(&[op.kind as u8, op.cat as u8, op.size, op.taken as u8])
            .write_bytes(&op.pc.to_le_bytes())
            .write_u64(op.addr)
            .write_bytes(&op.target.to_le_bytes())
            .write_bytes(&op.dep1.to_le_bytes())
            .write_bytes(&op.dep2.to_le_bytes());
    }
    (n, h.finish())
}

#[test]
fn every_preset_trace_is_bit_identical_to_the_pre_refactor_builders() {
    for (&(id, pinned), &(stream_id, stream)) in
        PRESET_TRACE_FINGERPRINTS.iter().zip(&PRESET_TUNED_STREAMS)
    {
        assert_eq!(id, stream_id);
        let spec = by_id(id).unwrap_or_else(|| panic!("preset {id} missing"));
        let exp = Experiment::prepare(&spec).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(
            exp.trace_fingerprint(),
            pinned,
            "{id}: parametric preset drifted from the pre-refactor hardcoded builder"
        );
        assert_eq!(
            stream_pin(Expander::with_config(exp.log(), TUNED)),
            stream,
            "{id}: tuned stream"
        );
        if id == "co" {
            let full = Expander::with_config(exp.log(), spec.expand_config());
            assert_eq!(stream_pin(full), CO_STREAM, "co: default stream");
        }
    }
}

/// Prints the stream pins above in their source form, ready to paste
/// over them after an intentional expander change: `cargo test -p belenos
/// --release --test scenarios capture_stream_pins -- --ignored
/// --nocapture`.
#[test]
#[ignore = "capture tool: prints the preset stream pins"]
fn capture_stream_pins() {
    println!("const PRESET_TUNED_STREAMS: [(&str, (u64, u64)); 31] = [");
    for &(id, _) in &PRESET_TRACE_FINGERPRINTS {
        let exp = Experiment::prepare(&by_id(id).unwrap()).unwrap();
        let (n, h) = stream_pin(Expander::with_config(exp.log(), TUNED));
        println!("    (\"{id}\", ({n}, 0x{h:016x})),");
    }
    println!("];");
    let co = by_id("co").unwrap();
    let exp = Experiment::prepare(&co).unwrap();
    let (n, h) = stream_pin(Expander::with_config(exp.log(), co.expand_config()));
    println!("const CO_STREAM: (u64, u64) = ({n}, 0x{h:016x});");
}

#[test]
fn every_preset_roundtrips_through_json_with_identical_digest() {
    for &(id, _) in &PRESET_TRACE_FINGERPRINTS {
        let spec = by_id(id).unwrap();
        let back =
            ScenarioSpec::parse(&spec.to_json()).unwrap_or_else(|e| panic!("{id} roundtrip: {e}"));
        assert_eq!(back, spec, "{id}: JSON normal form must parse back equal");
        assert_eq!(back.stable_digest(), spec.stable_digest(), "{id}");
    }
}

#[test]
fn trace_identical_parametric_variants_get_distinct_cache_keys() {
    // The `bp07`–`bp09` permeability axis produces structurally
    // identical traces (same pattern, same iteration counts), so trace
    // fingerprints alone would alias them. The scenario digest folded
    // into `Simulate::fingerprint` must keep their cache keys apart —
    // this is the premise of the CacheKey v4 bump.
    let a = Experiment::prepare(&by_id("bp07").unwrap()).unwrap();
    let b = Experiment::prepare(&by_id("bp09").unwrap()).unwrap();
    assert_eq!(
        a.trace_fingerprint(),
        b.trace_fingerprint(),
        "premise: the permeability axis does not move the trace structure"
    );
    assert_ne!(a.fingerprint(), b.fingerprint());
}

#[test]
fn same_id_scenarios_differing_in_one_parameter_never_share_a_cache_key() {
    // Two scenarios sharing an id stem but differing in exactly one
    // parameter (contact penalty) must produce distinct CacheKeys under
    // identical machine config / budget / sampling.
    let base = by_id("co").unwrap();
    let mut variant = base.clone();
    if let Family::Contact { penalty, .. } = &mut variant.family {
        *penalty *= 1.2;
    } else {
        panic!("co is the contact preset");
    }
    assert_eq!(base.id, variant.id, "premise: ids collide");
    let a = Experiment::prepare(&base).unwrap();
    let b = Experiment::prepare(&variant).unwrap();
    let cfg = CoreConfig::gem5_baseline();
    let sampling = SamplingConfig::off();
    let key_a = CacheKey::new(a.workload_id(), a.fingerprint(), &cfg, 20_000, &sampling);
    let key_b = CacheKey::new(b.workload_id(), b.fingerprint(), &cfg, 20_000, &sampling);
    assert_ne!(key_a, key_b, "parametric variants must never alias");
    assert_ne!(key_a.address(), key_b.address());
}

#[test]
fn off_catalog_scenario_runs_end_to_end_from_campaign_json_alone() {
    // The acceptance scenario: contact at a 6x6x8 shuffled mesh, defined
    // purely inside campaign JSON — no Rust code, no preset. It must
    // validate, build, simulate through the cache-aware runner and come
    // back as a structured report.
    let spec = CampaignSpec::parse(
        r#"{
            "name": "off-catalog",
            "workloads": [
                {"id": "co-6x6x8",
                 "family": "contact",
                 "mesh": {"nx": 6, "ny": 6, "nz": 8, "shuffle_seed": 777}},
                "pd"
            ],
            "options": {"max_ops": 20000},
            "analyses": ["topdown"]
        }"#,
    )
    .expect("inline scenario validates");
    match &spec.workloads {
        WorkloadSet::Scenarios(specs) => {
            assert_eq!(specs.len(), 2);
            assert_eq!(specs[0].id, "co-6x6x8");
            assert_eq!(specs[0].mesh.shuffle_seed, Some(777));
            assert_eq!(specs[1].id, "pd", "preset id resolved inline");
        }
        other => panic!("expected inline scenarios, got {other:?}"),
    }
    let runner = Runner::isolated(2);
    let report = spec
        .prepare()
        .expect("off-catalog model solves")
        .run(&runner);
    assert!(report.failures().is_empty());
    let text = report.to_text();
    assert!(
        text.contains("co-6x6x8"),
        "report rows carry the inline id:\n{text}"
    );
    assert!(text.contains("pd"));
}

#[test]
fn mesh_sweep_campaign_reports_scaling_per_resolution() {
    let spec = CampaignSpec::parse(
        r#"{
            "name": "scaling",
            "workloads": {"base": ["pd"], "resolutions": [2, 3]},
            "options": {"max_ops": 15000},
            "analyses": ["mesh_scaling"]
        }"#,
    )
    .expect("sweep validates");
    let report = spec.prepare().expect("solves").run(&Runner::isolated(2));
    assert!(report.failures().is_empty());
    let text = report.to_text();
    assert!(text.contains("pd-r2"), "{text}");
    assert!(text.contains("pd-r3"), "{text}");
    assert!(text.contains("2x2x2"), "{text}");
    assert!(text.contains("3x3x3"), "{text}");
    assert!(text.contains("Mesh-resolution scaling"), "{text}");
}

#[test]
fn campaign_json_rejects_bad_inline_scenarios() {
    // Unknown preset id inside a mixed list.
    let err = CampaignSpec::parse(
        r#"{"workloads": [{"id": "x", "family": "contact"}, "zz"],
            "analyses": ["topdown"]}"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("zz"), "{err}");
    // Invalid inline parameters (zero-resolution mesh).
    let err = CampaignSpec::parse(
        r#"{"workloads": [{"id": "x", "family": "contact", "mesh": {"nx": 0}}],
            "analyses": ["topdown"]}"#,
    )
    .unwrap_err();
    assert!(matches!(err, SpecError::Scenario(_)), "{err}");
    // Duplicate inline ids.
    let err = CampaignSpec::parse(
        r#"{"workloads": [{"id": "x", "family": "contact"},
                           {"id": "x", "family": "arterial"}],
            "analyses": ["topdown"]}"#,
    )
    .unwrap_err();
    assert_eq!(err, SpecError::DuplicateScenario("x".into()));
    // Duplicate preset ids and duplicate sweep resolutions are just as
    // indistinguishable in reports as duplicate inline ids.
    let err =
        CampaignSpec::parse(r#"{"workloads": ["pd", "pd"], "analyses": ["topdown"]}"#).unwrap_err();
    assert_eq!(err, SpecError::DuplicateScenario("pd".into()));
    // Degenerate sweep axes.
    for bad in [
        r#"{"workloads": {"base": ["pd"], "resolutions": []}, "analyses": ["mesh_scaling"]}"#,
        r#"{"workloads": {"base": ["pd"], "resolutions": [0]}, "analyses": ["mesh_scaling"]}"#,
        r#"{"workloads": {"base": ["pd"], "resolutions": [3, 3]}, "analyses": ["mesh_scaling"]}"#,
        r#"{"workloads": {"base": [], "resolutions": [3]}, "analyses": ["mesh_scaling"]}"#,
        r#"{"workloads": {"base": "paper", "resolutions": [3]}, "analyses": ["mesh_scaling"]}"#,
    ] {
        assert!(CampaignSpec::parse(bad).is_err(), "must reject {bad}");
    }
}

#[test]
fn a_section_of_the_wrong_shape_is_rejected_by_name() {
    // Each of these used to read as an object with every key absent and
    // silently take the family's defaults.
    let shaped = |section: &str, value: &str| {
        format!(r#"{{"id": "x", "family": "contact", "{section}": {value}}}"#)
    };
    for (section, value) in [
        ("mesh", "5"),
        ("stepping", r#""fast""#),
        ("newton", "[]"),
        ("expand", "true"),
        ("params", "null"),
    ] {
        let err = ScenarioSpec::parse(&shaped(section, value)).unwrap_err();
        let want = format!("{section}: expected an object");
        assert!(err.to_string().contains(&want), "{section}: {err}");
        let err = CampaignSpec::parse(&format!(
            r#"{{"workloads": [{}], "analyses": ["topdown"]}}"#,
            shaped(section, value)
        ))
        .unwrap_err();
        assert!(err.to_string().contains(&want), "{section}: {err}");
    }
    // The document from the report, whole.
    let all =
        r#"{"id":"x","family":"contact","mesh":5,"stepping":"fast","newton":[],"expand":true}"#;
    assert!(ScenarioSpec::parse(all).is_err());
}

#[test]
fn inline_workload_sets_roundtrip_through_campaign_json() {
    let inline = ScenarioSpec::parse(
        r#"{"id": "bp-stiff", "family": "biphasic",
            "params": {"permeability": [0.05, 0.005, 0.0005]}}"#,
    )
    .unwrap();
    for set in [
        WorkloadSet::Scenarios(vec![inline.clone(), by_id("pd").unwrap()]),
        WorkloadSet::MeshSweep {
            base: vec![inline],
            resolutions: vec![3, 4, 6],
        },
    ] {
        let spec = CampaignSpec::new("roundtrip")
            .with_workloads(set.clone())
            .with_analysis(Analysis::Topdown);
        let back = CampaignSpec::parse(&spec.to_json()).expect("roundtrip");
        assert_eq!(back.workloads, set);
    }
}

#[test]
fn mesh_sweep_resolution_still_respects_scenario_validation() {
    // A sweep whose derived variants exceed the mesh bounds fails at
    // preparation with the derived scenario named, not a panic.
    let set = WorkloadSet::MeshSweep {
        base: vec![by_id("pd").unwrap()],
        resolutions: vec![3],
    };
    let specs = set.resolve(belenos::campaign::PaperSet::Catalog);
    assert_eq!(specs.len(), 1);
    assert_eq!(specs[0].id, "pd-r3");
    assert!(specs[0].validate().is_ok());
}

/// (preset id, `ScenarioSpec::stable_digest()`) for every distinct
/// preset, in `distinct_presets()` order, captured at 6a2b59a — the
/// commit before spec records listed their fields once. These values
/// name entries in every existing result cache, trace store and
/// job board: a refactor of how specs are hashed or serialised must
/// leave them, and the byte goldens under `tests/golden/specs/`, alone.
const PRESET_SPEC_DIGESTS: [(&str, u64); 31] = [
    ("bp07", 0x3d7f8acbbedd520d),
    ("bp08", 0x0207cb274736bc6b),
    ("bp09", 0x94f9ffa55a7a41e0),
    ("fl33", 0xa810806d20608139),
    ("fl34", 0x215c8fa587b3a2ba),
    ("ma26", 0x6f0f280aae032656),
    ("ma27", 0x7ffc19ea776e0a66),
    ("ma28", 0x47b0fea7a36d29ea),
    ("ma29", 0x41b2d42fbd2f5fcc),
    ("ma30", 0x26791929dd437a3c),
    ("ma31", 0x8920ca0bc9e73468),
    ("eye", 0xbaddcdaa5dff3f20),
    ("ar", 0xfb58300d6841a8cd),
    ("co", 0x7d52980cb4915fb3),
    ("dm", 0x3cdead4ef1df04b2),
    ("ma", 0x9121537ac1e5d772),
    ("rj", 0xfffff2d1b482bfe3),
    ("tu", 0xef942b5b29549aa3),
    ("bp", 0xfab922306c37ce26),
    ("fl", 0x95d4561410fac189),
    ("mu", 0x9bc5db697f67ccfa),
    ("mp", 0xa78cd86a8ade9500),
    ("te", 0x92f500b1f28a2645),
    ("ri", 0x7c8111efc5c0d958),
    ("ps", 0x3e0a4ea60fffe854),
    ("pd", 0x5c221ba836c03285),
    ("mg", 0x428a158093811616),
    ("fs", 0xbab74280adb96b28),
    ("mi", 0x3ec13195209910c5),
    ("vc", 0xa9b0cc900738404e),
    ("bi", 0x34fd737e5d5699ab),
];

fn golden_spec(name: &str) -> String {
    let path = format!(
        "{}/../../tests/golden/specs/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn spec_config_and_cache_key_digests_are_the_pinned_values() {
    let presets = belenos_workloads::distinct_presets();
    assert_eq!(presets.len(), PRESET_SPEC_DIGESTS.len());
    for (spec, &(id, pinned)) in presets.iter().zip(&PRESET_SPEC_DIGESTS) {
        assert_eq!(spec.id, id);
        assert_eq!(spec.stable_digest(), pinned, "{id}: scenario digest moved");
    }
    assert_eq!(
        CoreConfig::gem5_baseline().stable_digest(),
        0x6db13e7286fd4b0b
    );
    assert_eq!(CoreConfig::host_like().stable_digest(), 0x05952f8934139849);
    let key = CacheKey::new(
        "co",
        by_id("co").unwrap().stable_digest(),
        &CoreConfig::gem5_baseline(),
        20_000,
        &SamplingConfig::smarts(8),
    );
    assert_eq!(key.address(), 0xcdf6aa8daf30328c);
}

#[test]
fn spec_and_config_json_are_the_golden_bytes() {
    for spec in belenos_workloads::distinct_presets() {
        assert_eq!(spec.to_json(), golden_spec(&spec.id), "{}", spec.id);
    }
    for (name, config) in [
        ("gem5_baseline", CoreConfig::gem5_baseline()),
        ("host_like", CoreConfig::host_like()),
    ] {
        assert_eq!(config.to_json().pretty(), golden_spec(name), "{name}");
    }
}
