//! Backend regression and cross-backend contract tests.
//!
//! The digest table below was captured from the pre-refactor monolithic
//! `O3Core::run` loop (commit f2d7768) over the full workload catalog:
//! a budgeted prefix run and an 8-interval sampled run on the Table II
//! gem5 baseline, plus a budgeted run on the host-like config, for every
//! catalog workload, and one full-trace run of the smallest workload.
//! The staged-pipeline refactor and the `CoreModel` trait dispatch must
//! keep the default `o3` backend **bit-identical** to that behavior; any
//! digest drift here is a correctness regression, not noise.
//!
//! Recapture (after an *intentional* model change) with
//! `cargo test -p belenos --release --test backends capture_o3_digests --
//! --ignored --nocapture`, and paste what it prints over the pinned table.

use belenos::experiment::Experiment;
use belenos::figures::bottleneck_rank;
use belenos_runner::cache::stats_digest as digest;
use belenos_uarch::{CoreConfig, ModelKind, SamplingConfig};
use belenos_workloads::by_id;

/// (workload, prefix-40k digest, sampled-30k/8 digest, host-40k digest),
/// captured pre-refactor.
const O3_DIGESTS: [(&str, u64, u64, u64); 20] = [
    (
        "ar",
        0xfc4d1c4f94d38b71,
        0xe7723b1fcf667671,
        0x047fba1061f4b34f,
    ),
    (
        "bp",
        0x854693b7adc38afd,
        0x11021cd76aa44791,
        0xfd480cf8d21663bd,
    ),
    (
        "co",
        0x5a7a44bb05fc0bd1,
        0x4f0558443c46ac77,
        0x9f599335bb2b8fe3,
    ),
    (
        "fl",
        0x421d499a78cab1d6,
        0xd8e56b07a160e14e,
        0x6960402ad4955ada,
    ),
    (
        "mu",
        0xdac5d5979b32473c,
        0xcbb5209576139253,
        0xa332e404e8dae255,
    ),
    (
        "mp",
        0xd0f3127b1a9193ea,
        0xc65331fd6c5df3be,
        0x4d911c8ba53c63ea,
    ),
    (
        "te",
        0xe8bfa1a74ad42a8b,
        0xf14a6c0aed5eb7f2,
        0xbafbe8f4a1ade3d1,
    ),
    (
        "ri",
        0xdd9e9eda4392be66,
        0xe81ba0bf5af700e9,
        0x7dedaa7cd669789a,
    ),
    (
        "ps",
        0xe8bfa1a74ad42a8b,
        0x678bd44e8bc6a68e,
        0xbafbe8f4a1ade3d1,
    ),
    (
        "pd",
        0x1d2246463b0b1efc,
        0x0b2c017c17c4a2e4,
        0x298a91723a662747,
    ),
    (
        "mg",
        0xe8bfa1a74ad42a8b,
        0xd876017161d06669,
        0xbafbe8f4a1ade3d1,
    ),
    (
        "fs",
        0x1ed87cbb274fd634,
        0x3e9600ba86e1e7bf,
        0xfcc77d1480e38396,
    ),
    (
        "mi",
        0xee7b915cd73432b2,
        0x51fc825e1017f575,
        0xbef4d353743a2b62,
    ),
    (
        "ma",
        0x392519e150c4e6df,
        0x87bb38d6d4a85d99,
        0xcb070326873879d5,
    ),
    (
        "dm",
        0xae448c55cf4596fa,
        0xda6fd949fb8cba37,
        0x08a0dec43e71b41f,
    ),
    (
        "tu",
        0x92f046f981c3e15b,
        0x51b994890d3e8ad4,
        0x13bcb2e5189bb1ea,
    ),
    (
        "rj",
        0x65cc214680c6f5f3,
        0x62b678cf6d98a69d,
        0x4335e4f278d63069,
    ),
    (
        "vc",
        0x3c105dad42160f42,
        0x81f447044b1a6ecd,
        0x587fc7b820882946,
    ),
    (
        "bi",
        0x383dcf588689fc3d,
        0x006a89c734bb6775,
        0xc0ee9c2167f03530,
    ),
    (
        "eye",
        0xe8bfa1a74ad42a8b,
        0x41e8e3b8fd99cb85,
        0xbafbe8f4a1ade3d1,
    ),
];

/// Full-trace pd run on the gem5 baseline, captured pre-refactor.
const O3_FULL_PD_DIGEST: u64 = 0x630da4b8145284d8;

/// One workload's row of [`O3_DIGESTS`]: its prefix-40k and sampled-30k/8
/// runs on the gem5 baseline and its prefix-40k run on the host-like
/// config. The asserting test and the capture both compute rows here.
fn o3_digest_row(exp: &Experiment) -> (u64, u64, u64) {
    let cfg = CoreConfig::gem5_baseline();
    (
        digest(&exp.simulate(&cfg, 40_000)),
        digest(&exp.simulate_sampled(&cfg, 30_000, &SamplingConfig::smarts(8))),
        digest(&exp.simulate(&CoreConfig::host_like(), 40_000)),
    )
}

/// [`O3_FULL_PD_DIGEST`]'s run.
fn o3_full_pd_digest() -> u64 {
    let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
    digest(&exp.simulate(&CoreConfig::gem5_baseline(), 0))
}

#[test]
fn o3_backend_is_bit_identical_to_pre_refactor_capture() {
    let catalog = belenos_workloads::catalog();
    assert_eq!(
        catalog.len(),
        O3_DIGESTS.len(),
        "capture covers the full catalog; recapture after adding workloads"
    );
    for (spec, &(id, prefix_d, sampled_d, host_d)) in catalog.iter().zip(O3_DIGESTS.iter()) {
        assert_eq!(spec.id, id, "catalog order changed; recapture digests");
        let exp = Experiment::prepare(spec).unwrap();
        assert_eq!(
            o3_digest_row(&exp),
            (prefix_d, sampled_d, host_d),
            "{id}: (prefix, sampled, host) o3 runs drifted from the pre-refactor capture"
        );
    }
}

#[test]
fn o3_full_trace_is_bit_identical_to_pre_refactor_capture() {
    assert_eq!(
        o3_full_pd_digest(),
        O3_FULL_PD_DIGEST,
        "full-trace o3 run drifted from the pre-refactor capture"
    );
}

/// Prints the two pins above in their source form, ready to paste over
/// them after an intentional model change (see the header).
#[test]
#[ignore = "capture tool: prints the o3 digest pins"]
fn capture_o3_digests() {
    let catalog = belenos_workloads::catalog();
    println!(
        "const O3_DIGESTS: [(&str, u64, u64, u64); {}] = [",
        catalog.len()
    );
    for spec in &catalog {
        let (prefix, sampled, host) = o3_digest_row(&Experiment::prepare(spec).unwrap());
        println!("    (");
        println!("        \"{}\",", spec.id);
        for d in [prefix, sampled, host] {
            println!("        0x{d:016x},");
        }
        println!("    ),");
    }
    println!("];");
    println!(
        "const O3_FULL_PD_DIGEST: u64 = 0x{:016x};",
        o3_full_pd_digest()
    );
}

#[test]
fn telemetry_is_purely_observational() {
    // The pinned pd prefix digest must come out bit-identical whether
    // telemetry is disabled (the default in tests) or recording to a
    // buffer sink scoped to this thread — instrumentation may observe a
    // simulation but can never perturb it.
    let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
    let cfg = CoreConfig::gem5_baseline();
    let expected = O3_DIGESTS
        .iter()
        .find(|&&(id, ..)| id == "pd")
        .expect("pd is pinned")
        .1;
    assert_eq!(digest(&exp.simulate(&cfg, 40_000)), expected);

    let (with_telemetry, events) =
        belenos_telemetry::capture(|| digest(&exp.simulate(&cfg, 40_000)));

    assert_eq!(
        with_telemetry, expected,
        "o3 digest drifted with a telemetry sink installed"
    );
    assert!(
        events.iter().any(|e| {
            let is = |k, v| e.get(k).and_then(belenos_json::Json::as_str) == Some(v);
            is("ev", "span_open") && is("name", "phase")
        }),
        "the instrumented run must actually have emitted phase spans"
    );
}

#[test]
fn explicit_o3_selection_matches_the_default() {
    // `model` defaults to O3; selecting it explicitly must change
    // nothing about the statistics (only the cache identity).
    let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
    let default_cfg = CoreConfig::gem5_baseline();
    let explicit = default_cfg.clone().with_model(ModelKind::O3);
    assert_eq!(
        exp.simulate(&default_cfg, 30_000),
        exp.simulate(&explicit, 30_000)
    );
}

#[test]
fn all_backends_run_the_same_experiment() {
    let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
    let mut committed = Vec::new();
    for kind in ModelKind::ALL {
        let cfg = CoreConfig::gem5_baseline().with_model(kind);
        let stats = exp.simulate(&cfg, 40_000);
        assert!(stats.committed_ops > 0, "{kind} must simulate");
        assert!(stats.ipc() > 0.0, "{kind} must report IPC");
        let (r, fe, bs, be) = stats.topdown();
        assert!(
            (r + fe + bs + be - 1.0).abs() < 1e-9,
            "{kind} TMA must partition"
        );
        committed.push(stats.committed_ops);
    }
    // All backends measure comparable op windows (warmup discard differs
    // by at most a commit group between backends).
    let max = *committed.iter().max().unwrap();
    let min = *committed.iter().min().unwrap();
    assert!(max - min <= 16, "windows comparable: {committed:?}");
}

#[test]
fn backends_order_by_fidelity_cost() {
    // The in-order core cannot beat the out-of-order core on ILP-rich
    // numeric traces; cycle estimates should still be same-order.
    let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
    let o3 = exp.simulate(
        &CoreConfig::gem5_baseline().with_model(ModelKind::O3),
        60_000,
    );
    let io = exp.simulate(
        &CoreConfig::gem5_baseline().with_model(ModelKind::InOrder),
        60_000,
    );
    assert!(
        io.cycles > o3.cycles,
        "in-order ({}) must be slower than o3 ({})",
        io.cycles,
        o3.cycles
    );
    assert!(io.ipc() <= 1.0 + 1e-9, "in-order is scalar");
}

#[test]
fn analytic_backend_agrees_with_o3_on_the_top_bottleneck_of_pd() {
    // One fixed, stable case of the agreement analysis: the pd workload's
    // dominant stall category matches across the detailed and the analytic
    // backend, classified as every report classifies it.
    let top = |stats| bottleneck_rank(stats)[0];
    let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
    let o3 = exp.simulate(&CoreConfig::gem5_baseline(), 60_000);
    let an = exp.simulate(
        &CoreConfig::gem5_baseline().with_model(ModelKind::Analytic),
        60_000,
    );
    assert_eq!(
        top(&o3),
        top(&an),
        "pd top bottleneck must agree (o3 {:?} vs analytic {:?})",
        o3.topdown(),
        an.topdown()
    );
}
