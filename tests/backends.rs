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
//! The `inorder` and `analytic` tables pin the same three runs for the
//! two cheaper backends (captured at commit 575948f, before their machine
//! state moved into the shared `Machine`); their sampled column is the
//! only pin on each backend's functional warm-up.
//!
//! Recapture (after an *intentional* model change) with
//! `cargo test -p belenos --release --test backends capture_digests --
//! --ignored --nocapture`, and paste what it prints over the pinned tables.

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

/// (workload, prefix-40k digest, sampled-30k/8 digest, host-40k digest)
/// of the `inorder` backend.
const INORDER_DIGESTS: [(&str, u64, u64, u64); 20] = [
    (
        "ar",
        0x514bb8678396dbca,
        0xd7d41f2f669bfeae,
        0x1bb92fe4c6ac20d4,
    ),
    (
        "bp",
        0x63370b44917f6621,
        0xa4e5d6c8684854fe,
        0xebf8eafe664a9dbf,
    ),
    (
        "co",
        0x518d0de7a5efe2e3,
        0x7878822feada55ef,
        0x593dc7ca9470de04,
    ),
    (
        "fl",
        0xc08b2d9f74972556,
        0x66b49aae67787844,
        0xed9057fd809f9a38,
    ),
    (
        "mu",
        0x22a36f6ed3be872f,
        0x7d9853f20a468608,
        0xf19328a871476a7f,
    ),
    (
        "mp",
        0x59ab181088fe45ed,
        0xa270c2239cabb022,
        0x57e63e856954a673,
    ),
    (
        "te",
        0x56945abb816bc9a4,
        0xf72bf96baa16e706,
        0x2b36d6f09ce9b436,
    ),
    (
        "ri",
        0x084cc5911f0014b1,
        0xc58d3aada57092e6,
        0x1983b68aed2995bb,
    ),
    (
        "ps",
        0x56945abb816bc9a4,
        0xc046b1ed7d8b592b,
        0x2b36d6f09ce9b436,
    ),
    (
        "pd",
        0xb18593838eb4cc25,
        0xa02eb01812d43044,
        0x1697007a99aa22ec,
    ),
    (
        "mg",
        0x56945abb816bc9a4,
        0x4f804e24a9358a05,
        0x2b36d6f09ce9b436,
    ),
    (
        "fs",
        0x6c9bc639f9dc3ea2,
        0x195005dd7d0c44e4,
        0x535aebee6cb26b05,
    ),
    (
        "mi",
        0x1ca5c8d4ac396fec,
        0x55f4dc36766120f4,
        0x2d4127ea78ce7ef7,
    ),
    (
        "ma",
        0x25f846b24f77b8fc,
        0x1fef1d8d2ec838db,
        0x916218fd997c5c8e,
    ),
    (
        "dm",
        0x9be756b4b73e3d94,
        0x790d93e1a77add85,
        0xacb58be3d21b7255,
    ),
    (
        "tu",
        0x8b4902d83ce27028,
        0xa9471109a6982f03,
        0xa9193770ca4a2b7c,
    ),
    (
        "rj",
        0x69b861bd1a16db84,
        0x2b491f53b2ddda6e,
        0x5fc7fc9ee15274af,
    ),
    (
        "vc",
        0x9292464c7c431df6,
        0x09978a5d0bcf0e62,
        0xbdb790199d2cf4bb,
    ),
    (
        "bi",
        0x958ece239ab0bb78,
        0x303a2c749651333f,
        0x940271b33124667e,
    ),
    (
        "eye",
        0x56945abb816bc9a4,
        0x05b2c30f659405c9,
        0x2b36d6f09ce9b436,
    ),
];

/// (workload, prefix-40k digest, sampled-30k/8 digest, host-40k digest)
/// of the `analytic` backend.
const ANALYTIC_DIGESTS: [(&str, u64, u64, u64); 20] = [
    (
        "ar",
        0xfca4225c7c52fb3e,
        0x0dd399deb7b39726,
        0x3eee4416b6e2b018,
    ),
    (
        "bp",
        0x0f5f8e8dac8e325b,
        0xc094093ecb40dc6e,
        0x36455903102dddc3,
    ),
    (
        "co",
        0xca763ca6b43abb66,
        0x032fbcefb7deef00,
        0x2a4512bb6bdddfac,
    ),
    (
        "fl",
        0xe2c8dfa919cfbd9b,
        0xd1c69689a6b9e1da,
        0x89e7f02a54ee1121,
    ),
    (
        "mu",
        0x0b5d708af8aa134d,
        0x750dd8d9c205046f,
        0x6f3082deb8768c10,
    ),
    (
        "mp",
        0x6d769fd29a59b968,
        0xd4a498d0c13a653c,
        0xe1dae1c9f8ee0e09,
    ),
    (
        "te",
        0x54be783163cebf18,
        0x2a6f72f701190146,
        0x86f63594219d5b06,
    ),
    (
        "ri",
        0xb7e95fb12a3fbf10,
        0x762997782a93f92c,
        0x36c8f5b85d511424,
    ),
    (
        "ps",
        0x54be783163cebf18,
        0x43ab3afff7b50475,
        0x86f63594219d5b06,
    ),
    (
        "pd",
        0x6f8a410e513d701f,
        0x46bfb98ac9ee0f34,
        0x6ae83ce8f6438bd2,
    ),
    (
        "mg",
        0x54be783163cebf18,
        0x7918b069607e1739,
        0x86f63594219d5b06,
    ),
    (
        "fs",
        0x81215536f96df751,
        0x11ee394b826782f0,
        0x93cbf2663624a28e,
    ),
    (
        "mi",
        0x263db3ef55ba3244,
        0x7102fb9d03af8f08,
        0x36c8f5b85d511424,
    ),
    (
        "ma",
        0x0be75835ca66f647,
        0x089b09ff2dd053a0,
        0x677323441b00563a,
    ),
    (
        "dm",
        0xbd8c85b95b1f7906,
        0xb9d2da6a76e5b409,
        0xe3d22d23b573e300,
    ),
    (
        "tu",
        0xb624dfd9970170c5,
        0x727e1866d118dbd7,
        0x2d7cc26cf672a6db,
    ),
    (
        "rj",
        0x96855c7ef8ac814f,
        0x691ab7f68333e71d,
        0x64976f9340bfc424,
    ),
    (
        "vc",
        0x263db3ef55ba3244,
        0x09f4450845675f85,
        0x36c8f5b85d511424,
    ),
    (
        "bi",
        0x263db3ef55ba3244,
        0xfbb7e84c6fc45bdb,
        0x36c8f5b85d511424,
    ),
    (
        "eye",
        0x54be783163cebf18,
        0xb6bf71d9cc9fbd6f,
        0x86f63594219d5b06,
    ),
];

/// One workload's row of a backend's table: its prefix-40k and
/// sampled-30k/8 runs on the gem5 baseline and its prefix-40k run on the
/// host-like config, all under `kind`. The asserting tests and the
/// capture both compute rows here.
fn digest_row(exp: &Experiment, kind: ModelKind) -> (u64, u64, u64) {
    let cfg = CoreConfig::gem5_baseline().with_model(kind);
    (
        digest(&exp.simulate(&cfg, 40_000)),
        digest(&exp.simulate_sampled(&cfg, 30_000, &SamplingConfig::smarts(8))),
        digest(&exp.simulate(&CoreConfig::host_like().with_model(kind), 40_000)),
    )
}

/// [`O3_FULL_PD_DIGEST`]'s run.
fn o3_full_pd_digest() -> u64 {
    let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
    digest(&exp.simulate(&CoreConfig::gem5_baseline(), 0))
}

/// Asserts every catalog workload's row of `kind`'s pinned `table`.
fn assert_pinned(kind: ModelKind, table: &[(&str, u64, u64, u64)]) {
    let catalog = belenos_workloads::catalog();
    assert_eq!(
        catalog.len(),
        table.len(),
        "capture covers the full catalog; recapture after adding workloads"
    );
    for (spec, &(id, prefix_d, sampled_d, host_d)) in catalog.iter().zip(table.iter()) {
        assert_eq!(spec.id, id, "catalog order changed; recapture digests");
        let exp = Experiment::prepare(spec).unwrap();
        assert_eq!(
            digest_row(&exp, kind),
            (prefix_d, sampled_d, host_d),
            "{id}: (prefix, sampled, host) {kind} runs drifted from the capture"
        );
    }
}

#[test]
fn o3_backend_is_bit_identical_to_pre_refactor_capture() {
    assert_pinned(ModelKind::O3, &O3_DIGESTS);
}

#[test]
fn inorder_backend_is_bit_identical_to_its_capture() {
    assert_pinned(ModelKind::InOrder, &INORDER_DIGESTS);
}

#[test]
fn analytic_backend_is_bit_identical_to_its_capture() {
    assert_pinned(ModelKind::Analytic, &ANALYTIC_DIGESTS);
}

#[test]
fn o3_full_trace_is_bit_identical_to_pre_refactor_capture() {
    assert_eq!(
        o3_full_pd_digest(),
        O3_FULL_PD_DIGEST,
        "full-trace o3 run drifted from the pre-refactor capture"
    );
}

/// Prints the pins above in their source form, ready to paste over them
/// after an intentional model change (see the header).
#[test]
#[ignore = "capture tool: prints the digest pins of every backend"]
fn capture_digests() {
    let catalog = belenos_workloads::catalog();
    let rows: Vec<_> = catalog
        .iter()
        .map(|spec| {
            let exp = Experiment::prepare(spec).unwrap();
            ModelKind::ALL.map(|kind| digest_row(&exp, kind))
        })
        .collect();
    for (k, name) in ["O3_DIGESTS", "INORDER_DIGESTS", "ANALYTIC_DIGESTS"]
        .into_iter()
        .enumerate()
    {
        println!(
            "const {name}: [(&str, u64, u64, u64); {}] = [",
            catalog.len()
        );
        for (spec, row) in catalog.iter().zip(&rows) {
            let (prefix, sampled, host) = row[k];
            println!("    (");
            println!("        \"{}\",", spec.id);
            for d in [prefix, sampled, host] {
                println!("        0x{d:016x},");
            }
            println!("    ),");
        }
        println!("];");
    }
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
