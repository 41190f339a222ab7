//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each builder produces a structured [`Report`] whose rows/series
//! match what the paper plots; [`Report::to_text`] reproduces the
//! historical plain-text tables byte-for-byte, while
//! [`Report::to_json`] / [`Report::to_csv`] expose the same rows as
//! data. The builders are private to the analysis table:
//! [`Analysis::report`](crate::campaign::Analysis::report) is the one way
//! to run them. [`scenario_run`] stays public for its
//! partial-report-plus-failures contract (`belenos scenario run`, `POST
//! /v1/scenarios/run`), and so do the bottleneck classifier
//! ([`bottleneck_rank`], [`top_bottleneck`]) tests and reports share.
//!
//! Builders that simulate take the campaign's [`Runner`] (the
//! cache-aware batch engine every job routes through) and [`SimOptions`]
//! (budget, sampling, core-model backend), and return `Result`: the
//! first wedged simulation point surfaces as a [`SimFailure`] so one
//! broken figure never kills a whole campaign.
//!
//! Every one of them is rows over a [`sweep::Grid`]: it names an
//! [`Axis`], runs it through [`sweep::run`] (the only thing here that
//! simulates) and fills row `w` of its sections from the cells of
//! experiment `w` — never by looking a row up again by workload id or
//! point label. Figs. 2-4 and the memory profile share `host_profile`,
//! Figs. 10-12 and the ROB/IQ ablation share `PercentDiff`,
//! `mesh_scaling` and [`scenario_run`] share `characterize`; a new
//! sensitivity figure is a new axis plus one of those rows.

use crate::experiment::Experiment;
use crate::options::{SimFailure, SimOptions};
use crate::report::{Cell, Report, Section};
use crate::sweep::{self, Axis};
use belenos_profiler::{HotspotProfile, MemoryProfile, TopDown};
use belenos_runner::Runner;
use belenos_uarch::config::BranchPredictorKind;
use belenos_uarch::{CoreConfig, ModelKind, SimStats};
use belenos_workloads::{catalog, Category};

/// Table I: workload categories with paper vs generated input sizes.
pub(crate) fn table1() -> Report {
    let mut r = Report::new("table1");
    let s = r.section(
        "Table I: Dataset Models Breakdown",
        &[
            "Category",
            "Label",
            "Paper lower (kB)",
            "Paper upper (kB)",
            "Ours (kB)",
        ],
    );
    for spec in catalog() {
        let model = spec.build_model().expect("catalog presets are valid");
        let category = spec.category();
        let (lo, hi) = category.paper_size_bounds_kb();
        s.row(vec![
            Cell::text(category.name()),
            Cell::text(category.label()),
            Cell::num(lo, 1),
            Cell::num(hi, 1),
            Cell::num(model.input_size_kb(), 1),
        ]);
    }
    r
}

/// Table II: the gem5 baseline configuration.
pub(crate) fn table2() -> Report {
    let c = CoreConfig::gem5_baseline();
    let mut r = Report::new("table2");
    let s = r.section(
        "Table II: Baseline CPU and system configuration",
        &["Parameter", "Value"],
    );
    let rows: Vec<(&str, String)> = vec![
        ("ISA", "x86 (micro-op trace)".into()),
        ("CPU model", "O3 (out-of-order)".into()),
        ("Core clock frequency", format!("{} GHz", c.freq_ghz)),
        (
            "Pipeline width (fetch/dispatch/issue/commit)",
            format!(
                "{} / {} / {} / {}",
                c.fetch_width, c.dispatch_width, c.issue_width, c.commit_width
            ),
        ),
        ("Rename width", format!("{}", c.rename_width)),
        (
            "Writeback / squash width",
            format!("{} / {}", c.writeback_width, c.squash_width),
        ),
        ("Reorder Buffer (ROB) entries", format!("{}", c.rob_entries)),
        ("Issue Queue (IQ) entries", format!("{}", c.iq_entries)),
        (
            "Load Queue / Store Queue entries",
            format!("{} / {}", c.lq_entries, c.sq_entries),
        ),
        (
            "Integer / FP physical registers",
            format!("{} / {}", c.int_regs, c.fp_regs),
        ),
        (
            "L1I / L1D cache",
            format!("{} kB, {}-way", c.l1i.size_bytes / 1024, c.l1i.assoc),
        ),
        (
            "L2 cache",
            format!("{} MB, {}-way", c.l2.size_bytes / (1024 * 1024), c.l2.assoc),
        ),
        (
            "MSHRs (L1I / L1D)",
            format!("{} / {}", c.l1i.mshrs, c.l1d.mshrs),
        ),
        ("Cache line size", format!("{} B", c.l1d.line_bytes)),
        ("Memory type", "DDR4-2400 (latency/bandwidth model)".into()),
        ("Branch predictor", c.predictor.label().into()),
    ];
    for (k, v) in rows {
        s.row(vec![Cell::text(k), Cell::text(v)]);
    }
    r
}

/// Section headers: `Model`, then one column per name.
fn model_columns<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    std::iter::once("Model").chain(names).collect()
}

/// A report row: the experiment's id, then `cells`.
fn model_row(exp: &Experiment, cells: impl IntoIterator<Item = Cell>) -> Vec<Cell> {
    std::iter::once(Cell::text(&exp.id)).chain(cells).collect()
}

/// A one-section report with one row per experiment — its id, then the
/// `columns` that `cells` computes from its VTune-style host profile: one
/// `host_like` simulation each. The profiles need windows spanning
/// several Newton iterations of the larger models, so they run at three
/// times the campaign's op budget.
fn host_profile(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
    id: &str,
    title: &str,
    columns: &[&str],
    cells: impl Fn(&str, &SimStats) -> Vec<Cell>,
) -> Result<Report, SimFailure> {
    let host = Axis::single("host", CoreConfig::host_like());
    let rows = sweep::run(runner, experiments, &host, &opts.scaled_budget(3)).complete()?;
    let mut r = Report::new(id);
    let s = r.section(title, &model_columns(columns.iter().copied()));
    for (exp, row) in experiments.iter().zip(&rows) {
        s.row(model_row(exp, cells(&exp.id, &row[0])));
    }
    Ok(r)
}

/// Fig. 2: top-down pipeline breakdown per VTune workload.
pub(crate) fn fig02_topdown(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> Result<Report, SimFailure> {
    host_profile(
        runner,
        experiments,
        opts,
        "fig02_topdown",
        "Fig. 2: Top-down pipeline breakdown (host-like config)",
        &["Retiring%", "FrontEnd%", "BadSpec%", "BackEnd%"],
        |id, stats| {
            let p = TopDown::from_stats(id, stats).percents();
            p.map(|x| Cell::num(x, 1)).to_vec()
        },
    )
}

/// Fig. 3: front-end / back-end stall split per VTune workload.
pub(crate) fn fig03_stalls(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> Result<Report, SimFailure> {
    host_profile(
        runner,
        experiments,
        opts,
        "fig03_stalls",
        "Fig. 3: FE/BE stall breakdown (bad speculation negligible, as in the paper)",
        &["FE Latency%", "FE Bandwidth%", "BE Core%", "BE Memory%"],
        |id, stats| {
            let st = TopDown::from_stats(id, stats).stall_percents();
            st.map(|x| Cell::num(x, 1)).to_vec()
        },
    )
}

/// Fig. 4: hotspot-category prevalence dots per workload.
pub(crate) fn fig04_hotspots(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> Result<Report, SimFailure> {
    host_profile(
        runner,
        experiments,
        opts,
        "fig04_hotspots",
        "Fig. 4: Function-category share of clockticks\n\
         (R >75%, O 50-75%, Y 25-50%, G <25%, . absent)",
        &[
            "Internal",
            "Sparsity",
            "DenseMat",
            "FEBioSpec",
            "MKL-BLAS",
            "Pardiso",
        ],
        |id, stats| {
            let p = HotspotProfile::from_stats(id, stats);
            let dots = p.dots();
            dots.iter()
                .zip(&p.fractions)
                .map(|(d, f)| Cell::labeled(format!("{} {:>4.1}%", d.glyph(), f * 100.0), *f))
                .collect()
        },
    )
}

/// Fig. 5: numeric solve time vs model size over the full catalog.
pub(crate) fn fig05_scaling(experiments: &[Experiment]) -> Report {
    let mut r = Report::new("fig05_scaling");
    let s = r.section(
        "Fig. 5: Simulation time vs model size (log-log in the paper; the eye \
         model sits above the trend)",
        &["Model", "Size (kB)", "Sim time (ms)", "ms per kB"],
    );
    for exp in experiments {
        let ms = exp.solve.wall_time.as_secs_f64() * 1e3;
        s.row(vec![
            Cell::text(&exp.id),
            Cell::num(exp.solve.size_kb, 1),
            Cell::num(ms, 2),
            Cell::num(ms / exp.solve.size_kb, 3),
        ]);
    }
    r
}

/// Fig. 6: execution time of the biphasic, fluid and material scenarios,
/// grouped by that Table I category (other categories have no row).
pub(crate) fn fig06_exec_time(experiments: &[Experiment]) -> Report {
    let mut r = Report::new("fig06_exec_time");
    let s = r.section(
        "Fig. 6: Execution time by model group",
        &["Group", "Model", "CPU time (ms)"],
    );
    for exp in experiments {
        let group = exp.scenario().category();
        if matches!(group, Category::Bp | Category::Fl | Category::Ma) {
            s.row(vec![
                Cell::text(group.name()),
                Cell::text(&exp.id),
                Cell::num(exp.solve.wall_time.as_secs_f64() * 1e3, 2),
            ]);
        }
    }
    r
}

/// One gem5-baseline simulation per experiment.
fn baseline_axis() -> Axis {
    Axis::single("baseline", CoreConfig::gem5_baseline())
}

/// Fig. 7: fetch / execute / commit stage breakdowns on the gem5 baseline.
pub(crate) fn fig07_pipeline(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> Result<Report, SimFailure> {
    let rows = sweep::run(runner, experiments, &baseline_axis(), opts).complete()?;
    let mut fetch = Section::new(
        "Fig. 7a: Fetch stage activity",
        &[
            "Model",
            "activeFetch%",
            "icacheStall%",
            "miscStall%",
            "squash%",
            "tlb%",
        ],
    );
    let mut exec = Section::new(
        "Fig. 7b: Execute stage mix",
        &["Model", "branches%", "fp%", "int%", "loads%", "stores%"],
    );
    let mut commit = Section::new(
        "Fig. 7c: Commit stage mix",
        &["Model", "fp%", "int%", "loads%", "stores%"],
    );
    for (exp, row) in experiments.iter().zip(&rows) {
        let st = &row[0];
        let fetch_cycles = [
            st.active_fetch_cycles,
            st.icache_stall_cycles,
            st.misc_stall_cycles,
            st.squash_cycles,
            st.tlb_stall_cycles,
        ];
        let fetch_total = fetch_cycles.iter().sum::<u64>().max(1) as f64;
        fetch.row(model_row(
            exp,
            fetch_cycles.map(|c| Cell::num(c as f64 / fetch_total * 100.0, 1)),
        ));
        let m = &st.exec_mix;
        exec.row(model_row(
            exp,
            [m.branches, m.fp, m.int, m.loads, m.stores]
                .map(|n| Cell::num(m.fraction(n) * 100.0, 1)),
        ));
        let c = &st.commit_mix;
        commit.row(model_row(
            exp,
            [c.fp, c.int, c.loads, c.stores].map(|n| Cell::num(c.fraction(n) * 100.0, 1)),
        ));
    }
    Ok(Report::new("fig07_pipeline")
        .with_section(fetch)
        .with_section(exec)
        .with_section(commit))
}

/// Fig. 8: execution time and IPC vs core frequency.
pub(crate) fn fig08_frequency(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> Result<Report, SimFailure> {
    let axis = sweep::frequency(&[1.0, 2.0, 3.0, 4.0]);
    let rows = sweep::run(runner, experiments, &axis, opts).complete()?;
    let mut time = Section::new(
        "Fig. 8a: Execution time vs frequency",
        &[
            "Model",
            "1GHz (ms)",
            "2GHz",
            "3GHz",
            "4GHz",
            "speedup@3",
            "speedup@4",
        ],
    );
    let mut ipc = Section::new(
        "Fig. 8b: IPC vs frequency",
        &["Model", "IPC@1GHz", "IPC@2GHz", "IPC@3GHz", "IPC@4GHz"],
    );
    for (exp, row) in experiments.iter().zip(&rows) {
        let secs = row.iter().map(SimStats::seconds);
        // Speedups of the 3 and 4 GHz points over the 1 GHz one.
        let speedups = row[2..]
            .iter()
            .map(|st| Cell::num(row[0].seconds() / st.seconds(), 2));
        time.row(model_row(
            exp,
            secs.map(|s| Cell::num(s * 1e3, 3)).chain(speedups),
        ));
        ipc.row(model_row(exp, row.iter().map(|st| Cell::num(st.ipc(), 3))));
    }
    Ok(Report::new("fig08_frequency")
        .with_section(time)
        .with_section(ipc))
}

/// Fig. 9: cache sensitivity (L1I/L1D MPKI, L2 MPKI, normalized times).
pub(crate) fn fig09_cache(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> Result<Report, SimFailure> {
    let l1 = sweep::l1_size(&[8, 16, 32, 64]);
    let l2 = sweep::l2_size(&[256, 512, 1024, 2048]);
    let l1_rows = sweep::run(runner, experiments, &l1, opts).complete()?;
    let l2_rows = sweep::run(runner, experiments, &l2, opts).complete()?;
    let mut l1i = Section::new("Fig. 9a: L1I MPKI", &model_columns(l1.labels()));
    let mut l1d = Section::new("Fig. 9b: L1D MPKI", &model_columns(l1.labels()));
    let mut l1t = Section::new(
        "Fig. 9c: L1 exec time (normalized to 64kB)",
        &["Model", "t(8k)/t(64k)", "t(16k)/t(64k)", "t(32k)/t(64k)"],
    );
    let mut l2m = Section::new("Fig. 9d: L2 MPKI", &model_columns(l2.labels()));
    let mut l2t = Section::new(
        "Fig. 9e: L2 exec time (normalized to 2MB)",
        &["Model", "t(256k)/t(2M)", "t(512k)/t(2M)", "t(1M)/t(2M)"],
    );
    let mpki = |row: &[SimStats], of: fn(&SimStats) -> f64| -> Vec<Cell> {
        row.iter().map(|st| Cell::num(of(st), 2)).collect()
    };
    // Execution time of every smaller size over the largest one's.
    let normalized = |row: &[SimStats]| -> Vec<Cell> {
        let (largest, smaller) = row.split_last().expect("a cache axis has points");
        smaller
            .iter()
            .map(|st| Cell::num(st.seconds() / largest.seconds(), 3))
            .collect()
    };
    for ((exp, s1), s2) in experiments.iter().zip(&l1_rows).zip(&l2_rows) {
        l1i.row(model_row(exp, mpki(s1, SimStats::l1i_mpki)));
        l1d.row(model_row(exp, mpki(s1, SimStats::l1d_mpki)));
        l1t.row(model_row(exp, normalized(s1)));
        l2m.row(model_row(exp, mpki(s2, SimStats::l2_mpki)));
        l2t.row(model_row(exp, normalized(s2)));
    }
    Ok(Report::new("fig09_cache")
        .with_section(l1i)
        .with_section(l1d)
        .with_section(l1t)
        .with_section(l2m)
        .with_section(l2t))
}

/// A one-section sensitivity report: each workload's execution-time
/// difference, in percent, at every point of an axis against one of them.
struct PercentDiff {
    id: &'static str,
    title: &'static str,
    axis: Axis,
    /// Index of the axis point the others are compared with; it gets no
    /// column.
    baseline: usize,
    /// Column headers of the other points, in axis order.
    headers: &'static [&'static str],
    digits: usize,
}

impl PercentDiff {
    fn report(
        &self,
        runner: &Runner,
        experiments: &[Experiment],
        opts: &SimOptions,
    ) -> Result<Report, SimFailure> {
        let rows = sweep::run(runner, experiments, &self.axis, opts).complete()?;
        let mut r = Report::new(self.id);
        let s = r.section(self.title, &model_columns(self.headers.iter().copied()));
        for (exp, row) in experiments.iter().zip(&rows) {
            let base = &row[self.baseline];
            let others = row.iter().enumerate().filter(|&(p, _)| p != self.baseline);
            s.row(model_row(
                exp,
                others.map(|(_, st)| Cell::num(sweep::percent_slower(st, base), self.digits)),
            ));
        }
        Ok(r)
    }
}

/// Fig. 10: execution-time delta vs pipeline width (baseline 6).
pub(crate) fn fig10_width(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> Result<Report, SimFailure> {
    PercentDiff {
        id: "fig10_width",
        title: "Fig. 10: Execution time difference vs baseline pipeline width 6\n\
                (positive = slower than baseline)",
        axis: sweep::width(&[2, 4, 6, 8]),
        baseline: 2,
        headers: &["width=2 (%)", "width=4 (%)", "width=8 (%)"],
        digits: 1,
    }
    .report(runner, experiments, opts)
}

/// Fig. 11: execution-time delta vs LQ/SQ depth (baseline 72/56).
pub(crate) fn fig11_lsq(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> Result<Report, SimFailure> {
    PercentDiff {
        id: "fig11_lsq",
        title: "Fig. 11: Execution time difference vs baseline LQ_SQ = 72_56",
        axis: sweep::lsq(&[(32, 24), (48, 40), (72, 56), (96, 72)]),
        baseline: 2,
        headers: &["32_24 (%)", "48_40 (%)", "96_72 (%)"],
        digits: 1,
    }
    .report(runner, experiments, opts)
}

/// Fig. 12: execution-time delta per branch predictor (vs TournamentBP,
/// the first of [`BranchPredictorKind::ALL`]).
pub(crate) fn fig12_branch(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> Result<Report, SimFailure> {
    PercentDiff {
        id: "fig12_branch",
        title: "Fig. 12: Execution time difference vs TournamentBP baseline",
        axis: sweep::branch_predictors(&BranchPredictorKind::ALL),
        baseline: 0,
        headers: &["LocalBP (%)", "LTAGE (%)", "MPP64KB (%)"],
        digits: 2,
    }
    .report(runner, experiments, opts)
}

/// Instruction-window ablation (paper §IV-C4 text): execution-time
/// change from growing ROB/IQ 224/128 → 448/256 (the paper observes
/// less than 4% improvement across workloads).
pub(crate) fn ablation_rob_iq(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> Result<Report, SimFailure> {
    PercentDiff {
        id: "ablation_rob_iq",
        title: "ROB/IQ ablation: execution-time change going 224/128 -> 448/256\n\
                (paper: < 4% improvement across workloads)",
        axis: sweep::rob_iq(&[(224, 128), (448, 256)]),
        baseline: 0,
        headers: &["448_256 (%)"],
        digits: 2,
    }
    .report(runner, experiments, opts)
}

/// Supplementary: memory profile of each workload (bandwidth, MPKIs) —
/// the paper quotes the eye model's DRAM pressure in §III-C.
pub(crate) fn memory_profiles(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> Result<Report, SimFailure> {
    host_profile(
        runner,
        experiments,
        opts,
        "memory_profiles",
        "Memory profiles (host-like config)",
        &["L1I MPKI", "L1D MPKI", "L2 MPKI", "MemBound%", "DRAM GB/s"],
        |id, stats| {
            let m = MemoryProfile::from_stats(id, stats);
            vec![
                Cell::num(m.l1i_mpki, 2),
                Cell::num(m.l1d_mpki, 2),
                Cell::num(m.l2_mpki, 2),
                Cell::num(m.memory_bound * 100.0, 1),
                Cell::num(m.dram_gbps, 2),
            ]
        },
    )
}

/// Characterizes each experiment on the gem5 baseline: one row of family,
/// mesh, size, IPC and bottleneck class per experiment whose simulation
/// succeeded, and the failure of every one whose simulation did not. The
/// one builder behind [`mesh_scaling`] and [`scenario_run`].
fn characterize(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
    id: &str,
    title: &str,
) -> (Report, Vec<SimFailure>) {
    let grid = sweep::run(runner, experiments, &baseline_axis(), opts);
    let mut report = Report::new(id);
    let section = report.section(
        title,
        &[
            "Family",
            "Model",
            "Mesh",
            "DoFs",
            "Size (kB)",
            "IPC",
            "Retiring%",
            "Bottleneck",
        ],
    );
    let mut failures = Vec::new();
    for (exp, row) in experiments.iter().zip(grid.rows()) {
        let stats = match &row[0] {
            Ok(stats) => stats,
            Err(failure) => {
                failures.push(failure.clone());
                continue;
            }
        };
        let scenario = exp.scenario();
        let (retiring, _, _, _) = stats.topdown();
        section.row(vec![
            Cell::text(scenario.family.label()),
            Cell::text(&exp.id),
            Cell::text(scenario.mesh.resolution_label()),
            Cell::num(exp.solve.n_dofs as f64, 0),
            Cell::num(exp.solve.size_kb, 1),
            Cell::num(stats.ipc(), 3),
            Cell::num(retiring * 100.0, 1),
            Cell::text(top_bottleneck(stats)),
        ]);
    }
    (report, failures)
}

/// Mesh-resolution scaling analysis: IPC and dominant bottleneck class
/// per scenario-family as the mesh is refined — an analysis the static
/// catalog could never express, since it needs the *same* physics at
/// several resolutions. Rows group by family (experiments arrive
/// base-major from the campaign's resolution axis) and label each point
/// with its mesh resolution and model size.
pub(crate) fn mesh_scaling(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> Result<Report, SimFailure> {
    let (report, failures) = characterize(
        runner,
        experiments,
        opts,
        "mesh_scaling",
        "Mesh-resolution scaling: IPC and bottleneck class vs mesh size\n\
         (gem5 baseline config; bottleneck = dominant TMA slot category)",
    );
    match failures.into_iter().next() {
        Some(failure) => Err(failure),
        None => Ok(report),
    }
}

/// Cross-backend bottleneck agreement — the reproduction's version of the
/// paper's gem5-vs-VTune cross-check, run across its own model stack:
/// every experiment on the gem5 baseline under each [`ModelKind`]. The
/// first section lists each backend's top bottleneck and IPC per
/// workload; the second scores each cheaper backend against o3. The
/// backends are what this analysis compares, so the campaign's `model`
/// option is ignored.
pub(crate) fn agreement(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> Result<Report, SimFailure> {
    // `runs[b][w]`: experiment `w` under backend `ModelKind::ALL[b]`.
    let runs = ModelKind::ALL
        .iter()
        .map(|&kind| {
            let opts = opts.clone().with_model(kind);
            let rows = sweep::run(runner, experiments, &baseline_axis(), &opts).complete()?;
            Ok(rows.into_iter().flatten().collect())
        })
        .collect::<Result<Vec<Vec<SimStats>>, SimFailure>>()?;
    let mut tops = Section::new(
        "Model agreement: top bottleneck and IPC per backend (gem5 baseline config)",
        &[
            "Model",
            "o3 top",
            "inorder top",
            "analytic top",
            "o3 IPC",
            "inorder IPC",
            "analytic IPC",
        ],
    );
    for (w, exp) in experiments.iter().enumerate() {
        let top = runs.iter().map(|r| Cell::text(top_bottleneck(&r[w])));
        let ipc = runs.iter().map(|r| Cell::num(r[w].ipc(), 3));
        tops.row(model_row(exp, top.chain(ipc)));
    }
    let mut scores = Section::new(
        "Agreement with o3 (top-1: same top bottleneck; rank: share of the six\n\
         pairwise stall-category orderings both rankings agree on)",
        &["Backend", "Top-1 agreement", "Mean rank agreement"],
    );
    let ranks = |stats: &[SimStats]| stats.iter().map(bottleneck_rank).collect::<Vec<_>>();
    let o3 = ranks(&runs[0]);
    let n = experiments.len();
    for (kind, stats) in ModelKind::ALL.iter().zip(&runs).skip(1) {
        let other = ranks(stats);
        let pairs = || o3.iter().zip(&other);
        let top1 = pairs().filter(|(a, b)| a[0] == b[0]).count();
        let top1_share = top1 as f64 / n.max(1) as f64;
        let rank_share =
            pairs().map(|(a, b)| pairwise_agreement(a, b)).sum::<f64>() / n.max(1) as f64;
        scores.row(vec![
            Cell::text(kind.label()),
            Cell::labeled(
                format!("{top1}/{n} ({:.0}%)", top1_share * 100.0),
                top1_share,
            ),
            Cell::labeled(format!("{:.0}%", rank_share * 100.0), rank_share),
        ]);
    }
    Ok(Report::new("agreement")
        .with_section(tops)
        .with_section(scores))
}

/// Fraction of the six pairwise category orderings two rankings share.
fn pairwise_agreement(a: &[usize; 4], b: &[usize; 4]) -> f64 {
    let pos = |order: &[usize; 4], cat: usize| {
        order
            .iter()
            .position(|&c| c == cat)
            .expect("a ranking orders every category")
    };
    let pairs = (0..4).flat_map(|x| ((x + 1)..4).map(move |y| (x, y)));
    let agree = pairs
        .filter(|&(x, y)| (pos(a, x) < pos(a, y)) == (pos(b, x) < pos(b, y)))
        .count();
    agree as f64 / 6.0
}

/// The scenario run behind both `belenos scenario run` and `POST
/// /v1/scenarios/run`: each scenario characterized on the gem5 baseline.
/// The report holds the scenarios that simulated; every one that did not
/// is returned beside it, in input order.
pub fn scenario_run(
    runner: &Runner,
    experiments: &[Experiment],
    opts: &SimOptions,
) -> (Report, Vec<SimFailure>) {
    characterize(
        runner,
        experiments,
        opts,
        "scenario_run",
        "Scenario runs (gem5 baseline config)",
    )
}

/// TMA stall-category names, in fixed slot order (shared by every
/// bottleneck-classifying report and the cross-backend agreement table).
pub const TMA_CATEGORIES: [&str; 4] = ["frontend", "bad_spec", "core", "memory"];

/// Stall categories ranked by slot count, heaviest first. The sort is
/// stable, so ties keep the fixed [`TMA_CATEGORIES`] order and every
/// report labels the same stats with the same bottleneck.
pub fn bottleneck_rank(stats: &SimStats) -> [usize; 4] {
    let slots = [
        stats.slots_frontend,
        stats.slots_bad_speculation,
        stats.slots_be_core,
        stats.slots_be_memory,
    ];
    let mut order = [0usize, 1, 2, 3];
    order.sort_by_key(|&i| std::cmp::Reverse(slots[i]));
    order
}

/// The dominant TMA stall category of a run (the bottleneck *class* the
/// paper links each workload character to).
pub fn top_bottleneck(stats: &SimStats) -> &'static str {
    TMA_CATEGORIES[bottleneck_rank(stats)[0]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_without_simulation() {
        let t1 = table1().to_text();
        assert!(t1.contains("Arterial Tissue"));
        assert!(t1.contains("98600.0"));
        let t2 = table2().to_text();
        assert!(t2.contains("224"));
        assert!(t2.contains("4 / 6 / 6 / 4"));
        assert!(t2.contains("TournamentBP"));
    }

    #[test]
    fn small_figure_pipeline_end_to_end() {
        // One tiny workload through fig-7-style reporting.
        let spec = belenos_workloads::by_id("pd").expect("pd");
        let exp = Experiment::prepare(&spec).unwrap();
        let runner = Runner::isolated(2);
        let out = fig07_pipeline(&runner, &[exp], &SimOptions::new(30_000)).expect("figure");
        assert_eq!(out.sections.len(), 3);
        let text = out.to_text();
        assert!(text.contains("Fig. 7a"));
        assert!(text.contains("pd"));
        // The same rows serialize as data.
        assert!(out.to_json().contains("\"fig07_pipeline\""));
        assert!(out.to_csv().contains("# Fig. 7a: Fetch stage activity"));
    }

    #[test]
    fn figures_run_on_every_backend() {
        let spec = belenos_workloads::by_id("pd").expect("pd");
        let exps = vec![Experiment::prepare(&spec).unwrap()];
        let runner = Runner::isolated(2);
        for kind in ModelKind::ALL {
            let opts = SimOptions::new(20_000).with_model(kind);
            let out = fig02_topdown(&runner, &exps, &opts).expect("figure");
            assert!(out.to_text().contains("pd"), "{kind} figure must render");
        }
    }

    #[test]
    fn pairwise_agreement_counts_shared_orderings() {
        assert_eq!(pairwise_agreement(&[0, 1, 2, 3], &[0, 1, 2, 3]), 1.0);
        assert_eq!(pairwise_agreement(&[0, 1, 2, 3], &[3, 2, 1, 0]), 0.0);
        // One adjacent swap flips one of the six orderings.
        assert_eq!(pairwise_agreement(&[3, 0, 1, 2], &[3, 1, 0, 2]), 5.0 / 6.0);
    }
}
