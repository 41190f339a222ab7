//! Smoke tests over the figure-regeneration layer: every table/figure
//! analysis must produce plausible, well-formed reports on small
//! budgets, in all three renderings.

use belenos::campaign::Analysis;
use belenos::experiment::Experiment;
use belenos::options::SimOptions;
use belenos::report::Report;
use belenos::sweep;
use belenos_runner::Runner;
use belenos_uarch::ModelKind;
use belenos_workloads::by_id;

const OPS: usize = 60_000;

fn opts() -> SimOptions {
    SimOptions::new(OPS)
}

fn runner() -> Runner {
    Runner::isolated(2)
}

fn exps(ids: &[&str]) -> Vec<Experiment> {
    ids.iter()
        .map(|id| Experiment::prepare(&by_id(id).expect("workload")).expect("solves"))
        .collect()
}

/// `analysis` over `exps` through `runner` at the smoke budget.
fn report(analysis: Analysis, runner: &Runner, exps: &[Experiment]) -> Report {
    analysis
        .report(runner, exps, &opts())
        .unwrap_or_else(|e| panic!("{}: {e}", analysis.id()))
}

#[test]
fn tables_contain_paper_values() {
    let t1 = report(Analysis::Table1, &runner(), &[]).to_text();
    // Table I fixed points from the paper.
    for needle in ["Arterial Tissue", "Case Study", "98600.0", "Tumor"] {
        assert!(t1.contains(needle), "table1 missing {needle}");
    }
    let t2 = report(Analysis::Table2, &runner(), &[]).to_text();
    for needle in [
        "4 / 6 / 6 / 4",
        "224",
        "128",
        "72 / 56",
        "280 / 168",
        "TournamentBP",
    ] {
        assert!(t2.contains(needle), "table2 missing {needle}");
    }
}

#[test]
fn figure_2_and_3_render_for_a_subset() {
    let e = exps(&["pd", "mu"]);
    let r = runner();
    let f2 = report(Analysis::Topdown, &r, &e).to_text();
    assert!(f2.contains("pd") && f2.contains("Retiring%"));
    let f3 = report(Analysis::Stalls, &r, &e).to_text();
    assert!(f3.contains("BE Memory%"));
}

#[test]
fn figure_4_dots_have_legend_classes() {
    let e = exps(&["pd"]);
    let f4 = report(Analysis::Hotspots, &runner(), &e);
    let text = f4.to_text();
    assert!(text.contains("R >75%"));
    assert!(text.contains("pd"));
    // The glyph cells still carry the raw fraction for data consumers.
    let row = &f4.sections[0].rows[0];
    assert!(row[1].value.is_some(), "glyph cell must keep its fraction");
}

#[test]
fn figures_5_and_6_use_solve_summaries() {
    let e = exps(&["pd", "mu"]);
    let f5 = report(Analysis::Scaling, &runner(), &e).to_text();
    assert!(f5.contains("Size (kB)"));
    // fig6 groups only biphasic/fluid/material scenarios; with none
    // present it still renders.
    let f6 = report(Analysis::ExecTime, &runner(), &e).to_text();
    assert!(f6.contains("Fig. 6"));
}

#[test]
fn sweeps_cover_requested_grid() {
    let e = exps(&["pd", "mu"]);
    let r = runner();
    let grid = sweep::run(&r, &e, &sweep::frequency(&[1.0, 3.0]), &opts());
    assert_eq!(grid.rows().len(), 2, "one row per experiment");
    assert!(grid.rows().iter().all(|row| row.len() == 2));
    let rows = sweep::run(&r, &e, &sweep::l1_size(&[8, 32]), &opts())
        .complete()
        .expect("sweep");
    assert_eq!((rows.len(), rows[0].len()), (2, 2));
    assert!(rows[0][0].l1d_mpki() >= rows[0][1].l1d_mpki());
    let rows = sweep::run(&r, &e, &sweep::lsq(&[(32, 24), (72, 56)]), &opts())
        .complete()
        .expect("sweep");
    let [shallow, base] = &rows[0][..] else {
        panic!("two points per workload");
    };
    assert!(sweep::percent_slower(shallow, base) >= 0.0);
}

/// Rows are addressed by experiment index, never re-found by id: two
/// experiments sharing an id (one preset at two meshes, not renamed) each
/// get their own numbers.
#[test]
fn same_id_experiments_keep_their_own_rows() {
    let mut finer = by_id("pd").expect("pd").with_resolution(4);
    finer.id = "pd".into();
    let pair = vec![
        exps(&["pd"]).remove(0),
        Experiment::prepare(&finer).expect("solves"),
    ];
    for analysis in [Analysis::Frequency, Analysis::Width] {
        let name = analysis.id();
        let both = report(analysis, &runner(), &pair);
        for (w, solo) in pair.iter().enumerate() {
            let solo = report(analysis, &runner(), std::slice::from_ref(solo));
            for (both, solo) in both.sections.iter().zip(&solo.sections) {
                assert_eq!(both.rows[w], solo.rows[0], "{name} row {w}");
            }
        }
        let rows = &both.sections[0].rows;
        assert_ne!(rows[0], rows[1], "{name}: the two meshes differ");
    }
}

/// Fig. 6 groups by the scenario's Table I category, not by how its id
/// starts.
#[test]
fn figure_6_groups_by_category_not_id_prefix() {
    let mut contact = by_id("co").expect("co");
    contact.id = "flex-contact".into();
    let mut material = by_id("ma").expect("ma");
    material.id = "x1".into();
    let e: Vec<Experiment> = [contact, material]
        .iter()
        .map(|spec| Experiment::prepare(spec).expect("solves"))
        .collect();
    let f6 = report(Analysis::ExecTime, &runner(), &e);
    let rows = &f6.sections[0].rows;
    assert_eq!(rows.len(), 1, "a contact scenario has no Fig. 6 group");
    assert_eq!(
        (rows[0][0].text.as_str(), rows[0][1].text.as_str()),
        ("Material", "x1")
    );
}

#[test]
fn figure_10_to_12_render() {
    let e = exps(&["pd"]);
    let r = runner();
    for analysis in [Analysis::Width, Analysis::Lsq, Analysis::Branch] {
        let name = analysis.id();
        let out = report(analysis, &r, &e);
        let text = out.to_text();
        assert!(text.contains("pd"), "{name} missing workload row");
        assert!(text.lines().count() > 4, "{name} too short");
        // Every figure also serializes as data.
        assert!(
            belenos_json::Json::parse(&out.to_json()).is_ok(),
            "{name} JSON must parse"
        );
    }
}

#[test]
fn sweeps_run_under_the_cheap_backends() {
    // The same sweep grid re-pointed at the in-order and analytic
    // backends must produce full, plausible result sets.
    let e = exps(&["pd"]);
    let r = runner();
    for kind in [ModelKind::InOrder, ModelKind::Analytic] {
        let o = opts().with_model(kind);
        let rows = sweep::run(&r, &e, &sweep::frequency(&[1.0, 4.0]), &o)
            .complete()
            .expect("sweep");
        let pts = &rows[0];
        assert_eq!(pts.len(), 2, "{kind} sweep covers the grid");
        assert!(
            pts.iter().all(|st| st.committed_ops > 0),
            "{kind} points must simulate"
        );
        assert!(
            pts[0].seconds() > pts[1].seconds(),
            "{kind} frequency scaling must stay monotone"
        );
    }
}
