//! `belenos agreement`: cross-backend bottleneck agreement over the
//! workload catalog — the reproduction's version of the paper's
//! gem5-vs-VTune cross-validation table, run across our own model stack
//! instead of across tools.
//!
//! Every selected workload is simulated under all three `CoreModel`
//! backends at the same op budget; for each run the TMA stall
//! categories are ranked, and the table reports the top bottleneck per
//! backend, per-backend IPC, top-1 agreement with the detailed o3
//! model, mean pairwise rank agreement, and wall-time totals.
//!
//! Workload selection: `--workloads`, default the full catalog.

use super::Invocation;
use crate::prepare_or_die;
use belenos::campaign::PaperSet;
use belenos::figures::{bottleneck_rank, TMA_CATEGORIES};
use belenos_profiler::report::{fmt, Table};
use belenos_runner::run_caught;
use belenos_uarch::{CoreConfig, ModelKind, SimStats};
use std::time::Instant;

/// Fraction of the 6 pairwise category orderings two rankings share.
fn pairwise_agreement(a: &[usize; 4], b: &[usize; 4]) -> f64 {
    let pos = |order: &[usize; 4], cat: usize| order.iter().position(|&c| c == cat).unwrap();
    let mut agree = 0;
    let mut total = 0;
    for x in 0..4 {
        for y in (x + 1)..4 {
            total += 1;
            let a_says = pos(a, x) < pos(a, y);
            let b_says = pos(b, x) < pos(b, y);
            if a_says == b_says {
                agree += 1;
            }
        }
    }
    agree as f64 / total as f64
}

struct Run {
    stats: SimStats,
    wall_s: f64,
}

/// `belenos agreement`.
pub fn run(inv: &Invocation) -> Result<(), String> {
    let opts = inv.options();
    let exps = prepare_or_die(&inv.workload_set().resolve(PaperSet::Catalog));

    // workload-major → backend-major grid of runs.
    let mut grid: Vec<Vec<Option<Run>>> = Vec::new();
    for exp in &exps {
        let mut row = Vec::new();
        for kind in ModelKind::ALL {
            let cfg = CoreConfig::gem5_baseline().with_model(kind);
            let outcome = run_caught(&format!("{} under {kind}", exp.id), || {
                let t0 = Instant::now();
                let stats = exp.simulate_sampled(&cfg, opts.max_ops, &opts.sampling);
                (stats, t0.elapsed().as_secs_f64())
            });
            row.push(match outcome {
                Ok((stats, wall_s)) => Some(Run { stats, wall_s }),
                Err(e) => {
                    eprintln!("SIMULATION FAILED: {e}");
                    None
                }
            });
        }
        grid.push(row);
    }

    let mut t = Table::new(&[
        "Model",
        "o3 top",
        "inorder top",
        "analytic top",
        "o3 IPC",
        "inorder IPC",
        "analytic IPC",
    ]);
    let mut top1 = [0usize; 3];
    let mut rank_sum = [0.0f64; 3];
    let mut compared = [0usize; 3];
    let mut wall = [0.0f64; 3];
    for (exp, row) in exps.iter().zip(&grid) {
        let tops: Vec<String> = row
            .iter()
            .map(|r| match r {
                Some(r) => TMA_CATEGORIES[bottleneck_rank(&r.stats)[0]].to_string(),
                None => "FAILED".to_string(),
            })
            .collect();
        let ipcs: Vec<String> = row
            .iter()
            .map(|r| match r {
                Some(r) => fmt(r.stats.ipc(), 3),
                None => "-".to_string(),
            })
            .collect();
        t.row(vec![
            exp.id.clone(),
            tops[0].clone(),
            tops[1].clone(),
            tops[2].clone(),
            ipcs[0].clone(),
            ipcs[1].clone(),
            ipcs[2].clone(),
        ]);
        if let Some(o3) = &row[0] {
            let o3_rank = bottleneck_rank(&o3.stats);
            for (b, r) in row.iter().enumerate() {
                let Some(r) = r else { continue };
                let rank = bottleneck_rank(&r.stats);
                compared[b] += 1;
                if rank[0] == o3_rank[0] {
                    top1[b] += 1;
                }
                rank_sum[b] += pairwise_agreement(&o3_rank, &rank);
            }
        }
        for (b, r) in row.iter().enumerate() {
            if let Some(r) = r {
                wall[b] += r.wall_s;
            }
        }
    }

    println!(
        "Model agreement over {} workload(s) at budget {} (sampling: {})\n\n{}",
        exps.len(),
        opts.max_ops,
        if opts.sampling.is_off() {
            "off".to_string()
        } else {
            format!("{} intervals", opts.sampling.intervals)
        },
        t.render()
    );
    for (b, kind) in ModelKind::ALL.iter().enumerate().skip(1) {
        if compared[b] == 0 {
            continue;
        }
        println!(
            "o3 vs {kind}: top-bottleneck agreement {}/{} ({:.0}%), mean rank agreement {:.0}%, \
             wall {:.2}s vs o3 {:.2}s ({:.1}x faster)",
            top1[b],
            compared[b],
            top1[b] as f64 / compared[b] as f64 * 100.0,
            rank_sum[b] / compared[b] as f64 * 100.0,
            wall[b],
            wall[0],
            wall[0] / wall[b].max(1e-9),
        );
    }
    Ok(())
}
