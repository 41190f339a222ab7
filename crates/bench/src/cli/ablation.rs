//! `belenos ablation rcm`: fill-reducing-ordering ablation — how much RCM
//! matters for factorization fill and bandwidth on an anatomically
//! shuffled mesh (the cache-locality lever behind the paper's
//! recommendation that solvers be reordering-aware). The §IV-C4
//! instruction-window ablation is the `rob_iq` analysis
//! (`belenos figure rob_iq`).

use super::Invocation;
use belenos_fem::assembly::build_pattern;
use belenos_fem::mesh::Mesh;
use belenos_sparse::reorder::rcm;
use belenos_sparse::solver::ldl::SymbolicLdl;
use belenos_sparse::{CooMatrix, CsrMatrix};

fn laplacian_like(pattern: &belenos_sparse::CsrPattern) -> CsrMatrix {
    let n = pattern.nrows();
    let mut coo = CooMatrix::new(n, n);
    for r in 0..n {
        let row = pattern.row(r);
        coo.push(r, r, row.len() as f64 + 1.0);
        for &c in row {
            if c as usize != r {
                coo.push(r, c as usize, -1.0);
            }
        }
    }
    coo.to_csr()
}

fn run_rcm() -> Result<(), String> {
    println!("RCM reordering ablation (shuffled anatomical numbering)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>10}",
        "mesh", "bw (orig)", "bw (rcm)", "fill(orig)", "fill(rcm)"
    );
    for (label, nx) in [("box4", 4usize), ("box6", 6), ("box8", 8)] {
        let mut mesh = Mesh::box_hex(nx, nx, nx, 1.0, 1.0, 1.0);
        mesh.shuffle_nodes(99);
        let pattern = build_pattern(&mesh, 1);
        let a = laplacian_like(&pattern);
        let bw0 = a.pattern().bandwidth();
        let sym0 = SymbolicLdl::analyze(&a).map_err(|e| format!("symbolic LDL: {e:?}"))?;
        let p = rcm(a.pattern());
        let b = p.apply_matrix(&a).map_err(|e| format!("permute: {e:?}"))?;
        let bw1 = b.pattern().bandwidth();
        let sym1 = SymbolicLdl::analyze(&b).map_err(|e| format!("symbolic LDL: {e:?}"))?;
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>10}",
            label,
            bw0,
            bw1,
            sym0.l_nnz(),
            sym1.l_nnz()
        );
    }
    println!("\nLower bandwidth/fill = better cache locality in factor sweeps.");
    Ok(())
}

/// `belenos ablation rcm`.
pub fn run(inv: &Invocation) -> Result<(), String> {
    match inv.positionals.get(1).map(String::as_str) {
        Some("rcm") => run_rcm(),
        _ => Err("usage: belenos ablation rcm".into()),
    }
}
