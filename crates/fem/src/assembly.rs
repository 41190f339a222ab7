//! Global assembly: pattern construction and element scatter.
//!
//! The scatter of dense element blocks into the global CSR matrix through
//! per-row binary searches is the signature irregular kernel of FE codes —
//! the paper's top hotspot category ("internal functions").

use crate::mesh::Mesh;
use belenos_sparse::{CsrMatrix, CsrPattern};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Sorted, unique neighbours of every node: nodes sharing an element are
/// coupled (each node is its own neighbour).
fn node_adjacency(mesh: &Mesh) -> Vec<Vec<u32>> {
    // BTreeSet keeps columns sorted.
    let mut adj: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); mesh.num_nodes()];
    for e in 0..mesh.num_elems() {
        let nodes = mesh.element(e);
        for &a in nodes {
            for &b in nodes {
                adj[a as usize].insert(b);
            }
        }
        debug_assert_eq!(nodes.len(), mesh.kind().nodes());
    }
    adj.into_iter().map(|s| s.into_iter().collect()).collect()
}

/// The CSR pattern of `dofs_per_node` unknowns per node over a node
/// adjacency: in every row a neighbour's dofs are contiguous columns.
fn pattern_of(adj: &[Vec<u32>], dofs_per_node: usize) -> Arc<CsrPattern> {
    let n_dofs = adj.len() * dofs_per_node;
    let mut row_ptr = Vec::with_capacity(n_dofs + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<u32> = Vec::new();
    for nbrs in adj {
        for _comp in 0..dofs_per_node {
            for &nb in nbrs {
                for c in 0..dofs_per_node {
                    col_idx.push((nb as usize * dofs_per_node + c) as u32);
                }
            }
            row_ptr.push(col_idx.len());
        }
    }
    Arc::new(
        CsrPattern::new(n_dofs, n_dofs, row_ptr, col_idx)
            .expect("mesh adjacency forms a valid pattern"),
    )
}

/// Builds the global sparsity pattern for a mesh with `dofs_per_node`
/// unknowns per node: dofs of nodes sharing an element are coupled.
pub fn build_pattern(mesh: &Mesh, dofs_per_node: usize) -> Arc<CsrPattern> {
    pattern_of(&node_adjacency(mesh), dofs_per_node)
}

/// Where every element block lands in the global CSR values, worked out
/// once per mesh instead of by a binary search per entry per iteration.
///
/// In [`build_pattern`]'s rows a neighbour's `dofs_per_node` columns are
/// contiguous, so the position of `(node a, comp i) x (node b, comp j)` is
/// `row_ptr[a * dpn + i] + rank(a, b) * dpn + j`, where `rank(a, b)` is
/// the index of `b` among the sorted neighbours of `a`. The plan stores
/// that rank for every node pair of every element — `npe²` `u32`s per
/// element, whatever the block's components.
#[derive(Debug, Clone)]
pub struct ScatterPlan {
    pattern: Arc<CsrPattern>,
    conn: Arc<Vec<u32>>,
    npe: usize,
    dofs_per_node: usize,
    /// `rank[(e * npe + a) * npe + b]`.
    rank: Vec<u32>,
}

impl ScatterPlan {
    /// Builds the pattern of [`build_pattern`] and the plan for scattering
    /// this mesh's element blocks into it, from one adjacency walk.
    ///
    /// # Panics
    ///
    /// Panics if a node pair of an element is missing from the adjacency
    /// — an assembly bug, not a runtime condition.
    pub fn build(mesh: &Mesh, dofs_per_node: usize) -> Self {
        let adj = node_adjacency(mesh);
        let npe = mesh.kind().nodes();
        let mut rank = Vec::with_capacity(mesh.num_elems() * npe * npe);
        for e in 0..mesh.num_elems() {
            let nodes = mesh.element(e);
            for &a in nodes {
                for &b in nodes {
                    let r = adj[a as usize]
                        .binary_search(&b)
                        .unwrap_or_else(|_| panic!("node pair ({a}, {b}) missing from pattern"));
                    rank.push(r as u32);
                }
            }
        }
        ScatterPlan {
            pattern: pattern_of(&adj, dofs_per_node),
            conn: Arc::new(mesh.connectivity().to_vec()),
            npe,
            dofs_per_node,
            rank,
        }
    }

    /// The pattern the plan scatters into.
    pub fn pattern(&self) -> &Arc<CsrPattern> {
        &self.pattern
    }

    /// The mesh connectivity the plan was built from (`npe` node ids per
    /// element).
    pub fn connectivity(&self) -> &Arc<Vec<u32>> {
        &self.conn
    }
}

/// Reusable global-matrix accumulator bound to a fixed pattern.
#[derive(Debug, Clone)]
pub struct Assembler {
    matrix: CsrMatrix,
    /// Dirichlet scratch, all-`false` / all-zero between calls.
    fixed: Vec<bool>,
    value: Vec<f64>,
}

impl Assembler {
    /// Creates an accumulator over `pattern` with zeroed values.
    pub fn new(pattern: Arc<CsrPattern>) -> Self {
        let (nnz, n) = (pattern.nnz(), pattern.nrows());
        Assembler {
            matrix: CsrMatrix::with_pattern(pattern, vec![0.0; nnz])
                .expect("values sized from the pattern"),
            fixed: vec![false; n],
            value: vec![0.0; n],
        }
    }

    /// Zeroes all values (start of a stiffness pass).
    pub fn reset(&mut self) {
        self.matrix.values_mut().fill(0.0);
    }

    /// Overwrites all values with `values`, a copy of an earlier
    /// `matrix().values()`: a stiffness that does not change within a
    /// solve is assembled once and restored after.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not one value per pattern entry.
    pub(crate) fn restore(&mut self, values: &[f64]) {
        self.matrix.values_mut().copy_from_slice(values);
    }

    /// Shared pattern handle.
    pub fn pattern(&self) -> Arc<CsrPattern> {
        self.matrix.pattern_arc()
    }

    /// Scatters a dense block over arbitrary dofs into the global matrix,
    /// finding each entry by binary search in its row: the path for ad-hoc
    /// entries (contact's penalty diagonal) and the oracle the planned
    /// scatter is tested against. Exact zeros in `block` are skipped.
    ///
    /// # Panics
    ///
    /// Panics if a dof pair is absent from the pattern — that is an
    /// assembly bug, not a runtime condition. ([`ScatterPlan::build`]
    /// raises the same complaint for element blocks, once per mesh.)
    pub fn scatter(&mut self, dofs: &[usize], block: &[f64]) {
        let n = dofs.len();
        debug_assert_eq!(block.len(), n * n);
        let (pattern, vals) = self.matrix.parts_mut();
        let rp = pattern.row_ptr();
        for (i, &gi) in dofs.iter().enumerate() {
            let row = pattern.row(gi);
            let base = rp[gi];
            for (j, &gj) in dofs.iter().enumerate() {
                let v = block[i * n + j];
                if v == 0.0 {
                    continue;
                }
                match row.binary_search(&(gj as u32)) {
                    Ok(k) => vals[base + k] += v,
                    Err(_) => panic!("dof pair ({gi}, {gj}) missing from pattern"),
                }
            }
        }
    }

    /// Scatters element `elem`'s dense block through `plan`: entry for
    /// entry what [`Assembler::scatter`] does with the element's dofs —
    /// same row-major order, same skip of exact zeros (an unconditional
    /// `+= 0.0` would turn a stored `-0.0` into `+0.0`) — minus the
    /// searches. The block covers components `first_comp ..
    /// first_comp + comps` of each of the element's nodes, node-major.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built for another pattern or the block is not
    /// `(npe * comps)²` long.
    pub fn scatter_planned(
        &mut self,
        plan: &ScatterPlan,
        elem: usize,
        first_comp: usize,
        comps: usize,
        block: &[f64],
    ) {
        let (npe, dpn) = (plan.npe, plan.dofs_per_node);
        let (pattern, vals) = self.matrix.parts_mut();
        assert!(
            std::ptr::eq(pattern, &*plan.pattern),
            "plan built for another pattern"
        );
        assert!(first_comp + comps <= dpn, "components outside the node");
        let width = npe * comps;
        assert_eq!(block.len(), width * width);
        let rp = pattern.row_ptr();
        let nodes = &plan.conn[elem * npe..(elem + 1) * npe];
        let rank = &plan.rank[elem * npe * npe..(elem + 1) * npe * npe];
        for (a, &na) in nodes.iter().enumerate() {
            for i in 0..comps {
                let base = rp[na as usize * dpn + first_comp + i] + first_comp;
                let row = &block[(a * comps + i) * width..][..width];
                for b in 0..npe {
                    let at = base + rank[a * npe + b] as usize * dpn;
                    for (j, &v) in row[b * comps..][..comps].iter().enumerate() {
                        if v == 0.0 {
                            continue;
                        }
                        vals[at + j] += v;
                    }
                }
            }
        }
    }

    /// The assembled matrix, lent (no copy).
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// Finalizes into the assembled matrix.
    pub fn into_matrix(self) -> CsrMatrix {
        self.matrix
    }

    /// Applies Dirichlet constraints symmetrically: for each `(dof, du)`,
    /// moves `K[:, dof] * du` to the RHS, zeroes row+column, sets the
    /// diagonal to its original magnitude scale and the RHS entry to
    /// `diag * du` so the solve returns exactly `du` there.
    pub fn apply_dirichlet(&mut self, rhs: &mut [f64], constraints: &[(usize, f64)]) {
        if constraints.is_empty() {
            return;
        }
        let Assembler {
            matrix,
            fixed,
            value,
        } = self;
        let (pattern, vals) = matrix.parts_mut();
        let n = pattern.nrows();
        for &(d, du) in constraints {
            fixed[d] = true;
            value[d] = du;
        }
        let rp = pattern.row_ptr();
        let ci = pattern.col_idx();
        // Representative diagonal scale keeps conditioning reasonable.
        let mut diag_scale = 0.0f64;
        for r in 0..n {
            for k in rp[r]..rp[r + 1] {
                if ci[k] as usize == r {
                    diag_scale += vals[k].abs();
                }
            }
        }
        let diag_scale = (diag_scale / n as f64).max(1.0);
        for r in 0..n {
            if fixed[r] {
                // Zero the whole row, then pin the diagonal.
                for k in rp[r]..rp[r + 1] {
                    vals[k] = if ci[k] as usize == r { diag_scale } else { 0.0 };
                }
                rhs[r] = diag_scale * value[r];
            } else {
                // Move constrained-column terms to the RHS and zero them.
                for k in rp[r]..rp[r + 1] {
                    let c = ci[k] as usize;
                    if fixed[c] {
                        rhs[r] -= vals[k] * value[c];
                        vals[k] = 0.0;
                    }
                }
            }
        }
        for &(d, _) in constraints {
            fixed[d] = false;
            value[d] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn planned_scatter_is_bit_identical_to_the_searching_scatter(
            dims in (1usize..4, 1usize..3, 1usize..3),
            tets in any::<bool>(),
            shuffle in 0u64..1000,
            dpn in 0usize..4,
            window in (0usize..5, 1usize..6),
            values in prop::collection::vec(-4i32..5, 64),
        ) {
            let (nx, ny, nz) = dims;
            let dpn = [1, 3, 4, 5][dpn];
            let mut mesh = if tets {
                Mesh::box_tet(nx, ny, nz, 1.0, 1.0, 1.0)
            } else {
                Mesh::box_hex(nx, ny, nz, 1.0, 1.0, 1.0)
            };
            mesh.shuffle_nodes(shuffle);
            // A block over components first..first + comps of each node:
            // the whole node, the u-p part of a multiphasic node, its
            // lone solute dof, ...
            let first = window.0 % dpn;
            let comps = 1 + (window.1 - 1) % (dpn - first);
            let plan = ScatterPlan::build(&mesh, dpn);
            prop_assert_eq!(&**plan.pattern(), &*build_pattern(&mesh, dpn));
            let mut planned = Assembler::new(Arc::clone(plan.pattern()));
            let mut searched = planned.clone();
            let width = mesh.kind().nodes() * comps;
            // Two passes, so entries accumulate onto earlier sums; the
            // small integer grid makes exact zeros, signed zeros and
            // exact cancellations common.
            for pass in 0..2 {
                for e in 0..mesh.num_elems() {
                    let block: Vec<f64> = (0..width * width)
                        .map(|k| match values[(k * 7 + e * 13 + pass) % values.len()] {
                            -4 => -0.0,
                            v => v as f64 * 0.375,
                        })
                        .collect();
                    let dofs: Vec<usize> = mesh
                        .element(e)
                        .iter()
                        .flat_map(|&n| (0..comps).map(move |c| n as usize * dpn + first + c))
                        .collect();
                    searched.scatter(&dofs, &block);
                    planned.scatter_planned(&plan, e, first, comps, &block);
                }
            }
            let bits = |a: &Assembler| -> Vec<u64> {
                a.matrix().values().iter().map(|v| v.to_bits()).collect()
            };
            prop_assert_eq!(bits(&planned), bits(&searched));
        }
    }

    #[test]
    #[should_panic(expected = "plan built for another pattern")]
    fn planned_scatter_rejects_a_foreign_assembler() {
        let mesh = Mesh::box_hex(1, 1, 1, 1.0, 1.0, 1.0);
        let plan = ScatterPlan::build(&mesh, 1);
        let mut asm = Assembler::new(build_pattern(&mesh, 1));
        asm.scatter_planned(&plan, 0, 0, 1, &[1.0; 64]);
    }

    #[test]
    fn pattern_couples_element_neighbors() {
        let mesh = Mesh::box_hex(2, 1, 1, 2.0, 1.0, 1.0);
        let p = build_pattern(&mesh, 3);
        assert_eq!(p.nrows(), mesh.num_nodes() * 3);
        assert!(p.is_structurally_symmetric());
        // Nodes 0 and 1 share element 0: dof (0,0) couples to (1, 2).
        assert!(p.contains(0, 5));
    }

    #[test]
    fn pattern_scales_with_dofs_per_node() {
        let mesh = Mesh::box_hex(2, 2, 2, 1.0, 1.0, 1.0);
        let p3 = build_pattern(&mesh, 3);
        let p4 = build_pattern(&mesh, 4);
        assert!(p4.nnz() > p3.nnz());
        assert_eq!(p4.nrows(), mesh.num_nodes() * 4);
    }

    #[test]
    fn scatter_accumulates() {
        let mesh = Mesh::box_hex(1, 1, 1, 1.0, 1.0, 1.0);
        let p = build_pattern(&mesh, 1);
        let mut asm = Assembler::new(p);
        asm.scatter(&[0, 1], &[1.0, -1.0, -1.0, 1.0]);
        asm.scatter(&[0, 1], &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(asm.matrix().get(0, 0), 2.0);
        assert_eq!(asm.matrix().get(0, 1), -1.0);
        asm.reset();
        assert_eq!(asm.matrix().get(0, 0), 0.0);
    }

    #[test]
    fn dirichlet_pins_solution_value() {
        // 1D chain: K = tridiag(-1, 2, -1) over 4 nodes (1 dof each).
        let mesh = Mesh::box_hex(3, 1, 1, 3.0, 1.0, 1.0);
        let p = build_pattern(&mesh, 1);
        let mut asm = Assembler::new(p);
        // Assemble a Laplacian-like operator over the mesh edges.
        for e in 0..mesh.num_elems() {
            let nodes: Vec<usize> = mesh.element(e).iter().map(|&n| n as usize).collect();
            for w in nodes.windows(2) {
                asm.scatter(&[w[0], w[1]], &[1.0, -1.0, -1.0, 1.0]);
            }
        }
        let n = mesh.num_nodes();
        let mut rhs = vec![0.0; n];
        asm.apply_dirichlet(&mut rhs, &[(0, 2.0)]);
        let m = asm.into_matrix();
        // Row 0 must be diagonal-only and rhs scaled accordingly.
        let x = belenos_sparse::solver::ldl::LdlFactor::new(&m).map(|f| f.solve(&rhs).unwrap());
        if let Ok(x) = x {
            assert!((x[0] - 2.0).abs() < 1e-9, "pinned value {}", x[0]);
        }
        // Column symmetry: no other row references dof 0.
        for r in 1..n {
            assert_eq!(m.get(r, 0), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "missing from pattern")]
    fn scatter_outside_pattern_panics() {
        let mesh = Mesh::box_hex(2, 1, 1, 2.0, 1.0, 1.0);
        let p = build_pattern(&mesh, 1);
        let mut asm = Assembler::new(p);
        // Nodes 0 and 11 never share an element in a 2x1x1 mesh.
        asm.scatter(&[0, 11], &[0.0, 1.0, 1.0, 0.0]);
    }
}
