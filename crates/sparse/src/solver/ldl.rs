//! Sparse LDLᵀ with symbolic analysis — the PARDISO substitute.
//!
//! PARDISO performs a symbolic phase (elimination tree, fill-in pattern)
//! followed by a numeric phase and triangular solves. We implement the
//! up-looking sparse LDLᵀ of Davis (the algorithm behind the `LDL` package
//! that informed modern direct solvers). The analysis walks the
//! elimination tree (etree) once to find L's structure; it exposes that
//! structure as column pointers and row indices (`l_col_ptr`,
//! `l_row_idx`), which the trace layer replays as the exact per-column
//! access extents of the numeric factorization.
//!
//! The numeric phase follows a *visit plan* the analysis computes once:
//! the order in which each row's elimination visits the columns of L
//! depends on the pattern alone, so no refactorization walks the etree.
//!
//! **Ordering in place.** The symbolic analysis owns the fill-reducing
//! ordering: it factors `P A Pᵀ` without building it. Row `k` of the
//! permuted matrix is row `perm[k]` of `A` with its columns renumbered
//! through `inv`; the analysis reads each such row's entries below the
//! diagonal in ascending new column, and the numeric phase loads row
//! `k`'s entries at or below the diagonal straight from `A`'s values.
//! Entries above the permuted diagonal are never read. Each value enters
//! its accumulator as `0.0 + v`, as a sum into a zeroed slot would —
//! what [`crate::reorder::Permutation::apply_matrix`] does — so a stored
//! `-0.0` is read as `+0.0`. [`LdlFactor::solve`] permutes the right-hand
//! side in and the solution out.
//!
//! **Row blocks.** Rows `k..k + B` (`B ≤ 4`) form a block when row
//! `k + j` visits exactly row `k`'s columns, in row `k`'s order, followed
//! by `k, …, k + j − 1`. Every dof of an assembled node block does: its
//! rows couple to the same neighbours and to each other. The block's rows
//! are eliminated together: their accumulators are the `B` lanes of one
//! interleaved work vector, so each column segment of L is read once per
//! block instead of once per row. After a column's update, rows `k, k + 1,
//! …` place their entries in order, and each later row subtracts the terms
//! of the block rows just placed. The in-block columns `k, …, k + B − 2`
//! come last, through the same kernel.
//!
//! **Chains.** Column `i` is chained when its structure is `{i + 1} ∪
//! struct(i + 1)` — every dof but the last of a node block is, since the
//! block's columns share one elimination path. When a block visits
//! chained columns `c, c + 1, …, c + m − 1` back to back, the update
//! computes each column's final lane values in visit order (the in-chain
//! entries come first in every column), then walks the rows below the
//! chain once, subtracting the `m` column terms from each lane in the
//! order the column-by-column loop applied them.
//!
//! **Why no bit changes.** Lanes never mix: each accumulator — one row's
//! value at one column, or one row's pivot — receives exactly the
//! subtractions of the textbook row-at-a-time loop, with the same
//! operands, in the same order. Blocking and chaining only change how
//! often the operands are loaded.

use crate::csr::CsrMatrix;
use crate::pattern::CsrPattern;
use crate::reorder::Permutation;
use crate::{Result, SparseError};
use std::sync::Arc;

/// Most columns one chain visit updates together; longer chains are cut
/// into visits of at most this many. Four covers a u-p node block (`ux,
/// uy, uz, p`). Measured on the refactorization of the biphasic and
/// plastidamage identification candidates, caps of 6 and 8 were 2–3 %
/// faster in sum (slower on the first, faster on the second) and 12 and
/// 16 slower on both; 4 keeps half the kernel instances for that.
const CHAIN_CAP: usize = 4;

/// Most rows one block eliminates together: a u-p node block's four.
const BLOCK_CAP: usize = 4;

/// Symbolic analysis of a symmetric sparse matrix: the complete nonzero
/// structure of the L factor and the numeric phase's visit plan, both
/// found by walking the elimination tree.
///
/// Everything here depends on the pattern alone, so one analysis serves
/// every numeric (re)factorization of a Newton loop, and the structure
/// vectors are `Arc`-shared with whoever else replays them (the kernel
/// log).
#[derive(Debug, Clone)]
pub struct SymbolicLdl {
    n: usize,
    /// The analysed pattern, unpermuted: a numeric factorization of any
    /// other pattern is refused, since the plan below describes this one.
    pattern: Arc<CsrPattern>,
    /// The ordering: row and column `k` of the factored matrix are row
    /// and column `perm[k]` of the analysed one.
    perm: Permutation,
    /// Column pointers of L (size `n + 1`).
    lp: Arc<Vec<usize>>,
    /// Row indices of L, ascending within each column.
    li: Arc<Vec<u32>>,
    /// How the numeric phase walks L.
    plan: Arc<VisitPlan>,
}

/// The numeric phase's walk over L, fixed by the pattern: which rows are
/// eliminated together, which column chains update them and in what
/// order, and where each column's rows are consecutive.
#[derive(Debug)]
struct VisitPlan {
    /// Row block `b` is rows `block_row[b]..block_row[b + 1]`, at most
    /// [`BLOCK_CAP`] of them.
    block_row: Vec<usize>,
    /// Row block `b` visits `chains[chain_ptr[b]..chain_ptr[b + 1]]`.
    chain_ptr: Vec<usize>,
    /// Each chain visit of the block's first row, in visit order, as
    /// `(first column, columns)`: cut greedily at [`CHAIN_CAP`].
    chains: Vec<(u32, u32)>,
    /// Every column of L cut into maximal runs of consecutive rows:
    /// column `i` owns `runs[run_ptr[i]..run_ptr[i + 1]]`, each
    /// `(first position in li, length)`. Under a bandwidth-reducing
    /// ordering a column is a handful of long runs, and the numeric update
    /// walks them as slices instead of as an indexed scatter.
    run_ptr: Vec<usize>,
    runs: Vec<(u32, u32)>,
}

/// Row `k`'s elimination order over the columns of L: the etree path up
/// from each upper-triangle entry `(i, k)`, `i` in `cols` (ascending, all
/// below `k`), stopping at a column already on the list, with later
/// entries' paths taken first — Davis' topological order. `flag` must not
/// hold `k` on entry; `stack` has one slot per row.
fn visit_order<'s>(
    k: usize,
    cols: &[u32],
    parent: &[usize],
    flag: &mut [usize],
    stack: &'s mut [usize],
) -> &'s [usize] {
    let n = stack.len();
    let mut top = n;
    flag[k] = k;
    for &i in cols {
        let mut i = i as usize;
        let mut len = 0usize;
        while flag[i] != k {
            stack[len] = i;
            len += 1;
            flag[i] = k;
            i = parent[i];
        }
        // Reverse onto the top of the stack region.
        for s in 0..len {
            top -= 1;
            stack[top] = stack[len - 1 - s];
        }
    }
    &stack[top..]
}

impl SymbolicLdl {
    /// Runs symbolic analysis of `a` in its own ordering on the entries
    /// below its diagonal, the only ones it reads (the numeric phase reads
    /// those and the diagonal), so a matrix that stores only its lower
    /// triangle will do.
    ///
    /// # Errors
    ///
    /// [`SparseError::NotSquare`] for rectangular input.
    pub fn analyze(a: &CsrMatrix) -> Result<Self> {
        Self::analyze_ordered(a, Permutation::identity(a.nrows()))
    }

    /// Runs symbolic analysis of `P A Pᵀ`, the symmetric permutation of
    /// `a` by `perm` ([`Permutation::apply_matrix`]'s), reading `a` in
    /// place: only the entries that land below the permuted diagonal, one
    /// row's at a time, sorted into ascending new column.
    ///
    /// # Errors
    ///
    /// [`SparseError::NotSquare`] for rectangular input,
    /// [`SparseError::DimensionMismatch`] if `perm` is not over `a`'s rows.
    pub fn analyze_ordered(a: &CsrMatrix, perm: Permutation) -> Result<Self> {
        perm.check_square(a.nrows(), a.ncols())?;
        let n = a.nrows();
        let rp = a.pattern().row_ptr();
        let ci = a.pattern().col_idx();
        let (old_of, new_of) = (perm.forward(), perm.inverse());
        // Permuted row k's columns below its diagonal, in source order.
        let below = |k: usize| {
            let old = old_of[k] as usize;
            ci[rp[old]..rp[old + 1]]
                .iter()
                .map(|&c| new_of[c as usize])
                .filter(move |&c| (c as usize) < k)
        };
        // Parent of each column in the etree (`usize::MAX` = root) and the
        // below-diagonal nonzero count of each column of L.
        let mut parent = vec![usize::MAX; n];
        let mut flag = vec![usize::MAX; n];
        let mut col_counts = vec![0usize; n];
        // Davis' LDL symbolic: for each row k, walk up the etree from every
        // upper-triangle entry (i, k), i < k. Neither the tree nor the
        // counts depend on the order the entries are taken in.
        for k in 0..n {
            parent[k] = usize::MAX;
            flag[k] = k;
            for i in below(k) {
                let mut i = i as usize;
                while flag[i] != k {
                    if parent[i] == usize::MAX {
                        parent[i] = k;
                    }
                    col_counts[i] += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }
        let mut lp = vec![0usize; n + 1];
        for k in 0..n {
            lp[k + 1] = lp[k] + col_counts[k];
        }
        let chained: Vec<bool> = (0..n)
            .map(|i| i + 1 < n && parent[i] == i + 1 && col_counts[i] == col_counts[i + 1] + 1)
            .collect();
        // Second walk, now that the column extents are known: row k lands
        // in every column it visits, and rows arrive in ascending order —
        // exactly the order the numeric phase appends them in. The same
        // walk groups rows into blocks.
        let mut li = vec![0u32; lp[n]];
        let mut next = lp[..n].to_vec();
        flag.fill(usize::MAX);
        let mut stack = vec![0usize; n];
        let mut cols: Vec<u32> = Vec::new();
        let mut plan = PlanBuilder::new(&chained);
        for k in 0..n {
            // The visit order depends on the order of the row's entries:
            // ascending new column, as in the permuted matrix.
            cols.clear();
            cols.extend(below(k));
            cols.sort_unstable();
            let visits = visit_order(k, &cols, &parent, &mut flag, &mut stack);
            for &i in visits {
                li[next[i]] = k as u32;
                next[i] += 1;
            }
            plan.row(k, visits);
        }
        // A run starts at each column's first entry and wherever its row
        // index skips: counted first, so `runs` is allocated at its length.
        let run_count: usize = (0..n)
            .map(|i| {
                (lp[i]..lp[i + 1])
                    .filter(|&p| p == lp[i] || li[p] != li[p - 1] + 1)
                    .count()
            })
            .sum();
        let mut run_ptr = Vec::with_capacity(n + 1);
        let mut runs: Vec<(u32, u32)> = Vec::with_capacity(run_count);
        run_ptr.push(0);
        for i in 0..n {
            for p in lp[i]..lp[i + 1] {
                match runs.last_mut() {
                    Some((_, len)) if p > lp[i] && li[p] == li[p - 1] + 1 => *len += 1,
                    _ => runs.push((p as u32, 1)),
                }
            }
            run_ptr.push(runs.len());
        }
        Ok(SymbolicLdl {
            n,
            pattern: a.pattern_arc(),
            perm,
            lp: Arc::new(lp),
            li: Arc::new(li),
            plan: Arc::new(plan.finish(n, run_ptr, runs)),
        })
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Total below-diagonal nonzeros in L (fill-in included).
    pub fn l_nnz(&self) -> usize {
        self.lp[self.n]
    }

    /// Column pointers of L, shareable without a copy.
    pub fn l_col_ptr(&self) -> &Arc<Vec<usize>> {
        &self.lp
    }

    /// Row indices of L, shareable without a copy.
    pub fn l_row_idx(&self) -> &Arc<Vec<u32>> {
        &self.li
    }

    /// True when this analysis was run on exactly this pattern allocation.
    pub fn is_for(&self, pattern: &CsrPattern) -> bool {
        std::ptr::eq(&*self.pattern, pattern)
    }

    /// Refuses a pattern other than the analysed one: the same `Arc` passes
    /// at once, another is compared row by row.
    fn check_pattern(&self, pattern: &CsrPattern) -> Result<()> {
        if std::ptr::eq(&*self.pattern, pattern) || *self.pattern == *pattern {
            return Ok(());
        }
        let row = (0..self.n)
            .find(|&r| self.pattern.row(r) != pattern.row(r))
            .unwrap_or(self.n);
        Err(SparseError::PatternMismatch { row })
    }

    /// Fill-in ratio: `nnz(L)` over below-diagonal `nnz(P A Pᵀ)`.
    pub fn fill_ratio(&self, a: &CsrMatrix) -> f64 {
        let mut lower = 0usize;
        let rp = a.pattern().row_ptr();
        let ci = a.pattern().col_idx();
        let new_of = self.perm.inverse();
        for r in 0..a.nrows() {
            for k in rp[r]..rp[r + 1] {
                if new_of[ci[k] as usize] < new_of[r] {
                    lower += 1;
                }
            }
        }
        if lower == 0 {
            1.0
        } else {
            self.l_nnz() as f64 / lower as f64
        }
    }
}

/// Groups rows into blocks and cuts each block's visits into chains as
/// the analysis walks the rows in order.
struct PlanBuilder<'a> {
    /// `chained[i]`: column `i`'s structure is `{i + 1} ∪ struct(i + 1)`,
    /// so `L(i + 1, i)` leads it and the rest of it lines up with column
    /// `i + 1` entry for entry.
    chained: &'a [bool],
    /// The open block's first row, its row count and its visit order.
    first: usize,
    rows: usize,
    lead: Vec<usize>,
    block_row: Vec<usize>,
    chain_ptr: Vec<usize>,
    chains: Vec<(u32, u32)>,
}

impl<'a> PlanBuilder<'a> {
    fn new(chained: &'a [bool]) -> Self {
        PlanBuilder {
            chained,
            first: 0,
            rows: 0,
            lead: Vec::new(),
            block_row: Vec::new(),
            chain_ptr: vec![0],
            chains: Vec::new(),
        }
    }

    /// Row `k` joins the open block when it visits the block's first row's
    /// columns, in that order, followed by the block's rows so far.
    fn row(&mut self, k: usize, visits: &[usize]) {
        let lead = self.lead.len();
        if self.rows > 0
            && self.rows < BLOCK_CAP
            && visits.len() == lead + self.rows
            && visits[..lead] == self.lead[..]
            && visits[lead..].iter().copied().eq(self.first..k)
        {
            self.rows += 1;
            return;
        }
        self.close();
        self.lead.clear();
        self.lead.extend_from_slice(visits);
        self.first = k;
        self.rows = 1;
    }

    /// Cuts the open block's visits into chains: a chain grows while the
    /// next visit is the next column and the chain's last column is
    /// chained to it.
    fn close(&mut self) {
        if self.rows == 0 {
            return;
        }
        let v = &self.lead;
        let mut s = 0;
        while s < v.len() {
            let c = v[s];
            let mut m = 1;
            while m < CHAIN_CAP && s + m < v.len() && self.chained[c + m - 1] && v[s + m] == c + m {
                m += 1;
            }
            self.chains.push((c as u32, m as u32));
            s += m;
        }
        self.block_row.push(self.first);
        self.chain_ptr.push(self.chains.len());
    }

    /// The plan, every vector at its length: the block and chain counts
    /// are known only once the last row is walked, so `PlanBuilder`'s
    /// vectors are shrunk to them (they outlive the solve in the factor).
    fn finish(mut self, n: usize, run_ptr: Vec<usize>, runs: Vec<(u32, u32)>) -> VisitPlan {
        self.close();
        self.block_row.push(n);
        self.block_row.shrink_to_fit();
        self.chain_ptr.shrink_to_fit();
        self.chains.shrink_to_fit();
        VisitPlan {
            block_row: self.block_row,
            chain_ptr: self.chain_ptr,
            chains: self.chains,
            run_ptr,
            runs,
        }
    }
}

/// Numeric LDLᵀ factors: `P A Pᵀ = L D Lᵀ` with unit-diagonal L in CSC,
/// `P` the analysis' ordering.
///
/// The factor keeps its symbolic structure and its work vector, so
/// [`LdlFactor::refactorize`] on a matrix with the same pattern rewrites
/// only the values of `L` and `D`.
#[derive(Debug, Clone)]
pub struct LdlFactor {
    sym: SymbolicLdl,
    lx: Vec<f64>,
    d: Vec<f64>,
    /// Entries placed so far per column of L.
    lnz: Vec<usize>,
    /// The dense accumulators of the block being eliminated, interleaved:
    /// row `r` of a `B`-row block's lane `j` is `lanes[r * B + j]` (all
    /// zero between blocks).
    lanes: Vec<f64>,
}

impl LdlFactor {
    /// Numeric factorization following a symbolic analysis.
    ///
    /// # Errors
    ///
    /// [`SparseError::SingularPivot`] on a (near-)zero pivot — indefinite
    /// systems are allowed (D may have negative entries), only exact
    /// singularity is rejected. [`SparseError::PatternMismatch`] if `a`'s
    /// pattern is not the one `sym` analysed.
    pub fn factorize(a: &CsrMatrix, sym: &SymbolicLdl) -> Result<Self> {
        Self::with_symbolic(a, sym.clone())
    }

    fn with_symbolic(a: &CsrMatrix, sym: SymbolicLdl) -> Result<Self> {
        let n = sym.n;
        let mut factor = LdlFactor {
            lx: vec![0.0; sym.l_nnz()],
            d: vec![0.0; n],
            lnz: vec![0; n],
            lanes: vec![0.0; n * BLOCK_CAP],
            sym,
        };
        factor.refactorize(a)?;
        Ok(factor)
    }

    /// Numeric factorization of another matrix with the pattern this
    /// factor was analysed for, in place: no structure is re-derived, no
    /// elimination tree is walked, nothing is allocated, and `a` is read
    /// where it lies — row `k` of `P A Pᵀ` from row `perm[k]` of `a`, its
    /// entries at or below the permuted diagonal only. It runs on every
    /// call: whether `a` changed since the last one is the caller's to
    /// know (the FE assembler tracks its writes).
    ///
    /// The arithmetic is that of the textbook up-looking loop over the
    /// permuted matrix, operation for operation; only the walk differs (see
    /// the module docs). Each
    /// row block's rows share every load of a column segment of L, chained
    /// columns share one sweep of the rows below them, and a column's
    /// update runs over its runs of consecutive rows as slices. Every
    /// accumulator still receives exactly one `-= L(r, i) * y_i` per
    /// column `i`, in visit order, so no result bit can differ.
    ///
    /// # Errors
    ///
    /// [`SparseError::PatternMismatch`] if `a`'s pattern is not the
    /// analysed one; otherwise as in [`LdlFactor::factorize`], naming the
    /// first singular row. After an error the factor's values are
    /// unspecified until a later call succeeds.
    pub fn refactorize(&mut self, a: &CsrMatrix) -> Result<()> {
        let LdlFactor {
            sym,
            lx,
            d,
            lnz,
            lanes,
        } = self;
        let n = sym.n;
        if a.nrows() != n || a.ncols() != n {
            return Err(SparseError::DimensionMismatch(format!(
                "matrix is {}x{}, symbolic analysis is for {n}",
                a.nrows(),
                a.ncols()
            )));
        }
        sym.check_pattern(a.pattern())?;
        lnz.fill(0);
        lanes.fill(0.0);
        let plan = &*sym.plan;
        let mut sweep = Sweep {
            lp: &sym.lp,
            li: &sym.li,
            old_of: sym.perm.forward(),
            new_of: sym.perm.inverse(),
            plan,
            lnz,
            lx,
            d,
            lanes,
        };
        for b in 0..plan.block_row.len() - 1 {
            let k = plan.block_row[b];
            let chains = &plan.chains[plan.chain_ptr[b]..plan.chain_ptr[b + 1]];
            match plan.block_row[b + 1] - k {
                1 => sweep.block::<1>(a, k, chains),
                2 => sweep.block::<2>(a, k, chains),
                3 => sweep.block::<3>(a, k, chains),
                4 => sweep.block::<4>(a, k, chains),
                _ => unreachable!("blocks are cut at {BLOCK_CAP} rows"),
            }?;
        }
        Ok(())
    }

    /// One-shot convenience: analyze + factorize, in `a`'s own ordering.
    ///
    /// # Errors
    ///
    /// As in [`SymbolicLdl::analyze`] and [`LdlFactor::factorize`].
    pub fn new(a: &CsrMatrix) -> Result<Self> {
        Self::with_symbolic(a, SymbolicLdl::analyze(a)?)
    }

    /// Analyze + factorize `P A Pᵀ` for the ordering `perm`, reading `a`
    /// in place (see [`SymbolicLdl::analyze_ordered`]).
    ///
    /// # Errors
    ///
    /// As in [`SymbolicLdl::analyze_ordered`] and
    /// [`LdlFactor::factorize`].
    pub fn with_ordering(a: &CsrMatrix, perm: Permutation) -> Result<Self> {
        Self::with_symbolic(a, SymbolicLdl::analyze_ordered(a, perm)?)
    }

    /// Solves `A x = b`: `P b` through `L z = P b`, `D w = z`, `Lᵀ y = w`,
    /// then `x = Pᵀ y`.
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.sym.n;
        if b.len() != n {
            return Err(SparseError::DimensionMismatch(format!(
                "factor is {n}-dimensional, rhs has {}",
                b.len()
            )));
        }
        let (lp, li) = (&self.sym.lp[..], &self.sym.li[..]);
        let mut x = self.sym.perm.apply_vec(b);
        // Forward: L z = b (unit diagonal, CSC columns scatter downward).
        for j in 0..n {
            let xj = x[j];
            for p in lp[j]..lp[j + 1] {
                x[li[p] as usize] -= self.lx[p] * xj;
            }
        }
        // Diagonal.
        for j in 0..n {
            x[j] /= self.d[j];
        }
        // Backward: Lᵀ x = w (gather).
        for j in (0..n).rev() {
            let mut acc = x[j];
            for p in lp[j]..lp[j + 1] {
                acc -= self.lx[p] * x[li[p] as usize];
            }
            x[j] = acc;
        }
        Ok(self.sym.perm.apply_inv_vec(&x))
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.sym.n
    }

    /// The symbolic analysis this factor was built on.
    pub fn symbolic(&self) -> &SymbolicLdl {
        &self.sym
    }

    /// Below-diagonal nonzeros of L.
    pub fn l_nnz(&self) -> usize {
        self.lx.len()
    }

    /// The diagonal D.
    pub fn d(&self) -> &[f64] {
        &self.d
    }

    /// Column pointers of L (for the trace layer).
    pub fn l_col_ptr(&self) -> &[usize] {
        &self.sym.lp
    }

    /// Row indices of L (for the trace layer).
    pub fn l_row_idx(&self) -> &[u32] {
        &self.sym.li
    }
}

/// The numeric phase's state while it walks the plan: `L`'s structure,
/// and the values it writes.
struct Sweep<'a> {
    lp: &'a [usize],
    li: &'a [u32],
    /// The ordering: permuted row `k` is row `old_of[k]` of the matrix,
    /// whose column `c` is permuted column `new_of[c]`.
    old_of: &'a [u32],
    new_of: &'a [u32],
    plan: &'a VisitPlan,
    lnz: &'a mut [usize],
    lx: &'a mut [f64],
    d: &'a mut [f64],
    lanes: &'a mut [f64],
}

impl Sweep<'_> {
    /// Eliminates the `B` rows `k..k + B` of the permuted `a`: their
    /// chains of visits, then the in-block columns, checking each row's
    /// pivot as soon as it is final.
    #[inline(always)]
    fn block<const B: usize>(
        &mut self,
        a: &CsrMatrix,
        k: usize,
        chains: &[(u32, u32)],
    ) -> Result<()> {
        let rp = a.pattern().row_ptr();
        let ci = a.pattern().col_idx();
        let av = a.values();
        for j in 0..B {
            let row = k + j;
            let old = self.old_of[row] as usize;
            for p in rp[old]..rp[old + 1] {
                let i = self.new_of[ci[p] as usize] as usize;
                if i <= row {
                    // Read as a sum into a zeroed slot: -0.0 becomes +0.0.
                    self.lanes[i * B + j] = 0.0 + av[p];
                }
            }
            self.d[row] = std::mem::take(&mut self.lanes[row * B + j]);
        }
        for &(c, m) in chains {
            let c = c as usize;
            match m {
                1 => self.update::<1, B>(k, c, 0),
                2 => self.update::<2, B>(k, c, 0),
                3 => self.update::<3, B>(k, c, 0),
                4 => self.update::<4, B>(k, c, 0),
                _ => unreachable!("chains are cut at {CHAIN_CAP} columns"),
            }
        }
        self.pivot(k)?;
        // In-block column k + t updates the block's rows below it, after
        // which row k + t + 1 is final.
        for t in 0..B - 1 {
            self.update::<1, B>(k, k + t, t + 1);
            self.pivot(k + t + 1)?;
        }
        Ok(())
    }

    fn pivot(&self, k: usize) -> Result<()> {
        if self.d[k].abs() < 1e-300 {
            return Err(SparseError::SingularPivot {
                index: k,
                value: self.d[k],
            });
        }
        Ok(())
    }

    /// The update of lanes `j0..B` of the block at row `k` by the `M`
    /// chained columns `c, …, c + M − 1` (`M = 1` is a lone column): takes
    /// each lane's final values at the chain (clearing them), subtracts the
    /// chain's terms from the rows below it placed before the block, then
    /// appends `L(k + j, c + t)` for every lane and takes the chain's terms
    /// off each lane's pivot and off its entries at the block rows above
    /// it, which were just placed. Every accumulator sees the operands and
    /// the order of the column-by-column loop.
    #[inline(always)]
    fn update<const M: usize, const B: usize>(&mut self, k: usize, c: usize, j0: usize) {
        #[cfg(test)]
        tests::KERNEL_RUNS.with(|v| v.borrow_mut()[M][B] += 1);
        let (lp, li, lx, w) = (self.lp, self.li, &mut *self.lx, &mut *self.lanes);
        let last = c + M - 1;
        // Final value of each chain column in each lane, in visit order:
        // the in-chain entry L(c + t, c + s) sits at offset t − s − 1 of
        // column c + s.
        let mut yc = [[0.0f64; B]; M];
        for t in 0..M {
            let at = &mut w[(c + t) * B..(c + t + 1) * B];
            let mut v = [0.0f64; B];
            for j in j0..B {
                v[j] = std::mem::take(&mut at[j]);
            }
            for s in 0..t {
                let l = lx[lp[c + s] + (t - s - 1)];
                for j in j0..B {
                    v[j] -= l * yc[s][j];
                }
            }
            yc[t] = v;
        }
        // The rows below the chain placed before the block: column c + t's
        // entries past its in-chain ones line up with the prefix of column
        // `last` placed so far. (An in-block column has none yet.)
        let tail = self.lnz[last];
        debug_assert!((0..M).all(|t| self.lnz[c + t] == M - 1 - t + tail));
        debug_assert!(j0 == 0 || tail == 0);
        let end = lp[last] + tail;
        let plan = self.plan;
        for &(start, len) in &plan.runs[plan.run_ptr[last]..plan.run_ptr[last + 1]] {
            let start = start as usize;
            if start >= end {
                break;
            }
            let len = (len as usize).min(end - start);
            let first = li[start] as usize;
            let at = start - lp[last];
            let cols: [&[f64]; M] = std::array::from_fn(|t| {
                let p = lp[c + t] + (M - 1 - t) + at;
                &lx[p..p + len]
            });
            let rows = w[first * B..].chunks_exact_mut(B).take(len);
            for (r, wr) in rows.enumerate() {
                let mut v = [0.0f64; B];
                v.copy_from_slice(wr);
                for t in 0..M {
                    let l = cols[t][r];
                    for j in j0..B {
                        v[j] -= l * yc[t][j];
                    }
                }
                wr.copy_from_slice(&v);
            }
        }
        // The block's entries L(k + j, c + t): no lane's depends on
        // another's. Row k + j's pivot takes the chain's terms in order,
        // and so does each block row p < j placed before it.
        let mut lkc = [[0.0f64; B]; M];
        for t in 0..M {
            let dc = self.d[c + t];
            for j in j0..B {
                lkc[t][j] = yc[t][j] / dc;
            }
        }
        let dk = &mut self.d[k..k + B];
        for t in 0..M {
            for j in j0..B {
                dk[j] -= lkc[t][j] * yc[t][j];
            }
        }
        for j in j0 + 1..B {
            for p in j0..j {
                let at = &mut w[(k + p) * B + j];
                let mut v = *at;
                for t in 0..M {
                    v -= lkc[t][p] * yc[t][j];
                }
                *at = v;
            }
        }
        for t in 0..M {
            let i = c + t;
            let at = lp[i] + self.lnz[i];
            for j in j0..B {
                debug_assert_eq!(li[at + j - j0] as usize, k + j);
                lx[at + j - j0] = lkc[t][j];
            }
            self.lnz[i] += B - j0;
        }
    }
}

/// The textbook scalar up-looking loop this module started from, kept as
/// the oracle of the differential tests: it discovers `li` while it
/// factorizes and updates every entry through an indexed scatter. A
/// column's etree parent is its first below-diagonal row in L. It reads
/// `a` in its own ordering, each entry as the factor does (`0.0 + v`).
#[cfg(test)]
fn factorize_scalar(a: &CsrMatrix, sym: &SymbolicLdl) -> Result<(Vec<u32>, Vec<f64>, Vec<f64>)> {
    let n = sym.n;
    let rp = a.pattern().row_ptr();
    let ci = a.pattern().col_idx();
    let av = a.values();
    let lp = &sym.lp[..];
    let mut li = vec![0u32; sym.l_nnz()];
    let mut lx = vec![0.0f64; sym.l_nnz()];
    let mut d = vec![0.0f64; n];
    let mut lnz = vec![0usize; n];
    let mut y = vec![0.0f64; n];
    let mut pattern_stack = vec![0usize; n];
    let mut flag = vec![usize::MAX; n];
    for k in 0..n {
        let mut top = n;
        y[k] = 0.0;
        flag[k] = k;
        for p in rp[k]..rp[k + 1] {
            let i = ci[p] as usize;
            if i > k {
                continue;
            }
            y[i] = 0.0 + av[p];
            let mut len = 0usize;
            let mut ii = i;
            while flag[ii] != k {
                pattern_stack[len] = ii;
                len += 1;
                flag[ii] = k;
                if lp[ii] == lp[ii + 1] {
                    break;
                }
                ii = sym.li[lp[ii]] as usize;
            }
            for s in 0..len {
                top -= 1;
                pattern_stack[top] = pattern_stack[len - 1 - s];
            }
        }
        d[k] = y[k];
        y[k] = 0.0;
        for &i in &pattern_stack[top..n] {
            let yi = y[i];
            y[i] = 0.0;
            for p in lp[i]..lp[i] + lnz[i] {
                y[li[p] as usize] -= lx[p] * yi;
            }
            let lki = yi / d[i];
            d[k] -= lki * yi;
            li[lp[i] + lnz[i]] = k as u32;
            lx[lp[i] + lnz[i]] = lki;
            lnz[i] += 1;
        }
        if d[k].abs() < 1e-300 {
            return Err(SparseError::SingularPivot {
                index: k,
                value: d[k],
            });
        }
    }
    Ok((li, lx, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder::rcm;
    use crate::CooMatrix;
    use proptest::prelude::*;
    use std::cell::RefCell;

    thread_local! {
        /// Update kernel runs on this thread, by chain length `M` and
        /// block rows `B`: `KERNEL_RUNS[M][B]`.
        pub(super) static KERNEL_RUNS: RefCell<[[usize; BLOCK_CAP + 1]; CHAIN_CAP + 1]> =
            const { RefCell::new([[0; BLOCK_CAP + 1]; CHAIN_CAP + 1]) };
    }

    /// Symmetric matrix from `(i, j, v)` couplings: `band` > 0 folds every
    /// coupling into that half-bandwidth (long consecutive-row runs in L),
    /// 0 leaves them scattered; `spd` makes it diagonally dominant, else
    /// the diagonal alternates in sign (indefinite, the saddle-point shape
    /// of the u-p systems).
    fn symmetric(n: usize, band: usize, spd: bool, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        let mut diag = vec![1.0f64; n];
        for &(i, j, v) in entries {
            let i = i % n;
            let j = if band > 0 {
                (i + 1 + j % band).min(n - 1)
            } else {
                j % n
            };
            if i != j {
                coo.push(i, j, v);
                coo.push(j, i, v);
                diag[i] += v.abs();
                diag[j] += v.abs();
            }
        }
        for (i, d) in diag.iter().enumerate() {
            let sign = if spd || i % 2 == 0 { 1.0 } else { -1.0 };
            coo.push(i, i, sign * (*d + 1.0));
        }
        coo.to_csr()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Run-aware factorize and refactorize against the scalar oracle:
    /// structure equal, `lx` and `d` bit-equal, same pivot failure.
    fn assert_matches_scalar(a: &CsrMatrix) {
        let sym = SymbolicLdl::analyze(a).unwrap();
        let want = factorize_scalar(a, &sym);
        let got = LdlFactor::factorize(a, &sym);
        match (&want, &got) {
            (Ok((li, lx, d)), Ok(f)) => {
                assert_eq!(f.l_row_idx(), &li[..], "symbolic row indices");
                assert_eq!(bits(&f.lx), bits(lx), "L values");
                assert_eq!(bits(&f.d), bits(d), "D values");
            }
            (
                Err(SparseError::SingularPivot { index: a, value: u }),
                Err(SparseError::SingularPivot { index: b, value: v }),
            ) => assert_eq!((a, u.to_bits()), (b, v.to_bits())),
            other => panic!("oracle and factorize disagree: {other:?}"),
        }
        // A factor that last held other values (or failed half-way) must
        // refactorize to the same bits.
        if let Ok((_, lx, d)) = &want {
            let mut other = a.clone();
            other.scale(-3.5);
            let mut f = LdlFactor::factorize(&other, &sym).unwrap();
            f.refactorize(a).unwrap();
            assert_eq!(bits(&f.lx), bits(lx), "refactorized L values");
            assert_eq!(bits(&f.d), bits(d), "refactorized D values");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn run_aware_factorize_is_bit_identical_to_the_scalar_loop(
            n in 2usize..40,
            band in 0usize..7,
            spd in any::<bool>(),
            entries in prop::collection::vec((0usize..40, 0usize..40, -2.0f64..2.0), 1..120)
        ) {
            assert_matches_scalar(&symmetric(n, band, spd, &entries));
        }
    }

    /// An assembled stiffness over a random node graph: every node is a
    /// dense `dpn`-dof block and every edge couples two nodes' blocks in
    /// full. `spd` makes it diagonally dominant; otherwise the last dof of
    /// each node (the pressure of a u-p block) gets a negative diagonal,
    /// the saddle-point shape. A nonzero `shuffle` numbers the nodes in a
    /// random order (a node's dofs stay consecutive); `reorder` applies
    /// RCM, as the solver does.
    fn fe_shaped(
        nodes: usize,
        dpn: usize,
        spd: bool,
        shuffle: u64,
        reorder: bool,
        edges: &[(usize, usize, f64)],
    ) -> CsrMatrix {
        let number = shuffled(nodes, shuffle);
        let n = nodes * dpn;
        let mut coo = CooMatrix::new(n, n);
        let mut diag = vec![1.0f64; n];
        let mut couple = |a: usize, b: usize, v: f64| {
            for i in 0..dpn {
                for j in 0..dpn {
                    let (r, c) = (number[a] * dpn + i, number[b] * dpn + j);
                    if r != c {
                        let x = v * (1.0 + 0.125 * (i + j) as f64);
                        coo.push(r, c, x);
                        diag[r] += x.abs();
                    }
                }
            }
        };
        for a in 0..nodes {
            couple(a, a, 0.25);
        }
        for &(a, b, v) in edges {
            let (a, b) = (a % nodes, b % nodes);
            if a != b {
                couple(a, b, v);
                couple(b, a, v);
            }
        }
        for (r, d) in diag.into_iter().enumerate() {
            let sign = if spd || r % dpn + 1 < dpn { 1.0 } else { -1.0 };
            coo.push(r, r, sign * d);
        }
        let a = coo.to_csr();
        if reorder {
            rcm(a.pattern()).apply_matrix(&a).unwrap()
        } else {
            a
        }
    }

    /// A numbering of `nodes` nodes: the identity for `seed` 0, else a
    /// Fisher-Yates shuffle driven by a xorshift generator.
    fn shuffled(nodes: usize, seed: u64) -> Vec<usize> {
        let mut number: Vec<usize> = (0..nodes).collect();
        if seed == 0 {
            return number;
        }
        let mut x = seed;
        for i in (1..nodes).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            number.swap(i, (x % (i as u64 + 1)) as usize);
        }
        number
    }

    /// The hex mesh of `e³` elements as a node graph: two of its `(e + 1)³`
    /// nodes couple when they share an element.
    fn hex_mesh_edges(e: usize) -> (usize, Vec<(usize, usize, f64)>) {
        let m = e + 1;
        let nodes = m * m * m;
        let at = |i: usize| [i % m, i / m % m, i / (m * m)];
        let edges = (0..nodes)
            .flat_map(|a| (a + 1..nodes).map(move |b| (a, b)))
            .filter(|&(a, b)| (0..3).all(|d| at(a)[d].abs_diff(at(b)[d]) <= 1))
            .map(|(a, b)| (a, b, -0.1))
            .collect();
        (nodes, edges)
    }

    fn kernel_runs() -> [[usize; BLOCK_CAP + 1]; CHAIN_CAP + 1] {
        KERNEL_RUNS.with(|v| *v.borrow())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fe_shaped_factorize_is_bit_identical_to_the_scalar_loop(
            nodes in 2usize..24,
            dpn in 1usize..5,
            spd in any::<bool>(),
            shuffle in any::<u64>(),
            reorder in any::<bool>(),
            edges in prop::collection::vec((0usize..24, 0usize..24, -1.0f64..1.0), 1..60)
        ) {
            assert_matches_scalar(&fe_shaped(nodes, dpn, spd, shuffle, reorder, &edges));
        }

        #[test]
        fn the_permuted_lower_triangle_factors_as_the_full_matrix(
            nodes in 2usize..24,
            dpn in 1usize..5,
            spd in any::<bool>(),
            shuffle in any::<u64>(),
            edges in prop::collection::vec((0usize..24, 0usize..24, -1.0f64..1.0), 1..60)
        ) {
            // What the solver factors — K through RCM, in place — must
            // give the factor of the whole permuted matrix, bit for bit.
            let a = fe_shaped(nodes, dpn, spd, shuffle, false, &edges);
            let p = rcm(a.pattern());
            let full = p.apply_matrix(&a).unwrap();
            match (LdlFactor::new(&full), LdlFactor::with_ordering(&a, p)) {
                (Ok(f), Ok(g)) => {
                    prop_assert_eq!(f.l_row_idx(), g.l_row_idx());
                    prop_assert_eq!(bits(&f.lx), bits(&g.lx));
                    prop_assert_eq!(bits(&f.d), bits(&g.d));
                }
                (Err(e), Err(g)) => prop_assert_eq!(e, g),
                other => panic!("the full and in-place factors disagree: {other:?}"),
            }
        }

        #[test]
        fn the_in_place_factor_is_bit_identical_to_the_factor_of_the_permuted_lower_triangle(
            nodes in 1usize..20,
            dpn in 1usize..5,
            spd in any::<bool>(),
            order in any::<u64>(),
            salt in 0usize..6,
            edges in prop::collection::vec((0usize..20, 0usize..20, -1.0f64..1.0), 0..50)
        ) {
            // K over an FE pattern with unsymmetric values, -0.0 entries
            // and, for `order` 0, the identity ordering: reading K in place
            // must read exactly the permuted lower triangle, -0.0 as +0.0.
            let mut a = fe_shaped(nodes, dpn, spd, 0, false, &edges);
            let n = a.nrows();
            let rp = a.pattern().row_ptr().to_vec();
            let ci = a.pattern().col_idx().to_vec();
            for r in 0..n {
                for k in rp[r]..rp[r + 1] {
                    let v = &mut a.values_mut()[k];
                    match (k + salt) % 6 {
                        0 if ci[k] as usize != r => *v = -0.0,
                        1 => *v *= 1.5,
                        _ => {}
                    }
                }
            }
            let p = Permutation::new(shuffled(n, order).into_iter().map(|i| i as u32).collect())
                .unwrap();
            let want = LdlFactor::new(&lower_triangle(&p.apply_matrix(&a).unwrap()));
            let got = LdlFactor::with_ordering(&a, p.clone());
            let (want, mut got) = match (want, got) {
                (Ok(f), Ok(g)) => (f, g),
                (Err(e), Err(g)) => {
                    prop_assert_eq!(e, g);
                    return;
                }
                other => panic!("the in-place and gathered factors disagree: {other:?}"),
            };
            prop_assert_eq!(got.l_row_idx(), want.l_row_idx());
            prop_assert_eq!(bits(&got.lx), bits(&want.lx));
            prop_assert_eq!(bits(&got.d), bits(&want.d));
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
            let x = p.apply_inv_vec(&want.solve(&p.apply_vec(&b)).unwrap());
            prop_assert_eq!(bits(&got.solve(&b).unwrap()), bits(&x));
            // A factor that last held other values refactors to the same
            // bits.
            let mut other = a.clone();
            other.scale(-3.5);
            if got.refactorize(&other).is_ok() {
                got.refactorize(&a).unwrap();
                prop_assert_eq!(bits(&got.lx), bits(&want.lx));
                prop_assert_eq!(bits(&got.d), bits(&want.d));
            }
        }
    }

    /// The `col ≤ row` entries of `m`, values copied bit for bit.
    fn lower_triangle(m: &CsrMatrix) -> CsrMatrix {
        let (rp, ci) = (m.pattern().row_ptr(), m.pattern().col_idx());
        let mut row_ptr = vec![0];
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for r in 0..m.nrows() {
            for k in rp[r]..rp[r + 1] {
                if ci[k] as usize <= r {
                    cols.push(ci[k]);
                    vals.push(m.values()[k]);
                }
            }
            row_ptr.push(cols.len());
        }
        let pattern = CsrPattern::new(m.nrows(), m.ncols(), row_ptr, cols).unwrap();
        CsrMatrix::with_pattern(Arc::new(pattern), vals).unwrap()
    }

    #[test]
    fn fe_shaped_matrices_exercise_every_chain_length() {
        // A ring of nodes with a chord every third node, 1 to 4 dofs a
        // node, SPD and saddle, natural, shuffled and RCM order: every
        // kernel instance, each chain length with each block size, runs.
        let before = kernel_runs();
        for nodes in [9, 16, 30] {
            let edges: Vec<(usize, usize, f64)> = (0..nodes)
                .flat_map(|a| {
                    let chord = (a % 3 == 0).then_some((a, a + nodes / 2, -0.3));
                    [(a, a + 1, 0.5)].into_iter().chain(chord)
                })
                .collect();
            for dpn in 1..=4 {
                for spd in [true, false] {
                    for (shuffle, reorder) in [(0, false), (7, false), (0, true)] {
                        assert_matches_scalar(&fe_shaped(
                            nodes, dpn, spd, shuffle, reorder, &edges,
                        ));
                    }
                }
            }
        }
        let after = kernel_runs();
        for m in 1..=CHAIN_CAP {
            for b in 1..=BLOCK_CAP {
                assert!(
                    after[m][b] > before[m][b],
                    "no chain of {m} ran on a block of {b}: {after:?}"
                );
            }
        }
    }

    #[test]
    fn rcm_keeps_node_blocks_whole() {
        // The speedup's precondition: under RCM, nearly every dof of an
        // assembled mesh sits in a block of its node's dofs.
        let (nodes, edges) = hex_mesh_edges(4);
        for dpn in [3, 4] {
            let a = fe_shaped(nodes, dpn, true, 99, true, &edges);
            let sym = SymbolicLdl::analyze(&a).unwrap();
            // by_size[b]: rows that sit in blocks of b rows.
            let mut by_size = [0; BLOCK_CAP + 1];
            for w in sym.plan.block_row.windows(2) {
                by_size[w[1] - w[0]] += w[1] - w[0];
            }
            assert!(
                by_size[dpn] * 10 >= a.nrows() * 9,
                "{dpn} dofs a node: rows by block size {by_size:?} of {}",
                a.nrows()
            );
        }
    }

    #[test]
    fn a_singular_pivot_inside_a_chain_matches_the_oracle() {
        // Two 4-dof nodes coupled in full; rows 4..8 form one block.
        // Making dof `to` a copy of dof `to − 1` (its row and column,
        // diagonal included) zeroes the pivot of row `to`, the second or
        // third row of that block, right after the chain of columns 0..4
        // and the in-block columns before it updated it.
        let a = fe_shaped(2, 4, true, 0, false, &[(0, 1, 0.5)]);
        for to in [5, 6] {
            let mut coo = CooMatrix::new(8, 8);
            let from = |i: usize| if i == to { to - 1 } else { i };
            for r in 0..8 {
                for c in 0..8 {
                    coo.push(r, c, a.get(from(r), from(c)));
                }
            }
            let b = coo.to_csr();
            let sym = SymbolicLdl::analyze(&b).unwrap();
            assert_eq!(sym.plan.block_row, [0, 4, 8]);
            match factorize_scalar(&b, &sym) {
                Err(SparseError::SingularPivot { index, .. }) if index == to => {}
                other => panic!("expected the pivot of row {to} to vanish: {other:?}"),
            }
            assert_matches_scalar(&b);
        }
    }

    #[test]
    fn refactorize_refuses_a_pattern_it_was_not_analysed_for() {
        // Analysed for a 5x5 tridiagonal; an arrow matrix of the same
        // size must not be factorized with that structure.
        let five = |other: fn(usize) -> usize| {
            let mut coo = CooMatrix::new(5, 5);
            for i in 0..5 {
                coo.push(i, i, 4.0);
                if i > 0 {
                    coo.push(i, other(i), -1.0);
                    coo.push(other(i), i, -1.0);
                }
            }
            coo.to_csr()
        };
        let (tri, arrow) = (five(|i| i - 1), five(|_| 0));
        let sym = SymbolicLdl::analyze(&tri).unwrap();
        assert_eq!(
            LdlFactor::factorize(&arrow, &sym).unwrap_err(),
            SparseError::PatternMismatch { row: 0 }
        );
        let mut f = LdlFactor::factorize(&tri, &sym).unwrap();
        assert_eq!(
            f.refactorize(&arrow).unwrap_err(),
            SparseError::PatternMismatch { row: 0 }
        );
        // An equal pattern behind another `Arc` is the same pattern.
        let copy = CsrMatrix::with_pattern(Arc::new(tri.pattern().clone()), tri.values().to_vec())
            .unwrap();
        f.refactorize(&copy).unwrap();
    }

    #[test]
    fn run_aware_factorize_reports_the_same_singular_pivot() {
        // A chain 0-1-2-3 plus the exactly singular block [[1, 1], [1, 1]]
        // on (4, 5): the zero pivot appears at the last row, after real
        // elimination work.
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, if i < 4 { 2.0 } else { 1.0 });
        }
        for (i, j) in [(0, 1), (1, 2), (2, 3), (4, 5)] {
            coo.push(i, j, 1.0);
            coo.push(j, i, 1.0);
        }
        let a = coo.to_csr();
        let sym = SymbolicLdl::analyze(&a).unwrap();
        assert!(matches!(
            factorize_scalar(&a, &sym),
            Err(SparseError::SingularPivot { index: 5, .. })
        ));
        assert_matches_scalar(&a);
    }

    #[test]
    fn banded_columns_are_mostly_runs() {
        // Half-bandwidth 3, fully populated: every column of L is one run.
        let n = 12;
        let entries: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| (0..3).map(move |j| (i, j, 0.5)))
            .collect();
        let a = symmetric(n, 3, true, &entries);
        let sym = SymbolicLdl::analyze(&a).unwrap();
        let nonempty = sym.l_col_ptr().windows(2).filter(|c| c[1] > c[0]).count();
        assert_eq!(sym.plan.runs.len(), nonempty);
        let in_runs: usize = sym.plan.runs.iter().map(|&(_, len)| len as usize).sum();
        assert_eq!(in_runs, sym.l_nnz());
    }

    fn lap2d(nx: usize) -> CsrMatrix {
        let n = nx * nx;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..nx {
                let p = i * nx + j;
                coo.push(p, p, 4.0);
                if i > 0 {
                    coo.push(p, p - nx, -1.0);
                }
                if i + 1 < nx {
                    coo.push(p, p + nx, -1.0);
                }
                if j > 0 {
                    coo.push(p, p - 1, -1.0);
                }
                if j + 1 < nx {
                    coo.push(p, p + 1, -1.0);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn etree_of_tridiagonal_is_a_path() {
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
                coo.push(i - 1, i, -1.0);
            }
        }
        let a = coo.to_csr();
        let sym = SymbolicLdl::analyze(&a).unwrap();
        // A column's etree parent is its first row in L: column i's one
        // entry is row i + 1, and the last column is the empty root.
        // Tridiagonal has no fill: one below-diagonal entry per column except last.
        assert_eq!(sym.l_col_ptr()[..], [0, 1, 2, 3, 4, 4]);
        assert_eq!(sym.l_row_idx()[..], [1, 2, 3, 4]);
        assert_eq!(sym.l_nnz(), 4);
        assert!((sym.fill_ratio(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn laplacian_has_fill() {
        let a = lap2d(6);
        let sym = SymbolicLdl::analyze(&a).unwrap();
        assert!(
            sym.fill_ratio(&a) > 1.5,
            "fill ratio {}",
            sym.fill_ratio(&a)
        );
    }

    /// `L D Lᵀ` as a row-major dense matrix (O(n²) memory).
    fn reconstruct(f: &LdlFactor) -> Vec<f64> {
        let n = f.sym.n;
        let (lp, li) = (&f.sym.lp[..], &f.sym.li[..]);
        let mut l = vec![0.0; n * n];
        for j in 0..n {
            l[j * n + j] = 1.0;
            for p in lp[j]..lp[j + 1] {
                l[li[p] as usize * n + j] = f.lx[p];
            }
        }
        let mut ldlt = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                ldlt[i * n + j] = (0..n).map(|k| l[i * n + k] * f.d[k] * l[j * n + k]).sum();
            }
        }
        ldlt
    }

    #[test]
    fn reconstruction_matches_original() {
        let a = lap2d(4);
        let f = LdlFactor::new(&a).unwrap();
        let rec = reconstruct(&f);
        let n = a.nrows();
        let err = rec
            .iter()
            .enumerate()
            .map(|(k, v)| (v - a.get(k / n, k % n)).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-10, "reconstruction error {err}");
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = lap2d(8);
        let x_true: Vec<f64> = (0..64).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let b = a.spmv(&x_true).unwrap();
        let f = LdlFactor::new(&a).unwrap();
        let x = f.solve(&b).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn indefinite_but_nonsingular_ok() {
        // LDLᵀ (unlike Cholesky) handles symmetric indefinite matrices that
        // need no pivoting.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, -2.0);
        let a = coo.to_csr();
        let f = LdlFactor::new(&a).unwrap();
        assert!(f.d()[1] < 0.0);
        let x = f.solve(&[1.0, 2.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-15);
        assert!((x[1] + 1.0).abs() < 1e-15);
    }

    #[test]
    fn singular_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        assert!(matches!(
            LdlFactor::new(&a),
            Err(SparseError::SingularPivot { .. })
        ));
    }

    #[test]
    fn repeated_solves_with_one_factorization() {
        let a = lap2d(5);
        let f = LdlFactor::new(&a).unwrap();
        for seed in 0..3 {
            let x_true: Vec<f64> = (0..25).map(|i| ((i + seed) as f64).sin()).collect();
            let b = a.spmv(&x_true).unwrap();
            let x = f.solve(&b).unwrap();
            for (u, v) in x.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn symbolic_reuse_across_numeric_refactorizations() {
        // Newton iterations refactorize with the same pattern; symbolic
        // analysis must be reusable.
        let a = lap2d(5);
        let sym = SymbolicLdl::analyze(&a).unwrap();
        let mut a2 = a.clone();
        a2.scale(2.0);
        let f1 = LdlFactor::factorize(&a, &sym).unwrap();
        let f2 = LdlFactor::factorize(&a2, &sym).unwrap();
        let b = vec![1.0; 25];
        let x1 = f1.solve(&b).unwrap();
        let x2 = f2.solve(&b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - 2.0 * v).abs() < 1e-9);
        }
    }

    #[test]
    fn rhs_shape_checked() {
        let a = lap2d(3);
        let f = LdlFactor::new(&a).unwrap();
        assert!(f.solve(&[0.0; 5]).is_err());
    }
}
