//! Adjacency-graph utilities over sparsity patterns.
//!
//! Reordering (RCM) and symbolic factorization both view the stiffness
//! matrix as an undirected graph; this module centralizes those traversals.

use crate::pattern::CsrPattern;
use std::collections::VecDeque;

/// Undirected adjacency structure derived from a (structurally symmetric)
/// sparsity pattern; self-loops (diagonal entries) are dropped.
#[derive(Debug, Clone)]
pub struct AdjacencyGraph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl AdjacencyGraph {
    /// Builds the adjacency graph of `pattern` symmetrized with its
    /// transpose (so works for unsymmetric patterns too), in time linear
    /// in its size: the transpose is built by counting, and each vertex's
    /// neighbors are its row merged with its transpose row.
    pub fn from_pattern(pattern: &CsrPattern) -> Self {
        let n = pattern.nrows();
        // Off-diagonal entries that name a vertex; rows are strictly
        // increasing, so each row's are too.
        let row = |r: usize| {
            pattern
                .row(r)
                .iter()
                .copied()
                .filter(move |&c| c as usize != r && (c as usize) < n)
        };
        let mut tptr = vec![0usize; n + 1];
        for r in 0..n {
            for c in row(r) {
                tptr[c as usize + 1] += 1;
            }
        }
        for i in 0..n {
            tptr[i + 1] += tptr[i];
        }
        // Rows arrive in ascending order, so every transpose row is sorted.
        let mut tidx = vec![0u32; tptr[n]];
        let mut cursor = tptr.clone();
        for r in 0..n {
            for c in row(r) {
                tidx[cursor[c as usize]] = r as u32;
                cursor[c as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * tidx.len());
        offsets.push(0);
        for v in 0..n {
            let mut a = row(v).peekable();
            let mut b = tidx[tptr[v]..tptr[v + 1]].iter().copied().peekable();
            while let Some(w) = match (a.peek(), b.peek()) {
                (Some(&x), Some(&y)) if y < x => b.next(),
                (Some(&x), Some(&y)) if y == x => b.next().and(a.next()),
                (Some(_), _) => a.next(),
                (None, _) => b.next(),
            } {
                neighbors.push(w);
            }
            offsets.push(neighbors.len());
        }
        AdjacencyGraph { offsets, neighbors }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbors of vertex `v`, sorted ascending.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Breadth-first levels from `start`; returns `(levels, order)` where
    /// `levels[v]` is the BFS depth (usize::MAX if unreachable) and `order`
    /// lists reached vertices in visit order.
    pub fn bfs(&self, start: usize) -> (Vec<usize>, Vec<u32>) {
        let n = self.num_vertices();
        let mut levels = vec![usize::MAX; n];
        let mut order = Vec::with_capacity(n);
        let mut q = VecDeque::new();
        levels[start] = 0;
        q.push_back(start as u32);
        while let Some(v) = q.pop_front() {
            order.push(v);
            let lv = levels[v as usize];
            for &w in self.neighbors(v as usize) {
                if levels[w as usize] == usize::MAX {
                    levels[w as usize] = lv + 1;
                    q.push_back(w);
                }
            }
        }
        (levels, order)
    }

    /// A pseudo-peripheral vertex of the component containing `start`
    /// (George-Liu heuristic): repeatedly jump to a lowest-degree vertex in
    /// the last BFS level until the eccentricity stops growing.
    pub fn pseudo_peripheral(&self, start: usize) -> usize {
        let (mut levels, mut order) = self.bfs(start);
        let mut ecc = order.last().map_or(0, |&w| levels[w as usize]);
        loop {
            let last = *order.last().expect("bfs visits at least the start");
            let deepest = levels[last as usize];
            // Lowest-degree vertex in the deepest level.
            let cand = order
                .iter()
                .rev()
                .take_while(|&&w| levels[w as usize] == deepest)
                .min_by_key(|&&w| self.degree(w as usize))
                .copied()
                .unwrap_or(last);
            let (nl, no) = self.bfs(cand as usize);
            let necc = no.last().map_or(0, |&w| nl[w as usize]);
            if necc > ecc {
                ecc = necc;
                levels = nl;
                order = no;
            } else {
                return cand as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The builder `from_pattern` replaced: every off-diagonal entry as
    /// two directed edges, sorted and deduplicated. Oracle of the
    /// differential test below.
    fn from_pattern_by_sorting(pattern: &CsrPattern) -> AdjacencyGraph {
        let n = pattern.nrows();
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(pattern.nnz() * 2);
        for r in 0..n {
            for &c in pattern.row(r) {
                let c = c as usize;
                if c == r || c >= n {
                    continue;
                }
                edges.push((r as u32, c as u32));
                edges.push((c as u32, r as u32));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0usize; n + 1];
        for &(a, _) in &edges {
            offsets[a as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let neighbors = edges.into_iter().map(|(_, b)| b).collect();
        AdjacencyGraph { offsets, neighbors }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn linear_builder_matches_the_sorting_one(
            nrows in 1usize..30,
            extra_cols in 0usize..4,
            symmetric in any::<bool>(),
            diagonal in any::<bool>(),
            entries in prop::collection::vec((0usize..40, 0usize..40), 0..120)
        ) {
            // `extra_cols` > 0 puts columns past the last vertex.
            let ncols = nrows + extra_cols;
            let mut rows = vec![std::collections::BTreeSet::new(); nrows];
            for &(r, c) in &entries {
                let (r, c) = (r % nrows, c % ncols);
                rows[r].insert(c as u32);
                if symmetric && c < nrows {
                    rows[c].insert(r as u32);
                }
            }
            if diagonal {
                for (r, row) in rows.iter_mut().enumerate() {
                    row.insert(r as u32);
                }
            }
            let mut row_ptr = vec![0];
            let mut col_idx = Vec::new();
            for row in &rows {
                col_idx.extend(row.iter().copied());
                row_ptr.push(col_idx.len());
            }
            let p = CsrPattern::new(nrows, ncols, row_ptr, col_idx).unwrap();
            let (got, want) = (AdjacencyGraph::from_pattern(&p), from_pattern_by_sorting(&p));
            prop_assert_eq!(got.offsets, want.offsets);
            prop_assert_eq!(got.neighbors, want.neighbors);
        }
    }

    fn path_pattern(n: usize) -> CsrPattern {
        // Tridiagonal pattern = path graph.
        let mut row_ptr = vec![0usize];
        let mut col = Vec::new();
        for i in 0..n {
            if i > 0 {
                col.push((i - 1) as u32);
            }
            col.push(i as u32);
            if i + 1 < n {
                col.push((i + 1) as u32);
            }
            row_ptr.push(col.len());
        }
        CsrPattern::new(n, n, row_ptr, col).unwrap()
    }

    #[test]
    fn path_graph_adjacency() {
        let g = AdjacencyGraph::from_pattern(&path_pattern(5));
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.degree(4), 1);
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = AdjacencyGraph::from_pattern(&path_pattern(6));
        let (levels, order) = g.bfs(0);
        assert_eq!(levels, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn pseudo_peripheral_of_path_is_an_endpoint() {
        let g = AdjacencyGraph::from_pattern(&path_pattern(9));
        let p = g.pseudo_peripheral(4);
        assert!(p == 0 || p == 8, "got {p}");
    }

    #[test]
    fn asymmetric_pattern_is_symmetrized() {
        // Entry (0, 2) only; graph must still contain edge both ways.
        let p = CsrPattern::new(3, 3, vec![0, 1, 1, 1], vec![2]).unwrap();
        let g = AdjacencyGraph::from_pattern(&p);
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn diagonal_self_loops_dropped() {
        let p = CsrPattern::new(2, 2, vec![0, 1, 2], vec![0, 1]).unwrap();
        let g = AdjacencyGraph::from_pattern(&p);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(1), 0);
    }
}
