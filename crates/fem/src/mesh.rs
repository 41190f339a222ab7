//! Meshes and structured generators.
//!
//! FEBio models are unstructured meshes from anatomy; here we generate
//! structured boxes/tubes and optionally *relabel* nodes pseudo-randomly to
//! reproduce the locality-degrading irregular numbering of anatomical
//! meshes (the eye case study leans on this).

use crate::error::FemError;
use crate::Result;
use std::collections::HashMap;

/// Supported element topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementKind {
    /// 8-node trilinear hexahedron.
    Hex8,
    /// 4-node linear tetrahedron.
    Tet4,
}

impl ElementKind {
    /// Nodes per element.
    pub fn nodes(self) -> usize {
        match self {
            ElementKind::Hex8 => 8,
            ElementKind::Tet4 => 4,
        }
    }
}

/// An unstructured FE mesh with named node sets for boundary conditions.
#[derive(Debug, Clone)]
pub struct Mesh {
    kind: ElementKind,
    coords: Vec<[f64; 3]>,
    /// Flattened connectivity, `kind.nodes()` ids per element.
    conn: Vec<u32>,
    /// Named node sets ("x0", "z1", user-defined, ...).
    sets: HashMap<String, Vec<u32>>,
    /// Per-element region id (heterogeneous materials, e.g. eye layers).
    regions: Vec<u16>,
}

impl Mesh {
    /// Builds a mesh from raw parts.
    ///
    /// # Errors
    ///
    /// [`FemError::InvalidModel`] if connectivity length or node ids are
    /// inconsistent.
    pub fn new(kind: ElementKind, coords: Vec<[f64; 3]>, conn: Vec<u32>) -> Result<Self> {
        if !conn.len().is_multiple_of(kind.nodes()) {
            return Err(FemError::InvalidModel(format!(
                "connectivity length {} not a multiple of {}",
                conn.len(),
                kind.nodes()
            )));
        }
        if let Some(&max) = conn.iter().max() {
            if max as usize >= coords.len() {
                return Err(FemError::InvalidModel(format!(
                    "node id {max} out of range for {} nodes",
                    coords.len()
                )));
            }
        }
        let n_elems = conn.len() / kind.nodes();
        Ok(Mesh {
            kind,
            coords,
            conn,
            sets: HashMap::new(),
            regions: vec![0; n_elems],
        })
    }

    /// Structured box of `nx x ny x nz` hexahedra spanning `lx x ly x lz`,
    /// with face sets `x0,x1,y0,y1,z0,z1`.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn box_hex(nx: usize, ny: usize, nz: usize, lx: f64, ly: f64, lz: f64) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "element counts must be positive"
        );
        let (px, py, pz) = (nx + 1, ny + 1, nz + 1);
        let node = |i: usize, j: usize, k: usize| -> u32 { (k * py * px + j * px + i) as u32 };
        let mut coords = Vec::with_capacity(px * py * pz);
        for k in 0..pz {
            for j in 0..py {
                for i in 0..px {
                    coords.push([
                        lx * i as f64 / nx as f64,
                        ly * j as f64 / ny as f64,
                        lz * k as f64 / nz as f64,
                    ]);
                }
            }
        }
        let mut conn = Vec::with_capacity(nx * ny * nz * 8);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    conn.extend_from_slice(&[
                        node(i, j, k),
                        node(i + 1, j, k),
                        node(i + 1, j + 1, k),
                        node(i, j + 1, k),
                        node(i, j, k + 1),
                        node(i + 1, j, k + 1),
                        node(i + 1, j + 1, k + 1),
                        node(i, j + 1, k + 1),
                    ]);
                }
            }
        }
        let mut mesh = Mesh::new(ElementKind::Hex8, coords, conn).expect("structured mesh valid");
        let mut x0 = Vec::new();
        let mut x1 = Vec::new();
        let mut y0 = Vec::new();
        let mut y1 = Vec::new();
        let mut z0 = Vec::new();
        let mut z1 = Vec::new();
        for k in 0..pz {
            for j in 0..py {
                for i in 0..px {
                    let n = node(i, j, k);
                    if i == 0 {
                        x0.push(n);
                    }
                    if i == nx {
                        x1.push(n);
                    }
                    if j == 0 {
                        y0.push(n);
                    }
                    if j == ny {
                        y1.push(n);
                    }
                    if k == 0 {
                        z0.push(n);
                    }
                    if k == nz {
                        z1.push(n);
                    }
                }
            }
        }
        mesh.sets.insert("x0".into(), x0);
        mesh.sets.insert("x1".into(), x1);
        mesh.sets.insert("y0".into(), y0);
        mesh.sets.insert("y1".into(), y1);
        mesh.sets.insert("z0".into(), z0);
        mesh.sets.insert("z1".into(), z1);
        mesh
    }

    /// Structured box of tetrahedra: each hex cell split into 6 tets.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn box_tet(nx: usize, ny: usize, nz: usize, lx: f64, ly: f64, lz: f64) -> Self {
        let hex = Mesh::box_hex(nx, ny, nz, lx, ly, lz);
        let mut conn = Vec::with_capacity(hex.num_elems() * 6 * 4);
        // Six-tet decomposition of the unit hex (consistent orientation).
        const SPLIT: [[usize; 4]; 6] = [
            [0, 1, 2, 6],
            [0, 2, 3, 6],
            [0, 3, 7, 6],
            [0, 7, 4, 6],
            [0, 4, 5, 6],
            [0, 5, 1, 6],
        ];
        for e in 0..hex.num_elems() {
            let h = hex.element(e);
            for tet in &SPLIT {
                for &v in tet {
                    conn.push(h[v]);
                }
            }
        }
        let mut mesh =
            Mesh::new(ElementKind::Tet4, hex.coords.clone(), conn).expect("tet split valid");
        mesh.sets = hex.sets;
        mesh
    }

    /// Relabels the nodes with a pseudo-random (deterministic) permutation,
    /// destroying structured locality as anatomical meshes do. Coordinates,
    /// connectivity and node sets are all remapped.
    pub fn shuffle_nodes(&mut self, seed: u64) {
        let n = self.coords.len();
        // Fisher-Yates with an xorshift generator (deterministic; no rand
        // dependency needed in the core path).
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        // perm[old] = new
        let mut new_coords = vec![[0.0; 3]; n];
        for (old, &new) in perm.iter().enumerate() {
            new_coords[new as usize] = self.coords[old];
        }
        self.coords = new_coords;
        for c in &mut self.conn {
            *c = perm[*c as usize];
        }
        for set in self.sets.values_mut() {
            for v in set.iter_mut() {
                *v = perm[*v as usize];
            }
        }
    }

    /// Element topology kind.
    pub fn kind(&self) -> ElementKind {
        self.kind
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of elements.
    pub fn num_elems(&self) -> usize {
        self.conn.len() / self.kind.nodes()
    }

    /// Node coordinates.
    pub fn coords(&self) -> &[[f64; 3]] {
        &self.coords
    }

    /// Flattened connectivity.
    pub fn connectivity(&self) -> &[u32] {
        &self.conn
    }

    /// Node ids of element `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn element(&self, e: usize) -> &[u32] {
        let npe = self.kind.nodes();
        &self.conn[e * npe..(e + 1) * npe]
    }

    /// Region id of element `e`.
    pub fn region(&self, e: usize) -> u16 {
        self.regions[e]
    }

    /// Assigns region ids from a per-element classifier (for heterogeneous
    /// material maps like the eye model's cornea/sclera/nerve-head split).
    pub fn assign_regions<F: FnMut(usize, [f64; 3]) -> u16>(&mut self, mut classify: F) {
        for e in 0..self.num_elems() {
            let c = self.element_centroid(e);
            self.regions[e] = classify(e, c);
        }
    }

    /// Centroid of element `e`.
    pub fn element_centroid(&self, e: usize) -> [f64; 3] {
        let nodes = self.element(e);
        let mut c = [0.0; 3];
        for &n in nodes {
            let p = self.coords[n as usize];
            for a in 0..3 {
                c[a] += p[a];
            }
        }
        for a in c.iter_mut() {
            *a /= nodes.len() as f64;
        }
        c
    }

    /// A named node set.
    ///
    /// # Errors
    ///
    /// [`FemError::InvalidModel`] if no set has that name.
    pub fn node_set(&self, name: &str) -> Result<&[u32]> {
        self.sets
            .get(name)
            .map(|v| v.as_slice())
            .ok_or_else(|| FemError::InvalidModel(format!("unknown node set '{name}'")))
    }

    /// Estimated FEBio `.feb` input-file size in kB (Table-I surrogate):
    /// XML overhead per node (~65 B) and per element (~55 B) plus a fixed
    /// header/material block.
    pub fn input_size_kb(&self) -> f64 {
        (2048.0 + 65.0 * self.num_nodes() as f64 + 55.0 * self.num_elems() as f64) / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_hex_counts() {
        let m = Mesh::box_hex(2, 3, 4, 1.0, 1.0, 1.0);
        assert_eq!(m.num_nodes(), 3 * 4 * 5);
        assert_eq!(m.num_elems(), 24);
        assert_eq!(m.kind().nodes(), 8);
    }

    #[test]
    fn box_hex_face_sets() {
        let m = Mesh::box_hex(2, 2, 2, 1.0, 1.0, 1.0);
        assert_eq!(m.node_set("z0").unwrap().len(), 9);
        assert_eq!(m.node_set("x1").unwrap().len(), 9);
        assert!(m.node_set("nope").is_err());
        // z0 nodes really sit at z == 0.
        for &n in m.node_set("z0").unwrap() {
            assert_eq!(m.coords()[n as usize][2], 0.0);
        }
    }

    #[test]
    fn box_tet_splits_into_six() {
        let m = Mesh::box_tet(2, 2, 2, 1.0, 1.0, 1.0);
        assert_eq!(m.num_elems(), 8 * 6);
        assert_eq!(m.kind(), ElementKind::Tet4);
    }

    #[test]
    fn element_accessor_and_centroid() {
        let m = Mesh::box_hex(1, 1, 1, 2.0, 2.0, 2.0);
        assert_eq!(m.element(0).len(), 8);
        let c = m.element_centroid(0);
        for a in c {
            assert!((a - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn shuffle_preserves_geometry() {
        let mut m = Mesh::box_hex(3, 3, 3, 1.0, 1.0, 1.0);
        let c0 = m.element_centroid(5);
        let set_len = m.node_set("z1").unwrap().len();
        m.shuffle_nodes(42);
        let c1 = m.element_centroid(5);
        for a in 0..3 {
            assert!(
                (c0[a] - c1[a]).abs() < 1e-12,
                "centroid moved after relabel"
            );
        }
        assert_eq!(m.node_set("z1").unwrap().len(), set_len);
        for &n in m.node_set("z1").unwrap() {
            assert!((m.coords()[n as usize][2] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn shuffle_changes_numbering() {
        let mut m = Mesh::box_hex(4, 4, 4, 1.0, 1.0, 1.0);
        let before = m.connectivity().to_vec();
        m.shuffle_nodes(7);
        assert_ne!(before, m.connectivity());
    }

    #[test]
    fn regions_classify_by_centroid() {
        let mut m = Mesh::box_hex(2, 1, 1, 2.0, 1.0, 1.0);
        m.assign_regions(|_, c| if c[0] < 1.0 { 0 } else { 1 });
        assert_eq!(m.region(0), 0);
        assert_eq!(m.region(1), 1);
    }

    #[test]
    fn invalid_connectivity_rejected() {
        assert!(Mesh::new(ElementKind::Tet4, vec![[0.0; 3]; 3], vec![0, 1, 2]).is_err());
        assert!(Mesh::new(ElementKind::Tet4, vec![[0.0; 3]; 3], vec![0, 1, 2, 9]).is_err());
    }

    #[test]
    fn input_size_grows_with_mesh() {
        let small = Mesh::box_hex(2, 2, 2, 1.0, 1.0, 1.0);
        let big = Mesh::box_hex(8, 8, 8, 1.0, 1.0, 1.0);
        assert!(big.input_size_kb() > small.input_size_kb() * 10.0);
    }
}
