//! Section 6: the all-pairs vertex-to-vertex (`V_R`-to-`V_R`) length matrix
//! and the vertex-to-boundary structure.
//!
//! The paper builds these in `O(log^2 n)` time with `O(n^2)` processors by
//! pipelining `O(n)` computational "flows" through the recursion tree
//! (Section 6.3).  On a multicore both come out of Section 9's all-pairs
//! pass ([`SingleSourceEngine`]'s sweep, run for many sources at once): its
//! source-independent tables are built once per case view in
//! `O(n log n)`, then the sources fan out over the rayon pool, each sweeping
//! its targets in `O(n log n)`.  The vertex matrix sweeps two of the four
//! monotone cases per source and completes the rest by symmetry, so the
//! `O(n^2 log n)` work divides over `p` workers: `O(n^2 log n / p + n)`,
//! which for any realistic `p << n` is indistinguishable from the paper's
//! schedule.  The substitution is documented in DESIGN.md §3 (item 4) and
//! evaluated by experiment E4.

use crate::delta::DeltaBase;
use crate::seq::SingleSourceEngine;
use crate::store::{DistanceStore, RowCarry, StoreKind};
use rsp_geom::{Dist, ObstacleIndex, ObstacleSet, Point, INF};
use rsp_monge::MinPlusMatrix;
use std::collections::HashMap;
use std::sync::Arc;

/// The `V_R`-to-`V_R` path-length structure plus the point-to-index mapping.
/// Distances live behind a pluggable [`DistanceStore`]: the dense matrix the
/// paper materialises, or the implicit byte-budgeted row store for scenes
/// where `O(n^2)` memory is the wall.  Both backends answer bitwise
/// identically (see [`crate::store`]).
pub struct VertexApsp {
    vertices: Vec<Point>,
    index_of: HashMap<Point, usize>,
    store: DistanceStore,
}

impl VertexApsp {
    /// Build the dense matrix: the all-pairs pass over the `4n` vertex
    /// sources, fanned out over the rayon pool.
    pub fn build(obstacles: &ObstacleSet) -> Self {
        Self::build_fresh(obstacles, StoreKind::Dense)
    }

    /// Build the dense matrix by Section 9's all-pairs pass on the caller's
    /// thread: the sequential construction E8 compares with repeated
    /// single-source sweeps ([`crate::baseline::repeated_sssp_matrix`]).
    pub fn build_sequential(obstacles: &ObstacleSet) -> Self {
        let engine = SingleSourceEngine::new(obstacles);
        let rows = engine.vertex_rows(false);
        Self::from_store(engine.vertices().to_vec(), DistanceStore::dense(MinPlusMatrix::from_rows(rows)))
    }

    /// Build an *implicit* structure: no matrix is materialised; distance
    /// rows are generated on demand by the Section 9 single-source sweep, one
    /// row per miss, and cached under `budget_bytes`.  The
    /// [`ObstacleIndex`] the engine shoots through is built here, in
    /// `O(n log n)`.
    pub fn build_implicit(obstacles: &ObstacleSet, budget_bytes: usize) -> Self {
        Self::build_fresh(obstacles, StoreKind::Implicit { budget_bytes })
    }

    fn build_fresh(obstacles: &ObstacleSet, kind: StoreKind) -> Self {
        let index = Arc::new(ObstacleIndex::build(obstacles));
        Self::build_with(Arc::new(obstacles.clone()), index, kind, None).0
    }

    /// Build over the distance store `kind` names, sweeping through `index`
    /// (the [`ObstacleIndex`] of `obstacles`) and carrying rows from `base`
    /// (see [`DistanceStore::build`]).
    pub(crate) fn build_with(
        obstacles: Arc<ObstacleSet>,
        index: Arc<ObstacleIndex>,
        kind: StoreKind,
        base: Option<&DeltaBase>,
    ) -> (Self, RowCarry) {
        let vertices = obstacles.vertices();
        let (store, carry) = DistanceStore::build(obstacles, index, kind, base);
        (Self::from_store(vertices, store), carry)
    }

    /// Wrap any [`DistanceStore`] whose row/column space is `vertices`.
    pub fn from_store(vertices: Vec<Point>, store: DistanceStore) -> Self {
        assert_eq!(store.dim(), vertices.len(), "store dimension must match the vertex count");
        let mut index_of = HashMap::with_capacity(vertices.len());
        for (i, &p) in vertices.iter().enumerate() {
            index_of.entry(p).or_insert(i);
        }
        VertexApsp { vertices, index_of, store }
    }

    /// The obstacle vertices, in matrix order.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices (`4n`).
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the obstacle set was empty (no vertices).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Length query between two vertices given by index: `O(1)` for the
    /// dense store and for implicit-resident rows; one single-source sweep
    /// on an implicit row miss.
    pub fn distance(&self, i: usize, j: usize) -> Dist {
        self.store.at(i, j)
    }

    /// Length query between two obstacle vertices given as points.
    /// Returns `INF` if either point is not an obstacle vertex.
    pub fn distance_between(&self, a: Point, b: Point) -> Dist {
        match (self.index_of.get(&a), self.index_of.get(&b)) {
            (Some(&i), Some(&j)) => self.store.at(i, j),
            _ => INF,
        }
    }

    /// Index of an obstacle vertex.
    pub fn vertex_index(&self, p: Point) -> Option<usize> {
        self.index_of.get(&p).copied()
    }

    /// The underlying dense matrix, when this structure has one (`None` for
    /// the implicit store, which never materialises it).
    pub fn matrix(&self) -> Option<&MinPlusMatrix> {
        self.store.as_dense()
    }

    /// The distance storage backend.
    pub fn store(&self) -> &DistanceStore {
        &self.store
    }

    /// Memory accounting snapshot of the distance store.
    pub fn store_stats(&self) -> crate::store::StoreStats {
        self.store.stats()
    }
}

/// The `B(P)`-to-`V_R` structure of Section 6.2: path lengths from a set of
/// boundary points of the container to every obstacle vertex.  (The paper
/// derives it top-down from the recursion tree with Lemma 15; here it is the
/// Section 9 all-pairs pass with the boundary points as sources, preserving
/// the `O(n^2 log n)`-work shape of the claim.)
pub struct BoundaryToVertex {
    boundary_points: Vec<Point>,
    vertices: Vec<Point>,
    matrix: MinPlusMatrix,
}

impl BoundaryToVertex {
    /// Build the boundary-to-vertex length structure by the all-pairs pass
    /// over `boundary_points` (Section 6.3).  Rows and columns are different
    /// point sets, so every row sweeps all four monotone cases.
    pub fn build(obstacles: &ObstacleSet, boundary_points: &[Point]) -> Self {
        let engine = SingleSourceEngine::new(obstacles);
        let rows = engine.rows_from(boundary_points);
        BoundaryToVertex {
            boundary_points: boundary_points.to_vec(),
            vertices: engine.vertices().to_vec(),
            matrix: MinPlusMatrix::from_rows(rows),
        }
    }

    /// The boundary points (row index space).
    pub fn boundary_points(&self) -> &[Point] {
        &self.boundary_points
    }

    /// The obstacle vertices (column index space).
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Length of a shortest path from boundary point `i` to obstacle vertex
    /// `j`.
    pub fn distance(&self, i: usize, j: usize) -> Dist {
        self.matrix.get(i, j)
    }

    /// The full boundary-to-vertex length matrix.
    pub fn matrix(&self) -> &MinPlusMatrix {
        &self.matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::hanan::ground_truth_matrix;
    use rsp_geom::Rect;

    fn obstacles() -> ObstacleSet {
        ObstacleSet::new(vec![
            Rect::new(0, 0, 4, 3),
            Rect::new(6, 2, 9, 8),
            Rect::new(1, 6, 4, 9),
            Rect::new(11, 0, 13, 4),
        ])
    }

    #[test]
    fn parallel_matches_sequential_and_truth() {
        let obs = obstacles();
        let par = VertexApsp::build(&obs);
        let seq = VertexApsp::build_sequential(&obs);
        let repeated = crate::baseline::repeated_sssp_matrix(&obs);
        assert_eq!(par.matrix().expect("dense build"), &repeated);
        assert_eq!(seq.matrix().expect("dense build"), &repeated);
        let verts = obs.vertices();
        let truth = ground_truth_matrix(&obs, &verts);
        for i in 0..verts.len() {
            for j in 0..verts.len() {
                assert_eq!(par.distance(i, j), truth[i][j], "{:?} -> {:?}", verts[i], verts[j]);
            }
        }
    }

    #[test]
    fn implicit_store_is_bitwise_equal_to_dense() {
        let obs = obstacles();
        let dense = VertexApsp::build(&obs);
        // A deliberately tiny budget (two rows) exercises eviction churn.
        let row_bytes = dense.len() * std::mem::size_of::<Dist>();
        let implicit = VertexApsp::build_implicit(&obs, 2 * row_bytes);
        assert!(implicit.matrix().is_none(), "implicit store never materialises the matrix");
        assert_eq!(implicit.len(), dense.len());
        for i in 0..dense.len() {
            for j in 0..dense.len() {
                assert_eq!(implicit.distance(i, j), dense.distance(i, j), "({i},{j})");
            }
        }
        let stats = implicit.store_stats();
        assert!(stats.resident_bytes <= 2 * row_bytes);
        assert!(stats.resident_bytes < stats.dense_bytes);
        // Point-based lookups route through the same store.
        let a = Point::new(4, 3);
        let b = Point::new(6, 2);
        assert_eq!(implicit.distance_between(a, b), dense.distance_between(a, b));
    }

    #[test]
    fn point_based_lookup() {
        let obs = obstacles();
        let apsp = VertexApsp::build(&obs);
        let a = Point::new(4, 3); // UR of obstacle 0
        let b = Point::new(6, 2); // LL of obstacle 1
        assert_eq!(apsp.distance_between(a, b), 3);
        assert_eq!(apsp.distance_between(a, a), 0);
        assert_eq!(apsp.distance_between(a, Point::new(1000, 1000)), INF);
        assert!(apsp.vertex_index(a).is_some());
        assert_eq!(apsp.len(), 16);
    }

    #[test]
    fn boundary_to_vertex_structure() {
        let obs = obstacles();
        let boundary = vec![Point::new(-2, -2), Point::new(15, 10), Point::new(-2, 10)];
        let b2v = BoundaryToVertex::build(&obs, &boundary);
        assert_eq!(b2v.boundary_points().len(), 3);
        assert_eq!(b2v.vertices().len(), 16);
        let engine = SingleSourceEngine::new(&obs);
        for (i, &b) in boundary.iter().enumerate() {
            assert_eq!(b2v.matrix().row(i), &engine.distances_from(b)[..], "row of {b:?}");
            for (j, &v) in b2v.vertices().iter().enumerate() {
                let expect = rsp_geom::hanan::ground_truth_distance(&obs, b, v);
                assert_eq!(b2v.distance(i, j), expect, "{:?} -> {:?}", b, v);
            }
        }
    }
}
