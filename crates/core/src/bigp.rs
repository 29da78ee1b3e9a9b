//! Section 7: the case `|P| = N >> n`.
//!
//! When the container polygon has many more vertices than there are
//! obstacles, materialising the `N x N` boundary matrix would cost `O(N^2)`
//! work and memory.  The paper instead partitions `Bound(P)` into at most
//! eight chunks by the horizontal/vertical lines through the extreme edges of
//! `Env(R)`; every chunk gets an `O(n)`-point set `K` on its defining line
//! such that any nontrivial shortest path from a chunk point can be deformed
//! to pass through a point of `K`.  Storing only the `K`-to-vertex distances
//! gives an implicit representation of all `N^2` path lengths with
//! `O(N + n^2 …)` work.
//!
//! This implementation targets the benchmark configuration where `P` is a
//! (finely subdivided) rectangle: the `K` sets are the projections of the
//! obstacle coordinates onto the four sides of the obstacle bounding box, and
//! a query from a container boundary point scans the `O(n)` candidates of its
//! side (the paper further reduces the scan to `O(log n)` with a
//! monotonicity/Monge argument; the construction cost — which is what the E7
//! experiment measures against the explicit `O(N^2)` matrix — is identical).

use crate::query::PathLengthOracle;
use crate::store::StoreKind;
use rsp_geom::{Dist, ObstacleSet, Point, Rect, INF};
use std::sync::Arc;

/// The implicit boundary structure of Section 7.
pub struct BigPolygonStructure {
    /// Candidate crossing points on the four sides of the obstacle bounding
    /// box (the union of the paper's per-chunk `K` sets).
    k_points: Vec<Point>,
    /// Length oracle over the obstacles (vertex matrix + ray shooting).
    oracle: PathLengthOracle,
    /// Obstacle bounding box (the four defining lines).
    env: Rect,
    /// Number of container boundary vertices represented (the paper's `N`).
    container_vertices: usize,
}

impl BigPolygonStructure {
    /// Build the structure for a container rectangle subdivided into
    /// `container_vertices` boundary vertices.  Work is `O(N)` for the chunk
    /// assignment plus the oracle construction; nothing quadratic in `N` is
    /// ever allocated.
    pub fn build(obstacles: &ObstacleSet, container: Rect, container_vertices: usize) -> Self {
        Self::build_with_store(obstacles, container, container_vertices, StoreKind::Dense)
    }

    /// [`BigPolygonStructure::build`] with an explicit distance-store choice
    /// for the inner oracle.  Section 7 already keeps the *boundary* side
    /// implicit; [`StoreKind::Implicit`] extends that to the vertex matrix,
    /// so nothing quadratic in `n` is materialised either.
    pub fn build_with_store(
        obstacles: &ObstacleSet,
        container: Rect,
        container_vertices: usize,
        store: StoreKind,
    ) -> Self {
        let oracle = PathLengthOracle::build_with(Arc::new(obstacles.clone()), store, None).0;
        let env = obstacles.bbox().unwrap_or(container);
        let mut k_points = Vec::new();
        for x in obstacles.xs() {
            k_points.push(Point::new(x, env.ymax));
            k_points.push(Point::new(x, env.ymin));
        }
        for y in obstacles.ys() {
            k_points.push(Point::new(env.xmin, y));
            k_points.push(Point::new(env.xmax, y));
        }
        // the four corners of the envelope close the corner chunks
        k_points.extend_from_slice(&env.corners());
        k_points.sort();
        k_points.dedup();
        BigPolygonStructure { k_points, oracle, env, container_vertices }
    }

    /// The candidate set size (`O(n)`).
    pub fn k_size(&self) -> usize {
        self.k_points.len()
    }

    /// The number of container boundary vertices represented.
    pub fn container_vertices(&self) -> usize {
        self.container_vertices
    }

    /// Memory footprint of the implicit representation, in matrix entries
    /// (for the E7 comparison against the `N^2` explicit matrix).
    pub fn implicit_entries(&self) -> usize {
        self.k_points.len() * self.oracle.apsp().len() + self.container_vertices
    }

    /// Length of a shortest path from a point on the container boundary
    /// (outside the obstacle bounding box) to an arbitrary point `t`.
    pub fn boundary_distance(&self, p: Point, t: Point) -> Dist {
        // Trivial case: a clear one-bend connection.
        let mut best = match self.oracle.l_connection(p, t) {
            Some(_) => p.l1(t),
            None => INF,
        };
        // Nontrivial case: through a candidate crossing point of the
        // obstacle bounding box.  From `p` (outside the box) to a candidate
        // on the box boundary the straight L1 distance is achievable because
        // the region outside the box is obstacle-free.
        for &k in &self.k_points {
            let tail = self.oracle.distance(k, t);
            if tail < INF {
                best = best.min(p.l1(k) + tail);
            }
        }
        best
    }

    /// The obstacle bounding box whose sides carry the `K` points.
    pub fn envelope(&self) -> Rect {
        self.env
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::hanan::ground_truth_distance;
    use rsp_workload::uniform_disjoint;

    #[test]
    fn boundary_queries_match_ground_truth() {
        let w = uniform_disjoint(8, 21);
        let bbox = w.obstacles.bbox().unwrap().expand(20);
        let big = BigPolygonStructure::build(&w.obstacles, bbox, 1000);
        // sample points on the container boundary
        let samples = [
            Point::new(bbox.xmin, bbox.ymin + 7),
            Point::new(bbox.xmax, bbox.ymin + 31),
            Point::new(bbox.xmin + 13, bbox.ymax),
            Point::new(bbox.xmax - 5, bbox.ymin),
            bbox.ll(),
            bbox.ur(),
        ];
        let targets: Vec<Point> = w.obstacles.vertices().into_iter().step_by(3).collect();
        for &p in &samples {
            for &t in &targets {
                let expect = ground_truth_distance(&w.obstacles, p, t);
                assert_eq!(big.boundary_distance(p, t), expect, "{:?} -> {:?}", p, t);
            }
        }
    }

    #[test]
    fn implicit_store_answers_boundary_queries_identically() {
        let w = uniform_disjoint(7, 13);
        let bbox = w.obstacles.bbox().unwrap().expand(15);
        let dense = BigPolygonStructure::build(&w.obstacles, bbox, 500);
        let implicit = BigPolygonStructure::build_with_store(
            &w.obstacles,
            bbox,
            500,
            StoreKind::Implicit { budget_bytes: 1 << 12 },
        );
        let samples = [bbox.ll(), bbox.ur(), Point::new(bbox.xmin, bbox.ymin + 9)];
        let targets: Vec<Point> = w.obstacles.vertices().into_iter().step_by(2).collect();
        for &p in &samples {
            for &t in &targets {
                assert_eq!(implicit.boundary_distance(p, t), dense.boundary_distance(p, t), "{p:?} -> {t:?}");
            }
        }
        assert_eq!(implicit.implicit_entries(), dense.implicit_entries());
    }

    #[test]
    fn implicit_representation_is_small() {
        let w = uniform_disjoint(16, 3);
        let bbox = w.obstacles.bbox().unwrap().expand(50);
        let n_container = 100_000usize;
        let big = BigPolygonStructure::build(&w.obstacles, bbox, n_container);
        assert!(big.k_size() <= 4 * 4 * w.n() + 8);
        // the implicit representation is linear in N, far below N^2
        assert!(big.implicit_entries() < n_container * 2);
        assert!(big.implicit_entries() < n_container * n_container / 1000);
        assert_eq!(big.container_vertices(), n_container);
    }
}
