//! Baselines and ground truth.
//!
//! * [`ground_truth_distance`] / [`ground_truth_matrix`] — Hanan-grid
//!   Dijkstra, the exact oracle every engine in the workspace is validated
//!   against.  This plays the role of an external reference implementation;
//!   it is not part of the paper's algorithm.
//! * [`repeated_sssp_matrix`] — the "apply the single-source algorithm of
//!   \[11\] `O(n)` times" baseline that Section 9 compares its `O(n^2)`
//!   construction against (`O(n^2 log n)` total work).  Experiment E8
//!   measures this against the Section-9 sweep and the parallel builder.
//! * [`dijkstra_sssp_matrix`] — an intentionally naive all-pairs baseline
//!   (full Hanan-grid Dijkstra per source) used to show the gap to the
//!   paper's approach on small inputs.

use rayon::prelude::*;
use rsp_geom::hanan::HananGrid;
use rsp_geom::{Dist, ObstacleSet};
use rsp_monge::MinPlusMatrix;

pub use rsp_geom::hanan::{ground_truth_distance, ground_truth_matrix};

/// All-pairs vertex matrix by repeating the (fast, sparse) single-source
/// sweep of Section 9 once per vertex, sequentially.  `O(n^2 log n)` work.
pub fn repeated_sssp_matrix(obstacles: &ObstacleSet) -> MinPlusMatrix {
    let engine = crate::seq::SingleSourceEngine::new(obstacles);
    let rows: Vec<Vec<Dist>> = engine.vertices().to_vec().iter().map(|&v| engine.distances_from(v)).collect();
    MinPlusMatrix::from_rows(rows)
}

/// All-pairs vertex matrix by running a full Hanan-grid Dijkstra per source
/// (parallel over sources).  Quadratic-size graph per source, so
/// `O(n^3 log n)` work in total — the "don't do this" baseline.
pub fn dijkstra_sssp_matrix(obstacles: &ObstacleSet) -> MinPlusMatrix {
    let vertices = obstacles.vertices();
    let grid = HananGrid::build(obstacles, &vertices);
    let rows: Vec<Vec<Dist>> = vertices.par_iter().map(|&v| grid.distances_to(v, &vertices)).collect();
    MinPlusMatrix::from_rows(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::Rect;

    fn obstacles() -> ObstacleSet {
        ObstacleSet::new(vec![Rect::new(0, 0, 3, 3), Rect::new(5, 1, 8, 6), Rect::new(2, 8, 9, 10)])
    }

    #[test]
    fn baselines_agree_with_each_other() {
        let obs = obstacles();
        let fast = repeated_sssp_matrix(&obs);
        let slow = dijkstra_sssp_matrix(&obs);
        assert_eq!(fast, slow);
    }
}
