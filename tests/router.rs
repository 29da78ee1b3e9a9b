//! Integration tests for the `Router` session API: agreement with two
//! independent engines (the Hanan-grid ground truth and the per-source
//! Hanan Dijkstra baseline) on seeded workload scenes, batch-vs-per-call
//! equivalence (property-based), the build-once guarantee for shared
//! substructures, and typed errors.

use proptest::prelude::*;
use rectilinear_shortest_paths::core::baseline::dijkstra_sssp_matrix;
use rectilinear_shortest_paths::geom::hanan::ground_truth_distance;
use rectilinear_shortest_paths::workload::{clustered, corridors, query_pairs, uniform_disjoint};
use rectilinear_shortest_paths::{Dist, ObstacleSet, Point, Rect, Router, RspError, StoreKind};
use std::sync::Arc;

/// Router sessions over the same scene, one per configuration: the default,
/// a single-thread session, and a starved two-row implicit store.
fn routers_for_all_configs(obstacles: &ObstacleSet) -> Vec<(&'static str, Router)> {
    let row_bytes = 4 * obstacles.len() * std::mem::size_of::<Dist>();
    let implicit = StoreKind::Implicit { budget_bytes: 2 * row_bytes };
    vec![
        ("default", Router::new(obstacles.clone()).expect("valid scene")),
        ("1 thread", Router::builder(obstacles.clone()).threads(1).build().expect("valid scene")),
        ("implicit", Router::builder(obstacles.clone()).store(implicit).build().expect("valid scene")),
    ]
}

#[test]
fn engines_agree_on_seeded_scenes() {
    let scenes = [uniform_disjoint(7, 4).obstacles, clustered(6, 2, 9).obstacles, corridors(3, 40, 11).obstacles];
    for obstacles in scenes {
        let routers = routers_for_all_configs(&obstacles);
        let verts = obstacles.vertices();
        let arbitrary = query_pairs(&obstacles, 12, false, 31);
        let dijkstra = dijkstra_sssp_matrix(&obstacles);

        // Distances: vertex pairs and arbitrary pairs, identical across
        // configurations and equal to the Hanan-grid ground truth and the
        // Dijkstra baseline.
        for (i, &a) in verts.iter().enumerate().step_by(3) {
            for (j, &b) in verts.iter().enumerate().step_by(5) {
                let expect = ground_truth_distance(&obstacles, a, b);
                assert_eq!(dijkstra.get(i, j), expect, "baseline: {a:?} -> {b:?}");
                for (config, router) in &routers {
                    assert_eq!(router.vertex_distance(a, b), Ok(expect), "{config}: {a:?} -> {b:?}");
                }
            }
        }
        for &(a, b) in &arbitrary {
            let expect = ground_truth_distance(&obstacles, a, b);
            for (config, router) in &routers {
                assert_eq!(router.distance(a, b), Ok(expect), "{config}: {a:?} -> {b:?}");
            }
        }

        // Paths: every configuration reports a valid path certifying the
        // true length.
        let sources = [verts[0], verts[verts.len() / 2]];
        for &s in &sources {
            for &t in verts.iter().step_by(7) {
                let expect = ground_truth_distance(&obstacles, s, t);
                for (config, router) in &routers {
                    let path = router.path(s, t).unwrap();
                    assert!(path.certifies(&obstacles, s, t, expect), "{config}: bad path {s:?} -> {t:?}");
                }
            }
        }
    }
}

#[test]
fn substructures_are_built_at_most_once() {
    let w = uniform_disjoint(6, 8);
    let router = Router::new(w.obstacles.clone()).unwrap();
    let verts = w.obstacles.vertices();

    // Hammer every query kind repeatedly.
    for round in 0..3 {
        let _ = router.distance(Point::new(-1, -1), Point::new(50, 50)).unwrap();
        let _ = router.vertex_distance(verts[0], verts[5]).unwrap();
        let _ = router.path(verts[0], verts[5]).unwrap();
        let _ = router.path_chunks(verts[0], verts[5], 2).unwrap();
        let _ = router.hop_count(verts[0], verts[5]).unwrap();
        let _ = router.distances(&[(verts[0], verts[1]), (Point::new(0, 0), verts[2])]).unwrap();
        let _ = router.paths(&[(verts[0], verts[3])]).unwrap();
        let _ = router.boundary_matrix();
        let counts = router.build_counts();
        assert_eq!(counts.oracle_builds, 1, "round {round}");
        assert_eq!(counts.tree_builds, 1, "round {round}: only verts[0] is a source");
        assert_eq!(counts.boundary_builds, 1, "round {round}");
    }

    // The oracle handle really is shared, not cloned: the router's OnceLock,
    // the tree set and our local handle all point at one allocation.
    let oracle = router.oracle();
    assert!(Arc::strong_count(&oracle) >= 3, "oracle must be shared, not rebuilt");
    assert_eq!(Arc::as_ptr(&oracle), Arc::as_ptr(&router.oracle()));
}

#[test]
fn batch_and_per_call_agree_on_mixed_seeded_batches() {
    for seed in [1u64, 22, 333] {
        let w = uniform_disjoint(8, seed);
        let router = Router::new(w.obstacles.clone()).unwrap();
        // A deliberately mixed batch: arbitrary pairs, vertex pairs, and
        // half-vertex pairs, interleaved.
        let mut pairs = query_pairs(&w.obstacles, 20, false, seed + 1);
        pairs.extend(query_pairs(&w.obstacles, 20, true, seed + 2));
        let verts = w.obstacles.vertices();
        for (i, &(a, _)) in query_pairs(&w.obstacles, 10, false, seed + 3).iter().enumerate() {
            pairs.push((a, verts[(i * 5) % verts.len()]));
        }
        let batch = router.distances(&pairs).unwrap();
        assert_eq!(batch.len(), pairs.len());
        for (k, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(batch[k], router.distance(a, b).unwrap(), "seed {seed}, pair {k}: {a:?} -> {b:?}");
        }
    }
}

#[test]
fn typed_errors_replace_options_and_panics() {
    // Overlap: the error names the offending pair, ids and geometry.
    let overlapping = ObstacleSet::new(vec![Rect::new(0, 0, 5, 5), Rect::new(20, 20, 24, 24), Rect::new(4, 4, 9, 9)]);
    match Router::new(overlapping) {
        Err(RspError::OverlappingObstacles(v)) => {
            assert_eq!((v.first, v.second), (0, 2));
            assert_eq!(v.second_rect, Rect::new(4, 4, 9, 9));
            let msg = v.to_string();
            assert!(msg.contains("obstacles 0 and 2"), "{msg}");
        }
        other => panic!("expected overlap error, got {:?}", other.err()),
    }

    let router = Router::new(ObstacleSet::new(vec![Rect::new(2, 2, 8, 8)])).unwrap();
    // Non-vertex endpoints for vertex-only APIs.
    assert_eq!(router.path(Point::new(3, 0), Point::new(2, 2)), Err(RspError::NotAVertex(Point::new(3, 0))));
    assert_eq!(router.vertex_distance(Point::new(2, 2), Point::new(0, 0)), Err(RspError::NotAVertex(Point::new(0, 0))));
    // Queries from inside an obstacle.
    match router.distance(Point::new(4, 4), Point::new(0, 0)) {
        Err(RspError::PointInsideObstacle { point, obstacle }) => {
            assert_eq!(point, Point::new(4, 4));
            assert_eq!(obstacle, 0);
        }
        other => panic!("expected inside-obstacle error, got {other:?}"),
    }
    // Batches propagate the same typed errors.
    assert!(router.distances(&[(Point::new(0, 0), Point::new(4, 4))]).is_err());
    assert!(router.paths(&[(Point::new(2, 2), Point::new(1, 1))]).is_err());
    // And the error type boxes like any std error.
    let boxed: Box<dyn std::error::Error> = Box::new(RspError::NotAVertex(Point::new(7, 7)));
    assert!(boxed.to_string().contains("not an obstacle vertex"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batch API returns exactly what per-call `distance` returns, for
    /// randomly generated mixed batches of vertex/arbitrary-point pairs.
    #[test]
    fn distances_batch_matches_per_call(
        n in 1usize..8,
        scene_seed in any::<u64>(),
        points in proptest::collection::vec((-20i64..220, -20i64..220), 1..24),
        vertex_picks in proptest::collection::vec((any::<u16>(), any::<bool>()), 1..24),
    ) {
        let obstacles = uniform_disjoint(n, scene_seed).obstacles;
        let verts = obstacles.vertices();
        let router = Router::new(obstacles.clone()).unwrap();

        // Build a mixed batch: free points (skipping obstacle interiors),
        // then pairs with one or both endpoints snapped to vertices.
        let free: Vec<Point> = points
            .iter()
            .map(|&(x, y)| Point::new(x, y))
            .filter(|&p| obstacles.containing_obstacle(p).is_none())
            .collect();
        let mut pairs: Vec<(Point, Point)> = free.windows(2).map(|w| (w[0], w[1])).collect();
        for (i, &(pick, both)) in vertex_picks.iter().enumerate() {
            let v = verts[pick as usize % verts.len()];
            if both {
                pairs.push((v, verts[(pick as usize + i) % verts.len()]));
            } else if let Some(&p) = free.get(i % free.len().max(1)) {
                pairs.push((p, v));
            }
        }
        prop_assume!(!pairs.is_empty());

        let batch = router.distances(&pairs).unwrap();
        prop_assert_eq!(batch.len(), pairs.len());
        for (k, &(a, b)) in pairs.iter().enumerate() {
            prop_assert_eq!(batch[k], router.distance(a, b).unwrap());
        }
        // And the whole session still built its oracle exactly once.
        prop_assert_eq!(router.build_counts().oracle_builds, 1);
    }
}
