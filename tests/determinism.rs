//! Determinism certification for the work-stealing scheduler: a Router
//! session must return **bitwise-identical** distances and paths no matter
//! how many worker threads serve it and which distance store backs it.
//! Every store has one construction path (the Section 9 sweep, fanned out or
//! run lazily), so any scheduling-order leak (a non-associative reduction,
//! an iteration-order-dependent tie-break, a racy write) shows up here as a
//! cross-thread-count diff.  A sample of every answer set is also checked
//! against the Hanan-grid ground truth, so agreement cannot hide a shared
//! error.
//!
//! Seeded scenes cover the three workload families (uniform, clustered,
//! corridors); a property-based sweep then fuzzes scene shape and mixed
//! vertex/arbitrary batches.

use proptest::prelude::*;
use rectilinear_shortest_paths::geom::hanan::ground_truth_distance;
use rectilinear_shortest_paths::workload::{clustered, corridors, query_pairs, uniform_disjoint};
use rectilinear_shortest_paths::{Dist, ObstacleSet, Point, RectiPath, Router, StoreKind};

/// Distance stores under test: the dense matrix and an implicit store with a
/// deliberately tiny budget (two rows), so eviction churn and lazy
/// materialisation order are both exercised.
fn store_kinds(obstacles: &ObstacleSet) -> [StoreKind; 2] {
    let row_bytes = 4 * obstacles.len() * std::mem::size_of::<Dist>();
    [StoreKind::Dense, StoreKind::Implicit { budget_bytes: 2 * row_bytes }]
}

/// Thread counts under test: sequential, minimal parallelism, the full
/// machine (deduplicated on small machines), and `None` for an unpinned
/// session on the global pool.
fn thread_counts() -> Vec<Option<usize>> {
    let max = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).max(2);
    let mut counts = vec![Some(1), Some(2), Some(max)];
    counts.dedup();
    counts.push(None);
    counts
}

/// A deliberately mixed batch: arbitrary free pairs, vertex pairs, and
/// half-snapped pairs, interleaved.
fn mixed_batch(obstacles: &ObstacleSet, seed: u64) -> Vec<(Point, Point)> {
    let mut pairs = query_pairs(obstacles, 12, false, seed);
    pairs.extend(query_pairs(obstacles, 12, true, seed + 1));
    let verts = obstacles.vertices();
    if !verts.is_empty() {
        for (i, &(a, _)) in query_pairs(obstacles, 6, false, seed + 2).iter().enumerate() {
            pairs.push((a, verts[(i * 7) % verts.len()]));
        }
    }
    pairs
}

/// A router over `obstacles` with the given store, pinned to `threads`
/// workers (or on the global pool for `None`).
fn router(obstacles: &ObstacleSet, threads: Option<usize>, store: StoreKind) -> Router {
    let builder = Router::builder(obstacles.clone()).store(store);
    match threads {
        Some(p) => builder.threads(p),
        None => builder,
    }
    .build()
    .expect("valid scene")
}

/// Distances and paths served at one thread count with one distance store.
fn serve(
    obstacles: &ObstacleSet,
    threads: Option<usize>,
    store: StoreKind,
    pairs: &[(Point, Point)],
    vertex_pairs: &[(Point, Point)],
) -> (Vec<Dist>, Vec<RectiPath>) {
    let router = router(obstacles, threads, store);
    let distances = router.distances(pairs).expect("distance batch");
    let paths = router.paths(vertex_pairs).expect("path batch");
    (distances, paths)
}

/// Check every third answer against the Hanan-grid ground truth: distances
/// directly, paths by certifying the true length.
fn assert_ground_truth(
    obstacles: &ObstacleSet,
    pairs: &[(Point, Point)],
    vertex_pairs: &[(Point, Point)],
    (distances, paths): &(Vec<Dist>, Vec<RectiPath>),
    label: &str,
) {
    for (&(a, b), &d) in pairs.iter().zip(distances).step_by(3) {
        assert_eq!(d, ground_truth_distance(obstacles, a, b), "{label}: {a:?} -> {b:?}");
    }
    for (&(s, t), path) in vertex_pairs.iter().zip(paths).step_by(3) {
        let expect = ground_truth_distance(obstacles, s, t);
        assert!(path.certifies(obstacles, s, t, expect), "{label}: bad path {s:?} -> {t:?}");
    }
}

#[test]
fn every_engine_is_bitwise_deterministic_across_thread_counts() {
    let scenes = [
        ("uniform", uniform_disjoint(7, 4).obstacles),
        ("clustered", clustered(6, 2, 9).obstacles),
        ("corridors", corridors(3, 40, 11).obstacles),
    ];
    for (name, obstacles) in scenes {
        let pairs = mixed_batch(&obstacles, 77);
        let vertex_pairs = query_pairs(&obstacles, 10, true, 99);
        // One reference shared across the thread-count AND store matrix:
        // thread scheduling must not move an answer, and neither may the
        // implicit store's lazy materialisation / eviction order.
        let mut reference: Option<(Vec<Dist>, Vec<RectiPath>)> = None;
        for threads in thread_counts() {
            for store in store_kinds(&obstacles) {
                let result = serve(&obstacles, threads, store, &pairs, &vertex_pairs);
                match &reference {
                    None => reference = Some(result),
                    Some((dist0, paths0)) => {
                        assert_eq!(&result.0, dist0, "{name}/{store:?}: distances diverge at {threads:?} threads");
                        assert_eq!(&result.1, paths0, "{name}/{store:?}: paths diverge at {threads:?} threads");
                    }
                }
            }
        }
        let reference = reference.expect("the matrix is non-empty");
        assert_ground_truth(&obstacles, &pairs, &vertex_pairs, &reference, name);
    }
}

/// A session built with no configuration beyond the scene (default store,
/// pinned or unpinned thread count) must serve the same distances at every
/// thread count, every path must certify the vertex distance the session
/// itself reports, and those answers must match the Hanan-grid ground truth.
#[test]
fn auto_engine_distances_agree_across_thread_counts() {
    let obstacles = uniform_disjoint(8, 21).obstacles;
    let pairs = mixed_batch(&obstacles, 13);
    let vertex_pairs = query_pairs(&obstacles, 8, true, 5);
    let mut reference: Option<(Vec<Dist>, Vec<RectiPath>)> = None;
    for threads in thread_counts() {
        let builder = Router::builder(obstacles.clone());
        let router = match threads {
            Some(p) => builder.threads(p),
            None => builder,
        }
        .build()
        .expect("valid scene");
        let distances = router.distances(&pairs).expect("distance batch");
        let mut paths = Vec::with_capacity(vertex_pairs.len());
        for &(s, t) in &vertex_pairs {
            let expect = router.vertex_distance(s, t).unwrap();
            let path = router.path(s, t).unwrap();
            assert!(path.certifies(&obstacles, s, t, expect), "{threads:?} threads: path fails to certify");
            paths.push(path);
        }
        match &reference {
            None => reference = Some((distances, paths)),
            Some((dist0, paths0)) => {
                assert_eq!(&distances, dist0, "default session: distances diverge at {threads:?} threads");
                assert_eq!(&paths, paths0, "default session: paths diverge at {threads:?} threads");
            }
        }
    }
    let reference = reference.expect("the matrix is non-empty");
    assert_ground_truth(&obstacles, &pairs, &vertex_pairs, &reference, "default session");
}

/// Delta-built sessions are part of the determinism contract too: after a
/// scene edit ([`Router::apply_delta`]), every thread count × store must
/// serve the *edited* scene bitwise-identically — the carried substructures
/// (distance rows, escape staircases, slab columns) must not leak any
/// base-epoch or scheduling-order artifact into an answer.
#[test]
fn edited_sessions_are_bitwise_deterministic_across_the_matrix() {
    use rectilinear_shortest_paths::workload::edit_stream;
    let base = uniform_disjoint(7, 31).obstacles;
    let delta = &edit_stream(&base, 1, 17)[0];
    let edited_scene = base.apply_delta(delta).expect("stream delta applies").obstacles;
    let pairs = mixed_batch(&edited_scene, 55);
    let vertex_pairs = query_pairs(&edited_scene, 10, true, 66);
    let mut reference: Option<(Vec<Dist>, Vec<RectiPath>)> = None;
    for threads in thread_counts() {
        for store in store_kinds(&base) {
            let parent = router(&base, threads, store);
            // Warm the parent so the delta build has something to carry.
            let _ = parent.distances(&query_pairs(&base, 4, true, 7)).expect("warm batch");
            let session = parent.apply_delta(delta).expect("edit applies");
            let result =
                (session.distances(&pairs).expect("distance batch"), session.paths(&vertex_pairs).expect("path batch"));
            match &reference {
                None => reference = Some(result),
                Some((dist0, paths0)) => {
                    assert_eq!(&result.0, dist0, "edited {store:?}: distances diverge at {threads:?} threads");
                    assert_eq!(&result.1, paths0, "edited {store:?}: paths diverge at {threads:?} threads");
                }
            }
        }
    }
    let reference = reference.expect("the matrix is non-empty");
    assert_ground_truth(&edited_scene, &pairs, &vertex_pairs, &reference, "edited");
}

/// Batches past the router's inline bound (64 distinct point reductions or
/// path extractions) fan out over the pool; smaller ones run on the
/// caller's thread.  Both branches must give the same bits: a fanned-out
/// batch at every thread count equals the single-thread session, the same
/// pairs served as 16-pair (inline) batches, and the sampled ground truth.
#[test]
fn batches_above_the_inline_bound_match_inline_batches() {
    let obstacles = uniform_disjoint(9, 47).obstacles;
    let mut pairs = query_pairs(&obstacles, 100, false, 3);
    pairs.extend(query_pairs(&obstacles, 40, true, 4));
    let vertex_pairs = query_pairs(&obstacles, 120, true, 5);
    let distinct = |p: &[(Point, Point)]| p.iter().collect::<std::collections::HashSet<_>>().len();
    assert!(distinct(&pairs[..100]) > 64, "the point batch must exceed the inline bound");
    assert!(distinct(&vertex_pairs) > 64, "the path batch must exceed the inline bound");
    for store in store_kinds(&obstacles) {
        let reference = serve(&obstacles, Some(1), store, &pairs, &vertex_pairs);
        let label = format!("{store:?}");
        assert_ground_truth(&obstacles, &pairs, &vertex_pairs, &reference, &label);
        for threads in thread_counts() {
            let router = router(&obstacles, threads, store);
            let distances = router.distances(&pairs).expect("distance batch");
            let paths = router.paths(&vertex_pairs).expect("path batch");
            assert_eq!(distances, reference.0, "{label}: distances diverge at {threads:?} threads");
            assert_eq!(paths, reference.1, "{label}: paths diverge at {threads:?} threads");
            let inline_distances: Vec<Dist> =
                pairs.chunks(16).flat_map(|chunk| router.distances(chunk).expect("small batch")).collect();
            let inline_paths: Vec<RectiPath> =
                vertex_pairs.chunks(16).flat_map(|chunk| router.paths(chunk).expect("small batch")).collect();
            assert_eq!(inline_distances, distances, "{label}: inline distances diverge at {threads:?} threads");
            assert_eq!(inline_paths, paths, "{label}: inline paths diverge at {threads:?} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fuzzed scenes and batches: every other thread count and store must
    /// reproduce the single-thread dense session bit for bit (distances and
    /// vertex-pair paths), and that session must match the ground truth.
    #[test]
    fn engines_reproduce_single_thread_results_on_random_scenes(
        n in 2usize..7,
        scene_seed in any::<u64>(),
        batch_seed in any::<u64>(),
    ) {
        let obstacles = uniform_disjoint(n, scene_seed).obstacles;
        let pairs = mixed_batch(&obstacles, batch_seed);
        let vertex_pairs = query_pairs(&obstacles, 6, true, batch_seed + 7);
        prop_assume!(!pairs.is_empty());
        let baseline = serve(&obstacles, Some(1), StoreKind::Dense, &pairs, &vertex_pairs);
        for (&(a, b), &d) in pairs.iter().zip(&baseline.0).step_by(5) {
            prop_assert_eq!(d, ground_truth_distance(&obstacles, a, b));
        }
        for threads in thread_counts().into_iter().skip(1) {
            for store in store_kinds(&obstacles) {
                let parallel = serve(&obstacles, threads, store, &pairs, &vertex_pairs);
                prop_assert_eq!(&parallel.0, &baseline.0);
                prop_assert_eq!(&parallel.1, &baseline.1);
            }
        }
    }
}
