//! Distance-store certification: the byte-budgeted implicit backend must be
//! a **bitwise-transparent** stand-in for the dense matrix, and it must
//! actually deliver the memory win that justifies its existence.
//!
//! Two angles:
//!
//! * A property sweep over all three workload families (uniform, clustered,
//!   corridors) and two thread counts comparing `StoreKind::Dense` against a
//!   deliberately starved `StoreKind::Implicit` (two-row budget, so eviction
//!   churn is constant) — distances and paths must agree bit for bit, and a
//!   sample must match the Hanan-grid ground truth.
//! * A memory-scaling test at n = 512 / 1024 / 2048 pinning the acceptance
//!   bar from the O(n²) wall: the implicit store's resident bytes stay
//!   within its budget, and at n = 2048 that budget — and therefore the
//!   residency — is at most 10% of the 512 MiB dense matrix.

use proptest::prelude::*;
use rectilinear_shortest_paths::core::apsp::VertexApsp;
use rectilinear_shortest_paths::core::store::{default_budget_bytes, dense_bytes_for};
use rectilinear_shortest_paths::geom::hanan::ground_truth_distance;
use rectilinear_shortest_paths::workload::{clustered, corridors, query_pairs, uniform_disjoint};
use rectilinear_shortest_paths::{Dist, ObstacleSet, Point, Router, StoreKind};

/// An implicit store starved down to two resident rows, so every batch
/// exercises materialise → evict → re-materialise while it runs.
fn starved(obstacles: &ObstacleSet) -> StoreKind {
    let row_bytes = 4 * obstacles.len() * std::mem::size_of::<Dist>();
    StoreKind::Implicit { budget_bytes: 2 * row_bytes }
}

/// One of the three workload families, selected by index (proptest draws
/// the index so the sweep covers all of them).
fn family(which: usize, n: usize, seed: u64) -> ObstacleSet {
    match which {
        0 => uniform_disjoint(n, seed).obstacles,
        1 => clustered(n, 2, seed).obstacles,
        _ => corridors(n.max(2), 30, seed).obstacles,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every scene family and thread count, the starved implicit store
    /// serves the same bits as the dense matrix — distances on mixed batches
    /// and paths on vertex pairs — and the distances are the true ones.
    #[test]
    fn implicit_store_is_bitwise_equal_to_dense(
        which in 0usize..3,
        n in 2usize..7,
        scene_seed in any::<u64>(),
        batch_seed in any::<u64>(),
    ) {
        let obstacles = family(which, n, scene_seed);
        let mut pairs = query_pairs(&obstacles, 10, false, batch_seed);
        pairs.extend(query_pairs(&obstacles, 10, true, batch_seed + 1));
        let vertex_pairs = query_pairs(&obstacles, 8, true, batch_seed + 2);
        prop_assume!(!pairs.is_empty());
        for threads in [1usize, 2] {
            let serve = |store: StoreKind| {
                let router =
                    Router::builder(obstacles.clone()).threads(threads).store(store).build().expect("valid scene");
                (
                    router.distances(&pairs).expect("distance batch"),
                    router.paths(&vertex_pairs).expect("path batch"),
                )
            };
            let (dense_dist, dense_paths) = serve(StoreKind::Dense);
            let (impl_dist, impl_paths) = serve(starved(&obstacles));
            prop_assert_eq!(&impl_dist, &dense_dist);
            prop_assert_eq!(&impl_paths, &dense_paths);
            for (&(a, b), &d) in pairs.iter().zip(&impl_dist).step_by(4) {
                prop_assert_eq!(d, ground_truth_distance(&obstacles, a, b));
            }
        }
    }

    /// The batch planner is invisible in results and visible in sweeps: a
    /// vertex batch full of duplicates and flipped orientations is
    /// bitwise-equal to dense at every thread count, and the starved store's
    /// miss counter is bounded by the number of distinct canonical rows —
    /// i.e. each providing row is swept at most once per batch even though
    /// the two-row budget cannot hold the batch's working set.
    #[test]
    fn planned_batches_are_bitwise_dense_with_bounded_sweeps(
        which in 0usize..3,
        n in 2usize..7,
        scene_seed in any::<u64>(),
        batch_seed in any::<u64>(),
    ) {
        let obstacles = family(which, n, scene_seed);
        let base = query_pairs(&obstacles, 12, true, batch_seed);
        prop_assume!(!base.is_empty());
        let mut pairs = base.clone();
        pairs.extend(base.iter().map(|&(a, b)| (b, a)));
        pairs.extend_from_slice(&base[..base.len() / 2]);
        let verts = obstacles.vertices();
        let index: std::collections::HashMap<Point, usize> =
            verts.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let distinct_rows = pairs
            .iter()
            .map(|&(a, b)| std::cmp::min(index[&a], index[&b]))
            .collect::<std::collections::HashSet<_>>()
            .len() as u64;
        for threads in [1usize, 2] {
            let build = |store: StoreKind| {
                Router::builder(obstacles.clone()).threads(threads).store(store).build().expect("valid scene")
            };
            let dense = build(StoreKind::Dense);
            let implicit = build(starved(&obstacles));
            let distances = implicit.distances(&pairs).expect("batch");
            prop_assert_eq!(&distances, &dense.distances(&pairs).expect("batch"));
            for (&(a, b), &d) in pairs.iter().zip(&distances).step_by(5) {
                prop_assert_eq!(d, ground_truth_distance(&obstacles, a, b));
            }
            let stats = implicit.memory_stats();
            prop_assert!(
                stats.row_misses <= distinct_rows,
                "{} sweeps for {} distinct canonical rows", stats.row_misses, distinct_rows
            );
            prop_assert_eq!(stats.pinned_bytes, 0);
        }
    }

    /// Batch deduplication is exact: a batch with repeated and flipped
    /// arbitrary-point pairs — the slow ray-shooting path — and repeated
    /// vertex path reports answers every slot bitwise-identically to the
    /// equivalent per-call sequence.
    #[test]
    fn deduped_batches_equal_per_call_answers(
        which in 0usize..3,
        n in 2usize..6,
        scene_seed in any::<u64>(),
        batch_seed in any::<u64>(),
    ) {
        let obstacles = family(which, n, scene_seed);
        let base = query_pairs(&obstacles, 8, false, batch_seed);
        prop_assume!(!base.is_empty());
        let mut pairs = base.clone();
        pairs.extend_from_slice(&base[..base.len().div_ceil(2)]);
        pairs.extend(base.iter().map(|&(a, b)| (b, a)));
        let router = Router::new(obstacles.clone()).expect("valid scene");
        let batch = router.distances(&pairs).expect("batch");
        for (&(a, b), &d) in pairs.iter().zip(&batch) {
            prop_assert_eq!(d, router.distance(a, b).expect("per-call"));
        }
        let vbase = query_pairs(&obstacles, 4, true, batch_seed ^ 0x9e37);
        let mut vpairs = vbase.clone();
        vpairs.extend_from_slice(&vbase);
        let paths = router.paths(&vpairs).expect("paths");
        for (&(s, t), p) in vpairs.iter().zip(&paths) {
            prop_assert_eq!(p, &router.path(s, t).expect("per-call path"));
        }
    }
}

/// `StoreKind::Auto` is the deployment default, so its resolution is part of
/// the public contract: dense below the threshold, byte-budgeted implicit at
/// and above it — observable on a built `Router`.
#[test]
fn auto_store_resolves_by_scene_size_on_the_router() {
    let small = Router::builder(uniform_disjoint(8, 3).obstacles).build().expect("valid scene");
    assert_eq!(small.store_kind(), StoreKind::Dense);
    let large = Router::builder(uniform_disjoint(512, 3).obstacles).build().expect("valid scene");
    assert_eq!(large.store_kind(), StoreKind::Implicit { budget_bytes: default_budget_bytes(512) });
}

/// The memory-scaling acceptance bar.  At n = 512 / 1024 / 2048 the implicit
/// store answers queries while holding only the touched rows; residency never
/// exceeds the default budget, and at n = 2048 the budget itself is at most
/// 10% of the dense matrix — so a serving session fits where the dense build
/// (512 MiB) cannot.  Uses `VertexApsp::build_implicit` directly: only the
/// sweep engine is constructed, no dense oracle, so this stays cheap in
/// debug builds.
#[test]
fn implicit_residency_stays_under_ten_percent_of_dense_at_scale() {
    for n in [512usize, 1024, 2048] {
        let w = uniform_disjoint(n, 42);
        let budget = default_budget_bytes(n);
        let apsp = VertexApsp::build_implicit(&w.obstacles, budget);
        let stats = apsp.store_stats();
        assert_eq!(stats.budget_bytes, budget);
        assert_eq!(stats.dense_bytes, dense_bytes_for(n));
        assert_eq!(stats.resident_bytes, 0, "nothing materialises before the first query");

        // 24 scattered vertex pairs; each answer comes from one on-demand
        // SMAWK/sweep row.  Cross-check the rows against each other through
        // L1 symmetry: d(u, v) computed from u's row must equal d(v, u)
        // computed from v's row.
        let verts = apsp.vertices();
        let m = verts.len();
        for k in 0..24 {
            let (i, j) = ((k * 131) % m, (k * 197 + 13) % m);
            let d = apsp.distance_between(verts[i], verts[j]);
            assert!(d >= verts[i].l1(verts[j]), "n={n}: distance below the L1 lower bound");
            assert_eq!(d, apsp.distance_between(verts[j], verts[i]), "n={n}: rows disagree on symmetry");
        }

        let stats = apsp.store_stats();
        assert!(stats.resident_bytes > 0, "n={n}: queries materialised nothing");
        assert!(
            stats.resident_bytes <= stats.budget_bytes,
            "n={n}: resident {} exceeds budget {}",
            stats.resident_bytes,
            stats.budget_bytes
        );
        if n == 2048 {
            assert_eq!(stats.dense_bytes, 512 << 20, "the wall this PR breaks: 512 MiB dense at n = 2048");
            assert!(
                stats.resident_bytes * 10 <= stats.dense_bytes,
                "resident {} is more than 10% of dense {}",
                stats.resident_bytes,
                stats.dense_bytes
            );
            assert!(stats.budget_bytes * 10 <= stats.dense_bytes, "even a full budget stays within the 10% bar");
        }
    }
}

/// End-to-end serving smoke at n = 2048: a full `Router` session on the
/// implicit store answers 256 mixed queries (vertex pairs, arbitrary points,
/// and paths) while the row cache stays within its 32 MiB budget — 10% of
/// the dense matrix this scene would otherwise need.  `#[ignore]`d because a
/// session this size belongs in release builds; CI runs it explicitly as the
/// large-n smoke step.
#[test]
#[ignore = "large scene; run in release (CI large-n smoke step)"]
fn large_scene_serving_smoke() {
    let n = 2048usize;
    let w = uniform_disjoint(n, 7);
    let router = Router::builder(w.obstacles.clone()).build().expect("valid scene");
    assert_eq!(router.store_kind(), StoreKind::Implicit { budget_bytes: default_budget_bytes(n) });

    let mut pairs: Vec<(Point, Point)> = query_pairs(&w.obstacles, 192, true, 1);
    pairs.extend(query_pairs(&w.obstacles, 64, false, 2));
    let distances = router.distances(&pairs).expect("mixed batch");
    for (&(a, b), &d) in pairs.iter().zip(&distances) {
        assert!(d >= a.l1(b), "distance below the L1 lower bound");
    }
    for &(s, t) in &query_pairs(&w.obstacles, 8, true, 3) {
        let path = router.path(s, t).expect("vertex-pair path");
        assert!(path.certifies(&w.obstacles, s, t, router.vertex_distance(s, t).unwrap()));
    }

    let stats = router.memory_stats();
    assert!(stats.resident_bytes > 0);
    assert!(stats.resident_bytes <= stats.budget_bytes);
    assert!(stats.resident_bytes * 10 <= stats.dense_bytes, "serving must stay within 10% of dense");
}

/// The cold-batch acceptance smoke: a 256-query vertex batch at n = 1024
/// against a freshly built implicit session starved to a two-row budget —
/// the exact shape the PR 8 `implicit_churn` arm measured at 902 ms per
/// batch (E13).  The planner must collapse it to one sweep per distinct
/// canonical row (8 hot sources here), which caps wall clock far below the
/// per-call baseline; 450 ms — half the old cost — is a loose bar that
/// still fails if planning ever regresses to per-query re-sweeps.
/// `#[ignore]`d because the timing bar only means something in release; CI
/// runs it in the release `--ignored` step.
#[test]
#[ignore = "timing bar; run in release (CI large-n smoke step)"]
fn cold_batch_plans_one_sweep_per_row_within_time_budget() {
    let n = 1024usize;
    let w = uniform_disjoint(n, 7);
    let row_bytes = 4 * n * std::mem::size_of::<Dist>();
    let router = Router::builder(w.obstacles.clone())
        .store(StoreKind::Implicit { budget_bytes: 2 * row_bytes })
        .build()
        .expect("valid scene");

    // 256 vertex queries fanned out from 8 hot sources (the lowest vertex
    // indices, so each pair's canonical row is its source), alternating
    // orientation so symmetry canonicalisation is load-bearing.
    let verts = w.obstacles.vertices();
    let m = verts.len();
    let mut pairs: Vec<(Point, Point)> = Vec::with_capacity(256);
    for k in 0..256usize {
        let s = verts[k % 8];
        let t = verts[8 + (k * 131 + 17) % (m - 8)];
        pairs.push(if k % 2 == 0 { (s, t) } else { (t, s) });
    }

    let start = std::time::Instant::now();
    let got = router.distances(&pairs).expect("cold batch");
    let elapsed = start.elapsed();

    // Counter snapshot first, so the consistency probes below don't blur it.
    let stats = router.memory_stats();
    assert_eq!(stats.row_misses as usize, 8, "one sweep per hot source, not per query");
    assert_eq!(stats.pinned_bytes, 0, "batch pins released");
    assert!(stats.resident_bytes <= stats.budget_bytes, "starved budget holds after the batch");
    assert!(elapsed < std::time::Duration::from_millis(450), "cold batch took {elapsed:?} (bar: 450 ms)");

    // Answers are internally consistent: L1 lower bound everywhere, and a
    // sample of flipped orientations agrees bitwise with per-call answers.
    for (&(a, b), &d) in pairs.iter().zip(&got) {
        assert!(d >= a.l1(b), "distance below the L1 lower bound");
    }
    for (&(a, b), &d) in pairs.iter().zip(&got).step_by(17) {
        assert_eq!(d, router.distance(b, a).unwrap(), "symmetry against the per-call path");
    }
}
