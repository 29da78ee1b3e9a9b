//! E15 — incremental scene editing: epoch-versioned delta rebuilds vs
//! rebuilding from scratch.
//!
//! The edit→first-query path is the one interactive scene editing lives on:
//! an obstacle changes, and the session must answer its next query batch.
//! Before PR 10 the only option was a from-scratch `Router` build — skeleton
//! indexes rebuilt, escape staircases retraced, every needed distance row
//! re-swept — even when the edit was one small rectangle among a thousand.
//! `Router::apply_delta` derives the next epoch from the warm session
//! instead, carrying every substructure the edit provably cannot affect.
//!
//! The scene is a dense n-obstacle cluster plus two small fixture blocks far
//! to its east (the farther one pins the bounding box).  The edit removes
//! the nearer fixture: a single-obstacle change whose keep-test distance
//! bound (≥ 8000) dwarfs every in-cluster distance, so the delta build
//! carries the resident rows, every escape staircase (bbox unchanged) and
//! all but a handful of slab columns of the epoch's one `ObstacleIndex`
//! (the oracle and the row sweeps share it).  Having nothing to sweep, it
//! never builds the row engine's four `O(n)` case views at all.
//!
//! * `delta_edit` — the warm session absorbs the removal via `apply_delta`,
//!   then re-estimates the same 64 vertex nets it served before the edit.
//! * `full_rebuild` — the edited scene built from scratch, then the same
//!   64-net batch: the pre-PR 10 baseline and the arm the ≥10x acceptance
//!   bar is measured against at n = 1024.
//!
//! The reuse counters printed per n certify the delta arm is carrying
//! substructures, not quietly rebuilding them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsp_core::router::Router;
use rsp_core::store::StoreKind;
use rsp_geom::{Dist, ObstacleSet, Rect, SceneDelta};
use rsp_workload::{edit_stream, query_pairs, uniform_disjoint};

fn router(obstacles: &ObstacleSet, n: usize) -> Router {
    let row_bytes = 4 * n * std::mem::size_of::<Dist>();
    Router::builder(obstacles.clone())
        .store(StoreKind::Implicit { budget_bytes: 192 * row_bytes })
        .build()
        .expect("workload scenes are valid")
}

/// An n-obstacle scene: a dense (n-2)-block cluster plus two far fixture
/// blocks east of it.  The removable fixture sits at the bbox y-floor; the
/// bbox-pinning one is farther out and offset in y, so removing the first
/// leaves the bounding box (and with it every escape staircase) unchanged.
fn cluster_with_fixtures(n: usize) -> (ObstacleSet, SceneDelta, Vec<(rsp_geom::Point, rsp_geom::Point)>) {
    let cluster = uniform_disjoint(n - 2, 5).obstacles;
    let bbox = cluster.bbox().expect("non-empty scene");
    let removable = Rect::new(bbox.xmax + 4000, bbox.ymin, bbox.xmax + 4006, bbox.ymin + 6);
    let pin = Rect::new(bbox.xmax + 4100, bbox.ymin + 200, bbox.xmax + 4106, bbox.ymin + 206);
    let mut rects = cluster.rects().to_vec();
    rects.push(removable);
    rects.push(pin);
    // The nets the session keeps serving: vertex pairs of the cluster core,
    // present at unchanged coordinates in both epochs.  Nets hugging the
    // bbox y-floor are skipped — the removable fixture sits on that floor,
    // so their rows land in the keep-test's (correctly) conservative band.
    let batch: Vec<_> = query_pairs(&cluster, 256, true, 3)
        .into_iter()
        .filter(|&(a, b)| a.y >= bbox.ymin + 48 && b.y >= bbox.ymin + 48)
        .take(64)
        .collect();
    (ObstacleSet::new(rects), SceneDelta::removing(vec![n - 2]), batch)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_incremental_edit");
    group.sample_size(10); // the harness honours CRITERION_BUDGET_MS per arm
    for &n in &[256usize, 1024] {
        let (obstacles, delta, batch) = cluster_with_fixtures(n);
        let edited = obstacles.apply_delta(&delta).expect("fixture removal is valid").obstacles;

        // The warm base session every delta iteration derives from.
        let parent = router(&obstacles, n);
        let _ = parent.distances(&batch).unwrap();

        group.bench_with_input(BenchmarkId::new("delta_edit", n), &n, |b, _| {
            b.iter(|| {
                let child = parent.apply_delta(&delta).unwrap();
                child.distances(&batch).unwrap().iter().sum::<Dist>()
            })
        });
        let child = parent.apply_delta(&delta).unwrap();
        let _ = child.distances(&batch).unwrap();
        let counts = child.build_counts();
        eprintln!(
            "e15 n={n}: delta epoch {} reused {} rows / {} chains / {} slab cols \
             (rebuilt {} / {} / {})",
            child.epoch(),
            counts.rows_reused,
            counts.chains_reused,
            counts.slab_columns_reused,
            counts.rows_rebuilt,
            counts.chains_rebuilt,
            counts.slab_columns_rebuilt,
        );

        group.bench_with_input(BenchmarkId::new("full_rebuild", n), &n, |b, _| {
            b.iter(|| {
                let fresh = router(&edited, n);
                fresh.distances(&batch).unwrap().iter().sum::<Dist>()
            })
        });
    }

    // ECO churn: a generic seeded 4-edit stream (insert/remove/move inside
    // the scene, from `rsp_workload::edit_stream`) with 16 nets re-estimated
    // per revision.  In-scene edits land inside many pairs' spanning
    // rectangles, so the keep-test conservatively drops most rows — this
    // pair charts the *unfavourable* edit shape, where the honest answer is
    // that epoch chaining costs about the same as the naive
    // rebuild-per-edit loop (the keep-test and carry bookkeeping are cheap
    // even when they salvage little); the big wins above need edits outside
    // the hot region's spans.
    let n = 256usize;
    let base = uniform_disjoint(n, 7).obstacles;
    let stream = edit_stream(&base, 4, 11);
    let mut scenes: Vec<ObstacleSet> = Vec::with_capacity(stream.len());
    let mut scene = base.clone();
    for delta in &stream {
        scene = scene.apply_delta(delta).expect("stream deltas stay valid").obstacles;
        scenes.push(scene.clone());
    }
    let nets: Vec<_> = (0..stream.len()).map(|i| query_pairs(&scenes[i], 16, true, 40 + i as u64)).collect();
    let parent = router(&base, n);
    let _ = parent.distances(&query_pairs(&base, 16, true, 4)).unwrap();
    group.bench_with_input(BenchmarkId::new("churn_4edit_delta", n), &n, |b, _| {
        b.iter(|| {
            let mut session = parent.apply_delta(&stream[0]).unwrap();
            let mut total = session.distances(&nets[0]).unwrap().iter().sum::<Dist>();
            for i in 1..stream.len() {
                session = session.apply_delta(&stream[i]).unwrap();
                total += session.distances(&nets[i]).unwrap().iter().sum::<Dist>();
            }
            total
        })
    });
    group.bench_with_input(BenchmarkId::new("churn_4edit_rebuild", n), &n, |b, _| {
        b.iter(|| {
            let mut total = 0;
            for i in 0..stream.len() {
                let fresh = router(&scenes[i], n);
                total += fresh.distances(&nets[i]).unwrap().iter().sum::<Dist>();
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
