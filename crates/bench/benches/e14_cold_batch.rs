//! E14 — the cold-batch planner: row-reuse batch serving vs per-call churn.
//!
//! E13's `implicit_churn` arm priced the PR 8 cold path: a 256-query batch
//! against a two-row budget re-materialised a row *per query* — 192 ms /
//! 366 ms / 902 ms per batch at n = 256 / 512 / 1024.  The planner
//! rewrites a batch into one sweep per *providing* row (the L1 metric is
//! symmetric, so a pair can be read from either endpoint's row, and the
//! planner picks a greedy vertex cover of the batch's pairs), pins the
//! working set for the batch's lifetime, and scatters the answers.
//! This bench charts what that buys on the session shape that motivated it —
//! a cold tenant fanning a few hot sources out to many targets:
//!
//! * `planned` — one 256-query mixed batch (192 vertex pairs across 8 hot
//!   sources in alternating orientation + 64 arbitrary-point pairs) through
//!   `Router::distances` under a two-row budget.  The planner collapses the
//!   vertex queries to 8 sweeps; the arbitrary pairs' reductions sweep the
//!   rows they need in parallel, outside the row-cache lock.
//! * `planned_8rows` — the same batch with an 8-row budget, so every hot
//!   row can stay pinned at once (the budget-sensitivity axis).
//! * `per_call` — the same batch served query-by-query via
//!   `Router::distance` at the two-row budget: the PR 8 churn replica, and
//!   the baseline the ≥5x acceptance bar is measured against.
//! * `single_row` — one `SingleSourceEngine::distances_from` from a vertex
//!   source: the Section 9 row sweep every cold row above pays, without the
//!   router, planner or store around it.
//!
//! Between iterations the starved cache retains at most two rows, so every
//! planned batch is genuinely cold apart from that sliver — the same
//! steady-state E13's churn arm measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsp_core::router::Router;
use rsp_core::seq::SingleSourceEngine;
use rsp_core::store::StoreKind;
use rsp_geom::{Dist, ObstacleSet, Point};
use rsp_workload::{query_pairs, uniform_disjoint};

const HOT_SOURCES: usize = 8;
const VERTEX_QUERIES: usize = 192;
const POINT_QUERIES: usize = 64;

fn router(obstacles: &ObstacleSet, budget_rows: usize, n: usize) -> Router {
    let row_bytes = 4 * n * std::mem::size_of::<Dist>();
    Router::builder(obstacles.clone())
        .store(StoreKind::Implicit { budget_bytes: budget_rows * row_bytes })
        .build()
        .expect("workload scenes are valid")
}

/// The cold-tenant batch: a few hot sources fanned out to many targets in
/// both orientations (so reading a pair from either endpoint's row is
/// load-bearing), plus a tail of arbitrary-point queries.
fn mixed_batch(obstacles: &ObstacleSet) -> Vec<(Point, Point)> {
    let verts = obstacles.vertices();
    let m = verts.len();
    let mut pairs = Vec::with_capacity(VERTEX_QUERIES + POINT_QUERIES);
    for k in 0..VERTEX_QUERIES {
        let s = verts[k % HOT_SOURCES];
        let t = verts[HOT_SOURCES + (k * 131 + 17) % (m - HOT_SOURCES)];
        pairs.push(if k % 2 == 0 { (s, t) } else { (t, s) });
    }
    pairs.extend(query_pairs(obstacles, POINT_QUERIES, false, 2));
    pairs
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_cold_batch");
    group.sample_size(10); // the harness honours CRITERION_BUDGET_MS per arm
    for &n in &[256usize, 512, 1024] {
        let w = uniform_disjoint(n, 5);
        let batch = mixed_batch(&w.obstacles);

        let planned = router(&w.obstacles, 2, n);
        let _ = planned.distances(&batch).unwrap(); // pay the engine's one-time build
        group.bench_with_input(BenchmarkId::new("planned", n), &n, |b, _| {
            b.iter(|| planned.distances(&batch).unwrap().iter().sum::<Dist>())
        });
        let stats = planned.memory_stats();
        eprintln!(
            "e14 n={n}: planned batch resident {} KiB of {} KiB budget, {} sweeps so far",
            stats.resident_bytes >> 10,
            stats.budget_bytes >> 10,
            stats.row_misses
        );

        let roomy = router(&w.obstacles, HOT_SOURCES, n);
        let _ = roomy.distances(&batch).unwrap();
        group.bench_with_input(BenchmarkId::new("planned_8rows", n), &n, |b, _| {
            b.iter(|| roomy.distances(&batch).unwrap().iter().sum::<Dist>())
        });

        // The PR 8 replica: the identical batch, one query at a time, same
        // starved budget — every vertex query churns its row back in.
        let per_call = router(&w.obstacles, 2, n);
        let _ = per_call.distance(batch[0].0, batch[0].1).unwrap();
        group.bench_with_input(BenchmarkId::new("per_call", n), &n, |b, _| {
            b.iter(|| batch.iter().map(|&(a, b)| per_call.distance(a, b).unwrap()).sum::<Dist>())
        });

        let engine = SingleSourceEngine::new(&w.obstacles);
        let source = batch[0].0;
        group.bench_with_input(BenchmarkId::new("single_row", n), &n, |b, _| {
            b.iter(|| engine.distances_from(source).iter().sum::<Dist>())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
