//! E10 — the `Router` serving path: batch query throughput.
//!
//! The session API exists so that heavy query traffic can be served from one
//! set of shared substructures.  This bench measures batch `distances`
//! throughput (512-query batches; divide the reported per-iteration time by
//! 512 for per-query latency / queries-per-second) as `n` grows, for three
//! serving modes:
//!
//! * `batch_vertex_pairs` — every pair hits the O(1) matrix fast path;
//! * `batch_mixed` — half vertex pairs, half arbitrary points (the fast-path
//!   routing inside one batch);
//! * `batch_arbitrary_points` — every pair takes the §6.4 arbitrary-point
//!   path (after ISSUE 5: indexed containment probes + binary-searched
//!   staircases + borrowed `ChainView`, so the series should be near-flat
//!   on a log scale instead of linear in n);
//! * `per_call_vertex_pairs` — the same vertex pairs served by individual
//!   `distance` calls, to expose the batch layer's overhead/benefit;
//! * `batch_serving_round` — one small serving batch, 48 vertex pairs plus
//!   16 arbitrary points on the dense store (the shape a network client
//!   sends per request).  Its 16 point reductions stay on the caller's
//!   thread, so this times the batch without a pool hand-off.  The time is
//!   per batch of 64 queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsp_core::router::Router;
use rsp_core::store::StoreKind;
use rsp_geom::Point;
use rsp_workload::{query_pairs, uniform_disjoint};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_router_throughput");
    for &n in &[32usize, 64, 128, 256] {
        let w = uniform_disjoint(n, 5);
        let router =
            Router::builder(w.obstacles.clone()).store(StoreKind::Dense).build().expect("workload scenes are valid");
        let _ = router.oracle(); // pay the one-time build outside the timer
        let vertex_batch = query_pairs(&w.obstacles, 512, true, 1);
        let mut mixed_batch: Vec<(Point, Point)> = query_pairs(&w.obstacles, 256, true, 2);
        mixed_batch.extend(query_pairs(&w.obstacles, 256, false, 3));
        let arbitrary_batch = query_pairs(&w.obstacles, 512, false, 4);
        let mut serving_round: Vec<(Point, Point)> = query_pairs(&w.obstacles, 48, true, 6);
        serving_round.extend(query_pairs(&w.obstacles, 16, false, 7));

        group.bench_with_input(BenchmarkId::new("batch_vertex_pairs", n), &n, |b, _| {
            b.iter(|| router.distances(&vertex_batch).unwrap().iter().sum::<i64>())
        });
        group.bench_with_input(BenchmarkId::new("batch_mixed", n), &n, |b, _| {
            b.iter(|| router.distances(&mixed_batch).unwrap().iter().sum::<i64>())
        });
        group.bench_with_input(BenchmarkId::new("batch_arbitrary_points", n), &n, |b, _| {
            b.iter(|| router.distances(&arbitrary_batch).unwrap().iter().sum::<i64>())
        });
        group.bench_with_input(BenchmarkId::new("batch_serving_round", n), &n, |b, _| {
            b.iter(|| router.distances(&serving_round).unwrap().iter().sum::<i64>())
        });
        group.bench_with_input(BenchmarkId::new("per_call_vertex_pairs", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = 0i64;
                for &(p, q) in &vertex_batch {
                    acc += router.distance(p, q).unwrap();
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
