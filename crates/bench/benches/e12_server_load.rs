//! E12 — the `rsp-server` serving path under mixed concurrent load.
//!
//! A custom harness (the vendored criterion reports means only; a serving
//! layer is judged by its *tail*): four in-process client threads drive an
//! [`RspService`] with mixed traffic — single `distance` calls, each answered
//! on its client's thread, interleaved with pre-batched 16-query
//! `batch_distances` calls over four resident scenes — and every call's
//! wall-clock latency is recorded.  For
//! each shard count the bench reports throughput (QPS) and the p50 / p99 /
//! p999 latency percentiles.
//!
//! The per-configuration measurement time honours `CRITERION_BUDGET_MS`
//! (default 300 ms, matching the vendored criterion), so the CI smoke run
//! (`=10`) finishes in well under a second.
//!
//! Caveat for reading the numbers: every query runs on its client's thread
//! whatever the shard count, so shards only split the session-cache lock.
//! Expect flat QPS across shard counts unless that lock is contended.

use rsp_server::{RspService, SceneId, ServiceConfig};
use rsp_workload::{query_pairs, uniform_disjoint};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const SCENES: usize = 4;
const BATCH: usize = 16;

fn budget() -> Duration {
    let ms = std::env::var("CRITERION_BUDGET_MS").ok().and_then(|s| s.parse::<u64>().ok()).unwrap_or(300);
    Duration::from_millis(ms.max(1))
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

struct Loaded {
    service: Arc<RspService>,
    scenes: Vec<(SceneId, Vec<(rsp_geom::Point, rsp_geom::Point)>)>,
}

/// Build a service, load and pre-warm every scene (builds happen outside
/// the timed section), and pre-generate each scene's mixed query pairs.
fn setup(shards: usize) -> Loaded {
    let service = Arc::new(RspService::new(ServiceConfig { shards, ..ServiceConfig::default() }));
    let mut scenes = Vec::new();
    for seed in 0..SCENES as u64 {
        let w = uniform_disjoint(24, 40 + seed);
        let id = service.load_scene(&w.obstacles).expect("workload scenes are valid");
        let mut pairs = query_pairs(&w.obstacles, 64, true, seed + 1);
        pairs.extend(query_pairs(&w.obstacles, 64, false, seed + 11));
        // Pre-warm: pay the lazy oracle build before the measurement.
        let _ = service.batch_distances(id, &pairs[..4]).expect("pre-warm");
        scenes.push((id, pairs));
    }
    Loaded { service, scenes }
}

/// Drive one configuration with `CLIENTS` closed-loop threads for the
/// budget; returns (ops, elapsed, sorted per-op latencies in ns).
fn drive(loaded: &Loaded, measure: Duration) -> (u64, Duration, Vec<u64>) {
    let deadline = Instant::now() + measure;
    let start = Instant::now();
    let mut handles = Vec::new();
    for worker in 0..CLIENTS {
        let service = Arc::clone(&loaded.service);
        let scenes = loaded.scenes.clone();
        handles.push(std::thread::spawn(move || {
            let mut lat = Vec::new();
            let mut ops = 0u64;
            let mut step = worker; // stagger scene/pair choice across clients
            while Instant::now() < deadline {
                let (scene, pairs) = &scenes[step % SCENES];
                let t0 = Instant::now();
                if step % 4 == 3 {
                    // One in four ops is a pre-batched 16-query call.
                    let lo = (step * BATCH) % (pairs.len() - BATCH);
                    service.batch_distances(*scene, &pairs[lo..lo + BATCH]).expect("valid batch");
                } else {
                    let (a, b) = pairs[step % pairs.len()];
                    service.distance(*scene, a, b).expect("valid query");
                }
                lat.push(t0.elapsed().as_nanos() as u64);
                ops += 1;
                step = step.wrapping_add(1);
            }
            (ops, lat)
        }));
    }
    let mut total_ops = 0u64;
    let mut latencies = Vec::new();
    for handle in handles {
        let (ops, lat) = handle.join().expect("bench client");
        total_ops += ops;
        latencies.extend(lat);
    }
    latencies.sort_unstable();
    (total_ops, start.elapsed(), latencies)
}

fn main() {
    let measure = budget();
    println!(
        "e12_server_load: {CLIENTS} clients, {SCENES} scenes, mixed traffic (3:1 single:batch16), {} ms/config",
        measure.as_millis()
    );
    println!("{:<12} {:>10} {:>10} {:>10} {:>10}", "config", "qps", "p50_us", "p99_us", "p999_us");
    for &shards in &[1usize, 2, 4] {
        let (ops, elapsed, lat) = drive(&setup(shards), measure);
        println!(
            "{:<12} {:>10.0} {:>10.1} {:>10.1} {:>10.1}",
            format!("shards={shards}"),
            ops as f64 / elapsed.as_secs_f64(),
            percentile(&lat, 0.50) as f64 / 1e3,
            percentile(&lat, 0.99) as f64 / 1e3,
            percentile(&lat, 0.999) as f64 / 1e3,
        );
    }
}
