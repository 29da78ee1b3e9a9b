//! The traced run: every op is sent once over TCP to a real server and once
//! replayed in-process against an identically loaded `ShardSet`, with a span
//! around each call into a layer's public functions.  Spans live in memory
//! and are written to `perfbench/out/trace-<workload>.tsv` when the run ends;
//! every per-layer metric is derived from them.
//!
//! The replay follows `RspService::handle` and `Router::distances` /
//! `Router::paths` step by step through their public building blocks, so no
//! program code carries instrumentation.  Two splits cannot be seen from
//! outside and are estimated (see README.md): the single-source sweeps
//! inside `ImplicitStore::pin_rows` and inside the point fan-out are charged
//! to `seq` at the per-sweep time measured by separate probe sweeps, and
//! the rest of those spans to `store` / `query`.

use crate::workload::{Kind, Scenario};
use crate::{metric, Metric, Outcome};
use rayon::prelude::*;
use rsp_core::plan::{dedupe_point_pairs, plan_vertex_pairs};
use rsp_core::router::Router;
use rsp_core::seq::SingleSourceEngine;
use rsp_core::store::StoreKind;
use rsp_core::{PathLengthOracle, RspError, ShortestPathTrees, VertexApsp};
use rsp_geom::{Dist, ObstacleSet, Point, RectiPath, SceneDelta};
use rsp_server::protocol::{read_message, write_message};
use rsp_server::{Client, Request, Response, RspService, SceneId, Server, ServerError, ShardSet};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call.  `a`, `b`, `c` carry counts measured at the same
/// boundary; their meaning per span name is listed in README.md.
struct Span {
    name: &'static str,
    op: u32,
    parent: u32,
    start: u64,
    end: u64,
    a: u64,
    b: u64,
    c: u64,
}

/// In-memory span recorder.  A span's id is its index + 1; 0 means "no
/// parent".  Parents are opened before their children, so a parent's id is
/// always smaller than its children's.
struct Tracer {
    origin: Instant,
    op: u32,
    spans: Vec<Span>,
    counters: Vec<(u32, &'static str, u64)>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let start = self.now();
        self.record(name, parent, start, 0)
    }

    fn close(&mut self, id: u32, a: u64, b: u64, c: u64) {
        let end = self.now();
        let span = &mut self.spans[id as usize - 1];
        (span.end, span.a, span.b, span.c) = (end, a, b, c);
    }

    /// Time `f` as a childless span; returns its result and the span id.
    fn leaf<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> (R, u32) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.record(name, parent, start, end))
    }

    fn record(&mut self, name: &'static str, parent: u32, start: u64, end: u64) -> u32 {
        self.spans.push(Span { name, op: self.op, parent, start, end, a: 0, b: 0, c: 0 });
        self.spans.len() as u32
    }

    fn set(&mut self, id: u32, a: u64, b: u64, c: u64) {
        let span = &mut self.spans[id as usize - 1];
        (span.a, span.b, span.c) = (a, b, c);
    }

    fn count(&mut self, name: &'static str, value: u64) {
        self.counters.push((self.op, name, value));
    }

    fn reset(&mut self) {
        self.spans.clear();
        self.counters.clear();
    }
}

fn encode<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_message(&mut bytes, msg).expect("in-memory frames encode");
    bytes
}

fn decode<T: serde::Deserialize>(bytes: &[u8]) -> T {
    read_message(&mut &bytes[..]).expect("in-memory frames decode")
}

/// The in-process twin of the TCP server: the same shards, sessions and
/// admission queues `RspService` is made of, called step by step.
struct Local {
    shards: ShardSet,
    /// Shortest-path trees for the `BatchPaths` replay, per scene.
    trees: HashMap<SceneId, ShortestPathTrees>,
    /// Scenes whose row provider has been built (by a sweep or a carry).
    swept: HashSet<SceneId>,
    /// The last edit: base router, delta and edited router (probe input).
    last_edit: Option<(Arc<Router>, SceneDelta, Arc<Router>)>,
}

impl Local {
    fn replay(&mut self, tr: &mut Tracer, parent: u32, request: &Request) -> Response {
        let (bytes, id) = tr.leaf("protocol.req_encode", parent, || encode(request));
        tr.set(id, bytes.len() as u64, 0, 0);
        let (request, _) = tr.leaf("protocol.req_decode", parent, || decode::<Request>(&bytes));
        let response = match self.serve(tr, parent, request) {
            Ok(r) => r,
            Err(error) => Response::Error { error },
        };
        let (bytes, id) = tr.leaf("protocol.resp_encode", parent, || encode(&response));
        tr.set(id, bytes.len() as u64, 0, 0);
        tr.leaf("protocol.resp_decode", parent, || decode::<Response>(&bytes)).0
    }

    fn lookup(&self, tr: &mut Tracer, parent: u32, scene: SceneId) -> Result<Arc<Router>, ServerError> {
        tr.leaf("session.lookup", parent, || self.shards.shard_for(scene).sessions.lookup(scene)).0
    }

    /// `RspService::handle`, one layer call at a time.
    fn serve(&mut self, tr: &mut Tracer, parent: u32, request: Request) -> Result<Response, ServerError> {
        Ok(match request {
            Request::LoadScene { obstacles } => {
                let (scene, session) = self.shards.shard_for(obstacles.scene_hash()).sessions.load(&obstacles);
                session?;
                Response::SceneLoaded { scene, obstacles: obstacles.len() }
            }
            Request::Distance { scene, a, b } => {
                let router = self.lookup(tr, parent, scene)?;
                let queue = &self.shards.shard_for(scene).queue;
                let (length, _) = tr.leaf("admission.wait", parent, || {
                    queue.submit(router, a, b).recv().unwrap_or(Err(ServerError::ShuttingDown))
                });
                Response::Distance { length: length? }
            }
            Request::BatchDistances { scene, pairs } => {
                let router = self.lookup(tr, parent, scene)?;
                Response::Distances { lengths: self.distances(tr, parent, &router, scene, &pairs)? }
            }
            Request::BatchPaths { scene, pairs } => {
                let router = self.lookup(tr, parent, scene)?;
                Response::Paths { paths: self.paths(tr, parent, &router, scene, &pairs)? }
            }
            Request::UpdateScene { base, delta } => {
                let base_router = self.lookup(tr, parent, base)?;
                let (edited, _) = tr.leaf("router.apply_delta", parent, || base_router.apply_delta(&delta));
                let edited = Arc::new(edited?);
                let shards = &self.shards;
                let (adopted, _) = tr.leaf("session.adopt", parent, || {
                    let obstacles = edited.instance().obstacles_arc();
                    let scene = obstacles.scene_hash();
                    shards.shard_for(scene).sessions.adopt(scene, obstacles, Arc::clone(&edited)).map(|s| (scene, s))
                });
                let (scene, session) = adopted?;
                // A carry that inserts corners sweeps them, building the
                // new epoch's row provider on the way.
                if !delta.insert.is_empty() {
                    self.swept.insert(scene);
                }
                self.last_edit = Some((base_router, delta, Arc::clone(&session)));
                Response::SceneUpdated {
                    scene,
                    obstacles: session.instance().obstacles().len(),
                    epoch: session.epoch(),
                }
            }
            Request::Path { .. } | Request::Stats | Request::Evict { .. } => {
                unreachable!("ops hold only queries and edits")
            }
        })
    }

    /// `Router::distances`, step by step: vertex pairs go to the store
    /// (planned and pinned when it is implicit), the rest are deduplicated
    /// and reduced by the oracle in a rayon fan-out.
    fn distances(
        &mut self,
        tr: &mut Tracer,
        parent: u32,
        router: &Router,
        scene: SceneId,
        pairs: &[(Point, Point)],
    ) -> Result<Vec<Dist>, RspError> {
        let span = tr.open("router.distances", parent);
        let before = router.memory_stats();
        let oracle = if router.build_counts().oracle_builds > 0 {
            router.oracle()
        } else {
            let name = if router.epoch() > 0 { "delta.carry" } else { "query.oracle" };
            tr.leaf(name, span, || router.oracle()).0
        };
        let apsp = oracle.apsp();
        let implicit = apsp.store().as_implicit();
        let mut out = vec![0 as Dist; pairs.len()];
        let mut vertex_pairs = Vec::new();
        let mut slow = Vec::new();
        let mut mixed_rows = Vec::new();
        for (k, &(a, b)) in pairs.iter().enumerate() {
            match (apsp.vertex_index(a), apsp.vertex_index(b)) {
                (Some(i), Some(j)) => vertex_pairs.push((i, j, k)),
                (ai, bi) => {
                    if implicit.is_some() {
                        mixed_rows.extend(ai.or(bi));
                    }
                    slow.push(k);
                }
            }
        }
        let pins = match implicit {
            None => {
                let (_, id) = tr.leaf("store.read", span, || {
                    for &(i, j, k) in &vertex_pairs {
                        out[k] = apsp.distance(i, j);
                    }
                });
                tr.set(id, vertex_pairs.len() as u64, 0, 0);
                None
            }
            Some(store) => {
                let (plan, id) = tr.leaf("plan.plan", span, || plan_vertex_pairs(&vertex_pairs));
                let mut rows = plan.rows.clone();
                rows.extend_from_slice(&mixed_rows);
                tr.set(id, rows.len() as u64, plan.lookups.len() as u64, vertex_pairs.len() as u64);
                let pin_before = store.stats();
                let (pins, id) = tr.leaf("store.pin", span, || store.pin_rows(&rows));
                let pin_after = store.stats();
                let misses = pin_after.row_misses - pin_before.row_misses;
                let builds_provider = misses > 0 && self.swept.insert(scene);
                tr.set(id, misses, pin_after.row_hits - pin_before.row_hits, u64::from(builds_provider));
                let (_, id) = tr.leaf("store.read", span, || {
                    for lookup in &plan.lookups {
                        let d = match pins.row(lookup.row) {
                            Some(row) => row[lookup.col],
                            None => store.distance(lookup.row, lookup.col),
                        };
                        for &slot in &lookup.slots {
                            out[slot] = d;
                        }
                    }
                });
                tr.set(id, plan.lookups.len() as u64, 0, 0);
                Some(pins)
            }
        };
        let (deduped, id) = tr.leaf("plan.dedupe", span, || dedupe_point_pairs(pairs, &slow));
        tr.set(id, deduped.unique.len() as u64, slow.len() as u64, 0);
        let fan = tr.open("router.fanout", span);
        let misses_before = implicit.map_or(0, |s| s.stats().row_misses);
        let origin = tr.origin;
        let reduced: Vec<(Dist, u64, u64)> = deduped
            .unique
            .par_iter()
            .map(|&(a, b)| {
                let t0 = origin.elapsed().as_nanos() as u64;
                let d = oracle.distance(a, b);
                (d, t0, origin.elapsed().as_nanos() as u64)
            })
            .collect();
        tr.close(fan, implicit.map_or(0, |s| s.stats().row_misses) - misses_before, 0, 0);
        for (&(d, t0, t1), slots) in reduced.iter().zip(&deduped.slots) {
            tr.record("query.point", fan, t0, t1);
            for &slot in slots {
                out[slot] = d;
            }
        }
        drop(pins);
        let after = router.memory_stats();
        tr.close(
            span,
            after.row_hits - before.row_hits,
            after.row_misses - before.row_misses,
            after.row_evictions - before.row_evictions,
        );
        if router.epoch() > 0 && before.row_hits + before.row_misses == 0 {
            let counts = router.build_counts();
            tr.count("delta.rows_reused", counts.rows_reused as u64);
            tr.count("delta.rows_rebuilt", counts.rows_rebuilt as u64);
            tr.count("delta.chains_reused", counts.chains_reused as u64);
            tr.count("delta.chains_rebuilt", counts.chains_rebuilt as u64);
            tr.count("delta.slab_reused", counts.slab_columns_reused as u64);
            tr.count("delta.slab_rebuilt", counts.slab_columns_rebuilt as u64);
        }
        Ok(out)
    }

    /// `Router::paths`, step by step, over this replay's own trees.
    fn paths(
        &mut self,
        tr: &mut Tracer,
        parent: u32,
        router: &Router,
        scene: SceneId,
        pairs: &[(Point, Point)],
    ) -> Result<Vec<RectiPath>, RspError> {
        let span = tr.open("router.paths", parent);
        let oracle = router.oracle();
        for &(s, t) in pairs {
            for p in [s, t] {
                oracle.apsp().vertex_index(p).ok_or(RspError::NotAVertex(p))?;
            }
        }
        let sources: Vec<Point> = pairs.iter().map(|&(s, _)| s).collect();
        let trees = self.trees.entry(scene).or_insert_with(|| ShortestPathTrees::from_oracle(oracle, Some(&[])));
        let (built, id) = tr.leaf("sptree.ensure", span, || trees.ensure_sources(&sources));
        tr.set(id, built as u64, 0, 0);
        let all: Vec<usize> = (0..pairs.len()).collect();
        let (deduped, id) = tr.leaf("plan.dedupe", span, || dedupe_point_pairs(pairs, &all));
        tr.set(id, deduped.unique.len() as u64, pairs.len() as u64, 0);
        let fan = tr.open("router.fanout", span);
        let origin = tr.origin;
        let trees: &ShortestPathTrees = trees;
        let extracted: Vec<(RectiPath, u64, u64)> = deduped
            .unique
            .par_iter()
            .map(|&(s, t)| {
                let t0 = origin.elapsed().as_nanos() as u64;
                let path = trees.path_between(s, t).expect("trees were just ensured");
                (path, t0, origin.elapsed().as_nanos() as u64)
            })
            .collect();
        tr.close(fan, 0, 0, 0);
        let mut out: Vec<Option<RectiPath>> = vec![None; pairs.len()];
        for ((path, t0, t1), slots) in extracted.into_iter().zip(&deduped.slots) {
            tr.record("sptree.path", fan, t0, t1);
            for &slot in slots {
                out[slot] = Some(path.clone());
            }
        }
        tr.close(span, 0, 0, 0);
        Ok(out.into_iter().map(|p| p.expect("every slot was scattered")).collect())
    }
}

/// Time the build phases of one scene from outside: hash, validation, the
/// row provider's skeleton and a few sweeps, the distance store and the
/// oracle's escape chains and slab index.  Returns the probe's engine.
fn probe_build(tr: &mut Tracer, obstacles: &ObstacleSet, store: StoreKind) -> SingleSourceEngine {
    let root = tr.open("setup", 0);
    tr.leaf("geom.scene_hash", root, || obstacles.scene_hash());
    let (valid, _) = tr.leaf("instance.validate", root, || obstacles.validate_disjoint());
    valid.expect("generated scenes are disjoint");
    let (engine, _) = tr.leaf("seq.skeleton", root, || SingleSourceEngine::new(obstacles));
    for k in 0..4 {
        let source = engine.vertices()[k * engine.vertices().len() / 4];
        tr.leaf("seq.sweep", root, || engine.distances_from(source));
    }
    let (apsp, _) = tr.leaf("apsp.rows", root, || match store.resolve(obstacles.len()) {
        StoreKind::Implicit { budget_bytes } => VertexApsp::build_implicit(obstacles, budget_bytes),
        _ => VertexApsp::build(obstacles),
    });
    let shared = Arc::new(obstacles.clone());
    tr.leaf("query.oracle", root, || PathLengthOracle::from_apsp(shared, apsp));
    tr.close(root, 0, 0, 0);
    engine
}

fn call_all(client: &mut Client, requests: &[Request]) -> Result<Vec<Response>, String> {
    requests.iter().map(|r| client.call(r).map_err(|e| e.to_string())).collect()
}

fn obstacles_of(request: &Request) -> &ObstacleSet {
    match request {
        Request::LoadScene { obstacles } => obstacles,
        _ => unreachable!("loads start with LoadScene"),
    }
}

pub(crate) fn run(sc: &Scenario, seconds: f64) -> Result<Outcome, String> {
    let mut server = Server::bind("127.0.0.1:0", RspService::new(sc.config.clone())).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let mut local =
        Local { shards: ShardSet::new(&sc.config), trees: HashMap::new(), swept: HashSet::new(), last_edit: None };
    let mut tr = Tracer { origin: Instant::now(), op: 0, spans: Vec::new(), counters: Vec::new() };

    // Setup: the resident scenes on both sides, then the build probes.
    for load in &sc.loads[..sc.resident] {
        call_all(&mut client, &[load.load.clone(), load.first.clone()])?;
        local.replay(&mut tr, 0, &load.load);
        local.replay(&mut tr, 0, &load.first);
        local.swept.insert(load.scene);
    }
    for stream in &sc.streams {
        for i in 0..sc.warm_ops {
            let op = stream.get(i).expect("streams hold their warm-up ops");
            call_all(&mut client, &op.requests)?;
            for request in &op.requests {
                local.replay(&mut tr, 0, request);
            }
        }
    }
    tr.reset();
    let mut engine = None;
    for load in sc.loads[..sc.resident].iter().take(2) {
        engine = Some(probe_build(&mut tr, obstacles_of(&load.load), sc.config.store));
    }
    let engine = engine.expect("every workload keeps a scene resident");
    let queue_before = queue_totals(&local.shards);
    let cache_before = cache_totals(&local.shards);

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut next = vec![0usize; sc.streams.len()];
    let (mut attempted, mut failed, mut mismatches) = (0u64, 0u64, Vec::new());
    let mut samples: Vec<Vec<crate::serve::Sample>> = vec![Vec::new(); sc.streams.len()];
    let mut k = 0usize;
    while Instant::now() < deadline {
        let conn = k % sc.streams.len();
        let index = next[conn];
        next[conn] += 1;
        k += 1;
        let op = sc.streams[conn].get(index).ok_or("an op stream ran out before the phase ended")?;
        tr.op = k as u32;
        attempted += 1;
        // Alternate which side runs first, so neither always finds the
        // other's data warm in the CPU caches.
        let mut replay = |tr: &mut Tracer| {
            let root = tr.open("op", 0);
            let replayed: Vec<Response> = op.requests.iter().map(|r| local.replay(tr, root, r)).collect();
            tr.close(root, 0, 0, 0);
            replayed
        };
        let (replayed, remote) = if k.is_multiple_of(2) {
            let replayed = replay(&mut tr);
            (replayed, tr.leaf("tcp.op", 0, || call_all(&mut client, &op.requests)).0)
        } else {
            let remote = tr.leaf("tcp.op", 0, || call_all(&mut client, &op.requests)).0;
            (replay(&mut tr), remote)
        };
        match remote {
            Err(e) => {
                failed += 1;
                eprintln!("error: op {index}: {e}");
            }
            Ok(remote) if remote != replayed => {
                failed += 1;
                mismatches.push(format!("op {index}: the in-process replay answered differently from the server"));
            }
            Ok(remote) => {
                if index.is_multiple_of(sc.sample_every) {
                    samples[conn].push((index, remote));
                }
            }
        }
        probe_op(&mut tr, sc.kind, &mut local, &engine, op);
    }
    let phase_s = start.elapsed().as_secs_f64();

    let queue = queue_totals(&local.shards);
    let cache = cache_totals(&local.shards);
    tr.op = 0;
    tr.count("admission.queries", queue.0 - queue_before.0);
    tr.count("admission.batches", queue.1 - queue_before.1);
    tr.count("admission.largest_batch", queue.2);
    tr.count("session.hits", cache.0 - cache_before.0);
    tr.count("session.misses", cache.1 - cache_before.1);
    tr.count("session.evictions", cache.2 - cache_before.2);
    let tree_builds: usize = sc.loads[..sc.resident]
        .iter()
        .filter_map(|l| server.service().session(l.scene).ok())
        .map(|r| r.build_counts().tree_builds)
        .sum();
    tr.count("sptree.tree_builds", tree_builds as u64);
    drop(client);
    server.shutdown();

    let sampled: Vec<_> = samples.iter().enumerate().map(|(c, s)| (c, &s[..])).collect();
    let wrong = crate::verify(sc, &sampled);
    failed += wrong.len() as u64;
    mismatches.extend(wrong);

    let ops = tr.spans.iter().filter(|s| s.name == "op").count();
    println!("traced phase: {phase_s:.2} s, {ops} ops replayed, {} spans", tr.spans.len());
    let metrics = aggregate(&tr, sc.kind);
    write_trace(&tr, sc.kind);
    Ok(Outcome { metrics, attempted, failed, mismatches })
}

/// Probe calls made after an op, outside its spans: the single-source
/// sweeps the seq split is estimated from, and the delta path's geometry
/// step on its own.
fn probe_op(tr: &mut Tracer, kind: Kind, local: &mut Local, engine: &SingleSourceEngine, op: &crate::workload::Op) {
    match kind {
        Kind::WarmServe => {}
        Kind::ColdTenant => {
            let root = tr.open("probe", 0);
            if let Some(Request::BatchDistances { pairs, .. }) = op.requests.first() {
                for &(source, _) in [pairs[0], pairs[8]].iter() {
                    tr.leaf("seq.sweep", root, || engine.distances_from(source));
                }
            }
            tr.close(root, 0, 0, 0);
        }
        Kind::EditChurn => {
            let Some((base, delta, edited)) = local.last_edit.take() else { return };
            let root = tr.open("probe", 0);
            let (applied, _) = tr.leaf("geom.apply_delta", root, || {
                let applied = base.obstacles().apply_delta(&delta).map_err(|e| e.to_string())?;
                applied.validate_disjoint_incremental().map_err(|e| e.to_string())
            });
            applied.expect("the edit applied on the server too");
            let (engine, _) = tr.leaf("seq.skeleton", root, || SingleSourceEngine::new(edited.obstacles()));
            let source = engine.vertices()[0];
            tr.leaf("seq.sweep", root, || engine.distances_from(source));
            tr.close(root, 0, 0, 0);
        }
    }
}

fn queue_totals(shards: &ShardSet) -> (u64, u64, u64) {
    shards
        .shards()
        .iter()
        .map(|s| s.queue.stats())
        .fold((0, 0, 0), |t, q| (t.0 + q.queries, t.1 + q.batches, t.2.max(q.largest_batch)))
}

fn cache_totals(shards: &ShardSet) -> (u64, u64, u64) {
    shards
        .shards()
        .iter()
        .map(|s| s.sessions.stats())
        .fold((0, 0, 0), |t, c| (t.0 + c.hits, t.1 + c.misses, t.2 + c.evictions))
}

/// Per-name sums over spans.
#[derive(Default, Clone, Copy)]
struct Sum {
    count: u64,
    ns: u64,
    a: u64,
    b: u64,
    c: u64,
}

impl Sum {
    fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64 / 1e3
        }
    }
    fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }
    fn per(&self, field: u64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            field as f64 / self.count as f64
        }
    }
}

/// Total length of the union of intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// The layer a span's self time belongs to.
fn layer_of(name: &str) -> &'static str {
    match name {
        "router.apply_delta" | "delta.carry" => "delta",
        _ => {
            LAYERS.iter().copied().find(|l| name.strip_prefix(l).is_some_and(|r| r.starts_with('.'))).unwrap_or("other")
        }
    }
}

const LAYERS: [&str; 10] =
    ["protocol", "session", "admission", "router", "plan", "store", "seq", "query", "sptree", "delta"];

fn aggregate(tr: &Tracer, kind: Kind) -> Vec<Metric> {
    let spans = &tr.spans;
    let dur = |s: &Span| s.end.saturating_sub(s.start);
    let mut child_ns = vec![0u64; spans.len() + 1];
    let mut root = vec![0usize; spans.len() + 1];
    // Children of a fan-out run in parallel on the pool: keep their
    // intervals to measure how much of the fan-out they cover.
    let mut fanout_children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let id = i + 1;
        root[id] = if s.parent == 0 { id } else { root[s.parent as usize] };
        if s.parent != 0 {
            child_ns[s.parent as usize] += dur(s);
            if spans[s.parent as usize - 1].name == "router.fanout" {
                fanout_children.entry(s.parent as usize).or_default().push((s.start, s.end));
            }
        }
    }
    let mut by_name: HashMap<&str, Sum> = HashMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.count += 1;
        e.ns += dur(s);
        e.a += s.a;
        e.b += s.b;
        e.c += s.c;
    }
    let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let sweep_ns = get("seq.sweep").mean_us() * 1e3;
    let skeleton_ns = get("seq.skeleton").mean_us() * 1e3;
    let threads = rayon::current_num_threads().max(1) as f64;

    // Self times inside op trees, by layer; they add up to the op time.
    // A span's self time is its duration minus its children's.  In a
    // fan-out the children overlap, so they are charged only the wall time
    // their union covers, and the fan-out keeps the rest (pool scheduling).
    // Sweeps hidden inside a pin or a fan-out are charged to `seq` at the
    // probe's per-sweep time (divided by the pool width inside a pin, whose
    // sweeps run in parallel).
    let mut layer_ns: HashMap<&'static str, f64> = HashMap::new();
    let (mut op_ns, mut uncovered_ns, mut router_distances_self) = (0.0, 0.0, 0.0);
    for (i, s) in spans.iter().enumerate() {
        let id = i + 1;
        if spans[root[id] - 1].name != "op" {
            continue;
        }
        let self_ns = dur(s) as f64 - child_ns[id] as f64;
        if s.parent == 0 {
            op_ns += dur(s) as f64;
            uncovered_ns += self_ns;
            continue;
        }
        match s.name {
            "store.pin" => {
                let par = threads.min(s.a.max(1) as f64);
                let seq = self_ns.min(s.c as f64 * skeleton_ns + s.a as f64 * sweep_ns / par);
                *layer_ns.entry("seq").or_default() += seq;
                *layer_ns.entry("store").or_default() += self_ns - seq;
            }
            "router.fanout" => {
                let children = fanout_children.remove(&id).unwrap_or_default();
                let covered = union_ns(children) as f64;
                let summed = child_ns[id] as f64;
                let fanout_self = dur(s) as f64 - covered;
                let child_layer =
                    spans[id..].iter().find(|c| c.parent as usize == id).map_or("query", |c| layer_of(c.name));
                let seq = covered.min(s.a as f64 * sweep_ns * covered / summed.max(1.0));
                *layer_ns.entry("seq").or_default() += seq;
                *layer_ns.entry(child_layer).or_default() += covered - summed - seq;
                *layer_ns.entry("router").or_default() += fanout_self;
                if spans[s.parent as usize - 1].name == "router.distances" {
                    router_distances_self += fanout_self;
                }
            }
            name => {
                *layer_ns.entry(layer_of(name)).or_default() += self_ns;
                if name == "router.distances" {
                    router_distances_self += self_ns;
                }
            }
        }
    }

    let ops = get("op").count.max(1) as f64;
    let counter = |name: &str| tr.counters.iter().filter(|c| c.1 == name).map(|c| c.2).sum::<u64>();
    // TCP op time minus in-process op time, per op; the median.
    let transport = {
        let tcp: HashMap<u32, u64> = spans.iter().filter(|s| s.name == "tcp.op").map(|s| (s.op, dur(s))).collect();
        let diffs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "op")
            .filter_map(|s| tcp.get(&s.op).map(|&t| t as f64 - dur(s) as f64))
            .collect();
        crate::median(&diffs) / 1e3
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let distances = get("router.distances");
    let paths = get("router.paths");
    let plan = get("plan.plan");
    let dedupe = get("plan.dedupe");
    let pin = get("store.pin");
    let (hits, misses, evictions) = (distances.a, distances.b, distances.c);
    let edit_ops = get("router.apply_delta").count as f64;
    let per_edit = |name: &str| ratio(counter(name) as f64, edit_ops);
    let (reused, rebuilt) = (counter("delta.rows_reused") as f64, counter("delta.rows_rebuilt") as f64);
    let sptree_ns = get("sptree.ensure").ns + get("sptree.path").ns;

    let mut m = vec![
        metric("protocol.req_encode_us", get("protocol.req_encode").mean_us(), "us"),
        metric("protocol.req_decode_us", get("protocol.req_decode").mean_us(), "us"),
        metric("protocol.resp_encode_us", get("protocol.resp_encode").mean_us(), "us"),
        metric("protocol.resp_decode_us", get("protocol.resp_decode").mean_us(), "us"),
        metric("protocol.req_bytes", get("protocol.req_encode").per(get("protocol.req_encode").a), "bytes"),
        metric("protocol.resp_bytes", get("protocol.resp_encode").per(get("protocol.resp_encode").a), "bytes"),
        metric("server.transport_us", transport, "us"),
        metric("admission.wait_us", get("admission.wait").mean_us(), "us"),
        metric(
            "admission.batch_size",
            ratio(counter("admission.queries") as f64, counter("admission.batches") as f64),
            "queries",
        ),
        metric("admission.largest_batch", counter("admission.largest_batch") as f64, "queries"),
        metric("session.lookup_us", get("session.lookup").mean_us(), "us"),
        metric("session.adopt_us", get("session.adopt").mean_us(), "us"),
        metric("session.hits", counter("session.hits") as f64, "count"),
        metric("session.misses", counter("session.misses") as f64, "count"),
        metric("session.evictions", counter("session.evictions") as f64, "count"),
        metric("router.distances_us", distances.mean_us(), "us"),
        metric("router.paths_us", paths.mean_us(), "us"),
        metric("router.fanout_us", ratio(router_distances_self / 1e3, distances.count as f64), "us"),
        metric("router.apply_delta_us", get("router.apply_delta").mean_us(), "us"),
        metric("plan.plan_us", plan.mean_us(), "us"),
        metric("plan.dedupe_us", dedupe.mean_us(), "us"),
        metric("plan.rows_per_batch", plan.per(plan.a), "rows"),
        metric("plan.dedup_ratio", ratio((plan.b + dedupe.a) as f64, (plan.c + dedupe.b) as f64), "ratio"),
        metric("store.pin_ms", pin.mean_ms(), "ms"),
        metric("store.row_hits", hits as f64 / ops, "rows/op"),
        metric("store.row_misses", misses as f64 / ops, "rows/op"),
        metric("store.hit_ratio", ratio(hits as f64, (hits + misses) as f64), "ratio"),
        metric("store.row_evictions", evictions as f64 / ops, "rows/op"),
        metric("seq.sweep_ms", get("seq.sweep").mean_ms(), "ms"),
        metric("seq.sweeps_per_op", misses as f64 / ops, "sweeps/op"),
        metric("seq.skeleton_ms", get("seq.skeleton").mean_ms(), "ms"),
        metric("query.point_us", get("query.point").mean_us(), "us"),
        metric("query.points_per_op", get("query.point").count as f64 / ops, "points/op"),
        metric("sptree.paths_us", ratio(sptree_ns as f64 / 1e3, paths.count as f64), "us"),
        metric("sptree.tree_builds", counter("sptree.tree_builds") as f64, "count"),
        metric("instance.validate_ms", get("instance.validate").mean_ms(), "ms"),
        metric("geom.scene_hash_us", get("geom.scene_hash").mean_us(), "us"),
        metric("apsp.rows_ms", get("apsp.rows").mean_ms(), "ms"),
        metric("query.oracle_ms", get("query.oracle").mean_ms(), "ms"),
        metric("geom.apply_delta_us", get("geom.apply_delta").mean_us(), "us"),
        metric("delta.first_batch_ms", if kind == Kind::EditChurn { distances.mean_ms() } else { 0.0 }, "ms"),
        metric("delta.rows_reused", per_edit("delta.rows_reused"), "rows/op"),
        metric("delta.rows_rebuilt", per_edit("delta.rows_rebuilt"), "rows/op"),
        metric("delta.row_carry_ratio", ratio(reused, reused + rebuilt), "ratio"),
        metric("delta.chains_reused", per_edit("delta.chains_reused"), "chains/op"),
        metric("delta.chains_rebuilt", per_edit("delta.chains_rebuilt"), "chains/op"),
        metric("delta.slab_reused", per_edit("delta.slab_reused"), "columns/op"),
        metric("delta.slab_rebuilt", per_edit("delta.slab_rebuilt"), "columns/op"),
        metric("trace.uncovered_frac", ratio(uncovered_ns, op_ns), "ratio"),
    ];
    for layer in LAYERS {
        m.push(metric(format!("share.{layer}"), ratio(layer_ns.get(layer).copied().unwrap_or(0.0), op_ns), "ratio"));
    }
    println!(
        "in-process op: mean {:.1} us over {} ops; self-time shares: {}",
        op_ns / ops / 1e3,
        ops,
        LAYERS
            .iter()
            .map(|l| format!("{l} {:.3}", ratio(layer_ns.get(l).copied().unwrap_or(0.0), op_ns)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    m
}

/// Ops whose spans go to the trace file (the metrics use every op).
const WRITTEN_OPS: u32 = 200;

/// Write the spans of the setup probes and of the first `WRITTEN_OPS` ops,
/// and every counter, as tab-separated lines.  Failure to write only loses
/// the file, not the run.
fn write_trace(tr: &Tracer, kind: Kind) {
    let path = format!("perfbench/out/trace-{}.tsv", kind.name());
    let result = std::fs::create_dir_all("perfbench/out").and_then(|_| {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(w, "kind\top\tid\tparent\tname\tstart_ns\tend_ns\ta\tb\tc")?;
        for (i, s) in tr.spans.iter().enumerate().filter(|(_, s)| s.op <= WRITTEN_OPS) {
            writeln!(
                w,
                "span\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                i + 1,
                s.parent,
                s.name,
                s.start,
                s.end,
                s.a,
                s.b,
                s.c
            )?;
        }
        for &(op, name, value) in &tr.counters {
            writeln!(w, "count\t{op}\t\t\t{name}\t\t\t{value}\t\t")?;
        }
        w.flush()
    });
    match result {
        Ok(()) => println!("trace: spans of the first {WRITTEN_OPS} ops written to {path}"),
        Err(e) => eprintln!("trace: could not write {path}: {e}"),
    }
}
