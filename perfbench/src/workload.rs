//! The three workloads: service configuration, scenes and op streams, all
//! generated from the run seed by the `rsp_workload` generators
//! (`uniform_disjoint`, `query_pairs`, `edit_stream`), plus the reference
//! answers the correctness gate compares against.
//!
//! An *op* is the unit every end-to-end metric counts: a short, fixed list
//! of wire requests sent back to back on one connection.  Every request is
//! generated up front, so the timed phase only sends, receives and records.

use rsp_core::router::Router;
use rsp_core::store::{default_budget_bytes, StoreKind};
use rsp_geom::{ObstacleSet, Point, SceneDelta};
use rsp_server::{Request, Response, SceneId, ServiceConfig};
use rsp_workload::{edit_stream, query_pairs, uniform_disjoint};
use std::collections::HashMap;

/// Which workload a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Four resident dense n = 256 scenes, two connections, mixed rounds.
    WarmServe,
    /// One n = 1024 implicit scene with a 32-row budget, fresh sources.
    ColdTenant,
    /// One n = 512 scene edited op by op, each edit followed by a batch.
    EditChurn,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::WarmServe, Kind::ColdTenant, Kind::EditChurn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmServe => "warm_serve",
            Kind::ColdTenant => "cold_tenant",
            Kind::EditChurn => "edit_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One op: requests sent back to back on one connection.
pub struct Op {
    pub requests: Vec<Request>,
}

/// A timed scene load: `LoadScene`, then the first answer on the new scene.
pub struct Load {
    pub scene: SceneId,
    pub load: Request,
    pub first: Request,
}

/// The ops one connection sends, in order.
pub enum OpStream {
    /// A fixed list of rounds, repeated in order for the whole phase.
    Cycle(Vec<Op>),
    /// A finite stream of distinct ops (generated with ample headroom).
    Once(Vec<Op>),
}

impl OpStream {
    pub fn get(&self, i: usize) -> Option<&Op> {
        match self {
            OpStream::Cycle(round) => round.get(i % round.len()),
            OpStream::Once(ops) => ops.get(i),
        }
    }
}

/// Everything a run needs, generated from the seed.
pub struct Scenario {
    pub kind: Kind,
    pub config: ServiceConfig,
    /// A load of the workload's scene size, timed but discarded: the first
    /// load in a fresh process is about twice as slow as later ones.
    pub warmup: Load,
    /// Timed loads; the first `resident` stay loaded for the phase.
    pub loads: Vec<Load>,
    pub resident: usize,
    /// One op stream per client connection.
    pub streams: Vec<OpStream>,
    /// Ops of each stream sent untimed before the phase (builds the path
    /// trees the warm rounds ask for).
    pub warm_ops: usize,
    /// Every `sample_every`-th op of each connection is kept and checked
    /// against a from-scratch router after the phase.
    pub sample_every: usize,
    /// Geometry of every scene the ops query, by wire id, for the check.
    scenes: HashMap<SceneId, ObstacleSet>,
    /// The edit trace (base scene plus the delta of op `i`).
    edits: Option<(ObstacleSet, Vec<SceneDelta>)>,
}

/// Distinct, reproducible sub-seeds of the run seed.
fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut h = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

fn load_of(obstacles: &ObstacleSet, seed: u64) -> Load {
    let scene = obstacles.scene_hash();
    let pairs = query_pairs(obstacles, 1, true, seed);
    Load {
        scene,
        load: Request::LoadScene { obstacles: obstacles.clone() },
        first: Request::BatchDistances { scene, pairs },
    }
}

/// `n_vertex` vertex pairs followed by `n_point` arbitrary-point pairs.
fn mixed_pairs(obstacles: &ObstacleSet, n_vertex: usize, n_point: usize, seed: u64) -> Vec<(Point, Point)> {
    let mut pairs = query_pairs(obstacles, n_vertex, true, sub_seed(seed, 1, 0));
    pairs.extend(query_pairs(obstacles, n_point, false, sub_seed(seed, 2, 0)));
    pairs
}

impl Scenario {
    /// Generate a workload.  `seconds` sizes the finite op streams: they
    /// hold several times the ops the phase is expected to complete.
    pub fn new(kind: Kind, seed: u64, seconds: f64) -> Scenario {
        match kind {
            Kind::WarmServe => warm_serve(seed),
            Kind::ColdTenant => cold_tenant(seed, seconds),
            Kind::EditChurn => edit_churn(seed, seconds),
        }
    }

    /// Scenes of `n` obstacles for the warm-up and `count` timed loads
    /// (`setup_s` is the median of the timed loads).
    fn loads(seed: u64, n: usize, count: usize) -> (Load, Vec<(ObstacleSet, Load)>) {
        let warm = uniform_disjoint(n, sub_seed(seed, 10, 0)).obstacles;
        let warmup = load_of(&warm, sub_seed(seed, 11, 0));
        let loads = (0..count as u64)
            .map(|k| {
                let obstacles = uniform_disjoint(n, sub_seed(seed, 12, k)).obstacles;
                let load = load_of(&obstacles, sub_seed(seed, 13, k));
                (obstacles, load)
            })
            .collect();
        (warmup, loads)
    }

    /// Check one sampled op's responses against from-scratch routers over
    /// the same scenes.  `index` is the op's position in its stream.
    pub fn verify(&self, op: &Op, index: usize, responses: &[Response], refs: &mut References) -> Result<(), String> {
        if responses.len() != op.requests.len() {
            return Err(format!("{} responses to {} requests", responses.len(), op.requests.len()));
        }
        for (request, response) in op.requests.iter().zip(responses) {
            let expected = match request {
                Request::BatchDistances { scene, pairs } => {
                    Response::Distances { lengths: self.reference(refs, *scene, index)?.distances(pairs).map_err(s)? }
                }
                Request::Distance { scene, a, b } => {
                    Response::Distance { length: self.reference(refs, *scene, index)?.distance(*a, *b).map_err(s)? }
                }
                Request::BatchPaths { scene, pairs } => {
                    Response::Paths { paths: self.reference(refs, *scene, index)?.paths(pairs).map_err(s)? }
                }
                Request::UpdateScene { .. } => {
                    let edited = self.scene_after_edit(index);
                    // Sessions are content-addressed: an edit that recreates
                    // a still-resident scene (an insert, then removing that
                    // rectangle) resolves to that scene's older session, so
                    // the epoch is only bounded, not predicted.
                    let epoch = match response {
                        Response::SceneUpdated { epoch, .. } if (1..=index as u64 + 1).contains(epoch) => *epoch,
                        _ => index as u64 + 1,
                    };
                    Response::SceneUpdated { scene: edited.scene_hash(), obstacles: edited.len(), epoch }
                }
                other => return Err(format!("unexpected request in an op: {other:?}")),
            };
            if *response != expected {
                return Err(format!("op {index}: answer differs from a from-scratch router ({})", summary(request)));
            }
        }
        Ok(())
    }

    fn reference<'r>(&self, refs: &'r mut References, scene: SceneId, index: usize) -> Result<&'r Router, String> {
        if let std::collections::hash_map::Entry::Vacant(slot) = refs.routers.entry(scene) {
            let obstacles = match self.scenes.get(&scene) {
                Some(o) => o.clone(),
                None => self.scene_after_edit(index),
            };
            if obstacles.scene_hash() != scene {
                return Err(format!("op {index}: no scene with id {scene:#x}"));
            }
            // The implicit store answers bitwise like the dense one and
            // builds only the rows the check reads.
            let budget = default_budget_bytes(obstacles.len());
            slot.insert(
                Router::builder(obstacles).store(StoreKind::Implicit { budget_bytes: budget }).build().map_err(s)?,
            );
        }
        Ok(&refs.routers[&scene])
    }

    /// The edit trace's scene after op `index` applied its delta.
    fn scene_after_edit(&self, index: usize) -> ObstacleSet {
        let (base, deltas) = self.edits.as_ref().expect("only edit ops update scenes");
        deltas[..=index].iter().fold(base.clone(), |scene, d| {
            scene.apply_delta(d).expect("edit_stream deltas replay on their base").obstacles
        })
    }
}

/// From-scratch routers built for the correctness check, by scene id.
#[derive(Default)]
pub struct References {
    routers: HashMap<SceneId, Router>,
}

fn s(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn summary(request: &Request) -> String {
    match request {
        Request::BatchDistances { pairs, .. } => format!("BatchDistances of {}", pairs.len()),
        Request::BatchPaths { pairs, .. } => format!("BatchPaths of {}", pairs.len()),
        Request::Distance { a, b, .. } => format!("Distance {a:?} -> {b:?}"),
        Request::UpdateScene { .. } => "UpdateScene".into(),
        other => format!("{other:?}"),
    }
}

/// Each of 2 connections cycles through 8 rounds of the same shape over 4
/// resident dense n = 256 scenes: 4 x `BatchDistances` (48 vertex + 16
/// point pairs), a vertex and a point `Distance` (through the admission
/// window) and one 8-pair `BatchPaths`.  Eight rounds rather than one
/// average out how much work a seed's particular pairs take.
fn warm_serve(seed: u64) -> Scenario {
    const SCENES: usize = 4;
    const CONNECTIONS: u64 = 2;
    const ROUNDS: u64 = 8;
    let (warmup, loads) = Scenario::loads(seed, 256, 5);
    let scenes: Vec<(SceneId, &ObstacleSet)> = loads.iter().take(SCENES).map(|(o, l)| (l.scene, o)).collect();
    let round = |c: u64, r: u64| {
        let key = c * ROUNDS + r;
        let mut requests: Vec<Request> = scenes
            .iter()
            .enumerate()
            .map(|(k, &(scene, obstacles))| Request::BatchDistances {
                scene,
                pairs: mixed_pairs(obstacles, 48, 16, sub_seed(seed, 20 + key, k as u64)),
            })
            .collect();
        let (vscene, vobs) = scenes[c as usize];
        let (a, b) = query_pairs(vobs, 1, true, sub_seed(seed, 30, key))[0];
        requests.push(Request::Distance { scene: vscene, a, b });
        let (pscene, pobs) = scenes[c as usize + 2];
        let (a, b) = query_pairs(pobs, 1, false, sub_seed(seed, 31, key))[0];
        requests.push(Request::Distance { scene: pscene, a, b });
        requests
            .push(Request::BatchPaths { scene: vscene, pairs: query_pairs(vobs, 8, true, sub_seed(seed, 32, key)) });
        Op { requests }
    };
    let streams = (0..CONNECTIONS).map(|c| OpStream::Cycle((0..ROUNDS).map(|r| round(c, r)).collect())).collect();
    let scene_map = loads.iter().take(SCENES).map(|(o, l)| (l.scene, o.clone())).collect();
    Scenario {
        kind: Kind::WarmServe,
        config: ServiceConfig::default(),
        warmup,
        loads: loads.into_iter().map(|(_, l)| l).collect(),
        resident: SCENES,
        streams,
        warm_ops: ROUNDS as usize,
        sample_every: 1021,
        scenes: scene_map,
        edits: None,
    }
}

/// Ops per second the finite streams are sized for (several times the
/// measured rate, so a faster program never runs out of ops).
const COLD_OPS_PER_S: f64 = 60.0;
const EDIT_OPS_PER_S: f64 = 150.0;

/// One n = 1024 scene on an implicit store with a 32-row budget; each op is
/// one `BatchDistances` of 64 vertex pairs from 8 fresh sources plus 16
/// arbitrary-point pairs, so nearly every row it needs is a miss.
fn cold_tenant(seed: u64, seconds: f64) -> Scenario {
    const N: usize = 1024;
    const BUDGET_ROWS: usize = 32;
    let (warmup, loads) = Scenario::loads(seed, N, 15);
    let (obstacles, first) = &loads[0];
    let scene = first.scene;
    let count = (seconds * COLD_OPS_PER_S).ceil() as usize + 16;
    let ops = (0..count as u64)
        .map(|i| {
            let sources = query_pairs(obstacles, 8, true, sub_seed(seed, 40, i));
            let targets = query_pairs(obstacles, 64, true, sub_seed(seed, 41, i));
            let mut pairs: Vec<(Point, Point)> =
                targets.iter().enumerate().map(|(k, &(_, t))| (sources[k / 8].0, t)).collect();
            pairs.extend(query_pairs(obstacles, 16, false, sub_seed(seed, 42, i)));
            Op { requests: vec![Request::BatchDistances { scene, pairs }] }
        })
        .collect();
    let budget_bytes = BUDGET_ROWS * 4 * N * std::mem::size_of::<rsp_geom::Dist>();
    let config = ServiceConfig { store: StoreKind::Implicit { budget_bytes }, ..ServiceConfig::default() };
    let scenes = HashMap::from([(scene, obstacles.clone())]);
    Scenario {
        kind: Kind::ColdTenant,
        config,
        warmup,
        loads: loads.into_iter().map(|(_, l)| l).collect(),
        resident: 1,
        streams: vec![OpStream::Once(ops)],
        warm_ops: 0,
        sample_every: 48,
        scenes,
        edits: None,
    }
}

/// One n = 512 base scene (`StoreKind::Auto` picks the implicit store);
/// op `i` applies the `i`-th `edit_stream` delta to the latest epoch with
/// `UpdateScene`, then asks a 16-vertex-pair `BatchDistances` of the new
/// epoch.
fn edit_churn(seed: u64, seconds: f64) -> Scenario {
    const N: usize = 512;
    let (warmup, loads) = Scenario::loads(seed, N, 15);
    let base = loads[0].0.clone();
    let count = (seconds * EDIT_OPS_PER_S).ceil() as usize + 16;
    let deltas = edit_stream(&base, count, sub_seed(seed, 50, 0));
    let mut scene = base.clone();
    let mut id = loads[0].1.scene;
    let ops = deltas
        .iter()
        .enumerate()
        .map(|(i, delta)| {
            scene = scene.apply_delta(delta).expect("edit_stream deltas replay on their base").obstacles;
            let base_id = std::mem::replace(&mut id, scene.scene_hash());
            let pairs = query_pairs(&scene, 16, true, sub_seed(seed, 51, i as u64));
            Op {
                requests: vec![
                    Request::UpdateScene { base: base_id, delta: delta.clone() },
                    Request::BatchDistances { scene: id, pairs },
                ],
            }
        })
        .collect();
    let scenes = HashMap::from([(loads[0].1.scene, base.clone())]);
    Scenario {
        kind: Kind::EditChurn,
        config: ServiceConfig::default(),
        warmup,
        loads: loads.into_iter().map(|(_, l)| l).collect(),
        resident: 1,
        streams: vec![OpStream::Once(ops)],
        warm_ops: 0,
        sample_every: 128,
        scenes,
        edits: Some((base, deltas)),
    }
}
