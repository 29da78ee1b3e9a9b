//! Request-level fuzzing of a live `rsp-server` over TCP.
//!
//! Each case replays a seeded script of arbitrary `Request` values against a
//! fresh server: valid scenes (small and stretched to the coordinate limit)
//! mixed with degenerate, reversed, huge, duplicated and out-of-domain
//! rectangles; malformed deltas (bad, repeated and out-of-range removals,
//! overlapping and hostile insertions); unknown scene ids; points at the
//! domain edge, past it and inside obstacles; empty and duplicated batches.
//!
//! Every request must be answered before a deadline, with a typed response
//! (never `Internal`), and the server must keep serving afterwards.  Every
//! answer about a scene the script knows is checked against the Hanan-grid
//! ground truth.

use proptest::prelude::*;
use rectilinear_shortest_paths::geom::hanan::ground_truth_distance;
use rectilinear_shortest_paths::geom::COORD_LIMIT;
use rectilinear_shortest_paths::server::protocol::{read_message, write_message, SceneId};
use rectilinear_shortest_paths::server::{Request, Response, RspService, Server, ServerError, ServiceConfig};
use rectilinear_shortest_paths::workload::uniform_disjoint;
use rectilinear_shortest_paths::{ObstacleSet, Point, Rect, SceneDelta};
use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

/// How long one request may take to answer.  Scenes have at most 8
/// obstacles, so a healthy server answers in milliseconds.
const DEADLINE: Duration = Duration::from_secs(30);

/// A splitmix64 stream: the script generator, seeded by proptest.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// A coordinate: usually small, sometimes at or past the domain edge.
    fn coord(&mut self) -> i64 {
        match self.below(10) {
            0 => self.pick(&[COORD_LIMIT, -COORD_LIMIT, COORD_LIMIT + 1, -COORD_LIMIT - 1]),
            1 => self.pick(&[i64::MAX, i64::MIN, i64::MAX / 2, i64::MIN / 2]),
            _ => self.range(-60, 300),
        }
    }

    /// A rectangle built field by field (as serde does, bypassing
    /// `Rect::new`): degenerate, reversed, huge or just somewhere.
    fn hostile_rect(&mut self) -> Rect {
        let (x, y) = (self.coord(), self.coord());
        match self.below(4) {
            0 => Rect { xmin: x, ymin: y, xmax: x, ymax: y.saturating_add(3) },
            1 => Rect { xmin: x, ymin: y, xmax: x.saturating_sub(5), ymax: y.saturating_add(2) },
            2 => Rect { xmin: x, ymin: y, xmax: self.coord(), ymax: self.coord() },
            _ => Rect { xmin: x, ymin: y, xmax: x.saturating_add(self.range(1, 30)), ymax: y.saturating_add(4) },
        }
    }

    /// A scene: a small valid one (possibly stretched to the coordinate
    /// limit), sometimes spoiled by a hostile or duplicated rectangle, or
    /// empty.
    fn scene(&mut self) -> ObstacleSet {
        let mut rects: Vec<Rect> = uniform_disjoint(1 + self.below(6), self.next()).obstacles.iter().copied().collect();
        if self.below(5) == 0 {
            let k = COORD_LIMIT / 512;
            rects = rects.iter().map(|r| Rect::new(k * r.xmin, k * r.ymin, k * r.xmax, k * r.ymax)).collect();
        }
        match self.below(8) {
            0 => rects.push(self.hostile_rect()),
            1 => rects.push(rects[self.below(rects.len())]),
            2 => rects.clear(),
            _ => {}
        }
        ObstacleSet::new(rects)
    }

    /// A point: a vertex or an obstacle centre of `scene`, a nearby point,
    /// or one at or past the domain edge.
    fn point(&mut self, scene: Option<&ObstacleSet>) -> Point {
        if let Some(scene) = scene.filter(|s| !s.is_empty()) {
            let r = scene.rect(self.below(scene.len()));
            match self.below(6) {
                0..=2 => return self.pick(&r.corners()),
                3 => return Point::new(r.xmin / 2 + r.xmax / 2, r.ymin / 2 + r.ymax / 2),
                _ => {}
            }
            if let Some(b) = scene.bbox() {
                let near = b.expand(b.width().min(b.height()).clamp(1, 1 << 20));
                return Point::new(self.range(near.xmin, near.xmax + 1), self.range(near.ymin, near.ymax + 1));
            }
        }
        Point::new(self.coord(), self.coord())
    }

    /// An edit of `scene`: removals in and out of range (sometimes
    /// repeated), insertions that are valid, overlapping or hostile.
    fn delta(&mut self, scene: Option<&ObstacleSet>) -> SceneDelta {
        let n = scene.map_or(0, ObstacleSet::len);
        let mut delta = SceneDelta::default();
        for _ in 0..self.below(3) {
            delta.remove.push(self.below(n + 2));
        }
        if self.below(6) == 0 {
            if let Some(&id) = delta.remove.first() {
                delta.remove.push(id);
            }
        }
        for _ in 0..self.below(3) {
            let insert = match (self.below(3), scene.and_then(ObstacleSet::bbox)) {
                (0, Some(b)) => {
                    let x = b.xmax.saturating_add(self.range(1, 50));
                    Rect { xmin: x, ymin: b.ymin, xmax: x.saturating_add(self.range(1, 9)), ymax: b.ymin + 1 }
                }
                (1, Some(_)) => scene.map(|s| s.rect(self.below(n))).expect("scene has a bbox"),
                _ => self.hostile_rect(),
            };
            delta.insert.push(insert);
        }
        delta
    }

    /// Point pairs over `scene`: empty, duplicated or fresh.
    fn pairs(&mut self, scene: Option<&ObstacleSet>) -> Vec<(Point, Point)> {
        let mut pairs: Vec<(Point, Point)> =
            (0..self.below(7)).map(|_| (self.point(scene), self.point(scene))).collect();
        if let Some(&pair) = pairs.first() {
            for _ in 0..self.below(3) {
                pairs.push(pair);
            }
        }
        pairs
    }
}

/// The fuzz script's state: every scene the server accepted, by id.
struct Script {
    gen: Gen,
    known: HashMap<SceneId, ObstacleSet>,
}

impl Script {
    /// A scene id to address: a known one, or one nothing was loaded under.
    fn scene_id(&mut self) -> (SceneId, Option<ObstacleSet>) {
        let mut ids: Vec<SceneId> = self.known.keys().copied().collect();
        ids.sort_unstable();
        if ids.is_empty() || self.gen.below(5) == 0 {
            return (self.gen.next(), None);
        }
        let id = self.gen.pick(&ids);
        (id, self.known.get(&id).cloned())
    }

    fn request(&mut self) -> Request {
        match self.gen.below(9) {
            0 | 1 => Request::LoadScene { obstacles: self.gen.scene() },
            2 => {
                let (scene, obs) = self.scene_id();
                Request::Distance { scene, a: self.gen.point(obs.as_ref()), b: self.gen.point(obs.as_ref()) }
            }
            3 => {
                let (scene, obs) = self.scene_id();
                Request::Path { scene, source: self.gen.point(obs.as_ref()), target: self.gen.point(obs.as_ref()) }
            }
            4 | 5 => {
                let (scene, obs) = self.scene_id();
                Request::BatchDistances { scene, pairs: self.gen.pairs(obs.as_ref()) }
            }
            6 => {
                let (scene, obs) = self.scene_id();
                Request::BatchPaths { scene, pairs: self.gen.pairs(obs.as_ref()) }
            }
            7 => {
                let (base, obs) = self.scene_id();
                Request::UpdateScene { base, delta: self.gen.delta(obs.as_ref()) }
            }
            _ => match self.gen.below(2) {
                0 => Request::Stats,
                _ => Request::Evict { scene: self.scene_id().0 },
            },
        }
    }

    /// Check one answer against the ground truth; returns a failure message.
    fn check(&mut self, request: &Request, response: &Response) -> Result<(), String> {
        let scene_of = |id: &SceneId| self.known.get(id).cloned().ok_or(format!("answered unknown scene {id}"));
        let exact = |obs: &ObstacleSet, a: Point, b: Point, got: i64| {
            let want = ground_truth_distance(obs, a, b);
            if got == want {
                Ok(())
            } else {
                Err(format!("{a:?} -> {b:?}: answered {got}, ground truth {want}"))
            }
        };
        match (request, response) {
            (_, Response::Error { error }) => match error {
                ServerError::Internal { .. } | ServerError::ShuttingDown | ServerError::TooManyConnections { .. } => {
                    Err(format!("untyped failure {error:?}"))
                }
                _ => Ok(()),
            },
            (Request::LoadScene { obstacles }, Response::SceneLoaded { scene, obstacles: n }) => {
                if *scene != obstacles.scene_hash() || *n != obstacles.len() {
                    return Err(format!("loaded as ({scene}, {n})"));
                }
                self.known.insert(*scene, obstacles.clone());
                Ok(())
            }
            (Request::Distance { scene, a, b }, Response::Distance { length }) => {
                exact(&scene_of(scene)?, *a, *b, *length)
            }
            (Request::Path { scene, source, target }, Response::Path { path }) => {
                let obs = scene_of(scene)?;
                if !path.avoids(&obs) {
                    return Err(format!("path {source:?} -> {target:?} enters an obstacle"));
                }
                exact(&obs, *source, *target, path.length())
            }
            (Request::BatchDistances { scene, pairs }, Response::Distances { lengths }) => {
                let obs = scene_of(scene)?;
                if lengths.len() != pairs.len() {
                    return Err(format!("{} answers for {} pairs", lengths.len(), pairs.len()));
                }
                pairs.iter().zip(lengths).try_for_each(|(&(a, b), &d)| exact(&obs, a, b, d))
            }
            (Request::BatchPaths { scene, pairs }, Response::Paths { paths }) => {
                let obs = scene_of(scene)?;
                if paths.len() != pairs.len() {
                    return Err(format!("{} paths for {} pairs", paths.len(), pairs.len()));
                }
                pairs.iter().zip(paths).try_for_each(|(&(a, b), path)| {
                    if !path.avoids(&obs) {
                        return Err(format!("path {a:?} -> {b:?} enters an obstacle"));
                    }
                    exact(&obs, a, b, path.length())
                })
            }
            (Request::UpdateScene { base, delta }, Response::SceneUpdated { scene, obstacles: n, .. }) => {
                let edited = scene_of(base)?.apply_delta(delta).map_err(|e| format!("accepted a bad delta: {e:?}"))?;
                if *scene != edited.obstacles.scene_hash() || *n != edited.obstacles.len() {
                    return Err(format!("edit answered as ({scene}, {n})"));
                }
                self.known.insert(*scene, edited.obstacles);
                Ok(())
            }
            (Request::Stats, Response::Stats { .. }) | (Request::Evict { .. }, Response::Evicted { .. }) => Ok(()),
            _ => Err("answered with the wrong kind of response".to_string()),
        }
    }
}

/// Send `request` and wait for its response, at most [`DEADLINE`].
fn round_trip(stream: &mut TcpStream, request: &Request) -> Result<Response, String> {
    write_message(stream, request).map_err(|e| format!("send failed: {e:?}"))?;
    read_message(stream).map_err(|e| format!("no response before the deadline: {e:?}"))
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(DEADLINE)).expect("read timeout");
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A script of 32 arbitrary requests on one connection: every request
    /// is answered in time with a typed response, every answer matches the
    /// ground truth, and afterwards the server still serves a fresh
    /// connection.
    #[test]
    fn arbitrary_requests_get_typed_timely_answers_and_the_server_survives(seed in any::<u64>()) {
        let config = ServiceConfig { shards: 2, session_capacity: 3, ..ServiceConfig::default() };
        let mut server = Server::bind("127.0.0.1:0", RspService::new(config)).expect("bind");
        let mut stream = connect(&server);
        let mut script = Script { gen: Gen(seed), known: HashMap::new() };
        for step in 0..32 {
            let request = script.request();
            let outcome = round_trip(&mut stream, &request).and_then(|response| script.check(&request, &response));
            prop_assert!(outcome.is_ok(), "seed {seed}, step {step}, {request:?}: {}", outcome.unwrap_err());
        }
        let mut fresh = connect(&server);
        let good = uniform_disjoint(3, seed).obstacles;
        let loaded = round_trip(&mut fresh, &Request::LoadScene { obstacles: good.clone() });
        prop_assert!(
            matches!(loaded, Ok(Response::SceneLoaded { scene, .. }) if scene == good.scene_hash()),
            "seed {seed}: the server stopped serving: {loaded:?}"
        );
        server.shutdown();
    }
}
