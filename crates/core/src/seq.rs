//! Section 9: single-source shortest path lengths to all obstacle vertices by
//! topological relaxation of monotone DAGs — the per-source routine behind
//! every distance row (the `O(n^2)`-style sequential all-pairs construction
//! is [`VertexApsp::build_sequential`](crate::apsp::VertexApsp::build_sequential)).
//!
//! For a source `v`, the plane is covered by four regions delimited by escape
//! paths from `v` (Fig. 5 / Section 9, following de Rezende–Lee–Wu [11]):
//! targets in the region to the right of `NE(v) ∪ SE(v)` have an x-monotone
//! shortest path with `v` as its left endpoint (Case (i)); the other three
//! cases are the reflections/transpositions of this one.  Within Case (i) the
//! length to a target `w` is either `d(v, w)` — when the leftward ray from
//! `w` reaches `NE(v) ∪ SE(v)` before any obstacle — or it goes through one
//! of the two right-edge vertices of the first obstacle hit by that ray.
//! Processing targets by increasing `x` therefore resolves all lengths in one
//! topological sweep.
//!
//! Two properties make the implementation below robust:
//!
//! * every value the sweep assigns is the length of some valid
//!   obstacle-avoiding path (so it can never *under*-estimate), and
//! * for targets inside the case's region the assigned value is exactly the
//!   shortest-path length (the paper's argument).
//!
//! Taking the minimum over the four symmetric cases therefore yields exact
//! distances for every obstacle vertex.

use rsp_geom::rayshoot::ShootIndex;
use rsp_geom::{Dist, ObstacleSet, Point, Rect, StairRegion, INF};
use std::collections::HashMap;

use crate::trace::{escape_path, EscapeKind};

/// The four coordinate transforms mapping each monotone case onto the
/// canonical "x-monotone, source on the left" case.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CaseTransform {
    /// Case (i): x-monotone, source is the left endpoint.
    Identity,
    /// Case (ii): x-monotone, source is the right endpoint.
    ReflectX,
    /// Case (iii): y-monotone, source is the lower endpoint.
    SwapXY,
    /// Case (iv): y-monotone, source is the upper endpoint.
    SwapReflect,
}

impl CaseTransform {
    const ALL: [CaseTransform; 4] =
        [CaseTransform::Identity, CaseTransform::ReflectX, CaseTransform::SwapXY, CaseTransform::SwapReflect];

    /// All four transforms are involutions, so the same map is used in both
    /// directions.
    fn apply(self, p: Point) -> Point {
        match self {
            CaseTransform::Identity => p,
            CaseTransform::ReflectX => Point::new(-p.x, p.y),
            CaseTransform::SwapXY => Point::new(p.y, p.x),
            CaseTransform::SwapReflect => Point::new(-p.y, -p.x),
        }
    }

    fn apply_rect(self, r: &Rect) -> Rect {
        let a = self.apply(Point::new(r.xmin, r.ymin));
        let b = self.apply(Point::new(r.xmax, r.ymax));
        Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }
}

struct TransformedView {
    transform: CaseTransform,
    obstacles: ObstacleSet,
    index: ShootIndex,
    /// transformed vertex points, parallel to the *original* vertex indexing
    vertices: Vec<Point>,
    region: StairRegion,
}

/// Single-source engine over a fixed obstacle set.  Preprocessing is done
/// once (`O(n log n)`); each [`SingleSourceEngine::distances_from`] call then
/// costs `O(n log n)` — the role of the de Rezende–Lee–Wu structure in the
/// paper's Section 9 baseline.
pub struct SingleSourceEngine {
    views: Vec<TransformedView>,
    num_vertices: usize,
    original_vertices: Vec<Point>,
}

impl SingleSourceEngine {
    /// Preprocess an obstacle set: build the four case-transformed views and
    /// their ray-shooting indices (Section 9).
    pub fn new(obstacles: &ObstacleSet) -> Self {
        let original_vertices = obstacles.vertices();
        let views = CaseTransform::ALL
            .iter()
            .map(|&t| {
                let rects: Vec<Rect> = obstacles.iter().map(|r| t.apply_rect(r)).collect();
                let tobs = ObstacleSet::new(rects);
                let index = ShootIndex::build(&tobs);
                let vertices: Vec<Point> = original_vertices.iter().map(|&p| t.apply(p)).collect();
                let bbox = tobs.bbox().unwrap_or(Rect::new(-1, -1, 1, 1)).expand(4);
                TransformedView { transform: t, obstacles: tobs, index, vertices, region: StairRegion::from_rect(bbox) }
            })
            .collect();
        SingleSourceEngine { views, num_vertices: original_vertices.len(), original_vertices }
    }

    /// The obstacle vertices, in the indexing used by the returned distance
    /// vectors.
    pub fn vertices(&self) -> &[Point] {
        &self.original_vertices
    }

    /// Exact shortest-path distances from `source` to every obstacle vertex.
    pub fn distances_from(&self, source: Point) -> Vec<Dist> {
        let mut dist = vec![INF; self.num_vertices];
        for view in &self.views {
            let tsource = view.transform.apply(source);
            let case = monotone_case_distances(&view.obstacles, &view.index, &view.region, &view.vertices, tsource);
            for (d, best) in case.into_iter().zip(dist.iter_mut()) {
                if d < *best {
                    *best = d;
                }
            }
        }
        dist
    }
}

/// Case (i) sweep: upper bounds on distances from `source` to each vertex
/// (exact for vertices in the region right of `NE(source) ∪ SE(source)`).
fn monotone_case_distances(
    obstacles: &ObstacleSet,
    index: &ShootIndex,
    region: &StairRegion,
    vertices: &[Point],
    source: Point,
) -> Vec<Dist> {
    let mut dist = vec![INF; vertices.len()];
    // region must contain the source for the escape traces
    let region = if region.contains(source) {
        region.clone()
    } else {
        let bbox = region.bbox();
        let srect = Rect::new(source.x - 1, source.y - 1, source.x + 1, source.y + 1);
        StairRegion::from_rect(bbox.union(&srect).expand(2))
    };
    if obstacles.containing_obstacle(source).is_some() {
        return dist;
    }
    let ne = escape_path(obstacles, index, &region, source, EscapeKind::NE);
    let se = escape_path(obstacles, index, &region, source, EscapeKind::SE);
    // index vertices by point for the u1/u2 lookups
    let mut by_point: HashMap<Point, Vec<usize>> = HashMap::new();
    for (i, &p) in vertices.iter().enumerate() {
        by_point.entry(p).or_default().push(i);
    }
    // process targets by increasing x (then y for determinism)
    let mut order: Vec<usize> = (0..vertices.len()).filter(|&i| vertices[i].x >= source.x).collect();
    order.sort_by_key(|&i| (vertices[i].x, vertices[i].y));
    let crossing_before = |w: Point, x_obstacle: Option<i64>| -> bool {
        // does the leftward ray from w reach NE ∪ SE no later than the first
        // obstacle?
        let mut best_chain_x: Option<i64> = None;
        for chain in [&ne, &se] {
            if let Some((lo, hi)) = chain.intersect_horizontal(w.y) {
                let candidate = if hi <= w.x {
                    Some(hi)
                } else if lo <= w.x {
                    Some(w.x) // w lies in the chain's span at this y (on the chain)
                } else {
                    None
                };
                if let Some(c) = candidate {
                    best_chain_x = Some(best_chain_x.map_or(c, |b: i64| b.max(c)));
                }
            }
        }
        match (best_chain_x, x_obstacle) {
            (Some(cx), Some(ox)) => cx >= ox,
            (Some(_), None) => true,
            (None, _) => false,
        }
    };
    for i in order {
        let w = vertices[i];
        if w == source {
            dist[i] = 0;
            continue;
        }
        let hit = index.shoot(w, rsp_geom::Dir::West);
        let x_obstacle = hit.map(|h| h.point.x);
        let mut best = INF;
        if crossing_before(w, x_obstacle) {
            best = source.l1(w);
        } else if let Some(h) = hit {
            let r = obstacles.rect(h.rect);
            for u in [r.lr(), r.ur()] {
                if let Some(ids) = by_point.get(&u) {
                    for &ui in ids {
                        if dist[ui] < INF {
                            best = best.min(dist[ui] + u.l1(w));
                        }
                    }
                }
            }
        }
        if best < dist[i] {
            dist[i] = best;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rsp_geom::hanan::ground_truth_matrix;

    fn random_disjoint(n: usize, seed: u64) -> ObstacleSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = (n as f64).sqrt().ceil() as i64 + 1;
        let cell = 16i64;
        let mut cells: Vec<(i64, i64)> = (0..side).flat_map(|i| (0..side).map(move |j| (i, j))).collect();
        for i in (1..cells.len()).rev() {
            let j = rng.gen_range(0..=i);
            cells.swap(i, j);
        }
        let rects: Vec<Rect> = cells
            .iter()
            .take(n)
            .map(|&(ci, cj)| {
                let x0 = ci * cell + rng.gen_range(1i64..5);
                let y0 = cj * cell + rng.gen_range(1i64..5);
                Rect::new(x0, y0, x0 + rng.gen_range(2i64..9), y0 + rng.gen_range(2i64..9))
            })
            .collect();
        ObstacleSet::new(rects)
    }

    #[test]
    fn single_wall_distances() {
        let obs = ObstacleSet::new(vec![Rect::new(4, -10, 6, 10)]);
        let engine = SingleSourceEngine::new(&obs);
        let d = engine.distances_from(Point::new(0, 0));
        let verts = engine.vertices();
        for (i, &v) in verts.iter().enumerate() {
            let expect = rsp_geom::hanan::ground_truth_distance(&obs, Point::new(0, 0), v);
            assert_eq!(d[i], expect, "vertex {:?}", v);
        }
    }

    #[test]
    fn matches_ground_truth_on_random_instances() {
        for seed in 0..6 {
            let obs = random_disjoint(10, seed);
            let verts = obs.vertices();
            let truth = ground_truth_matrix(&obs, &verts);
            let engine = SingleSourceEngine::new(&obs);
            for (i, &v) in verts.iter().enumerate() {
                let d = engine.distances_from(v);
                for j in 0..verts.len() {
                    assert_eq!(d[j], truth[i][j], "seed {seed}: {:?} -> {:?}", v, verts[j]);
                }
            }
        }
    }

    #[test]
    fn sequential_apsp_is_symmetric_and_matches_truth() {
        let obs = random_disjoint(8, 42);
        let verts = obs.vertices();
        let apsp = crate::apsp::VertexApsp::build_sequential(&obs);
        let truth = ground_truth_matrix(&obs, &verts);
        for (i, row) in truth.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(apsp.distance(i, j), d);
                assert_eq!(apsp.distance(i, j), apsp.distance(j, i));
            }
        }
    }

    #[test]
    fn source_can_be_an_arbitrary_point() {
        let obs = random_disjoint(9, 7);
        let engine = SingleSourceEngine::new(&obs);
        let source = Point::new(-3, -5);
        let d = engine.distances_from(source);
        for (j, &w) in engine.vertices().iter().enumerate() {
            let expect = rsp_geom::hanan::ground_truth_distance(&obs, source, w);
            assert_eq!(d[j], expect, "target {:?}", w);
        }
    }

    #[test]
    fn no_obstacles_gives_l1() {
        let obs = ObstacleSet::new(vec![Rect::new(100, 100, 101, 101)]);
        let engine = SingleSourceEngine::new(&obs);
        let d = engine.distances_from(Point::new(0, 0));
        assert_eq!(d[0], 200);
    }
}
