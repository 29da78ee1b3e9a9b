//! Section 9: shortest path lengths from a source to every obstacle vertex by
//! topological relaxation of monotone DAGs — one row at a time
//! ([`SingleSourceEngine::distances_from`], behind every implicit-store row),
//! or every vertex row in one all-pairs pass (behind the dense matrix).
//!
//! For a source `v`, the plane is covered by four regions delimited by escape
//! paths from `v` (Fig. 5 / Section 9, following de Rezende–Lee–Wu \[11\]):
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
//!
//! The four cases are four frames of one scene.  Each frame keeps only its
//! transformed rectangles, vertices and clip region (`O(n)`); all four shoot
//! their rays through one [`ObstacleIndex`] of the untransformed scene, by
//! mapping each shot into the original frame and its hit back.  A router
//! hands the engine the index its query oracle already carries across scene
//! edits, so an engine costs `O(n)` on top of that shared index.
//!
//! # The all-pairs pass
//!
//! Much of a case sweep does not depend on the source: which vertices sit at
//! a rectangle's right corners, the order of the targets by `(x, y)`, and
//! where each target's leftward ray stops.  A single row computes these for
//! itself, only for the targets right of its source: it sorts them, shoots
//! on demand, and finds corner vertices by binary search in its order, so it
//! allocates nothing per vertex.  A pass over many sources builds them once
//! per case frame and shares them: the sorted order of *all* vertices (each
//! source sweeps its suffix with `x >= source.x`, found by `partition_point`;
//! the sort is stable, so this is the order a single row builds), every
//! vertex's West hit, and per rectangle the vertices at its two right
//! corners, found by the same search.  The sweep body is the one a single
//! row runs, so a row of the pass equals
//! [`SingleSourceEngine::distances_from`] bitwise.
//!
//! When the sources are every vertex, the pass sweeps only Cases (i) and
//! (iii) per source and completes the matrix by symmetry,
//! `D[v][w] = min(H[v][w], H[w][v])` with `H` the two-case minimum.  This is
//! exact, for three reasons:
//!
//! 1. Cases (ii) and (iv) are Cases (i) and (iii) with the endpoints
//!    swapped: a path that is x-monotone with `v` on the right is x-monotone
//!    with `w` on the left, and likewise for y and the upper endpoint.
//! 2. Case (i)'s sweep from `v` is exact at every `w` that some shortest
//!    path reaches x-monotonically with `v` on the left (such a `w` lies in
//!    the region right of `NE(v) ∪ SE(v)`, where the sweep is exact); Case
//!    (iii) likewise for y-monotone paths with `v` below.
//! 3. Among disjoint rectangles every pair of points has a shortest path
//!    that is monotone in x or in y \[11\].
//!
//! So for every pair one of `H[v][w]`, `H[w][v]` is the distance, and
//! neither is below it (every swept value is the length of a real path):
//! the minimum is the distance the four-case row holds, bit for bit.  A
//! pass over other sources (a subset of the vertices, or points that are
//! not vertices) sweeps all four cases, so each of its rows is exact on its
//! own.

use rayon::prelude::*;
use rsp_geom::rayshoot::{Hit, Shoot, ShootIndex};
use rsp_geom::{Dir, Dist, ObstacleIndex, ObstacleSet, Point, Rect, StairRegion, INF};
use std::sync::Arc;

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

    /// The direction `dir` maps to; an involution like [`CaseTransform::apply`].
    fn apply_dir(self, dir: Dir) -> Dir {
        match (self, dir) {
            (CaseTransform::Identity, d) => d,
            (CaseTransform::ReflectX, Dir::East) => Dir::West,
            (CaseTransform::ReflectX, Dir::West) => Dir::East,
            (CaseTransform::ReflectX, d) => d,
            (CaseTransform::SwapXY, Dir::North) => Dir::East,
            (CaseTransform::SwapXY, Dir::East) => Dir::North,
            (CaseTransform::SwapXY, Dir::South) => Dir::West,
            (CaseTransform::SwapXY, Dir::West) => Dir::South,
            (CaseTransform::SwapReflect, Dir::North) => Dir::West,
            (CaseTransform::SwapReflect, Dir::West) => Dir::North,
            (CaseTransform::SwapReflect, Dir::South) => Dir::East,
            (CaseTransform::SwapReflect, Dir::East) => Dir::South,
        }
    }

    fn apply_rect(self, r: &Rect) -> Rect {
        let a = self.apply(Point::new(r.xmin, r.ymin));
        let b = self.apply(Point::new(r.xmax, r.ymax));
        Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }
}

/// Ray shots in a view's frame, answered by the index of the untransformed
/// scene: the shot is mapped into the original frame and its hit point
/// mapped back.  A transform is an isometry that keeps every rectangle's id,
/// so the hit equals the one an index of the transformed scene would report
/// (on disjoint input no two facing edges tie, so the id is unambiguous).
struct ViewShooter<'a> {
    index: &'a ShootIndex,
    transform: CaseTransform,
}

impl Shoot for ViewShooter<'_> {
    fn shoot(&self, p: Point, dir: Dir) -> Option<Hit> {
        let t = self.transform;
        let hit = self.index.shoot(t.apply(p), t.apply_dir(dir))?;
        Some(Hit { rect: hit.rect, point: t.apply(hit.point) })
    }
}

/// One case's frame: the scene under its transform.  Everything here is
/// `O(n)`; ray shots go through the engine's shared index.
struct TransformedView {
    transform: CaseTransform,
    /// transformed obstacles, in the original id order
    obstacles: ObstacleSet,
    /// transformed vertex points, parallel to the *original* vertex indexing
    vertices: Vec<Point>,
    region: StairRegion,
}

/// Single-source engine over a fixed obstacle set.  Preprocessing is `O(n)`
/// on top of an [`ObstacleIndex`] of the scene (the four case-transformed
/// views share it); each [`SingleSourceEngine::distances_from`] call then
/// costs `O(n log n)` — the role of the de Rezende–Lee–Wu structure in the
/// paper's Section 9 baseline.  Its all-pairs pass builds every vertex row
/// at once (see the module docs).
///
/// **Precondition:** the obstacles must have pairwise-disjoint interiors
/// (the paper's input model; check with
/// [`ObstacleSet::validate_disjoint`]).  Source containment is answered by
/// [`ObstacleIndex::containing_obstacle`], which relies on it.
pub struct SingleSourceEngine {
    index: Arc<ObstacleIndex>,
    views: Vec<TransformedView>,
    original_vertices: Vec<Point>,
}

impl SingleSourceEngine {
    /// Preprocess an obstacle set: build its [`ObstacleIndex`] and the four
    /// case-transformed views (Section 9).
    pub fn new(obstacles: &ObstacleSet) -> Self {
        Self::with_index(obstacles, Arc::new(ObstacleIndex::build(obstacles)))
    }

    /// Preprocess an obstacle set whose [`ObstacleIndex`] is already built
    /// (the oracle's, shared rather than rebuilt): only the `O(n)` views.
    pub(crate) fn with_index(obstacles: &ObstacleSet, index: Arc<ObstacleIndex>) -> Self {
        debug_assert_eq!(index.len(), obstacles.len(), "index must describe the same scene");
        let original_vertices = obstacles.vertices();
        let views = CaseTransform::ALL
            .iter()
            .map(|&t| {
                let tobs = ObstacleSet::new(obstacles.iter().map(|r| t.apply_rect(r)).collect());
                let vertices: Vec<Point> = original_vertices.iter().map(|&p| t.apply(p)).collect();
                let bbox = tobs.bbox().unwrap_or(Rect::new(-1, -1, 1, 1)).expand(4);
                TransformedView { transform: t, obstacles: tobs, vertices, region: StairRegion::from_rect(bbox) }
            })
            .collect();
        SingleSourceEngine { index, views, original_vertices }
    }

    /// The obstacle vertices, in the indexing used by the returned distance
    /// vectors.
    pub fn vertices(&self) -> &[Point] {
        &self.original_vertices
    }

    /// The index every view shoots through.
    #[cfg(test)]
    pub(crate) fn obstacle_index(&self) -> &Arc<ObstacleIndex> {
        &self.index
    }

    fn shooter(&self, view: &TransformedView) -> ViewShooter<'_> {
        ViewShooter { index: self.index.shoot_index(), transform: view.transform }
    }

    /// Exact shortest-path distances from `source` to every obstacle vertex
    /// (all `INF` when `source` lies strictly inside an obstacle).
    pub fn distances_from(&self, source: Point) -> Vec<Dist> {
        let mut dist = vec![INF; self.original_vertices.len()];
        if self.index.containing_obstacle(source).is_some() {
            return dist;
        }
        for view in &self.views {
            let tsource = view.transform.apply(source);
            let case =
                monotone_case_distances(&view.obstacles, &self.shooter(view), &view.region, &view.vertices, tsource);
            take_min(&mut dist, case);
        }
        dist
    }

    /// The vertex-to-vertex matrix, one row per vertex in [`Self::vertices`]
    /// order: the all-pairs pass over every vertex, two cases per source,
    /// completed by symmetry (see the module docs).  Equal bitwise to
    /// [`Self::distances_from`] on each vertex.  Sources fan out over the
    /// rayon pool when `parallel`, and run on the caller's thread otherwise.
    pub(crate) fn vertex_rows(&self, parallel: bool) -> Vec<Vec<Dist>> {
        let mut rows = self.pass(&self.original_vertices, &[CaseTransform::Identity, CaseTransform::SwapXY], parallel);
        for i in 0..rows.len() {
            let (upper, lower) = rows.split_at_mut(i + 1);
            let row_i = &mut upper[i];
            for (row_j, d_ij) in lower.iter_mut().zip(&mut row_i[i + 1..]) {
                let d = (*d_ij).min(row_j[i]);
                *d_ij = d;
                row_j[i] = d;
            }
        }
        rows
    }

    /// One row per source, each the four-case minimum through tables shared
    /// by the whole pass: equal bitwise to [`Self::distances_from`] on each
    /// source, which need not be a vertex.  Sources fan out over the rayon
    /// pool.
    pub(crate) fn rows_from(&self, sources: &[Point]) -> Vec<Vec<Dist>> {
        self.pass(sources, &CaseTransform::ALL, true)
    }

    /// The all-pairs pass: the source-independent tables of the `cases`
    /// views, built once, then every source's sweeps of those views.
    fn pass(&self, sources: &[Point], cases: &[CaseTransform], parallel: bool) -> Vec<Vec<Dist>> {
        let tables: Vec<(&TransformedView, ViewTables)> = self
            .views
            .iter()
            .filter(|view| cases.contains(&view.transform))
            .map(|view| (view, ViewTables::build(view, &self.shooter(view))))
            .collect();
        let row = |&source: &Point| {
            let mut dist = vec![INF; self.original_vertices.len()];
            if self.index.containing_obstacle(source).is_some() {
                return dist;
            }
            for (view, tables) in &tables {
                let tsource = view.transform.apply(source);
                let start = tables.order.partition_point(|&i| view.vertices[i].x < tsource.x);
                let case = sweep_case(
                    &view.obstacles,
                    &self.shooter(view),
                    &view.region,
                    &view.vertices,
                    tsource,
                    &tables.order[start..],
                    tables,
                );
                take_min(&mut dist, case);
            }
            dist
        };
        if parallel {
            sources.par_iter().map(row).collect()
        } else {
            sources.iter().map(row).collect()
        }
    }
}

/// Lower each entry of `dist` to the matching entry of `case`.
fn take_min(dist: &mut [Dist], case: Vec<Dist>) {
    for (d, best) in case.into_iter().zip(dist.iter_mut()) {
        if d < *best {
            *best = d;
        }
    }
}

/// The source-independent inputs a case sweep reads per target: where the
/// target's leftward ray stops, and which vertices sit at the right corners
/// of the rectangle it stops at.
trait WestHits {
    /// The first obstacle the West ray from target `i`, at `w`, hits.
    fn west_hit(&self, i: usize, w: Point) -> Option<Hit>;

    /// The vertices at the lower-right and upper-right corners of `hit`'s
    /// rectangle.
    fn right_corners(&self, hit: Hit) -> [&[usize]; 2];
}

/// A single row's targets: each West ray shot when the sweep reaches it,
/// corners found by binary search in the row's target order.  A vertex left
/// of the source is missing from it, but keeps `INF` and could relax nothing.
struct RowTargets<'a, S> {
    shooter: &'a S,
    obstacles: &'a ObstacleSet,
    vertices: &'a [Point],
    order: &'a [usize],
}

impl<S: Shoot> WestHits for RowTargets<'_, S> {
    fn west_hit(&self, _: usize, w: Point) -> Option<Hit> {
        self.shooter.shoot(w, Dir::West)
    }

    fn right_corners(&self, hit: Hit) -> [&[usize]; 2] {
        let r = self.obstacles.rect(hit.rect);
        [r.lr(), r.ur()].map(|u| vertices_at(self.order, self.vertices, u))
    }
}

/// The vertices of `order` (by `(x, y)`, then index) at `u`: one run of it.
fn vertices_at<'a>(order: &'a [usize], vertices: &[Point], u: Point) -> &'a [usize] {
    let start = order.partition_point(|&i| (vertices[i].x, vertices[i].y) < (u.x, u.y));
    let len = order[start..].iter().take_while(|&&i| vertices[i] == u).count();
    &order[start..start + len]
}

/// One case view's source-independent tables, built once per all-pairs pass
/// and freed with it.
struct ViewTables {
    /// Every vertex, by `(x, y)` and then by index.
    order: Vec<usize>,
    /// Each vertex's West hit.
    west: Vec<Option<Hit>>,
    /// Per rectangle, the vertices at its lower-right and upper-right
    /// corners, in index order.
    right_corners: Vec<[Vec<usize>; 2]>,
}

impl ViewTables {
    fn build(view: &TransformedView, shooter: &impl Shoot) -> Self {
        let mut order: Vec<usize> = (0..view.vertices.len()).collect();
        order.sort_by_key(|&i| (view.vertices[i].x, view.vertices[i].y));
        let west = view.vertices.iter().map(|&w| shooter.shoot(w, Dir::West)).collect();
        let at = |u: Point| vertices_at(&order, &view.vertices, u).to_vec();
        let right_corners = view.obstacles.iter().map(|r| [at(r.lr()), at(r.ur())]).collect();
        ViewTables { order, west, right_corners }
    }
}

impl WestHits for ViewTables {
    fn west_hit(&self, i: usize, _: Point) -> Option<Hit> {
        self.west[i]
    }

    fn right_corners(&self, hit: Hit) -> [&[usize]; 2] {
        let [lr, ur] = &self.right_corners[hit.rect];
        [lr, ur]
    }
}

/// Case (i) sweep of a single row: upper bounds on distances from `source`
/// to each vertex (exact for vertices in the region right of
/// `NE(source) ∪ SE(source)`).  `source` must not lie strictly inside an
/// obstacle.  Sorts its own targets and shoots each West ray on demand.
fn monotone_case_distances(
    obstacles: &ObstacleSet,
    index: &impl Shoot,
    region: &StairRegion,
    vertices: &[Point],
    source: Point,
) -> Vec<Dist> {
    // process targets by increasing x (then y for determinism)
    let mut order: Vec<usize> = (0..vertices.len()).filter(|&i| vertices[i].x >= source.x).collect();
    order.sort_by_key(|&i| (vertices[i].x, vertices[i].y));
    let targets = RowTargets { shooter: index, obstacles, vertices, order: &order };
    sweep_case(obstacles, index, region, vertices, source, &order, &targets)
}

/// The Case (i) sweep body, shared by single rows and the all-pairs pass:
/// relax the targets `order` (every vertex with `x >= source.x`, by `(x, y)`
/// and then by index) reading their West hits from `targets`.
fn sweep_case(
    obstacles: &ObstacleSet,
    index: &impl Shoot,
    region: &StairRegion,
    vertices: &[Point],
    source: Point,
    order: &[usize],
    targets: &impl WestHits,
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
    let ne = escape_path(obstacles, index, &region, source, EscapeKind::NE);
    let se = escape_path(obstacles, index, &region, source, EscapeKind::SE);
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
    for &i in order {
        let w = vertices[i];
        if w == source {
            dist[i] = 0;
            continue;
        }
        let hit = targets.west_hit(i, w);
        let x_obstacle = hit.map(|h| h.point.x);
        let mut best = INF;
        if crossing_before(w, x_obstacle) {
            best = source.l1(w);
        } else if let Some(h) = hit {
            let r = obstacles.rect(h.rect);
            for (u, ids) in [r.lr(), r.ur()].into_iter().zip(targets.right_corners(h)) {
                for &ui in ids {
                    if dist[ui] < INF {
                        best = best.min(dist[ui] + u.l1(w));
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
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rsp_geom::hanan::ground_truth_matrix;
    use rsp_geom::rayshoot::shoot_naive;
    use rsp_workload::{clustered, corridors, uniform_disjoint};
    use std::collections::HashMap;

    /// A reference row's targets: each West ray shot when the sweep reaches
    /// it, corners looked up in a vertex-by-point map built for the row.
    struct MapTargets<'a, S> {
        shooter: &'a S,
        obstacles: &'a ObstacleSet,
        by_point: HashMap<Point, Vec<usize>>,
    }

    impl<S: Shoot> WestHits for MapTargets<'_, S> {
        fn west_hit(&self, _: usize, w: Point) -> Option<Hit> {
            self.shooter.shoot(w, Dir::West)
        }

        fn right_corners(&self, hit: Hit) -> [&[usize]; 2] {
            let r = self.obstacles.rect(hit.rect);
            [r.lr(), r.ur()].map(|u| self.by_point.get(&u).map_or(&[][..], Vec::as_slice))
        }
    }

    /// The reference's Case (i) sweep: [`monotone_case_distances`] with
    /// every vertex, left of the source or not, indexed by point in a map.
    fn map_case_distances(
        obstacles: &ObstacleSet,
        index: &impl Shoot,
        region: &StairRegion,
        vertices: &[Point],
        source: Point,
    ) -> Vec<Dist> {
        let mut by_point: HashMap<Point, Vec<usize>> = HashMap::new();
        for (i, &p) in vertices.iter().enumerate() {
            by_point.entry(p).or_default().push(i);
        }
        let mut order: Vec<usize> = (0..vertices.len()).filter(|&i| vertices[i].x >= source.x).collect();
        order.sort_by_key(|&i| (vertices[i].x, vertices[i].y));
        let targets = MapTargets { shooter: index, obstacles, by_point };
        sweep_case(obstacles, index, region, vertices, source, &order, &targets)
    }

    /// The bitwise reference for [`SingleSourceEngine`], sharing only the
    /// sweep body with it: every view builds a [`ShootIndex`] over its own
    /// transformed copy of the scene, scans that copy for source
    /// containment and looks corners up in a vertex map.
    struct ReferenceEngine {
        views: Vec<(TransformedView, ShootIndex)>,
        num_vertices: usize,
    }

    impl ReferenceEngine {
        fn new(obstacles: &ObstacleSet) -> Self {
            let engine = SingleSourceEngine::new(obstacles);
            let num_vertices = engine.original_vertices.len();
            let views = engine
                .views
                .into_iter()
                .map(|view| {
                    let index = ShootIndex::build(&view.obstacles);
                    (view, index)
                })
                .collect();
            ReferenceEngine { views, num_vertices }
        }

        fn distances_from(&self, source: Point) -> Vec<Dist> {
            let mut dist = vec![INF; self.num_vertices];
            for (view, index) in &self.views {
                let tsource = view.transform.apply(source);
                if view.obstacles.containing_obstacle(tsource).is_some() {
                    continue;
                }
                let case = map_case_distances(&view.obstacles, index, &view.region, &view.vertices, tsource);
                for (d, best) in case.into_iter().zip(dist.iter_mut()) {
                    if d < *best {
                        *best = d;
                    }
                }
            }
            dist
        }
    }

    /// Grid tiles with random row and column widths: neighbouring tiles
    /// share whole edges and corners.  The grid is 5 × 5 up to `n = 15` and
    /// grows with `n` beyond, keeping about 60% of its cells.
    fn touching_tiles(n: usize, seed: u64) -> ObstacleSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = 5.max((n as f64 / 0.6).sqrt().ceil() as usize);
        let mut cuts = || -> Vec<i64> {
            let mut c = vec![rng.gen_range(-10i64..10)];
            for _ in 0..side {
                let last = *c.last().unwrap();
                c.push(last + rng.gen_range(1i64..6));
            }
            c
        };
        let (xs, ys) = (cuts(), cuts());
        let mut rects = Vec::new();
        for i in 0..side {
            for j in 0..side {
                if rects.len() < n && (rects.is_empty() || rng.gen_range(0..10) < 6) {
                    rects.push(Rect::new(xs[i], ys[j], xs[i + 1], ys[j + 1]));
                }
            }
        }
        ObstacleSet::new(rects)
    }

    /// A scene of one of the workload families (`family` 0–2), or touching
    /// tiles (3).
    fn scene(family: u8, n: usize, seed: u64) -> ObstacleSet {
        match family {
            0 => uniform_disjoint(n, seed).obstacles,
            1 => clustered(n, 1 + (seed % 3) as usize, seed).obstacles,
            2 => corridors(1 + n / 2, 40, seed).obstacles,
            _ => touching_tiles(n, seed),
        }
    }

    /// Points the sweeps and shots start from: every obstacle corner, edge
    /// midpoints and random edge points, the corners of a box around the
    /// scene, points outside it and random points anywhere near it.
    fn probes(obstacles: &ObstacleSet, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let bbox = obstacles.bbox().expect("scenes are non-empty");
        let mut pts = obstacles.vertices();
        for r in obstacles.iter() {
            let (mx, my) = ((r.xmin + r.xmax) / 2, (r.ymin + r.ymax) / 2);
            pts.extend([
                Point::new(mx, r.ymin),
                Point::new(mx, r.ymax),
                Point::new(r.xmin, my),
                Point::new(r.xmax, my),
            ]);
            pts.push(Point::new(rng.gen_range(r.xmin..=r.xmax), r.ymax));
            pts.push(Point::new(r.xmin, rng.gen_range(r.ymin..=r.ymax)));
        }
        pts.extend(bbox.expand(3).corners());
        let outer = bbox.expand(40);
        for _ in 0..8 {
            let y = rng.gen_range(outer.ymin..=outer.ymax);
            let x = rng.gen_range(outer.xmin..=outer.xmax);
            pts.push(Point::new(bbox.xmin - rng.gen_range(1i64..40), y));
            pts.push(Point::new(bbox.xmax + rng.gen_range(1i64..40), y));
            pts.push(Point::new(x, bbox.ymin - rng.gen_range(1i64..40)));
            pts.push(Point::new(x, bbox.ymax + rng.gen_range(1i64..40)));
        }
        let near = bbox.expand(5);
        for _ in 0..16 {
            pts.push(Point::new(rng.gen_range(near.xmin..=near.xmax), rng.gen_range(near.ymin..=near.ymax)));
        }
        pts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Shooting through the shared index in a view's frame reports the
        /// same hit, rectangle id included, as a naive scan of the
        /// transformed scene, for every transform and direction.
        #[test]
        fn view_shots_match_naive_shots_on_the_transformed_scene(
            family in 0u8..4, n in 1usize..16, seed in any::<u64>(),
        ) {
            let obstacles = scene(family, n, seed);
            let index = ObstacleIndex::build(&obstacles);
            let probes = probes(&obstacles, seed);
            for t in CaseTransform::ALL {
                let tobs = ObstacleSet::new(obstacles.iter().map(|r| t.apply_rect(r)).collect());
                let shooter = ViewShooter { index: index.shoot_index(), transform: t };
                for &p in &probes {
                    let q = t.apply(p);
                    for dir in Dir::ALL {
                        let (got, want) = (shooter.shoot(q, dir), shoot_naive(&tobs, q, dir, None));
                        prop_assert!(got == want, "{t:?} from {q:?} {dir:?}: {got:?} != {want:?}");
                    }
                }
            }
        }

        /// The engine's rows equal the four-index reference bitwise, from
        /// vertex sources and from arbitrary sources (outside the scene, on
        /// obstacle edges, at corners, inside obstacles) — and so do the
        /// all-pairs pass's rows: four cases per source through shared
        /// tables over the same sources, and the two-case vertex matrix
        /// completed by symmetry, fanned out and on one thread.
        #[test]
        fn shared_index_rows_equal_the_four_index_sweep(family in 0u8..4, n in 1usize..14, seed in any::<u64>()) {
            let obstacles = scene(family, n, seed);
            let engine = SingleSourceEngine::new(&obstacles);
            let reference = ReferenceEngine::new(&obstacles);
            let sources = probes(&obstacles, seed ^ 1);
            let rows: Vec<Vec<Dist>> = sources.iter().map(|&source| engine.distances_from(source)).collect();
            for (&source, row) in sources.iter().zip(&rows) {
                prop_assert!(*row == reference.distances_from(source), "family {family}, source {source:?}");
            }
            prop_assert!(engine.rows_from(&sources) == rows, "family {family}: four-case pass");
            // `probes` lists every vertex first, in vertex order.
            let vertex_rows = &rows[..engine.vertices().len()];
            prop_assert!(engine.vertex_rows(true) == vertex_rows, "family {family}: two-case pass");
            prop_assert!(engine.vertex_rows(false) == vertex_rows, "family {family}: two-case pass, one thread");
        }
    }

    /// The all-pairs pass on whole `n = 256` matrices, in both modes, equals
    /// the per-row sweep bitwise on every workload family, touching tiles
    /// and aspect-ratio stress scenes.  Release only (about a second per
    /// scene): `cargo test -q --release -p rsp-core --lib seq:: -- --ignored`.
    #[test]
    #[ignore = "release-only: per-row sweeps of five n = 256 matrices"]
    fn all_pairs_pass_equals_per_row_sweeps_at_n_256() {
        let scenes = [
            ("uniform", scene(0, 256, 1)),
            ("clustered", scene(1, 256, 2)),
            ("corridors", scene(2, 256, 3)),
            ("touching tiles", scene(3, 256, 4)),
            ("aspect stress", rsp_workload::aspect_stress(256, 5).obstacles),
        ];
        for (name, obstacles) in scenes {
            let engine = SingleSourceEngine::new(&obstacles);
            let vertices = engine.vertices();
            assert!(vertices.len() >= 4 * 200, "{name}: {} vertices", vertices.len());
            let rows: Vec<Vec<Dist>> = vertices.par_iter().map(|&v| engine.distances_from(v)).collect();
            assert!(engine.vertex_rows(true) == rows, "{name}: two-case pass");
            assert!(engine.rows_from(vertices) == rows, "{name}: four-case pass");
        }
    }

    /// Single rows at the benchmark's sizes, `n = 512` and `1024`, equal the
    /// map-based reference bitwise on the five families of
    /// [`all_pairs_pass_equals_per_row_sweeps_at_n_256`]: 64 vertex sources
    /// and 16 arbitrary sources per scene.  Release only (a few seconds):
    /// `cargo test -q --release -p rsp-core --lib seq:: -- --ignored`.
    #[test]
    #[ignore = "release-only: 80 reference rows on each of ten n = 512/1024 scenes"]
    fn single_rows_equal_the_map_reference_at_n_512_and_1024() {
        for (k, n) in [512usize, 1024].into_iter().enumerate() {
            let seed = 10 * k as u64;
            let scenes = [
                ("uniform", scene(0, n, seed + 1)),
                ("clustered", scene(1, n, seed + 2)),
                ("corridors", scene(2, n, seed + 3)),
                ("touching tiles", scene(3, n, seed + 4)),
                ("aspect stress", rsp_workload::aspect_stress(n, seed + 5).obstacles),
            ];
            for (name, obstacles) in scenes {
                let engine = SingleSourceEngine::new(&obstacles);
                let reference = ReferenceEngine::new(&obstacles);
                let vertices = engine.vertices();
                assert!(vertices.len() >= 4 * n * 3 / 4, "{name}, n = {n}: {} vertices", vertices.len());
                let mut rng = StdRng::seed_from_u64(seed + n as u64);
                let bbox = obstacles.bbox().expect("scenes are non-empty").expand(8);
                let mut sources: Vec<Point> = (0..64).map(|_| vertices[rng.gen_range(0..vertices.len())]).collect();
                for _ in 0..16 {
                    sources
                        .push(Point::new(rng.gen_range(bbox.xmin..=bbox.xmax), rng.gen_range(bbox.ymin..=bbox.ymax)));
                }
                let equal: Vec<bool> = sources
                    .par_iter()
                    .map(|&source| engine.distances_from(source) == reference.distances_from(source))
                    .collect();
                for (source, equal) in sources.iter().zip(equal) {
                    assert!(equal, "{name}, n = {n}: the row from {source:?} differs");
                }
            }
        }
    }

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
