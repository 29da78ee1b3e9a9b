//! Section 6.4: the query oracle.
//!
//! * A length query between two *obstacle vertices* is one lookup in the
//!   `V_R`-to-`V_R` matrix — `O(1)`.
//! * For arbitrary query points the paper augments the structure with the
//!   precomputed escape paths `X(v)` of every vertex (Section 6.1) and two
//!   ray-shooting subdivisions.  A query `(p, q)` with `q ∈ V_R` then reduces
//!   to: shoot a horizontal and a vertical ray from `p` towards `q`; if the
//!   ray reaches the escape staircase of `q` that points into `p`'s quadrant
//!   before any obstacle, the answer is `d(p, q)`; otherwise the answer goes
//!   through one of the two endpoints of the first obstacle edge hit
//!   (argument from \[11\], restated in Section 6.4).  Taking the minimum of
//!   the horizontal and the vertical reduction removes the need to test which
//!   side of the staircase `p` lies on: for the correct side the reduction is
//!   exact and for the other side it still produces a valid (not shorter)
//!   path length.
//! * When both endpoints are arbitrary, the escape staircase of `q` is
//!   assembled on the fly from one ray shot plus the precomputed staircase of
//!   an obstacle corner, and the edge-endpoint distances recurse into the
//!   one-arbitrary-endpoint case (recursion depth at most two).

use crate::apsp::VertexApsp;
use crate::delta::DeltaBase;
use crate::store::{RowCarry, StoreKind};
use crate::trace::{escape_path, EscapeKind};
use rsp_geom::rayshoot::ShootIndex;
use rsp_geom::{Carry, Chain, Coord, Dir, Dist, ObstacleIndex, ObstacleSet, Point, Rect, StairRegion, INF};
use std::sync::Arc;

/// Far-away sentinel used to extend clipped escape staircases back to
/// "unbounded" ones.
const FAR: Coord = 1 << 40;

/// The query data structure of Section 6.4.
///
/// Every per-query primitive on the arbitrary-point path is logarithmic and
/// allocation-free: ray shots and point containment go through the
/// [`ObstacleIndex`], staircase/line intersections binary-search the
/// monotone escape chains, and the on-the-fly staircase of a both-arbitrary
/// query is a borrowed `ChainView` instead of a concatenated heap chain.
pub struct PathLengthOracle {
    obstacles: Arc<ObstacleSet>,
    apsp: VertexApsp,
    /// Shared with the distance store's row engine, which shoots through it.
    index: Arc<ObstacleIndex>,
    /// `chains[k][v]` — escape staircase of vertex `v` into quadrant `k`
    /// (0 = NE, 1 = NW, 2 = SE, 3 = SW), extended to infinity.
    chains: [Vec<Chain>; 4],
}

/// A borrowed escape staircase: up to three inline prefix points (the query
/// point, the ray hit, the obstacle corner) followed by an optional borrowed
/// precomputed corner staircase whose first point equals the last prefix
/// point.  This is the allocation-free replacement for assembling a
/// both-arbitrary query's staircase with `Chain::concat`: the union of
/// segments is identical, so the line intersections agree, and nothing is
/// heap-allocated per query.
struct ChainView<'a> {
    /// Inline prefix points; only the first `prefix_len` are meaningful.
    /// Constructors produce `prefix_len` 0 (whole chain), 2 (inline ray) or
    /// 3 (prefix + suffix) — never 1, so the intersections need no
    /// single-point case.
    prefix: [Point; 3],
    prefix_len: usize,
    suffix: Option<&'a Chain>,
}

impl<'a> ChainView<'a> {
    /// View an entire precomputed chain (the one-arbitrary-endpoint case).
    fn whole(chain: &'a Chain) -> Self {
        ChainView { prefix: [Point::new(0, 0); 3], prefix_len: 0, suffix: Some(chain) }
    }

    /// View of inline points only (a straight ray to infinity).
    fn inline(prefix: [Point; 3], prefix_len: usize) -> Self {
        ChainView { prefix, prefix_len, suffix: None }
    }

    /// Prefix points then the borrowed suffix.
    fn with_suffix(prefix: [Point; 3], suffix: &'a Chain) -> Self {
        debug_assert_eq!(prefix[2], suffix.first(), "prefix must end where the suffix starts");
        ChainView { prefix, prefix_len: 3, suffix: Some(suffix) }
    }

    /// Merge two optional coordinate intervals.
    fn merge(a: Option<(Coord, Coord)>, b: Option<(Coord, Coord)>) -> Option<(Coord, Coord)> {
        match (a, b) {
            (Some((alo, ahi)), Some((blo, bhi))) => Some((alo.min(blo), ahi.max(bhi))),
            (one, None) => one,
            (None, one) => one,
        }
    }

    /// Intersection with the horizontal line `y = c` (mirrors
    /// [`Chain::intersect_horizontal`]): constant work on the prefix plus a
    /// logarithmic search on the borrowed staircase suffix.
    fn intersect_horizontal(&self, c: Coord) -> Option<(Coord, Coord)> {
        let mut acc: Option<(Coord, Coord)> = None;
        let prefix = &self.prefix[..self.prefix_len];
        for w in prefix.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a.y.min(b.y) <= c && c <= a.y.max(b.y) {
                let seg = if a.y == b.y { (a.x.min(b.x), a.x.max(b.x)) } else { (a.x, a.x) };
                acc = Self::merge(acc, Some(seg));
            }
        }
        Self::merge(acc, self.suffix.and_then(|s| s.intersect_horizontal(c)))
    }

    /// Intersection with the vertical line `x = c`.
    fn intersect_vertical(&self, c: Coord) -> Option<(Coord, Coord)> {
        let mut acc: Option<(Coord, Coord)> = None;
        let prefix = &self.prefix[..self.prefix_len];
        for w in prefix.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a.x.min(b.x) <= c && c <= a.x.max(b.x) {
                let seg = if a.x == b.x { (a.y.min(b.y), a.y.max(b.y)) } else { (a.y, a.y) };
                acc = Self::merge(acc, Some(seg));
            }
        }
        Self::merge(acc, self.suffix.and_then(|s| s.intersect_vertical(c)))
    }
}

/// Per-query cache for the up-to-four axis shots from one arbitrary query
/// point.  A both-arbitrary detour evaluates up to four inner vertex
/// reductions, all shooting from the same point `q`; caching turns their
/// certificate shots into `O(1)` re-reads.  Lives on the stack (`Cell`s of
/// `Copy` data), so the hot path stays allocation-free.
#[derive(Default)]
struct ShotCache {
    slots: [std::cell::Cell<Option<Option<rsp_geom::rayshoot::Hit>>>; 4],
}

fn dir_slot(dir: Dir) -> usize {
    match dir {
        Dir::North => 0,
        Dir::South => 1,
        Dir::East => 2,
        Dir::West => 3,
    }
}

pub(crate) fn quadrant_of(from: Point, to: Point) -> usize {
    // quadrant of `to` relative to `from`
    match (to.x >= from.x, to.y >= from.y) {
        (true, true) => 0,   // NE
        (false, true) => 1,  // NW
        (true, false) => 2,  // SE
        (false, false) => 3, // SW
    }
}

fn kind_for_quadrant(q: usize) -> EscapeKind {
    match q {
        0 => EscapeKind::NE,
        1 => EscapeKind::NW,
        2 => EscapeKind::SE,
        _ => EscapeKind::SW,
    }
}

/// What an oracle build carried from its base epoch and what it re-derived
/// (all zero without a base).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleReuse {
    /// Distance-row accounting of the store build.
    pub rows: RowCarry,
    /// Escape staircases copied from the base epoch (of `4 · 4n` total).
    pub chains_reused: usize,
    /// Escape staircases traced in this scene.
    pub chains_rebuilt: usize,
    /// Ray-shooting slab-column accounting across all five directional
    /// indexes (four shoot directions plus the top-edge locator).
    pub slab_columns: rsp_geom::SlabReuse,
}

/// Does the *closed* rectangle meet the chain polyline?  Segments of an
/// escape chain are axis-parallel, so each test is an interval overlap.
fn chain_touches_rect(chain: &Chain, r: &Rect) -> bool {
    chain.points().windows(2).any(|w| {
        let (a, b) = (w[0], w[1]);
        if a.x == b.x {
            r.xmin <= a.x && a.x <= r.xmax && a.y.min(b.y) <= r.ymax && r.ymin <= a.y.max(b.y)
        } else {
            r.ymin <= a.y && a.y <= r.ymax && a.x.min(b.x) <= r.xmax && r.xmin <= a.x.max(b.x)
        }
    })
}

/// Extend a clipped escape path back to an unbounded staircase by prolonging
/// its final segment to a far sentinel.
fn extend_to_far(chain: &Chain, primary: Dir) -> Chain {
    let mut pts = chain.points().to_vec();
    let last = *pts.last().unwrap();
    let far_point = match primary {
        Dir::North => Point::new(last.x, FAR),
        Dir::South => Point::new(last.x, -FAR),
        Dir::East => Point::new(FAR, last.y),
        Dir::West => Point::new(-FAR, last.y),
    };
    if far_point != last {
        pts.push(far_point);
    }
    Chain::new(pts)
}

impl PathLengthOracle {
    /// Build the oracle over a dense store: the vertex matrix, the obstacle
    /// index and the `4 · 4n` precomputed escape staircases of Section 6.1.
    pub fn build(obstacles: &ObstacleSet) -> Self {
        Self::build_with(Arc::new(obstacles.clone()), StoreKind::Dense, None).0
    }

    /// Build the oracle over the distance store `kind` names, carrying from
    /// `base` every distance row, escape staircase and slab column the edit
    /// provably cannot affect (see [`DistanceStore::build`](crate::store::DistanceStore::build)
    /// and [`PathLengthOracle::from_apsp_with`]).
    ///
    /// The [`ObstacleIndex`] is built (or carried) first and shared: the
    /// store's row engine shoots through the same index the oracle queries,
    /// so an epoch builds exactly one.
    pub(crate) fn build_with(
        obstacles: Arc<ObstacleSet>,
        kind: StoreKind,
        base: Option<&DeltaBase>,
    ) -> (Self, OracleReuse) {
        let index_base =
            base.map(|b| Carry { old: &*b.oracle.index, old_to_new: &b.old_to_new_rect, edited: &b.edited });
        let (index, slab_columns) = ObstacleIndex::build_with(&obstacles, index_base);
        let index = Arc::new(index);
        let (apsp, rows) = VertexApsp::build_with(Arc::clone(&obstacles), Arc::clone(&index), kind, base);
        let (oracle, reuse) = Self::from_apsp_with(obstacles, apsp, index, base);
        (oracle, OracleReuse { rows, slab_columns, ..reuse })
    }

    /// Build from an existing vertex matrix and a shared obstacle set.
    pub fn from_apsp(obstacles: Arc<ObstacleSet>, apsp: VertexApsp) -> Self {
        let index = Arc::new(ObstacleIndex::build(&obstacles));
        Self::from_apsp_with(obstacles, apsp, index, None).0
    }

    /// Build the escape staircases around `apsp` and `index` (the
    /// [`ObstacleIndex`] of `obstacles`), copying from `base` every
    /// staircase the edit provably cannot affect.  The oracle answers every
    /// query the same with or without a base.  The four staircase families
    /// are built concurrently over [`rayon::join`], each fanning out over
    /// its vertices.
    ///
    /// Chain reuse soundness: every shot, slide and exit segment of
    /// [`escape_path`] lies *on* the resulting chain.  If no edited closed
    /// rectangle touches the chain polyline, then (a) no removed rectangle
    /// participated in the walk — a slide runs along the blocking obstacle's
    /// boundary, which the chain touches; (b) no inserted rectangle can
    /// intercept a shot earlier than its old hit — the interception point
    /// would lie on both the segment (hence the chain) and the rectangle's
    /// boundary.  So the walk replays identically in the new scene.  A chain
    /// additionally carries only if the obstacle bounding box is unchanged
    /// (the clip region derives from it) and its vertex survived the
    /// compaction.
    fn from_apsp_with(
        obstacles: Arc<ObstacleSet>,
        apsp: VertexApsp,
        index: Arc<ObstacleIndex>,
        base: Option<&DeltaBase>,
    ) -> (Self, OracleReuse) {
        use rayon::prelude::*;
        let bbox = obstacles.bbox().unwrap_or(Rect::new(0, 0, 1, 1)).expand(8);
        let chain_base = base.filter(|b| b.oracle.obstacles.bbox().map(|b| b.expand(8)) == Some(bbox));
        let region = StairRegion::from_rect(bbox);
        let vertices = apsp.vertices();
        let shoot = index.shoot_index();
        let build_chains = |quad: usize| -> (Vec<Chain>, usize) {
            let kind = kind_for_quadrant(quad);
            let built: Vec<(Chain, bool)> = (0..vertices.len())
                .into_par_iter()
                .map(|i| {
                    let carried = chain_base.and_then(|b| {
                        let oi = b.new_to_old_vertex[i]?;
                        debug_assert_eq!(b.oracle.apsp.vertices()[oi], vertices[i]);
                        let old = &b.oracle.chains[quad][oi];
                        (!b.edited.iter().any(|r| chain_touches_rect(old, r))).then_some(old)
                    });
                    match carried {
                        Some(chain) => (chain.clone(), true),
                        None => {
                            let path = escape_path(&obstacles, shoot, &region, vertices[i], kind);
                            (extend_to_far(&path, kind.primary), false)
                        }
                    }
                })
                .collect();
            let reused = built.iter().filter(|&&(_, r)| r).count();
            (built.into_iter().map(|(c, _)| c).collect(), reused)
        };
        let (((ne, r0), (nw, r1)), ((se, r2), (sw, r3))) = rayon::join(
            || rayon::join(|| build_chains(0), || build_chains(1)),
            || rayon::join(|| build_chains(2), || build_chains(3)),
        );
        let chains_reused = r0 + r1 + r2 + r3;
        let chains_rebuilt = 4 * vertices.len() - chains_reused;
        let reuse = OracleReuse { chains_reused, chains_rebuilt, ..OracleReuse::default() };
        (PathLengthOracle { obstacles, apsp, index, chains: [ne, nw, se, sw] }, reuse)
    }

    /// The underlying vertex matrix.
    pub fn apsp(&self) -> &VertexApsp {
        &self.apsp
    }

    /// Number of obstacles.
    pub fn n(&self) -> usize {
        self.obstacles.len()
    }

    /// The obstacle set the oracle was built for.
    pub fn obstacles(&self) -> &ObstacleSet {
        &self.obstacles
    }

    /// The precomputed escape staircase of vertex `vertex_index` into
    /// quadrant `quadrant` (0 = NE, 1 = NW, 2 = SE, 3 = SW) — the `X(v)`
    /// paths of Section 6.1, reused by the shortest-path trees of Section 8.
    pub fn escape_chain(&self, vertex_index: usize, quadrant: usize) -> &Chain {
        &self.chains[quadrant][vertex_index]
    }

    /// Shared ray-shooting index.
    pub(crate) fn shoot_index(&self) -> &ShootIndex {
        self.index.shoot_index()
    }

    /// Shared containment/segment index (logarithmic point location).
    pub(crate) fn obstacle_index(&self) -> &Arc<ObstacleIndex> {
        &self.index
    }

    /// If some one-bend (L-shaped) path between `a` and `b` is clear of
    /// obstacle interiors, return its bend point.
    ///
    /// Short-circuits through the [`ObstacleIndex`]: endpoints strictly
    /// inside an obstacle fail immediately, and the degenerate collinear
    /// cases (`a.x == b.x` or `a.y == b.y`) resolve with a single ray shot
    /// instead of up to four.
    pub fn l_connection(&self, a: Point, b: Point) -> Option<Point> {
        if self.index.containing_obstacle(a).is_some() || self.index.containing_obstacle(b).is_some() {
            return None;
        }
        let shoot = self.index.shoot_index();
        if a.x == b.x || a.y == b.y {
            // Both candidate bends coincide with an endpoint; one straight
            // segment decides.  (Returns the same bend the general case
            // would: `(b.x, a.y)` equals `a` resp. `b` here.)
            return shoot.segment_clear_from_outside(a, b).then_some(Point::new(b.x, a.y));
        }
        // The first legs start at `a` (outside, checked above); a clear first
        // leg guarantees the bend is not strictly inside either, so the
        // cheaper outside-start shot is valid for both legs.
        [Point::new(b.x, a.y), Point::new(a.x, b.y)]
            .into_iter()
            .find(|&bend| shoot.segment_clear_from_outside(a, bend) && shoot.segment_clear_from_outside(bend, b))
    }

    /// Unified segment clearance (same semantics as the naive
    /// [`ObstacleSet::segment_clear`], logarithmic cost).
    pub fn segment_clear(&self, a: Point, b: Point) -> bool {
        self.index.segment_clear(a, b)
    }

    /// O(1) query for two obstacle vertices.  `None` if either point is not
    /// an obstacle vertex.
    pub fn vertex_distance(&self, a: Point, b: Point) -> Option<Dist> {
        Some(self.apsp.distance(self.apsp.vertex_index(a)?, self.apsp.vertex_index(b)?))
    }

    /// Length of a shortest obstacle-avoiding path between two arbitrary
    /// points (`INF` if either lies strictly inside an obstacle).
    pub fn distance(&self, p: Point, q: Point) -> Dist {
        if self.index.containing_obstacle(p).is_some() || self.index.containing_obstacle(q).is_some() {
            return INF;
        }
        self.distance_clear(p, q)
    }

    /// [`PathLengthOracle::distance`] without the containment probes, for
    /// callers (the `Router`) that have already verified neither endpoint
    /// lies strictly inside an obstacle.
    pub(crate) fn distance_clear(&self, p: Point, q: Point) -> Dist {
        if p == q {
            return 0;
        }
        if let Some(qi) = self.apsp.vertex_index(q) {
            if let Some(pi) = self.apsp.vertex_index(p) {
                return self.apsp.distance(pi, qi);
            }
            return self.distance_to_vertex(p, qi);
        }
        if let Some(pi) = self.apsp.vertex_index(p) {
            return self.distance_to_vertex(q, pi);
        }
        // both arbitrary: view q's escape staircase on the fly (borrowed, no
        // allocation) and reduce; all inner vertex reductions shoot from the
        // same `q`, so they share one per-query shot cache
        let cache = ShotCache::default();
        let quad = quadrant_of(q, p);
        let view = self.on_the_fly_view(q, quad, Some(&cache));
        self.reduce(p, q, &view, None, true, |vi| self.distance_to_vertex_cached(q, vi, Some(&cache)))
    }

    /// Distance from an arbitrary point `p` to vertex number `qi`.
    fn distance_to_vertex(&self, p: Point, qi: usize) -> Dist {
        self.distance_to_vertex_cached(p, qi, None)
    }

    /// [`PathLengthOracle::distance_to_vertex`] with an optional shared
    /// cache for the axis shots from `p`.
    ///
    /// Every detour endpoint `vi` the reduction tries needs `d(vi, qi)` —
    /// which by metric symmetry is entry `vi` of *row `qi`*.  Serving all of
    /// them from one row handle means an implicit store pays at most one
    /// sweep per target vertex (for the first detour; certified shots need
    /// none) instead of materialising a different row per detour candidate.
    /// The dense arm borrows its row slice directly, keeping this path
    /// allocation-free.
    fn distance_to_vertex_cached(&self, p: Point, qi: usize, cache: Option<&ShotCache>) -> Dist {
        let q = self.apsp.vertices()[qi];
        if p == q {
            return 0;
        }
        let chain = &self.chains[quadrant_of(q, p)][qi];
        let view = ChainView::whole(chain);
        match self.apsp.store().as_dense() {
            Some(m) => {
                let row = m.row(qi);
                self.reduce(p, q, &view, cache, false, |vi| row[vi])
            }
            None => {
                let store = self.apsp.store().as_implicit().expect("store is dense or implicit");
                // Lazy: queries certified by a ray shot never touch the row.
                let row: std::cell::OnceCell<std::sync::Arc<[Dist]>> = std::cell::OnceCell::new();
                self.reduce(p, q, &view, cache, false, |vi| row.get_or_init(|| store.row(qi))[vi])
            }
        }
    }

    /// Shoot from `p`, consulting and filling the per-query cache when one
    /// is shared by sibling reductions from the same point.
    fn shoot_cached(&self, p: Point, dir: Dir, cache: Option<&ShotCache>) -> Option<rsp_geom::rayshoot::Hit> {
        match cache {
            None => self.index.shoot(p, dir),
            Some(c) => {
                let slot = &c.slots[dir_slot(dir)];
                match slot.get() {
                    Some(hit) => hit,
                    None => {
                        let hit = self.index.shoot(p, dir);
                        slot.set(Some(hit));
                        hit
                    }
                }
            }
        }
    }

    /// The core reduction of Section 6.4: from `p`, shoot towards `q` both
    /// horizontally and vertically; each shot yields either the direct
    /// distance (if the staircase `chain` emanating from `q` is reached
    /// before any obstacle) or a detour through the endpoints of the blocking
    /// edge, whose distances to `q` are supplied by `to_q`.
    ///
    /// Every reduction yields the length of some genuine obstacle-avoiding
    /// path, so `L1(p, q)` is a global lower bound and either shot reaching
    /// the staircase before its blocking obstacle certifies the final
    /// answer.  Both cheap reach tests (one indexed shot + one staircase
    /// binary search each) therefore run **before** either expensive detour
    /// (two `to_q` evaluations, which recurse on the both-arbitrary path):
    /// detours only run for the rare pairs where neither ray reaches the
    /// staircase, which is what keeps the per-query cost logarithmic in
    /// practice and not dominated by the detour recursion.
    fn reduce(
        &self,
        p: Point,
        q: Point,
        chain: &ChainView<'_>,
        cache: Option<&ShotCache>,
        outer: bool,
        to_q: impl Fn(usize) -> Dist,
    ) -> Dist {
        let lower = p.l1(q);
        let hdir = if q.x <= p.x { Dir::West } else { Dir::East };
        let hhit = self.shoot_cached(p, hdir, cache);
        if Self::chain_reached(p, chain, hdir, hhit.map(|h| h.distance_from(p))) {
            return lower;
        }
        let vdir = if q.y <= p.y { Dir::South } else { Dir::North };
        let vhit = self.shoot_cached(p, vdir, cache);
        if Self::chain_reached(p, chain, vdir, vhit.map(|h| h.distance_from(p))) {
            return lower;
        }
        // L-path certificate: a clear one-bend path realises the L1 lower
        // bound outright.  The first leg of each candidate L runs along the
        // ray just shot, so only the second leg needs a fresh (logarithmic)
        // shot — far cheaper than a detour, whose two `to_q` evaluations
        // recurse into full vertex reductions.
        // The L-path certificate only pays off on the outer level, where a
        // fallback detour recurses into full vertex reductions; an inner
        // detour is two O(1) matrix lookups, cheaper than the extra shots
        // the certificate costs.
        if outer {
            let shoot = self.index.shoot_index();
            if hhit.is_none_or(|h| h.distance_from(p) >= (q.x - p.x).abs())
                && shoot.segment_clear_from_outside(Point::new(q.x, p.y), q)
            {
                return lower;
            }
            if vhit.is_none_or(|h| h.distance_from(p) >= (q.y - p.y).abs())
                && shoot.segment_clear_from_outside(Point::new(p.x, q.y), q)
            {
                return lower;
            }
        }
        // Detours: collect the up-to-four blocking-edge endpoints, order by
        // the L1 lower bound `|pv| + |vq|` of any path through them, and
        // evaluate with best-first pruning — `to_q(v)` is the expensive step
        // (a recursive vertex reduction on the both-arbitrary path), and a
        // candidate whose bound cannot beat the incumbent is skipped without
        // evaluating it.  Endpoint vertex ids follow directly from the
        // obstacle id (`V_R` stores LL, LR, UR, UL per obstacle), so no hash
        // lookups happen here.
        let mut candidates: [Option<(Dist, Point, usize)>; 4] = [None; 4];
        let mut k = 0;
        for (hit, dir) in [(hhit, hdir), (vhit, vdir)] {
            let Some(hit) = hit else { continue };
            let r = self.obstacles.rect(hit.rect);
            let base = 4 * hit.rect;
            let (v1, i1, v2, i2) = match dir {
                Dir::West => (r.lr(), base + 1, r.ur(), base + 2),
                Dir::East => (r.ll(), base, r.ul(), base + 3),
                Dir::South => (r.ul(), base + 3, r.ur(), base + 2),
                Dir::North => (r.ll(), base, r.lr(), base + 1),
            };
            for (v, vi) in [(v1, i1), (v2, i2)] {
                debug_assert_eq!(self.apsp.vertices()[vi], v, "V_R must be in LL,LR,UR,UL obstacle order");
                candidates[k] = Some((p.l1(v) + v.l1(q), v, vi));
                k += 1;
            }
        }
        candidates[..k].sort_unstable_by_key(|c| c.map_or(INF, |(bound, _, _)| bound));
        let mut best = INF;
        for &(bound, v, vi) in candidates[..k].iter().flatten() {
            if bound >= best {
                break; // sorted: no later candidate can improve
            }
            let tail = to_q(vi);
            if tail < INF {
                best = best.min(p.l1(v) + tail);
            }
            if best == lower {
                return best;
            }
        }
        best
    }

    /// Does the ray from `p` in direction `dir` meet the staircase no later
    /// than its first obstacle (`obstacle_distance`)?
    fn chain_reached(p: Point, chain: &ChainView<'_>, dir: Dir, obstacle_distance: Option<Dist>) -> bool {
        // distance along the ray at which the chain is first met
        let chain_distance: Option<Dist> = match dir {
            Dir::West | Dir::East => chain.intersect_horizontal(p.y).and_then(|(lo, hi)| {
                if dir == Dir::West {
                    if hi <= p.x {
                        Some(p.x - hi)
                    } else if lo <= p.x {
                        Some(0)
                    } else {
                        None
                    }
                } else if lo >= p.x {
                    Some(lo - p.x)
                } else if hi >= p.x {
                    Some(0)
                } else {
                    None
                }
            }),
            Dir::North | Dir::South => chain.intersect_vertical(p.x).and_then(|(lo, hi)| {
                if dir == Dir::South {
                    if hi <= p.y {
                        Some(p.y - hi)
                    } else if lo <= p.y {
                        Some(0)
                    } else {
                        None
                    }
                } else if lo >= p.y {
                    Some(lo - p.y)
                } else if hi >= p.y {
                    Some(0)
                } else {
                    None
                }
            }),
        };
        chain_distance.is_some_and(|cd| obstacle_distance.is_none_or(|od| cd <= od))
    }

    /// View the escape staircase of an arbitrary point `q` into quadrant
    /// `quad`: shoot the primary direction once; if an obstacle is hit, walk
    /// along it to the corner and continue with that corner's precomputed
    /// (borrowed) staircase.  Nothing is allocated: this is the old
    /// `on_the_fly_chain` minus its per-query `Chain::concat`.
    fn on_the_fly_view(&self, q: Point, quad: usize, cache: Option<&ShotCache>) -> ChainView<'_> {
        let kind = kind_for_quadrant(quad);
        match self.shoot_cached(q, kind.primary, cache) {
            None => {
                let far = match kind.primary {
                    Dir::North => Point::new(q.x, FAR),
                    Dir::South => Point::new(q.x, -FAR),
                    Dir::East => Point::new(FAR, q.y),
                    Dir::West => Point::new(-FAR, q.y),
                };
                ChainView::inline([q, far, far], 2)
            }
            Some(hit) => {
                let r = self.obstacles.rect(hit.rect);
                let (vertical, horizontal) = if kind.primary.is_vertical() {
                    (kind.primary.opposite(), kind.policy)
                } else {
                    (kind.policy, kind.primary.opposite())
                };
                let corner = r.corner(vertical, horizontal);
                // corner -> vertex id without hashing (LL, LR, UR, UL order)
                let corner_id = 4 * hit.rect
                    + match (vertical, horizontal) {
                        (Dir::South, Dir::West) => 0,
                        (Dir::South, Dir::East) => 1,
                        (Dir::North, Dir::East) => 2,
                        _ => 3,
                    };
                debug_assert_eq!(self.apsp.vertices()[corner_id], corner);
                let corner_chain = &self.chains[quad][corner_id];
                ChainView::with_suffix([q, hit.point, corner], corner_chain)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::hanan::ground_truth_distance;
    use rsp_workload::{query_pairs, uniform_disjoint};

    #[test]
    fn vertex_queries_are_exact() {
        let w = uniform_disjoint(10, 3);
        let oracle = PathLengthOracle::build(&w.obstacles);
        let verts = w.obstacles.vertices();
        for i in (0..verts.len()).step_by(3) {
            for j in (0..verts.len()).step_by(5) {
                let expect = ground_truth_distance(&w.obstacles, verts[i], verts[j]);
                assert_eq!(oracle.vertex_distance(verts[i], verts[j]), Some(expect));
                assert_eq!(oracle.distance(verts[i], verts[j]), expect);
            }
        }
    }

    #[test]
    fn arbitrary_point_queries_match_ground_truth() {
        for seed in 0..4 {
            let w = uniform_disjoint(8, seed);
            let oracle = PathLengthOracle::build(&w.obstacles);
            for (a, b) in query_pairs(&w.obstacles, 40, false, seed + 100) {
                let expect = ground_truth_distance(&w.obstacles, a, b);
                assert_eq!(oracle.distance(a, b), expect, "seed {seed}: {:?} -> {:?}", a, b);
            }
        }
    }

    #[test]
    fn mixed_vertex_and_arbitrary_queries() {
        let w = uniform_disjoint(9, 11);
        let oracle = PathLengthOracle::build(&w.obstacles);
        let verts = w.obstacles.vertices();
        for (a, _) in query_pairs(&w.obstacles, 25, false, 5) {
            for &v in verts.iter().step_by(7) {
                let expect = ground_truth_distance(&w.obstacles, a, v);
                assert_eq!(oracle.distance(a, v), expect, "{:?} -> {:?}", a, v);
                assert_eq!(oracle.distance(v, a), expect, "{:?} -> {:?}", v, a);
            }
        }
    }

    #[test]
    fn query_inside_obstacle_is_inf() {
        let obs = ObstacleSet::new(vec![Rect::new(0, 0, 10, 10)]);
        let oracle = PathLengthOracle::build(&obs);
        assert_eq!(oracle.distance(Point::new(5, 5), Point::new(20, 20)), INF);
        assert_eq!(oracle.vertex_distance(Point::new(5, 5), Point::new(0, 0)), None);
    }

    #[test]
    fn l_connection_degenerate_collinear() {
        let obs = ObstacleSet::new(vec![Rect::new(2, 2, 6, 10), Rect::new(9, 0, 12, 6)]);
        let oracle = PathLengthOracle::build(&obs);
        // a.x == b.x, clear corridor: the bend is the general-rule `(b.x, a.y)` = a
        let (a, b) = (Point::new(7, 0), Point::new(7, 12));
        assert_eq!(oracle.l_connection(a, b), Some(Point::new(b.x, a.y)));
        // a.x == b.x, blocked by obstacle 0
        assert_eq!(oracle.l_connection(Point::new(4, 0), Point::new(4, 12)), None);
        // a.y == b.y, clear along the shared boundary height y=10
        assert_eq!(oracle.l_connection(Point::new(0, 10), Point::new(13, 10)), Some(Point::new(13, 10)));
        // a.y == b.y, blocked by both obstacles
        assert_eq!(oracle.l_connection(Point::new(0, 4), Point::new(13, 4)), None);
        // zero-length degenerate
        assert_eq!(oracle.l_connection(a, a), Some(a));
        // an endpoint strictly inside an obstacle short-circuits to None
        assert_eq!(oracle.l_connection(Point::new(3, 5), Point::new(3, 20)), None);
        assert_eq!(oracle.l_connection(Point::new(0, 0), Point::new(10, 3)), None);
    }

    #[test]
    fn segment_clear_agrees_with_naive_scan() {
        // Pin the unified semantics: the oracle's indexed segment_clear must
        // answer exactly like ObstacleSet::segment_clear, including segments
        // that start strictly inside an obstacle (invisible to a bare ray
        // shot, the old oracle-local implementation's blind spot).
        let w = uniform_disjoint(12, 23);
        let oracle = PathLengthOracle::build(&w.obstacles);
        let bbox = w.obstacles.bbox().unwrap();
        let step = ((bbox.width().max(bbox.height()) / 12).max(1)) as usize;
        let mut probes = Vec::new();
        let mut x = bbox.xmin - 3;
        while x <= bbox.xmax + 3 {
            let mut y = bbox.ymin - 3;
            while y <= bbox.ymax + 3 {
                probes.push(Point::new(x, y));
                y += step as i64;
            }
            x += step as i64;
        }
        for &a in &probes {
            for &b in &probes {
                if a.x != b.x && a.y != b.y {
                    continue;
                }
                assert_eq!(oracle.segment_clear(a, b), w.obstacles.segment_clear(a, b), "{a:?} -> {b:?}");
            }
        }
    }

    #[test]
    fn identical_and_simple_pairs() {
        let obs = ObstacleSet::new(vec![Rect::new(5, 5, 8, 8)]);
        let oracle = PathLengthOracle::build(&obs);
        assert_eq!(oracle.distance(Point::new(1, 1), Point::new(1, 1)), 0);
        assert_eq!(oracle.distance(Point::new(0, 0), Point::new(4, 9)), 13);
        // around the square: opposite edge midpoints
        assert_eq!(oracle.distance(Point::new(4, 6), Point::new(9, 6)), 5 + 2);
        // corner to corner along the boundary
        assert_eq!(oracle.distance(Point::new(5, 5), Point::new(8, 8)), 6);
    }
}
