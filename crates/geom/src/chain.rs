//! Rectilinear chains (polylines) and staircases.
//!
//! A *staircase* in the paper is a path that is monotone with respect to both
//! axes (a "convex path", Section 2).  Separators (Theorem 2), the `MAX_xy`
//! staircases (Fig. 1) and the chains `Chain(U_v)`, `Chain(W_v)` of Section 6
//! are all staircases.  We represent a chain by its sequence of turning
//! points; consecutive points must differ in exactly one coordinate.

use crate::point::{Coord, Dist, Point};
use serde::{Deserialize, Serialize};

/// Which side of a (monotone) chain a point lies on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// Above-left of an increasing chain / above-right of a decreasing chain.
    Above,
    /// Below-right of an increasing chain / below-left of a decreasing chain.
    Below,
    /// Exactly on the chain.
    On,
}

/// Monotonicity class of a staircase.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Monotone {
    /// Goes up as we move from left to right.
    Increasing,
    /// Goes down as we move from left to right.
    Decreasing,
}

/// Cached monotonicity sign meaning "the chain reverses direction along this
/// axis" (the other values are `-1`, `0`, `+1`: the net sign of movement).
const NOT_MONOTONE: i8 = 2;

/// Below this many vertices the linear intersection scan beats the binary
/// search; it is also the regime where degenerate staircases (no movement
/// along one axis) live.
const STAIR_SEARCH_CUTOFF: usize = 8;

/// Accessor pair selecting the query-axis and perpendicular coordinate of a
/// point in [`Chain::intersect_line_stair`].
type AxisAccessors = (fn(&Point) -> Coord, fn(&Point) -> Coord);

/// Monotonicity signs `(sx, sy)` of a vertex list: each is `+1`/`-1` when
/// every step along that axis has that sign, `0` when the chain never moves
/// along the axis, and [`NOT_MONOTONE`] when it reverses.
fn monotone_signs(pts: &[Point]) -> (i8, i8) {
    let mut sx = 0i8;
    let mut sy = 0i8;
    for w in pts.windows(2) {
        let dx = (w[1].x - w[0].x).signum() as i8;
        if dx != 0 && sx != NOT_MONOTONE {
            if sx == 0 {
                sx = dx;
            } else if sx != dx {
                sx = NOT_MONOTONE;
            }
        }
        let dy = (w[1].y - w[0].y).signum() as i8;
        if dy != 0 && sy != NOT_MONOTONE {
            if sy == 0 {
                sy = dy;
            } else if sy != dy {
                sy = NOT_MONOTONE;
            }
        }
    }
    (sx, sy)
}

/// A rectilinear polyline described by its vertices (turning points plus the
/// two endpoints).  Consecutive vertices must share exactly one coordinate.
///
/// Monotonicity along each axis is computed once at construction, which makes
/// the staircase classifiers `O(1)` and lets the line-intersection queries
/// binary-search monotone chains in `O(log n)` (Section 6.4 needs this bound
/// on the escape staircases).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Chain {
    pts: Vec<Point>,
    /// Cached x-monotonicity sign (see [`monotone_signs`]).
    sx: i8,
    /// Cached y-monotonicity sign.
    sy: i8,
}

// The monotonicity cache is derived data: serialize the vertex list only
// and rebuild the signs through `Chain::try_new` on the way in, so no
// serialized input can desynchronise the binary-search fast path (and the
// wire format stays the pre-cache one).  A diagonal step in untrusted input
// is a decode error, not a panic.
impl Serialize for Chain {
    fn to_value(&self) -> serde::Value {
        self.pts.to_value()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.pts.encode(out)
    }
}

impl Deserialize for Chain {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Vec::<Point>::from_value(v).and_then(Chain::from_untrusted)
    }

    fn decode(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        Vec::<Point>::decode(r).and_then(Chain::from_untrusted)
    }
}

impl Chain {
    /// Build a chain from vertices.  Collinear consecutive segments are
    /// merged; repeated points are dropped.  Panics if a pair of consecutive
    /// points is not axis-aligned.
    pub fn new(pts: Vec<Point>) -> Self {
        match Chain::try_new(pts) {
            Ok(chain) => chain,
            Err((a, b)) => panic!("chain segments must be axis-parallel: {a:?} -> {b:?}"),
        }
    }

    /// [`Chain::new`] for vertices that may not be axis-aligned: the first
    /// diagonal step comes back as its two endpoints instead of panicking.
    pub fn try_new(pts: Vec<Point>) -> Result<Self, (Point, Point)> {
        let mut out: Vec<Point> = Vec::with_capacity(pts.len());
        for p in pts {
            if let Some(&last) = out.last() {
                if last == p {
                    continue;
                }
                if last.x != p.x && last.y != p.y {
                    return Err((last, p));
                }
                // merge collinear runs
                if out.len() >= 2 {
                    let prev = out[out.len() - 2];
                    let collinear_v = prev.x == last.x && last.x == p.x;
                    let collinear_h = prev.y == last.y && last.y == p.y;
                    if collinear_v || collinear_h {
                        // only merge if the direction does not reverse
                        let same_dir_v = collinear_v && ((last.y - prev.y).signum() == (p.y - last.y).signum());
                        let same_dir_h = collinear_h && ((last.x - prev.x).signum() == (p.x - last.x).signum());
                        if same_dir_v || same_dir_h {
                            out.pop();
                        }
                    }
                }
            }
            out.push(p);
        }
        let (sx, sy) = monotone_signs(&out);
        Ok(Chain { pts: out, sx, sy })
    }

    /// [`Chain::try_new`] with the diagonal step as a serde error.
    fn from_untrusted(pts: Vec<Point>) -> Result<Self, serde::Error> {
        Chain::try_new(pts).map_err(|(a, b)| serde::Error(format!("chain step {a:?} -> {b:?} is not axis-parallel")))
    }

    /// Chain consisting of a single point.
    pub fn singleton(p: Point) -> Self {
        Chain { pts: vec![p], sx: 0, sy: 0 }
    }

    /// The vertices of the chain.
    pub fn points(&self) -> &[Point] {
        &self.pts
    }

    /// First endpoint.
    pub fn first(&self) -> Point {
        self.pts[0]
    }

    /// Last endpoint.
    pub fn last(&self) -> Point {
        *self.pts.last().unwrap()
    }

    /// Number of segments (the paper's `|C|`).
    pub fn num_segments(&self) -> usize {
        self.pts.len().saturating_sub(1)
    }

    /// Total length of the chain.
    pub fn length(&self) -> Dist {
        self.pts.windows(2).map(|w| w[0].l1(w[1])).sum()
    }

    /// Iterate over the segments as (start, end) pairs.
    pub fn segments(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        self.pts.windows(2).map(|w| (w[0], w[1]))
    }

    /// Reverse the chain.
    pub fn reversed(&self) -> Chain {
        let mut p = self.pts.clone();
        p.reverse();
        let flip = |s: i8| if s == NOT_MONOTONE { s } else { -s };
        Chain { pts: p, sx: flip(self.sx), sy: flip(self.sy) }
    }

    /// Concatenate `self` with `other`.  The last point of `self` must equal
    /// the first point of `other`.
    pub fn concat(&self, other: &Chain) -> Chain {
        assert_eq!(self.last(), other.first(), "chains must share an endpoint");
        let mut pts = self.pts.clone();
        pts.extend_from_slice(&other.pts[1..]);
        Chain::new(pts)
    }

    /// Is the chain monotone in x (every vertical line meets it in a
    /// connected set)?  `O(1)` — the sign is cached at construction.
    pub fn is_x_monotone(&self) -> bool {
        self.sx != NOT_MONOTONE
    }

    /// Is the chain monotone in y?  `O(1)`.
    pub fn is_y_monotone(&self) -> bool {
        self.sy != NOT_MONOTONE
    }

    /// Is this chain a staircase (monotone in both axes — a "convex path")?
    pub fn is_staircase(&self) -> bool {
        self.is_x_monotone() && self.is_y_monotone()
    }

    /// Monotonicity of a staircase chain, normalised to a left-to-right walk.
    /// Returns `None` if the chain is not a staircase or is a single
    /// axis-parallel segment (either classification is fine then).
    pub fn staircase_monotonicity(&self) -> Option<Monotone> {
        if !self.is_staircase() {
            return None;
        }
        let a = self.first();
        let b = self.last();
        let dx = (b.x - a.x).signum();
        let dy = (b.y - a.y).signum();
        if dx == 0 || dy == 0 {
            return None;
        }
        Some(if dx == dy { Monotone::Increasing } else { Monotone::Decreasing })
    }

    /// Is `p` on the chain?
    pub fn contains_point(&self, p: Point) -> bool {
        self.pts.len() == 1 && self.pts[0] == p || self.segments().any(|(a, b)| on_segment(a, b, p))
    }

    /// Arc-length position of a point that lies on the chain (distance along
    /// the chain from `first()`).  Returns `None` if the point is not on it.
    pub fn arc_position(&self, p: Point) -> Option<Dist> {
        if self.pts.len() == 1 {
            return if self.pts[0] == p { Some(0) } else { None };
        }
        let mut acc: Dist = 0;
        for (a, b) in self.segments() {
            if on_segment(a, b, p) {
                return Some(acc + a.l1(p));
            }
            acc += a.l1(b);
        }
        None
    }

    /// Distance along the chain between two points of the chain.  For a
    /// staircase this equals their L1 distance (which is why walking along a
    /// clear staircase is always a shortest path — Lemma 11's proof).
    pub fn walk_distance(&self, p: Point, q: Point) -> Option<Dist> {
        Some((self.arc_position(p)? - self.arc_position(q)?).abs())
    }

    /// For a *staircase* chain: which side of the chain is `p` on?
    ///
    /// The answer is with respect to the chain extended to infinity by
    /// prolonging its first and last segments, which matches how separators
    /// clamped to a bounding window behave (the window boundary is reached by
    /// the first/last segment).
    pub fn side_of(&self, p: Point) -> Side {
        debug_assert!(self.is_staircase(), "side_of requires a staircase");
        if self.contains_point(p) {
            return Side::On;
        }
        if self.pts.len() == 1 {
            // degenerate; classify by y then x
            let q = self.pts[0];
            return if (p.y, -p.x) > (q.y, -q.x) { Side::Above } else { Side::Below };
        }
        let mono = self.staircase_monotonicity();
        // Determine the chain's y-extent at x = p.x (extending first/last
        // segments to infinity), then compare.
        let xs_lo = self.pts.iter().map(|q| q.x).min().unwrap();
        let xs_hi = self.pts.iter().map(|q| q.x).max().unwrap();
        if p.x < xs_lo || p.x > xs_hi {
            // Off the end: classify against the endpoint's y, using the
            // prolongation of the terminal segment (which is horizontal or
            // vertical).  For a vertical terminal segment the prolongation is
            // a vertical ray; anything beyond it in x is classified by which
            // side of that ray it is on combined with monotonicity.
            let (end, other) = if p.x < xs_lo {
                if self.first().x <= self.last().x {
                    (self.first(), self.pts[1])
                } else {
                    (self.last(), self.pts[self.pts.len() - 2])
                }
            } else if self.first().x >= self.last().x {
                (self.first(), self.pts[1])
            } else {
                (self.last(), self.pts[self.pts.len() - 2])
            };
            let _ = other;
            return if p.y > end.y {
                Side::Above
            } else if p.y < end.y {
                Side::Below
            } else {
                // same y, beyond in x: for increasing chains the region above
                // is up-left, so a point left of the left end is Above iff
                // the chain increases; mirrored for the right end.
                match (mono, p.x < xs_lo) {
                    (Some(Monotone::Increasing), true) => Side::Above,
                    (Some(Monotone::Increasing), false) => Side::Below,
                    (Some(Monotone::Decreasing), true) => Side::Below,
                    (Some(Monotone::Decreasing), false) => Side::Above,
                    (None, _) => Side::Above,
                }
            };
        }
        // y-extent of the chain at x = p.x
        let mut ylo = Coord::MAX;
        let mut yhi = Coord::MIN;
        for (a, b) in self.segments() {
            let (sx_lo, sx_hi) = (a.x.min(b.x), a.x.max(b.x));
            if sx_lo <= p.x && p.x <= sx_hi {
                ylo = ylo.min(a.y.min(b.y));
                yhi = yhi.max(a.y.max(b.y));
                // For vertical segments at exactly p.x the whole extent counts;
                // for horizontal segments only the segment's y.
                if a.y == b.y {
                    ylo = ylo.min(a.y);
                    yhi = yhi.max(a.y);
                }
            }
        }
        if p.y > yhi {
            Side::Above
        } else if p.y < ylo {
            Side::Below
        } else {
            // Between ylo and yhi but not on the chain: this can only happen
            // at an x where the chain has a jump (vertical segment at a
            // different x sharing the column).  Resolve by comparing with the
            // chain point at this exact column.
            Side::Above
        }
    }

    /// Intersection of the chain with the vertical line `x = c`, as the
    /// (possibly degenerate) y-interval covered.  `None` if no intersection.
    ///
    /// `O(log n)` on staircases (binary search over the monotone vertex
    /// list — a staircase meets a grid line in at most three consecutive
    /// segments); `O(n)` on general chains.  Debug builds cross-check the
    /// binary search against [`Chain::intersect_vertical_linear`].
    pub fn intersect_vertical(&self, c: Coord) -> Option<(Coord, Coord)> {
        if self.is_staircase() && self.pts.len() > STAIR_SEARCH_CUTOFF && self.sx != 0 {
            let fast = self.intersect_line_stair(c, true);
            debug_assert_eq!(
                fast,
                self.intersect_vertical_linear(c),
                "staircase binary search disagrees with the linear scan at x={c}: {:?}",
                self.pts
            );
            return fast;
        }
        self.intersect_vertical_linear(c)
    }

    /// Reference `O(n)` implementation of [`Chain::intersect_vertical`]:
    /// works on arbitrary chains and is the debug-build cross-check for the
    /// staircase binary search.
    pub fn intersect_vertical_linear(&self, c: Coord) -> Option<(Coord, Coord)> {
        let mut lo = Coord::MAX;
        let mut hi = Coord::MIN;
        let mut found = false;
        if self.pts.len() == 1 {
            let p = self.pts[0];
            return if p.x == c { Some((p.y, p.y)) } else { None };
        }
        for (a, b) in self.segments() {
            let (sx_lo, sx_hi) = (a.x.min(b.x), a.x.max(b.x));
            if sx_lo <= c && c <= sx_hi {
                found = true;
                if a.x == b.x {
                    lo = lo.min(a.y.min(b.y));
                    hi = hi.max(a.y.max(b.y));
                } else {
                    lo = lo.min(a.y);
                    hi = hi.max(a.y);
                }
            }
        }
        if found {
            Some((lo, hi))
        } else {
            None
        }
    }

    /// Intersection of the chain with the horizontal line `y = c`, as the
    /// (possibly degenerate) x-interval covered.  Same cost profile as
    /// [`Chain::intersect_vertical`].
    pub fn intersect_horizontal(&self, c: Coord) -> Option<(Coord, Coord)> {
        if self.is_staircase() && self.pts.len() > STAIR_SEARCH_CUTOFF && self.sy != 0 {
            let fast = self.intersect_line_stair(c, false);
            debug_assert_eq!(
                fast,
                self.intersect_horizontal_linear(c),
                "staircase binary search disagrees with the linear scan at y={c}: {:?}",
                self.pts
            );
            return fast;
        }
        self.intersect_horizontal_linear(c)
    }

    /// Reference `O(n)` implementation of [`Chain::intersect_horizontal`].
    pub fn intersect_horizontal_linear(&self, c: Coord) -> Option<(Coord, Coord)> {
        let mut lo = Coord::MAX;
        let mut hi = Coord::MIN;
        let mut found = false;
        if self.pts.len() == 1 {
            let p = self.pts[0];
            return if p.y == c { Some((p.x, p.x)) } else { None };
        }
        for (a, b) in self.segments() {
            let (sy_lo, sy_hi) = (a.y.min(b.y), a.y.max(b.y));
            if sy_lo <= c && c <= sy_hi {
                found = true;
                if a.y == b.y {
                    lo = lo.min(a.x.min(b.x));
                    hi = hi.max(a.x.max(b.x));
                } else {
                    lo = lo.min(a.x);
                    hi = hi.max(a.x);
                }
            }
        }
        if found {
            Some((lo, hi))
        } else {
            None
        }
    }

    /// Binary-search core of the staircase line intersections.  `vertical`
    /// selects the query line orientation (`x = c` vs `y = c`).  Requires a
    /// staircase with nonzero movement along the query axis; on such a chain
    /// the coordinates of the vertex list are monotone along the axis, so at
    /// most two vertices share the coordinate `c` and the segments meeting
    /// the line form a run of at most three, found by one `partition_point`.
    fn intersect_line_stair(&self, c: Coord, vertical: bool) -> Option<(Coord, Coord)> {
        let pts = &self.pts;
        let n = pts.len();
        let (sign, (coord, perp)): (i8, AxisAccessors) =
            if vertical { (self.sx, (|p| p.x, |p| p.y)) } else { (self.sy, (|p| p.y, |p| p.x)) };
        debug_assert!(sign == 1 || sign == -1);
        // First vertex index whose coordinate has reached `c` in walk order.
        let start =
            if sign == 1 { pts.partition_point(|p| coord(p) < c) } else { pts.partition_point(|p| coord(p) > c) };
        let mut lo = Coord::MAX;
        let mut hi = Coord::MIN;
        let mut found = false;
        let mut i = start.saturating_sub(1);
        while i + 1 < n {
            let (a, b) = (&pts[i], &pts[i + 1]);
            let (slo, shi) = (coord(a).min(coord(b)), coord(a).max(coord(b)));
            if (sign == 1 && slo > c) || (sign == -1 && shi < c) {
                break; // all later segments lie strictly beyond the line
            }
            if slo <= c && c <= shi {
                found = true;
                if coord(a) == coord(b) {
                    lo = lo.min(perp(a).min(perp(b)));
                    hi = hi.max(perp(a).max(perp(b)));
                } else {
                    lo = lo.min(perp(a));
                    hi = hi.max(perp(a));
                }
            }
            i += 1;
        }
        if found {
            Some((lo, hi))
        } else {
            None
        }
    }

    /// All points of the chain lying on the vertical line `x = c` restricted
    /// to chain vertices and segment crossings (i.e. the canonical crossing
    /// point).  Used when discretising a separator chain by coordinate grid
    /// lines.
    pub fn points_at_x(&self, c: Coord) -> Vec<Point> {
        let mut out = Vec::new();
        if let Some((lo, hi)) = self.intersect_vertical(c) {
            out.push(Point::new(c, lo));
            if hi != lo {
                out.push(Point::new(c, hi));
            }
        }
        out
    }

    /// Same as [`Chain::points_at_x`] for horizontal grid lines.
    pub fn points_at_y(&self, c: Coord) -> Vec<Point> {
        let mut out = Vec::new();
        if let Some((lo, hi)) = self.intersect_horizontal(c) {
            out.push(Point::new(lo, c));
            if hi != lo {
                out.push(Point::new(hi, c));
            }
        }
        out
    }
}

/// Is point `p` on the closed axis-parallel segment `a`–`b`?
pub fn on_segment(a: Point, b: Point, p: Point) -> bool {
    if a.x == b.x {
        p.x == a.x && p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y)
    } else {
        p.y == a.y && p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;
    use crate::rect::Rect;

    fn stair() -> Chain {
        // increasing staircase from (0,0) up-right to (6,6)
        Chain::new(vec![pt(0, 0), pt(2, 0), pt(2, 3), pt(5, 3), pt(5, 6), pt(6, 6)])
    }

    #[test]
    fn construction_merges_collinear() {
        let c = Chain::new(vec![pt(0, 0), pt(1, 0), pt(3, 0), pt(3, 2), pt(3, 5)]);
        assert_eq!(c.points(), &[pt(0, 0), pt(3, 0), pt(3, 5)]);
        assert_eq!(c.num_segments(), 2);
        assert_eq!(c.length(), 8);
    }

    #[test]
    #[should_panic]
    fn construction_rejects_diagonal() {
        Chain::new(vec![pt(0, 0), pt(1, 1)]);
    }

    #[test]
    fn decoding_a_diagonal_step_is_an_error_not_a_panic() {
        assert_eq!(Chain::try_new(vec![pt(0, 0), pt(0, 2), pt(1, 3)]), Err((pt(0, 2), pt(1, 3))));
        let diagonal = vec![pt(0, 0), pt(1, 1)];
        let err = serde_json::from_str::<Chain>(&serde_json::to_string(&diagonal).unwrap()).unwrap_err();
        assert!(err.0.contains("not axis-parallel"), "{err:?}");
        let err = serde::from_bytes::<Chain>(&serde::to_bytes(&diagonal)).unwrap_err();
        assert!(err.0.contains("not axis-parallel"), "{err:?}");
        assert_eq!(serde::from_bytes::<Chain>(&serde::to_bytes(&stair())), Ok(stair()));
    }

    #[test]
    fn staircase_classification() {
        let c = stair();
        assert!(c.is_staircase());
        assert_eq!(c.staircase_monotonicity(), Some(Monotone::Increasing));
        let dec = Chain::new(vec![pt(0, 5), pt(3, 5), pt(3, 1), pt(7, 1)]);
        assert_eq!(dec.staircase_monotonicity(), Some(Monotone::Decreasing));
        let zig = Chain::new(vec![pt(0, 0), pt(2, 0), pt(2, 2), pt(4, 2), pt(4, 0)]);
        assert!(!zig.is_staircase());
        assert!(zig.is_x_monotone());
        assert!(!zig.is_y_monotone());
    }

    #[test]
    fn length_equals_l1_for_staircase() {
        let c = stair();
        assert_eq!(c.length(), c.first().l1(c.last()));
    }

    #[test]
    fn contains_and_arc_position() {
        let c = stair();
        assert!(c.contains_point(pt(2, 1)));
        assert!(c.contains_point(pt(4, 3)));
        assert!(!c.contains_point(pt(3, 4)));
        assert_eq!(c.arc_position(pt(0, 0)), Some(0));
        assert_eq!(c.arc_position(pt(2, 0)), Some(2));
        assert_eq!(c.arc_position(pt(2, 3)), Some(5));
        assert_eq!(c.arc_position(pt(4, 3)), Some(7));
        assert_eq!(c.arc_position(pt(3, 4)), None);
        assert_eq!(c.walk_distance(pt(2, 0), pt(4, 3)), Some(5));
    }

    #[test]
    fn walk_distance_is_l1_on_staircase() {
        let c = stair();
        let on = [pt(0, 0), pt(2, 2), pt(4, 3), pt(5, 5), pt(6, 6)];
        for &p in &on {
            for &q in &on {
                assert_eq!(c.walk_distance(p, q), Some(p.l1(q)), "{:?} {:?}", p, q);
            }
        }
    }

    #[test]
    fn side_tests() {
        let c = stair();
        assert_eq!(c.side_of(pt(0, 5)), Side::Above);
        assert_eq!(c.side_of(pt(1, 2)), Side::Above);
        assert_eq!(c.side_of(pt(4, 1)), Side::Below);
        assert_eq!(c.side_of(pt(6, 0)), Side::Below);
        assert_eq!(c.side_of(pt(2, 2)), Side::On);
        assert_eq!(c.side_of(pt(3, 3)), Side::On);
        // beyond the ends in x
        assert_eq!(c.side_of(pt(-5, 3)), Side::Above);
        assert_eq!(c.side_of(pt(-5, -3)), Side::Below);
        assert_eq!(c.side_of(pt(10, 2)), Side::Below);
        assert_eq!(c.side_of(pt(10, 9)), Side::Above);
    }

    #[test]
    fn line_intersections() {
        let c = stair();
        assert_eq!(c.intersect_vertical(2), Some((0, 3)));
        assert_eq!(c.intersect_vertical(4), Some((3, 3)));
        assert_eq!(c.intersect_vertical(-1), None);
        assert_eq!(c.intersect_horizontal(3), Some((2, 5)));
        assert_eq!(c.intersect_horizontal(5), Some((5, 5)));
        assert_eq!(c.intersect_horizontal(10), None);
        assert_eq!(c.points_at_x(2), vec![pt(2, 0), pt(2, 3)]);
        assert_eq!(c.points_at_y(3), vec![pt(2, 3), pt(5, 3)]);
    }

    /// A long increasing staircase exercising the binary-search path of the
    /// line intersections (more than `STAIR_SEARCH_CUTOFF` vertices, with
    /// flat runs of varying width).
    fn long_stair(steps: i64) -> Chain {
        let mut pts = Vec::new();
        let (mut x, mut y) = (0i64, 0i64);
        for i in 0..steps {
            pts.push(pt(x, y));
            x += 1 + (i % 3);
            pts.push(pt(x, y));
            y += 1 + ((i + 1) % 2);
        }
        pts.push(pt(x, y));
        Chain::new(pts)
    }

    #[test]
    fn binary_search_intersections_match_linear_on_long_staircases() {
        for chain in [long_stair(20), long_stair(20).reversed(), long_stair(7)] {
            assert!(chain.is_staircase());
            let b = chain.points().iter().fold(Rect::new(0, 0, 1, 1), |r, p| {
                Rect::new(r.xmin.min(p.x), r.ymin.min(p.y), r.xmax.max(p.x), r.ymax.max(p.y))
            });
            for c in (b.xmin - 2)..=(b.xmax + 2) {
                assert_eq!(chain.intersect_vertical(c), chain.intersect_vertical_linear(c), "x={c}");
            }
            for c in (b.ymin - 2)..=(b.ymax + 2) {
                assert_eq!(chain.intersect_horizontal(c), chain.intersect_horizontal_linear(c), "y={c}");
            }
        }
        // decreasing staircase (x increasing, y decreasing)
        let dec = Chain::new(
            (0..15)
                .flat_map(|i| [pt(2 * i, -3 * i), pt(2 * i + 1, -3 * i), pt(2 * i + 1, -3 * (i + 1))])
                .collect::<Vec<_>>(),
        );
        assert!(dec.is_staircase());
        for c in -50..35 {
            assert_eq!(dec.intersect_vertical(c), dec.intersect_vertical_linear(c), "x={c}");
            assert_eq!(dec.intersect_horizontal(c), dec.intersect_horizontal_linear(c), "y={c}");
        }
    }

    #[test]
    fn non_monotone_chains_use_the_linear_scan() {
        // a long zig-zag is x-monotone but not a staircase; intersections
        // must still be exact (linear fallback)
        let zig: Vec<Point> = (0..12).flat_map(|i| [pt(3 * i, (i % 2) * 4), pt(3 * i + 3, (i % 2) * 4)]).collect();
        let chain = Chain::new(zig);
        assert!(chain.is_x_monotone() && !chain.is_y_monotone() && !chain.is_staircase());
        assert_eq!(chain.intersect_horizontal(0), chain.intersect_horizontal_linear(0));
        assert_eq!(chain.intersect_vertical(7), chain.intersect_vertical_linear(7));
        assert_eq!(chain.intersect_vertical(4), Some((4, 4)));
    }

    #[test]
    fn monotonicity_cache_survives_reversal_and_concat() {
        let c = long_stair(12);
        assert!(c.is_staircase());
        assert_eq!(c.staircase_monotonicity(), Some(Monotone::Increasing));
        let r = c.reversed();
        assert!(r.is_staircase());
        assert!(r.is_x_monotone() && r.is_y_monotone());
        let d = Chain::new(vec![c.last(), pt(c.last().x + 4, c.last().y)]);
        let cat = c.concat(&d);
        assert!(cat.is_staircase());
        let zig = Chain::new(vec![pt(0, 0), pt(2, 0), pt(2, 2), pt(4, 2), pt(4, 0)]);
        assert!(!zig.reversed().is_y_monotone());
        assert!(zig.reversed().is_x_monotone());
    }

    #[test]
    fn concat_and_reverse() {
        let a = Chain::new(vec![pt(0, 0), pt(0, 3)]);
        let b = Chain::new(vec![pt(0, 3), pt(4, 3)]);
        let c = a.concat(&b);
        assert_eq!(c.points(), &[pt(0, 0), pt(0, 3), pt(4, 3)]);
        assert_eq!(c.reversed().first(), pt(4, 3));
        assert_eq!(c.reversed().length(), c.length());
    }
}
