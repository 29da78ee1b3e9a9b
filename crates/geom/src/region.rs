//! Rectilinearly convex regions with clear boundaries — the regions `Q` of
//! Sections 4–6 of the paper (envelopes `Env(R')`, the polygon `P`, and the
//! halves produced by cutting a region with a staircase separator).
//!
//! A region is stored as a simple rectilinear polygon (counterclockwise list
//! of vertices, axis-parallel edges).  The divide-and-conquer of Section 5
//! only ever produces *rectilinearly convex* regions: the root is a bounding
//! rectangle and every cut is by a staircase (a chain monotone in both axes),
//! and cutting a rectilinearly convex region along a staircase yields two
//! rectilinearly convex regions.

use crate::chain::{on_segment, Chain};
use crate::point::{Coord, Point};
use crate::rect::Rect;
use serde::{Deserialize, Serialize};

/// A simple rectilinear polygon with counterclockwise orientation, used as a
/// convex connected region whose boundary is clear of obstacle interiors.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct StairRegion {
    verts: Vec<Point>,
}

impl StairRegion {
    /// Build a region from a vertex list (closed implicitly; the last vertex
    /// connects back to the first).  Collinear and duplicate vertices are
    /// removed and the orientation is normalised to counterclockwise.
    pub fn new(verts: Vec<Point>) -> Self {
        let cleaned = clean_polygon(verts);
        assert!(cleaned.len() >= 4, "a rectilinear region needs at least 4 vertices");
        let mut region = StairRegion { verts: cleaned };
        if region.signed_area2() < 0 {
            region.verts.reverse();
            region.verts = clean_polygon(region.verts.clone());
        }
        region
    }

    /// Region that is an axis-aligned rectangle.
    pub fn from_rect(r: Rect) -> Self {
        StairRegion::new(vec![r.ll(), r.lr(), r.ur(), r.ul()])
    }

    /// The vertices, counterclockwise.
    pub fn vertices(&self) -> &[Point] {
        &self.verts
    }

    /// Number of vertices (the paper's `|Q|`).
    pub fn num_vertices(&self) -> usize {
        self.verts.len()
    }

    /// Edges as (start, end) pairs, counterclockwise, including the closing
    /// edge.
    pub fn edges(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        let n = self.verts.len();
        (0..n).map(move |i| (self.verts[i], self.verts[(i + 1) % n]))
    }

    /// Twice the signed area (positive for counterclockwise orientation),
    /// in `i128`: the cross products of coordinates near
    /// [`COORD_LIMIT`](crate::COORD_LIMIT) overflow `i64`.
    pub fn signed_area2(&self) -> i128 {
        let n = self.verts.len();
        let mut acc = 0i128;
        for i in 0..n {
            let (a, b) = (self.verts[i], self.verts[(i + 1) % n]);
            acc += i128::from(a.x) * i128::from(b.y) - i128::from(b.x) * i128::from(a.y);
        }
        acc
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        let xmin = self.verts.iter().map(|p| p.x).min().unwrap();
        let xmax = self.verts.iter().map(|p| p.x).max().unwrap();
        let ymin = self.verts.iter().map(|p| p.y).min().unwrap();
        let ymax = self.verts.iter().map(|p| p.y).max().unwrap();
        Rect::new(xmin, ymin, xmax, ymax)
    }

    /// Is `p` on the boundary of the region?
    pub fn on_boundary(&self, p: Point) -> bool {
        self.edges().any(|(a, b)| on_segment(a, b, p))
    }

    /// Closed containment (boundary counts as inside).
    pub fn contains(&self, p: Point) -> bool {
        if self.on_boundary(p) {
            return true;
        }
        // even-odd rule with a ray in +x direction; only vertical edges count,
        // half-open in y so that vertices are not double counted.
        let mut inside = false;
        for (a, b) in self.edges() {
            if a.x == b.x && a.x > p.x {
                let (lo, hi) = (a.y.min(b.y), a.y.max(b.y));
                if lo <= p.y && p.y < hi {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Closed containment of a whole rectangle.  For rectilinearly convex
    /// regions it suffices to test the four corners.
    pub fn contains_rect(&self, r: &Rect) -> bool {
        r.corners().iter().all(|&c| self.contains(c))
    }

    /// Is the region rectilinearly convex (monotone with respect to both
    /// axes)?  Intended for assertions and tests.
    pub fn is_rectilinearly_convex(&self) -> bool {
        // Work with doubled coordinates so that we can probe strictly between
        // any two distinct integer coordinates.
        let doubled: Vec<Point> = self.verts.iter().map(|p| Point::new(p.x * 2, p.y * 2)).collect();
        let region2 = StairRegion { verts: doubled };
        let mut xs: Vec<Coord> = region2.verts.iter().map(|p| p.x).collect();
        xs.sort_unstable();
        xs.dedup();
        let mut probes = xs.clone();
        probes.extend(xs.windows(2).map(|w| (w[0] + w[1]) / 2));
        for &x in &probes {
            if !region2.vertical_cut_connected(x) {
                return false;
            }
        }
        let mut ys: Vec<Coord> = region2.verts.iter().map(|p| p.y).collect();
        ys.sort_unstable();
        ys.dedup();
        let mut probes = ys.clone();
        probes.extend(ys.windows(2).map(|w| (w[0] + w[1]) / 2));
        for &y in &probes {
            if !region2.horizontal_cut_connected(y) {
                return false;
            }
        }
        true
    }

    fn vertical_cut_connected(&self, x: Coord) -> bool {
        // Collect the y-intervals of the region along the vertical line x.
        let mut ys: Vec<Coord> = Vec::new();
        for (a, b) in self.edges() {
            if a.y == b.y {
                // horizontal edge crossing the line contributes its y once
                let (lo, hi) = (a.x.min(b.x), a.x.max(b.x));
                if lo < x && x < hi {
                    ys.push(a.y);
                }
            }
        }
        ys.sort_unstable();
        ys.dedup();
        // Crossings pair up into intervals; connected means at most one pair,
        // modulo vertical boundary edges lying exactly on the line (which we
        // do not probe thanks to the doubling + midpoint scheme when strict).
        ys.len() <= 2
    }

    fn horizontal_cut_connected(&self, y: Coord) -> bool {
        let mut xs: Vec<Coord> = Vec::new();
        for (a, b) in self.edges() {
            if a.x == b.x {
                let (lo, hi) = (a.y.min(b.y), a.y.max(b.y));
                if lo < y && y < hi {
                    xs.push(a.x);
                }
            }
        }
        xs.sort_unstable();
        xs.dedup();
        xs.len() <= 2
    }

    /// All boundary points that are vertices or lie on one of the given
    /// vertical (`xs`) / horizontal (`ys`) grid lines, in counterclockwise
    /// circular order starting from vertex 0.  This is the coordinate-grid
    /// boundary discretisation `B'(Q)` used by the divide-and-conquer (a
    /// superset of the paper's visibility-based `B(Q)`, Definition 1).
    pub fn boundary_grid_points(&self, xs: &[Coord], ys: &[Coord]) -> Vec<Point> {
        let mut out: Vec<Point> = Vec::new();
        for (a, b) in self.edges() {
            out.push(a);
            let mut interior: Vec<Point> = Vec::new();
            if a.x == b.x {
                // vertical edge: horizontal grid lines cut it
                let (lo, hi) = (a.y.min(b.y), a.y.max(b.y));
                for &y in ys {
                    if lo < y && y < hi {
                        interior.push(Point::new(a.x, y));
                    }
                }
                interior.sort_by_key(|p| if b.y > a.y { p.y } else { -p.y });
            } else {
                let (lo, hi) = (a.x.min(b.x), a.x.max(b.x));
                for &x in xs {
                    if lo < x && x < hi {
                        interior.push(Point::new(x, a.y));
                    }
                }
                interior.sort_by_key(|p| if b.x > a.x { p.x } else { -p.x });
            }
            out.extend(interior);
        }
        out.dedup();
        if out.len() > 1 && out.first() == out.last() {
            out.pop();
        }
        out
    }

    /// Locate a boundary point: index `i` such that `p` lies on the edge
    /// `verts[i] -> verts[i+1]`, excluding the end vertex (half-open), so the
    /// location is unique.  `None` if `p` is not on the boundary.
    pub fn locate_on_boundary(&self, p: Point) -> Option<usize> {
        let n = self.verts.len();
        for i in 0..n {
            let a = self.verts[i];
            let b = self.verts[(i + 1) % n];
            if p != b && on_segment(a, b, p) {
                return Some(i);
            }
        }
        None
    }

    /// Walk the boundary counterclockwise from `a` to `b` (both on the
    /// boundary), returning the region vertices strictly between them (in
    /// walk order).  Used to assemble the two halves when splitting by a
    /// chain.
    fn boundary_walk(&self, a: Point, b: Point) -> Vec<Point> {
        let n = self.verts.len();
        let ia = self.locate_on_boundary(a).expect("walk start not on boundary");
        let ib = self.locate_on_boundary(b).expect("walk end not on boundary");
        if ia == ib {
            let va = self.verts[ia];
            if va.l1(a) <= va.l1(b) {
                // b is ahead of a on the same edge: no vertices in between
                return Vec::new();
            }
        }
        let mut out = Vec::new();
        let mut k = (ia + 1) % n;
        loop {
            out.push(self.verts[k]);
            if k == ib {
                break;
            }
            k = (k + 1) % n;
        }
        out
    }

    /// Split the region along a chain whose endpoints lie on the boundary and
    /// whose interior lies strictly inside the region.  Returns the two
    /// pieces; the first piece is the one whose boundary traverses the chain
    /// from `chain.first()` to `chain.last()` and then returns along the
    /// region boundary counterclockwise.
    pub fn split_by_chain(&self, chain: &Chain) -> (StairRegion, StairRegion) {
        self.try_split_by_chain(chain).expect("degenerate split")
    }

    /// Like [`StairRegion::split_by_chain`] but returns `None` when the cut
    /// would be degenerate (one of the pieces has no area), instead of
    /// panicking.
    pub fn try_split_by_chain(&self, chain: &Chain) -> Option<(StairRegion, StairRegion)> {
        let p0 = chain.first();
        let p1 = chain.last();
        if !self.on_boundary(p0) || !self.on_boundary(p1) {
            return None;
        }
        let mut poly1: Vec<Point> = chain.points().to_vec();
        poly1.extend(self.boundary_walk(p1, p0));
        let rev = chain.reversed();
        let mut poly2: Vec<Point> = rev.points().to_vec();
        poly2.extend(self.boundary_walk(p0, p1));
        let c1 = clean_polygon(poly1);
        let c2 = clean_polygon(poly2);
        if c1.len() < 4 || c2.len() < 4 {
            return None;
        }
        Some((StairRegion::new(c1), StairRegion::new(c2)))
    }

    /// The total boundary length (perimeter).
    pub fn perimeter(&self) -> i64 {
        self.edges().map(|(a, b)| a.l1(b)).sum()
    }
}

/// Remove repeated points and merge collinear runs from a closed polygon
/// vertex list.
fn clean_polygon(verts: Vec<Point>) -> Vec<Point> {
    let mut v: Vec<Point> = Vec::with_capacity(verts.len());
    for p in verts {
        if v.last() == Some(&p) {
            continue;
        }
        v.push(p);
    }
    while v.len() > 1 && v.first() == v.last() {
        v.pop();
    }
    // merge collinear triples (wrapping)
    loop {
        let n = v.len();
        if n < 3 {
            break;
        }
        let mut removed = false;
        let mut out: Vec<Point> = Vec::with_capacity(n);
        for i in 0..n {
            let prev = v[(i + n - 1) % n];
            let cur = v[i];
            let next = v[(i + 1) % n];
            let collinear = (prev.x == cur.x && cur.x == next.x) || (prev.y == cur.y && cur.y == next.y);
            if collinear {
                removed = true;
            } else {
                out.push(cur);
            }
        }
        v = out;
        if !removed {
            break;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    fn square() -> StairRegion {
        StairRegion::from_rect(Rect::new(0, 0, 10, 10))
    }

    #[test]
    fn construction_normalises_orientation() {
        let cw = StairRegion::new(vec![pt(0, 0), pt(0, 10), pt(10, 10), pt(10, 0)]);
        assert!(cw.signed_area2() > 0);
        assert_eq!(cw.num_vertices(), 4);
    }

    #[test]
    fn construction_removes_collinear() {
        let r = StairRegion::new(vec![pt(0, 0), pt(5, 0), pt(10, 0), pt(10, 10), pt(0, 10)]);
        assert_eq!(r.num_vertices(), 4);
    }

    #[test]
    fn containment() {
        let sq = square();
        assert!(sq.contains(pt(5, 5)));
        assert!(sq.contains(pt(0, 0)));
        assert!(sq.contains(pt(10, 3)));
        assert!(!sq.contains(pt(11, 3)));
        assert!(!sq.contains(pt(5, -1)));
        assert!(sq.on_boundary(pt(0, 7)));
        assert!(!sq.on_boundary(pt(1, 7)));
        assert!(sq.contains_rect(&Rect::new(2, 2, 8, 8)));
        assert!(!sq.contains_rect(&Rect::new(2, 2, 12, 8)));
    }

    #[test]
    fn l_shape_is_not_rect_convex() {
        let l = StairRegion::new(vec![pt(0, 0), pt(10, 0), pt(10, 4), pt(4, 4), pt(4, 10), pt(0, 10)]);
        // an L-shape is x- and y-monotone?  The L above actually is monotone;
        // build a U-shape which is not.
        assert!(l.is_rectilinearly_convex());
        let u = StairRegion::new(vec![
            pt(0, 0),
            pt(12, 0),
            pt(12, 10),
            pt(8, 10),
            pt(8, 4),
            pt(4, 4),
            pt(4, 10),
            pt(0, 10),
        ]);
        assert!(!u.is_rectilinearly_convex());
        assert!(square().is_rectilinearly_convex());
    }

    #[test]
    fn boundary_grid_points_square() {
        let sq = square();
        let pts = sq.boundary_grid_points(&[3, 7], &[5]);
        // 4 vertices + 2 cuts on bottom + 2 on top + 1 on each side = 10
        assert_eq!(pts.len(), 10);
        // counterclockwise order, starting at (0,0)
        assert_eq!(pts[0], pt(0, 0));
        assert_eq!(pts[1], pt(3, 0));
        assert_eq!(pts[2], pt(7, 0));
        assert_eq!(pts[3], pt(10, 0));
        assert_eq!(pts[4], pt(10, 5));
        assert!(pts.contains(&pt(0, 5)));
        // grid lines outside the region are ignored
        let pts2 = sq.boundary_grid_points(&[-5, 20], &[]);
        assert_eq!(pts2.len(), 4);
    }

    #[test]
    fn locate_on_boundary_is_half_open() {
        let sq = square();
        assert_eq!(sq.locate_on_boundary(pt(5, 0)), Some(0));
        assert_eq!(sq.locate_on_boundary(pt(10, 0)), Some(1)); // vertex belongs to the edge it starts
        assert_eq!(sq.locate_on_boundary(pt(0, 0)), Some(0));
        assert_eq!(sq.locate_on_boundary(pt(5, 5)), None);
    }

    #[test]
    fn split_square_by_straight_chain() {
        let sq = square();
        let chain = Chain::new(vec![pt(4, 0), pt(4, 10)]);
        let (a, b) = sq.split_by_chain(&chain);
        let total = a.signed_area2() + b.signed_area2();
        assert_eq!(total, sq.signed_area2());
        // one piece contains (1,5), the other (9,5)
        let left_first = a.contains(pt(1, 5));
        assert!(left_first || !b.contains(pt(1, 5)));
        assert!(a.contains(pt(1, 5)) ^ a.contains(pt(9, 5)));
        assert!(b.contains(pt(1, 5)) ^ b.contains(pt(9, 5)));
        // both pieces keep the chain on their boundary
        assert!(a.on_boundary(pt(4, 5)));
        assert!(b.on_boundary(pt(4, 5)));
    }

    #[test]
    fn split_square_by_staircase_chain() {
        let sq = square();
        let chain = Chain::new(vec![pt(3, 0), pt(3, 4), pt(6, 4), pt(6, 10)]);
        let (a, b) = sq.split_by_chain(&chain);
        assert_eq!(a.signed_area2() + b.signed_area2(), sq.signed_area2());
        assert!(a.is_rectilinearly_convex());
        assert!(b.is_rectilinearly_convex());
        // the upper-left piece contains (1,9); the lower-right piece (9,1)
        assert!(a.contains(pt(1, 9)) ^ b.contains(pt(1, 9)));
        assert!(a.contains(pt(9, 1)) ^ b.contains(pt(9, 1)));
        // chain interior is on both boundaries
        assert!(a.on_boundary(pt(3, 2)) && b.on_boundary(pt(3, 2)));
        assert!(a.on_boundary(pt(5, 4)) && b.on_boundary(pt(5, 4)));
    }

    #[test]
    fn split_chain_with_endpoints_on_same_edge() {
        let sq = square();
        // dip into the region and come back to the bottom edge
        let chain = Chain::new(vec![pt(2, 0), pt(2, 3), pt(7, 3), pt(7, 0)]);
        let (a, b) = sq.split_by_chain(&chain);
        assert_eq!(a.signed_area2() + b.signed_area2(), sq.signed_area2());
        let small = if a.signed_area2() < b.signed_area2() { &a } else { &b };
        assert_eq!(small.signed_area2(), 2 * 5 * 3);
    }

    #[test]
    fn perimeter() {
        assert_eq!(square().perimeter(), 40);
    }
}
