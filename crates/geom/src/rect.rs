//! Axis-parallel rectangles and sets of pairwise-disjoint rectangular
//! obstacles (the set `R` of the paper, Section 2).

use crate::point::{Coord, Dir, Dist, Point};
use serde::{Deserialize, Serialize};

/// A closed axis-parallel rectangle `[xmin, xmax] x [ymin, ymax]`.
///
/// Obstacles are *opaque for visibility* and *forbidden for paths* only in
/// their open interior: paths may run along obstacle boundaries (this is the
/// convention of the paper: a separator "may run along an obstacle's
/// boundary").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Rect {
    /// Left edge coordinate.
    pub xmin: Coord,
    /// Bottom edge coordinate.
    pub ymin: Coord,
    /// Right edge coordinate.
    pub xmax: Coord,
    /// Top edge coordinate.
    pub ymax: Coord,
}

impl Rect {
    /// Create a rectangle.  Panics if it is degenerate (zero width/height),
    /// since the paper assumes proper rectangles.
    pub fn new(xmin: Coord, ymin: Coord, xmax: Coord, ymax: Coord) -> Self {
        assert!(xmin < xmax && ymin < ymax, "degenerate rectangle");
        Rect { xmin, ymin, xmax, ymax }
    }

    /// True when the rectangle has zero (or negative) width or height.
    /// [`Rect::new`] rejects such rectangles, but a deserialised `Rect`
    /// bypasses it, so untrusted input is checked with this.
    pub fn is_degenerate(&self) -> bool {
        self.xmin >= self.xmax || self.ymin >= self.ymax
    }

    /// Horizontal extent `xmax - xmin`.
    pub fn width(&self) -> Coord {
        self.xmax - self.xmin
    }

    /// Vertical extent `ymax - ymin`.
    pub fn height(&self) -> Coord {
        self.ymax - self.ymin
    }

    /// Half-perimeter (useful as a size measure in workloads).
    pub fn half_perimeter(&self) -> Coord {
        self.width() + self.height()
    }

    /// Lower-left corner.
    pub fn ll(&self) -> Point {
        Point::new(self.xmin, self.ymin)
    }
    /// Lower-right corner.
    pub fn lr(&self) -> Point {
        Point::new(self.xmax, self.ymin)
    }
    /// Upper-left corner.
    pub fn ul(&self) -> Point {
        Point::new(self.xmin, self.ymax)
    }
    /// Upper-right corner.
    pub fn ur(&self) -> Point {
        Point::new(self.xmax, self.ymax)
    }

    /// The four corners in the order LL, LR, UR, UL (counterclockwise).
    pub fn corners(&self) -> [Point; 4] {
        [self.ll(), self.lr(), self.ur(), self.ul()]
    }

    /// Center point, rounded down.
    pub fn center(&self) -> Point {
        Point::new((self.xmin + self.xmax) / 2, (self.ymin + self.ymax) / 2)
    }

    /// Closed containment.
    pub fn contains_closed(&self, p: Point) -> bool {
        self.xmin <= p.x && p.x <= self.xmax && self.ymin <= p.y && p.y <= self.ymax
    }

    /// Open (strict interior) containment.
    pub fn contains_open(&self, p: Point) -> bool {
        self.xmin < p.x && p.x < self.xmax && self.ymin < p.y && p.y < self.ymax
    }

    /// Is `p` on the boundary?
    pub fn on_boundary(&self, p: Point) -> bool {
        self.contains_closed(p) && !self.contains_open(p)
    }

    /// Do the open interiors of `self` and `other` intersect?
    pub fn interiors_intersect(&self, other: &Rect) -> bool {
        self.xmin < other.xmax && other.xmin < self.xmax && self.ymin < other.ymax && other.ymin < self.ymax
    }

    /// Does the *open* axis-parallel segment from `a` to `b` pass through the
    /// open interior of this rectangle?  (Running along the boundary does not
    /// count.)  `a` and `b` must share a coordinate.
    pub fn blocks_segment(&self, a: Point, b: Point) -> bool {
        if a == b {
            return false;
        }
        if a.x == b.x {
            // vertical segment
            let (lo, hi) = if a.y <= b.y { (a.y, b.y) } else { (b.y, a.y) };
            self.xmin < a.x && a.x < self.xmax && lo.max(self.ymin) < hi.min(self.ymax)
        } else {
            debug_assert_eq!(a.y, b.y, "segment must be axis-parallel");
            let (lo, hi) = if a.x <= b.x { (a.x, b.x) } else { (b.x, a.x) };
            self.ymin < a.y && a.y < self.ymax && lo.max(self.xmin) < hi.min(self.xmax)
        }
    }

    /// Smallest rectangle containing both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            xmin: self.xmin.min(other.xmin),
            ymin: self.ymin.min(other.ymin),
            xmax: self.xmax.max(other.xmax),
            ymax: self.ymax.max(other.ymax),
        }
    }

    /// Expand in every direction by `margin` (must keep the rectangle valid).
    pub fn expand(&self, margin: Coord) -> Rect {
        Rect::new(self.xmin - margin, self.ymin - margin, self.xmax + margin, self.ymax + margin)
    }

    /// The corner of the rectangle in the given quadrant direction pair,
    /// e.g. `(Dir::North, Dir::East)` gives the upper-right corner.
    pub fn corner(&self, vertical: Dir, horizontal: Dir) -> Point {
        let x = if horizontal == Dir::East { self.xmax } else { self.xmin };
        let y = if vertical == Dir::North { self.ymax } else { self.ymin };
        Point::new(x, y)
    }

    /// L1 distance from a point to the closed rectangle (0 if inside).
    pub fn l1_distance_to(&self, p: Point) -> Dist {
        let dx = if p.x < self.xmin {
            self.xmin - p.x
        } else if p.x > self.xmax {
            p.x - self.xmax
        } else {
            0
        };
        let dy = if p.y < self.ymin {
            self.ymin - p.y
        } else if p.y > self.ymax {
            p.y - self.ymax
        } else {
            0
        };
        dx + dy
    }
}

/// Identifier of an obstacle within an [`ObstacleSet`].
pub type RectId = usize;

/// A batched scene edit: rectangles to insert plus obstacle ids to remove.
///
/// Removals name ids of the *current* epoch's set.  Applying a delta
/// compacts ids: survivors keep their relative order (so a surviving
/// obstacle's new id is its old id minus the removed ids below it) and the
/// inserted rectangles are appended in delta order.  A "move" is one delta
/// holding both the removal of the old id and the insertion of the new
/// geometry.  Serialisable: the `rsp-server` protocol ships deltas on the
/// wire (`UpdateScene`, protocol v4).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SceneDelta {
    /// Rectangles added to the scene (appended after the survivors).
    pub insert: Vec<Rect>,
    /// Ids (in the pre-delta set) of obstacles removed from the scene.
    pub remove: Vec<RectId>,
}

impl SceneDelta {
    /// A delta that only inserts.
    pub fn inserting(rects: Vec<Rect>) -> Self {
        SceneDelta { insert: rects, remove: Vec::new() }
    }

    /// A delta that only removes.
    pub fn removing(ids: Vec<RectId>) -> Self {
        SceneDelta { insert: Vec::new(), remove: ids }
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.remove.is_empty()
    }
}

/// Why a [`SceneDelta`] could not be applied to an [`ObstacleSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaError {
    /// A removal id is not an id of the current set.
    RemoveOutOfRange {
        /// The offending id.
        id: RectId,
        /// Number of obstacles in the set the delta was applied to.
        len: usize,
    },
    /// The same id appears twice in the removal list.
    DuplicateRemove {
        /// The repeated id.
        id: RectId,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::RemoveOutOfRange { id, len } => {
                write!(f, "delta removes obstacle {id}, but the scene has only {len} obstacles")
            }
            DeltaError::DuplicateRemove { id } => write!(f, "delta removes obstacle {id} twice"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The result of applying a [`SceneDelta`]: the edited set plus everything a
/// consumer needs to *reuse* work computed for the old set — the id remap in
/// both directions and the list of rectangles whose interior occupancy
/// changed (the removed geometries and the inserted ones).  Distances,
/// ray-shooting slabs and escape staircases that provably avoid every edited
/// rectangle are unaffected by the delta; the dirty-region machinery in
/// `rsp-core` builds exactly on this contract.
#[derive(Clone, Debug)]
pub struct AppliedDelta {
    /// The edited obstacle set (survivors in order, then inserts).
    pub obstacles: ObstacleSet,
    /// Old id → new id (`None` for removed obstacles).
    pub old_to_new: Vec<Option<RectId>>,
    /// New id → old id (`None` for inserted obstacles).
    pub new_to_old: Vec<Option<RectId>>,
    /// The closed rectangles whose interiors changed occupancy: removed
    /// geometries followed by inserted ones.
    pub edited: Vec<Rect>,
    /// New ids `>= first_inserted` are inserted obstacles.
    pub first_inserted: usize,
}

impl AppliedDelta {
    /// Check the *edited* set for overlapping interiors in `O(k·m)` (each
    /// inserted rectangle against every other rectangle), relying on the
    /// base set having been disjoint — removals cannot create an overlap.
    /// Ids in the returned violation are in the new set's numbering.
    pub fn validate_disjoint_incremental(&self) -> Result<(), DisjointnessViolation> {
        let rects = self.obstacles.rects();
        for i in self.first_inserted..rects.len() {
            for j in 0..i {
                if rects[i].interiors_intersect(&rects[j]) {
                    return Err(DisjointnessViolation {
                        first: j,
                        second: i,
                        first_rect: rects[j],
                        second_rect: rects[i],
                    });
                }
            }
        }
        Ok(())
    }
}

/// Evidence that two obstacles violate the paper's disjointness assumption:
/// the offending pair of rectangle ids together with the rectangles
/// themselves, as reported by [`ObstacleSet::validate_disjoint`].
/// Serialisable so the `rsp-server` wire protocol can ship the evidence to
/// remote clients intact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisjointnessViolation {
    /// Index of the first rectangle of the overlapping pair.
    pub first: RectId,
    /// Index of the second rectangle of the overlapping pair.
    pub second: RectId,
    /// The first rectangle.
    pub first_rect: Rect,
    /// The second rectangle.
    pub second_rect: Rect,
}

impl std::fmt::Display for DisjointnessViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let a = &self.first_rect;
        let b = &self.second_rect;
        write!(
            f,
            "obstacles {} and {} have overlapping interiors: \
             [{},{}]x[{},{}] intersects [{},{}]x[{},{}]",
            self.first, self.second, a.xmin, a.xmax, a.ymin, a.ymax, b.xmin, b.xmax, b.ymin, b.ymax
        )
    }
}

impl std::error::Error for DisjointnessViolation {}

/// A set of pairwise interior-disjoint rectangular obstacles — the input `R`
/// of the paper.  The vertex set `V_R` has `4n` points.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObstacleSet {
    rects: Vec<Rect>,
}

impl ObstacleSet {
    /// Build an obstacle set.  Does not validate disjointness (call
    /// [`ObstacleSet::validate_disjoint`] when the input is untrusted).
    pub fn new(rects: Vec<Rect>) -> Self {
        ObstacleSet { rects }
    }

    /// Empty obstacle set.
    pub fn empty() -> Self {
        ObstacleSet { rects: Vec::new() }
    }

    /// Number of obstacles (`n`).
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// True when the set holds no obstacles.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Access the underlying rectangles.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Iterate over the rectangles in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Rect> {
        self.rects.iter()
    }

    /// Obstacle by id.
    pub fn rect(&self, id: RectId) -> Rect {
        self.rects[id]
    }

    /// Check that all rectangles have pairwise disjoint interiors.  On
    /// failure the error names the offending pair (ids and rectangles).
    /// `O(n^2)` — intended for input validation and tests, not hot paths.
    pub fn validate_disjoint(&self) -> Result<(), DisjointnessViolation> {
        for i in 0..self.rects.len() {
            for j in (i + 1)..self.rects.len() {
                if self.rects[i].interiors_intersect(&self.rects[j]) {
                    return Err(DisjointnessViolation {
                        first: i,
                        second: j,
                        first_rect: self.rects[i],
                        second_rect: self.rects[j],
                    });
                }
            }
        }
        Ok(())
    }

    /// The `4n` obstacle vertices `V_R`, in obstacle order
    /// (LL, LR, UR, UL per obstacle).
    pub fn vertices(&self) -> Vec<Point> {
        let mut v = Vec::with_capacity(4 * self.rects.len());
        for r in &self.rects {
            v.extend_from_slice(&r.corners());
        }
        v
    }

    /// Obstacle id owning vertex index `i` of [`ObstacleSet::vertices`].
    pub fn vertex_owner(&self, vertex_index: usize) -> RectId {
        vertex_index / 4
    }

    /// All distinct x coordinates of obstacle vertices, sorted.
    pub fn xs(&self) -> Vec<Coord> {
        let mut xs: Vec<Coord> = self.rects.iter().flat_map(|r| [r.xmin, r.xmax]).collect();
        xs.sort_unstable();
        xs.dedup();
        xs
    }

    /// All distinct y coordinates of obstacle vertices, sorted.
    pub fn ys(&self) -> Vec<Coord> {
        let mut ys: Vec<Coord> = self.rects.iter().flat_map(|r| [r.ymin, r.ymax]).collect();
        ys.sort_unstable();
        ys.dedup();
        ys
    }

    /// Bounding box of all obstacles; `None` when empty.
    pub fn bbox(&self) -> Option<Rect> {
        let mut it = self.rects.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.union(r)))
    }

    /// Is `p` strictly inside some obstacle?  Returns the obstacle id.
    ///
    /// `O(n)` reference scan; query hot paths use the logarithmic
    /// [`ObstacleIndex`](crate::ObstacleIndex) instead (same answers,
    /// property-pinned).
    pub fn containing_obstacle(&self, p: Point) -> Option<RectId> {
        self.rects.iter().position(|r| r.contains_open(p))
    }

    /// Is the open axis-parallel segment `a`–`b` free of obstacle interiors?
    ///
    /// `O(n)` reference scan; query hot paths use
    /// [`ObstacleIndex::segment_clear`](crate::ObstacleIndex::segment_clear),
    /// which pins the same semantics behind one containment probe plus one
    /// ray shot.
    pub fn segment_clear(&self, a: Point, b: Point) -> bool {
        self.rects.iter().all(|r| !r.blocks_segment(a, b))
    }

    /// Restrict to a subset of obstacle ids (preserving order).
    pub fn subset(&self, ids: &[RectId]) -> ObstacleSet {
        ObstacleSet::new(ids.iter().map(|&i| self.rects[i]).collect())
    }

    /// Apply a [`SceneDelta`]: drop the removed ids, keep the survivors in
    /// their relative order, append the inserted rectangles.  Fails (without
    /// building anything) when a removal id is out of range or repeated.
    /// Does not validate disjointness of the result — callers holding a
    /// validated base set use
    /// [`AppliedDelta::validate_disjoint_incremental`], which is `O(k·m)`
    /// instead of `O(m^2)`.
    pub fn apply_delta(&self, delta: &SceneDelta) -> Result<AppliedDelta, DeltaError> {
        let n_old = self.rects.len();
        let mut removed = vec![false; n_old];
        for &id in &delta.remove {
            if id >= n_old {
                return Err(DeltaError::RemoveOutOfRange { id, len: n_old });
            }
            if removed[id] {
                return Err(DeltaError::DuplicateRemove { id });
            }
            removed[id] = true;
        }
        let n_new = n_old - delta.remove.len() + delta.insert.len();
        let mut rects = Vec::with_capacity(n_new);
        let mut old_to_new = Vec::with_capacity(n_old);
        let mut new_to_old = Vec::with_capacity(n_new);
        let mut edited = Vec::with_capacity(delta.remove.len() + delta.insert.len());
        for (id, &r) in self.rects.iter().enumerate() {
            if removed[id] {
                old_to_new.push(None);
                edited.push(r);
            } else {
                old_to_new.push(Some(rects.len()));
                new_to_old.push(Some(id));
                rects.push(r);
            }
        }
        let first_inserted = rects.len();
        for &r in &delta.insert {
            new_to_old.push(None);
            edited.push(r);
            rects.push(r);
        }
        Ok(AppliedDelta { obstacles: ObstacleSet::new(rects), old_to_new, new_to_old, edited, first_inserted })
    }

    /// A stable, order-independent 64-bit hash of the scene geometry.
    ///
    /// Each rectangle is hashed independently with FNV-1a over the
    /// little-endian bytes of its four coordinates; the per-rectangle hashes
    /// are then combined commutatively (wrapping sum and xor, mixed with the
    /// rectangle count in a final FNV-1a pass), so two sets holding the same
    /// rectangles in different insertion orders hash identically.  Used by
    /// `rsp-server` to key session caches — the hash is part of the wire
    /// contract and must stay stable across versions (pinned by a unit test).
    pub fn scene_hash(&self) -> u64 {
        fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
            let mut h = h;
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h
        }
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let (mut sum, mut xor) = (0u64, 0u64);
        for r in &self.rects {
            let mut h = OFFSET;
            for c in [r.xmin, r.ymin, r.xmax, r.ymax] {
                h = fnv1a(h, &c.to_le_bytes());
            }
            sum = sum.wrapping_add(h);
            xor ^= h;
        }
        let mut out = fnv1a(OFFSET, &(self.rects.len() as u64).to_le_bytes());
        out = fnv1a(out, &sum.to_le_bytes());
        fnv1a(out, &xor.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;

    fn r(a: Coord, b: Coord, c: Coord, d: Coord) -> Rect {
        Rect::new(a, b, c, d)
    }

    #[test]
    fn containment_and_boundary() {
        let rect = r(0, 0, 10, 4);
        assert!(rect.contains_closed(pt(0, 0)));
        assert!(!rect.contains_open(pt(0, 0)));
        assert!(rect.contains_open(pt(5, 2)));
        assert!(rect.on_boundary(pt(10, 4)));
        assert!(rect.on_boundary(pt(3, 0)));
        assert!(!rect.on_boundary(pt(3, 1)));
        assert!(!rect.contains_closed(pt(11, 2)));
    }

    #[test]
    fn corners_and_dims() {
        let rect = r(1, 2, 5, 7);
        assert_eq!(rect.ll(), pt(1, 2));
        assert_eq!(rect.ur(), pt(5, 7));
        assert_eq!(rect.width(), 4);
        assert_eq!(rect.height(), 5);
        assert_eq!(rect.corners().len(), 4);
        assert_eq!(rect.corner(Dir::North, Dir::West), pt(1, 7));
        assert_eq!(rect.corner(Dir::South, Dir::East), pt(5, 2));
    }

    #[test]
    fn interior_intersection() {
        let a = r(0, 0, 4, 4);
        let b = r(4, 0, 8, 4); // shares an edge only
        let c = r(3, 3, 6, 6); // overlaps a
        assert!(!a.interiors_intersect(&b));
        assert!(a.interiors_intersect(&c));
        assert!(c.interiors_intersect(&a));
    }

    #[test]
    fn segment_blocking() {
        let rect = r(2, 2, 6, 6);
        // vertical segment through the interior
        assert!(rect.blocks_segment(pt(4, 0), pt(4, 10)));
        // vertical segment along the boundary is not blocked
        assert!(!rect.blocks_segment(pt(2, 0), pt(2, 10)));
        assert!(!rect.blocks_segment(pt(6, 3), pt(6, 5)));
        // horizontal segment entirely left of the rect
        assert!(!rect.blocks_segment(pt(-3, 4), pt(1, 4)));
        // horizontal segment crossing the interior
        assert!(rect.blocks_segment(pt(0, 4), pt(10, 4)));
        // horizontal segment that only touches a corner point
        assert!(!rect.blocks_segment(pt(0, 2), pt(10, 2)));
        // degenerate segment
        assert!(!rect.blocks_segment(pt(4, 4), pt(4, 4)));
    }

    #[test]
    fn l1_distance_to_rect() {
        let rect = r(0, 0, 4, 4);
        assert_eq!(rect.l1_distance_to(pt(2, 2)), 0);
        assert_eq!(rect.l1_distance_to(pt(6, 2)), 2);
        assert_eq!(rect.l1_distance_to(pt(6, 7)), 5);
        assert_eq!(rect.l1_distance_to(pt(-1, -1)), 2);
    }

    #[test]
    fn obstacle_set_basics() {
        let set = ObstacleSet::new(vec![r(0, 0, 2, 2), r(4, 4, 6, 6)]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.vertices().len(), 8);
        assert_eq!(set.xs(), vec![0, 2, 4, 6]);
        assert_eq!(set.ys(), vec![0, 2, 4, 6]);
        assert_eq!(set.bbox(), Some(r(0, 0, 6, 6)));
        assert!(set.validate_disjoint().is_ok());
        assert_eq!(set.containing_obstacle(pt(1, 1)), Some(0));
        assert_eq!(set.containing_obstacle(pt(3, 3)), None);
        assert!(set.segment_clear(pt(0, 3), pt(10, 3)));
        assert!(!set.segment_clear(pt(0, 5), pt(10, 5)));
        assert_eq!(set.vertex_owner(5), 1);
    }

    #[test]
    fn obstacle_set_detects_overlap() {
        let set = ObstacleSet::new(vec![r(0, 0, 4, 4), r(3, 3, 8, 8)]);
        let err = set.validate_disjoint().unwrap_err();
        assert_eq!((err.first, err.second), (0, 1));
        assert_eq!(err.first_rect, r(0, 0, 4, 4));
        assert_eq!(err.second_rect, r(3, 3, 8, 8));
        let msg = err.to_string();
        assert!(msg.contains("obstacles 0 and 1"), "{msg}");
        assert!(msg.contains("[0,4]x[0,4]"), "{msg}");
        assert!(msg.contains("[3,8]x[3,8]"), "{msg}");
    }

    #[test]
    fn subset_preserves_order() {
        let set = ObstacleSet::new(vec![r(0, 0, 1, 1), r(2, 2, 3, 3), r(4, 4, 5, 5)]);
        let sub = set.subset(&[2, 0]);
        assert_eq!(sub.rect(0), r(4, 4, 5, 5));
        assert_eq!(sub.rect(1), r(0, 0, 1, 1));
    }

    #[test]
    fn scene_hash_is_order_independent_and_pinned() {
        let rects = vec![r(0, 0, 2, 2), r(4, 4, 6, 6), r(-3, 1, -1, 9)];
        let base = ObstacleSet::new(rects.clone()).scene_hash();
        // Every permutation of the insertion order hashes identically.
        let perms: [[usize; 3]; 5] = [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for p in perms {
            let shuffled = ObstacleSet::new(p.iter().map(|&i| rects[i]).collect());
            assert_eq!(shuffled.scene_hash(), base, "order {p:?}");
        }
        // Geometry changes change the hash; so does multiplicity (the sum
        // component keeps duplicate rectangles from xor-cancelling).
        let moved = ObstacleSet::new(vec![r(0, 0, 2, 2), r(4, 4, 6, 6), r(-3, 1, -1, 10)]);
        assert_ne!(moved.scene_hash(), base);
        let doubled = ObstacleSet::new(vec![r(0, 0, 2, 2), r(0, 0, 2, 2)]);
        assert_ne!(doubled.scene_hash(), ObstacleSet::new(vec![r(0, 0, 2, 2)]).scene_hash());
        // The hash is a wire-level cache key: pin the exact value so an
        // accidental algorithm change is caught loudly.
        assert_eq!(ObstacleSet::new(vec![r(0, 0, 2, 2)]).scene_hash(), PINNED_SINGLE);
        assert_eq!(base, PINNED_TRIPLE);
        assert_eq!(ObstacleSet::empty().scene_hash(), PINNED_EMPTY);
    }

    // Pinned constants for `scene_hash_is_order_independent_and_pinned`.
    const PINNED_SINGLE: u64 = 1049604639078050488;
    const PINNED_TRIPLE: u64 = 11593469030792053122;
    const PINNED_EMPTY: u64 = 9354609568656401157;

    #[test]
    fn empty_set() {
        let set = ObstacleSet::empty();
        assert!(set.is_empty());
        assert_eq!(set.bbox(), None);
        assert!(set.segment_clear(pt(0, 0), pt(100, 0)));
    }

    #[test]
    fn apply_delta_compacts_ids_and_reports_edits() {
        let set = ObstacleSet::new(vec![r(0, 0, 1, 1), r(2, 2, 3, 3), r(4, 4, 5, 5)]);
        let delta = SceneDelta { insert: vec![r(6, 6, 7, 7)], remove: vec![1] };
        assert!(!delta.is_empty());
        let applied = set.apply_delta(&delta).unwrap();
        assert_eq!(applied.obstacles.rects(), &[r(0, 0, 1, 1), r(4, 4, 5, 5), r(6, 6, 7, 7)]);
        assert_eq!(applied.old_to_new, vec![Some(0), None, Some(1)]);
        assert_eq!(applied.new_to_old, vec![Some(0), Some(2), None]);
        assert_eq!(applied.edited, vec![r(2, 2, 3, 3), r(6, 6, 7, 7)]);
        assert_eq!(applied.first_inserted, 2);
        assert!(applied.validate_disjoint_incremental().is_ok());
        // Hash agrees with building the edited set from scratch.
        assert_eq!(applied.obstacles.scene_hash(), ObstacleSet::new(applied.obstacles.rects().to_vec()).scene_hash());
    }

    #[test]
    fn apply_delta_rejects_bad_removals() {
        let set = ObstacleSet::new(vec![r(0, 0, 1, 1)]);
        assert_eq!(
            set.apply_delta(&SceneDelta::removing(vec![3])).err(),
            Some(DeltaError::RemoveOutOfRange { id: 3, len: 1 })
        );
        assert_eq!(
            set.apply_delta(&SceneDelta::removing(vec![0, 0])).err(),
            Some(DeltaError::DuplicateRemove { id: 0 })
        );
        let msg = DeltaError::RemoveOutOfRange { id: 3, len: 1 }.to_string();
        assert!(msg.contains("obstacle 3"), "{msg}");
    }

    #[test]
    fn incremental_disjointness_names_the_new_pair() {
        let set = ObstacleSet::new(vec![r(0, 0, 4, 4), r(10, 10, 12, 12)]);
        let applied = set.apply_delta(&SceneDelta::inserting(vec![r(3, 3, 8, 8)])).unwrap();
        let v = applied.validate_disjoint_incremental().unwrap_err();
        assert_eq!((v.first, v.second), (0, 2));
        assert_eq!(v.second_rect, r(3, 3, 8, 8));
        // Inserted rectangles are also checked against each other.
        let applied = set.apply_delta(&SceneDelta::inserting(vec![r(20, 20, 24, 24), r(23, 23, 26, 26)])).unwrap();
        let v = applied.validate_disjoint_incremental().unwrap_err();
        assert_eq!((v.first, v.second), (2, 3));
    }

    #[test]
    fn insert_then_remove_restores_the_scene_hash() {
        let set = ObstacleSet::new(vec![r(0, 0, 2, 2), r(4, 4, 6, 6)]);
        let base = set.scene_hash();
        let grown = set.apply_delta(&SceneDelta::inserting(vec![r(10, 0, 12, 2)])).unwrap().obstacles;
        assert_ne!(grown.scene_hash(), base);
        let back = grown.apply_delta(&SceneDelta::removing(vec![2])).unwrap().obstacles;
        assert_eq!(back.scene_hash(), base, "insert-then-remove must round-trip the session key");
    }
}
