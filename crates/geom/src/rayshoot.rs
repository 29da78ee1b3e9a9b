//! Axis-parallel ray shooting among rectangular obstacles.
//!
//! Given a point `p` and one of the four axis directions, find the first
//! obstacle whose boundary blocks the ray.  This is the primitive underlying
//! the trapezoidal decomposition (Lemma 6's path tracing), the planar
//! subdivisions `H1`/`H2` of Section 6.4 (arbitrary-point queries) and the
//! `Hit(e)` sets of Sections 8–9.
//!
//! Two implementations are provided: a naive `O(n)` scan (used for small
//! inputs and as a cross-check) and a segment-tree index with
//! `O(log^2 n)`-ish queries (our stand-in for the \[4\] planar point-location
//! structure — same role, logarithmic query time).

use crate::point::{Coord, Dir, Point};
use crate::rect::{ObstacleSet, Rect, RectId};

/// Result of a ray-shooting query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Hit {
    /// The obstacle hit.
    pub rect: RectId,
    /// The point where the ray first meets the obstacle boundary.
    pub point: Point,
}

impl Hit {
    /// Distance from the query point to the hit point.
    pub fn distance_from(&self, p: Point) -> Coord {
        self.point.l1(p)
    }
}

/// Naive `O(n)` first-hit query.  A rectangle is hit by a ray only if the ray
/// passes through its open extent in the perpendicular axis (grazing along an
/// edge is not a hit); a hit at distance zero (the query point already lies
/// on the facing edge) counts.  `skip` excludes one obstacle (used when
/// shooting from a vertex of that obstacle).
pub fn shoot_naive(obstacles: &ObstacleSet, p: Point, dir: Dir, skip: Option<RectId>) -> Option<Hit> {
    let mut best: Option<Hit> = None;
    for (id, r) in obstacles.iter().enumerate() {
        if Some(id) == skip {
            continue;
        }
        let candidate = match dir {
            Dir::North => (r.xmin < p.x && p.x < r.xmax && r.ymin >= p.y).then(|| Point::new(p.x, r.ymin)),
            Dir::South => (r.xmin < p.x && p.x < r.xmax && r.ymax <= p.y).then(|| Point::new(p.x, r.ymax)),
            Dir::East => (r.ymin < p.y && p.y < r.ymax && r.xmin >= p.x).then(|| Point::new(r.xmin, p.y)),
            Dir::West => (r.ymin < p.y && p.y < r.ymax && r.xmax <= p.x).then(|| Point::new(r.xmax, p.y)),
        };
        if let Some(point) = candidate {
            let d = point.l1(p);
            if best.is_none_or(|b| d < b.distance_from(p)) {
                best = Some(Hit { rect: id, point });
            }
        }
    }
    best
}

/// Segment-tree index over one shooting direction, with a sorted-slab fast
/// path.
///
/// Coordinates perpendicular to the shooting direction are compressed into
/// "positions": even positions are the distinct coordinates themselves, odd
/// positions are the open gaps between consecutive coordinates.  An obstacle
/// edge covering the *open* interval `(a, b)` is stored in the `O(log n)`
/// canonical nodes of that position range, and every node keeps its edges
/// sorted by the coordinate along the shooting direction — `O(n log n)`
/// space, `O(log^2 n)` query (a binary search per tree level).
///
/// When the total edge/position incidence is small (the common case for
/// scattered obstacles: `O(n log n)` entries) the build additionally
/// materialises one sorted *slab* per position holding every edge covering
/// it.  A query is then a single binary search in one contiguous array —
/// a true `O(log n)` with a far smaller constant than the tree walk.  Scenes
/// where slabs would degenerate towards their `O(n^2)` worst case (long
/// walls spanning many positions, e.g. the `corridors` workload) skip the
/// slab build and serve every query from the tree.
pub(crate) struct DirIndex {
    /// sorted distinct perpendicular coordinates
    coords: Vec<Coord>,
    /// number of positions (2 * coords.len() - 1), rounded up to a power of two for the tree
    size: usize,
    /// tree nodes: node i covers positions [lo, hi); each holds (along_coord, rect) sorted
    nodes: Vec<Vec<(Coord, RectId)>>,
    /// per-position sorted edge lists (the slab fast path), flattened into
    /// one arena (`slab_starts[pos]..slab_starts[pos+1]` indexes
    /// `slab_entries`); empty when the incidence budget was exceeded
    slab_starts: Vec<u32>,
    /// arena backing the slabs (sorted by along-coordinate within each slab)
    slab_entries: Vec<(Coord, RectId)>,
    /// shooting toward larger coordinates (north/east) or smaller (south/west)
    forward: bool,
}

/// The edge a ray in one direction hits on a rectangle, as
/// `(perp_lo, perp_hi, along)`: the open perpendicular interval
/// `(perp_lo, perp_hi)` at coordinate `along` in the shooting direction.
pub(crate) type EdgeOf = fn(&Rect) -> (Coord, Coord, Coord);

/// What a rebuild for an edited scene may carry over: the previous epoch's
/// structure, the obstacle-id compaction map of the edit and the geometries
/// of every inserted and removed rectangle (in any order).
pub struct Carry<'a, T> {
    /// The previous epoch's structure.
    pub old: &'a T,
    /// Old obstacle id → new id (`None` for removed obstacles).
    pub old_to_new: &'a [Option<RectId>],
    /// Closed geometries of every inserted and removed rectangle.
    pub edited: &'a [Rect],
}

impl<T> Clone for Carry<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Carry<'_, T> {}

impl<'a, T> Carry<'a, T> {
    /// The same edit, carrying from one part of the old structure.
    pub fn part<U>(self, pick: impl FnOnce(&'a T) -> &'a U) -> Carry<'a, U> {
        Carry { old: pick(self.old), old_to_new: self.old_to_new, edited: self.edited }
    }
}

/// Slab-column accounting of a `DirIndex` build: how many positions
/// copied their sorted slab from the base epoch's index versus how many
/// were filled from the edge list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlabReuse {
    /// Slab columns copied (id-remapped) from the old index.
    pub reused: usize,
    /// Slab columns filled and sorted from scratch.
    pub rebuilt: usize,
}

impl SlabReuse {
    /// Accumulate another direction's counts.
    pub fn merge(&mut self, other: SlabReuse) {
        self.reused += other.reused;
        self.rebuilt += other.rebuilt;
    }
}

/// The old slab that position `p` of the new compression (`coords`) may
/// copy, or `None` when it must be filled (see [`DirIndex::build`] for why
/// a clean position's old slab is exact).
fn clean_slab<'a>(
    coords: &[Coord],
    p: usize,
    forward: bool,
    base: Carry<'a, DirIndex>,
    dirty: &[(Coord, Coord)],
) -> Option<&'a [(Coord, RectId)]> {
    let old = base.old;
    if old.slab_starts.is_empty() || old.forward != forward {
        return None;
    }
    let old_pos = if p.is_multiple_of(2) {
        let c = coords[p / 2];
        if dirty.iter().any(|&(lo, hi)| lo <= c && c <= hi) {
            return None;
        }
        2 * old.coords.binary_search(&c).ok()?
    } else {
        let (a, b) = (coords[p / 2], coords[p / 2 + 1]);
        if dirty.iter().any(|&(lo, hi)| lo < b && a < hi) {
            return None;
        }
        let j = old.coords.binary_search(&a).ok()?;
        if old.coords.get(j + 1) != Some(&b) {
            return None;
        }
        2 * j + 1
    };
    let slab = &old.slab_entries[old.slab_starts[old_pos] as usize..old.slab_starts[old_pos + 1] as usize];
    // Every covering edge must have survived (it must, by the clean argument;
    // stay defensive rather than subtly wrong).
    slab.iter().all(|&(_, id)| base.old_to_new.get(id).copied().flatten().is_some()).then_some(slab)
}

impl DirIndex {
    /// Index the `edge` of every obstacle for one shooting direction,
    /// copying from `base` every slab column the edit provably cannot
    /// affect instead of filling and sorting it.  The result is the same,
    /// field for field, with or without a base:
    ///
    /// * The coordinate compression, segment tree and incidence gate are
    ///   always computed from the edges — they are `O(m log m)` and shape
    ///   the structure.
    /// * A position is *clean* when its geometric span (a coordinate for
    ///   even positions, the open gap between two adjacent coordinates for
    ///   odd ones) is disjoint from the closed perpendicular extent of every
    ///   edited rectangle.  No inserted edge can cover a clean position (its
    ///   extent lies inside a dirty interval), no removed edge covered the
    ///   corresponding old position (same argument), and no old coordinate
    ///   can sit strictly inside a clean gap (it would have to belong to a
    ///   removed edge whose dirty interval then meets the gap) — so the old
    ///   slab at the mapped position holds exactly the surviving edges
    ///   covering the clean position.  Copying it with ids remapped through
    ///   `old_to_new` reproduces the filled slab verbatim: survivors keep
    ///   their relative id order under compaction, so the `(along, id)`
    ///   sort order is preserved by the remap.
    /// * Every other position (all of them without a base, and any the
    ///   mapping cannot place, e.g. when the old index skipped its slabs) is
    ///   filled from the edges.
    pub(crate) fn build(
        obstacles: &ObstacleSet,
        edge: EdgeOf,
        forward: bool,
        base: Option<Carry<'_, DirIndex>>,
    ) -> (Self, SlabReuse) {
        let edges: Vec<(Coord, Coord, Coord, RectId)> = obstacles
            .iter()
            .enumerate()
            .map(|(id, r)| {
                let (lo, hi, along) = edge(r);
                (lo, hi, along, id)
            })
            .collect();
        let mut coords: Vec<Coord> = edges.iter().flat_map(|e| [e.0, e.1]).collect();
        coords.sort_unstable();
        coords.dedup();
        let positions = if coords.is_empty() { 1 } else { 2 * coords.len() - 1 };
        let mut size = 1usize;
        while size < positions {
            size *= 2;
        }
        let mut nodes: Vec<Vec<(Coord, RectId)>> = vec![Vec::new(); 2 * size];
        let pos_of = |c: Coord| -> usize { coords.binary_search(&c).unwrap() * 2 };
        let mut incidence = 0usize;
        for &(lo, hi, along, rect) in &edges {
            if lo >= hi {
                continue;
            }
            incidence += pos_of(hi) - pos_of(lo) - 1;
            // open interval (lo, hi) covers positions pos(lo)+1 ..= pos(hi)-1
            let (mut l, mut r) = (pos_of(lo) + 1 + size, pos_of(hi) - 1 + size + 1);
            while l < r {
                if l & 1 == 1 {
                    nodes[l].push((along, rect));
                    l += 1;
                }
                if r & 1 == 1 {
                    r -= 1;
                    nodes[r].push((along, rect));
                }
                l /= 2;
                r /= 2;
            }
        }
        for node in nodes.iter_mut() {
            node.sort_unstable();
        }
        // The slab fast path is gated on an O(n log n) incidence budget so the
        // structure never degenerates to quadratic space.
        let m = edges.len().max(2);
        let budget = 4 * m * (usize::BITS - m.leading_zeros()) as usize;
        let mut reuse = SlabReuse::default();
        if incidence > budget {
            let index = DirIndex { coords, size, nodes, slab_starts: Vec::new(), slab_entries: Vec::new(), forward };
            return (index, reuse);
        }
        // Each position either copies its old slab (`Some`) or is filled
        // from the edges (`None`).
        let old_to_new = base.map_or(&[][..], |b| b.old_to_new);
        let carried: Vec<Option<&[(Coord, RectId)]>> = match base {
            Some(base) => {
                let dirty: Vec<(Coord, Coord)> = base.edited.iter().map(|r| (edge(r).0, edge(r).1)).collect();
                (0..positions).map(|p| clean_slab(&coords, p, forward, base, &dirty)).collect()
            }
            None => vec![None; positions],
        };
        let mut filled: Vec<Vec<(Coord, RectId)>> = vec![Vec::new(); positions];
        for &(lo, hi, along, rect) in &edges {
            if lo >= hi {
                continue;
            }
            for p in (pos_of(lo) + 1)..pos_of(hi) {
                if carried[p].is_none() {
                    filled[p].push((along, rect));
                }
            }
        }
        // The per-position lists live in one flat arena (offset array +
        // entry array) so a query touches two contiguous allocations, not a
        // Vec-of-Vecs.
        let mut slab_starts = Vec::with_capacity(positions + 1);
        let mut slab_entries = Vec::with_capacity(incidence);
        slab_starts.push(0u32);
        for (old, mut slab) in carried.into_iter().zip(filled) {
            match old {
                Some(old) => {
                    reuse.reused += 1;
                    slab_entries.extend(old.iter().map(|&(c, id)| (c, old_to_new[id].expect("checked survivor"))));
                }
                None => {
                    reuse.rebuilt += 1;
                    slab.sort_unstable();
                    slab_entries.extend_from_slice(&slab);
                }
            }
            slab_starts.push(slab_entries.len() as u32);
        }
        let index = DirIndex { coords, size, nodes, slab_starts, slab_entries, forward };
        (index, reuse)
    }

    /// Position of a query coordinate, or `None` if it is outside the range
    /// where any edge exists (then nothing can be hit anyway only if it is
    /// outside all intervals — being outside the compressed range means no
    /// open interval contains it).
    fn position(&self, c: Coord) -> Option<usize> {
        if self.coords.is_empty() {
            return None;
        }
        match self.coords.binary_search(&c) {
            Ok(i) => Some(2 * i),
            Err(0) => None,
            Err(i) if i == self.coords.len() => None,
            Err(i) => Some(2 * i - 1),
        }
    }

    /// First hit along the shooting direction from coordinate `along`,
    /// at perpendicular coordinate `perp`.
    pub(crate) fn query(&self, perp: Coord, along: Coord) -> Option<(Coord, RectId)> {
        let pos = self.position(perp)?;
        if !self.slab_starts.is_empty() {
            // Slab fast path: one binary search in one contiguous array.
            let list = &self.slab_entries[self.slab_starts[pos] as usize..self.slab_starts[pos + 1] as usize];
            return if self.forward {
                let i = list.partition_point(|&(c, _)| c < along);
                list.get(i).copied()
            } else {
                let i = list.partition_point(|&(c, _)| c <= along);
                if i == 0 {
                    None
                } else {
                    list.get(i - 1).copied()
                }
            };
        }
        let mut node = pos + self.size;
        let mut best: Option<(Coord, RectId)> = None;
        loop {
            let list = &self.nodes[node];
            let cand = if self.forward {
                let i = list.partition_point(|&(c, _)| c < along);
                list.get(i).copied()
            } else {
                let i = list.partition_point(|&(c, _)| c <= along);
                if i == 0 {
                    None
                } else {
                    list.get(i - 1).copied()
                }
            };
            if let Some((c, rect)) = cand {
                let better = match best {
                    None => true,
                    Some((bc, _)) => {
                        if self.forward {
                            c < bc
                        } else {
                            c > bc
                        }
                    }
                };
                if better {
                    best = Some((c, rect));
                }
            }
            if node == 1 {
                break;
            }
            node /= 2;
        }
        best
    }
}

/// Anything that answers first-hit ray shots: a [`ShootIndex`], or a view
/// that shoots through one in a transformed frame.
pub trait Shoot {
    /// First obstacle hit from `p` in direction `dir`.
    fn shoot(&self, p: Point, dir: Dir) -> Option<Hit>;
}

impl Shoot for ShootIndex {
    fn shoot(&self, p: Point, dir: Dir) -> Option<Hit> {
        ShootIndex::shoot(self, p, dir)
    }
}

/// Ray-shooting index over an obstacle set for all four directions.
pub struct ShootIndex {
    north: DirIndex,
    south: DirIndex,
    east: DirIndex,
    west: DirIndex,
}

impl ShootIndex {
    /// Build the index in `O(n log n)`.
    pub fn build(obstacles: &ObstacleSet) -> Self {
        Self::build_with(obstacles, None).0
    }

    /// Build the index, copying from `base` (the previous epoch's index and
    /// the edit that led here) every slab column the edit cannot affect.
    /// The index is the same with or without a base; the returned
    /// [`SlabReuse`] sums the four directions' accounting.
    pub fn build_with(obstacles: &ObstacleSet, base: Option<Carry<'_, ShootIndex>>) -> (Self, SlabReuse) {
        let mut reuse = SlabReuse::default();
        let mut dir = |edge: EdgeOf, forward: bool, pick: fn(&ShootIndex) -> &DirIndex| {
            let (index, r) = DirIndex::build(obstacles, edge, forward, base.map(|b| b.part(pick)));
            reuse.merge(r);
            index
        };
        // Shooting north hits bottom edges at perpendicular coordinate x;
        // shooting east hits left edges at perpendicular coordinate y.
        let index = ShootIndex {
            north: dir(|r| (r.xmin, r.xmax, r.ymin), true, |s| &s.north),
            south: dir(|r| (r.xmin, r.xmax, r.ymax), false, |s| &s.south),
            east: dir(|r| (r.ymin, r.ymax, r.xmin), true, |s| &s.east),
            west: dir(|r| (r.ymin, r.ymax, r.xmax), false, |s| &s.west),
        };
        (index, reuse)
    }

    /// Is the open axis-parallel segment `a`–`b` free of obstacle interiors,
    /// **assuming `a` is not strictly inside an obstacle**?  One ray shot:
    /// the segment is clear iff the first obstacle in its direction is at
    /// least `|ab|` away.  Callers that cannot guarantee the precondition
    /// must use [`ObstacleIndex::segment_clear`](crate::ObstacleIndex::segment_clear),
    /// which adds the containment test (an obstacle surrounding `a` has no
    /// facing edge ahead of the ray and would be invisible here).
    pub fn segment_clear_from_outside(&self, a: Point, b: Point) -> bool {
        if a == b {
            return true;
        }
        let dir = if a.x == b.x {
            if b.y > a.y {
                Dir::North
            } else {
                Dir::South
            }
        } else {
            debug_assert_eq!(a.y, b.y, "segment must be axis-parallel");
            if b.x > a.x {
                Dir::East
            } else {
                Dir::West
            }
        };
        match self.shoot(a, dir) {
            None => true,
            Some(hit) => hit.distance_from(a) >= a.l1(b),
        }
    }

    /// First obstacle hit from `p` in direction `dir`, in `O(log^2 n)`.
    pub fn shoot(&self, p: Point, dir: Dir) -> Option<Hit> {
        match dir {
            Dir::North => self.north.query(p.x, p.y).map(|(y, rect)| Hit { rect, point: Point::new(p.x, y) }),
            Dir::South => self.south.query(p.x, p.y).map(|(y, rect)| Hit { rect, point: Point::new(p.x, y) }),
            Dir::East => self.east.query(p.y, p.x).map(|(x, rect)| Hit { rect, point: Point::new(x, p.y) }),
            Dir::West => self.west.query(p.y, p.x).map(|(x, rect)| Hit { rect, point: Point::new(x, p.y) }),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::point::pt;
    use crate::rect::Rect;

    fn obstacles() -> ObstacleSet {
        ObstacleSet::new(vec![
            Rect::new(2, 2, 6, 4),
            Rect::new(8, 1, 12, 9),
            Rect::new(3, 6, 5, 8),
            Rect::new(-4, -4, -1, 10),
        ])
    }

    #[test]
    fn naive_hits() {
        let obs = obstacles();
        let hit = shoot_naive(&obs, pt(4, 0), Dir::North, None).unwrap();
        assert_eq!(hit.rect, 0);
        assert_eq!(hit.point, pt(4, 2));
        let hit = shoot_naive(&obs, pt(4, 5), Dir::North, None).unwrap();
        assert_eq!(hit.rect, 2);
        let hit = shoot_naive(&obs, pt(4, 5), Dir::South, None).unwrap();
        assert_eq!(hit.point, pt(4, 4));
        let hit = shoot_naive(&obs, pt(0, 3), Dir::East, None).unwrap();
        assert_eq!(hit.point, pt(2, 3));
        let hit = shoot_naive(&obs, pt(0, 3), Dir::West, None).unwrap();
        assert_eq!(hit.point, pt(-1, 3));
        // grazing along the edge: x == xmin is not a hit
        assert_eq!(shoot_naive(&obs, pt(2, 0), Dir::North, None), None);
        // skip works
        let hit = shoot_naive(&obs, pt(4, 3), Dir::North, Some(0)).unwrap();
        assert_eq!(hit.rect, 2);
    }

    #[test]
    fn naive_zero_distance_hit() {
        let obs = obstacles();
        // point on the bottom edge of rect 0 shooting north hits it at distance 0
        let hit = shoot_naive(&obs, pt(4, 2), Dir::North, None).unwrap();
        assert_eq!(hit.rect, 0);
        assert_eq!(hit.distance_from(pt(4, 2)), 0);
    }

    #[test]
    fn index_matches_naive_on_fixed_cases() {
        let obs = obstacles();
        let idx = ShootIndex::build(&obs);
        for x in -6..15 {
            for y in -6..12 {
                let p = pt(x, y);
                if obs.containing_obstacle(p).is_some() {
                    continue;
                }
                for dir in Dir::ALL {
                    let a = shoot_naive(&obs, p, dir, None).map(|h| h.point);
                    let b = idx.shoot(p, dir).map(|h| h.point);
                    assert_eq!(a, b, "mismatch at {:?} dir {:?}", p, dir);
                }
            }
        }
    }

    #[test]
    fn index_on_empty_set() {
        let obs = ObstacleSet::empty();
        let idx = ShootIndex::build(&obs);
        assert_eq!(idx.shoot(pt(0, 0), Dir::North), None);
        assert_eq!(shoot_naive(&obs, pt(0, 0), Dir::West, None), None);
    }

    #[test]
    fn index_matches_naive_randomised() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            // random disjoint-ish rects on a coarse grid (overlap does not
            // matter for ray-shooting equivalence testing)
            let rects: Vec<Rect> = (0..30)
                .map(|_| {
                    let x = rng.gen_range(-50..50);
                    let y = rng.gen_range(-50..50);
                    let w = rng.gen_range(1i64..8);
                    let h = rng.gen_range(1i64..8);
                    Rect::new(x, y, x + w, y + h)
                })
                .collect();
            let obs = ObstacleSet::new(rects);
            let idx = ShootIndex::build(&obs);
            for _ in 0..200 {
                let p = pt(rng.gen_range(-60..60), rng.gen_range(-60..60));
                for dir in Dir::ALL {
                    let a = shoot_naive(&obs, p, dir, None).map(|h| (h.point, h.rect));
                    let b = idx.shoot(p, dir).map(|h| (h.point, h.rect));
                    // hit points must agree; the rect may differ if two edges
                    // are collinear, so compare points only
                    assert_eq!(a.map(|v| v.0), b.map(|v| v.0), "p={:?} dir={:?}", p, dir);
                }
            }
        }
    }

    fn assert_dir_identical(delta: &DirIndex, fresh: &DirIndex, what: &str) {
        assert_eq!(delta.coords, fresh.coords, "{what}: coords");
        assert_eq!(delta.size, fresh.size, "{what}: size");
        assert_eq!(delta.nodes, fresh.nodes, "{what}: tree nodes");
        assert_eq!(delta.slab_starts, fresh.slab_starts, "{what}: slab starts");
        assert_eq!(delta.slab_entries, fresh.slab_entries, "{what}: slab entries");
        assert_eq!(delta.forward, fresh.forward, "{what}: forward");
    }

    fn assert_shoot_identical(delta: &ShootIndex, fresh: &ShootIndex) {
        assert_dir_identical(&delta.north, &fresh.north, "north");
        assert_dir_identical(&delta.south, &fresh.south, "south");
        assert_dir_identical(&delta.east, &fresh.east, "east");
        assert_dir_identical(&delta.west, &fresh.west, "west");
    }

    /// The carry base `applied` describes, over the previous epoch's `old`.
    pub(crate) fn carry<'a, T>(old: &'a T, applied: &'a crate::rect::AppliedDelta) -> Carry<'a, T> {
        Carry { old, old_to_new: &applied.old_to_new, edited: &applied.edited }
    }

    /// Random disjoint rects on an odd-coordinate grid (unit cells at odd
    /// coordinates never touch, so insertions stay disjoint by construction).
    fn sparse_scene(rng: &mut impl rand::Rng, n: usize) -> Vec<Rect> {
        use std::collections::HashSet;
        let mut cells = HashSet::new();
        let mut rects = Vec::new();
        while rects.len() < n {
            let cx = rng.gen_range(-40i64..40);
            let cy = rng.gen_range(-40i64..40);
            if cells.insert((cx, cy)) {
                rects.push(Rect::new(4 * cx, 4 * cy, 4 * cx + 2, 4 * cy + 2));
            }
        }
        rects
    }

    #[test]
    fn delta_build_is_field_identical_to_fresh_build() {
        use crate::rect::SceneDelta;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..30 {
            let rects = sparse_scene(&mut rng, 40);
            let obs = ObstacleSet::new(rects.clone());
            let old = ShootIndex::build(&obs);
            // random delta: remove a few, insert a few fresh disjoint cells
            let mut delta = SceneDelta::default();
            let mut removed = std::collections::HashSet::new();
            for _ in 0..rng.gen_range(0..4) {
                let id = rng.gen_range(0..obs.len());
                if removed.insert(id) {
                    delta.remove.push(id);
                }
            }
            let taken: std::collections::HashSet<(Coord, Coord)> = rects.iter().map(|r| (r.xmin, r.ymin)).collect();
            for _ in 0..rng.gen_range(0..4) {
                let cx = rng.gen_range(-40i64..40);
                let cy = rng.gen_range(-40i64..40);
                let r = Rect::new(4 * cx, 4 * cy, 4 * cx + 2, 4 * cy + 2);
                if !taken.contains(&(r.xmin, r.ymin)) && !delta.insert.contains(&r) {
                    delta.insert.push(r);
                }
            }
            let applied = obs.apply_delta(&delta).unwrap();
            let fresh = ShootIndex::build(&applied.obstacles);
            let (built, reuse) = ShootIndex::build_with(&applied.obstacles, Some(carry(&old, &applied)));
            assert_shoot_identical(&built, &fresh);
            if delta.is_empty() {
                assert_eq!(reuse.rebuilt, 0, "round {round}: empty delta must reuse everything");
            }
            // An independent reference: the carried index shoots like the
            // naive scan, so the identity above cannot hide a shared bug of
            // the two build paths.
            for _ in 0..100 {
                let p = Point::new(rng.gen_range(-170..170), rng.gen_range(-170..170));
                for dir in Dir::ALL {
                    let naive = shoot_naive(&applied.obstacles, p, dir, None).map(|h| h.point);
                    assert_eq!(built.shoot(p, dir).map(|h| h.point), naive, "round {round}: {p:?} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn far_away_edit_reuses_most_slab_columns() {
        use crate::rect::SceneDelta;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let rects = sparse_scene(&mut rng, 200);
        let obs = ObstacleSet::new(rects);
        let old = ShootIndex::build(&obs);
        // one small rect far outside the cluster
        let delta = SceneDelta::inserting(vec![Rect::new(900, 900, 902, 902)]);
        let applied = obs.apply_delta(&delta).unwrap();
        let (built, reuse) = ShootIndex::build_with(&applied.obstacles, Some(carry(&old, &applied)));
        assert_shoot_identical(&built, &ShootIndex::build(&applied.obstacles));
        let total = reuse.reused + reuse.rebuilt;
        assert!(reuse.reused * 10 >= total * 9, "far-away insert should reuse >=90% of slab columns: {:?}", reuse);
    }
}
