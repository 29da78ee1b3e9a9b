//! Logarithmic point location over disjoint rectangular obstacles.
//!
//! The paper's Section 6.4 query structure leans on a planar point-location
//! structure from [4] to decide, in `O(log n)`, whether a query point lies
//! inside an obstacle and whether an axis-parallel segment is clear.  The
//! naive stand-ins ([`ObstacleSet::containing_obstacle`] and
//! [`ObstacleSet::segment_clear`]) scan all `n` rectangles, which silently
//! turned the promised `O(log n)` arbitrary-point queries linear.
//!
//! [`ObstacleIndex`] restores the bound with a segment tree over the
//! obstacles' *top* edges: among the rectangles whose open x-extent contains
//! `p.x` (the "column" of `p`), disjointness makes the y-interiors pairwise
//! disjoint, so the rectangle with the smallest `ymax > p.y` is the only
//! candidate container — one tree descent plus one `ymin` check decides
//! containment.  Segment clearance is the same containment test at the start
//! point plus one ray shot ([`ShootIndex::segment_clear_from_outside`]).
//! Both queries cost `O(log n)` tree nodes (each with a binary search —
//! `O(log^2 n)` worst case, like every [`ShootIndex`] shot) and allocate
//! nothing.

use crate::point::{Coord, Dir, Point};
use crate::rayshoot::{Carry, DirIndex, Hit, ShootIndex, SlabReuse};
use crate::rect::{ObstacleSet, RectId};

/// Point-containment and segment-clearance index over an [`ObstacleSet`]:
/// the logarithmic replacement for the `O(n)` scans (see the module docs).
/// Owns a [`ShootIndex`] so one build serves ray shooting too.
///
/// **Precondition:** the obstacles must have pairwise-disjoint interiors
/// (the paper's input model; check with
/// [`ObstacleSet::validate_disjoint`]).  The containment argument relies on
/// it — on overlapping input the index may fail to report a containing
/// obstacle that the naive scan would find.
pub struct ObstacleIndex {
    shoot: ShootIndex,
    /// Top edges (`ymax`) over each rectangle's open x-extent, searchable
    /// upwards: finds the smallest `ymax >= y0` in `p.x`'s column.
    tops: DirIndex,
    /// `ymin` by rectangle id, to confirm a containment candidate.
    ymins: Vec<Coord>,
}

impl ObstacleIndex {
    /// Build the index in `O(n log n)`.
    pub fn build(obstacles: &ObstacleSet) -> Self {
        Self::build_with(obstacles, None).0
    }

    /// Build the index, copying from `base` every ray-shooting and top-edge
    /// slab column the edit cannot affect (see [`ShootIndex::build_with`]).
    /// The index is the same with or without a base; the returned
    /// [`SlabReuse`] aggregates all five directional indexes.
    pub fn build_with(obstacles: &ObstacleSet, base: Option<Carry<'_, ObstacleIndex>>) -> (Self, SlabReuse) {
        let (shoot, mut reuse) = ShootIndex::build_with(obstacles, base.map(|b| b.part(|o| &o.shoot)));
        let (tops, tops_reuse) =
            DirIndex::build(obstacles, |r| (r.xmin, r.xmax, r.ymax), true, base.map(|b| b.part(|o| &o.tops)));
        reuse.merge(tops_reuse);
        (ObstacleIndex { shoot, tops, ymins: obstacles.iter().map(|r| r.ymin).collect() }, reuse)
    }

    /// Number of indexed obstacles.
    pub fn len(&self) -> usize {
        self.ymins.len()
    }

    /// True when no obstacles are indexed.
    pub fn is_empty(&self) -> bool {
        self.ymins.is_empty()
    }

    /// The embedded ray-shooting index.
    pub fn shoot_index(&self) -> &ShootIndex {
        &self.shoot
    }

    /// First obstacle hit from `p` in direction `dir` (delegates to the
    /// embedded [`ShootIndex`]).
    pub fn shoot(&self, p: Point, dir: Dir) -> Option<Hit> {
        self.shoot.shoot(p, dir)
    }

    /// Is `p` strictly inside some obstacle?  Logarithmic replacement for
    /// [`ObstacleSet::containing_obstacle`]; same answer on every input
    /// with pairwise-disjoint obstacle interiors (see the type docs).
    ///
    /// Correctness: if `p` is inside `r`, then `r` is in `p`'s column with
    /// `ymin < p.y < ymax`, and no other column rectangle can have a top
    /// edge in `(p.y, r.ymax]` — its open y-interval would meet `r`'s,
    /// contradicting disjointness.  So the column's smallest `ymax > p.y`
    /// belongs to `r`.  Conversely a candidate with `ymin < p.y` contains
    /// `p` outright.
    pub fn containing_obstacle(&self, p: Point) -> Option<RectId> {
        // `ymax >= p.y + 1` is `ymax > p.y` on integer coordinates: a top
        // edge at exactly `p.y` leaves `p` on the boundary, not inside.
        let (_ymax, id) = self.tops.query(p.x, p.y + 1)?;
        (self.ymins[id] < p.y).then_some(id)
    }

    /// Is the open axis-parallel segment `a`–`b` free of obstacle interiors?
    /// Logarithmic replacement for [`ObstacleSet::segment_clear`]; same
    /// answer on every disjoint-interior input, including segments starting
    /// strictly inside an obstacle (the case a bare ray shot cannot see).
    pub fn segment_clear(&self, a: Point, b: Point) -> bool {
        if a == b {
            return true;
        }
        self.containing_obstacle(a).is_none() && self.shoot.segment_clear_from_outside(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;
    use crate::rect::Rect;

    fn obstacles() -> ObstacleSet {
        ObstacleSet::new(vec![
            Rect::new(2, 2, 6, 4),
            Rect::new(8, 1, 12, 9),
            Rect::new(3, 6, 5, 8),
            Rect::new(-4, -4, -1, 10),
            // stacked in the same column as rect 0, sharing the edge y=4
            Rect::new(2, 4, 6, 5),
        ])
    }

    #[test]
    fn containment_matches_naive_on_a_grid() {
        let obs = obstacles();
        let idx = ObstacleIndex::build(&obs);
        for x in -6..15 {
            for y in -6..12 {
                let p = pt(x, y);
                assert_eq!(idx.containing_obstacle(p), obs.containing_obstacle(p), "at {p:?}");
            }
        }
    }

    #[test]
    fn segment_clear_matches_naive_on_a_grid() {
        let obs = obstacles();
        let idx = ObstacleIndex::build(&obs);
        let probes: Vec<Point> = (-5..14).step_by(2).flat_map(|x| (-5..11).step_by(2).map(move |y| pt(x, y))).collect();
        for &a in &probes {
            for &b in &probes {
                if a.x != b.x && a.y != b.y {
                    continue;
                }
                assert_eq!(idx.segment_clear(a, b), obs.segment_clear(a, b), "{a:?} -> {b:?}");
            }
        }
    }

    #[test]
    fn segment_from_inside_an_obstacle_is_blocked() {
        let obs = obstacles();
        let idx = ObstacleIndex::build(&obs);
        // (9, 5) is strictly inside rect 1; a bare ray shot from it sees no
        // facing edge, the unified semantics still reports blocked.
        assert!(!idx.segment_clear(pt(9, 5), pt(20, 5)));
        assert!(!obs.segment_clear(pt(9, 5), pt(20, 5)));
        // degenerate segment stays clear even inside
        assert!(idx.segment_clear(pt(9, 5), pt(9, 5)));
    }

    #[test]
    fn boundary_points_are_not_inside() {
        let obs = obstacles();
        let idx = ObstacleIndex::build(&obs);
        for r in obs.iter() {
            for c in r.corners() {
                assert_eq!(idx.containing_obstacle(c), None, "corner {c:?}");
            }
            assert_eq!(idx.containing_obstacle(pt((r.xmin + r.xmax) / 2, r.ymax)), None);
            assert_eq!(idx.containing_obstacle(pt((r.xmin + r.xmax) / 2, r.ymin)), None);
        }
    }

    #[test]
    fn empty_set() {
        let idx = ObstacleIndex::build(&ObstacleSet::empty());
        assert!(idx.is_empty());
        assert_eq!(idx.containing_obstacle(pt(0, 0)), None);
        assert!(idx.segment_clear(pt(0, 0), pt(100, 0)));
    }

    #[test]
    fn delta_build_answers_like_a_fresh_build() {
        use crate::rect::SceneDelta;
        let obs = obstacles();
        let old = ObstacleIndex::build(&obs);
        let delta = SceneDelta { insert: vec![Rect::new(20, 20, 24, 23)], remove: vec![2] };
        let applied = obs.apply_delta(&delta).unwrap();
        let (idx, reuse) =
            ObstacleIndex::build_with(&applied.obstacles, Some(crate::rayshoot::tests::carry(&old, &applied)));
        let fresh = ObstacleIndex::build(&applied.obstacles);
        assert!(reuse.reused > 0, "a far-away edit must reuse some slab columns: {reuse:?}");
        for x in -6..27 {
            for y in -6..26 {
                let p = pt(x, y);
                assert_eq!(idx.containing_obstacle(p), fresh.containing_obstacle(p), "at {p:?}");
                // An independent reference, not just the no-base build.
                assert_eq!(idx.containing_obstacle(p), applied.obstacles.containing_obstacle(p), "at {p:?}");
                for dir in Dir::ALL {
                    assert_eq!(idx.shoot(p, dir), fresh.shoot(p, dir), "at {p:?} {dir:?}");
                }
            }
        }
    }
}
