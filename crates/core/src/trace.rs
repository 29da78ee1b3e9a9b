//! The eight escape paths of Section 3 and the Path Tracing Lemma (Lemma 6).
//!
//! For a point `p` not inside any obstacle, the path `XY(p)` starts at `p`,
//! travels in direction `X` whenever it can, and slides along the blocking
//! obstacle's boundary in direction `Y` to get around it (Fig. 5 shows
//! `NE(p)` and `WS(p)`).  Every such path is a staircase, it never properly
//! intersects an obstacle, and it has `O(n)` segments because each obstacle
//! is skirted at most once.
//!
//! The paper computes these paths with a trapezoidal decomposition plus the
//! Euler-tour technique; we trace them directly with the ray-shooting index
//! (`O(log^2 n)` per step, `O(n)` steps), which keeps the same output and the
//! same `O(n)`-segment guarantee.  Traces are clipped to a containing region:
//! they stop the first time they touch its boundary (the paper's unbounded
//! staircases are recovered by taking the region to be a large bounding box).

use rsp_geom::chain::on_segment;
use rsp_geom::rayshoot::{Shoot, ShootIndex};
use rsp_geom::{Chain, Dir, ObstacleSet, Point, StairRegion};

/// An escape-path kind `XY`: primary direction `X`, avoidance policy `Y`
/// (perpendicular to `X`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EscapeKind {
    /// Preferred direction of travel.
    pub primary: Dir,
    /// Side to go around blocking obstacles.
    pub policy: Dir,
}

impl EscapeKind {
    /// North-going, veering east around obstacles.
    pub const NE: EscapeKind = EscapeKind { primary: Dir::North, policy: Dir::East };
    /// North-going, veering west.
    pub const NW: EscapeKind = EscapeKind { primary: Dir::North, policy: Dir::West };
    /// South-going, veering east.
    pub const SE: EscapeKind = EscapeKind { primary: Dir::South, policy: Dir::East };
    /// South-going, veering west.
    pub const SW: EscapeKind = EscapeKind { primary: Dir::South, policy: Dir::West };
    /// East-going, veering north.
    pub const EN: EscapeKind = EscapeKind { primary: Dir::East, policy: Dir::North };
    /// East-going, veering south.
    pub const ES: EscapeKind = EscapeKind { primary: Dir::East, policy: Dir::South };
    /// West-going, veering north.
    pub const WN: EscapeKind = EscapeKind { primary: Dir::West, policy: Dir::North };
    /// West-going, veering south.
    pub const WS: EscapeKind = EscapeKind { primary: Dir::West, policy: Dir::South };

    /// All eight escape kinds.
    pub const ALL: [EscapeKind; 8] = [
        EscapeKind::NE,
        EscapeKind::NW,
        EscapeKind::SE,
        EscapeKind::SW,
        EscapeKind::EN,
        EscapeKind::ES,
        EscapeKind::WN,
        EscapeKind::WS,
    ];
}

/// First point of the open segment `(a, b]` that lies on the region
/// boundary, walking from `a` towards `b`.
fn first_boundary_point_on_segment(region: &StairRegion, a: Point, b: Point) -> Option<Point> {
    if a == b {
        return None;
    }
    let mut best: Option<Point> = None;
    let mut consider = |p: Point| {
        if p == a || !on_segment(a, b, p) {
            return;
        }
        if best.is_none_or(|q| p.l1(a) < q.l1(a)) {
            best = Some(p);
        }
    };
    for (u, v) in region.edges() {
        // intersection of segment a-b with edge u-v (both axis-parallel)
        if a.x == b.x {
            if u.x == v.x {
                if u.x == a.x {
                    // collinear vertical overlap: candidate endpoints
                    consider(u);
                    consider(v);
                }
            } else {
                // horizontal edge: crosses x = a.x?
                if u.x.min(v.x) <= a.x && a.x <= u.x.max(v.x) {
                    let y = u.y;
                    if y >= a.y.min(b.y) && y <= a.y.max(b.y) {
                        consider(Point::new(a.x, y));
                    }
                }
            }
        } else {
            if u.y == v.y {
                if u.y == a.y {
                    consider(u);
                    consider(v);
                }
            } else if u.y.min(v.y) <= a.y && a.y <= u.y.max(v.y) {
                let x = u.x;
                if x >= a.x.min(b.x) && x <= a.x.max(b.x) {
                    consider(Point::new(x, a.y));
                }
            }
        }
    }
    best
}

/// Where the ray from `p` in direction `dir` leaves the region (for `p`
/// inside a rectilinearly convex region).
fn region_exit(region: &StairRegion, p: Point, dir: Dir) -> Option<Point> {
    rsp_geom::bq::boundary_exit(region, p, dir)
}

/// Trace the escape path `kind` from `start`, clipped to `region`.
///
/// `start` must lie in the region and not strictly inside an obstacle.  The
/// returned chain begins at `start` and ends on the region boundary (or at
/// `start` itself if `start` is already on the boundary and the path exits
/// immediately).  `index` answers ray shots among `obstacles`, with the same
/// rectangle ids.
pub fn escape_path(
    obstacles: &ObstacleSet,
    index: &impl Shoot,
    region: &StairRegion,
    start: Point,
    kind: EscapeKind,
) -> Chain {
    assert!(region.contains(start), "trace must start inside the region");
    debug_assert!(obstacles.containing_obstacle(start).is_none(), "trace must not start inside an obstacle");
    let mut pts = vec![start];
    let mut p = start;
    let max_steps = 2 * obstacles.len() + 4;
    for _ in 0..max_steps {
        // Candidate end of the primary leg: obstacle hit or region exit.
        let obstacle_hit = index.shoot(p, kind.primary);
        let exit = region_exit(region, p, kind.primary);
        let exit = match exit {
            Some(e) => e,
            None => break, // degenerate region; stop where we are
        };
        match obstacle_hit {
            Some(hit) if hit.distance_from(p) < exit.l1(p) => {
                // Travel to the obstacle, then slide along its facing edge in
                // the policy direction to the corner that clears it, unless
                // the region boundary stops us first.
                let h = hit.point;
                if let Some(stop) = first_boundary_point_on_segment(region, p, h) {
                    pts.push(stop);
                    return Chain::new(pts);
                }
                pts.push(h);
                let rect = obstacles.rect(hit.rect);
                let corner = rect.corner(
                    if kind.primary.is_vertical() {
                        // facing edge is horizontal: the corner shares the
                        // edge's y, i.e. the side we ran into
                        kind.primary.opposite()
                    } else {
                        kind.policy
                    },
                    if kind.primary.is_vertical() { kind.policy } else { kind.primary.opposite() },
                );
                if let Some(stop) = first_boundary_point_on_segment(region, h, corner) {
                    pts.push(stop);
                    return Chain::new(pts);
                }
                pts.push(corner);
                p = corner;
            }
            _ => {
                pts.push(exit);
                return Chain::new(pts);
            }
        }
    }
    Chain::new(pts)
}

/// The increasing staircase through `p` formed by `WS(p)` and `NE(p)`
/// (Theorem 2 uses exactly this pair).  Returned as a left-to-right walk
/// (from the end of the `WS` branch, through `p`, to the end of the `NE`
/// branch), clipped to the region.
pub fn increasing_staircase_through(
    obstacles: &ObstacleSet,
    index: &ShootIndex,
    region: &StairRegion,
    p: Point,
) -> Chain {
    let ws = escape_path(obstacles, index, region, p, EscapeKind::WS);
    let ne = escape_path(obstacles, index, region, p, EscapeKind::NE);
    ws.reversed().concat(&ne)
}

/// The decreasing staircase through `p` formed by `NW(p)` and `ES(p)`,
/// as a left-to-right walk.
pub fn decreasing_staircase_through(
    obstacles: &ObstacleSet,
    index: &ShootIndex,
    region: &StairRegion,
    p: Point,
) -> Chain {
    let nw = escape_path(obstacles, index, region, p, EscapeKind::NW);
    let es = escape_path(obstacles, index, region, p, EscapeKind::ES);
    nw.reversed().concat(&es)
}

/// Does the chain properly intersect (enter the open interior of) any
/// obstacle?  Escape paths and separators must never do so.
pub fn chain_avoids_obstacles(chain: &Chain, obstacles: &ObstacleSet) -> bool {
    chain.segments().all(|(a, b)| obstacles.segment_clear(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::Rect;

    fn setup() -> (ObstacleSet, ShootIndex, StairRegion) {
        let obstacles = ObstacleSet::new(vec![
            Rect::new(2, 4, 6, 6),
            Rect::new(8, 2, 10, 8),
            Rect::new(3, 9, 9, 11),
            Rect::new(-2, -3, 1, 1),
        ]);
        let index = ShootIndex::build(&obstacles);
        let region = StairRegion::from_rect(obstacles.bbox().unwrap().expand(4));
        (obstacles, index, region)
    }

    #[test]
    fn north_east_trace_skirts_obstacles() {
        let (obs, idx, region) = setup();
        let chain = escape_path(&obs, &idx, &region, Point::new(4, 0), EscapeKind::NE);
        assert!(chain.is_staircase());
        assert!(chain_avoids_obstacles(&chain, &obs));
        // it must have gone around obstacle 0 (blocking x=4 at y=4) to the east
        assert!(chain.contains_point(Point::new(4, 4)));
        assert!(chain.contains_point(Point::new(6, 4)));
        // and around the roof (obstacle 2) to the east as well
        assert!(chain.contains_point(Point::new(9, 9)));
        // ends on the region boundary
        assert!(region.on_boundary(chain.last()));
        assert_eq!(chain.first(), Point::new(4, 0));
    }

    #[test]
    fn north_west_trace_goes_the_other_way() {
        let (obs, idx, region) = setup();
        let chain = escape_path(&obs, &idx, &region, Point::new(4, 0), EscapeKind::NW);
        assert!(chain.is_staircase());
        assert!(chain_avoids_obstacles(&chain, &obs));
        assert!(chain.contains_point(Point::new(2, 4)), "should turn west at obstacle 0: {:?}", chain.points());
        assert!(region.on_boundary(chain.last()));
    }

    #[test]
    fn all_eight_traces_are_staircases_and_clear() {
        let (obs, idx, region) = setup();
        let start = Point::new(7, 1);
        for kind in EscapeKind::ALL {
            let chain = escape_path(&obs, &idx, &region, start, kind);
            assert!(chain.is_staircase(), "{:?} not a staircase: {:?}", kind, chain.points());
            assert!(chain_avoids_obstacles(&chain, &obs), "{:?} enters an obstacle", kind);
            assert!(chain.num_segments() <= 2 * obs.len() + 3);
            assert!(region.on_boundary(chain.last()), "{:?} does not reach the boundary", kind);
        }
    }

    #[test]
    fn combined_staircases_span_the_region() {
        let (obs, idx, region) = setup();
        let p = Point::new(7, 1);
        let inc = increasing_staircase_through(&obs, &idx, &region, p);
        assert!(inc.is_staircase());
        assert!(chain_avoids_obstacles(&inc, &obs));
        assert!(region.on_boundary(inc.first()) && region.on_boundary(inc.last()));
        assert!(inc.contains_point(p));
        let dec = decreasing_staircase_through(&obs, &idx, &region, p);
        assert!(dec.is_staircase());
        assert!(chain_avoids_obstacles(&dec, &obs));
        assert!(dec.contains_point(p));
    }

    #[test]
    fn trace_with_no_obstacles_is_straight() {
        let obs = ObstacleSet::empty();
        let idx = ShootIndex::build(&obs);
        let region = StairRegion::from_rect(Rect::new(0, 0, 10, 10));
        let chain = escape_path(&obs, &idx, &region, Point::new(3, 3), EscapeKind::NE);
        assert_eq!(chain.points(), &[Point::new(3, 3), Point::new(3, 10)]);
        let chain = escape_path(&obs, &idx, &region, Point::new(3, 3), EscapeKind::WS);
        assert_eq!(chain.points(), &[Point::new(3, 3), Point::new(0, 3)]);
    }

    #[test]
    fn trace_starting_on_boundary() {
        let (obs, idx, region) = setup();
        let bbox = region.bbox();
        let start = Point::new(4, bbox.ymin);
        let chain = escape_path(&obs, &idx, &region, start, EscapeKind::EN);
        assert!(chain.is_staircase());
        assert!(region.on_boundary(chain.last()));
    }
}
