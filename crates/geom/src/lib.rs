#![warn(missing_docs)]

//! # rsp-geom — geometric substrate for rectilinear shortest paths
//!
//! This crate provides the geometric machinery used by the reproduction of
//! Atallah & Chen, *"Parallel rectilinear shortest paths with rectangular
//! obstacles"* (Computational Geometry: Theory and Applications 1, 1991).
//!
//! Everything here is exact integer geometry (`i64` coordinates, L1 metric):
//!
//! * [`Point`], [`Rect`], [`ObstacleSet`] — the input objects (Section 2 of
//!   the paper): `n` pairwise-disjoint axis-parallel rectangles.
//! * [`Chain`] — rectilinear polylines, in particular *staircases* (convex
//!   paths, Section 2), with side tests and line intersections.
//! * [`staircase`] — the `MAX_NE / MAX_NW / MAX_SE / MAX_SW` staircases of a
//!   rectangle set (Fig. 1) and rectilinear convex hulls / envelopes
//!   (Fig. 2).
//! * [`StairRegion`] — rectilinearly convex regions with clear boundaries
//!   (the regions `Q` of Sections 4–6), including splitting a region by a
//!   staircase chain.
//! * [`rayshoot`] — first-obstacle-hit queries in the four axis directions,
//!   both naive and via a segment-tree index (the substitute for the
//!   trapezoidal-decomposition / planar-subdivision structures of \[4\]).
//! * [`locate`] — [`ObstacleIndex`]: logarithmic point containment and
//!   axis-parallel segment clearance (the other half of the \[4\] stand-in;
//!   replaces the `O(n)` scans on the Section 6.4 query hot path).
//! * [`bq`] — the boundary discretisation `B(Q)` of Definition 1 (Fig. 3)
//!   and the coordinate-grid superset `B'(Q)` used by the divide-and-conquer.
//! * [`hanan`] — a Hanan-grid Dijkstra used as ground truth in tests.
//! * [`RectiPath`] — actual rectilinear paths with validity checks.

pub mod bq;
pub mod chain;
pub mod hanan;
pub mod locate;
pub mod path;
pub mod point;
pub mod rayshoot;
pub mod rect;
pub mod region;
pub mod staircase;

pub use chain::{Chain, Side};
pub use locate::ObstacleIndex;
pub use path::RectiPath;
pub use point::{Coord, Dir, Dist, Point, COORD_LIMIT, INF};
pub use rayshoot::{Carry, SlabReuse};
pub use rect::{AppliedDelta, DeltaError, DisjointnessViolation, ObstacleSet, Rect, RectId, SceneDelta};
pub use region::StairRegion;
pub use staircase::Quadrant;
