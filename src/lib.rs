//! # rectilinear-shortest-paths
//!
//! Facade crate for a reproduction of Atallah & Chen, *"Parallel rectilinear
//! shortest paths with rectangular obstacles"* (SPAA 1990 / Computational
//! Geometry: Theory and Applications 1, 1991).  See README.md for the crate
//! map and DESIGN.md for the mapping from paper sections to modules.
//!
//! The public API has two layers:
//!
//! * **The [`Router`] session layer** (re-exported at the crate root along
//!   with the geometric vocabulary) — build once, query fast.  This is the
//!   only API the quickstart, the examples and most applications need.
//! * **The expert layer** under [`core`], [`geom`], [`monge`], [`pram`] —
//!   direct access to every algorithm of the paper (separators,
//!   divide-and-conquer, APSP, oracle, path trees) for research and
//!   benchmarking.
//!
//! A third layer, [`server`], wraps `Router` sessions in a sharded,
//! batching query-serving subsystem (wire protocol, LRU session cache,
//! point-query admission, TCP front end) — see `rsp_server`'s crate docs.
//!
//! ## Quickstart
//!
//! One `Router` session serves every query kind; each substructure (vertex
//! APSP + oracle, per-source path trees, the boundary matrix `D_Q`) is built
//! lazily, exactly once, and shared:
//!
//! ```
//! use rectilinear_shortest_paths::{ObstacleSet, Point, Rect, Router};
//!
//! // A rectilinear "floor plan": disjoint axis-parallel rectangular obstacles.
//! let obstacles = ObstacleSet::new(vec![
//!     Rect::new(2, 2, 6, 10),
//!     Rect::new(9, 0, 12, 6),
//!     Rect::new(8, 9, 15, 12),
//! ]);
//!
//! // Build a session.  Overlapping obstacles are a typed error naming the
//! // offending pair, not a panic.  `threads(p)` pins the session to a pool
//! // of `p` workers; answers are bitwise the same for every `p`.
//! let router = Router::builder(obstacles).threads(2).build()?;
//!
//! // 1. Length queries (Section 6): O(1) between obstacle vertices,
//! //    O(log n) between arbitrary points.
//! let a = Point::new(0, 0);
//! let b = Point::new(16, 13);
//! assert!(router.distance(a, b)? >= a.l1(b));
//!
//! let v1 = Point::new(6, 10); // an obstacle vertex
//! let v2 = Point::new(9, 0);  // another obstacle vertex
//! let d = router.vertex_distance(v1, v2)?;
//!
//! // 2. Actual paths (Section 8), sharing the same oracle build.
//! let path = router.path(v1, v2)?;
//! assert!(path.avoids(router.obstacles()));
//! assert_eq!(path.length(), d);
//!
//! // 3. Batch serving: vertex pairs take the O(1) fast path, the rest fan
//! //    out over rayon; results are index-aligned with the input.
//! let lengths = router.distances(&[(a, b), (v1, v2), (a, v2)])?;
//! assert_eq!(lengths[1], d);
//!
//! // 4. The boundary-to-boundary matrix D_Q (Section 5), built by the
//! //    parallel divide-and-conquer with staircase separators and Monge
//! //    (min,+) products.
//! let bm = router.boundary_matrix();
//! assert_eq!(bm.dist.rows(), bm.points.len());
//! # Ok::<(), rectilinear_shortest_paths::RspError>(())
//! ```

pub use rsp_core as core;
pub use rsp_geom as geom;
pub use rsp_monge as monge;
pub use rsp_pram as pram;
pub use rsp_render as render;
pub use rsp_server as server;
pub use rsp_workload as workload;

// The session layer: everything a typical application needs, importable
// without touching the expert `core::*` / `geom::*` module paths.
pub use rsp_core::router::{BuildCounts, Router, RouterBuilder};
pub use rsp_core::store::{StoreKind, StoreStats};
pub use rsp_core::trace::EscapeKind;
pub use rsp_core::RspError;
pub use rsp_geom::{
    Chain, Coord, DeltaError, DisjointnessViolation, Dist, ObstacleSet, Point, Rect, RectiPath, SceneDelta,
    StairRegion, INF,
};
