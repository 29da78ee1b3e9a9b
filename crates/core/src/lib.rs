#![warn(missing_docs)]

//! # rsp-core — Parallel rectilinear shortest paths with rectangular obstacles
//!
//! This crate implements the algorithms of Atallah & Chen (1991):
//!
//! * [`instance`] — problem instances: a rectilinearly convex container `P`
//!   holding `n` pairwise-disjoint rectangular obstacles.
//! * [`trace`] — the eight escape paths `NE(p), NW(p), ..., WS(p)` of
//!   Section 3 (Path Tracing Lemma 6) and their staircase combinations.
//! * [`separator`] — the Staircase Separator Theorem (Theorem 2): an
//!   obstacle-avoiding staircase splitting `R` into two parts of size at most
//!   `7n/8` each, found with `O(n)` work.
//! * [`dnc`] — Section 5: the divide-and-conquer construction of the
//!   boundary-to-boundary path-length matrix `D_Q`, with the conquer step
//!   performed by Monge (min,+) products across the separator.
//! * [`apsp`] — Section 6: the vertex-to-vertex (`V_R`-to-`V_R`) and
//!   vertex-to-boundary length structures.
//! * [`seq`] — Section 9: topological relaxation of monotone DAGs, one
//!   source at a time or in one all-pairs pass (the `O(n^2)`-style
//!   construction behind `apsp`'s dense matrix).
//! * [`query`] — Section 6.4: the query oracle (O(1) vertex–vertex queries,
//!   `O(log n)` arbitrary-point queries via ray shooting).
//! * [`sptree`] — Section 8: shortest-path trees and actual path reporting.
//! * [`bigp`] — Section 7: the implicit structure for `|P| = N >> n`.
//! * [`store`] — pluggable distance storage: the dense `O(n^2)` matrix or
//!   the byte-budgeted implicit row store ([`StoreKind`], [`DistanceStore`]).
//! * [`block_cache`] — the byte-budgeted LRU row cache behind the implicit
//!   store.
//! * [`baseline`] — comparators for the E8 experiment and the tests:
//!   Hanan-grid Dijkstra, sparse track-graph Dijkstra (the
//!   de Rezende–Lee–Wu-style single-source algorithm \[11\]) and the
//!   repeated-SSSP all-pairs baseline.  No serving path calls them.
//! * [`tree`] — the recursion tree of Section 6.1 (inspection / rendering).
//! * [`router`] — the session-style entry point tying everything together:
//!   lazy shared substructures, typed errors, batch query serving.  This is
//!   the API the facade crate, the examples and the README teach; the other
//!   modules are the expert layer underneath it.
//! * [`error`] — [`RspError`], the unified error type of the router layer.

pub mod apsp;
pub mod baseline;
pub mod bigp;
pub mod block_cache;
mod delta;
pub mod dnc;
pub mod error;
pub mod instance;
pub mod plan;
pub mod query;
pub mod router;
pub mod separator;
pub mod seq;
pub mod sptree;
pub mod store;
pub mod trace;
pub mod tree;

pub use apsp::VertexApsp;
pub use dnc::{build_boundary_matrix, BoundaryMatrix, DncOptions};
pub use error::RspError;
pub use instance::Instance;
pub use query::{OracleReuse, PathLengthOracle};
pub use router::{BuildCounts, Router, RouterBuilder};
pub use separator::{find_separator, Separator};
pub use sptree::ShortestPathTrees;
pub use store::{DistanceStore, RowCarry, StoreKind, StoreStats};
