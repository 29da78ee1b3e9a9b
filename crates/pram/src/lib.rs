//! # rsp-pram — CREW-PRAM-style parallel primitives
//!
//! The paper's machine model is the CREW PRAM.  Real hardware is a
//! shared-memory multicore, and Brent's theorem (Theorem 1 of the paper) is
//! exactly the statement that any algorithm doing `W` operations in depth `T`
//! can be run by `p` processors in `O(W/p + T)` time — which is what a
//! work-stealing scheduler such as rayon delivers.  This crate provides the
//! PRAM building blocks the reproduction actually calls, implemented on top
//! of rayon:
//!
//! * [`euler`] — Euler-tour tree computations (Tarjan–Vishkin, ref \[36\]):
//!   depths and root paths in rooted forests;
//! * [`level_ancestor`] — level-ancestor queries (Berkman–Vishkin, ref \[5\]),
//!   realised with jump pointers (`O(n log n)` preprocessing, `O(log n)`
//!   query; the substitution is documented in DESIGN.md §3);
//! * [`pool`] — helpers to run a closure on a pool of exactly `p` workers
//!   (used by the speedup experiments, E9 and E11).
//!
//! The other primitives the paper cites (parallel prefix, merging, Cole's
//! sort) need no module of their own: where the code needs them, rayon's
//! parallel iterators do the work.

pub mod euler;
pub mod level_ancestor;
pub mod pool;

pub use euler::Forest;
pub use level_ancestor::LevelAncestor;
