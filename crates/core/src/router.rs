//! The `Router`: a single session-style entry point over the paper's query
//! structures.
//!
//! The value proposition of Atallah & Chen is *build once, query fast*:
//! construct the length/path structures of Sections 5–8 and then serve
//! length queries in `O(1)`/`O(log n)` and path reports in `O(log n + k)`.
//! Before this module, using the workspace meant reaching into
//! `core::query`, `core::sptree` and `core::dnc` separately — and because
//! `ShortestPathTrees::from_oracle` consumed its oracle, the quickstart
//! built the `O(n^2)`-work [`PathLengthOracle`] **twice** over the same
//! obstacles.
//!
//! [`Router`] owns one validated [`Instance`] and lazily builds each
//! substructure at most once, behind [`OnceLock`]/[`Arc`]:
//!
//! * the [`PathLengthOracle`] (vertex APSP + escape staircases + ray index),
//!   shared by `distance`, `path` and the batch APIs;
//! * per-source [`ShortestPathTrees`], grown on demand and `Arc`-sharing
//!   the same oracle;
//! * the boundary-to-boundary matrix `D_Q` of Section 5.
//!
//! The oracle has one construction path, and it is the same at every thread
//! count and for every epoch: [`PathLengthOracle`]'s builder takes the
//! resolved store kind and an optional base — the parent epoch's oracle
//! plus the edit, which [`Router::apply_delta`] defers until the first
//! query — and treats "no base" as the fresh build.  The dense store fans
//! the Section 9 single-source sweep out over every source it cannot carry
//! (all `4n` without a base), the implicit store runs it lazily per missed
//! row, and whatever the edit provably cannot affect is carried.
//! `threads(p)` only sizes the pool those sweeps (and the `D_Q`
//! divide-and-conquer) run on, so answers are bitwise-identical for every
//! `p` (`tests/determinism.rs`).
//!
//! Every fallible entry point returns [`RspError`]; batch queries
//! ([`Router::distances`], [`Router::paths`]) route vertex pairs to the
//! `O(1)` matrix lookup and deduplicate the rest.  A small batch of those
//! runs on the caller's thread, since handing it to the pool costs more
//! than the work; a larger one fans out over rayon.  Point reductions on an
//! implicit store, which may sweep a row, always fan out.
//!
//! ```
//! use rsp_core::router::Router;
//! use rsp_core::store::StoreKind;
//! use rsp_geom::{ObstacleSet, Point, Rect};
//!
//! let router = Router::builder(ObstacleSet::new(vec![Rect::new(2, 2, 6, 10)]))
//!     .store(StoreKind::Dense)
//!     .threads(2)
//!     .build()?;
//! let d = router.distance(Point::new(0, 0), Point::new(8, 12))?;
//! assert!(d >= 18);
//! # Ok::<(), rsp_core::error::RspError>(())
//! ```

use crate::delta::DeltaBase;
use crate::dnc::{build_boundary_matrix, BoundaryMatrix, DncOptions};
use crate::error::RspError;
use crate::instance::Instance;
use crate::query::{OracleReuse, PathLengthOracle};
use crate::separator::{find_separator_unbounded, Separator};
use crate::sptree::ShortestPathTrees;
use crate::store::{dense_bytes_for, StoreKind, StoreStats};
use crate::trace::{escape_path, EscapeKind};
use crate::tree::RecursionTree;
use rayon::prelude::*;
use rsp_geom::rayshoot::ShootIndex;
use rsp_geom::{Chain, Coord, Dist, ObstacleSet, Point, Rect, RectiPath, SceneDelta, COORD_LIMIT};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard};

/// How many times each lazily built substructure has actually been
/// constructed, exposed so tests (and profilers) can assert the
/// build-once guarantee.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildCounts {
    /// Constructions of the [`PathLengthOracle`] (at most 1 per router).
    pub oracle_builds: usize,
    /// Individual shortest-path trees built (at most 1 per source vertex).
    pub tree_builds: usize,
    /// Constructions of the boundary matrix `D_Q` (at most 1 per router).
    pub boundary_builds: usize,
    /// Bytes the distance store currently holds resident (0 until the
    /// oracle is built; the full matrix for [`StoreKind::Dense`], the
    /// cached rows for [`StoreKind::Implicit`]).
    pub store_resident_bytes: usize,
    /// Distance rows carried verbatim from the base epoch by a delta build
    /// (0 for from-scratch routers; see [`Router::apply_delta`]).
    pub rows_reused: usize,
    /// Distance rows a delta build had to drop or re-sweep (keep-test
    /// failures plus fresh inserted-corner sweeps).
    pub rows_rebuilt: usize,
    /// Escape staircases copied from the base epoch by a delta build.
    pub chains_reused: usize,
    /// Escape staircases re-traced by a delta build.
    pub chains_rebuilt: usize,
    /// Ray-shooting slab columns copied from the base epoch by a delta build.
    pub slab_columns_reused: usize,
    /// Ray-shooting slab columns refilled by a delta build.
    pub slab_columns_rebuilt: usize,
}

#[derive(Default)]
struct BuildCounters {
    oracle: AtomicUsize,
    trees: AtomicUsize,
    boundary: AtomicUsize,
    /// What the oracle build carried from its base epoch (zero without one).
    reuse: OnceLock<OracleReuse>,
}

/// Fail with [`RspError::CoordinateOutOfRange`] on the first rectangle
/// corner outside `±`[`COORD_LIMIT`].
fn check_domain(rects: &[Rect]) -> Result<(), RspError> {
    match rects.iter().flat_map(|r| [r.ll(), r.ur()]).find(|p| !p.in_domain()) {
        Some(p) => Err(RspError::CoordinateOutOfRange(p)),
        None => Ok(()),
    }
}

/// The most independent per-pair jobs (distinct point reductions in
/// [`Router::distances`], distinct path extractions in [`Router::paths`]) a
/// batch runs on the caller's thread instead of handing them to the pool.
///
/// The bound is where the two cost the same on an idle machine.  Measured
/// in-process at n = 256 on a dense store (2 cores, release, a caller outside
/// a 2-worker pool), a point reduction costs about 0.3 µs and the hand-off
/// about 8 µs per batch: 64 pairs take 20 µs inline and 22 µs pooled, 128
/// pairs 37 µs and 25 µs.  A path extraction costs about 0.8 µs, and fanning
/// out 128 of them was no faster than running them inline.  Under serving
/// load the hand-off costs more, since the connection threads already keep
/// the cores busy (the traced serving path spent 24 µs of fan-out self time
/// per 16-pair batch), which only moves the break-even further up.
const INLINE_MAX_PAIRS: usize = 64;

/// Whether a batch of `unique` independent per-pair jobs goes to the pool.
/// `may_sweep` marks jobs that can run a Section 9 row sweep (point
/// reductions on an implicit store), whose cost the bound above does not
/// describe; those always fan out.
fn fans_out(unique: usize, may_sweep: bool) -> bool {
    may_sweep || unique > INLINE_MAX_PAIRS
}

/// Configures and validates a [`Router`].  Created by [`Router::builder`].
pub struct RouterBuilder {
    obstacles: ObstacleSet,
    store: StoreKind,
    threads: Option<usize>,
    margin: Coord,
}

impl RouterBuilder {
    /// Select the distance storage backend (default [`StoreKind::Auto`]:
    /// dense below [`crate::store::IMPLICIT_AUTO_THRESHOLD`] obstacles,
    /// implicit with [`crate::store::default_budget_bytes`] above).  Both
    /// backends answer every query bitwise-identically; the implicit store
    /// trades the `O(n^2)` matrix for a byte-budgeted row cache.
    pub fn store(mut self, store: StoreKind) -> Self {
        self.store = store;
        self
    }

    /// Pin construction and batch serving to a pool of `p` worker threads
    /// (default: the global rayon pool).
    pub fn threads(mut self, p: usize) -> Self {
        self.threads = Some(p.max(1));
        self
    }

    /// Margin by which the instance container extends beyond the obstacle
    /// bounding box (default 2, clamped to `1..=`[`COORD_LIMIT`]).  Affects
    /// the container boundary that [`Router::boundary_matrix`] discretises.
    pub fn margin(mut self, margin: Coord) -> Self {
        self.margin = margin.clamp(1, COORD_LIMIT);
        self
    }

    /// Validate the input and assemble the router.  Fails with
    /// [`RspError::DegenerateObstacle`] for a zero-width or zero-height
    /// obstacle, [`RspError::CoordinateOutOfRange`] for a corner outside
    /// `±`[`COORD_LIMIT`] and [`RspError::OverlappingObstacles`] (naming the
    /// offending pair) when two obstacles overlap; no substructure is built
    /// yet — each is constructed lazily on first use.
    pub fn build(self) -> Result<Router, RspError> {
        // `Instance::validate` checks degeneracy too, but neither an inverted
        // nor an out-of-domain rectangle may reach `with_margin`, whose bbox
        // expansion asserts (and overflows near `i64::MAX`).
        if let Some(i) = self.obstacles.iter().position(Rect::is_degenerate) {
            return Err(RspError::DegenerateObstacle(i));
        }
        check_domain(self.obstacles.rects())?;
        let store = self.store.resolve(self.obstacles.len());
        let instance = Instance::with_margin(self.obstacles, self.margin);
        instance.validate()?;
        let pool = match self.threads {
            Some(p) => Some(Arc::new(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(p)
                    .build()
                    .map_err(|e| RspError::ThreadPool(e.to_string()))?,
            )),
            None => None,
        };
        Ok(Router {
            instance,
            store,
            pool,
            margin: self.margin,
            epoch: 0,
            delta: Mutex::new(None),
            oracle: OnceLock::new(),
            trees: OnceLock::new(),
            boundary: OnceLock::new(),
            shoot_index: OnceLock::new(),
            counts: BuildCounters::default(),
        })
    }
}

/// A query-serving session over one obstacle set: the single public entry
/// point of the workspace (see the module docs).
pub struct Router {
    instance: Instance,
    store: StoreKind,
    /// The `threads(p)` pool, shared by every epoch derived through
    /// [`Router::apply_delta`].
    pool: Option<Arc<rayon::ThreadPool>>,
    /// Builder margin, retained so [`Router::apply_delta`] can rebuild the
    /// container around the edited scene.
    margin: Coord,
    /// 0 for a from-scratch build; parent epoch + 1 for a delta build.
    epoch: u64,
    /// Deferred delta-build input, consumed (and dropped, releasing the base
    /// epoch's oracle `Arc`) by the first oracle construction.
    delta: Mutex<Option<DeltaBase>>,
    oracle: OnceLock<Arc<PathLengthOracle>>,
    trees: OnceLock<RwLock<ShortestPathTrees>>,
    boundary: OnceLock<Arc<BoundaryMatrix>>,
    /// Standalone ray-shooting index for [`Router::escape`] when the oracle
    /// has not been built yet (the oracle carries its own copy).
    shoot_index: OnceLock<ShootIndex>,
    counts: BuildCounters,
}

impl Router {
    /// Start configuring a router for the given obstacles.
    pub fn builder(obstacles: ObstacleSet) -> RouterBuilder {
        RouterBuilder { obstacles, store: StoreKind::Auto, threads: None, margin: 2 }
    }

    /// Shorthand: a router over `obstacles` with all defaults.
    pub fn new(obstacles: ObstacleSet) -> Result<Router, RspError> {
        Self::builder(obstacles).build()
    }

    /// The validated instance (obstacles + container).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The obstacle set.
    pub fn obstacles(&self) -> &ObstacleSet {
        self.instance.obstacles()
    }

    /// Number of obstacles `n`.
    pub fn n(&self) -> usize {
        self.instance.n()
    }

    /// The session epoch: 0 for a from-scratch build, incremented by each
    /// [`Router::apply_delta`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Apply a scene edit, producing a **new** epoch-versioned session over
    /// the edited obstacle set.  `self` is untouched: in-flight queries keep
    /// their snapshot, and both sessions stay fully usable side by side.
    ///
    /// The new session inherits the resolved store kind, the margin and the
    /// thread pool itself, and *reuses from this session's already-built oracle*
    /// every substructure the delta provably cannot affect: unchanged
    /// distance rows (dense and implicit), untouched escape staircases and
    /// clean ray-shooting slab columns carry over verbatim; everything else
    /// re-derives lazily.  Queries on the new session answer
    /// bitwise-identically to a from-scratch build of the edited scene
    /// (certified across stores and thread counts in `tests/edit.rs`); [`Router::build_counts`] exposes the
    /// `*_reused`/`*_rebuilt` split once the new oracle is built.
    ///
    /// Validation is *incremental*: removals are range/duplicate-checked and
    /// each inserted rectangle is checked for degeneracy, against the
    /// coordinate domain and against the whole edited scene (`O(k · n)`
    /// instead of the builder's `O(n^2)` full scan).
    pub fn apply_delta(&self, delta: &SceneDelta) -> Result<Router, RspError> {
        let applied = self.instance.obstacles().apply_delta(delta)?;
        if let Some(k) = delta.insert.iter().position(Rect::is_degenerate) {
            return Err(RspError::DegenerateObstacle(applied.first_inserted + k));
        }
        check_domain(&delta.insert)?;
        applied.validate_disjoint_incremental()?;
        // Only an already-built oracle is worth carrying; otherwise the new
        // session builds from scratch lazily like any other.
        let base = self.oracle.get().map(|oracle| {
            DeltaBase::new(
                Arc::clone(oracle),
                applied.old_to_new.clone(),
                applied.new_to_old.clone(),
                applied.edited.clone(),
            )
        });
        Ok(Router {
            instance: Instance::with_margin(applied.obstacles, self.margin),
            store: self.store,
            pool: self.pool.clone(),
            margin: self.margin,
            epoch: self.epoch + 1,
            delta: Mutex::new(base),
            oracle: OnceLock::new(),
            trees: OnceLock::new(),
            boundary: OnceLock::new(),
            shoot_index: OnceLock::new(),
            counts: BuildCounters::default(),
        })
    }

    /// The distance store this router resolved to ([`StoreKind::Auto`] is
    /// resolved by scene size at build time and never stored).
    pub fn store_kind(&self) -> StoreKind {
        self.store
    }

    /// Memory accounting snapshot of the distance store.  Before the oracle
    /// is built nothing is resident and only the dense baseline (what a
    /// dense matrix for this scene would cost) is reported.
    pub fn memory_stats(&self) -> StoreStats {
        match self.oracle.get() {
            Some(oracle) => oracle.apsp().store_stats(),
            None => StoreStats { dense_bytes: dense_bytes_for(self.n()), ..StoreStats::default() },
        }
    }

    /// Snapshot of how often each substructure has been constructed so far,
    /// plus the bytes the distance store holds resident.  A router never
    /// builds a substructure more than once; tests assert this stays at 0/1
    /// per structure no matter how many queries ran.
    pub fn build_counts(&self) -> BuildCounts {
        let reuse = self.counts.reuse.get().copied().unwrap_or_default();
        BuildCounts {
            oracle_builds: self.counts.oracle.load(Ordering::Relaxed),
            tree_builds: self.counts.trees.load(Ordering::Relaxed),
            boundary_builds: self.counts.boundary.load(Ordering::Relaxed),
            store_resident_bytes: self.oracle.get().map_or(0, |o| o.apsp().store_stats().resident_bytes),
            rows_reused: reuse.rows.rows_carried,
            rows_rebuilt: reuse.rows.rows_dropped + reuse.rows.corner_sweeps,
            chains_reused: reuse.chains_reused,
            chains_rebuilt: reuse.chains_rebuilt,
            slab_columns_reused: reuse.slab_columns.reused,
            slab_columns_rebuilt: reuse.slab_columns.rebuilt,
        }
    }

    /// Run `f` inside this router's pinned thread pool, if any.  A caller
    /// outside the pool blocks until a worker has run `f`.
    fn in_pool<R>(&self, f: impl FnOnce() -> R + Send) -> R
    where
        R: Send,
    {
        match &self.pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }

    /// The shared length oracle, built on first use (expert escape hatch —
    /// everything it offers is also reachable through the router methods).
    pub fn oracle(&self) -> Arc<PathLengthOracle> {
        Arc::clone(self.oracle_handle())
    }

    fn oracle_handle(&self) -> &Arc<PathLengthOracle> {
        self.oracle.get_or_init(|| {
            self.counts.oracle.fetch_add(1, Ordering::Relaxed);
            // Consume (and thereby release) the deferred delta input.
            let base = self.delta.lock().unwrap_or_else(|p| p.into_inner()).take();
            Arc::new(self.in_pool(|| self.build_oracle(base)))
        })
    }

    /// Build this epoch's oracle over the resolved store, carrying from
    /// `base` (the parent epoch's oracle and the edit) every distance row,
    /// escape staircase and slab column the edit provably cannot affect.
    /// The result is bitwise-identical to a build without a base because
    /// every carried artifact is *canonical*: rows hold true shortest-path
    /// lengths and chains/slabs are pure functions of the surviving geometry.
    fn build_oracle(&self, base: Option<DeltaBase>) -> PathLengthOracle {
        let (oracle, reuse) = PathLengthOracle::build_with(self.instance.obstacles_arc(), self.store, base.as_ref());
        if base.is_some() {
            let _ = self.counts.reuse.set(reuse);
        }
        oracle
    }

    fn trees_handle(&self) -> &RwLock<ShortestPathTrees> {
        self.trees
            .get_or_init(|| RwLock::new(ShortestPathTrees::from_oracle(Arc::clone(self.oracle_handle()), Some(&[]))))
    }

    /// Read access to the path trees.  A poisoned lock is recovered: the
    /// only writer (`ensure_trees`) inserts a tree only after its build has
    /// returned, so a panic cannot leave a partial tree to read.
    fn read_trees(&self) -> RwLockReadGuard<'_, ShortestPathTrees> {
        self.trees_handle().read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fail with [`RspError::CoordinateOutOfRange`] when `p` lies outside
    /// the coordinate domain and [`RspError::PointInsideObstacle`] when it is
    /// strictly inside an obstacle.  On the query hot path the oracle's
    /// [`ObstacleIndex`](rsp_geom::ObstacleIndex) answers in `O(log n)`;
    /// cold callers (`escape`) fall back to the `O(n)` scan rather than
    /// force the oracle build.
    fn check_point(&self, p: Point) -> Result<(), RspError> {
        if !p.in_domain() {
            return Err(RspError::CoordinateOutOfRange(p));
        }
        let containing = match self.oracle.get() {
            Some(oracle) => oracle.obstacle_index().containing_obstacle(p),
            None => self.instance.obstacles().containing_obstacle(p),
        };
        match containing {
            Some(obstacle) => Err(RspError::PointInsideObstacle { point: p, obstacle }),
            None => Ok(()),
        }
    }

    /// Index of an obstacle vertex, or [`RspError::NotAVertex`].
    fn vertex_index(&self, p: Point) -> Result<usize, RspError> {
        self.oracle_handle().apsp().vertex_index(p).ok_or(RspError::NotAVertex(p))
    }

    // ------------------------------------------------------------------
    // Length queries (Section 6)
    // ------------------------------------------------------------------

    /// Length of a shortest obstacle-avoiding rectilinear path between two
    /// arbitrary points: `O(1)` when both are obstacle vertices, `O(log n)`
    /// otherwise.
    pub fn distance(&self, a: Point, b: Point) -> Result<Dist, RspError> {
        let oracle = self.oracle_handle();
        let apsp = oracle.apsp();
        // Vertex pairs skip the O(n) containment scan: obstacle vertices can
        // never lie strictly inside an obstacle once disjointness validated.
        if let (Some(i), Some(j)) = (apsp.vertex_index(a), apsp.vertex_index(b)) {
            return Ok(apsp.distance(i, j));
        }
        self.check_point(a)?;
        self.check_point(b)?;
        Ok(oracle.distance_clear(a, b))
    }

    /// `O(1)` length query for two obstacle vertices.  Unlike the old
    /// `Option`-returning oracle API, a non-vertex argument is a typed
    /// [`RspError::NotAVertex`].
    pub fn vertex_distance(&self, a: Point, b: Point) -> Result<Dist, RspError> {
        let oracle = self.oracle_handle();
        let (i, j) = (self.vertex_index(a)?, self.vertex_index(b)?);
        Ok(oracle.apsp().distance(i, j))
    }

    /// Batch length queries.  Pairs where both endpoints are obstacle
    /// vertices are routed to the `O(1)` matrix fast path; the remaining
    /// pairs are deduplicated and reduced on the caller's thread when at
    /// most 64 distinct pairs remain on a dense store, and over rayon
    /// otherwise (an implicit-store reduction may sweep a row, so those
    /// always fan out).  The output is index-aligned with `pairs` and equals
    /// what per-pair [`Router::distance`] calls would return.
    ///
    /// Under an implicit store the vertex pairs additionally go through the
    /// batch planner ([`crate::plan`]): the providing rows are a vertex
    /// cover of the batch's pair graph (so `k` sources fanned out to many
    /// targets cost `k` rows), lookups are ordered row-major, and the rows
    /// are materialised once and pinned for the batch — so a cold batch
    /// pays one sweep per *planned row*, not one per query.  The dense
    /// store bypasses planning entirely (its per-pair read is already a
    /// single array access).
    pub fn distances(&self, pairs: &[(Point, Point)]) -> Result<Vec<Dist>, RspError> {
        // An empty batch must not force the O(n^2) oracle build: a caller
        // may well pass one (an empty `BatchDistances` frame, say).
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let oracle = self.oracle_handle();
        let apsp = oracle.apsp();
        let implicit = apsp.store().as_implicit();
        let mut out = vec![0 as Dist; pairs.len()];
        let mut slow: Vec<usize> = Vec::new();
        let mut planned: Vec<(usize, usize, usize)> = Vec::new();
        let mut mixed_rows: Vec<usize> = Vec::new();
        for (k, &(a, b)) in pairs.iter().enumerate() {
            match (apsp.vertex_index(a), apsp.vertex_index(b)) {
                // The fast path stays O(1) per pair: vertices never lie
                // strictly inside an obstacle, so no containment scan runs.
                (Some(i), Some(j)) => match implicit {
                    None => out[k] = apsp.distance(i, j),
                    Some(_) => planned.push((i, j, k)),
                },
                (ai, bi) => {
                    if ai.is_none() {
                        self.check_point(a)?;
                    }
                    if bi.is_none() {
                        self.check_point(b)?;
                    }
                    // A mixed pair's vertex endpoint names the row the
                    // oracle will read detours from — plan it in too.
                    if implicit.is_some() {
                        if let Some(i) = ai.or(bi) {
                            mixed_rows.push(i);
                        }
                    }
                    slow.push(k);
                }
            }
        }
        // The pinned working set (implicit store only) lives until the slow
        // fan-out below finishes, so arbitrary-point queries reuse the very
        // rows the vertex lookups just materialised.
        let _pins = implicit.map(|store| {
            let plan = crate::plan::plan_vertex_pairs_with(&planned, &mixed_rows);
            let pins = self.in_pool(|| store.pin_rows(&plan.rows));
            for lookup in &plan.lookups {
                let d = pins.row(lookup.row).expect("planned rows are pinned")[lookup.col];
                for &slot in &lookup.slots {
                    out[slot] = d;
                }
            }
            pins
        });
        let deduped = crate::plan::dedupe_point_pairs(pairs, &slow);
        // Each reduction is a pure function of the oracle, so both branches
        // yield the same answers in `deduped.unique` order.
        let reduce = |&(a, b): &(Point, Point)| oracle.distance_clear(a, b);
        let slow_results: Vec<Dist> = if fans_out(deduped.unique.len(), implicit.is_some()) {
            self.in_pool(|| deduped.unique.par_iter().map(reduce).collect())
        } else {
            deduped.unique.iter().map(reduce).collect()
        };
        for (d, slots) in slow_results.into_iter().zip(&deduped.slots) {
            for &slot in slots {
                out[slot] = d;
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Path reporting (Section 8)
    // ------------------------------------------------------------------

    /// Make sure a shortest-path tree exists for each source vertex (callers
    /// have already resolved the points to vertices).
    fn ensure_trees(&self, sources: &[Point]) {
        let missing = {
            let guard = self.read_trees();
            sources.iter().any(|&s| !guard.has_tree(s))
        };
        if missing {
            // Recovered for the reason `read_trees` gives: `ensure_sources`
            // inserts trees only after every build has returned.
            let mut guard = self.trees_handle().write().unwrap_or_else(PoisonError::into_inner);
            let trees: &mut ShortestPathTrees = &mut guard;
            let built = self.in_pool(|| trees.ensure_sources(sources));
            self.counts.trees.fetch_add(built, Ordering::Relaxed);
        }
    }

    /// Report an actual shortest path between two obstacle vertices.  The
    /// shortest-path tree for `source` is built on first use and cached.
    pub fn path(&self, source: Point, target: Point) -> Result<RectiPath, RspError> {
        self.vertex_index(source)?;
        self.vertex_index(target)?;
        self.ensure_trees(&[source]);
        let guard = self.read_trees();
        guard.path_between(source, target).ok_or(RspError::NotAVertex(source))
    }

    /// Batch path reporting: builds all missing source trees in one parallel
    /// pass, deduplicates identical `(source, target)` pairs, then extracts
    /// every distinct path once (on the caller's thread for at most 64
    /// distinct pairs, over rayon above that) and scatters clones back.
    /// Output is index-aligned with `pairs`.
    pub fn paths(&self, pairs: &[(Point, Point)]) -> Result<Vec<RectiPath>, RspError> {
        // As in `distances`: an empty batch touches no lazy substructure
        // (`ensure_trees(&[])` would still build the oracle via the trees
        // handle).
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        for &(s, t) in pairs {
            self.vertex_index(s)?;
            self.vertex_index(t)?;
        }
        let sources: Vec<Point> = pairs.iter().map(|&(s, _)| s).collect();
        self.ensure_trees(&sources);
        let all: Vec<usize> = (0..pairs.len()).collect();
        let deduped = crate::plan::dedupe_point_pairs(pairs, &all);
        let guard = self.read_trees();
        let trees: &ShortestPathTrees = &guard;
        // Extraction only reads built trees, so it follows the inline bound
        // on both stores.
        let extract = |&(s, t): &(Point, Point)| trees.path_between(s, t).expect("tree was just ensured");
        let extracted: Vec<RectiPath> = if fans_out(deduped.unique.len(), false) {
            self.in_pool(|| deduped.unique.par_iter().map(extract).collect())
        } else {
            deduped.unique.iter().map(extract).collect()
        };
        let mut out: Vec<Option<RectiPath>> = vec![None; pairs.len()];
        for (path, slots) in extracted.into_iter().zip(&deduped.slots) {
            let (&last, rest) = slots.split_last().expect("every unique pair has a slot");
            for &slot in rest {
                out[slot] = Some(path.clone());
            }
            out[last] = Some(path);
        }
        Ok(out.into_iter().map(|p| p.expect("every slot was scattered")).collect())
    }

    /// The number of tree edges between `target` and `source`'s tree root
    /// (an upper bound on the reported path's segment count up to a
    /// constant), answered in `O(1)` after the tree is built.
    pub fn hop_count(&self, source: Point, target: Point) -> Result<usize, RspError> {
        self.vertex_index(source)?;
        self.vertex_index(target)?;
        self.ensure_trees(&[source]);
        let guard = self.read_trees();
        guard.hop_count(source, target).ok_or(RspError::NotAVertex(source))
    }

    /// Report a path in independently extracted pieces of at most `chunk`
    /// tree hops each (the parallel reporting scheme of Section 8), ordered
    /// from `target` towards `source`.
    pub fn path_chunks(&self, source: Point, target: Point, chunk: usize) -> Result<Vec<RectiPath>, RspError> {
        self.vertex_index(source)?;
        self.vertex_index(target)?;
        self.ensure_trees(&[source]);
        let guard = self.read_trees();
        let trees: &ShortestPathTrees = &guard;
        self.in_pool(|| trees.path_chunks(source, target, chunk)).ok_or(RspError::NotAVertex(source))
    }

    // ------------------------------------------------------------------
    // The boundary matrix D_Q (Section 5)
    // ------------------------------------------------------------------

    /// The boundary-to-boundary path-length matrix `D_Q` over the instance
    /// container, built on first use by the Section 5 divide-and-conquer
    /// (staircase separators + Monge (min,+) conquer) and cached.  The
    /// `rayon::join` schedule runs sequentially on a 1-thread pool and gives
    /// the same matrix at every width.
    pub fn boundary_matrix(&self) -> Arc<BoundaryMatrix> {
        Arc::clone(self.boundary.get_or_init(|| {
            self.counts.boundary.fetch_add(1, Ordering::Relaxed);
            let opts = DncOptions::default();
            let bm =
                self.in_pool(|| build_boundary_matrix(self.instance.obstacles(), self.instance.container(), &opts));
            Arc::new(bm)
        }))
    }

    // ------------------------------------------------------------------
    // Inspection helpers (Sections 3, 4, 6.1) — used by the figure gallery
    // ------------------------------------------------------------------

    /// The Theorem 2 staircase separator of this router's obstacles (`None`
    /// for fewer than two obstacles).
    pub fn separator(&self) -> Option<Separator> {
        find_separator_unbounded(self.instance.obstacles())
    }

    /// The Section 6.1 recursion tree (for inspection / rendering).
    pub fn recursion_tree(&self) -> RecursionTree {
        RecursionTree::build(self.instance.obstacles())
    }

    /// The Section 3 escape path of `kind` from `p`, clipped to the instance
    /// container.  `p` must lie in the container and outside all obstacle
    /// interiors.
    pub fn escape(&self, p: Point, kind: EscapeKind) -> Result<Chain, RspError> {
        self.check_point(p)?;
        if !self.instance.container().contains(p) {
            return Err(RspError::PointOutsideContainer(p));
        }
        // Ray shooting only needs the O(n log n) ShootIndex; borrow the
        // oracle's copy when the oracle already exists, otherwise build a
        // standalone index instead of forcing the O(n^2) oracle construction.
        let index = match self.oracle.get() {
            Some(oracle) => oracle.shoot_index(),
            None => self.shoot_index.get_or_init(|| ShootIndex::build(self.instance.obstacles())),
        };
        Ok(escape_path(self.instance.obstacles(), index, self.instance.container(), p, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::hanan::ground_truth_distance;
    use rsp_geom::INF;
    use rsp_workload::{query_pairs, uniform_disjoint};

    fn sample() -> ObstacleSet {
        ObstacleSet::new(vec![Rect::new(2, 2, 6, 10), Rect::new(9, 0, 12, 6), Rect::new(8, 9, 15, 12)])
    }

    #[test]
    fn builder_rejects_overlap_with_pair_evidence() {
        let obs = ObstacleSet::new(vec![Rect::new(0, 0, 4, 4), Rect::new(3, 3, 8, 8)]);
        match Router::new(obs) {
            Err(RspError::OverlappingObstacles(v)) => {
                assert_eq!((v.first, v.second), (0, 1));
            }
            other => panic!("expected overlap error, got {:?}", other.err()),
        }
    }

    #[test]
    fn builder_rejects_degenerate_obstacles_without_panicking() {
        // Struct literals stand in for serde, which bypasses `Rect::new`.
        for flat in [Rect { xmin: 0, ymin: 0, xmax: 0, ymax: 4 }, Rect { xmin: 10, ymin: 0, xmax: 0, ymax: 4 }] {
            assert_eq!(Router::new(ObstacleSet::new(vec![flat])).err(), Some(RspError::DegenerateObstacle(0)));
        }
        let mixed = ObstacleSet::new(vec![Rect::new(0, 0, 2, 2), Rect { xmin: 5, ymin: 9, xmax: 8, ymax: 9 }]);
        assert_eq!(Router::new(mixed).err(), Some(RspError::DegenerateObstacle(1)));
    }

    #[test]
    fn distance_and_path_share_one_oracle_build() {
        let router = Router::new(sample()).unwrap();
        assert_eq!(router.build_counts(), BuildCounts::default());
        let v1 = Point::new(6, 10);
        let v2 = Point::new(9, 0);
        let d = router.vertex_distance(v1, v2).unwrap();
        let p = router.path(v1, v2).unwrap();
        assert_eq!(p.length(), d);
        let _ = router.distance(Point::new(0, 0), Point::new(16, 13)).unwrap();
        let _ = router.boundary_matrix();
        let _ = router.boundary_matrix();
        let counts = router.build_counts();
        assert_eq!(counts.oracle_builds, 1);
        assert_eq!(counts.tree_builds, 1);
        assert_eq!(counts.boundary_builds, 1);
    }

    #[test]
    fn empty_batches_build_nothing() {
        let router = Router::new(sample()).unwrap();
        assert_eq!(router.distances(&[]).unwrap(), Vec::<i64>::new());
        assert_eq!(router.paths(&[]).unwrap(), Vec::new());
        // Neither empty batch may have touched a lazy substructure.
        assert_eq!(router.build_counts(), BuildCounts::default());
    }

    #[test]
    fn typed_errors_for_bad_queries() {
        let router = Router::new(sample()).unwrap();
        let inside = Point::new(3, 5);
        match router.distance(inside, Point::new(0, 0)) {
            Err(RspError::PointInsideObstacle { point, obstacle }) => {
                assert_eq!(point, inside);
                assert_eq!(obstacle, 0);
            }
            other => panic!("expected inside-obstacle error, got {other:?}"),
        }
        assert_eq!(
            router.vertex_distance(Point::new(1, 1), Point::new(2, 2)),
            Err(RspError::NotAVertex(Point::new(1, 1)))
        );
        assert!(matches!(router.path(Point::new(1, 1), Point::new(2, 2)), Err(RspError::NotAVertex(_))));
    }

    #[test]
    fn distances_batch_matches_per_call() {
        let w = uniform_disjoint(8, 3);
        let router = Router::new(w.obstacles.clone()).unwrap();
        let mut pairs = query_pairs(&w.obstacles, 30, false, 9);
        pairs.extend(query_pairs(&w.obstacles, 30, true, 10));
        let batch = router.distances(&pairs).unwrap();
        for (k, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(batch[k], router.distance(a, b).unwrap(), "{a:?} -> {b:?}");
            assert!(batch[k] < INF);
            assert_eq!(batch[k], ground_truth_distance(&w.obstacles, a, b));
        }
    }

    #[test]
    fn paths_batch_certifies_lengths() {
        let w = uniform_disjoint(6, 21);
        let router = Router::new(w.obstacles.clone()).unwrap();
        let verts = w.obstacles.vertices();
        let pairs: Vec<(Point, Point)> =
            verts.iter().step_by(3).flat_map(|&s| verts.iter().step_by(5).map(move |&t| (s, t))).collect();
        let paths = router.paths(&pairs).unwrap();
        for (k, &(s, t)) in pairs.iter().enumerate() {
            let d = router.vertex_distance(s, t).unwrap();
            assert!(paths[k].certifies(&w.obstacles, s, t, d), "{s:?} -> {t:?}");
        }
        // All distinct sources got exactly one tree each.
        let distinct: std::collections::HashSet<Point> = pairs.iter().map(|&(s, _)| s).collect();
        assert_eq!(router.build_counts().tree_builds, distinct.len());
    }

    #[test]
    fn thread_counts_agree_with_ground_truth() {
        let w = uniform_disjoint(6, 14);
        let routers: Vec<Router> = [None, Some(1), Some(2)]
            .into_iter()
            .map(|p| {
                let builder = Router::builder(w.obstacles.clone());
                match p {
                    Some(p) => builder.threads(p),
                    None => builder,
                }
                .build()
                .unwrap()
            })
            .collect();
        let verts = w.obstacles.vertices();
        for &a in verts.iter().step_by(3) {
            for &b in verts.iter().step_by(4) {
                let expect = ground_truth_distance(&w.obstacles, a, b);
                for router in &routers {
                    assert_eq!(router.vertex_distance(a, b).unwrap(), expect, "{a:?} -> {b:?}");
                }
            }
        }
        let bm = routers[0].boundary_matrix();
        for router in &routers[1..] {
            assert_eq!(router.boundary_matrix().dist, bm.dist, "D_Q depends on the pool width");
        }
    }

    #[test]
    fn store_backends_answer_identically() {
        let w = uniform_disjoint(9, 42);
        let dense = Router::builder(w.obstacles.clone()).store(StoreKind::Dense).build().unwrap();
        // Small scene + Auto resolves to Dense.
        assert_eq!(dense.store_kind(), StoreKind::Dense);
        assert_eq!(Router::new(w.obstacles.clone()).unwrap().store_kind(), StoreKind::Dense);
        // A two-row budget forces eviction churn on every scan.
        let row_bytes = 4 * w.n() * std::mem::size_of::<Dist>();
        let implicit = Router::builder(w.obstacles.clone())
            .store(StoreKind::Implicit { budget_bytes: 2 * row_bytes })
            .build()
            .unwrap();
        let mut pairs = query_pairs(&w.obstacles, 20, true, 5);
        pairs.extend(query_pairs(&w.obstacles, 20, false, 6));
        assert_eq!(dense.distances(&pairs).unwrap(), implicit.distances(&pairs).unwrap());
        let verts = w.obstacles.vertices();
        let vpairs: Vec<(Point, Point)> =
            verts.iter().step_by(4).flat_map(|&s| verts.iter().step_by(7).map(move |&t| (s, t))).collect();
        let dense_paths = dense.paths(&vpairs).unwrap();
        let implicit_paths = implicit.paths(&vpairs).unwrap();
        for (k, &(s, t)) in vpairs.iter().enumerate() {
            assert_eq!(dense_paths[k].length(), implicit_paths[k].length(), "{s:?} -> {t:?}");
            assert!(implicit_paths[k].certifies(&w.obstacles, s, t, dense_paths[k].length()));
        }
    }

    #[test]
    fn planned_implicit_batches_sweep_each_row_once() {
        let w = uniform_disjoint(8, 17);
        let row_bytes = 4 * w.n() * std::mem::size_of::<Dist>();
        // Two-row pin budget, so the batch's working set cannot all be pinned.
        let implicit = Router::builder(w.obstacles.clone())
            .store(StoreKind::Implicit { budget_bytes: 2 * row_bytes })
            .build()
            .unwrap();
        let dense = Router::builder(w.obstacles.clone()).store(StoreKind::Dense).build().unwrap();
        let verts = w.obstacles.vertices();
        // Many queries, few providing rows: (v0, t) and its flip (t, v0)
        // are read from row 0, and (v5, t) from row 5, which covers them all
        // (the min(u, v) rule would also read (v5, v3) from row 3).
        let mut pairs = Vec::new();
        for &t in verts.iter().step_by(3) {
            pairs.push((verts[0], t));
            pairs.push((t, verts[0]));
            pairs.push((verts[5], t));
        }
        let batch = implicit.distances(&pairs).unwrap();
        assert_eq!(batch, dense.distances(&pairs).unwrap(), "bitwise-identical to dense");
        let stats = implicit.memory_stats();
        // Providing rows are {0, 5}: one sweep each, despite 3 queries per
        // target and a budget below the working set.
        assert_eq!(stats.row_misses, 2, "one sweep per distinct providing row");
        assert_eq!(stats.pinned_bytes, 0, "batch pins were released");
        assert!(stats.resident_bytes <= 2 * row_bytes, "budget enforced after the batch");
    }

    #[test]
    fn only_sweeping_or_large_batches_fan_out() {
        assert!(!fans_out(0, false));
        assert!(!fans_out(INLINE_MAX_PAIRS, false));
        assert!(fans_out(INLINE_MAX_PAIRS + 1, false));
        // Implicit-store point reductions may sweep a row: they fan out at
        // any size.
        assert!(fans_out(1, true));
        assert!(fans_out(INLINE_MAX_PAIRS, true));
    }

    #[test]
    fn small_dense_batches_run_without_a_pool_worker() {
        use std::sync::mpsc;
        use std::time::Duration;
        let w = uniform_disjoint(8, 29);
        let router = Router::builder(w.obstacles.clone()).store(StoreKind::Dense).threads(1).build().unwrap();
        let points = query_pairs(&w.obstacles, 16, false, 4);
        let verts = w.obstacles.vertices();
        let vpairs: Vec<(Point, Point)> = (0..8).map(|i| (verts[i % 3], verts[(5 * i + 1) % verts.len()])).collect();
        // Build the oracle and the path trees first: both run on the pool.
        let expect_d = router.distances(&points).unwrap();
        let expect_p = router.paths(&vpairs).unwrap();
        let pool = Arc::clone(router.pool.as_ref().expect("threads(1) builds a pool"));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        // Occupy the pool's only worker until released (or timed out).
        let holder = std::thread::spawn(move || {
            pool.install(move || {
                started_tx.send(()).unwrap();
                release_rx.recv_timeout(Duration::from_secs(10)).is_ok()
            })
        });
        started_rx.recv().unwrap();
        // A hand-off would block here until the worker timed out.
        let got_d = router.distances(&points).unwrap();
        let got_p = router.paths(&vpairs).unwrap();
        release_tx.send(()).unwrap();
        assert!(holder.join().unwrap(), "the batches waited for the occupied worker");
        assert_eq!(got_d, expect_d);
        assert_eq!(got_p, expect_p);
        for (k, &(a, b)) in points.iter().enumerate() {
            assert_eq!(got_d[k], ground_truth_distance(&w.obstacles, a, b), "{a:?} -> {b:?}");
        }
    }

    #[test]
    fn a_poisoned_tree_lock_is_recovered() {
        let w = uniform_disjoint(7, 12);
        let router = Router::new(w.obstacles.clone()).unwrap();
        let verts = w.obstacles.vertices();
        let pairs: Vec<(Point, Point)> = (0..10).map(|i| (verts[i % 4], verts[(3 * i + 2) % verts.len()])).collect();
        let _ = router.path(verts[0], verts[1]).unwrap();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = router.trees_handle().write().unwrap();
                panic!("poison the tree lock");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(router.trees_handle().is_poisoned());
        // Old and new sources both answer exactly as a fresh session does.
        let fresh = Router::new(w.obstacles.clone()).unwrap();
        assert_eq!(router.paths(&pairs).unwrap(), fresh.paths(&pairs).unwrap());
        let (s, t) = (verts[5], verts[9]);
        assert_eq!(router.path(s, t).unwrap(), fresh.path(s, t).unwrap());
        assert_eq!(router.hop_count(s, t).unwrap(), fresh.hop_count(s, t).unwrap());
        assert_eq!(router.path_chunks(s, t, 2).unwrap(), fresh.path_chunks(s, t, 2).unwrap());
    }

    #[test]
    fn duplicate_slow_pairs_are_answered_once_and_scattered() {
        let w = uniform_disjoint(6, 23);
        let router = Router::new(w.obstacles.clone()).unwrap();
        let (a, b) = query_pairs(&w.obstacles, 1, false, 3)[0];
        let pairs = vec![(a, b), (a, b), (b, a), (a, b)];
        let batch = router.distances(&pairs).unwrap();
        let d = router.distance(a, b).unwrap();
        assert_eq!(batch, vec![d, d, d, d], "duplicates and the flip agree with per-call");
        // Path batches also collapse duplicates (and still certify).
        let verts = w.obstacles.vertices();
        let vpairs = vec![(verts[0], verts[7]); 3];
        let paths = router.paths(&vpairs).unwrap();
        let len = router.vertex_distance(verts[0], verts[7]).unwrap();
        for p in &paths {
            assert!(p.certifies(&w.obstacles, verts[0], verts[7], len));
        }
        assert_eq!(router.build_counts().tree_builds, 1);
    }

    #[test]
    fn memory_stats_track_store_residency() {
        let w = uniform_disjoint(8, 31);
        let budget = 3 * 4 * w.n() * std::mem::size_of::<Dist>();
        let router =
            Router::builder(w.obstacles.clone()).store(StoreKind::Implicit { budget_bytes: budget }).build().unwrap();
        // Before the oracle exists: nothing resident, dense baseline known.
        let before = router.memory_stats();
        assert_eq!(before.resident_bytes, 0);
        assert_eq!(before.dense_bytes, dense_bytes_for(w.n()));
        assert_eq!(router.build_counts().store_resident_bytes, 0);
        let verts = w.obstacles.vertices();
        for &v in verts.iter().step_by(3) {
            let _ = router.vertex_distance(verts[0], v).unwrap();
        }
        let after = router.memory_stats();
        assert!(after.resident_bytes > 0);
        assert!(after.resident_bytes <= budget);
        assert!(after.row_misses >= 1);
        assert_eq!(router.build_counts().store_resident_bytes, after.resident_bytes);
        // The dense router reports the full matrix resident.
        let dense = Router::builder(w.obstacles.clone()).store(StoreKind::Dense).build().unwrap();
        let _ = dense.vertex_distance(verts[0], verts[4]).unwrap();
        let stats = dense.memory_stats();
        assert_eq!(stats.resident_bytes, stats.dense_bytes);
    }

    #[test]
    fn escape_and_inspection_helpers() {
        let router = Router::builder(sample()).margin(4).build().unwrap();
        let chain = router.escape(Point::new(0, 0), EscapeKind::NE).unwrap();
        assert!(!chain.points().is_empty());
        // Escape-path inspection must not force the O(n^2) oracle build.
        assert_eq!(router.build_counts().oracle_builds, 0);
        assert!(router.separator().is_some());
        assert!(!router.recursion_tree().is_empty());
        let far = Point::new(10_000, 10_000);
        assert_eq!(router.escape(far, EscapeKind::NE), Err(RspError::PointOutsideContainer(far)));
    }

    /// Assert that `edited` (built via [`Router::apply_delta`]) answers every
    /// vertex-vertex distance and path bitwise-identically to `fresh` (built
    /// from scratch on the same obstacle set).
    fn assert_session_equivalent(edited: &Router, fresh: &Router) {
        let verts = fresh.instance().obstacles().vertices();
        assert_eq!(edited.instance().obstacles().vertices(), verts);
        for (i, &u) in verts.iter().enumerate() {
            for &v in verts.iter().skip(i) {
                let de = edited.vertex_distance(u, v).unwrap();
                let df = fresh.vertex_distance(u, v).unwrap();
                assert_eq!(de, df, "distance mismatch {u:?} -> {v:?}");
                if de < INF {
                    let pe = edited.path(u, v).unwrap();
                    let pf = fresh.path(u, v).unwrap();
                    assert_eq!(pe.points(), pf.points(), "path mismatch {u:?} -> {v:?}");
                }
            }
        }
    }

    /// An L-shaped scene: obstacle strips along the bottom and left edges of
    /// the bounding box, leaving the upper-right quadrant empty.  An edit
    /// placed there keeps the bbox fixed (chains can carry) while staying
    /// outside the spanning rectangle of many vertex pairs (rows can carry).
    fn l_shaped_scene() -> ObstacleSet {
        let mut rects: Vec<Rect> = (0..10).map(|i| Rect::new(10 * i, 0, 10 * i + 4, 4)).collect();
        rects.extend((1..10).map(|j| Rect::new(0, 10 * j, 4, 10 * j + 4)));
        ObstacleSet::new(rects)
    }

    #[test]
    fn apply_delta_matches_a_fresh_build_bitwise() {
        let base = l_shaped_scene();
        let delta = SceneDelta { insert: vec![Rect::new(70, 70, 74, 74)], remove: vec![] };
        let edited_set = base.apply_delta(&delta).unwrap().obstacles;
        for store in [StoreKind::Dense, StoreKind::Implicit { budget_bytes: 1 << 20 }] {
            let parent = Router::builder(base.clone()).store(store).build().unwrap();
            // Warm the parent so there is an oracle to carry from.
            let verts = base.vertices();
            let _ = parent.vertex_distance(verts[0], verts[5]).unwrap();
            let child = parent.apply_delta(&delta).unwrap();
            assert_eq!(child.epoch(), 1);
            assert_eq!(parent.epoch(), 0);
            // The parent session stays fully usable after the edit.
            let _ = parent.vertex_distance(verts[0], verts[9]).unwrap();
            let fresh = Router::builder(edited_set.clone()).store(store).build().unwrap();
            assert_session_equivalent(&child, &fresh);
            let counts = child.build_counts();
            assert!(counts.rows_reused > 0, "delta build carried no rows: {counts:?}");
            assert!(counts.chains_reused > 0, "delta build carried no chains: {counts:?}");
            // A grandchild edit reuses from the child in turn.
            let back = SceneDelta { insert: vec![], remove: vec![edited_set.len() - 1] };
            let grandchild = child.apply_delta(&back).unwrap();
            assert_eq!(grandchild.epoch(), 2);
            let gc_set = edited_set.apply_delta(&back).unwrap().obstacles;
            let gc_fresh = Router::builder(gc_set).store(store).build().unwrap();
            assert_session_equivalent(&grandchild, &gc_fresh);
        }
    }

    #[test]
    fn apply_delta_on_a_cold_router_builds_fresh() {
        let base = sample();
        let parent = Router::new(base.clone()).unwrap();
        // No query ran: nothing to carry, the child builds from scratch.
        let delta = SceneDelta { insert: vec![Rect::new(20, 20, 24, 24)], remove: vec![1] };
        let child = parent.apply_delta(&delta).unwrap();
        let fresh = Router::new(base.apply_delta(&delta).unwrap().obstacles).unwrap();
        assert_session_equivalent(&child, &fresh);
        let counts = child.build_counts();
        assert_eq!((counts.rows_reused, counts.chains_reused), (0, 0));
    }

    #[test]
    fn apply_delta_rejects_bad_input() {
        let parent = Router::new(sample()).unwrap();
        // Out-of-range removal.
        let bad = SceneDelta { insert: vec![], remove: vec![99] };
        assert!(matches!(parent.apply_delta(&bad), Err(RspError::InvalidDelta(_))));
        // A zero-width insert, as serde would deliver it, is named by its
        // new id.
        let flat = SceneDelta {
            insert: vec![Rect::new(30, 30, 34, 34), Rect { xmin: 40, ymin: 0, xmax: 40, ymax: 4 }],
            remove: vec![],
        };
        assert_eq!(parent.apply_delta(&flat).err(), Some(RspError::DegenerateObstacle(4)));
        // An insert outside the coordinate domain is named by its corner.
        let far = Rect::new(COORD_LIMIT, 0, COORD_LIMIT + 4, 4);
        assert_eq!(
            parent.apply_delta(&SceneDelta::inserting(vec![far])).err(),
            Some(RspError::CoordinateOutOfRange(Point::new(COORD_LIMIT + 4, 4)))
        );
        // Inserted rectangle overlapping a survivor.
        let overlap = SceneDelta { insert: vec![Rect::new(3, 3, 5, 5)], remove: vec![] };
        assert!(matches!(parent.apply_delta(&overlap), Err(RspError::OverlappingObstacles(_))));
        // Removing the overlapping obstacle makes the same insert legal.
        let fixed = SceneDelta { insert: vec![Rect::new(3, 3, 5, 5)], remove: vec![0] };
        assert!(parent.apply_delta(&fixed).is_ok());
    }

    #[test]
    fn delta_sessions_carry_rows_at_every_thread_count() {
        let base = uniform_disjoint(12, 5).obstacles;
        let delta = SceneDelta { insert: vec![Rect::new(400, 400, 404, 404)], remove: vec![] };
        let edited_set = base.apply_delta(&delta).unwrap().obstacles;
        let verts = edited_set.vertices();
        for threads in [1, 2] {
            let parent = Router::builder(base.clone()).threads(threads).build().unwrap();
            let _ = parent.vertex_distance(verts[0], verts[7]).unwrap();
            let child = parent.apply_delta(&delta).unwrap();
            let fresh = Router::builder(edited_set.clone()).threads(threads).build().unwrap();
            assert_session_equivalent(&child, &fresh);
            assert!(child.build_counts().rows_reused > 0, "{threads} threads: carried no rows");
            for &b in verts.iter().step_by(5) {
                assert_eq!(
                    child.vertex_distance(verts[0], b).unwrap(),
                    ground_truth_distance(&edited_set, verts[0], b)
                );
            }
        }
    }

    #[test]
    fn apply_delta_shares_the_parent_thread_pool() {
        let parent = Router::builder(sample()).threads(2).build().unwrap();
        let child = parent.apply_delta(&SceneDelta::removing(vec![1])).unwrap();
        let grandchild = child.apply_delta(&SceneDelta::inserting(vec![Rect::new(20, 20, 24, 24)])).unwrap();
        let pool = parent.pool.as_ref().expect("threads(2) builds a pool");
        assert!(Arc::ptr_eq(pool, child.pool.as_ref().expect("child inherits the pool")));
        assert!(Arc::ptr_eq(pool, grandchild.pool.as_ref().expect("grandchild inherits the pool")));
        // An unpinned router stays on the global pool across edits.
        let global = Router::new(sample()).unwrap();
        assert!(global.apply_delta(&SceneDelta::removing(vec![0])).unwrap().pool.is_none());
    }
}
