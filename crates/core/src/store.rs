//! The distance storage layer behind [`VertexApsp`](crate::apsp::VertexApsp):
//! a pluggable [`DistanceStore`] with a dense and an implicit backend.
//!
//! The dense backend is the classic trade of the paper — pay `O(n^2)` memory
//! once, answer every vertex-pair query with one array read.  At `n = 2048`
//! obstacles that matrix is `(4n)^2` entries ≈ 512 MiB, which walls off
//! exactly the scenes where the `O(n^2)`-work construction would shine.
//!
//! The implicit backend never materialises the matrix.  It keeps the row
//! *generator* instead — the Section 9 single-source engine — and
//! materialises distance rows on demand into a byte-budgeted LRU
//! [`BlockCache`].  A row is the natural block granularity here: the
//! generator is a whole-source sweep, so a single entry costs exactly as
//! much as its row, and caching the row makes the follow-up queries of a
//! scan free.
//!
//! Both backends come out of one constructor, `DistanceStore::build`,
//! which also carries rows across a scene edit: given a base (the parent
//! epoch's store and the edit) it keeps every row the edit provably cannot
//! change; without one it is the fresh build.
//!
//! **Bitwise equality is by construction**: both backends obtain row `i` by
//! calling the *same* per-source routine on the *same* source vertex, so an
//! implicit store returns bit-for-bit the numbers the dense matrix holds —
//! independent of materialisation order, eviction history or thread count.
//! (The rows are generator output, not Monge products: Lemma 1's Monge
//! guarantee holds for boundary portions of convex clear regions, not for
//! the scattered vertex set `V_R`, so there is no SMAWK shortcut to take.)

use crate::block_cache::BlockCache;
use crate::delta::DeltaBase;
use crate::seq::SingleSourceEngine;
use rsp_geom::{Dist, ObstacleSet};
use rsp_monge::MinPlusMatrix;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

const ENTRY_BYTES: usize = std::mem::size_of::<Dist>();

/// Obstacle count at which [`StoreKind::Auto`] switches from the dense
/// matrix to the implicit store (the dense matrix crosses 32 MiB here).
pub const IMPLICIT_AUTO_THRESHOLD: usize = 512;

/// Bytes the dense `V_R`-to-`V_R` matrix costs for `n` obstacles
/// (`(4n)^2` entries), computed without building anything.
pub fn dense_bytes_for(n_obstacles: usize) -> usize {
    let dim = 4 * n_obstacles;
    dim * dim * ENTRY_BYTES
}

/// The default implicit row budget for `n` obstacles: 1/16 of the dense
/// matrix (room for `dim/16` resident rows), floored at 1 MiB so small
/// scenes never thrash.
pub fn default_budget_bytes(n_obstacles: usize) -> usize {
    (dense_bytes_for(n_obstacles) / 16).max(1 << 20)
}

/// Which distance storage backend a router/oracle uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreKind {
    /// Pick by scene size: [`StoreKind::Dense`] below
    /// [`IMPLICIT_AUTO_THRESHOLD`] obstacles, otherwise
    /// [`StoreKind::Implicit`] with [`default_budget_bytes`].
    #[default]
    Auto,
    /// The full `(4n) x (4n)` matrix: `O(n^2)` bytes, lock-free and
    /// allocation-free `O(1)` reads.
    Dense,
    /// Rows materialised on demand into a byte-budgeted LRU cache:
    /// `O(budget)` bytes, `O(1)` reads for resident rows, one single-source
    /// sweep per miss.
    Implicit {
        /// Bytes the resident rows may occupy (a budget below one row keeps
        /// exactly one row and recomputes on every miss — slow but correct).
        budget_bytes: usize,
    },
}

impl StoreKind {
    /// Resolve [`StoreKind::Auto`] for a scene of `n_obstacles`; the other
    /// variants pass through unchanged.
    pub fn resolve(self, n_obstacles: usize) -> StoreKind {
        match self {
            StoreKind::Auto => {
                if n_obstacles >= IMPLICIT_AUTO_THRESHOLD {
                    StoreKind::Implicit { budget_bytes: default_budget_bytes(n_obstacles) }
                } else {
                    StoreKind::Dense
                }
            }
            other => other,
        }
    }
}

/// Memory accounting snapshot of a [`DistanceStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes the store currently holds resident (the whole matrix for the
    /// dense backend, the cached rows for the implicit one).
    pub resident_bytes: usize,
    /// Bytes a dense matrix of the same dimensions costs (the baseline the
    /// implicit backend is saving against).
    pub dense_bytes: usize,
    /// The configured byte budget (equals `dense_bytes` for the dense
    /// backend, which has no eviction).
    pub budget_bytes: usize,
    /// Row requests served from a resident row (implicit backend only).
    pub row_hits: u64,
    /// Row requests that ran a single-source sweep (implicit backend only).
    pub row_misses: u64,
    /// Rows evicted to respect the budget (implicit backend only).
    pub row_evictions: u64,
    /// Bytes currently pinned against eviction by an in-flight batch plan
    /// (implicit backend only; see [`ImplicitStore::pin_rows`]).
    pub pinned_bytes: usize,
}

/// The Section 9 single-source engine behind an implicit store, built on the
/// first *sweep*, not at store construction.
///
/// The engine's skeleton (the four case-transformed ray-shooting views) only
/// matters on a row miss, and its build is the dominant fixed cost of an
/// implicit store at large `n`.  Deferring it keeps a fresh store's
/// construction O(1), and — the case it exists for — lets a store carried
/// over an edit ([`DistanceStore::build`] with a base) whose first batch is
/// answered entirely from carried rows skip the skeleton build outright,
/// which is what makes edit→first-query genuinely sublinear.  Values are unaffected:
/// whenever a sweep does run, it runs the same routine on the same scene.
struct LazyProvider {
    obstacles: Arc<ObstacleSet>,
    cell: OnceLock<SingleSourceEngine>,
}

impl LazyProvider {
    fn deferred(obstacles: Arc<ObstacleSet>) -> Self {
        LazyProvider { obstacles, cell: OnceLock::new() }
    }

    /// Build the engine now.  Callers that fan sweeps out over rayon force
    /// it *before* going parallel, so the one-time build never runs under a
    /// worker that peers would have to block on.
    fn force(&self) -> &SingleSourceEngine {
        self.cell.get_or_init(|| SingleSourceEngine::new(&self.obstacles))
    }

    /// Distance row of source vertex `i` — the same routine the dense
    /// builders fan out over, so rows are bitwise-identical to theirs.
    fn row(&self, i: usize) -> Vec<Dist> {
        let engine = self.force();
        engine.distances_from(engine.vertices()[i])
    }
}

/// A row whose sweep is running outside the cache lock.  Every caller that
/// misses the row while it is in flight waits on the same cell, so
/// concurrent missers of one row share one sweep.
type RowCell = Arc<OnceLock<Arc<[Dist]>>>;

/// What the implicit store's lock guards: the resident rows and the rows
/// being swept right now.
struct RowCache {
    rows: BlockCache,
    in_flight: HashMap<usize, RowCell>,
}

impl RowCache {
    /// Resident row `i` (counting a hit), or the cell its sweep fills: the
    /// in-flight one, or a fresh one registered now.
    fn probe(&mut self, i: usize) -> Result<Arc<[Dist]>, RowCell> {
        match self.rows.peek(i as u64) {
            Some(row) => Ok(row),
            None => Err(Arc::clone(self.in_flight.entry(i).or_default())),
        }
    }

    /// Pin resident row `i` if the pinned total stays within the budget.
    fn try_pin(&mut self, i: usize, row_bytes: usize) -> bool {
        self.rows.pinned_bytes() + row_bytes <= self.rows.stats().budget_bytes && self.rows.pin(i as u64)
    }
}

/// The implicit backend: a row generator plus a byte-budgeted LRU of
/// materialised rows.
pub struct ImplicitStore {
    provider: LazyProvider,
    dim: usize,
    cache: Mutex<RowCache>,
}

impl ImplicitStore {
    fn new(provider: LazyProvider, dim: usize, budget_bytes: usize) -> Self {
        let cache = RowCache { rows: BlockCache::new(budget_bytes), in_flight: HashMap::new() };
        ImplicitStore { provider, dim, cache: Mutex::new(cache) }
    }

    /// The row cache.  A poisoned lock is recovered: no sweep runs under the
    /// guard, a row is inserted only after its sweep has returned, and each
    /// update leaves the cache consistent, so a panic under the guard cannot
    /// leave a partial row resident.
    fn lock_cache(&self) -> MutexGuard<'_, RowCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fill `cell` with row `i` outside the lock and account for the call.
    /// The caller whose closure ran the sweep inserts the row, retires the
    /// in-flight cell and counts the miss; every caller that found the cell
    /// already filled, or waited for it, counts a hit.  (If a sweeper
    /// panics, the next caller on the cell sweeps instead.)  The guard is
    /// returned so a caller can pin the row before anything evicts it.
    fn settle(&self, i: usize, cell: &RowCell) -> (Arc<[Dist]>, MutexGuard<'_, RowCache>) {
        let mut swept = false;
        let row = Arc::clone(cell.get_or_init(|| {
            swept = true;
            self.provider.row(i).into()
        }));
        let mut cache = self.lock_cache();
        if swept {
            cache.rows.insert_missed(i as u64, Arc::clone(&row));
            cache.in_flight.remove(&i);
        } else {
            cache.rows.count_hit();
        }
        (row, cache)
    }

    /// Row `i` (all distances from source vertex `i`), materialised on first
    /// use and resident while the byte budget allows.  A missing row is swept
    /// outside the cache lock; concurrent callers missing the same row wait
    /// for that one sweep.
    pub fn row(&self, i: usize) -> Arc<[Dist]> {
        debug_assert!(i < self.dim, "row out of range");
        let probed = self.lock_cache().probe(i);
        probed.unwrap_or_else(|cell| self.settle(i, &cell).0)
    }

    /// Entry `(i, j)`, served from *either* endpoint's row.
    ///
    /// The rectilinear metric is symmetric (`d(i, j) == d(j, i)`, a property
    /// the store test suite pins bitwise), so a resident row `j` answers a
    /// query about row `i` for free, and a row `j` already being swept is
    /// waited for rather than sweeping row `i` too.  Only when neither row is
    /// resident or in flight does a sweep run, outside the cache lock, for
    /// row `min(i, j)`, so `(u, v)` and `(v, u)` materialise the same row.
    /// (Batches do not rely on this rule: their planner pins a row cover
    /// first, see [`crate::plan`].)  Exactly one hit or miss is counted per
    /// call, as for [`ImplicitStore::row`].
    pub fn distance(&self, i: usize, j: usize) -> Dist {
        debug_assert!(i < self.dim && j < self.dim, "index out of range");
        let (sweep, other, cell) = {
            let mut cache = self.lock_cache();
            if let Some(row) = cache.rows.peek(i as u64) {
                return row[j];
            }
            if let Some(row) = cache.rows.peek(j as u64) {
                return row[i];
            }
            let sweep = [i, j].into_iter().find(|k| cache.in_flight.contains_key(k)).unwrap_or(i.min(j));
            let other = if sweep == i { j } else { i };
            (sweep, other, Arc::clone(cache.in_flight.entry(sweep).or_default()))
        };
        self.settle(sweep, &cell).0[other]
    }

    /// Matrix dimension (`4n`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Materialise and pin a working set of rows for a batch's lifetime.
    ///
    /// Resident rows are reused (one hit each); the missing ones are swept
    /// in parallel *outside* the cache lock, then inserted (one miss each),
    /// and a row another caller is already sweeping is waited for (one hit)
    /// instead of swept again — so a batch over `r` distinct rows costs at
    /// most `r` sweeps no matter how many queries it answers.  Rows are
    /// pinned against eviction only while the pinned total stays within the
    /// byte budget; rows past that point are held alive by the guard's own
    /// `Arc` handles instead, which keeps the answers correct (and still
    /// one-sweep) under arbitrarily small budgets at the price of letting the
    /// cache churn them.  Dropping the guard unpins everything and lets
    /// deferred evictions run.
    pub fn pin_rows(&self, rows: &[usize]) -> PinnedRows<'_> {
        use rayon::prelude::*;
        let mut distinct: Vec<usize> = rows.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if let Some(&max) = distinct.last() {
            assert!(max < self.dim, "row out of range");
        }
        let row_bytes = self.dim * ENTRY_BYTES;
        let mut handles: HashMap<usize, Arc<[Dist]>> = HashMap::with_capacity(distinct.len());
        let mut pinned: Vec<usize> = Vec::with_capacity(distinct.len());
        let pending: Vec<(usize, RowCell)> = {
            let mut cache = self.lock_cache();
            distinct
                .into_iter()
                .filter_map(|i| match cache.probe(i) {
                    Ok(row) => {
                        if cache.try_pin(i, row_bytes) {
                            pinned.push(i);
                        }
                        handles.insert(i, row);
                        None
                    }
                    Err(cell) => Some((i, cell)),
                })
                .collect()
        };
        // Sweeps dominate cold-batch cost, so they run in parallel and never
        // under the lock.  The provider is forced up front so the skeleton
        // build happens once, outside the fan-out.
        if !pending.is_empty() {
            self.provider.force();
            let settled: Vec<(usize, Arc<[Dist]>, bool)> = pending
                .par_iter()
                .map(|(i, cell)| {
                    let (row, mut cache) = self.settle(*i, cell);
                    (*i, row, cache.try_pin(*i, row_bytes))
                })
                .collect();
            for (i, row, is_pinned) in settled {
                if is_pinned {
                    pinned.push(i);
                }
                handles.insert(i, row);
            }
        }
        PinnedRows { store: self, pinned, rows: handles }
    }

    /// Memory accounting snapshot.
    pub fn stats(&self) -> StoreStats {
        let cache = self.lock_cache().rows.stats();
        StoreStats {
            resident_bytes: cache.resident_bytes,
            dense_bytes: self.dim * self.dim * ENTRY_BYTES,
            budget_bytes: cache.budget_bytes,
            row_hits: cache.hits,
            row_misses: cache.misses,
            row_evictions: cache.evictions,
            pinned_bytes: cache.pinned_bytes,
        }
    }
}

/// A batch's pinned working set of distance rows (see
/// [`ImplicitStore::pin_rows`]).  Answers row and pair lookups without
/// touching the cache; dropping it releases every pin.
pub struct PinnedRows<'a> {
    store: &'a ImplicitStore,
    pinned: Vec<usize>,
    rows: HashMap<usize, Arc<[Dist]>>,
}

impl PinnedRows<'_> {
    /// The held row `i`, if it was part of the pinned set.
    pub fn row(&self, i: usize) -> Option<&[Dist]> {
        self.rows.get(&i).map(|r| &r[..])
    }

    /// Distance `(i, j)` answered from the held rows via either endpoint
    /// (the metric is symmetric).  Panics if neither row was requested from
    /// [`ImplicitStore::pin_rows`] — the planner guarantees coverage.
    pub fn distance(&self, i: usize, j: usize) -> Dist {
        if let Some(row) = self.rows.get(&i) {
            return row[j];
        }
        self.rows.get(&j).map(|row| row[i]).expect("planned batch covers every queried row")
    }

    /// Number of distinct rows held by this guard.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the guard holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl Drop for PinnedRows<'_> {
    fn drop(&mut self) {
        let mut cache = self.store.lock_cache();
        for &i in &self.pinned {
            cache.rows.unpin(i as u64);
        }
    }
}

/// Row accounting of a [`DistanceStore`] build over a base epoch's store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowCarry {
    /// Base rows carried over (keep-test passed; entries bitwise-identical
    /// to a fresh sweep) and still resident once the build finished.
    pub rows_carried: usize,
    /// Base rows with a surviving source that were not carried: keep-test
    /// failures, plus carried rows a tight implicit budget evicted at once.
    pub rows_dropped: usize,
    /// Fresh sweeps run for inserted-corner sources.
    pub corner_sweeps: usize,
}

/// Pluggable distance storage for the `V_R`-to-`V_R` length structure.
///
/// The dense arm keeps the lock-free, allocation-free `O(1)` read the
/// vertex-pair fast path is benchmarked on (E10); the implicit arm trades
/// a mutex-guarded row cache for an `O(budget)` footprint.  Both arms
/// return bitwise-identical distances (see the module docs).
pub enum DistanceStore {
    /// The full matrix.
    Dense(MinPlusMatrix),
    /// Budgeted on-demand rows (boxed: the provider is large, and keeping
    /// the enum small keeps the dense arm's reads cheap).
    Implicit(Box<ImplicitStore>),
}

impl DistanceStore {
    /// Wrap an already materialised matrix.
    pub fn dense(matrix: MinPlusMatrix) -> Self {
        DistanceStore::Dense(matrix)
    }

    /// Build the store `kind` names for `obstacles` ([`StoreKind::Auto`] is
    /// resolved by scene size here, and only here), carrying from `base`
    /// every row of the base epoch's store the edit provably cannot change.
    /// Without a base this is the fresh build: a dense store sweeps all `4n`
    /// sources, an implicit one sweeps nothing until a row is asked for.
    ///
    /// One body serves both backends, with or without a base:
    ///
    /// 1. **Keep-test**, on the base store's own rows (all of a dense base,
    ///    the resident ones of an implicit base) before anything is copied.
    ///    Engine rows hold *true* shortest-path distances, so for an
    ///    inserted or removed rectangle `R` the distance `d(u, v)` can only
    ///    change if some optimal (or newly optimal) path passes through
    ///    `int(R)` — and any such path is longer than
    ///    `l1(u, R) + l1(v, R)` (the nearest points of a closed rectangle to
    ///    a non-interior point lie on its boundary).  Hence
    ///    `l1(u, R) + l1(v, R) >= d_old(u, v)` certifies `d_new == d_old`;
    ///    the test composes over multi-rectangle edits by induction, and
    ///    `INF` entries conservatively fail it.  A row failing it for any
    ///    surviving column is not carried.
    /// 2. **Sweeps.**  A dense store sweeps every row it does not carry; an
    ///    implicit store sweeps only the inserted corners, and only when a
    ///    carried row needs their columns — everything else it sweeps lazily
    ///    on demand.
    /// 3. **Column fill.**  A carried row is remapped across the id
    ///    compaction, and its inserted columns are filled exactly from the
    ///    inserted corners' fresh rows by metric symmetry
    ///    (`row_u[j_new] = row_{j_new}[u]`).
    ///
    /// The dense matrix takes the swept rows by move; the implicit cache is
    /// seeded with the carried and corner rows.
    pub(crate) fn build(obstacles: Arc<ObstacleSet>, kind: StoreKind, base: Option<&DeltaBase>) -> (Self, RowCarry) {
        use rayon::prelude::*;
        let kind = kind.resolve(obstacles.len());
        let vertices = obstacles.vertices();
        let dim = vertices.len();
        // Vertex maps across the edit; without a base every vertex is new.
        let new_to_old: &[Option<usize>] = base.map_or(&[], |b| &b.new_to_old_vertex);
        let is_new = |j: usize| new_to_old.get(j).copied().flatten().is_none();
        // Deferred: a store whose needed rows all carry over never builds the
        // skeleton at all.
        let provider = LazyProvider::deferred(obstacles);
        let resident;
        let mut candidates = 0;
        let kept: Vec<(usize, &[Dist])> = match base {
            None => Vec::new(),
            Some(base) => {
                let old_rows: Vec<(usize, &[Dist])> = match base.oracle.apsp().store() {
                    DistanceStore::Dense(m) => (0..m.rows()).map(|i| (i, m.row(i))).collect(),
                    DistanceStore::Implicit(s) => {
                        resident = s.lock_cache().rows.snapshot();
                        resident.iter().map(|(k, row)| (*k as usize, &row[..])).collect()
                    }
                };
                let mut survivors: Vec<(usize, &[Dist])> =
                    old_rows.into_iter().filter_map(|(k, row)| Some((base.old_to_new_vertex[k]?, row))).collect();
                survivors.sort_unstable_by_key(|&(i, _)| i);
                candidates = survivors.len();
                // Per-edited-rect vertex gaps, shared by every row's keep-test.
                let gaps: Vec<Vec<Dist>> =
                    base.edited.iter().map(|r| vertices.iter().map(|&v| r.l1_distance_to(v)).collect()).collect();
                let keep: Vec<bool> = survivors
                    .par_iter()
                    .map(|&(i, old_row)| {
                        gaps.iter().all(|gap| {
                            (0..dim)
                                .all(|j| new_to_old[j].is_none_or(|oj| gap[i].saturating_add(gap[j]) >= old_row[oj]))
                        })
                    })
                    .collect();
                survivors.into_iter().zip(keep).filter_map(|(row, keep)| keep.then_some(row)).collect()
            }
        };
        let mut carried = vec![false; dim];
        for &(i, _) in &kept {
            carried[i] = true;
        }
        let sweep: Vec<usize> = match kind {
            StoreKind::Implicit { .. } if kept.is_empty() => Vec::new(),
            StoreKind::Implicit { .. } => (0..dim).filter(|&j| is_new(j)).collect(),
            _ => (0..dim).filter(|&i| !carried[i]).collect(),
        };
        let mut rows: Vec<Vec<Dist>> = vec![Vec::new(); dim];
        if !sweep.is_empty() {
            provider.force();
            let swept: Vec<Vec<Dist>> = sweep.par_iter().map(|&i| provider.row(i)).collect();
            for (&i, row) in sweep.iter().zip(swept) {
                rows[i] = row;
            }
        }
        let remapped: Vec<(usize, Vec<Dist>)> = kept
            .par_iter()
            .map(|&(i, old_row)| {
                let row = (0..dim)
                    .map(|j| match new_to_old[j] {
                        Some(oj) => old_row[oj],
                        None => rows[j][i],
                    })
                    .collect();
                (i, row)
            })
            .collect();
        let corner_sweeps = sweep.iter().filter(|&&j| is_new(j)).count();
        let (store, rows_carried) = match kind {
            StoreKind::Implicit { budget_bytes } => {
                let store = ImplicitStore::new(provider, dim, budget_bytes);
                let mut guard = store.lock_cache();
                let cache = &mut guard.rows;
                for (i, row) in remapped {
                    cache.seed(i as u64, row.into());
                }
                for (j, row) in rows.into_iter().enumerate().filter(|(_, row)| !row.is_empty()) {
                    cache.seed(j as u64, row.into());
                }
                // Count what actually stayed resident, so budget evictions
                // during seeding are charged as drops, not claimed as reuse.
                let rows_carried = cache.snapshot().iter().filter(|&&(k, _)| carried[k as usize]).count();
                drop(guard);
                (DistanceStore::Implicit(Box::new(store)), rows_carried)
            }
            _ => {
                for (i, row) in remapped {
                    rows[i] = row;
                }
                (DistanceStore::Dense(MinPlusMatrix::from_rows(rows)), kept.len())
            }
        };
        (store, RowCarry { rows_carried, rows_dropped: candidates - rows_carried, corner_sweeps })
    }

    /// Entry `(i, j)`: one array read for the dense arm, a cache probe (and
    /// possibly a single-source sweep) for the implicit arm.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> Dist {
        match self {
            DistanceStore::Dense(m) => m.get(i, j),
            DistanceStore::Implicit(s) => s.distance(i, j),
        }
    }

    /// Matrix dimension (`4n`).
    pub fn dim(&self) -> usize {
        match self {
            DistanceStore::Dense(m) => m.rows(),
            DistanceStore::Implicit(s) => s.dim(),
        }
    }

    /// The dense matrix, when this store has one (expert consumers — E8's
    /// matrix comparison, the recursion inspector — need the raw matrix and
    /// accept that an implicit store cannot provide it).
    pub fn as_dense(&self) -> Option<&MinPlusMatrix> {
        match self {
            DistanceStore::Dense(m) => Some(m),
            DistanceStore::Implicit(_) => None,
        }
    }

    /// The implicit backend, when this store has one (the batch planner
    /// pins rows on it; the dense arm needs no planning).
    pub fn as_implicit(&self) -> Option<&ImplicitStore> {
        match self {
            DistanceStore::Dense(_) => None,
            DistanceStore::Implicit(s) => Some(s),
        }
    }

    /// Which backend this is, with the implicit arm's configured budget.
    pub fn kind(&self) -> StoreKind {
        match self {
            DistanceStore::Dense(_) => StoreKind::Dense,
            DistanceStore::Implicit(s) => StoreKind::Implicit { budget_bytes: s.stats().budget_bytes },
        }
    }

    /// Memory accounting snapshot.
    pub fn stats(&self) -> StoreStats {
        match self {
            DistanceStore::Dense(m) => {
                let bytes = m.rows() * m.cols() * ENTRY_BYTES;
                StoreStats { resident_bytes: bytes, dense_bytes: bytes, budget_bytes: bytes, ..StoreStats::default() }
            }
            DistanceStore::Implicit(s) => s.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_workload::uniform_disjoint;

    fn implicit(obstacles: &ObstacleSet, budget_bytes: usize) -> DistanceStore {
        DistanceStore::build(Arc::new(obstacles.clone()), StoreKind::Implicit { budget_bytes }, None).0
    }

    #[test]
    fn auto_resolution_picks_by_scene_size() {
        assert_eq!(StoreKind::Auto.resolve(8), StoreKind::Dense);
        assert_eq!(
            StoreKind::Auto.resolve(IMPLICIT_AUTO_THRESHOLD),
            StoreKind::Implicit { budget_bytes: default_budget_bytes(IMPLICIT_AUTO_THRESHOLD) }
        );
        assert_eq!(StoreKind::Dense.resolve(10_000), StoreKind::Dense);
        let pinned = StoreKind::Implicit { budget_bytes: 123 };
        assert_eq!(pinned.resolve(1), pinned);
    }

    #[test]
    fn budget_arithmetic() {
        // n = 2048: dense is (8192)^2 * 8 = 512 MiB; the default budget is
        // 1/16 of that = 32 MiB, comfortably under the 10% acceptance bar.
        assert_eq!(dense_bytes_for(2048), 512 << 20);
        assert_eq!(default_budget_bytes(2048), 32 << 20);
        assert!(default_budget_bytes(2048) * 10 <= dense_bytes_for(2048));
        // tiny scenes get the 1 MiB floor
        assert_eq!(default_budget_bytes(4), 1 << 20);
    }

    #[test]
    fn implicit_store_matches_dense_bitwise() {
        let w = uniform_disjoint(9, 17);
        let engine = SingleSourceEngine::new(&w.obstacles);
        let rows: Vec<Vec<Dist>> = engine.vertices().to_vec().iter().map(|&v| engine.distances_from(v)).collect();
        let dense = DistanceStore::dense(MinPlusMatrix::from_rows(rows));
        // A budget of three rows forces heavy churn; answers must not move.
        let row_bytes = dense.dim() * ENTRY_BYTES;
        let implicit = implicit(&w.obstacles, 3 * row_bytes);
        assert_eq!(implicit.dim(), dense.dim());
        for i in 0..dense.dim() {
            for j in 0..dense.dim() {
                assert_eq!(implicit.at(i, j), dense.at(i, j), "({i},{j})");
            }
        }
        let stats = implicit.stats();
        assert!(stats.resident_bytes <= 3 * row_bytes);
        assert!(stats.row_evictions > 0, "a 3-row budget over {} rows must evict", dense.dim());
        assert_eq!(stats.dense_bytes, dense.stats().dense_bytes);
        // Dense accounting: resident == dense == budget, no cache traffic.
        let d = dense.stats();
        assert_eq!(d.resident_bytes, d.dense_bytes);
        assert_eq!((d.row_hits, d.row_misses, d.row_evictions), (0, 0, 0));
    }

    #[test]
    fn implicit_store_matches_hanan_ground_truth() {
        let w = uniform_disjoint(6, 5);
        let verts = w.obstacles.vertices();
        let truth = rsp_geom::hanan::ground_truth_matrix(&w.obstacles, &verts);
        let implicit = implicit(&w.obstacles, usize::MAX);
        assert_eq!(implicit.kind(), StoreKind::Implicit { budget_bytes: usize::MAX });
        for (i, row) in truth.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(implicit.at(i, j), d, "({i},{j})");
            }
        }
        assert!(implicit.as_dense().is_none());
    }

    #[test]
    fn symmetric_accessor_answers_from_either_resident_row() {
        let w = uniform_disjoint(5, 3);
        let store = implicit(&w.obstacles, usize::MAX);
        let dim = store.dim();
        // Materialise row 2, then ask (7, 2): the resident row must answer
        // (one hit), with no second sweep for row 7.
        let d_direct = store.at(2, 7);
        let before = store.stats();
        let d_sym = store.at(7, 2);
        let after = store.stats();
        assert_eq!(d_sym, d_direct, "metric symmetry");
        assert_eq!(after.row_misses, before.row_misses, "no extra sweep");
        assert_eq!(after.row_hits, before.row_hits + 1);
        // A fresh unordered pair materialises its canonical (min) row only.
        let _ = store.at(9, 4);
        let implicit = store.as_implicit().expect("implicit store");
        assert!(implicit.row(4).len() == dim, "canonical row 4 is resident");
        assert_eq!(store.stats().row_misses, after.row_misses + 1);
    }

    #[test]
    fn pinned_rows_answer_batches_with_one_sweep_per_row() {
        let w = uniform_disjoint(6, 11);
        let engine = SingleSourceEngine::new(&w.obstacles);
        let rows: Vec<Vec<Dist>> = engine.vertices().to_vec().iter().map(|&v| engine.distances_from(v)).collect();
        let dense = DistanceStore::dense(MinPlusMatrix::from_rows(rows));
        let dim = dense.dim();
        let row_bytes = dim * ENTRY_BYTES;
        let store = implicit(&w.obstacles, 2 * row_bytes);
        let implicit = store.as_implicit().expect("implicit store");
        {
            let pins = implicit.pin_rows(&[3, 0, 7, 3, 0]);
            assert_eq!(pins.len(), 3);
            assert!(!pins.is_empty());
            // Only two rows fit the pin budget; the third is held by handle.
            let stats = store.stats();
            assert_eq!(stats.pinned_bytes, 2 * row_bytes);
            assert_eq!(stats.row_misses, 3, "one sweep per distinct row");
            for j in 0..dim {
                assert_eq!(pins.distance(0, j), dense.at(0, j), "(0,{j})");
                assert_eq!(pins.distance(j, 7), dense.at(j, 7), "({j},7) via symmetry");
            }
            assert_eq!(pins.row(3).expect("requested row")[5], dense.at(3, 5));
            assert!(pins.row(9).is_none());
            // Answering from pins generated no further cache traffic.
            assert_eq!(store.stats().row_misses, 3);
            assert_eq!(store.stats().row_hits, 0);
        }
        // The guard dropped: pins released, budget enforcement resumes.
        let stats = store.stats();
        assert_eq!(stats.pinned_bytes, 0);
        assert!(stats.resident_bytes <= 2 * row_bytes);
        // Pinning a still-resident row costs a hit, not a sweep.
        let pins = implicit.pin_rows(&[0]);
        assert!(pins.row(0).is_some());
        assert_eq!(store.stats().row_misses, 3);
        assert_eq!(store.stats().row_hits, 1);
    }

    #[test]
    fn a_poisoned_row_cache_is_recovered() {
        use crate::router::Router;
        use rsp_geom::Point;
        let w = uniform_disjoint(7, 19);
        let row_bytes = 4 * w.n() * ENTRY_BYTES;
        let kind = StoreKind::Implicit { budget_bytes: 3 * row_bytes };
        let router = Router::builder(w.obstacles.clone()).store(kind).build().unwrap();
        let verts = w.obstacles.vertices();
        let mut pairs: Vec<(Point, Point)> =
            (0..12).map(|i| (verts[i % 5], verts[(7 * i + 3) % verts.len()])).collect();
        pairs.extend(rsp_workload::query_pairs(&w.obstacles, 8, false, 2));
        let _ = router.distances(&pairs[..4]).unwrap();
        let oracle = router.oracle();
        let store = oracle.apsp().store().as_implicit().expect("implicit store");
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = store.cache.lock().unwrap();
                panic!("poison the row cache");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(store.cache.is_poisoned());
        // Every entry point still answers exactly as a fresh session does.
        let fresh = Router::builder(w.obstacles.clone()).store(kind).build().unwrap();
        assert_eq!(router.distances(&pairs).unwrap(), fresh.distances(&pairs).unwrap());
        for &(a, b) in &pairs {
            assert_eq!(router.distance(a, b).unwrap(), fresh.distance(a, b).unwrap(), "{a:?} -> {b:?}");
        }
        assert!(store.stats().resident_bytes <= 3 * row_bytes);
    }

    #[test]
    fn concurrent_missers_of_one_row_share_one_sweep() {
        let w = uniform_disjoint(24, 5);
        let store = implicit(&w.obstacles, usize::MAX);
        let implicit = store.as_implicit().expect("implicit store");
        let engine = SingleSourceEngine::new(&w.obstacles);
        let expect = engine.distances_from(engine.vertices()[3]);
        // Row 3 is cold.  Every caller asks for it directly or for a pair
        // whose smaller endpoint is 3, so each one finds it resident, joins
        // its in-flight sweep, or starts that one sweep.
        let threads = 6;
        let barrier = std::sync::Barrier::new(threads);
        let rows: Vec<Vec<Dist>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        match t % 3 {
                            0 => implicit.row(3).to_vec(),
                            1 => (0..implicit.dim()).map(|j| implicit.distance(3, j.max(3))).collect(),
                            _ => vec![implicit.distance(4 + t, 3)],
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, row) in rows.iter().enumerate() {
            match t % 3 {
                0 => assert_eq!(row, &expect, "thread {t}"),
                1 => assert!(row.iter().enumerate().all(|(j, &d)| d == expect[j.max(3)]), "thread {t}"),
                _ => assert_eq!(row[0], expect[4 + t], "thread {t}"),
            }
        }
        let stats = store.stats();
        assert_eq!(stats.row_misses, 1, "one sweep for every concurrent caller");
        let calls = 2 + 2 * implicit.dim() as u64 + 2;
        assert_eq!(stats.row_hits + stats.row_misses, calls, "one hit or miss per call");
        assert!(implicit.lock_cache().in_flight.is_empty(), "the in-flight cell was retired");
    }

    #[test]
    fn callers_of_an_in_flight_row_wait_for_it_instead_of_sweeping() {
        let w = uniform_disjoint(8, 13);
        let store = implicit(&w.obstacles, usize::MAX);
        let implicit = store.as_implicit().expect("implicit store");
        // Register row 9 as in flight, as a sweeper does before it unlocks.
        let cell = implicit.lock_cache().probe(9).expect_err("row 9 is cold");
        // (2, 9) would sweep row min(2, 9) = 2, but row 9 is already on its
        // way: the call fills that cell instead (its sweeper has not
        // started), inserts row 9 and counts the one miss.
        let d = implicit.distance(2, 9);
        assert_eq!((store.stats().row_misses, store.stats().row_hits), (1, 0));
        assert_eq!(store.stats().resident_bytes, implicit.dim() * ENTRY_BYTES, "only row 9 is resident");
        // The registrant finds its cell filled: a hit, no second sweep.
        let (row, guard) = implicit.settle(9, &cell);
        drop(guard);
        assert_eq!(row[2], d);
        assert_eq!((store.stats().row_misses, store.stats().row_hits), (1, 1));
        assert!(Arc::ptr_eq(&row, &implicit.row(9)), "the resident row is the swept one");
        assert!(implicit.lock_cache().in_flight.is_empty());
    }

    #[test]
    fn a_panicking_sweeper_leaves_the_row_to_the_next_caller() {
        let w = uniform_disjoint(6, 4);
        let store = implicit(&w.obstacles, usize::MAX);
        let implicit = store.as_implicit().expect("implicit store");
        let cell = implicit.lock_cache().probe(5).expect_err("row 5 is cold");
        let panicked = std::panic::catch_unwind(|| cell.get_or_init(|| panic!("sweep failed")).len());
        assert!(panicked.is_err());
        assert!(!implicit.cache.is_poisoned(), "no sweep runs under the lock");
        // The abandoned cell is still registered; the next caller sweeps it.
        let engine = SingleSourceEngine::new(&w.obstacles);
        assert_eq!(&implicit.row(5)[..], &engine.distances_from(engine.vertices()[5])[..]);
        assert_eq!((store.stats().row_misses, store.stats().row_hits), (1, 0));
        assert!(implicit.lock_cache().in_flight.is_empty());
    }

    #[test]
    fn row_cache_counts_hits_after_first_touch() {
        let w = uniform_disjoint(4, 2);
        let store = implicit(&w.obstacles, usize::MAX);
        let dim = store.dim();
        for j in 0..dim {
            let _ = store.at(0, j);
        }
        let stats = store.stats();
        assert_eq!(stats.row_misses, 1, "one sweep serves the whole row scan");
        assert_eq!(stats.row_hits as usize, dim - 1);
        assert_eq!(stats.row_evictions, 0);
        assert_eq!(stats.resident_bytes, dim * ENTRY_BYTES);
    }
}
