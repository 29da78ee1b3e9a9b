//! The session cache: `Arc<Router>` sessions keyed by scene hash, bounded
//! LRU, build-once under concurrency.
//!
//! A *session* is a fully validated [`Router`] — the expensive part of
//! serving (the `O(n^2)`-work oracle and friends hide behind it, built
//! lazily).  The cache guarantees:
//!
//! * **Build-once:** two clients loading the same scene concurrently get the
//!   same `Arc<Router>`, and the `Router` is constructed exactly once — the
//!   map entry (an `Arc<OnceLock>`) is published under the map mutex, but
//!   the construction itself runs *outside* that mutex inside
//!   [`OnceLock::get_or_init`], so concurrent loads of *different* scenes
//!   never serialise on each other.
//! * **Bounded residency:** the primary bound is a *byte budget* over the
//!   resident sessions' distance stores (the sum of each built router's
//!   [`Router::memory_stats`] residency, re-checked on every resolution
//!   because implicit stores grow as queries materialise rows); the count
//!   cap `capacity` is the secondary bound.  Both are enforced after each
//!   resolution: crossing either evicts cached errors first, then
//!   least-recently-used sessions — never the router just resolved — and
//!   counts them in [`CacheStats::evictions`].
//! * **Error caching:** a scene that fails validation (overlapping
//!   obstacles) caches its typed error while the cache has room.  This is
//!   sound because the cache key is the geometry hash — a *fixed* scene
//!   hashes differently and loads fresh.  A cached error never displaces a
//!   built session: at capacity it is the first victim, itself included.

use crate::protocol::{CacheStats, SceneId, ServerError, SessionStoreStats};
use rsp_core::router::Router;
use rsp_core::store::StoreKind;
use rsp_geom::ObstacleSet;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

type SessionCell = Arc<OnceLock<Result<Arc<Router>, ServerError>>>;

struct Entry {
    cell: SessionCell,
    /// The geometry, kept so *any* resolver (a `load` racing another `load`,
    /// or a `lookup` racing the initial build) can run the same build
    /// closure inside `get_or_init` — whoever wins builds the identical
    /// router, and the losers block until it is ready.  Without this, a
    /// lookup racing the first load would need a fallback closure that could
    /// win the init race and poison the cell with an error.
    obstacles: Arc<ObstacleSet>,
    last_used: u64,
}

struct Inner {
    entries: HashMap<SceneId, Entry>,
    tick: u64,
    stats: CacheStats,
}

/// A bounded, LRU-evicting cache of [`Router`] sessions keyed by
/// [`ObstacleSet::scene_hash`].  One per shard.
pub struct SessionCache {
    inner: Mutex<Inner>,
    capacity: usize,
    budget_bytes: usize,
    store: StoreKind,
}

impl SessionCache {
    /// A cache holding at most `capacity` sessions (at least 1), with no
    /// byte budget ([`usize::MAX`]), building routers over the
    /// [`StoreKind::Auto`] distance store.
    pub fn new(capacity: usize) -> Self {
        Self::with_limits(capacity, usize::MAX, StoreKind::Auto)
    }

    /// A cache bounded by both a session count and a distance-store byte
    /// budget, building routers with the given store kind.  The
    /// byte budget is enforced on every resolution (loads *and* lookups):
    /// implicit stores grow as queries materialise rows, so residency is
    /// re-summed each time rather than only at insertion.
    pub fn with_limits(capacity: usize, budget_bytes: usize, store: StoreKind) -> Self {
        SessionCache {
            inner: Mutex::new(Inner { entries: HashMap::new(), tick: 0, stats: CacheStats::default() }),
            capacity: capacity.max(1),
            budget_bytes,
            store,
        }
    }

    /// The session map.  A poisoned lock is recovered: the router build
    /// runs outside it (inside the entry's `OnceLock`), and every update
    /// under it inserts or removes a whole entry or bumps a counter, so a
    /// panic under the guard leaves a usable map.  The one derived figure,
    /// `stats.resident`, is recomputed from the map on every read.
    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolve (building if necessary) the session for `obstacles`.
    /// Returns the scene id alongside the session so callers can key
    /// follow-up queries.
    pub fn load(&self, obstacles: &ObstacleSet) -> (SceneId, Result<Arc<Router>, ServerError>) {
        let scene = obstacles.scene_hash();
        let result = self.resolve_entry(scene, || Some((Arc::new(OnceLock::new()), Arc::new(obstacles.clone()))));
        (scene, result.expect("a missing scene is inserted"))
    }

    /// Resolve an already-loaded scene.  [`ServerError::UnknownScene`] when
    /// the scene was never loaded or has been evicted.
    pub fn lookup(&self, scene: SceneId) -> Result<Arc<Router>, ServerError> {
        self.resolve_entry(scene, || None).unwrap_or(Err(ServerError::UnknownScene { scene }))
    }

    /// Touch `scene` under the map lock — LRU tick plus a hit — or, when it
    /// is not resident, insert the `(cell, geometry)` that `insert` supplies
    /// (a miss); `None` from `insert` leaves the map alone and returns
    /// `None`.  The session itself is then resolved outside the lock, and
    /// only then are the count cap and byte budget enforced, so a scene that
    /// fails validation cannot evict a built one.
    fn resolve_entry(
        &self,
        scene: SceneId,
        insert: impl FnOnce() -> Option<(SessionCell, Arc<ObstacleSet>)>,
    ) -> Option<Result<Arc<Router>, ServerError>> {
        let (cell, stored) = {
            let mut inner = self.lock_inner();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(&scene) {
                entry.last_used = tick;
                let hit = (Arc::clone(&entry.cell), Arc::clone(&entry.obstacles));
                inner.stats.hits += 1;
                hit
            } else {
                let (cell, obstacles) = insert()?;
                inner.stats.misses += 1;
                let entry = Entry { cell: Arc::clone(&cell), obstacles: Arc::clone(&obstacles), last_used: tick };
                inner.entries.insert(scene, entry);
                inner.stats.resident = inner.entries.len() as u64;
                (cell, obstacles)
            }
        };
        let result = self.resolve(&cell, &stored);
        self.enforce_limits(scene, result.is_ok());
        Some(result)
    }

    /// Build (or wait for the concurrent builder of) a session, outside the
    /// map lock.  Every resolver passes the same build closure, so whichever
    /// thread wins `get_or_init` constructs the identical router exactly
    /// once per residency; the losers block until it is ready.
    fn resolve(&self, cell: &SessionCell, obstacles: &Arc<ObstacleSet>) -> Result<Arc<Router>, ServerError> {
        cell.get_or_init(|| {
            Router::builder((**obstacles).clone()).store(self.store).build().map(Arc::new).map_err(ServerError::from)
        })
        .clone()
    }

    /// Distance-store bytes a resident entry holds: only sessions that
    /// finished building a router occupy anything (cells mid-build or
    /// holding a cached error cost 0).
    fn session_bytes(entry: &Entry) -> usize {
        match entry.cell.get() {
            Some(Ok(router)) => router.memory_stats().resident_bytes,
            _ => 0,
        }
    }

    /// Evict until at most `capacity` entries remain and their summed
    /// distance-store residency fits the byte budget.  Cached errors go
    /// first, then least-recently-used sessions.  `resolved` is spared when
    /// its build succeeded: evicting it would free nothing for the caller,
    /// who still holds its `Arc`.
    fn enforce_limits(&self, resolved: SceneId, built: bool) {
        let mut inner = self.lock_inner();
        loop {
            let over_budget = self.budget_bytes != usize::MAX
                && inner.entries.len() > 1
                && inner.entries.values().map(Self::session_bytes).sum::<usize>() > self.budget_bytes;
            if inner.entries.len() <= self.capacity && !over_budget {
                break;
            }
            let victim = inner
                .entries
                .iter()
                .filter(|&(&k, _)| !(built && k == resolved))
                .min_by_key(|(_, e)| (!matches!(e.cell.get(), Some(Err(_))), e.last_used))
                .map(|(&k, _)| k);
            let Some(victim) = victim else { break };
            inner.entries.remove(&victim);
            inner.stats.evictions += 1;
        }
        inner.stats.resident = inner.entries.len() as u64;
    }

    /// Insert an *already-built* session under `scene` — the delta-rebuild
    /// path of `UpdateScene`, where the router came out of
    /// [`Router::apply_delta`] on a base session (possibly resident on a
    /// different shard) rather than out of this cache's own build closure.
    /// Counts as a miss (a session construction).  If the scene is already
    /// resident, the existing session wins and is returned instead — edits
    /// are content-addressed, so two routes to the same geometry must keep
    /// resolving to one session.
    pub fn adopt(
        &self,
        scene: SceneId,
        obstacles: Arc<ObstacleSet>,
        router: Arc<Router>,
    ) -> Result<Arc<Router>, ServerError> {
        // An existing entry may still be mid-build; it resolves like any
        // other resolution, so we return whatever session the scene settles on.
        let result = self.resolve_entry(scene, || {
            let cell: SessionCell = Arc::new(OnceLock::new());
            let _ = cell.set(Ok(router));
            Some((cell, obstacles))
        });
        result.expect("a missing scene is inserted")
    }

    /// Drop a scene's session.  Returns whether it was resident.  In-flight
    /// queries holding the `Arc<Router>` keep it alive until they finish.
    pub fn evict(&self, scene: SceneId) -> bool {
        let mut inner = self.lock_inner();
        let existed = inner.entries.remove(&scene).is_some();
        inner.stats.resident = inner.entries.len() as u64;
        existed
    }

    /// Counter snapshot, including the summed distance-store residency of
    /// the built sessions.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock_inner();
        let mut stats = inner.stats;
        stats.resident = inner.entries.len() as u64;
        stats.resident_bytes = inner.entries.values().map(Self::session_bytes).sum::<usize>() as u64;
        stats
    }

    /// Per-session distance-store breakdown of every resident session whose
    /// router finished building, ordered by scene id so the wire form is
    /// stable.  Sessions mid-build or holding a cached error are omitted —
    /// they have no store to report.
    pub fn store_stats(&self) -> Vec<SessionStoreStats> {
        let inner = self.lock_inner();
        let mut out: Vec<SessionStoreStats> = inner
            .entries
            .iter()
            .filter_map(|(&scene, entry)| match entry.cell.get() {
                Some(Ok(router)) => {
                    let s = router.memory_stats();
                    let counts = router.build_counts();
                    Some(SessionStoreStats {
                        scene,
                        resident_bytes: s.resident_bytes as u64,
                        pinned_bytes: s.pinned_bytes as u64,
                        budget_bytes: s.budget_bytes as u64,
                        dense_bytes: s.dense_bytes as u64,
                        row_hits: s.row_hits,
                        row_misses: s.row_misses,
                        row_evictions: s.row_evictions,
                        epoch: router.epoch(),
                        rows_reused: counts.rows_reused as u64,
                        rows_rebuilt: counts.rows_rebuilt as u64,
                        chains_reused: counts.chains_reused as u64,
                        chains_rebuilt: counts.chains_rebuilt as u64,
                    })
                }
                _ => None,
            })
            .collect();
        out.sort_unstable_by_key(|s| s.scene);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::Rect;
    use std::thread;

    fn scene(offset: i64) -> ObstacleSet {
        ObstacleSet::new(vec![Rect::new(offset, 0, offset + 2, 4), Rect::new(offset + 4, 1, offset + 7, 5)])
    }

    #[test]
    fn concurrent_loads_share_one_build() {
        let cache = Arc::new(SessionCache::new(4));
        let obstacles = scene(0);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let obstacles = obstacles.clone();
            handles.push(thread::spawn(move || cache.load(&obstacles).1.unwrap()));
        }
        let routers: Vec<Arc<Router>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &routers[1..] {
            assert!(Arc::ptr_eq(&routers[0], r), "all loads share one session");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one build for four concurrent loads");
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.resident, 1);
        // The router itself also certifies build-once.
        let _ = routers[0].distance(rsp_geom::Point::new(-5, -5), rsp_geom::Point::new(20, 20)).unwrap();
        assert_eq!(routers[0].build_counts().oracle_builds, 1);
    }

    #[test]
    fn lru_bound_evicts_oldest() {
        let cache = SessionCache::new(2);
        let (id0, r0) = cache.load(&scene(0));
        assert!(r0.is_ok());
        let (id1, _) = cache.load(&scene(100));
        // Touch scene 0 so scene 100 is the LRU victim.
        assert!(cache.lookup(id0).is_ok());
        let (id2, r2) = cache.load(&scene(200));
        assert!(r2.is_ok());
        let stats = cache.stats();
        assert_eq!(stats.resident, 2, "capacity bound holds");
        assert_eq!(stats.evictions, 1);
        assert!(cache.lookup(id0).is_ok());
        assert!(cache.lookup(id2).is_ok());
        assert_eq!(cache.lookup(id1).err(), Some(ServerError::UnknownScene { scene: id1 }));
        // Re-loading the evicted scene is a fresh build.
        assert!(cache.load(&scene(100)).1.is_ok());
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn byte_budget_evicts_by_resident_store_bytes() {
        // Each dense 2-obstacle session holds an 8x8 matrix = 512 bytes once
        // its oracle is built.  A 1000-byte budget fits one built session
        // but not two.
        let cache = SessionCache::with_limits(16, 1000, StoreKind::Dense);
        let (id0, r0) = cache.load(&scene(0));
        let r0 = r0.unwrap();
        // Force the oracle (and thus the matrix) into residency.
        let _ = r0.distance(rsp_geom::Point::new(-3, -3), rsp_geom::Point::new(12, 9)).unwrap();
        assert_eq!(cache.stats().resident_bytes, 512);
        assert_eq!(cache.stats().evictions, 0);
        let (id1, r1) = cache.load(&scene(100));
        let r1 = r1.unwrap();
        let _ = r1.distance(rsp_geom::Point::new(97, -3), rsp_geom::Point::new(112, 9)).unwrap();
        // Both builds were under budget at resolution time (stores fill at
        // query time); the next resolution observes 1024 > 1000 and evicts
        // the LRU session — not the one just resolved.
        assert!(cache.lookup(id1).is_ok());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident, 1);
        assert!(stats.resident_bytes <= 1000);
        assert_eq!(cache.lookup(id0).err(), Some(ServerError::UnknownScene { scene: id0 }));
        assert!(cache.lookup(id1).is_ok());
    }

    #[test]
    fn budget_never_evicts_the_protected_session() {
        // A budget no single built session fits under: the cache must keep
        // exactly the session just resolved (count 1) and evict the rest,
        // not thrash the protected one.
        let cache = SessionCache::with_limits(8, 100, StoreKind::Dense);
        let (id0, r0) = cache.load(&scene(0));
        let _ = r0.unwrap().distance(rsp_geom::Point::new(-3, -3), rsp_geom::Point::new(12, 9)).unwrap();
        let (id1, _) = cache.load(&scene(100));
        assert!(cache.lookup(id1).is_ok(), "resolved session survives its own budget pass");
        assert_eq!(cache.lookup(id0).err(), Some(ServerError::UnknownScene { scene: id0 }));
        assert_eq!(cache.stats().resident, 1);
    }

    #[test]
    fn implicit_store_sessions_account_row_cache_bytes() {
        let cache = SessionCache::with_limits(4, usize::MAX, StoreKind::Implicit { budget_bytes: 1 << 20 });
        let (_, r) = cache.load(&scene(0));
        let r = r.unwrap();
        assert_eq!(cache.stats().resident_bytes, 0, "nothing resident before the first query");
        let verts = scene(0).vertices();
        let _ = r.vertex_distance(verts[0], verts[5]).unwrap();
        let stats = cache.stats();
        assert!(stats.resident_bytes > 0, "materialised rows are accounted");
        assert_eq!(stats.resident_bytes as usize, r.memory_stats().resident_bytes);
        assert!(stats.resident_bytes < 512, "one row, not the whole 8x8 matrix");
    }

    #[test]
    fn invalid_scenes_cache_their_typed_error() {
        let cache = SessionCache::new(4);
        let bad = ObstacleSet::new(vec![Rect::new(0, 0, 4, 4), Rect::new(2, 2, 6, 6)]);
        let (id, first) = cache.load(&bad);
        let err = first.err().unwrap();
        assert!(matches!(err, ServerError::OverlappingObstacles { violation } if violation.first == 0));
        // The second load hits the cached error without revalidating.
        let (_, second) = cache.load(&bad);
        assert_eq!(second.err(), cache.lookup(id).err());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn invalid_scenes_never_evict_built_sessions() {
        let cache = SessionCache::new(2);
        let (id0, r0) = cache.load(&scene(0));
        let (id1, r1) = cache.load(&scene(100));
        assert!(r0.is_ok() && r1.is_ok());
        for offset in [1000, 2000, 3000] {
            let overlapping =
                ObstacleSet::new(vec![Rect::new(offset, 0, offset + 4, 4), Rect::new(offset + 2, 2, offset + 6, 6)]);
            let (_, bad) = cache.load(&overlapping);
            assert!(matches!(bad.err(), Some(ServerError::OverlappingObstacles { .. })));
        }
        assert!(cache.lookup(id0).is_ok(), "a failed load must not evict a valid tenant");
        assert!(cache.lookup(id1).is_ok(), "a failed load must not evict a valid tenant");
        assert_eq!(cache.stats().resident, 2);
    }

    #[test]
    fn a_poisoned_session_map_is_recovered() {
        let cache = SessionCache::new(2);
        let (id0, r0) = cache.load(&scene(0));
        let (id1, _) = cache.load(&scene(100));
        let poisoner = thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.inner.lock().unwrap();
                panic!("poison the session map");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(cache.inner.is_poisoned());
        // Loads and lookups behave exactly as on a fresh cache given the same
        // sequence: hits return the resident session, capacity still evicts.
        let fresh = SessionCache::new(2);
        let _ = fresh.load(&scene(0));
        let _ = fresh.load(&scene(100));
        assert!(Arc::ptr_eq(&cache.lookup(id0).unwrap(), &r0.unwrap()));
        assert!(fresh.lookup(id0).is_ok());
        let (id2, r2) = cache.load(&scene(200));
        let (fresh_id2, fresh_r2) = fresh.load(&scene(200));
        assert_eq!(id2, fresh_id2);
        let (a, b) = (rsp_geom::Point::new(195, -3), rsp_geom::Point::new(212, 9));
        assert_eq!(r2.unwrap().distance(a, b).unwrap(), fresh_r2.unwrap().distance(a, b).unwrap());
        assert_eq!(cache.lookup(id1).err(), fresh.lookup(id1).err());
        assert_eq!(cache.stats(), fresh.stats());
        assert_eq!(cache.store_stats(), fresh.store_stats());
        assert!(cache.evict(id2) && fresh.evict(fresh_id2));
        assert_eq!(cache.stats(), fresh.stats());
    }

    #[test]
    fn evict_and_unknown_lookup() {
        let cache = SessionCache::new(4);
        let (id, _) = cache.load(&scene(0));
        assert!(cache.evict(id));
        assert!(!cache.evict(id));
        assert_eq!(cache.lookup(id).err(), Some(ServerError::UnknownScene { scene: id }));
        assert_eq!(cache.stats().resident, 0);
    }
}
