//! N-shard scene partitioning: hash scenes across independent workers.
//!
//! Multi-tenant load must not funnel through one lock.  A [`ShardSet`]
//! partitions scenes by their stable hash across `N` [`Shard`]s, each owning
//! its *own* session cache and its *own* admission counters — so tenants on
//! different shards contend on nothing.
//! Scene-to-shard assignment is pure (`scene_hash % N`), which keeps routing
//! stateless: any front end holding the scene id can compute the shard.

use crate::admission::Admission;
use crate::protocol::{SceneId, ShardStats};
use crate::session::SessionCache;
use crate::ServiceConfig;

/// One independent serving partition: a session cache plus point-query
/// admission, owned exclusively (no cross-shard locks).
pub struct Shard {
    /// This shard's session cache.
    pub sessions: SessionCache,
    /// This shard's point-query admission (answers on the caller's thread).
    pub queue: Admission,
}

impl Shard {
    fn new(config: &ServiceConfig) -> Self {
        Shard {
            sessions: SessionCache::with_limits(config.session_capacity, config.session_budget_bytes, config.store),
            queue: Admission::default(),
        }
    }

    /// Counter snapshot of both components, plus the per-session
    /// distance-store breakdown.
    pub fn stats(&self) -> ShardStats {
        ShardStats { sessions: self.sessions.stats(), queue: self.queue.stats(), stores: self.sessions.store_stats() }
    }
}

/// A fixed set of [`Shard`]s with pure hash routing.
pub struct ShardSet {
    shards: Vec<Shard>,
}

impl ShardSet {
    /// Build `config.shards` (at least 1) shards.
    pub fn new(config: &ServiceConfig) -> Self {
        let count = config.shards.max(1);
        ShardSet { shards: (0..count).map(|_| Shard::new(config)).collect() }
    }

    /// The shard owning `scene`.
    pub fn shard_for(&self, scene: SceneId) -> &Shard {
        &self.shards[self.shard_index(scene)]
    }

    /// Index of the shard owning `scene` (for observability).
    pub fn shard_index(&self, scene: SceneId) -> usize {
        // FNV-1a multiplies by an odd constant, which preserves the low bit:
        // `scene % 2` would be the byte parity of the geometry, not a uniform
        // coin.  Run the id through a splitmix64 finalizer so every bit
        // avalanches before the modulo.
        let mut h = scene;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h % self.shards.len() as u64) as usize
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_geom::{ObstacleSet, Rect};

    fn scene(offset: i64) -> ObstacleSet {
        ObstacleSet::new(vec![Rect::new(offset, 0, offset + 2, 2)])
    }

    #[test]
    fn routing_is_pure_and_in_range() {
        let config = ServiceConfig { shards: 4, ..ServiceConfig::default() };
        let set = ShardSet::new(&config);
        assert_eq!(set.shards().len(), 4);
        for offset in 0..32 {
            let id = scene(offset).scene_hash();
            let idx = set.shard_index(id);
            assert!(idx < 4);
            assert_eq!(idx, set.shard_index(id), "routing is deterministic");
            assert!(std::ptr::eq(set.shard_for(id), &set.shards()[idx]));
        }
    }

    #[test]
    fn shards_isolate_their_caches() {
        let config = ServiceConfig { shards: 2, ..ServiceConfig::default() };
        let set = ShardSet::new(&config);
        // Find two scenes landing on different shards.
        let mut by_shard: [Option<ObstacleSet>; 2] = [None, None];
        for offset in 0..64 {
            let s = scene(offset);
            let idx = set.shard_index(s.scene_hash());
            if by_shard[idx].is_none() {
                by_shard[idx] = Some(s);
            }
        }
        let [a, b] = by_shard.map(|s| s.expect("64 scenes cover both shards"));
        let (id_a, r) = set.shard_for(a.scene_hash()).sessions.load(&a);
        r.unwrap();
        let (id_b, r) = set.shard_for(b.scene_hash()).sessions.load(&b);
        r.unwrap();
        // Each shard is resident only for its own scene.
        assert!(set.shard_for(id_a).sessions.lookup(id_a).is_ok());
        assert!(set.shard_for(id_b).sessions.lookup(id_b).is_ok());
        assert_ne!(set.shard_index(id_a), set.shard_index(id_b));
        assert_eq!(set.shard_for(id_a).stats().sessions.resident, 1);
        assert_eq!(set.shard_for(id_b).stats().sessions.resident, 1);
    }
}
