//! A byte-budgeted LRU cache of distance rows: the residency policy behind
//! the implicit distance store ([`crate::store::ImplicitStore`]).
//!
//! Blocks are `Arc<[Dist]>` keyed by `u64`, so a row handed to a caller stays
//! valid after the cache evicts it.  Eviction, pinning and byte accounting
//! live here; what a row *means* (and how it is swept) is the store's
//! business.

use rsp_geom::Dist;
use std::collections::HashMap;
use std::sync::Arc;

/// Counter snapshot of a [`BlockCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Block requests served from a resident block.
    pub hits: u64,
    /// Block requests that had to build the block.
    pub misses: u64,
    /// Blocks dropped to respect the byte budget.
    pub evictions: u64,
    /// Bytes currently held by resident blocks.
    pub resident_bytes: usize,
    /// Bytes held by blocks currently pinned against eviction.
    pub pinned_bytes: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
}

struct Block {
    data: Arc<[Dist]>,
    bytes: usize,
    last_used: u64,
    pins: u32,
}

/// A byte-budgeted LRU cache of `Arc<[Dist]>` blocks keyed by `u64`.
///
/// Inserting past the budget evicts least-recently-used blocks until the
/// resident total fits again — except the block just inserted, which always
/// survives its own insertion so a request can never return an evicted
/// block.  A budget smaller than one block therefore degenerates to
/// "recompute every time, keep exactly one block", which is still correct.
///
/// Blocks can additionally be *pinned* ([`BlockCache::pin`]): a pinned block
/// is never chosen as an eviction victim, which lets a batch planner
/// materialise a working set once and answer many queries against it without
/// the queries in between churning it out.  All counters use saturating
/// arithmetic so mismatched pin/unpin sequences can only stall eviction
/// accounting, never underflow it.
pub struct BlockCache {
    budget_bytes: usize,
    blocks: HashMap<u64, Block>,
    tick: u64,
    resident_bytes: usize,
    pinned_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl BlockCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        BlockCache {
            budget_bytes,
            blocks: HashMap::new(),
            tick: 0,
            resident_bytes: 0,
            pinned_bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Resolve the block for `key`, building (and caching) it on a miss.
    pub fn get_or_insert_with(&mut self, key: u64, build: impl FnOnce() -> Vec<Dist>) -> Arc<[Dist]> {
        self.tick += 1;
        if let Some(block) = self.blocks.get_mut(&key) {
            block.last_used = self.tick;
            self.hits = self.hits.saturating_add(1);
            return Arc::clone(&block.data);
        }
        self.misses = self.misses.saturating_add(1);
        let data: Arc<[Dist]> = build().into();
        let bytes = std::mem::size_of_val(&data[..]);
        self.resident_bytes = self.resident_bytes.saturating_add(bytes);
        self.blocks.insert(key, Block { data: Arc::clone(&data), bytes, last_used: self.tick, pins: 0 });
        self.enforce_budget(key);
        data
    }

    /// Return the block for `key` if it is resident, touching its LRU slot
    /// and counting a hit; an absent key counts nothing (a probe is not a
    /// failed request — the caller decides whether to build).
    pub fn peek(&mut self, key: u64) -> Option<Arc<[Dist]>> {
        self.tick += 1;
        let block = self.blocks.get_mut(&key)?;
        block.last_used = self.tick;
        self.hits = self.hits.saturating_add(1);
        Some(Arc::clone(&block.data))
    }

    /// Pin the resident block for `key` against eviction.  Returns whether a
    /// block was pinned (false if the key is not resident).  Pins nest: each
    /// [`BlockCache::pin`] needs a matching [`BlockCache::unpin`].
    pub fn pin(&mut self, key: u64) -> bool {
        let Some(block) = self.blocks.get_mut(&key) else { return false };
        if block.pins == 0 {
            self.pinned_bytes = self.pinned_bytes.saturating_add(block.bytes);
        }
        block.pins = block.pins.saturating_add(1);
        true
    }

    /// Release one pin on `key`.  Unpinning an absent or unpinned block is a
    /// no-op (saturating), never an underflow.
    pub fn unpin(&mut self, key: u64) {
        let Some(block) = self.blocks.get_mut(&key) else { return };
        let was_pinned = block.pins > 0;
        block.pins = block.pins.saturating_sub(1);
        let now_unpinned = was_pinned && block.pins == 0;
        if now_unpinned {
            self.pinned_bytes = self.pinned_bytes.saturating_sub(block.bytes);
            // Deferred evictions: pins may have held the cache over budget.
            self.enforce_budget(key);
        }
    }

    /// Evict unpinned LRU blocks (sparing `protect`) until the resident
    /// total fits the budget or no victim remains.
    fn enforce_budget(&mut self, protect: u64) {
        while self.resident_bytes > self.budget_bytes && self.blocks.len() > 1 {
            let Some(victim) = self
                .blocks
                .iter()
                .filter(|&(&k, b)| k != protect && b.pins == 0)
                .min_by_key(|(_, b)| b.last_used)
                .map(|(&k, _)| k)
            else {
                break; // everything else is pinned; stay over budget for now
            };
            let gone = self.blocks.remove(&victim).expect("victim key was just observed");
            self.resident_bytes = self.resident_bytes.saturating_sub(gone.bytes);
            self.evictions = self.evictions.saturating_add(1);
        }
    }

    /// Seed the cache with an already-built block, without counting a hit or
    /// a miss (the block was not requested — it was *carried over*, e.g. from
    /// a previous epoch's cache during a scene edit).  Replaces any resident
    /// block under the same key, then enforces the budget.
    pub fn seed(&mut self, key: u64, data: Arc<[Dist]>) {
        self.tick += 1;
        let bytes = std::mem::size_of_val(&data[..]);
        if let Some(old) = self.blocks.insert(key, Block { data, bytes, last_used: self.tick, pins: 0 }) {
            self.resident_bytes = self.resident_bytes.saturating_sub(old.bytes);
            if old.pins > 0 {
                self.pinned_bytes = self.pinned_bytes.saturating_sub(old.bytes);
            }
        }
        self.resident_bytes = self.resident_bytes.saturating_add(bytes);
        self.enforce_budget(key);
    }

    /// Snapshot of every resident block (key, data), in unspecified order.
    /// Cheap: clones the `Arc`s, not the entries.  Does not touch LRU slots
    /// or counters — enumeration is not a request.
    pub fn snapshot(&self) -> Vec<(u64, Arc<[Dist]>)> {
        self.blocks.iter().map(|(&k, b)| (k, Arc::clone(&b.data))).collect()
    }

    /// Bytes currently held by resident blocks.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Bytes currently pinned against eviction.
    pub fn pinned_bytes(&self) -> usize {
        self.pinned_bytes
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether no block is resident.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BlockCacheStats {
        BlockCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            resident_bytes: self.resident_bytes,
            pinned_bytes: self.pinned_bytes,
            budget_bytes: self.budget_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A distinct, recognisable block of `len` entries for key `k`.
    fn block(k: u64, len: usize) -> Vec<Dist> {
        (0..len).map(|j| (k * 1000 + j as u64) as Dist).collect()
    }

    #[test]
    fn budget_bounds_residency_and_counts_evictions() {
        let row_bytes = 64 * std::mem::size_of::<Dist>();
        // Room for three rows.
        let mut cache = BlockCache::new(3 * row_bytes);
        for k in 0..16u64 {
            let _ = cache.get_or_insert_with(k, || block(k, 64));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 16);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.evictions, 13, "16 rows through a 3-row budget");
        assert!(stats.resident_bytes <= 3 * row_bytes);
        // Re-reading a resident row is a hit; evicted rows rebuild to the
        // same contents.
        let _ = cache.get_or_insert_with(15, || unreachable!("row 15 is resident"));
        assert_eq!(cache.stats().hits, 1);
        for k in 0..16u64 {
            assert_eq!(&cache.get_or_insert_with(k, || block(k, 64))[..], &block(k, 64)[..], "row {k} after churn");
        }
    }

    #[test]
    fn batched_rows_match_single_rows_and_count_one_miss_each() {
        let row_bytes = 33 * std::mem::size_of::<Dist>();
        let mut cache = BlockCache::new(2 * row_bytes);
        // Duplicates and arbitrary order.  A batch resolves each distinct
        // key once (as `ImplicitStore::pin_rows` does) and answers in
        // request order from the handles, which stay valid even when the
        // budget evicts their block mid-batch.
        let request = [5u64, 2, 17, 2, 9, 5];
        let mut distinct = request.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut builds = 0;
        let mut held = std::collections::HashMap::new();
        for &k in &distinct {
            let handle = match cache.peek(k) {
                Some(row) => row,
                None => cache.get_or_insert_with(k, || {
                    builds += 1;
                    block(k, 33)
                }),
            };
            held.insert(k, handle);
        }
        for &k in &request {
            assert_eq!(&held[&k][..], &block(k, 33)[..], "row {k}");
        }
        let stats = cache.stats();
        assert_eq!(builds, 4);
        assert_eq!(stats.misses, 4, "one build per distinct row");
        assert!(stats.resident_bytes <= 2 * row_bytes, "budget still enforced");
        assert!(cache.peek(2).is_none(), "row 2 was evicted, yet its handle answered");
    }

    #[test]
    fn pinned_blocks_survive_churn_and_unpin_restores_eviction() {
        let row_bytes = 4 * std::mem::size_of::<Dist>();
        let mut cache = BlockCache::new(2 * row_bytes);
        let _ = cache.get_or_insert_with(0, || vec![0; 4]);
        assert!(cache.pin(0), "resident block must pin");
        assert_eq!(cache.stats().pinned_bytes, row_bytes);
        // Churn many other blocks through the remaining single-row headroom:
        // the pinned block must never be the victim.
        for k in 1..10u64 {
            let _ = cache.get_or_insert_with(k, || vec![k as Dist; 4]);
        }
        assert!(cache.peek(0).is_some(), "pinned block evicted under churn");
        assert!(cache.resident_bytes() <= 2 * row_bytes);
        cache.unpin(0);
        assert_eq!(cache.stats().pinned_bytes, 0);
        // With the pin gone the block is evictable again.
        for k in 10..14u64 {
            let _ = cache.get_or_insert_with(k, || vec![k as Dist; 4]);
        }
        assert!(cache.peek(0).is_none(), "unpinned LRU block should churn out");
    }

    #[test]
    fn pins_past_budget_stall_eviction_without_underflow() {
        let row_bytes = 4 * std::mem::size_of::<Dist>();
        let mut cache = BlockCache::new(row_bytes); // budget: one row
        for k in 0..3u64 {
            let _ = cache.get_or_insert_with(k, || vec![k as Dist; 4]);
            cache.pin(k);
        }
        // Everything is pinned: over budget, but nothing evictable.
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().pinned_bytes, 3 * row_bytes);
        // Redundant unpins saturate instead of underflowing.
        for _ in 0..5 {
            cache.unpin(7); // absent key
            cache.unpin(2);
        }
        assert!(cache.stats().pinned_bytes <= 2 * row_bytes);
        cache.unpin(0);
        cache.unpin(1);
        assert_eq!(cache.stats().pinned_bytes, 0);
        assert!(cache.resident_bytes() <= 2 * row_bytes, "deferred evictions ran");
    }

    #[test]
    fn seeded_blocks_carry_without_counting_requests() {
        let row_bytes = 4 * std::mem::size_of::<Dist>();
        let mut cache = BlockCache::new(8 * row_bytes);
        for k in 0..4u64 {
            cache.seed(k, vec![k as Dist; 4].into());
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 0, 0));
        assert_eq!(cache.resident_bytes(), 4 * row_bytes);
        // Re-seeding a key replaces without double counting bytes.
        cache.seed(2, vec![9; 4].into());
        assert_eq!(cache.resident_bytes(), 4 * row_bytes);
        assert_eq!(cache.peek(2).unwrap()[0], 9);
        // Snapshot enumerates everything without touching counters.
        let mut keys: Vec<u64> = cache.snapshot().into_iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2, 3]);
    }

    #[test]
    fn seeding_past_the_budget_still_enforces_it() {
        let row_bytes = 4 * std::mem::size_of::<Dist>();
        let mut cache = BlockCache::new(2 * row_bytes);
        for k in 0..6u64 {
            cache.seed(k, vec![k as Dist; 4].into());
        }
        assert!(cache.resident_bytes() <= 2 * row_bytes);
        assert!(cache.peek(5).is_some(), "the newest seed survives its own insertion");
    }

    #[test]
    fn peek_counts_hits_only_for_resident_blocks() {
        let mut cache = BlockCache::new(usize::MAX);
        assert!(cache.peek(3).is_none());
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 0);
        let _ = cache.get_or_insert_with(3, || vec![1, 2, 3]);
        assert!(cache.peek(3).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn sub_row_budget_keeps_exactly_one_block() {
        let mut cache = BlockCache::new(1);
        for k in 0..6u64 {
            let _ = cache.get_or_insert_with(k, || block(k, 40));
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 5);
        assert_eq!(stats.misses, 6);
        // The most recent block survives its own insertion.
        assert_eq!(cache.len(), 1);
        assert_eq!(&cache.peek(5).expect("newest block resident")[..], &block(5, 40)[..]);
    }
}
