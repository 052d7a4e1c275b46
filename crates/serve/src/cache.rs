//! Content-addressed strip cache.
//!
//! Keys are the full provenance of a rendered-and-filtered strip: the
//! renderer mode, frame geometry, strip decomposition, filter seed, pose
//! and strip index. Because the filter chain draws its randomness from
//! `(frame_id, run_seed)` — never wall clock — a strip is a pure function
//! of its key, so any two sessions requesting the same pose may share
//! bytes. The map is bucketed FNV with **full-key comparison** inside a
//! bucket (a colliding hash can never alias pixels) and bounded by a
//! deterministic tick-based LRU.
//!
//! The stored value is generic and defaults to the strip's [`Image`]; the
//! serving engine stores a handle to a strip it keeps elsewhere, so a hit
//! copies the handle, not the pixels.

use scc_filters::{fnv1a_fold, Image, StripInfo, FNV_OFFSET};

/// Full provenance of one cached strip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StripKey {
    /// Renderer mode discriminant (modes never share entries even though
    /// single-renderer and MCPC produce identical pixels — conservative).
    pub mode: u8,
    pub width: u32,
    pub height: u32,
    /// Strip decomposition arity (changes strip geometry and blur seams).
    pub pipelines: u32,
    /// Filter-chain seed (`RunConfig::seed`).
    pub run_seed: u64,
    /// Walkthrough pose (the reference frame id).
    pub pose: u64,
    /// Strip index within the decomposition.
    pub strip: u32,
}

impl StripKey {
    /// FNV-1a over the key's canonical little-endian encoding: the
    /// fields in declaration order, 33 bytes, folded without building
    /// them into a buffer.
    pub fn hash(&self) -> u64 {
        let mut h = fnv1a_fold(FNV_OFFSET, &[self.mode]);
        h = fnv1a_fold(h, &self.width.to_le_bytes());
        h = fnv1a_fold(h, &self.height.to_le_bytes());
        h = fnv1a_fold(h, &self.pipelines.to_le_bytes());
        h = fnv1a_fold(h, &self.run_seed.to_le_bytes());
        h = fnv1a_fold(h, &self.pose.to_le_bytes());
        fnv1a_fold(h, &self.strip.to_le_bytes())
    }
}

/// Cache observability counters (all deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Lookups that probed a bucket holding at least one *different* key
    /// — the collisions full-key comparison disambiguated.
    pub collisions: u64,
    pub insertions: u64,
}

impl CacheStats {
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Entry<V> {
    key: StripKey,
    info: StripInfo,
    value: V,
    last_used: u64,
}

/// Bounded, bucketed, LRU strip cache. `capacity == 0` disables it:
/// every lookup misses and inserts are dropped, so the serving engine
/// runs the exact same control flow cache-on and cache-off.
#[derive(Debug, Clone)]
pub struct StripCache<V = Image> {
    buckets: Vec<Vec<Entry<V>>>,
    capacity: usize,
    tick: u64,
    len: usize,
    pub stats: CacheStats,
}

impl<V: Clone> StripCache<V> {
    pub fn new(capacity: u32, buckets: u32) -> StripCache<V> {
        StripCache {
            buckets: vec![Vec::new(); buckets.max(1) as usize],
            capacity: capacity as usize,
            tick: 0,
            len: 0,
            stats: CacheStats::default(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket_of(&self, key: &StripKey) -> usize {
        (key.hash() % self.buckets.len() as u64) as usize
    }

    /// Look up a strip; a hit refreshes its LRU tick and returns a clone
    /// of the value stored with `key` (entries stay shareable).
    pub fn get(&mut self, key: &StripKey) -> Option<(StripInfo, V)> {
        if !self.enabled() {
            self.stats.misses += 1;
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let b = self.bucket_of(key);
        let bucket = &mut self.buckets[b];
        if bucket.iter().any(|e| e.key != *key) {
            self.stats.collisions += 1;
        }
        for e in bucket.iter_mut() {
            if e.key == *key {
                e.last_used = tick;
                self.stats.hits += 1;
                return Some((e.info, e.value.clone()));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Insert a strip, evicting the least-recently-used entry (smallest
    /// tick; ties broken by bucket then slot order, so eviction is
    /// deterministic) when at capacity. Re-inserting an existing key
    /// refreshes it in place and keeps its first value.
    ///
    /// Returns the value the cache let go of: the evicted entry's, or
    /// `value` itself when the cache is disabled or already held `key`.
    pub fn insert(&mut self, key: StripKey, info: StripInfo, value: V) -> Option<V> {
        if !self.enabled() {
            return Some(value);
        }
        self.tick += 1;
        let tick = self.tick;
        let b = self.bucket_of(&key);
        if let Some(e) = self.buckets[b].iter_mut().find(|e| e.key == key) {
            e.last_used = tick;
            return Some(value);
        }
        let evicted = if self.len >= self.capacity {
            self.evict_lru()
        } else {
            None
        };
        self.buckets[b].push(Entry {
            key,
            info,
            value,
            last_used: tick,
        });
        self.len += 1;
        self.stats.insertions += 1;
        evicted
    }

    fn evict_lru(&mut self) -> Option<V> {
        let mut victim: Option<(usize, usize, u64)> = None;
        for (bi, bucket) in self.buckets.iter().enumerate() {
            for (ei, e) in bucket.iter().enumerate() {
                let better = match victim {
                    None => true,
                    Some((_, _, t)) => e.last_used < t,
                };
                if better {
                    victim = Some((bi, ei, e.last_used));
                }
            }
        }
        let (bi, ei, _) = victim?;
        self.len -= 1;
        self.stats.evictions += 1;
        Some(self.buckets[bi].remove(ei).value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(pose: u64, strip: u32) -> StripKey {
        StripKey {
            mode: 0,
            width: 16,
            height: 16,
            pipelines: 2,
            run_seed: 7,
            pose,
            strip,
        }
    }

    fn strip(tag: u8) -> (StripInfo, Image) {
        let mut img = Image::new(16, 8);
        img.set(0, 0, [tag, tag, tag, 255]);
        (
            StripInfo {
                index: 0,
                count: 2,
                y0: 0,
                height: 8,
                full_height: 16,
            },
            img,
        )
    }

    /// The bucket a key lands in — and so the `collisions` counter of
    /// every pinned serving run — is this value modulo the bucket count.
    #[test]
    fn key_hashes_are_pinned() {
        let churn = StripKey {
            mode: 2,
            width: 64,
            height: 64,
            pipelines: 2,
            run_seed: 0x9E37_79B9_7F4A_7C15,
            pose: 999_999,
            strip: 1,
        };
        let all_ones = StripKey {
            mode: u8::MAX,
            width: u32::MAX,
            height: u32::MAX,
            pipelines: u32::MAX,
            run_seed: u64::MAX,
            pose: u64::MAX,
            strip: u32::MAX,
        };
        assert_eq!(key(0, 0).hash(), 0x1686_a2c0_cd21_510a);
        assert_eq!(churn.hash(), 0xcc5e_35da_61cb_01fd);
        assert_eq!(all_ones.hash(), 0xfb7d_053f_2952_dc4e);
    }

    #[test]
    fn hit_returns_exact_bytes() {
        let mut c = StripCache::new(4, 4);
        let (info, img) = strip(9);
        c.insert(key(1, 0), info, img.clone());
        let (_, got) = c.get(&key(1, 0)).expect("hit");
        assert_eq!(got.as_bytes(), img.as_bytes());
        assert_eq!(c.stats.hits, 1);
    }

    #[test]
    fn zero_capacity_disables_without_panics() {
        let mut c = StripCache::new(0, 4);
        assert!(!c.enabled());
        let (info, img) = strip(1);
        c.insert(key(1, 0), info, img);
        assert!(c.get(&key(1, 0)).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn single_bucket_collisions_resolved_by_full_key() {
        // One bucket: every key collides; lookups must still return the
        // right bytes for each key.
        let mut c = StripCache::new(8, 1);
        for pose in 0..4u64 {
            let (info, img) = strip(pose as u8);
            c.insert(key(pose, 0), info, img);
        }
        for pose in 0..4u64 {
            let (_, got) = c.get(&key(pose, 0)).expect("hit");
            assert_eq!(got.get(0, 0)[0], pose as u8, "collision aliased pixels");
        }
        assert!(c.stats.collisions > 0, "one bucket must collide");
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let mut c = StripCache::new(2, 4);
        let (info, img) = strip(0);
        c.insert(key(0, 0), info, img.clone());
        c.insert(key(1, 0), info, img.clone());
        assert!(c.get(&key(0, 0)).is_some()); // refresh 0 → 1 is now LRU
        c.insert(key(2, 0), info, img.clone());
        assert_eq!(c.stats.evictions, 1);
        assert!(c.get(&key(1, 0)).is_none(), "LRU entry should be gone");
        assert!(c.get(&key(0, 0)).is_some());
        assert!(c.get(&key(2, 0)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn a_hit_returns_the_value_of_the_entry_that_matched() {
        // One bucket: every key collides, and each hit must hand back the
        // value stored with its own key, whatever it was inserted next to.
        let mut c: StripCache<u32> = StripCache::new(8, 1);
        let (info, _) = strip(0);
        for pose in 0..4u64 {
            assert_eq!(c.insert(key(pose, 0), info, 10 + pose as u32), None);
        }
        for pose in (0..4u64).rev() {
            let got = c.get(&key(pose, 0)).map(|(_, v)| v);
            assert_eq!(got, Some(10 + pose as u32), "pose {pose}");
        }
        assert!(c.get(&key(4, 0)).is_none());
        assert_eq!(c.stats.collisions, 5);
    }

    #[test]
    fn reinsert_keeps_the_first_value() {
        let mut c: StripCache<u32> = StripCache::new(2, 4);
        let (info, _) = strip(0);
        assert_eq!(c.insert(key(0, 0), info, 1), None);
        assert_eq!(c.insert(key(0, 0), info, 2), Some(2), "second value let go");
        assert_eq!(c.get(&key(0, 0)).map(|(_, v)| v), Some(1));
        assert_eq!(c.stats.insertions, 1);
    }

    #[test]
    fn insert_hands_back_what_the_cache_lets_go() {
        let (info, _) = strip(0);
        let mut c: StripCache<u32> = StripCache::new(2, 4);
        assert_eq!(c.insert(key(0, 0), info, 0), None);
        assert_eq!(c.insert(key(1, 0), info, 1), None);
        assert!(c.get(&key(0, 0)).is_some()); // 1 is now LRU
        assert_eq!(c.insert(key(2, 0), info, 2), Some(1), "the evicted value");
        let mut off: StripCache<u32> = StripCache::new(0, 4);
        assert_eq!(
            off.insert(key(0, 0), info, 7),
            Some(7),
            "a disabled cache keeps nothing"
        );
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut c = StripCache::new(2, 4);
        let (info, img) = strip(0);
        c.insert(key(0, 0), info, img.clone());
        c.insert(key(0, 0), info, img.clone());
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats.insertions, 1);
    }
}
