//! Shared-buffer pool with clock (second-chance) eviction, and the OS page
//! cache that sits beneath it.
//!
//! `shared_buffers` sets the pool's frame count; pages missing from the pool
//! may still hit the OS cache (tracked at 32 kB, 4-page chunk granularity —
//! the OS reads ahead, so chunk-level residency is the honest model) before
//! paying for a disk read. Dirty frames evicted by a backend incur a
//! foreground write, which is what the background writer exists to prevent.
//!
//! Dirty state lives in a bitset, one bit per frame, beside the frames
//! rather than in them: the cleaners (`backend_flush_after`, the background
//! writer, checkpoints) ask for the next dirty frames from the clock hand,
//! and a word-at-a-time scan skips 64 clean frames per step instead of
//! visiting each one.

use crate::fxhash::FxHashMap;

/// Identifies an 8 kB page: table id in the high bits, page number below.
pub type PageId = u64;

/// Builds a [`PageId`] from a table id and page number.
pub fn page_id(table: u32, page_no: u64) -> PageId {
    ((table as u64) << 40) | (page_no & 0xFF_FFFF_FFFF)
}

/// Result of a buffer-pool page access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Found in shared buffers.
    Hit,
    /// Missed shared buffers; a clean frame was (or could be) reclaimed.
    Miss {
        /// The eviction displaced a dirty page, forcing a foreground write.
        dirty_eviction: bool,
    },
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    page: PageId,
    referenced: bool,
}

/// Clock buffer pool over 8 kB frames.
#[derive(Debug)]
pub struct BufferPool {
    frames: Vec<Frame>,
    /// Bit `i % 64` of word `i / 64` is set iff frame `i` is dirty; bits
    /// past the last frame stay clear.
    dirty_bits: Vec<u64>,
    map: FxHashMap<PageId, u32>,
    capacity: usize,
    hand: usize,
    dirty_count: usize,
}

/// The heap allocations behind a [`BufferPool`], handed from a finished
/// pool ([`BufferPool::into_storage`]) to a new one
/// ([`BufferPool::with_storage`]) so that back-to-back runs reuse them.
#[derive(Debug, Default)]
pub struct PoolStorage {
    frames: Vec<Frame>,
    dirty_bits: Vec<u64>,
    map: FxHashMap<PageId, u32>,
}

impl BufferPool {
    /// Creates a pool with `capacity` frames (>= 16, like PostgreSQL).
    pub fn new(capacity: usize) -> Self {
        Self::with_storage(capacity, PoolStorage::default())
    }

    /// Creates an empty pool, exactly like [`BufferPool::new`], on the
    /// allocations of an earlier pool.
    pub fn with_storage(capacity: usize, storage: PoolStorage) -> Self {
        let capacity = capacity.max(16);
        let PoolStorage { mut frames, mut dirty_bits, mut map } = storage;
        frames.clear();
        dirty_bits.clear();
        map.clear();
        // Grow lazily: most runs touch far fewer pages than the
        // configured capacity, and evaluations are frequent.
        let initial = capacity.min(4_096);
        frames.reserve(initial);
        dirty_bits.reserve(initial.div_ceil(64));
        map.reserve(initial);
        BufferPool { frames, dirty_bits, map, capacity, hand: 0, dirty_count: 0 }
    }

    /// Gives up the pool's allocations for [`BufferPool::with_storage`].
    pub fn into_storage(self) -> PoolStorage {
        PoolStorage { frames: self.frames, dirty_bits: self.dirty_bits, map: self.map }
    }

    /// Number of frames currently holding pages.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Configured capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of dirty frames.
    pub fn dirty(&self) -> usize {
        self.dirty_count
    }

    fn is_dirty(&self, slot: usize) -> bool {
        self.dirty_bits[slot / 64] & (1 << (slot % 64)) != 0
    }

    fn set_dirty(&mut self, slot: usize) {
        self.dirty_bits[slot / 64] |= 1 << (slot % 64);
    }

    fn clear_dirty(&mut self, slot: usize) {
        self.dirty_bits[slot / 64] &= !(1 << (slot % 64));
    }

    /// Accesses `page`, faulting it in on a miss; `write` marks it dirty.
    pub fn access(&mut self, page: PageId, write: bool) -> Access {
        if let Some(&slot) = self.map.get(&page) {
            let slot = slot as usize;
            self.frames[slot].referenced = true;
            if write && !self.is_dirty(slot) {
                self.set_dirty(slot);
                self.dirty_count += 1;
            }
            return Access::Hit;
        }
        let mut dirty_eviction = false;
        let slot = if self.frames.len() < self.capacity {
            if self.frames.len().is_multiple_of(64) {
                self.dirty_bits.push(0);
            }
            self.frames.push(Frame { page, referenced: true });
            self.frames.len() - 1
        } else {
            let victim = self.run_clock();
            self.map.remove(&self.frames[victim].page);
            if self.is_dirty(victim) {
                dirty_eviction = true;
                self.clear_dirty(victim);
                self.dirty_count -= 1;
            }
            self.frames[victim] = Frame { page, referenced: true };
            victim
        };
        if write {
            self.set_dirty(slot);
            self.dirty_count += 1;
        }
        self.map.insert(page, slot as u32);
        Access::Miss { dirty_eviction }
    }

    /// Second-chance sweep returning the victim slot.
    fn run_clock(&mut self) -> usize {
        loop {
            let f = &mut self.frames[self.hand];
            if f.referenced {
                f.referenced = false;
                self.hand = (self.hand + 1) % self.frames.len();
            } else {
                let victim = self.hand;
                self.hand = (self.hand + 1) % self.frames.len();
                return victim;
            }
        }
    }

    /// Cleans up to `max_pages` dirty frames (background writer / checkpoint
    /// work), returning how many were written.
    pub fn clean_dirty(&mut self, max_pages: usize) -> usize {
        if self.dirty_count == 0 || max_pages == 0 {
            return 0;
        }
        // Sweep from the clock hand — the same order eviction would find
        // them, which is exactly the LRU-ish set the bgwriter targets:
        // `[hand, n)` first, then wrap round to `[0, hand)`.
        let n = self.frames.len();
        let mut written = self.clean_range(self.hand, n, max_pages);
        if written < max_pages {
            written += self.clean_range(0, self.hand, max_pages - written);
        }
        self.dirty_count -= written;
        written
    }

    /// Clears up to `budget` dirty bits among frames `lo..hi`, lowest
    /// first; returns how many it cleared.
    fn clean_range(&mut self, lo: usize, hi: usize, budget: usize) -> usize {
        let mut left = budget;
        let mut i = lo;
        while i < hi && left > 0 {
            let w = i / 64;
            let end = (hi - w * 64).min(64);
            let upto = if end == 64 { u64::MAX } else { (1 << end) - 1 };
            let mut bits = self.dirty_bits[w] & upto & (u64::MAX << (i % 64));
            let found = bits.count_ones() as usize;
            if found <= left {
                self.dirty_bits[w] &= !bits;
                left -= found;
            } else {
                for _ in 0..left {
                    self.dirty_bits[w] &= !(1 << bits.trailing_zeros());
                    bits &= bits - 1;
                }
                left = 0;
            }
            i = (w + 1) * 64;
        }
        budget - left
    }
}

/// OS page cache tracked at 32 kB (4-page) chunk granularity with clock
/// eviction. Capacity is a fraction of whatever RAM the DBMS and other
/// processes leave free: random-access traffic wastes most of each
/// readahead chunk and competes with writeback and double buffering, so
/// only [`OS_CACHE_EFFECTIVE_FRAC`] of free memory acts as an effective
/// cache for the DBMS's random reads.
#[derive(Debug)]
pub struct OsCache {
    pool: BufferPool,
}

/// Pages per OS-cache chunk (32 kB / 8 kB).
pub const CHUNK_PAGES: u64 = 4;

/// Effective fraction of free RAM acting as page cache for random reads.
pub const OS_CACHE_EFFECTIVE_FRAC: f64 = 0.45;

impl OsCache {
    /// Creates a cache over `bytes` of free memory.
    pub fn new(bytes: u64) -> Self {
        Self::with_storage(bytes, PoolStorage::default())
    }

    /// Creates an empty cache, exactly like [`OsCache::new`], on the
    /// allocations of an earlier one.
    pub fn with_storage(bytes: u64, storage: PoolStorage) -> Self {
        let effective = (bytes as f64 * OS_CACHE_EFFECTIVE_FRAC) as u64;
        let chunks = (effective / (CHUNK_PAGES * 8 * 1024)).max(16);
        OsCache { pool: BufferPool::with_storage(chunks as usize, storage) }
    }

    /// Gives up the cache's allocations for [`OsCache::with_storage`].
    pub fn into_storage(self) -> PoolStorage {
        self.pool.into_storage()
    }

    /// Whether the chunk containing `page` is resident; touches it in
    /// either case (misses fault the chunk in).
    pub fn access(&mut self, page: PageId) -> bool {
        let chunk = page / CHUNK_PAGES;
        matches!(self.pool.access(chunk, false), Access::Hit)
    }

    /// Chunk capacity.
    pub fn capacity_chunks(&self) -> usize {
        self.pool.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Reference model: the pool as it was before the dirty bitset, with a
    /// dirty flag per frame and a frame-by-frame cleaning sweep from the
    /// clock hand. The real pool must be observably identical to it.
    struct SweepPool {
        frames: Vec<(PageId, bool, bool)>, // (page, referenced, dirty)
        map: HashMap<PageId, usize>,
        capacity: usize,
        hand: usize,
        dirty_count: usize,
    }

    impl SweepPool {
        fn new(capacity: usize) -> Self {
            let capacity = capacity.max(16);
            SweepPool { frames: Vec::new(), map: HashMap::new(), capacity, hand: 0, dirty_count: 0 }
        }

        fn access(&mut self, page: PageId, write: bool) -> Access {
            if let Some(&slot) = self.map.get(&page) {
                let f = &mut self.frames[slot];
                f.1 = true;
                if write && !f.2 {
                    f.2 = true;
                    self.dirty_count += 1;
                }
                return Access::Hit;
            }
            let mut dirty_eviction = false;
            let slot = if self.frames.len() < self.capacity {
                self.frames.push((page, true, write));
                self.frames.len() - 1
            } else {
                let victim = loop {
                    let f = &mut self.frames[self.hand];
                    let at = self.hand;
                    self.hand = (self.hand + 1) % self.capacity;
                    if f.1 {
                        f.1 = false;
                    } else {
                        break at;
                    }
                };
                let old = self.frames[victim];
                self.map.remove(&old.0);
                if old.2 {
                    dirty_eviction = true;
                    self.dirty_count -= 1;
                }
                self.frames[victim] = (page, true, write);
                victim
            };
            if write {
                self.dirty_count += 1;
            }
            self.map.insert(page, slot);
            Access::Miss { dirty_eviction }
        }

        fn clean_dirty(&mut self, max_pages: usize) -> usize {
            let n = self.frames.len();
            let mut written = 0;
            for i in 0..n {
                if written >= max_pages {
                    break;
                }
                let f = &mut self.frames[(self.hand + i) % n];
                if f.2 {
                    f.2 = false;
                    written += 1;
                }
            }
            self.dirty_count -= written;
            written
        }
    }

    #[test]
    fn hits_after_fault() {
        let mut bp = BufferPool::new(64);
        assert_eq!(bp.access(page_id(1, 0), false), Access::Miss { dirty_eviction: false });
        assert_eq!(bp.access(page_id(1, 0), false), Access::Hit);
        assert_eq!(bp.resident(), 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut bp = BufferPool::new(16);
        for i in 0..100 {
            bp.access(page_id(0, i), false);
        }
        assert_eq!(bp.resident(), 16);
    }

    #[test]
    fn minimum_capacity_clamped() {
        let bp = BufferPool::new(1);
        assert_eq!(bp.capacity(), 16);
    }

    #[test]
    fn clock_keeps_hot_pages() {
        let mut bp = BufferPool::new(16);
        // Fill the pool, keep page 0 hot.
        for i in 0..16 {
            bp.access(page_id(0, i), false);
        }
        for round in 0..50u64 {
            bp.access(page_id(0, 0), false); // hot page
            bp.access(page_id(0, 100 + round), false); // cold stream
        }
        // The hot page must still be resident.
        assert_eq!(bp.access(page_id(0, 0), false), Access::Hit);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut bp = BufferPool::new(16);
        for i in 0..16 {
            bp.access(page_id(0, i), true); // all dirty
        }
        assert_eq!(bp.dirty(), 16);
        // Next miss must evict a dirty page.
        match bp.access(page_id(0, 999), false) {
            Access::Miss { dirty_eviction } => assert!(dirty_eviction),
            Access::Hit => panic!("expected miss"),
        }
        assert_eq!(bp.dirty(), 15);
    }

    #[test]
    fn evicting_a_dirty_frame_clears_its_dirty_bit() {
        let mut bp = BufferPool::new(16);
        for i in 0..16 {
            bp.access(page_id(0, i), true);
        }
        // Clear every reference bit so the clock evicts frame 0 next.
        bp.access(page_id(0, 100), false);
        assert_eq!(bp.dirty(), 15);
        // The clean page now in the victim's frame must not be counted,
        // or written, as dirty.
        assert_eq!(bp.access(page_id(0, 100), false), Access::Hit);
        assert_eq!(bp.clean_dirty(usize::MAX), 15);
        assert_eq!(bp.dirty(), 0);
        // With every bit clear, the next evictions are all clean.
        for i in 200..216 {
            assert_eq!(bp.access(page_id(0, i), false), Access::Miss { dirty_eviction: false });
        }
    }

    #[test]
    fn clean_dirty_starts_at_the_clock_hand_and_wraps() {
        let mut bp = BufferPool::new(130);
        for i in 0..130 {
            bp.access(page_id(0, i), true);
        }
        // Evict two frames: the hand now sits past frame 1 and frames 0
        // and 1 hold clean pages.
        bp.access(page_id(1, 0), false);
        bp.access(page_id(1, 1), false);
        assert_eq!(bp.dirty(), 128);
        // The first 128 cleaned are frames 2..130; nothing is left to
        // wrap round to.
        assert_eq!(bp.clean_dirty(127), 127);
        assert_eq!(bp.clean_dirty(10), 1);
        assert_eq!(bp.dirty(), 0);
        // Dirty frames before the hand are reached by wrapping round.
        bp.access(page_id(1, 0), true);
        assert_eq!(bp.clean_dirty(5), 1);
    }

    #[test]
    fn rewriting_dirty_page_counts_once() {
        let mut bp = BufferPool::new(16);
        bp.access(page_id(0, 1), true);
        bp.access(page_id(0, 1), true);
        assert_eq!(bp.dirty(), 1);
    }

    #[test]
    fn clean_dirty_reduces_dirty_count() {
        let mut bp = BufferPool::new(32);
        for i in 0..20 {
            bp.access(page_id(0, i), true);
        }
        let written = bp.clean_dirty(8);
        assert_eq!(written, 8);
        assert_eq!(bp.dirty(), 12);
        let written = bp.clean_dirty(100);
        assert_eq!(written, 12);
        assert_eq!(bp.dirty(), 0);
        assert_eq!(bp.clean_dirty(100), 0);
    }

    #[test]
    fn os_cache_chunk_locality() {
        let mut os = OsCache::new(1024 * 1024 * 1024);
        assert!(!os.access(page_id(0, 0)));
        // Neighbouring page in the same 4-page chunk now hits.
        assert!(os.access(page_id(0, 1)));
        // A page in a different chunk misses.
        assert!(!os.access(page_id(0, 64)));
    }

    #[test]
    fn os_cache_capacity_reflects_effective_fraction() {
        let os = OsCache::new(1 << 30);
        let expected =
            ((1u64 << 30) as f64 * OS_CACHE_EFFECTIVE_FRAC) as u64 / (CHUNK_PAGES * 8 * 1024);
        assert_eq!(os.capacity_chunks() as u64, expected);
    }

    #[test]
    fn page_id_separates_tables() {
        assert_ne!(page_id(1, 7), page_id(2, 7));
        assert_ne!(page_id(1, 7), page_id(1, 8));
    }

    proptest! {
        /// Invariants: resident <= capacity, dirty <= resident, and a page
        /// just accessed is always a hit on re-access.
        #[test]
        fn pool_invariants(ops in proptest::collection::vec((0u64..200, any::<bool>()), 1..300)) {
            let mut bp = BufferPool::new(32);
            for (page, write) in ops {
                bp.access(page_id(0, page), write);
                prop_assert!(bp.resident() <= bp.capacity());
                prop_assert!(bp.dirty() <= bp.resident());
                prop_assert_eq!(bp.access(page_id(0, page), false), Access::Hit);
            }
        }

        /// A pool on the storage of a used one (another capacity, dirty
        /// frames, a moved clock hand) behaves exactly like a new pool.
        #[test]
        fn recycled_storage_behaves_like_new(
            used_cap in 16usize..150,
            cap in 16usize..150,
            used in proptest::collection::vec((0u64..300, any::<bool>()), 0..400),
            ops in proptest::collection::vec((0u8..10, 0u64..300, 0usize..80), 1..400),
        ) {
            let mut old = BufferPool::new(used_cap);
            for (page, write) in used {
                old.access(page_id(1, page), write);
            }
            let mut bp = BufferPool::with_storage(cap, old.into_storage());
            let mut fresh = BufferPool::new(cap);
            prop_assert_eq!((bp.resident(), bp.dirty(), bp.capacity()), (0, 0, fresh.capacity()));
            for (kind, page, k) in ops {
                if kind < 8 {
                    let pid = page_id(1, page);
                    prop_assert_eq!(bp.access(pid, kind % 2 == 0), fresh.access(pid, kind % 2 == 0));
                } else {
                    prop_assert_eq!(bp.clean_dirty(k), fresh.clean_dirty(k));
                }
                prop_assert_eq!((bp.resident(), bp.dirty()), (fresh.resident(), fresh.dirty()));
            }
        }

        /// The bitset pool agrees with the sweep-based reference model on
        /// every access outcome, cleaned count, dirty and resident count,
        /// over random access / clean sequences on small pools (capacities
        /// straddle the 64-frame word boundary).
        #[test]
        fn matches_sweep_reference_model(
            cap in 16usize..150,
            ops in proptest::collection::vec((0u8..10, 0u64..300, 0usize..80), 1..600),
        ) {
            let mut bp = BufferPool::new(cap);
            let mut model = SweepPool::new(cap);
            for (kind, page, k) in ops {
                if kind < 8 {
                    let pid = page_id((page % 3) as u32, page);
                    let write = kind % 2 == 0;
                    prop_assert_eq!(bp.access(pid, write), model.access(pid, write));
                } else {
                    prop_assert_eq!(bp.clean_dirty(k), model.clean_dirty(k));
                }
                prop_assert_eq!(bp.dirty(), model.dirty_count);
                prop_assert_eq!(bp.resident(), model.frames.len());
            }
        }
    }
}
