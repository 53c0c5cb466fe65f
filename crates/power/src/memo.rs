//! Bisection-landing memoization.
//!
//! The scalability analysis asks one question per design: the largest
//! qubit count the fridge can power and which stage binds there
//! ([`crate::try_max_qubits_with_link`]). The experiment suite and a
//! long-lived service re-ask it for the same handful of designs over and
//! over, and the answer is a pure function of the `(architecture, fridge,
//! instruction link)` triple, so a process-global cache keyed on that
//! triple turns every repeat analysis into one lookup. It stores the
//! bisection's result — `(max_qubits, binding stage, landing report)` —
//! not its ~26 probes: nothing else reads a probe twice, and a sweep
//! point ([`crate::try_evaluate_with_link`]) costs less than the key.
//!
//! The cache key is a [`MemoKey`] fingerprint: a 128-bit FNV-1a hash over
//! the `Debug` rendering of the triple. All three types are plain data
//! and `f64` Debug formatting is shortest-round-trip, so equal physics
//! renders to equal text; 128 bits make an accidental collision between
//! the handful of designs a process touches vanishingly unlikely.
//! Fingerprinting walks the whole architecture (~dozens of components),
//! which costs more than a single stage-power evaluation, and it is
//! computed once per analysis.
//!
//! # Bounded LRU
//!
//! The cache is a strict least-recently-used cache bounded at
//! [`DEFAULT_CACHE_CAP`] landings (override at runtime with
//! [`set_cache_cap`]): a long-lived service sweeping thousands of designs
//! evicts cold entries one at a time instead of growing without bound or
//! dropping the whole working set. Recency is an intrusive doubly-linked
//! list threaded through a slot arena, so every hit and insert is O(1)
//! and eviction never reallocates. Caching is transparent — a landing is
//! a pure function of the key — so any capacity yields bit-identical
//! results.
//!
//! Health is published through `qisim-obs`: `power.cache.{hits,misses,
//! evictions}` counters (one lookup per analysis) and
//! `power.cache.{len,bytes_est}` gauges feed the telemetry exporter, and
//! [`cache_stats`] returns the same numbers directly (independent of the
//! `qisim_obs::set_enabled` kill switch).

use crate::PowerReport;
use qisim_hal::fridge::{Fridge, Stage};
use qisim_hal::wire::InstructionLink;
use qisim_microarch::QciArch;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Default landing capacity. The whole 19-driver experiment suite
/// bisects 22 distinct designs, so every in-tree workload fits without
/// an eviction; [`set_cache_cap`] overrides it.
pub const DEFAULT_CACHE_CAP: usize = 1 << 10;

/// One bisection's result: the maximum qubit count, the binding stage,
/// and the landing report at `max(n, 1)` qubits.
pub(crate) type Landing = (u64, Option<Stage>, PowerReport);

/// Fingerprint of one `(architecture, fridge, instruction-link)` triple:
/// the memo-cache key of that design's bisection landing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoKey {
    lo: u64,
    hi: u64,
}

impl MemoKey {
    /// Fingerprints the triple (see the module docs for why hashing the
    /// `Debug` rendering is sound here).
    pub fn new(arch: &QciArch, fridge: &Fridge, link: &InstructionLink) -> Self {
        let text = format!("{arch:?}\u{1f}{fridge:?}\u{1f}{link:?}");
        MemoKey {
            lo: fnv1a(text.as_bytes(), 0xcbf2_9ce4_8422_2325),
            hi: fnv1a(text.as_bytes(), 0x6c62_272e_07bb_0142),
        }
    }
}

/// FNV-1a over `bytes` from the given offset basis.
fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A point-in-time view of the memo cache's health (the same numbers the
/// `power.cache.*` metrics publish, kept even while `qisim-obs` is
/// disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Landing lookups served from the cache (process lifetime).
    pub hits: u64,
    /// Landing lookups that fell through to a fresh bisection.
    pub misses: u64,
    /// Entries displaced because the cache was at capacity.
    pub evictions: u64,
    /// Landings currently resident.
    pub len: usize,
    /// Estimated resident bytes (slots plus per-landing stage payload).
    pub bytes_est: usize,
    /// Current landing capacity.
    pub cap: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`, or NaN before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses) as f64
    }
}

const NIL: usize = usize::MAX;

/// One arena slot: the entry plus its intrusive recency links.
#[derive(Debug)]
struct Slot {
    key: MemoKey,
    landing: Landing,
    /// Toward more-recent (NIL at the head).
    prev: usize,
    /// Toward less-recent (NIL at the tail).
    next: usize,
}

/// The LRU core: a `HashMap` from key to arena index, a slot arena with
/// an intrusive doubly-linked recency list (head = most recent, tail =
/// next to evict), and a free list so eviction recycles slots without
/// reallocating.
#[derive(Debug)]
struct LruCache {
    map: HashMap<MemoKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    bytes_est: usize,
}

/// Estimated resident cost of one entry: its slot (key, landing header,
/// links) plus the landing report's heap-allocated stage rows.
fn entry_bytes(landing: &Landing) -> usize {
    std::mem::size_of::<Slot>() + landing.2.stages.len() * std::mem::size_of::<crate::StagePower>()
}

impl LruCache {
    fn new(cap: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            cap: cap.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
            bytes_est: 0,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// Looks up an entry, marking it most-recently-used on a hit.
    fn get(&mut self, key: MemoKey) -> Option<Landing> {
        match self.map.get(&key).copied() {
            Some(i) => {
                self.hits += 1;
                if self.head != i {
                    self.unlink(i);
                    self.push_front(i);
                }
                Some(self.slots[i].landing.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// one first when at capacity.
    fn insert(&mut self, key: MemoKey, landing: Landing) {
        if let Some(&i) = self.map.get(&key) {
            self.bytes_est =
                self.bytes_est + entry_bytes(&landing) - entry_bytes(&self.slots[i].landing);
            self.slots[i].landing = landing;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        while self.map.len() >= self.cap {
            self.evict_tail();
        }
        self.bytes_est += entry_bytes(&landing);
        let slot = Slot { key, landing, prev: NIL, next: NIL };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    fn evict_tail(&mut self) {
        let i = self.tail;
        if i == NIL {
            return;
        }
        self.unlink(i);
        self.map.remove(&self.slots[i].key);
        self.bytes_est = self.bytes_est.saturating_sub(entry_bytes(&self.slots[i].landing));
        self.free.push(i);
        self.evictions += 1;
    }

    /// Shrinks (or grows) the capacity, evicting down to it immediately.
    fn set_cap(&mut self, cap: usize) {
        self.cap = cap.max(1);
        while self.map.len() > self.cap {
            self.evict_tail();
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.bytes_est = 0;
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.map.len(),
            bytes_est: self.bytes_est,
            cap: self.cap,
        }
    }
}

fn cache() -> &'static Mutex<LruCache> {
    static CACHE: OnceLock<Mutex<LruCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(LruCache::new(DEFAULT_CACHE_CAP)))
}

fn locked() -> std::sync::MutexGuard<'static, LruCache> {
    cache().lock().unwrap_or_else(|e| e.into_inner())
}

/// Publishes the size gauges after a mutation (the hit/miss/eviction
/// counters are emitted at their call sites so the deltas trace).
fn publish_size(lru: &LruCache) {
    qisim_obs::gauge!("power.cache.len", lru.map.len() as f64);
    qisim_obs::gauge!("power.cache.bytes_est", lru.bytes_est as f64);
}

/// The cached landing, if this design was bisected before. A hit marks
/// the entry most-recently-used.
pub(crate) fn lookup(key: MemoKey) -> Option<Landing> {
    let hit = locked().get(key);
    match hit {
        Some(r) => {
            qisim_obs::counter!("power.cache.hits");
            Some(r)
        }
        None => {
            qisim_obs::counter!("power.cache.misses");
            None
        }
    }
}

/// Stores a freshly bisected landing, evicting the least-recently-used
/// entry when the cache is at capacity.
pub(crate) fn store(key: MemoKey, landing: Landing) {
    let mut lru = locked();
    let evicted_before = lru.evictions;
    lru.insert(key, landing);
    let evicted = lru.evictions - evicted_before;
    publish_size(&lru);
    drop(lru);
    if evicted > 0 {
        qisim_obs::counter!("power.cache.evictions", evicted);
    }
}

/// Empties the memo cache (benches use this to time cold runs fairly)
/// and zeroes the `power.cache.{len,bytes_est}` gauges it invalidates;
/// the lifetime hit/miss/eviction counters are preserved.
pub fn clear_cache() {
    let mut lru = locked();
    lru.clear();
    publish_size(&lru);
}

/// The cache's lifetime hit/miss/eviction counts and current size — the
/// numbers behind the `power.cache.*` metrics, available even when
/// recording is disabled.
pub fn cache_stats() -> CacheStats {
    locked().stats()
}

/// Overrides the landing capacity at runtime: `Some(cap)` bounds the
/// cache (evicting down immediately), `None` restores
/// [`DEFAULT_CACHE_CAP`]. Capacity never affects results, only how many
/// bisections are re-run.
pub fn set_cache_cap(cap: Option<usize>) {
    let mut lru = locked();
    let evicted_before = lru.evictions;
    lru.set_cap(cap.unwrap_or(DEFAULT_CACHE_CAP));
    let evicted = lru.evictions - evicted_before;
    publish_size(&lru);
    drop(lru);
    if evicted > 0 {
        qisim_obs::counter!("power.cache.evictions", evicted);
    }
}

/// Serializes the unit tests that touch the process-global memo, so one
/// test's `clear_cache` never races a sibling's lookups.
#[cfg(test)]
pub(crate) fn global_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qisim_microarch::CryoCmosConfig;

    #[test]
    fn equal_physics_equal_key_different_physics_different_key() {
        let a = CryoCmosConfig::baseline().build();
        let b = CryoCmosConfig::baseline().build();
        let c = CryoCmosConfig { drive_bits: 6, ..CryoCmosConfig::baseline() }.build();
        let fridge = Fridge::standard();
        let link = InstructionLink::standard();
        assert_eq!(MemoKey::new(&a, &fridge, &link), MemoKey::new(&b, &fridge, &link));
        assert_ne!(MemoKey::new(&a, &fridge, &link), MemoKey::new(&c, &fridge, &link));
        // The fridge and link are part of the key too.
        let big = Fridge::standard().with_budget(Stage::K4, 9.0);
        assert_ne!(MemoKey::new(&a, &fridge, &link), MemoKey::new(&a, &big, &link));
    }

    #[test]
    fn store_lookup_roundtrip_and_clear() {
        let _l = global_test_lock();
        let arch = CryoCmosConfig::baseline().build();
        // A distinctive budget no other test is likely to bisect.
        let fridge = Fridge::standard().with_budget(Stage::K4, 1.234_567);
        let link = InstructionLink::standard();
        let key = MemoKey::new(&arch, &fridge, &link);
        clear_cache();
        assert_eq!(lookup(key), None);
        let landing = crate::bisect(&arch, &fridge, &link);
        store(key, landing.clone());
        assert_eq!(lookup(key), Some(landing));
        assert_eq!(cache_stats().len, 1);
        clear_cache();
        assert_eq!(cache_stats().len, 0);
        assert_eq!(cache_stats().bytes_est, 0, "clear resets the size estimates");
    }

    // The LRU core is unit-tested on a local instance: the global cache
    // is shared by concurrently running tests, so eviction-order
    // assertions would race there.

    fn key(i: u64) -> MemoKey {
        MemoKey { lo: i, hi: !i }
    }

    fn landing(n: u64) -> Landing {
        (n, None, PowerReport { n_qubits: n, stages: Vec::new() })
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut lru = LruCache::new(3);
        for i in 0..3 {
            lru.insert(key(i), landing(i));
        }
        // Touch 0: it becomes most-recent, so 1 is now the coldest.
        assert!(lru.get(key(0)).is_some());
        lru.insert(key(3), landing(3));
        assert_eq!(lru.map.len(), 3);
        assert!(lru.get(key(1)).is_none(), "coldest entry evicted");
        assert!(lru.get(key(0)).is_some(), "recently touched entry kept");
        assert!(lru.get(key(2)).is_some());
        assert!(lru.get(key(3)).is_some());
        assert_eq!(lru.evictions, 1);
    }

    #[test]
    fn lru_recycles_slots_and_tracks_bytes() {
        let mut lru = LruCache::new(2);
        for i in 0..10 {
            lru.insert(key(i), landing(i));
        }
        assert_eq!(lru.map.len(), 2);
        assert_eq!(lru.slots.len(), 2, "evicted slots are recycled, not leaked");
        assert_eq!(lru.evictions, 8);
        assert_eq!(lru.bytes_est, 2 * std::mem::size_of::<Slot>());
        // Refreshing an existing key neither grows nor evicts.
        lru.insert(key(9), landing(99));
        assert_eq!(lru.map.len(), 2);
        assert_eq!(lru.evictions, 8);
        assert_eq!(lru.get(key(9)).unwrap().2.n_qubits, 99);
    }

    #[test]
    fn lru_shrinking_cap_evicts_down_immediately() {
        let mut lru = LruCache::new(8);
        for i in 0..8 {
            lru.insert(key(i), landing(i));
        }
        lru.set_cap(2);
        assert_eq!(lru.map.len(), 2);
        assert_eq!(lru.evictions, 6);
        // The two most recent survive.
        assert!(lru.get(key(6)).is_some());
        assert!(lru.get(key(7)).is_some());
        // Degenerate caps clamp to one entry.
        lru.set_cap(0);
        assert_eq!(lru.cap, 1);
        assert_eq!(lru.map.len(), 1);
    }

    #[test]
    fn lru_stats_reflect_activity() {
        let mut lru = LruCache::new(2);
        lru.insert(key(1), landing(1));
        assert!(lru.get(key(1)).is_some());
        assert!(lru.get(key(2)).is_none());
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len, s.cap), (1, 1, 0, 1, 2));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert!(s.bytes_est > 0);
    }

    #[test]
    fn bounded_cache_returns_bit_identical_reports() {
        // Thrash a capacity-2 cache across 50 distinct designs: every
        // landing must equal the direct bisection bit for bit, hit or
        // miss or evicted-and-recomputed.
        let _l = global_test_lock();
        let arch = CryoCmosConfig::baseline().build();
        let link = InstructionLink::standard();
        let mut lru = LruCache::new(2);
        for round in 0..2 {
            for i in 1..=50u32 {
                let fridge = Fridge::standard().with_budget(Stage::K4, 0.1 * f64::from(i));
                let key = MemoKey::new(&arch, &fridge, &link);
                let direct = crate::bisect(&arch, &fridge, &link);
                let cached = match lru.get(key) {
                    Some(landing) => landing,
                    None => {
                        lru.insert(key, direct.clone());
                        direct.clone()
                    }
                };
                assert_eq!(cached, direct, "round {round}, design {i}");
            }
        }
        assert!(lru.evictions > 0, "a capacity-2 cache must have evicted");
        assert_eq!(lru.map.len(), 2);
    }
}
