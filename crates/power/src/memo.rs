//! Landing memoization.
//!
//! The scalability analysis asks one question per design: the largest
//! qubit count the fridge can power and which stage binds there
//! ([`crate::try_max_qubits_with_link`]). The experiment suite and a
//! long-lived service re-ask it for the same handful of designs over and
//! over, and the answer is a pure function of the `(architecture, fridge,
//! instruction link)` triple, so a process-global cache keyed on that
//! triple turns every repeat analysis into one lookup. It stores the
//! landing search's result — `(max_qubits, binding stage, landing
//! report)` — not its ~6 probes: nothing else reads a probe twice, and a
//! sweep point ([`crate::try_evaluate_with_link`]) costs less than the
//! key.
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
//! # Bounded map
//!
//! The cache is a `HashMap` bounded at [`DEFAULT_CACHE_CAP`] landings
//! (override at runtime with [`set_cache_cap`]) plus a queue of its keys
//! in insertion order. A full cache evicts its oldest insert, one at a
//! time, so a long-lived service sweeping thousands of designs neither
//! grows without bound nor drops the whole working set. A hit only reads
//! the map; it does not move the entry in the queue. The trade-off
//! against a strict LRU: a hot working set mixed with a cold stream of
//! new designs re-lands each hot design once per `cap` newer designs
//! (~10 µs a landing). No in-tree workload has that mix — a served paper
//! mix only hits and a cold sweep never does — so recency would buy
//! nothing there. Caching is transparent — a landing is a pure function
//! of the key — so any capacity yields bit-identical results.
//!
//! The lock is held for the lookup and for the store, never across the
//! landing search, so concurrent analyses land different designs in
//! parallel. Two callers that miss the same design at once both search
//! it; the second store replaces the first's (equal) landing in place.
//!
//! Health is published through `qisim-obs`: `power.cache.{hits,misses,
//! evictions}` counters (one lookup per analysis) and
//! `power.cache.{len,bytes_est}` gauges feed the telemetry exporter, and
//! [`cache_stats`] returns the same numbers directly (independent of the
//! `qisim_obs::set_enabled` kill switch).

use crate::{PowerReport, StagePower};
use qisim_hal::fridge::{Fridge, Stage};
use qisim_hal::wire::InstructionLink;
use qisim_microarch::QciArch;
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Default landing capacity. The whole 19-driver experiment suite
/// lands 22 distinct designs, so every in-tree workload fits without
/// an eviction; [`set_cache_cap`] overrides it.
pub const DEFAULT_CACHE_CAP: usize = 1 << 10;

/// One landing search's result: the maximum qubit count, the binding stage,
/// and the landing report at `max(n, 1)` qubits.
pub(crate) type Landing = (u64, Option<Stage>, PowerReport);

/// Fingerprint of one `(architecture, fridge, instruction-link)` triple:
/// the memo-cache key of that design's landing.
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
    /// Landing lookups that fell through to a fresh landing search.
    pub misses: u64,
    /// Entries displaced because the cache was at capacity.
    pub evictions: u64,
    /// Landings currently resident.
    pub len: usize,
    /// Estimated resident bytes (keys, landings and their stage rows).
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

/// Estimated resident cost of one entry: its key in the map and in the
/// queue, the landing header, and the landing report's stage rows (a
/// searched landing carries one per [`Stage::ALL`] stage).
const ENTRY_BYTES: usize =
    2 * size_of::<MemoKey>() + size_of::<Landing>() + Stage::ALL.len() * size_of::<StagePower>();

/// The cache core: landings by key, and their keys in insertion order
/// (front = oldest = next to evict). `order` holds each resident key
/// exactly once.
#[derive(Debug)]
struct Memo {
    map: HashMap<MemoKey, Landing>,
    order: VecDeque<MemoKey>,
    cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Memo {
    fn new(cap: usize) -> Self {
        Memo {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The landing stored under `key`, counting the hit or miss.
    fn get(&mut self, key: MemoKey) -> Option<Landing> {
        let landing = self.map.get(&key).cloned();
        match landing {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        landing
    }

    /// Stores a landing and returns how many entries it evicted. A new
    /// key joins the back of the queue and the oldest entries are evicted
    /// down to the cap; a resident key only has its landing replaced.
    fn insert(&mut self, key: MemoKey, landing: Landing) -> u64 {
        if self.map.insert(key, landing).is_none() {
            self.order.push_back(key);
        }
        self.evict_over_cap()
    }

    /// Sets the capacity (at least one landing), evicting down to it
    /// immediately; returns how many entries that evicted.
    fn set_cap(&mut self, cap: usize) -> u64 {
        self.cap = cap.max(1);
        self.evict_over_cap()
    }

    fn evict_over_cap(&mut self) -> u64 {
        let excess = self.order.len().saturating_sub(self.cap);
        for key in self.order.drain(..excess) {
            self.map.remove(&key);
        }
        self.evictions += excess as u64;
        excess as u64
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.map.len(),
            bytes_est: self.map.len() * ENTRY_BYTES,
            cap: self.cap,
        }
    }
}

fn locked() -> MutexGuard<'static, Memo> {
    static CACHE: OnceLock<Mutex<Memo>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Memo::new(DEFAULT_CACHE_CAP)));
    cache.lock().unwrap_or_else(|e| e.into_inner())
}

/// Publishes the size gauges after a mutation (under the lock, so the
/// last write is the latest size), releases the lock, and counts the
/// mutation's evictions.
fn publish(memo: MutexGuard<'_, Memo>, evicted: u64) {
    let stats = memo.stats();
    qisim_obs::gauge!("power.cache.len", stats.len as f64);
    qisim_obs::gauge!("power.cache.bytes_est", stats.bytes_est as f64);
    drop(memo);
    if evicted > 0 {
        qisim_obs::counter!("power.cache.evictions", evicted);
    }
}

/// The landing memoized under `key`, or else `search`'s, stored for the
/// next caller. The lock is not held while `search` runs.
pub(crate) fn get_or_search(key: MemoKey, search: impl FnOnce() -> Landing) -> Landing {
    let hit = locked().get(key);
    if let Some(landing) = hit {
        qisim_obs::counter!("power.cache.hits");
        return landing;
    }
    qisim_obs::counter!("power.cache.misses");
    let landing = search();
    let mut memo = locked();
    let evicted = memo.insert(key, landing.clone());
    publish(memo, evicted);
    landing
}

/// Empties the memo cache (benches use this to time cold runs fairly)
/// and zeroes the `power.cache.{len,bytes_est}` gauges it invalidates;
/// the lifetime hit/miss/eviction counters are preserved.
pub fn clear_cache() {
    let mut memo = locked();
    memo.clear();
    publish(memo, 0);
}

/// The cache's lifetime hit/miss/eviction counts and current size — the
/// numbers behind the `power.cache.*` metrics, available even when
/// recording is disabled.
pub fn cache_stats() -> CacheStats {
    locked().stats()
}

/// Overrides the landing capacity at runtime: `Some(cap)` bounds the
/// cache (evicting the oldest entries down to it immediately), `None`
/// restores [`DEFAULT_CACHE_CAP`]. Capacity never affects results, only
/// how many landing searches are re-run.
pub fn set_cache_cap(cap: Option<usize>) {
    let mut memo = locked();
    let evicted = memo.set_cap(cap.unwrap_or(DEFAULT_CACHE_CAP));
    publish(memo, evicted);
}

/// Serializes the unit tests that touch the process-global memo, so one
/// test's `clear_cache` never races a sibling's lookups.
#[cfg(test)]
pub(crate) fn global_test_lock() -> MutexGuard<'static, ()> {
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
        // A distinctive budget no other test is likely to land.
        let fridge = Fridge::standard().with_budget(Stage::K4, 1.234_567);
        let link = InstructionLink::standard();
        let key = MemoKey::new(&arch, &fridge, &link);
        clear_cache();
        let mut searches = 0;
        let mut land = || {
            searches += 1;
            crate::search(&arch, &fridge, &link)
        };
        let landing = get_or_search(key, &mut land);
        assert_eq!(get_or_search(key, &mut land), landing);
        assert_eq!(searches, 1, "the repeat is answered from the cache");
        assert_eq!(cache_stats().len, 1);
        assert_eq!(cache_stats().bytes_est, ENTRY_BYTES);
        clear_cache();
        assert_eq!(cache_stats().len, 0);
        assert_eq!(cache_stats().bytes_est, 0, "clear resets the size estimates");
    }

    // The cache core is unit-tested on a local instance: the global
    // cache is shared by concurrently running tests, so eviction-order
    // assertions would race there.

    fn key(i: u64) -> MemoKey {
        MemoKey { lo: i, hi: !i }
    }

    fn landing(n: u64) -> Landing {
        (n, None, PowerReport { n_qubits: n, stages: Vec::new() })
    }

    #[test]
    fn evicts_the_oldest_insert_first_even_if_just_hit() {
        let mut memo = Memo::new(3);
        for i in 0..3 {
            memo.insert(key(i), landing(i));
        }
        // A hit does not refresh 0: it is still the oldest insert.
        assert!(memo.get(key(0)).is_some());
        assert_eq!(memo.insert(key(3), landing(3)), 1);
        assert_eq!(memo.map.len(), 3);
        assert!(memo.get(key(0)).is_none(), "oldest insert evicted");
        for i in 1..=3 {
            assert!(memo.get(key(i)).is_some(), "newer insert {i} kept");
        }
        assert_eq!(memo.evictions, 1);
    }

    #[test]
    fn queue_holds_each_resident_key_once_and_tracks_bytes() {
        let mut memo = Memo::new(2);
        for i in 0..10 {
            memo.insert(key(i), landing(i));
        }
        assert_eq!(memo.evictions, 8);
        assert_eq!(memo.order, [key(8), key(9)], "evicted keys leave the queue");
        // Storing a resident key again replaces its landing in place:
        // no second queue entry, no eviction.
        assert_eq!(memo.insert(key(8), landing(88)), 0);
        assert_eq!(memo.order, [key(8), key(9)]);
        assert_eq!(memo.order.len(), memo.map.len());
        assert_eq!(memo.evictions, 8);
        assert_eq!(memo.get(key(8)).map(|l| l.0), Some(88));
        assert_eq!(memo.stats().bytes_est, 2 * ENTRY_BYTES);
        // The replaced key keeps its place: it is still the next evicted.
        memo.insert(key(10), landing(10));
        assert_eq!(memo.order, [key(9), key(10)]);
        assert_eq!(memo.stats().bytes_est, 2 * ENTRY_BYTES);
    }

    #[test]
    fn benchmark_traffic_shapes_count_as_expected() {
        // A cold stream: N distinct designs through a cap-C cache never
        // hit, miss N times and evict N - C.
        let (n, cap) = (50, 8);
        let mut memo = Memo::new(cap);
        for i in 0..n {
            assert!(memo.get(key(i)).is_none());
            memo.insert(key(i), landing(i));
        }
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, n, n - cap as u64));
        // A replayed mix of k <= C designs: after the first round every
        // lookup hits.
        let (k, rounds) = (cap as u64, 5);
        let mut memo = Memo::new(cap);
        for _ in 0..rounds {
            for i in 0..k {
                if memo.get(key(i)).is_none() {
                    memo.insert(key(i), landing(i));
                }
            }
        }
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.evictions), ((rounds - 1) * k, k, 0));
    }

    #[test]
    fn lru_shrinking_cap_evicts_down_immediately() {
        let mut memo = Memo::new(8);
        for i in 0..8 {
            memo.insert(key(i), landing(i));
        }
        assert_eq!(memo.set_cap(2), 6);
        assert_eq!(memo.map.len(), 2);
        assert_eq!(memo.evictions, 6);
        // The two newest inserts survive.
        assert!(memo.get(key(6)).is_some());
        assert!(memo.get(key(7)).is_some());
        // Degenerate caps clamp to one entry.
        memo.set_cap(0);
        assert_eq!(memo.cap, 1);
        assert_eq!(memo.map.len(), 1);
    }

    #[test]
    fn lru_stats_reflect_activity() {
        let mut memo = Memo::new(2);
        memo.insert(key(1), landing(1));
        assert!(memo.get(key(1)).is_some());
        assert!(memo.get(key(2)).is_none());
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len, s.cap), (1, 1, 0, 1, 2));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert!(s.bytes_est > 0);
    }

    #[test]
    fn bounded_cache_returns_bit_identical_reports() {
        // Thrash a capacity-2 cache across 50 distinct designs: every
        // landing must equal the direct search bit for bit, hit or
        // miss or evicted-and-recomputed.
        let _l = global_test_lock();
        let arch = CryoCmosConfig::baseline().build();
        let link = InstructionLink::standard();
        let mut memo = Memo::new(2);
        for round in 0..2 {
            for i in 1..=50u32 {
                let fridge = Fridge::standard().with_budget(Stage::K4, 0.1 * f64::from(i));
                let key = MemoKey::new(&arch, &fridge, &link);
                let direct = crate::search(&arch, &fridge, &link);
                let cached = match memo.get(key) {
                    Some(landing) => landing,
                    None => {
                        memo.insert(key, direct.clone());
                        direct.clone()
                    }
                };
                assert_eq!(cached, direct, "round {round}, design {i}");
            }
        }
        assert!(memo.evictions > 0, "a capacity-2 cache must have evicted");
        assert_eq!(memo.map.len(), 2);
    }
}
