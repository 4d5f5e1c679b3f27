//! Content-addressed result cache with single-flight deduplication.
//!
//! Keys are [`JobSpec::cache_key`] values — FNV-1a over the canonical
//! spec text — so the cache answers for *any* equivalent spelling of a
//! job. Every entry also stores the canonical string itself: on the
//! astronomically-unlikely 64-bit collision the strings differ, a
//! counter records the event, and the colliding job is recomputed — a
//! collision can cost a recomputation, never a wrong answer.
//!
//! Single-flight: the first miss for a key becomes the *leader* and runs
//! the simulation; identical submissions that arrive while it is in
//! flight are parked as waiters on the same entry and all receive the
//! leader's result. `n` identical concurrent jobs cost exactly one
//! simulation. Each leader holds a [`Flight`] token, and only that token
//! completes its entry: a job that collides with an in-flight entry runs
//! as a leader whose flight was never entered, so its result reaches
//! neither the other flight's waiters nor the cache.
//!
//! Eviction is LRU over *ready* entries only (in-flight entries are
//! pinned — evicting one would strand its waiters), driven by a
//! monotonic touch tick rather than wall-clock time so behaviour is
//! deterministic under test. Capacity is a budget of *estimated bytes*
//! ([`ccp_store::entry_cost`]), not an entry count: canonical texts range
//! from short benchmark names to long `workgen:` specs, so an entry
//! count would let resident memory drift with the workload mix.
//!
//! The cache is a plain data structure — callers provide locking. The
//! waiter payload is generic (`W`) so the policy is testable without a
//! server around it; `ccp-served` instantiates it with a handle that can
//! reach the submitting connection's writer.
//!
//! [`JobSpec::cache_key`]: ccp_sim::JobSpec::cache_key

use ccp_pipeline::RunStats;
use ccp_store::entry_cost;
use std::collections::HashMap;
use std::sync::Arc;

/// What a lookup tells the caller to do. Exactly one variant owns the
/// waiter afterwards: `Joined` parks it inside the cache, `Miss` hands
/// it back as the leader token, and `Hit` drops it (the caller already
/// holds everything needed to serve the ready result).
#[derive(Debug)]
pub enum Lookup<W> {
    /// Ready result — serve it immediately.
    Hit(Arc<RunStats>),
    /// An identical job is in flight; the caller was parked as a waiter
    /// and will be handed the leader's result via [`ResultCache::complete`].
    Joined,
    /// Nothing usable cached or in flight: the caller is now the leader and must
    /// run the simulation, then call [`ResultCache::complete`] with the
    /// [`Flight`]. Carries the waiter back so leadership is encoded in the
    /// type — there is no "miss but the waiter vanished" state to `expect`
    /// away.
    Miss(W, Flight),
}

/// One leader's flight. [`ResultCache::complete`] and
/// [`ResultCache::for_each_waiter`] act only on the entry this flight
/// created, so a leader can never answer another flight's waiters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flight(u64);

enum Entry<W> {
    Ready {
        canonical: String,
        stats: Arc<RunStats>,
        last_used: u64,
    },
    InFlight {
        canonical: String,
        flight: Flight,
        waiters: Vec<W>,
    },
}

/// Hit/miss/eviction counters, exported verbatim into the `stats`
/// response.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from a ready entry.
    pub hits: u64,
    /// Lookups parked on an in-flight leader.
    pub joined: u64,
    /// Lookups that elected a new leader.
    pub misses: u64,
    /// Ready entries evicted by LRU.
    pub evictions: u64,
    /// Key collisions detected (canonical text mismatch).
    pub collisions: u64,
}

/// The content-addressed result cache. See the module docs for policy.
pub struct ResultCache<W> {
    capacity_bytes: usize,
    bytes: usize,
    tick: u64,
    map: HashMap<u64, Entry<W>>,
    counters: CacheCounters,
}

impl<W> ResultCache<W> {
    /// An empty cache whose ready entries are bounded by an estimated
    /// `capacity_bytes` budget (0 disables retention: every lookup is a
    /// miss or a join, and completed results are dropped once delivered).
    pub fn new(capacity_bytes: usize) -> ResultCache<W> {
        ResultCache {
            capacity_bytes,
            bytes: 0,
            tick: 0,
            map: HashMap::new(),
            counters: CacheCounters::default(),
        }
    }

    /// Looks up `key`. On [`Lookup::Joined`] the `waiter` is parked on the
    /// in-flight entry; on [`Lookup::Miss`] it is handed back and the
    /// caller becomes the leader; on [`Lookup::Hit`] it is dropped.
    pub fn lookup(&mut self, key: u64, canonical: &str, waiter: W) -> Lookup<W> {
        self.tick += 1;
        let flight = Flight(self.tick);
        match self.map.get_mut(&key) {
            Some(Entry::Ready {
                canonical: c,
                stats,
                last_used,
            }) if c == canonical => {
                *last_used = self.tick;
                self.counters.hits += 1;
                return Lookup::Hit(Arc::clone(stats));
            }
            Some(Entry::InFlight {
                canonical: c,
                waiters,
                ..
            }) if c == canonical => {
                waiters.push(waiter);
                self.counters.joined += 1;
                return Lookup::Joined;
            }
            // 64-bit collision with a flight for different canonical text:
            // that flight keeps its entry and its waiters; this job runs
            // under a flight that is never entered, so it is not cached.
            Some(Entry::InFlight { .. }) => {
                self.counters.collisions += 1;
                self.counters.misses += 1;
                return Lookup::Miss(waiter, flight);
            }
            // 64-bit collision with a ready entry: discard it and
            // recompute — never serve it.
            Some(Entry::Ready { canonical: c, .. }) => {
                self.counters.collisions += 1;
                self.bytes = self.bytes.saturating_sub(entry_cost(c));
            }
            None => {}
        }
        self.map.insert(
            key,
            Entry::InFlight {
                canonical: canonical.to_string(),
                flight,
                waiters: Vec::new(),
            },
        );
        self.counters.misses += 1;
        Lookup::Miss(waiter, flight)
    }

    /// The leader of `flight` finished: returns every waiter parked on
    /// that flight (the caller delivers `result` to each of them and to
    /// itself). On success the entry becomes ready (and LRU may evict the
    /// oldest ready entry); on failure it is removed — errors are never
    /// cached, so a transient failure doesn't poison the key. A flight
    /// that was never entered (see [`Lookup::Miss`]) returns no waiters
    /// and leaves the cache untouched.
    pub fn complete(&mut self, key: u64, flight: Flight, stats: Option<&Arc<RunStats>>) -> Vec<W> {
        match self.map.remove(&key) {
            Some(Entry::InFlight {
                canonical,
                flight: f,
                waiters,
            }) if f == flight => {
                if let Some(stats) = stats {
                    self.tick += 1;
                    self.bytes += entry_cost(&canonical);
                    self.map.insert(
                        key,
                        Entry::Ready {
                            canonical,
                            stats: Arc::clone(stats),
                            last_used: self.tick,
                        },
                    );
                    self.evict_to_capacity();
                }
                waiters
            }
            // Another flight's entry: it keeps its own waiters.
            Some(other) => {
                self.map.insert(key, other);
                Vec::new()
            }
            None => Vec::new(),
        }
    }

    /// Visits every waiter parked on `flight` (for streaming progress to
    /// joined submissions).
    pub fn for_each_waiter(&self, key: u64, flight: Flight, f: impl FnMut(&W)) {
        match self.map.get(&key) {
            Some(Entry::InFlight {
                flight: own,
                waiters,
                ..
            }) if *own == flight => waiters.iter().for_each(f),
            _ => {}
        }
    }

    fn evict_to_capacity(&mut self) {
        while self.bytes > self.capacity_bytes {
            let oldest = self
                .map
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready { last_used, .. } => Some((*last_used, *k)),
                    Entry::InFlight { .. } => None,
                })
                .min();
            let Some((_, victim)) = oldest else {
                // Over budget with no ready entries left (in-flight
                // entries are pinned and unaccounted) — nothing to evict.
                return;
            };
            if let Some(Entry::Ready { canonical, .. }) = self.map.remove(&victim) {
                self.bytes = self.bytes.saturating_sub(entry_cost(&canonical));
                self.counters.evictions += 1;
            }
        }
    }

    /// Ready entries currently held.
    pub fn entries(&self) -> usize {
        self.map
            .values()
            .filter(|e| matches!(e, Entry::Ready { .. }))
            .count()
    }

    /// Estimated bytes held by ready entries.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64) -> Arc<RunStats> {
        Arc::new(RunStats {
            cycles,
            ..Default::default()
        })
    }

    /// Budget for `n` entries with single-byte canonical texts.
    fn cap(n: usize) -> usize {
        n * entry_cost("a")
    }

    #[test]
    fn miss_then_hit_then_lru_eviction() {
        let mut c: ResultCache<u32> = ResultCache::new(cap(2));
        for (k, name) in [(1, "a"), (2, "b"), (3, "c")] {
            let (_, f) = c.lookup(k, name, 0).assert_miss();
            let w = c.complete(k, f, Some(&stats(k)));
            assert!(w.is_empty());
        }
        // Capacity 2: key 1 (oldest) was evicted, 2 and 3 remain.
        assert_eq!(c.entries(), 2);
        assert_eq!(c.counters().evictions, 1);
        let (_, f) = c.lookup(1, "a", 0).assert_miss();
        c.complete(1, f, Some(&stats(1)));
        match c.lookup(3, "c", 0) {
            Lookup::Hit(s) => assert_eq!(s.cycles, 3),
            other => panic!("expected hit, got {other:?}"),
        }
        // Touching 3 made 2 the LRU entry now.
        let (_, f) = c.lookup(4, "d", 0).assert_miss();
        c.complete(4, f, Some(&stats(4)));
        c.lookup(2, "b", 0).assert_miss();
    }

    #[test]
    fn single_flight_parks_waiters_and_delivers_once() {
        let mut c: ResultCache<&str> = ResultCache::new(1 << 20);
        // The miss hands the waiter back as the leader token.
        let (leader, f) = c.lookup(7, "job", "leader").assert_miss();
        assert_eq!(leader, "leader");
        assert!(matches!(c.lookup(7, "job", "w1"), Lookup::Joined));
        assert!(matches!(c.lookup(7, "job", "w2"), Lookup::Joined));
        assert_eq!(c.counters().joined, 2);
        let mut seen = 0;
        c.for_each_waiter(7, f, |_| seen += 1);
        assert_eq!(seen, 2);
        let waiters = c.complete(7, f, Some(&stats(9)));
        assert_eq!(waiters, vec!["w1", "w2"]);
        match c.lookup(7, "job", "late") {
            Lookup::Hit(s) => assert_eq!(s.cycles, 9),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn failures_are_not_cached() {
        let mut c: ResultCache<u32> = ResultCache::new(cap(4));
        let (_, f) = c.lookup(5, "j", 1).assert_miss();
        assert!(matches!(c.lookup(5, "j", 2), Lookup::Joined));
        let waiters = c.complete(5, f, None);
        assert_eq!(waiters, vec![2]);
        // The error was delivered but not retained: next lookup re-runs.
        c.lookup(5, "j", 3).assert_miss();
        assert_eq!(c.entries(), 0);
    }

    #[test]
    fn collision_is_detected_and_recomputed() {
        let mut c: ResultCache<u32> = ResultCache::new(1 << 20);
        let (_, f) = c.lookup(5, "alpha", 1).assert_miss();
        c.complete(5, f, Some(&stats(1)));
        // Same key, different canonical text: must NOT serve alpha's stats.
        let (w, f) = c.lookup(5, "beta", 2).assert_miss();
        assert_eq!(w, 2);
        assert_eq!(c.counters().collisions, 1);
        c.complete(5, f, Some(&stats(2)));
        match c.lookup(5, "beta", 3) {
            Lookup::Hit(s) => assert_eq!(s.cycles, 2),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn colliding_flight_never_answers_the_other_flights_waiters() {
        // Regression: a lookup colliding with an in-flight entry used to
        // replace that flight, dropping its waiters, and the displaced
        // leader then completed the replacement under the wrong canonical
        // text.
        let mut c: ResultCache<u32> = ResultCache::new(1 << 20);
        let (_, alpha) = c.lookup(5, "alpha", 1).assert_miss();
        assert!(matches!(c.lookup(5, "alpha", 10), Lookup::Joined));
        let (_, beta) = c.lookup(5, "beta", 2).assert_miss();
        assert_eq!(c.counters().collisions, 1);
        // Beta's flight was never entered: no progress or result for 10.
        let mut seen = 0;
        c.for_each_waiter(5, beta, |_| seen += 1);
        assert_eq!(seen, 0);
        assert_eq!(c.complete(5, alpha, Some(&stats(111))), vec![10]);
        match c.lookup(5, "beta", 3) {
            Lookup::Miss(3, _) => {}
            other => panic!("beta must not see alpha's result, got {other:?}"),
        }
        // The uncached beta leader finishing touches nothing.
        assert!(c.complete(5, beta, Some(&stats(222))).is_empty());
        assert!(matches!(c.lookup(5, "beta", 4), Lookup::Joined));
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let mut c: ResultCache<u32> = ResultCache::new(0);
        let (_, f) = c.lookup(1, "a", 0).assert_miss();
        c.complete(1, f, Some(&stats(1)));
        c.lookup(1, "a", 0).assert_miss();
        assert_eq!(c.entries(), 0);
        assert_eq!(c.counters().misses, 2);
    }

    #[test]
    fn eviction_tracks_bytes_not_entry_count() {
        // Regression: the budget is bytes, so one entry with a long
        // canonical text displaces several short ones — under an
        // entry-count bound all four would stay resident.
        let long = "workgen:addr=zipf,small=0.6,pointer=0.3,footprint=1048576,stride=64".repeat(4);
        let budget = 3 * entry_cost("a") + entry_cost(&long) - 1;
        let mut c: ResultCache<u32> = ResultCache::new(budget);
        for (k, name) in [(1, "a"), (2, "b"), (3, "c")] {
            let (_, f) = c.lookup(k, name, 0).assert_miss();
            c.complete(k, f, Some(&stats(k)));
        }
        assert_eq!(c.entries(), 3);
        assert_eq!(c.bytes(), 3 * entry_cost("a"));
        let (_, f) = c.lookup(9, &long, 0).assert_miss();
        c.complete(9, f, Some(&stats(9)));
        // The long entry pushed the cache over budget: the oldest short
        // entry went, and accounting reflects the remaining residents.
        assert_eq!(c.entries(), 3);
        assert_eq!(c.counters().evictions, 1);
        assert_eq!(c.bytes(), 2 * entry_cost("a") + entry_cost(&long));
        assert!(c.bytes() <= budget);
        let (_, f) = c.lookup(1, "a", 0).assert_miss();
        // Evicting the replacement flight keeps accounting consistent.
        c.complete(1, f, Some(&stats(1)));
        assert!(c.bytes() <= budget);
    }

    impl<W: std::fmt::Debug> Lookup<W> {
        /// Asserts the miss and returns the leader token and its flight.
        fn assert_miss(self) -> (W, Flight) {
            match self {
                Lookup::Miss(w, f) => (w, f),
                other => panic!("expected miss, got {other:?}"),
            }
        }
    }
}
