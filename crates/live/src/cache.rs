//! Epoch-keyed query caching for the sharded reader.
//!
//! A [`ShardedReader`](crate::ShardedReader) answers every query
//! from one published view — every shard's snapshot plus the global
//! blend, frozen together under one epoch number — so two queries
//! over the *same* epoch, the same normalized terms and the same `k`
//! are guaranteed — not just likely — to return bit-identical hits.
//! That makes the cache key trivial and invalidation free:
//!
//! * **key** = the view's epoch, the [`normalize_query`]-normalized
//!   terms, and `k`. Every routed commit publishes a view under a
//!   fresh epoch, so every entry keyed to an older view simply stops
//!   matching. No flush, no write-path coordination at all.
//! * **epochs never repeat within a process**, across every service
//!   in it, so a view from one service can never hit an entry filled
//!   from another's.
//! * **eviction** is capacity-bounded FIFO: hits never take the write
//!   lock, so the hot path over a stable epoch is one read-locked
//!   hash probe plus a result clone. Epoch swaps naturally age dead
//!   entries out through the same FIFO.
//!
//! Transparency — a cached reader never observes anything a fresh
//! uncached query against the view it holds would not return — is
//! pinned by the `cache_transparency` concurrency suite in
//! `crates/live/tests`.

use obs_search::{normalize_query, SearchHit};
use obs_telemetry::{Counter, Registry};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::RwLock;

/// Hit/miss/fill/eviction counters for one [`QueryCache`],
/// registered in an [`obs_telemetry::Registry`]. Cheap to clone;
/// recording is lock-free.
#[derive(Debug, Clone)]
pub struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    fills: Counter,
    evictions: Counter,
}

impl CacheMetrics {
    /// Registers the query-cache instruments in `registry`.
    pub fn new(registry: &Registry) -> CacheMetrics {
        // Name literals stay inline at each registration call so the
        // instrument-drift lint pass can see them.
        CacheMetrics {
            hits: registry.counter("live_query_cache_hits_total"),
            misses: registry.counter("live_query_cache_misses_total"),
            fills: registry.counter("live_query_cache_fills_total"),
            evictions: registry.counter("live_query_cache_evictions_total"),
        }
    }

    /// Queries answered from a cached entry.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Queries that missed and ran the scatter plan.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries written after a miss.
    pub fn fills(&self) -> u64 {
        self.fills.get()
    }

    /// Entries displaced by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }
}

/// The full identity of one answerable query: view epoch,
/// normalized terms (in query order, duplicates included — the
/// scorer collapses them, so keys stay a pure function of the
/// normalized input), result size.
type CacheKey = (u64, Vec<String>, usize);

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, Vec<SearchHit>>,
    /// Insertion order for FIFO eviction. May briefly hold keys a
    /// racing insert already displaced; eviction skips those.
    fifo: VecDeque<CacheKey>,
}

/// A capacity-bounded, epoch-keyed cache of scatter-gather query
/// results. Attach one to a service with
/// [`ShardedLiveService::with_query_cache`](crate::ShardedLiveService::with_query_cache);
/// every reader the service hands out then shares it.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    metrics: Option<CacheMetrics>,
    inner: RwLock<CacheInner>,
}

impl QueryCache {
    /// A cache holding at most `capacity` entries (FIFO eviction).
    /// Zero capacity is legal and caches nothing — every query runs
    /// the plan, which keeps the knob safe to drive from config.
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity,
            metrics: None,
            inner: RwLock::new(CacheInner::default()),
        }
    }

    /// Attaches hit/miss/fill/eviction counters.
    pub fn with_metrics(mut self, metrics: CacheMetrics) -> QueryCache {
        self.metrics = Some(metrics);
        self
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.read(|inner| inner.map.len())
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answers a query from the cache, or runs `compute` over the
    /// normalized terms and fills the entry. The caller supplies the
    /// epoch of the exact view the computation will read — it *is*
    /// the epoch half of the key — so a returned hit is always the
    /// bit-identical result of the same plan over the same frozen
    /// state.
    pub(crate) fn query_or_compute<S: AsRef<str>>(
        &self,
        epoch: u64,
        terms: &[S],
        k: usize,
        compute: impl FnOnce(&[String]) -> Vec<SearchHit>,
    ) -> Vec<SearchHit> {
        let terms: Vec<String> = normalize_query(terms)
            .into_iter()
            .map(Cow::into_owned)
            .collect();
        let key = (epoch, terms, k);
        if let Some(hits) = self.read(|inner| inner.map.get(&key).cloned()) {
            if let Some(m) = &self.metrics {
                m.hits.inc();
            }
            return hits;
        }
        if let Some(m) = &self.metrics {
            m.misses.inc();
        }
        let hits = compute(&key.1);
        self.fill(key, hits.clone());
        hits
    }

    /// Inserts one computed entry, evicting FIFO-oldest entries while
    /// over capacity.
    fn fill(&self, key: CacheKey, hits: Vec<SearchHit>) {
        if self.capacity == 0 {
            return;
        }
        let mut evicted = 0u64;
        let mut filled = false;
        self.write(|inner| {
            while inner.map.len() >= self.capacity {
                let Some(oldest) = inner.fifo.pop_front() else {
                    break;
                };
                if inner.map.remove(&oldest).is_some() {
                    evicted += 1;
                }
            }
            // A racing thread may have filled the same key between
            // our miss and this insert; replacing its value with the
            // bit-identical one is harmless, but the FIFO should not
            // hold the key twice.
            if inner.map.insert(key.clone(), hits).is_none() {
                inner.fifo.push_back(key);
                filled = true;
            }
        });
        if let Some(m) = &self.metrics {
            if filled {
                m.fills.inc();
            }
            for _ in 0..evicted {
                m.evictions.inc();
            }
        }
    }

    /// Runs `f` under the read lock. A poisoned lock only means a
    /// reader panicked mid-probe; the map itself is always intact.
    fn read<T>(&self, f: impl FnOnce(&CacheInner) -> T) -> T {
        match self.inner.read() {
            Ok(guard) => f(&guard),
            Err(poisoned) => f(&poisoned.into_inner()),
        }
    }

    /// Runs `f` under the write lock, with the same poisoned-lock
    /// recovery as reads.
    fn write(&self, f: impl FnOnce(&mut CacheInner)) {
        match self.inner.write() {
            Ok(mut guard) => f(&mut guard),
            Err(poisoned) => f(&mut poisoned.into_inner()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedLiveService;
    use obs_analytics::{AlexaPanel, LinkGraph};
    use obs_model::{CorpusDelta, PostId};
    use obs_search::{BlendWeights, SearchEngine};
    use obs_synth::{World, WorldConfig};

    fn world_and_engine() -> (World, SearchEngine) {
        let world = World::generate(WorldConfig::small(777));
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 2);
        let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
        (world, engine)
    }

    fn query(
        cache: &QueryCache,
        engine: &SearchEngine,
        epoch: u64,
        term: &str,
        computed: &mut usize,
    ) -> Vec<SearchHit> {
        cache.query_or_compute(epoch, &[term], 10, |normalized| {
            *computed += 1;
            engine.query(normalized, 10)
        })
    }

    #[test]
    fn second_identical_query_is_served_without_computing() {
        let (_, engine) = world_and_engine();
        let registry = Registry::new();
        let metrics = CacheMetrics::new(&registry);
        let cache = QueryCache::new(8).with_metrics(metrics.clone());
        let mut computed = 0;
        let first = query(&cache, &engine, 0, "duomo", &mut computed);
        let second = query(&cache, &engine, 0, "duomo", &mut computed);
        assert_eq!(first, second);
        assert_eq!(computed, 1, "the hit must not recompute");
        assert_eq!((metrics.hits(), metrics.misses()), (1, 1));
        assert_eq!(metrics.fills(), 1);
        let text = registry.render_text();
        assert!(text.contains("live_query_cache_hits_total 1"));
    }

    #[test]
    fn messy_and_normalized_forms_share_one_entry() {
        let (_, engine) = world_and_engine();
        let cache = QueryCache::new(8);
        let mut computed = 0;
        let clean = query(&cache, &engine, 0, "duomo", &mut computed);
        let messy = query(&cache, &engine, 0, "The DUOMO!", &mut computed);
        assert_eq!(clean, messy);
        assert_eq!(computed, 1, "normalization must unify the keys");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_new_epoch_retires_entries() {
        let (_, engine) = world_and_engine();
        let cache = QueryCache::new(8);
        let mut computed = 0;
        query(&cache, &engine, 0, "duomo", &mut computed);
        query(&cache, &engine, 1, "duomo", &mut computed);
        assert_eq!(computed, 2, "a new epoch must miss");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn services_with_equal_commit_counts_never_share_entries() {
        // Two services, each one commit past start, over different
        // halves of the corpus. A per-service commit counter would
        // give both views the same key; process-wide epochs must not.
        let (world, engine) = world_and_engine();
        let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
        let mut seed = engine.clone();
        seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
        let (left, right) = all.split_at(all.len() / 2);
        let base = std::env::temp_dir().join(format!("obs_live_cache_{}", std::process::id()));
        let start = |tag: &str, posts: &[PostId], cache: Option<QueryCache>| {
            let service = ShardedLiveService::start(&seed, 2, base.join(tag)).unwrap();
            let mut service = match cache {
                Some(cache) => service.with_query_cache(cache),
                None => service,
            };
            service
                .ingest(&CorpusDelta::for_posts(&world.corpus, posts).unwrap())
                .unwrap();
            service
        };
        let registry = Registry::new();
        let metrics = CacheMetrics::new(&registry);
        let a = start(
            "a",
            left,
            Some(QueryCache::new(8).with_metrics(metrics.clone())),
        );
        let b = start("b", right, None);
        let (reader_a, reader_b) = (a.reader(), b.reader());
        let terms = ["duomo", "castle", "gardens", "market"];

        let from_a = reader_a.query(&terms, 10);
        let pin_b = reader_b.pin();
        let from_b = reader_b.query_uncached(&pin_b, &terms, 10);
        assert_ne!(from_a, from_b, "the halves must rank differently");
        assert_eq!(reader_a.query_pinned(&pin_b, &terms, 10), from_b);
        assert_eq!((metrics.hits(), metrics.misses()), (0, 2));
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn capacity_bound_evicts_fifo_and_zero_capacity_stores_nothing() {
        let (_, engine) = world_and_engine();
        let registry = Registry::new();
        let metrics = CacheMetrics::new(&registry);
        let cache = QueryCache::new(2).with_metrics(metrics.clone());
        let mut computed = 0;
        for term in ["duomo", "castle", "market"] {
            query(&cache, &engine, 0, term, &mut computed);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(metrics.evictions(), 1);
        // The oldest entry ("duomo") was the one displaced.
        query(&cache, &engine, 0, "market", &mut computed);
        assert_eq!(computed, 3, "newest entries must have survived");
        query(&cache, &engine, 0, "duomo", &mut computed);
        assert_eq!(computed, 4, "the FIFO-oldest entry must be gone");

        let none = QueryCache::new(0);
        let mut recomputed = 0;
        query(&none, &engine, 0, "duomo", &mut recomputed);
        query(&none, &engine, 0, "duomo", &mut recomputed);
        assert_eq!(recomputed, 2);
        assert!(none.is_empty());
    }
}
