//! Cache transparency under concurrent ingest: readers racing
//! `ingest_batch` through a cached [`ShardedReader`] never observe a
//! stale hit.
//!
//! The contract under test is the one the epoch-keyed
//! [`QueryCache`](obs_live::QueryCache) is built on: a cache entry is
//! keyed by the epoch of the exact published view (every shard's
//! snapshot plus the global blend) that produced it, so a hit can
//! only ever be served to a reader *holding that same view*. The test
//! makes the contract observable — each reader iteration pins a view,
//! asks the cached path and the uncached oracle for the same query
//! **on that pin**, and demands bit-identical rankings — while a
//! writer publishes new views underneath it as fast as it can. A
//! cache that survived a view swap (or leaked an entry across blend
//! re-publication) would hand a reader a ranking from documents its
//! pinned view doesn't hold, and the oracle comparison would fail.
//!
//! Determinism discipline matches `live_concurrency.rs`: the thread
//! interleaving is free, the assertions are not. Run under
//! `--release` too (CI does) — races hide in debug timings.

use obs_analytics::{AlexaPanel, LinkGraph};
use obs_live::{CacheMetrics, QueryCache, ShardedLiveService};
use obs_model::{CorpusDelta, PostId};
use obs_search::{BlendWeights, SearchEngine};
use obs_synth::{World, WorldConfig};
use obs_telemetry::Registry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("obs_live_cachet_{}_{}", std::process::id(), tag))
}

/// An engine carrying the world's static signals but zero documents.
fn empty_seed(world: &World, engine: &SearchEngine) -> SearchEngine {
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    let mut empty = engine.clone();
    empty.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
    empty
}

fn delta_stream(world: &World, chunk: usize) -> Vec<CorpusDelta> {
    let posts: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    posts
        .chunks(chunk)
        .map(|c| CorpusDelta::for_posts(&world.corpus, c).unwrap())
        .collect()
}

fn cleanup(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
}

const QUERIES: [&[&str]; 4] = [
    &["duomo", "rooftop"],
    &["castle", "gardens"],
    &["market", "fountain"],
    &["duomo", "castle", "museum"],
];

#[test]
fn racing_readers_never_observe_a_stale_cache_hit() {
    let world = World::generate(WorldConfig {
        sources: 60,
        users: 300,
        ..WorldConfig::small(9119)
    });
    let panel = AlexaPanel::simulate(&world, 1);
    let links = LinkGraph::simulate(&world, 2);
    let full = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let seed = empty_seed(&world, &full);
    let stream = delta_stream(&world, 9);

    let dir = temp_dir("race");
    let registry = Registry::new();
    let metrics = CacheMetrics::new(&registry);
    let mut service = ShardedLiveService::start(&seed, 3, &dir)
        .unwrap()
        .with_query_cache(QueryCache::new(256).with_metrics(metrics.clone()));

    // Prime one burst so readers racing the very first publish still
    // have a non-empty corpus to rank.
    service.ingest_batch(&stream[..1]).unwrap();

    let reader = service.reader();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // 6 reader threads, each cycling the query mix against its
        // own pinned views while the writer publishes underneath.
        for t in 0..6usize {
            let reader = reader.clone();
            let done = &done;
            scope.spawn(move || {
                let mut iterations = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let terms = QUERIES[(t + iterations) % QUERIES.len()];
                    let pinned = reader.pin();
                    let cached = reader.query_pinned(&pinned, terms, 25);
                    let oracle = reader.query_uncached(&pinned, terms, 25);
                    assert_eq!(
                        cached,
                        oracle,
                        "reader {t} iteration {iterations}: cached ranking diverged \
                         from a fresh query over the same pinned view {:?}",
                        pinned.seqs()
                    );
                    iterations += 1;
                    // One full pass after the writer finishes, so the
                    // final epochs are exercised too.
                    if finished && iterations >= QUERIES.len() {
                        break;
                    }
                }
            });
        }
        // The writer: publish every remaining burst, then signal.
        for batch in stream[1..].chunks(2) {
            service.ingest_batch(batch).unwrap();
        }
        done.store(true, Ordering::Release);
    });

    assert_eq!(service.doc_count(), full.doc_count());
    // The mix repeats queries within an epoch, so the cache must have
    // actually served hits — otherwise this test exercised nothing.
    assert!(
        metrics.hits() > 0,
        "cache never hit: the race test is vacuous"
    );
    assert!(metrics.fills() > 0);
    cleanup(&dir);
}

#[test]
fn epoch_publication_invalidates_without_explicit_flush() {
    let world = World::generate(WorldConfig::small(9120));
    let panel = AlexaPanel::simulate(&world, 1);
    let links = LinkGraph::simulate(&world, 2);
    let full = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let seed = empty_seed(&world, &full);
    let stream = delta_stream(&world, 11);

    let dir = temp_dir("epochs");
    let registry = Registry::new();
    let metrics = CacheMetrics::new(&registry);
    let mut service = ShardedLiveService::start(&seed, 2, &dir)
        .unwrap()
        .with_query_cache(QueryCache::new(64).with_metrics(metrics.clone()));
    let reader = service.reader();
    let probe = ["duomo", "gardens"];

    let mut last = None;
    for batch in stream.chunks(3) {
        service.ingest_batch(batch).unwrap();
        // Same terms, same k — but a fresh view, so the cached path
        // must recompute and track the growing corpus.
        let pinned = reader.pin();
        let hits = reader.query_pinned(&pinned, &probe, 30);
        assert_eq!(hits, reader.query_uncached(&pinned, &probe, 30));
        // Second ask on the same pin is a pure hit, same answer.
        assert_eq!(hits, reader.query_pinned(&pinned, &probe, 30));
        last = Some(hits);
    }
    let unsharded = full.query(&probe, 30);
    assert_eq!(
        last.unwrap(),
        unsharded,
        "final cached ranking must match the batch engine"
    );
    // Every chunk filled a fresh entry; every second ask hit.
    let chunks = stream.chunks(3).count() as u64;
    assert_eq!(metrics.fills(), chunks);
    assert!(metrics.hits() >= chunks);
    cleanup(&dir);
}
