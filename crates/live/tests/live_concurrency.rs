//! Concurrent correctness of the serving layer.
//!
//! N reader threads pin views while one writer ingests a known
//! sequence of deltas into a 3-shard service. The test is
//! deterministic in what it *asserts* (not in thread interleaving,
//! which is the point): the expected state after every commit is
//! precomputed — the per-shard sequence tuple from a bare
//! [`ShardRouter`] over the same deltas, the documents, rankings and
//! static scores from a scratch engine fed the same deltas — so every
//! view any reader pins, whichever commit it races with, must match
//! one of the precomputed commits *exactly*, and the commits each
//! reader observes must be monotone. A torn read (a half-applied
//! delta, or shards and blend from different commits) fails both
//! checks.
//!
//! Run this under `--release` too: races hide in debug timings (CI
//! does — see the test job).

use obs_analytics::{AlexaPanel, LinkGraph};
use obs_live::{PinnedShards, ShardRouter, ShardedLiveService};
use obs_model::{CorpusDelta, PostId, SourceId};
use obs_search::{BlendWeights, SearchEngine, SearchHit};
use obs_synth::{World, WorldConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const SHARDS: usize = 3;
const PROBE: [&str; 4] = ["duomo", "rooftop", "castle", "gardens"];

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("obs_live_conc_{}_{}", std::process::id(), tag))
}

fn cleanup(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
}

/// What a reader must see at one commit boundary.
struct Boundary {
    /// Index of the commit (0 = the empty start).
    commit: usize,
    docs: usize,
    hits: Vec<SearchHit>,
    static_scores: Vec<u64>,
}

/// The expected trajectory, keyed by the per-shard sequence tuple a
/// view carries after each commit.
struct Expected {
    sources: Vec<SourceId>,
    boundaries: BTreeMap<Vec<u64>, Boundary>,
    final_seqs: Vec<u64>,
}

impl Expected {
    /// Precomputes the state after each of `commits` (each a burst
    /// of deltas ingested with one `ingest_batch`).
    fn precompute(world: &World, seed: &SearchEngine, commits: &[&[CorpusDelta]]) -> Expected {
        let sources: Vec<SourceId> = world.corpus.sources().iter().map(|s| s.id).collect();
        let mut router = ShardRouter::new(SHARDS);
        let mut engine = seed.clone();
        let mut seqs = vec![0u64; SHARDS];
        let mut boundaries = BTreeMap::new();
        let boundary = |commit: usize, engine: &SearchEngine| Boundary {
            commit,
            docs: engine.doc_count(),
            hits: engine.query(&PROBE, 20),
            static_scores: sources
                .iter()
                .map(|&s| engine.static_score(s).to_bits())
                .collect(),
        };
        boundaries.insert(seqs.clone(), boundary(0, &engine));
        for (i, burst) in commits.iter().enumerate() {
            for delta in burst.iter() {
                for (shard, sub) in router.route(delta).iter().enumerate() {
                    if !sub.is_empty() {
                        seqs[shard] += 1;
                    }
                }
            }
            engine.apply_deltas(burst.iter());
            let previous = boundaries.insert(seqs.clone(), boundary(i + 1, &engine));
            assert!(previous.is_none(), "commit {} changed no shard", i + 1);
        }
        Expected {
            sources,
            boundaries,
            final_seqs: seqs,
        }
    }

    /// Checks one pinned view against the trajectory and returns the
    /// commit it belongs to.
    fn check(&self, reader_id: usize, pinned: &PinnedShards, hits: Vec<SearchHit>) -> usize {
        let seqs = pinned.seqs();
        let Some(expected) = self.boundaries.get(&seqs) else {
            panic!("reader {reader_id}: pinned a mixed view {seqs:?} no commit produced")
        };
        assert_eq!(
            pinned.doc_count(),
            expected.docs,
            "reader {reader_id}: torn doc count at {seqs:?}"
        );
        assert_eq!(
            hits, expected.hits,
            "reader {reader_id}: torn query result at {seqs:?}"
        );
        let scores: Vec<u64> = self
            .sources
            .iter()
            .map(|&s| pinned.static_score(s).to_bits())
            .collect();
        assert_eq!(
            scores, expected.static_scores,
            "reader {reader_id}: pinned blend is not the blend of commit {}",
            expected.commit
        );
        expected.commit
    }
}

/// A world, its seed engine (static signals, zero documents) and the
/// full post history as `chunks` deltas.
fn fixture(world_seed: u64, chunks: usize) -> (World, SearchEngine, Vec<CorpusDelta>) {
    let world = World::generate(WorldConfig {
        sources: 60,
        users: 300,
        ..WorldConfig::small(world_seed)
    });
    let panel = AlexaPanel::simulate(&world, 1);
    let links = LinkGraph::simulate(&world, 2);
    let full = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    assert!(all.len() >= chunks, "world too small: {}", all.len());
    let mut seed = full;
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
    let deltas = all
        .chunks(all.len().div_ceil(chunks))
        .map(|chunk| CorpusDelta::for_posts(&world.corpus, chunk).unwrap())
        .collect();
    (world, seed, deltas)
}

/// Sets the flag when dropped, so readers stop even if the writer
/// panics mid-run.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Spawns `readers` threads that pin views in a loop and validate
/// each against `expected` while `write` runs, then one more after
/// it finishes. Returns the number of views validated.
fn race_readers(
    service: &mut ShardedLiveService,
    expected: &Expected,
    readers: usize,
    write: impl FnOnce(&mut ShardedLiveService),
) -> u64 {
    let pins_checked = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for reader_id in 0..readers {
            let reader = service.reader();
            let checked = &pins_checked;
            let done = &done;
            handles.push(scope.spawn(move || {
                let mut last_commit = 0usize;
                loop {
                    // Read before pinning: once the writer is done,
                    // this pin sees its last view.
                    let finished = done.load(Ordering::Acquire);
                    let pinned = reader.pin();
                    let hits = reader.query_uncached(&pinned, &PROBE, 20);
                    let commit = expected.check(reader_id, &pinned, hits);
                    assert!(
                        commit >= last_commit,
                        "reader {reader_id}: commit regressed {last_commit} -> {commit}"
                    );
                    last_commit = commit;
                    checked.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                }
            }));
        }
        let _stop = SetOnDrop(&done);
        write(service);
        drop(_stop);
        for handle in handles {
            handle.join().expect("reader thread panicked");
        }
    });
    pins_checked.load(Ordering::Relaxed)
}

#[test]
fn readers_never_observe_torn_or_regressing_snapshots() {
    let (world, seed, deltas) = fixture(7007, 16);
    let commits: Vec<&[CorpusDelta]> = deltas.iter().map(std::slice::from_ref).collect();
    let expected = Expected::precompute(&world, &seed, &commits);

    let dir = temp_dir("torn");
    let mut service = ShardedLiveService::start(&seed, SHARDS, &dir).unwrap();
    // The writer: route → journal → apply → publish, one delta at a
    // time.
    let checked = race_readers(&mut service, &expected, 4, |service| {
        for delta in &deltas {
            service.ingest(delta).unwrap();
        }
    });

    // Every reader ran to the final commit and validated at least one
    // view.
    assert!(checked >= 4);
    assert_eq!(service.seqs(), expected.final_seqs);
    cleanup(&dir);
}

#[test]
fn readers_racing_batched_ingest_observe_only_batch_boundaries() {
    // Group-commit ingestion publishes one view per *batch*, after
    // every shard's slice has committed: neither the states "inside"
    // a batch nor a view mixing shards (or the blend) of different
    // batches may ever be pinned. Readers validate every pin against
    // the per-batch trajectory, keyed by the view's shard-seq tuple.
    let (world, seed, deltas) = fixture(7009, 16);
    let batches: Vec<&[CorpusDelta]> = deltas.chunks(4).collect();
    let expected = Expected::precompute(&world, &seed, &batches);

    let dir = temp_dir("batch_boundaries");
    let mut service = ShardedLiveService::start(&seed, SHARDS, &dir).unwrap();
    let checked = race_readers(&mut service, &expected, 4, |service| {
        // The writer: one group commit per batch, and after each the
        // tuple the service reports must be that batch's boundary.
        // The middle batch first suffers an injected fsync failure on
        // every shard — readers must be none the wiser, and the retry
        // must succeed transparently.
        for (i, batch) in batches.iter().enumerate() {
            if i == batches.len() / 2 {
                let seqs_before = service.seqs();
                let journals: Vec<usize> = (0..SHARDS).map(|s| service.journal_len(s)).collect();
                for shard in 0..SHARDS {
                    service.inject_journal_sync_failures(shard, 1);
                }
                service
                    .ingest_batch(batch)
                    .expect_err("injected fsync failure must surface");
                assert_eq!(service.seqs(), seqs_before);
                let after: Vec<usize> = (0..SHARDS).map(|s| service.journal_len(s)).collect();
                assert_eq!(after, journals);
            }
            service.ingest_batch(batch).unwrap();
            let boundary = &expected.boundaries[&service.seqs()];
            assert_eq!(boundary.commit, i + 1, "service reported a foreign tuple");
        }
    });

    assert!(checked >= 4);
    assert_eq!(service.seqs(), expected.final_seqs);
    assert_eq!(service.reader().doc_count(), world.corpus.posts().len());
    cleanup(&dir);
}

#[test]
fn failed_batch_sync_is_never_replayed_by_recovery() {
    // The all-or-nothing contract, end to end: a batch whose fsync
    // failed on every shard must leave no trace — not in the served
    // view, not in the journal files, not in what recover() replays.
    let (world, seed, deltas) = fixture(7010, 8);
    let (first_half, second_half) = deltas.split_at(deltas.len() / 2);

    let dir = temp_dir("no_replay");
    let mut service = ShardedLiveService::start(&seed, SHARDS, &dir).unwrap();
    service.ingest_batch(first_half).unwrap();
    let committed_seqs = service.seqs();
    let reader = service.reader();
    let committed_hits = reader.query(&PROBE, 20);

    for shard in 0..SHARDS {
        service.inject_journal_sync_failures(shard, 1);
    }
    service
        .ingest_batch(second_half)
        .expect_err("injected fsync failure must surface");
    // Served state: untouched, down to the query results.
    assert_eq!(reader.seqs(), committed_seqs);
    assert_eq!(reader.query(&PROBE, 20), committed_hits);

    // Crash right here (drop without shutdown): recovery must replay
    // exactly the committed batch and nothing of the failed one.
    drop(reader);
    drop(service);
    let (recovered, reports) = ShardedLiveService::recover(&seed, SHARDS, &dir).unwrap();
    for (report, &seq) in reports.iter().zip(&committed_seqs) {
        assert_eq!(report.replayed as u64, seq);
        assert!(!report.torn_tail_dropped, "retraction must be clean");
    }
    assert_eq!(recovered.seqs(), committed_seqs);
    assert_eq!(recovered.reader().query(&PROBE, 20), committed_hits);

    // And the recovered service continues the stream where the
    // acknowledged prefix ended.
    let mut recovered = recovered;
    recovered.ingest_batch(second_half).unwrap();
    assert_eq!(recovered.doc_count(), world.corpus.posts().len());
    cleanup(&dir);
}

#[test]
fn writer_throughput_is_not_gated_by_slow_readers() {
    // A reader that *holds* a pinned view for the whole run must not
    // stop the writer from publishing: old views stay alive, new ones
    // keep flowing.
    let (world, seed, deltas) = fixture(7008, 4);
    let dir = temp_dir("epochs");
    let mut service = ShardedLiveService::start(&seed, SHARDS, &dir).unwrap();
    service.ingest_batch(&deltas).unwrap();

    let last = world.corpus.posts().last().unwrap().id;
    let removal = CorpusDelta::for_removals(&world.corpus, &[last]).unwrap();
    let readd = CorpusDelta::for_posts(&world.corpus, &[last]).unwrap();

    let reader = service.reader();
    let pinned = reader.pin(); // held across all writes
    let pinned_seqs = pinned.seqs();
    let pinned_docs = pinned.doc_count();
    let pinned_hits = reader.query_uncached(&pinned, &PROBE, 20);

    for _ in 0..25 {
        service.ingest(&removal).unwrap();
        service.ingest(&readd).unwrap();
    }

    // The pinned view is untouched by 50 published views…
    assert_eq!(pinned.seqs(), pinned_seqs);
    assert_eq!(pinned.doc_count(), pinned_docs);
    assert_eq!(reader.query_uncached(&pinned, &PROBE, 20), pinned_hits);
    // …and the current view has moved on, on the post's shard only.
    let current = reader.pin();
    let moved: u64 = current
        .seqs()
        .iter()
        .zip(&pinned_seqs)
        .map(|(now, then)| now - then)
        .sum();
    assert_eq!(moved, 50);
    assert_eq!(current.doc_count(), pinned_docs);
    cleanup(&dir);
}
