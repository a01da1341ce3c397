//! Cross-crate property tests: pipeline invariants that must hold for
//! any seed, exercised through the public facade.

use informing_observers::analytics::{AlexaPanel, FeedRegistry, LinkGraph};
use informing_observers::live::{DeltaJournal, ShardRouter, ShardedLiveService};
use informing_observers::model::{document_text, Clock, CorpusDelta, PostId, Timestamp};
use informing_observers::quality::{
    assess_source, influence_profiles, Benchmarks, SourceContext, Weights,
};
use informing_observers::search::score::{bm25_scores, Bm25Params};
use informing_observers::search::{
    scatter_query, scatter_query_unpruned, tokenize, BlendWeights, IndexWriter, InvertedIndex,
    SearchEngine,
};
use informing_observers::synth::{TwitterConfig, TwitterPopulation, World, WorldConfig};
use informing_observers::wrappers::{service_for, Crawler};
use proptest::prelude::*;

/// A tiny world config keyed by seed, fast enough for proptest.
fn tiny_world(seed: u64) -> World {
    World::generate(WorldConfig {
        sources: 8,
        users: 60,
        categories: 6,
        days: 40,
        mean_discussions_per_source: 5.0,
        mean_comments_per_discussion: 3.0,
        ..WorldConfig::small(seed)
    })
}

/// Deterministic pseudo-shuffle: orders ids by a seed-keyed hash.
fn permuted_posts(world: &World, seed: u64) -> Vec<PostId> {
    let mut posts: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    posts.sort_by_key(|p| (p.raw() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed);
    posts
}

/// Every distinct term of every indexed document, plus one absent
/// term, so equivalence checks cover the whole vocabulary.
fn probe_terms(world: &World) -> Vec<String> {
    let mut terms: Vec<String> = world
        .corpus
        .posts()
        .iter()
        .filter_map(|p| document_text(&world.corpus, p.id).ok())
        .flat_map(|(_, text)| tokenize(&text))
        .collect();
    terms.sort_unstable();
    terms.dedup();
    terms.push("zzz-never-indexed".to_owned());
    terms
}

/// The serving seed: `engine`'s static signals with zero documents.
fn empty_seed(world: &World, engine: &SearchEngine) -> SearchEngine {
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    let mut seed = engine.clone();
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
    seed
}

/// The boot delta: every post published up to `midpoint` — the state
/// a service has indexed before the recent posts stream in.
fn boot_delta(world: &World, midpoint: Timestamp) -> CorpusDelta {
    let old: Vec<PostId> = world
        .corpus
        .posts()
        .iter()
        .filter(|p| p.published <= midpoint)
        .map(|p| p.id)
        .collect();
    CorpusDelta::for_posts(&world.corpus, &old).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_adds_are_order_independent(seed in 0u64..10_000) {
        let world = tiny_world(seed);
        let fresh = InvertedIndex::build(&world.corpus);

        // Stream the same documents in a seed-permuted order through
        // the writer, split into two batches.
        let posts = permuted_posts(&world, seed);
        let mut incremental = InvertedIndex::default();
        let (first, second) = posts.split_at(posts.len() / 2);
        let mut writer = IndexWriter::new(&mut incremental);
        writer.apply(&CorpusDelta::for_posts(&world.corpus, first).unwrap());
        writer.commit();
        incremental.apply_delta(&CorpusDelta::for_posts(&world.corpus, second).unwrap());

        prop_assert_eq!(fresh.doc_count(), incremental.doc_count());
        prop_assert_eq!(fresh.vocabulary_size(), incremental.vocabulary_size());
        prop_assert_eq!(fresh.avg_doc_length(), incremental.avg_doc_length());
        let terms = probe_terms(&world);
        for t in &terms {
            prop_assert_eq!(fresh.doc_frequency(t), incremental.doc_frequency(t), "{}", t);
        }
        // Query results — not just statistics — must be identical.
        let scores_fresh = bm25_scores(&fresh, &terms, Bm25Params::default());
        let scores_inc = bm25_scores(&incremental, &terms, Bm25Params::default());
        prop_assert_eq!(scores_fresh, scores_inc);
    }

    #[test]
    fn add_then_remove_equals_never_added(seed in 0u64..10_000) {
        let world = tiny_world(seed);
        let posts = permuted_posts(&world, seed);
        // Half the documents are transient: added, then removed.
        let (kept, transient) = posts.split_at(posts.len() / 2);

        let mut churned = InvertedIndex::build(&world.corpus);
        let mut writer = IndexWriter::new(&mut churned);
        writer.apply(&CorpusDelta::for_removals(&world.corpus, transient).unwrap());
        let stats = writer.commit();
        prop_assert_eq!(stats.removed, transient.len());

        let mut pristine = InvertedIndex::default();
        pristine.apply_delta(&CorpusDelta::for_posts(&world.corpus, kept).unwrap());

        prop_assert_eq!(churned.doc_count(), pristine.doc_count());
        prop_assert_eq!(churned.vocabulary_size(), pristine.vocabulary_size());
        prop_assert_eq!(churned.avg_doc_length(), pristine.avg_doc_length());
        let terms = probe_terms(&world);
        for t in &terms {
            prop_assert_eq!(churned.doc_frequency(t), pristine.doc_frequency(t), "{}", t);
        }
        let scores_churned = bm25_scores(&churned, &terms, Bm25Params::default());
        let scores_pristine = bm25_scores(&pristine, &terms, Bm25Params::default());
        prop_assert_eq!(scores_churned, scores_pristine);
    }

    #[test]
    fn journal_recovery_equals_from_scratch_build(seed in 0u64..10_000) {
        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let scratch =
            SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());

        // Boot: the posts up to the midpoint of history land as one
        // delta; the recent posts stream in after it as journaled
        // deltas, in a seed-permuted order. One shard: the journal
        // and the engine are the unsharded ones.
        let midpoint = Timestamp(world.now.seconds() / 2);
        let recent: Vec<PostId> = permuted_posts(&world, seed)
            .into_iter()
            .filter(|&p| world.corpus.post(p).unwrap().published > midpoint)
            .collect();
        prop_assert!(!recent.is_empty());
        let seed_engine = empty_seed(&world, &scratch);

        let dir = std::env::temp_dir().join(format!(
            "obs_live_prop_{}_{}",
            std::process::id(),
            seed
        ));
        {
            // The doomed service: journal the boot delta and three
            // batches, then "crash" (dropped with no shutdown grace),
            // then a torn final record appears as a crash mid-append
            // would leave it.
            let mut doomed = ShardedLiveService::start(&seed_engine, 1, &dir).unwrap();
            doomed.ingest(&boot_delta(&world, midpoint)).unwrap();
            for chunk in recent.chunks(recent.len().div_ceil(3)) {
                let delta = CorpusDelta::for_posts(&world.corpus, chunk).unwrap();
                doomed.ingest(&delta).unwrap();
            }
        }
        {
            use std::io::Write;
            let path = ShardedLiveService::shard_journal_path(&dir, 0);
            let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
            write!(file, "99 deadbeef {{\"added\":[{{\"po").unwrap();
        }

        // Recovery must reproduce the from-scratch build exactly:
        // identical BM25 score maps over the whole vocabulary,
        // identical static scores, identical rankings.
        let (recovered, reports) = ShardedLiveService::recover(&seed_engine, 1, &dir).unwrap();
        prop_assert!(reports[0].torn_tail_dropped);
        prop_assert_eq!(reports[0].replayed as u64, reports[0].recovered_seq);
        let engine = recovered.shard_engine(0);
        prop_assert_eq!(engine.doc_count(), scratch.doc_count());
        let terms = probe_terms(&world);
        let scores_recovered = bm25_scores(engine.index(), &terms, Bm25Params::default());
        let scores_scratch = bm25_scores(scratch.index(), &terms, Bm25Params::default());
        prop_assert_eq!(scores_recovered, scores_scratch);
        let reader = recovered.reader();
        for s in world.corpus.sources() {
            prop_assert_eq!(reader.static_score(s.id), scratch.static_score(s.id));
        }
        prop_assert_eq!(reader.query(&terms, 20), scratch.query(&terms, 20));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_ingest_and_recovery_equal_sequential_ingest(seed in 0u64..10_000) {
        // Group-commit equivalence, end to end: ingesting a burst
        // through one `ingest_batch` (one fsync, one amortized
        // in-order apply, one publish) must leave a journal *byte-identical*
        // to one-at-a-time `ingest`, an engine bit-identical down to
        // BM25 score maps — and replaying the batched journal must
        // land on that same engine again.
        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let scratch =
            SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());

        let midpoint = Timestamp(world.now.seconds() / 2);
        let recent: Vec<PostId> = permuted_posts(&world, seed)
            .into_iter()
            .filter(|&p| world.corpus.post(p).unwrap().published > midpoint)
            .collect();
        prop_assert!(!recent.is_empty());
        let seed_engine = empty_seed(&world, &scratch);

        // The burst: the boot delta, then each chunk as one delta,
        // and right after the first chunk lands, its first post is
        // removed and then re-added — so coalescing exercises the
        // cancellation rule (a later removal cancels the earlier add;
        // remove-then-add is update semantics) on a post that is
        // actually present.
        let mut deltas: Vec<CorpusDelta> = vec![boot_delta(&world, midpoint)];
        deltas.extend(
            recent
                .chunks(recent.len().div_ceil(5))
                .map(|chunk| CorpusDelta::for_posts(&world.corpus, chunk).unwrap()),
        );
        deltas.insert(
            2,
            CorpusDelta::for_removals(&world.corpus, &recent[..1]).unwrap(),
        );
        deltas.insert(
            3,
            CorpusDelta::for_posts(&world.corpus, &recent[..1]).unwrap(),
        );
        let journaled = deltas.iter().filter(|d| !d.is_empty()).count();

        let base = std::env::temp_dir()
            .join(format!("obs_live_batch_prop_{}_{seed}", std::process::id()));
        let (dir_seq, dir_batch) = (base.join("seq"), base.join("grp"));
        let journal = |dir: &std::path::Path| {
            std::fs::read(ShardedLiveService::shard_journal_path(dir, 0)).unwrap()
        };

        let mut sequential = ShardedLiveService::start(&seed_engine, 1, &dir_seq).unwrap();
        for delta in &deltas {
            sequential.ingest(delta).unwrap();
        }
        let mut batched = ShardedLiveService::start(&seed_engine, 1, &dir_batch).unwrap();
        batched.ingest_batch(&deltas).unwrap();

        prop_assert_eq!(batched.seqs(), sequential.seqs());
        prop_assert_eq!(
            journal(&dir_batch),
            journal(&dir_seq),
            "batched journal must be byte-identical to the sequential one"
        );

        let terms = probe_terms(&world);
        let (a, b) = (sequential.shard_engine(0), batched.shard_engine(0));
        prop_assert_eq!(a.doc_count(), b.doc_count());
        prop_assert_eq!(
            bm25_scores(a.index(), &terms, Bm25Params::default()),
            bm25_scores(b.index(), &terms, Bm25Params::default())
        );
        let (reader_a, reader_b) = (sequential.reader(), batched.reader());
        for s in world.corpus.sources() {
            prop_assert_eq!(reader_a.static_score(s.id), reader_b.static_score(s.id));
        }
        let hits = reader_a.query(&terms, 20);
        prop_assert_eq!(&reader_b.query(&terms, 20), &hits);
        drop((reader_b, batched)); // crash the batched service with no grace

        // Replaying the batched journal (one record per delta, one
        // at a time) reproduces the same engine once more.
        let (recovered, reports) = ShardedLiveService::recover(&seed_engine, 1, &dir_batch).unwrap();
        prop_assert!(!reports[0].torn_tail_dropped);
        prop_assert_eq!(reports[0].replayed, journaled);
        prop_assert_eq!(recovered.seqs(), sequential.seqs());
        prop_assert_eq!(
            bm25_scores(recovered.shard_engine(0).index(), &terms, Bm25Params::default()),
            bm25_scores(a.index(), &terms, Bm25Params::default())
        );
        prop_assert_eq!(recovered.reader().query(&terms, 20), hits);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn parallel_sweep_equals_sequential_sweep(seed in 0u64..10_000, workers in 2usize..6) {
        // The crawl fan-out must be invisible in everything durable:
        // a parallel `tick_sweep` and a sequential one, fed the same
        // world, must produce byte-identical journals, bit-identical
        // BM25 maps / static scores / rankings, and identical
        // high-water marks — including when crawls fail transiently
        // (retried to success), fail fatally, or the journal's fsync
        // refuses the batch.
        use informing_observers::wrappers::native::{blog, forum, microblog, review, wiki};
        use informing_observers::wrappers::service::{
            BlogService, ForumService, MicroblogService, ReviewService, WikiService,
        };
        use informing_observers::wrappers::{
            CrawlerConfig, DataService, FaultPlan, HighWaterMarks,
        };
        use obs_model::SourceKind;

        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let scratch =
            SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
        let midpoint = Timestamp(world.now.seconds() / 2);
        let recent: Vec<PostId> = world
            .corpus
            .posts()
            .iter()
            .filter(|p| p.published > midpoint)
            .map(|p| p.id)
            .collect();
        prop_assert!(!recent.is_empty());
        let seed_engine = empty_seed(&world, &scratch);
        let boot = boot_delta(&world, midpoint);
        // The fault target: the seed-keyed "middle" source, whatever
        // its kind (kinds are a random mix, so no kind is
        // guaranteed to exist).
        let target = world.corpus.sources()[world.corpus.sources().len() / 2].id;

        // Builds the target's service with a fault plan installed on
        // its native API, for any source kind.
        let faulted = |plan: FaultPlan| -> Box<dyn DataService + '_> {
            let (corpus, now) = (&world.corpus, world.now);
            let kind = corpus.source(target).unwrap().kind;
            match kind {
                SourceKind::Blog => Box::new(
                    BlogService::open(corpus, target, now).unwrap().with_api(
                        blog::BlogApi::open(corpus, target, now)
                            .unwrap()
                            .with_faults(plan),
                    ),
                ),
                SourceKind::Forum => Box::new(
                    ForumService::open(corpus, target, now).unwrap().with_api(
                        forum::ForumApi::open(corpus, target, now)
                            .unwrap()
                            .with_faults(plan),
                    ),
                ),
                SourceKind::Microblog => Box::new(
                    MicroblogService::open(corpus, target, now)
                        .unwrap()
                        .with_api(
                            microblog::MicroblogApi::open(corpus, target, now)
                                .unwrap()
                                .with_faults(plan),
                        ),
                ),
                SourceKind::ReviewSite => Box::new(
                    ReviewService::open(corpus, target, now).unwrap().with_api(
                        review::ReviewApi::open(corpus, target, now)
                            .unwrap()
                            .with_faults(plan),
                    ),
                ),
                SourceKind::Wiki => Box::new(
                    WikiService::open(corpus, target, now).unwrap().with_api(
                        wiki::WikiApi::open(corpus, target, now)
                            .unwrap()
                            .with_faults(plan),
                    ),
                ),
            }
        };

        // Service lists are rebuilt per variant (fault plans and
        // token buckets carry per-instance state). `faults` injects
        // the plan on the target source; with a *transient* plan and
        // retry budget to spare, both sweep modes retry it to the
        // same success.
        let build_services = |faults: Option<FaultPlan>| -> Vec<Box<dyn DataService + '_>> {
            world
                .corpus
                .sources()
                .iter()
                .map(|s| -> Box<dyn DataService + '_> {
                    match &faults {
                        Some(plan) if s.id == target => faulted(plan.clone()),
                        _ => service_for(&world.corpus, s.id, world.now).unwrap(),
                    }
                })
                .collect()
        };

        let tag = std::process::id();
        let run = |variant: &str, crawler_workers: usize| {
            let dir = std::env::temp_dir().join(format!(
                "obs_live_par_prop_{variant}_{tag}_{seed}_{crawler_workers}"
            ));
            let path = ShardedLiveService::shard_journal_path(&dir, 0);
            let crawler = Crawler::new(CrawlerConfig {
                workers: crawler_workers,
                max_retries: 2,
                ..CrawlerConfig::default()
            });
            // One shard, booted with everything up to the midpoint: a
            // refused batch then refuses every participating source.
            let mut service = ShardedLiveService::start(&seed_engine, 1, &dir).unwrap();
            service.ingest(&boot).unwrap();
            let mut marks = HighWaterMarks::new();
            for source in world.corpus.sources() {
                marks.advance(source.id, midpoint);
            }
            let pre_sweep = marks.clone();

            // Phase 1 — a fatally-failing blog (faults every call,
            // beyond the retry budget): the sweep errors and no mark
            // moves, in either mode.
            let mut services = build_services(Some(FaultPlan::every(1)));
            let mut clock = Clock::starting_at(world.now);
            let fatal = service
                .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
                .expect_err("a blog failing every call must fail the sweep");
            assert_eq!(marks, pre_sweep, "failed sweep moved a mark");

            // Phase 2 — the journal refuses the batch: every crawl
            // succeeds, fsync fails, every mark rolls back.
            let mut services = build_services(None);
            let mut clock = Clock::starting_at(world.now);
            service.inject_journal_sync_failures(0, 1);
            let refused = service
                .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
                .expect_err("injected fsync failure must refuse the batch");
            assert_eq!(marks, pre_sweep, "refused batch left a mark advanced");
            let journal_after_refusal = std::fs::read(&path).unwrap();

            // Phase 3 — transient faults on the target. Depending on
            // how many native calls the target's adapter makes per
            // fetch, the retry budget may or may not absorb them;
            // either way both sweep modes must land on the same
            // outcome (and all-or-nothing holds: an error leaves the
            // marks at pre-sweep, a success lands the full burst).
            let mut services = build_services(Some(FaultPlan::every(2)));
            let mut clock = Clock::starting_at(world.now);
            let transient =
                service.tick_sweep(&crawler, &mut services, &mut clock, &mut marks);
            if transient.is_err() {
                assert_eq!(marks, pre_sweep, "failed transient sweep moved a mark");
            }

            // Phase 4 — a clean sweep: always succeeds, catching up
            // whatever phase 3 did not land (possibly nothing).
            let mut services = build_services(None);
            let mut clock = Clock::starting_at(world.now);
            let report = service
                .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
                .expect("clean sweep must succeed");
            let seq = service.seqs();
            (
                service,
                dir,
                path,
                format!("{fatal:?}"),
                format!("{refused:?}"),
                journal_after_refusal,
                format!("{transient:?}"),
                seq,
                report,
                marks,
            )
        };

        let (
            seq_service,
            seq_dir,
            seq_path,
            seq_fatal,
            seq_refused,
            seq_jr,
            seq_transient,
            seq_seq,
            seq_report,
            seq_marks,
        ) = run("seq", 1);
        let (
            par_service,
            par_dir,
            par_path,
            par_fatal,
            par_refused,
            par_jr,
            par_transient,
            par_seq,
            par_report,
            par_marks,
        ) = run("par", workers);

        // Failures are equivalent too: same errors (and the same
        // transient outcome, whichever way it went), same (lack of)
        // journal bytes after the refused batch.
        prop_assert_eq!(seq_fatal, par_fatal);
        prop_assert_eq!(seq_refused, par_refused);
        prop_assert_eq!(seq_jr, par_jr);
        prop_assert_eq!(seq_transient, par_transient);

        // The successful sweep: same sequence, same report, same
        // marks, byte-identical journals, bit-identical engines.
        prop_assert_eq!(seq_seq, par_seq);
        prop_assert_eq!(seq_report, par_report);
        prop_assert_eq!(seq_marks, par_marks);
        prop_assert_eq!(
            std::fs::read(&par_path).unwrap(),
            std::fs::read(&seq_path).unwrap(),
            "parallel sweep journal must be byte-identical to the sequential one"
        );
        let terms = probe_terms(&world);
        let (a, b) = (seq_service.shard_engine(0), par_service.shard_engine(0));
        prop_assert_eq!(a.doc_count(), b.doc_count());
        prop_assert_eq!(
            bm25_scores(a.index(), &terms, Bm25Params::default()),
            bm25_scores(b.index(), &terms, Bm25Params::default())
        );
        let (reader_a, reader_b) = (seq_service.reader(), par_service.reader());
        for s in world.corpus.sources() {
            prop_assert_eq!(reader_a.static_score(s.id), reader_b.static_score(s.id));
        }
        prop_assert_eq!(reader_a.query(&terms, 20), reader_b.query(&terms, 20));
        std::fs::remove_dir_all(&seq_dir).ok();
        std::fs::remove_dir_all(&par_dir).ok();
    }

    #[test]
    fn crawls_always_match_ground_truth(seed in 0u64..10_000) {
        let world = tiny_world(seed);
        let crawler = Crawler::default();
        for source in world.corpus.sources() {
            let mut service = service_for(&world.corpus, source.id, world.now).unwrap();
            let mut clock = Clock::starting_at(world.now);
            let (obs, _) = crawler.crawl(service.as_mut(), &mut clock).unwrap();
            let expected: usize = world
                .corpus
                .discussions_of_source(source.id)
                .iter()
                .map(|&d| 1 + world.corpus.comments_of_discussion(d).len())
                .sum();
            prop_assert_eq!(obs.len(), expected);
        }
    }

    #[test]
    fn quality_scores_are_always_unit_bounded(seed in 0u64..10_000) {
        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let feeds = FeedRegistry::simulate(&world, seed ^ 2);
        let di = world.tourism_di();
        let ctx = SourceContext::new(&world.corpus, &panel, &links, &feeds, &di, world.now);
        let weights = Weights::uniform();
        let benchmarks = Benchmarks::for_sources(&ctx, 0.9);
        for s in world.corpus.sources() {
            let score = assess_source(&ctx, s.id, &weights, &benchmarks);
            prop_assert!((0.0..=1.0).contains(&score.overall));
            for m in &score.measures {
                prop_assert!((0.0..=1.0).contains(&m.normalized), "{}", m.id);
                prop_assert!(m.raw.is_finite());
            }
        }
    }

    #[test]
    fn influence_profiles_are_always_consistent(seed in 0u64..10_000) {
        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let feeds = FeedRegistry::simulate(&world, seed ^ 2);
        let di = world.open_di();
        let ctx = SourceContext::new(&world.corpus, &panel, &links, &feeds, &di, world.now);
        let profiles = influence_profiles(&ctx);
        for p in &profiles {
            prop_assert!(p.emissions > 0);
            prop_assert!(p.received_relative <= p.received_absolute + 1e-12);
            prop_assert!((0.0..=1.0).contains(&p.combined_score));
        }
        // Sorted descending.
        for w in profiles.windows(2) {
            prop_assert!(w[0].combined_score >= w[1].combined_score);
        }
    }

    #[test]
    fn sharded_ingest_and_query_equal_unsharded(seed in 0u64..10_000, shards in 2usize..5) {
        // Sharding must be invisible in everything observable: the
        // same delta stream pushed into a bare engine + journal, a
        // 1-shard service and an N-shard service must yield
        // bit-identical rankings and static scores, a byte-identical
        // journal in the 1-shard case, per-shard journals
        // byte-identical to a reference router feeding plain
        // journals — and recovering a killed N-shard service must
        // land back on the same rankings, shard by shard.
        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let scratch =
            SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());

        // The sharded seed: static signals intact, zero documents.
        let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
        let mut seed_engine = scratch.clone();
        seed_engine.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
        prop_assert_eq!(seed_engine.doc_count(), 0);

        // The stream: seed-permuted posts as multi-post deltas,
        // ingested in bursts of three deltas.
        let posts = permuted_posts(&world, seed);
        let deltas: Vec<CorpusDelta> = posts
            .chunks(posts.len().div_ceil(6).max(1))
            .map(|chunk| CorpusDelta::for_posts(&world.corpus, chunk).unwrap())
            .collect();

        let tag = std::process::id();
        let base = std::env::temp_dir().join(format!("obs_shard_prop_{tag}_{seed}_{shards}"));
        let path_flat = base.join("flat.journal");
        std::fs::create_dir_all(&base).unwrap();
        let dir_one = base.join("one");
        let dir_many = base.join("many");
        let dir_ref = base.join("reference");
        std::fs::create_dir_all(&dir_ref).unwrap();

        // The unsharded reference: a bare journal and an engine fed
        // the same bursts.
        let mut flat_journal = DeltaJournal::create(&path_flat).unwrap();
        let mut flat = seed_engine.clone();
        let mut one = ShardedLiveService::start(&seed_engine, 1, &dir_one).unwrap();
        let mut many = ShardedLiveService::start(&seed_engine, shards, &dir_many).unwrap();
        // Reference journals fed by a bare router, mirroring the
        // burst grouping of `ingest_batch`.
        let mut ref_router = ShardRouter::new(shards);
        let mut ref_journals: Vec<DeltaJournal> = (0..shards)
            .map(|i| {
                DeltaJournal::create(dir_ref.join(format!("shard-{i}.journal"))).unwrap()
            })
            .collect();

        for burst in deltas.chunks(3) {
            let refs: Vec<&CorpusDelta> = burst.iter().collect();
            flat_journal.append_batch(&refs).unwrap();
            flat.apply_deltas(burst.iter());
            one.ingest_batch(burst).unwrap();
            many.ingest_batch(burst).unwrap();
            let mut routed: Vec<Vec<CorpusDelta>> = vec![Vec::new(); shards];
            for delta in burst {
                for (shard, sub) in ref_router.route(delta).into_iter().enumerate() {
                    if !sub.is_empty() {
                        routed[shard].push(sub);
                    }
                }
            }
            for (journal, batch) in ref_journals.iter_mut().zip(&routed) {
                let refs: Vec<&CorpusDelta> = batch.iter().collect();
                journal.append_batch(&refs).unwrap();
            }
        }
        drop((flat_journal, ref_journals));

        // Rankings and static scores: bit-identical across all three
        // topologies, and identical to the scratch build (the stream
        // replays the full corpus).
        let terms = probe_terms(&world);
        let hits = flat.query(&terms, 20);
        prop_assert_eq!(&one.reader().query(&terms, 20), &hits);
        prop_assert_eq!(&many.reader().query(&terms, 20), &hits);
        prop_assert_eq!(&scratch.query(&terms, 20), &hits);
        prop_assert_eq!(many.doc_count(), scratch.doc_count());
        let many_reader = many.reader();
        for s in world.corpus.sources() {
            prop_assert_eq!(
                many_reader.static_score(s.id),
                flat.static_score(s.id)
            );
        }

        // Journal bytes: one shard ≡ unsharded; N shards ≡ the
        // reference router's journals, shard by shard.
        prop_assert_eq!(
            std::fs::read(ShardedLiveService::shard_journal_path(&dir_one, 0)).unwrap(),
            std::fs::read(&path_flat).unwrap(),
            "a 1-shard service must journal byte-identically to a bare journal"
        );
        for i in 0..shards {
            prop_assert_eq!(
                std::fs::read(ShardedLiveService::shard_journal_path(&dir_many, i)).unwrap(),
                std::fs::read(dir_ref.join(format!("shard-{i}.journal"))).unwrap(),
                "shard {} journal must match the reference routing", i
            );
        }

        // Kill the N-shard service (no shutdown grace) and recover
        // every shard from its own journal: same per-shard engines,
        // same global rankings.
        let pre_seqs = many.seqs();
        let pre_shard_docs: Vec<usize> =
            (0..shards).map(|i| many.shard_engine(i).doc_count()).collect();
        let pre_shard_scores: Vec<_> = (0..shards)
            .map(|i| bm25_scores(many.shard_engine(i).index(), &terms, Bm25Params::default()))
            .collect();
        drop(many);
        let (recovered, reports) =
            ShardedLiveService::recover(&seed_engine, shards, &dir_many).unwrap();
        prop_assert_eq!(recovered.seqs(), pre_seqs);
        for (i, report) in reports.iter().enumerate() {
            prop_assert!(!report.torn_tail_dropped);
            prop_assert_eq!(report.recovered_seq, recovered.seqs()[i]);
            prop_assert_eq!(recovered.shard_engine(i).doc_count(), pre_shard_docs[i]);
            prop_assert_eq!(
                bm25_scores(recovered.shard_engine(i).index(), &terms, Bm25Params::default()),
                pre_shard_scores[i].clone(),
                "shard {} must recover its exact pre-crash index", i
            );
        }
        prop_assert_eq!(recovered.reader().query(&terms, 20), hits);

        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn pruned_query_equals_unpruned_query(
        seed in 0u64..10_000,
        shards in 1usize..4,
        k in 1usize..40,
        content_w in 0.0f64..8.0,
        depth_w in 0.0f64..4.0,
        churn in 0u64..10_000,
    ) {
        // The serving scorer (`partial_query` behind `scatter_query`)
        // merges the ordinal-sorted posting lists document at a time;
        // the reference (`scatter_query_unpruned`) scores term at a
        // time through a per-document map. For any corpus, shard
        // count, cutoff, blend weighting and maintenance history the
        // two must return bit-identical hits AND scores — the
        // reference stays callable as a public API precisely so this
        // comparison is possible.
        let world = tiny_world(seed);
        let panel = AlexaPanel::simulate(&world, seed);
        let links = LinkGraph::simulate(&world, seed ^ 1);
        let scratch =
            SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());

        // Partition the corpus into shard engines the same way the
        // serving layer routes: by `SourceId::shard`.
        let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
        let mut empty = scratch.clone();
        empty.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
        let mut engines: Vec<SearchEngine> = vec![empty; shards];
        let permuted = permuted_posts(&world, churn);
        let churned = &permuted[..churn as usize % (permuted.len() + 1)];
        for (shard, engine) in engines.iter_mut().enumerate() {
            let mine: Vec<PostId> = all
                .iter()
                .copied()
                .filter(|&pid| {
                    let (source, _) = document_text(&world.corpus, pid).unwrap();
                    source.shard(shards) == shard
                })
                .collect();
            if !mine.is_empty() {
                engine.apply_delta(&CorpusDelta::for_posts(&world.corpus, &mine).unwrap());
            }
            // Churn: remove a seed-chosen subset of the shard's posts
            // and re-add it in descending id order, so the lists the
            // merge walks have been through a tombstone sweep and the
            // mid-list (binary-search) insert path, not only appends.
            let mut gone: Vec<PostId> = mine.into_iter().filter(|p| churned.contains(p)).collect();
            if !gone.is_empty() {
                engine.apply_delta(&CorpusDelta::for_removals(&world.corpus, &gone).unwrap());
                gone.sort_unstable_by(|a, b| b.cmp(a));
                engine.apply_delta(&CorpusDelta::for_posts(&world.corpus, &gone).unwrap());
            }
        }
        let refs: Vec<&SearchEngine> = engines.iter().collect();
        let weights = BlendWeights {
            content: content_w,
            depth: depth_w,
            ..BlendWeights::default()
        };
        let static_score = |s| scratch.static_score(s);

        // The whole vocabulary at once (every list in play) and small
        // realistic queries.
        let vocab = probe_terms(&world);
        let mut queries: Vec<Vec<String>> = vec![vocab.clone()];
        for window in vocab.windows(3).step_by(7) {
            queries.push(window.to_vec());
        }
        for terms in &queries {
            let served = scatter_query(&refs, terms, k, static_score, &weights);
            let oracle = scatter_query_unpruned(&refs, terms, k, static_score, &weights);
            prop_assert_eq!(
                &served, &oracle,
                "merged ranking diverged (shards={}, k={}, terms={}, churned={})",
                shards, k, terms.len(), churned.len()
            );
            // Bit-identical scores, not merely equal ordering.
            for (p, o) in served.iter().zip(&oracle) {
                prop_assert_eq!(p.score.to_bits(), o.score.to_bits());
            }
        }
    }

    #[test]
    fn twitter_population_bounds_hold_for_any_seed(seed in 0u64..10_000) {
        let pop = TwitterPopulation::generate(TwitterConfig {
            seed,
            ..TwitterConfig::default()
        });
        prop_assert_eq!(pop.accounts.len(), 813);
        for a in &pop.accounts {
            prop_assert!(a.tweets >= 1);
            prop_assert!(a.mentions_received <= 84_000);
            prop_assert!(a.retweets_received <= 84_000);
        }
    }
}
