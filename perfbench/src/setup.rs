//! Set-up (world, analytics, seed engine, bulk routed load) and the
//! seeded input generators: query pools, churn batches.

use obs_analytics::{AlexaPanel, LinkGraph};
use obs_live::ShardedLiveService;
use obs_model::{document_text, CorpusDelta, PostId, SourceId};
use obs_search::{normalize_query, BlendWeights, ScatterStats, SearchEngine};
use obs_synth::rng::Zipf;
use obs_synth::{Rng64, World, WorldConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Shards behind the service in every workload.
pub const SHARDS: usize = 4;
/// Result size of every query.
pub const K: usize = 10;
/// World generator seed. The corpus is fixed so set-up does the same
/// work on every run; the workload inputs vary with `--seed`.
const WORLD_SEED: u64 = 43;
/// Documents per bulk-load delta and deltas per bulk-load commit.
const LOAD_CHUNK: usize = 512;
const LOAD_BURST: usize = 64;
/// Deltas (one remove/re-add each) per churn commit.
pub const CHURN_DELTAS: usize = 8;
/// Share of churn commits confined to one source (one shard); the
/// rest spread over every shard.
const SINGLE_SOURCE_SHARE: f64 = 0.2;
/// Zipf exponent of query terms over the frequency-ranked tag
/// vocabulary.
const TERM_ZIPF: f64 = 1.0;
/// Zipf exponent of repeated traffic over pool positions (the traced
/// run's cached queries).
const POOL_ZIPF: f64 = 1.2;

/// The ranking-study world at about `posts` opening posts, sized by
/// the `live_service` bench rule (5.7 posts per source).
fn world_with_posts(posts: usize) -> World {
    World::generate(WorldConfig {
        sources: (posts as f64 / 5.7).ceil() as usize,
        users: 4_000,
        mean_discussions_per_source: 20.0,
        mean_comments_per_discussion: 1.0,
        interaction_rate: 0.05,
        comment_bodies: false,
        ..WorldConfig::ranking_study(WORLD_SEED)
    })
}

/// A set-up service with everything the workloads need beside it.
pub struct Fixture {
    pub world: World,
    /// The empty seed engine carrying the static signals.
    pub seed: SearchEngine,
    /// The bulk-load deltas, in commit order.
    pub load: Vec<CorpusDelta>,
    pub service: ShardedLiveService,
    pub docs: usize,
    /// Whole set-up, seconds.
    pub setup_s: f64,
    /// Bulk routed load alone, seconds.
    pub load_s: f64,
}

/// World generation + analytics + seed build + bulk routed load into
/// a fresh `SHARDS`-shard service journaling under `dir`.
pub fn set_up(posts: usize, dir: &Path) -> Result<Fixture, String> {
    let t0 = Instant::now();
    let world = world_with_posts(posts);
    let panel = AlexaPanel::simulate(&world, 1);
    let links = LinkGraph::simulate(&world, 2);
    let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let docs = engine.doc_count();
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    let mut seed = engine;
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).map_err(|e| e.to_string())?);
    let load = all
        .chunks(LOAD_CHUNK)
        .map(|chunk| CorpusDelta::for_posts(&world.corpus, chunk))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut service = ShardedLiveService::start(&seed, SHARDS, dir).map_err(|e| e.to_string())?;
    let t_load = Instant::now();
    for burst in load.chunks(LOAD_BURST) {
        service.ingest_batch(burst).map_err(|e| e.to_string())?;
    }
    let load_s = t_load.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();
    if service.doc_count() != docs {
        return Err(format!(
            "bulk load indexed {} of {docs} documents",
            service.doc_count()
        ));
    }
    Ok(Fixture {
        world,
        seed,
        load,
        service,
        docs,
        setup_s,
        load_s,
    })
}

/// A seeded pool of distinct 1–3-term tag queries. Terms are drawn
/// zipf over the tag vocabulary ranked by how many posts carry the
/// tag, so posting-list sizes run from the head to the tail.
pub struct QueryPool {
    pub queries: Vec<Vec<String>>,
    /// Zipf over pool positions, for workloads whose traffic repeats.
    zipf: Zipf,
}

impl QueryPool {
    pub fn generate(world: &World, size: usize, rng: &mut Rng64) -> QueryPool {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for post in world.corpus.posts() {
            for tag in &post.tags {
                *counts.entry(tag.as_str()).or_default() += 1;
            }
        }
        let mut vocab: Vec<(&str, usize)> = counts
            .into_iter()
            .filter(|(tag, _)| !normalize_query(&[tag]).is_empty())
            .collect();
        vocab.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        assert!(!vocab.is_empty(), "the corpus carries no usable tags");
        let terms = Zipf::new(vocab.len(), TERM_ZIPF);
        let mut seen = std::collections::BTreeSet::new();
        let mut queries = Vec::with_capacity(size);
        // A small vocabulary cannot fill a large pool of distinct
        // queries; stop after a bounded number of draws.
        for _ in 0..size * 20 {
            if queries.len() == size {
                break;
            }
            let n = 1 + rng.index(3);
            let query: Vec<String> = (0..n)
                .map(|_| vocab[terms.sample(rng)].0.to_owned())
                .collect();
            if seen.insert(query.clone()) {
                queries.push(query);
            }
        }
        let zipf = Zipf::new(queries.len(), POOL_ZIPF);
        QueryPool { queries, zipf }
    }

    /// A pool position drawn zipf (position 0 the most popular).
    pub fn zipf_pick(&self, rng: &mut Rng64) -> usize {
        self.zipf.sample(rng)
    }

    /// A pool position drawn uniformly.
    pub fn uniform_pick(&self, rng: &mut Rng64) -> usize {
        rng.index(self.queries.len())
    }

    /// Mean postings a query of the pool reads: Σ gathered document
    /// frequency over its distinct normalized terms.
    pub fn mean_postings(&self, service: &ShardedLiveService) -> f64 {
        let indexes: Vec<_> = (0..service.shards())
            .map(|i| service.shard_engine(i).index())
            .collect();
        let total: usize = self.queries.iter().map(|q| postings_of(&indexes, q)).sum();
        total as f64 / self.queries.len().max(1) as f64
    }
}

/// Σ gathered document frequency over the distinct normalized terms
/// of `query`.
pub fn postings_of(indexes: &[&obs_search::InvertedIndex], query: &[String]) -> usize {
    let mut normalized = normalize_query(query);
    normalized.sort();
    normalized.dedup();
    let stats = ScatterStats::gather(indexes, &normalized);
    normalized.iter().map(|t| stats.doc_frequency(t)).sum()
}

/// Seeded churn commits: `CHURN_DELTAS` deltas, each removing and
/// re-adding one post with an extra comment on its source (so the
/// global blend re-standardizes). Most commits pick posts anywhere in
/// the corpus, spreading over every shard; the rest stay inside one
/// source, so one shard.
pub struct ChurnGen {
    rng: Rng64,
    posts: Vec<PostId>,
    /// Sources hosting at least `CHURN_DELTAS` posts, with those posts.
    deep_sources: Vec<Vec<PostId>>,
}

impl ChurnGen {
    pub fn new(world: &World, rng: Rng64) -> ChurnGen {
        let corpus = &world.corpus;
        let posts: Vec<PostId> = corpus.posts().iter().map(|p| p.id).collect();
        let mut by_source: BTreeMap<SourceId, Vec<PostId>> = BTreeMap::new();
        for post in corpus.posts() {
            if let Ok(d) = corpus.discussion(post.discussion) {
                by_source.entry(d.source).or_default().push(post.id);
            }
        }
        let deep_sources = by_source
            .into_values()
            .filter(|p| p.len() >= CHURN_DELTAS)
            .collect();
        ChurnGen {
            rng,
            posts,
            deep_sources,
        }
    }

    /// The next commit's deltas.
    pub fn next_batch(&mut self, world: &World) -> Vec<CorpusDelta> {
        let single = !self.deep_sources.is_empty() && self.rng.chance(SINGLE_SOURCE_SHARE);
        let candidates = if single {
            &self.deep_sources[self.rng.index(self.deep_sources.len())]
        } else {
            &self.posts
        };
        let mut picked: Vec<PostId> = Vec::with_capacity(CHURN_DELTAS);
        while picked.len() < CHURN_DELTAS.min(candidates.len()) {
            let p = candidates[self.rng.index(candidates.len())];
            if !picked.contains(&p) {
                picked.push(p);
            }
        }
        picked
            .into_iter()
            .map(|post| churn_delta(world, post))
            .collect()
    }
}

/// Removes and re-adds `post` in one delta (removals apply first) and
/// notes one extra comment on its source.
fn churn_delta(world: &World, post: PostId) -> CorpusDelta {
    let corpus = &world.corpus;
    let mut delta = CorpusDelta::for_removals(corpus, &[post]).expect("corpus post resolves");
    delta.merge(CorpusDelta::for_posts(corpus, &[post]).expect("corpus post resolves"));
    let (source, _) = document_text(corpus, post).expect("corpus post resolves");
    delta.note_engagement(source, 0, 1);
    delta
}
