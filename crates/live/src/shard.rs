//! Sharded serving: a partitioned corpus behind one scatter-gather
//! query plan.
//!
//! A single index pays two whole-corpus costs per ingest burst: the
//! copy-on-write index detach touches the entire index, and every
//! fsync serializes all sources behind one journal. Partitioning the
//! corpus into N shards — hash of the source id, [`SourceId::shard`]
//! — makes both costs per-shard: each shard owns its own
//! [`SearchEngine`] + [`DeltaJournal`] + [`LiveWriter`], routed
//! sub-batches commit in parallel (each reusing the group-commit
//! [`append_batch`](crate::DeltaJournal::append_batch) fsync
//! batching), and crash recovery replays each shard's own journal.
//! One shard is the unsharded service: routing is the identity and
//! the journal is byte-identical to a bare [`DeltaJournal`] fed the
//! same batches.
//!
//! One routed batch flows as:
//!
//! ```text
//!                 ┌► shard 0: journal (fsync) ─► apply ─► freeze
//! deltas ─ route ─┼► shard 1: journal (fsync) ─► apply ─► freeze
//!  (by source id) └► shard 2: journal (fsync) ─► apply ─► freeze
//!                                │ (parallel, one thread per shard)
//!            engagement of committed shards ─► global StaticBlend
//!                                              └► ONE view publish
//! ```
//!
//! Queries fan out with the scatter-gather plan
//! ([`obs_search::scatter_query`]): gather exact global statistics
//! across shard snapshots, score each shard against them, merge
//! top-k — **bit-identical to the unsharded scorer** because every
//! BM25 statistic is an exact integer sum and a source lives wholly
//! in one shard. The one piece of state that cannot be partitioned —
//! the z-score-standardized static blend — stays global: a single
//! [`StaticBlend`] absorbs every committed shard's engagement
//! through the same code path the unsharded engine uses.
//!
//! Readers see whole commits only. After the shard threads join and
//! the blend is re-standardized, the commit publishes **one**
//! [`PinnedShards`] view — every shard's snapshot, the blend and a
//! fresh epoch — behind one pointer, so [`ShardedReader::pin`] is one
//! `Arc` clone and never mixes shards from different commits.
//!
//! Shards are **independent failure domains**: a refused fsync
//! retracts only that shard's sub-batch
//! ([`LiveError::ShardCommit`]), committed shards stay committed,
//! and [`ShardedLiveService::tick_sweep`] rolls back the high-water
//! marks of exactly the sources routed to the failed shards
//! ([`HighWaterMarks::rollback_many`]).

// lint:deterministic — routing decides which journal a delta lands
// in, so the same delta stream must route identically on every node
// and on every recovery replay.

use crate::cache::QueryCache;
use crate::error::LiveError;
use crate::journal::DeltaJournal;
use crate::metrics::{time_stage, ShardMetrics, Stage};
use crate::snapshot::{EngineSnapshot, LiveWriter, SnapshotStore};
use obs_model::{Clock, CorpusDelta, PostId, SourceId};
use obs_search::{
    scatter_query, scatter_query_traced, SearchEngine, SearchHit, SearchMetrics, StaticBlend,
};
use obs_wrappers::{Crawler, DataService, HighWaterMarks, SweepReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Routes change-sets to shards by source id.
///
/// Documents and engagement route to [`SourceId::shard`] — a pure
/// function of the id, so a source's whole history lands in one
/// shard, which is what makes per-source aggregation (best score,
/// match count, engagement order) exact under scatter-gather.
/// Removals carry only a [`PostId`], so the router keeps a
/// post → shard registry fed by the adds it routes; removing a post
/// it never saw broadcasts to every shard, where removing an absent
/// document is a safe no-op.
///
/// With one shard, routing is the identity: the single sub-delta
/// reproduces the input delta exactly, so a 1-shard service journals
/// byte-for-byte what a bare journal fed the same batches holds.
///
/// ```
/// use obs_live::ShardRouter;
/// use obs_model::{CorpusDelta, PostId, SourceId};
///
/// let mut router = ShardRouter::new(4);
/// let mut delta = CorpusDelta::new();
/// delta.add_doc(PostId::new(0), SourceId::new(3), "duomo rooftop");
/// delta.add_doc(PostId::new(1), SourceId::new(9), "castle gardens");
/// delta.note_engagement(SourceId::new(3), 1, 2);
///
/// let routed = router.route(&delta);
/// assert_eq!(routed.len(), 4);
///
/// // Every document landed in its source's shard, engagement
/// // beside it.
/// let home = SourceId::new(3).shard(4);
/// assert_eq!(routed[home].added[0].post, PostId::new(0));
/// assert_eq!(routed[home].engagement[0].source, SourceId::new(3));
///
/// // A later removal follows the registry back to the same shard.
/// let mut removal = CorpusDelta::new();
/// removal.remove_doc(PostId::new(0));
/// let routed = router.route(&removal);
/// assert_eq!(routed[home].removed, vec![PostId::new(0)]);
/// ```
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: usize,
    /// Which shard each live post's document went to — consulted
    /// (and cleared) by removals, which carry no source id. Grows
    /// O(live posts); rebuilt from the journals on recovery.
    /// BTreeMap so iteration (debug dumps, future rebalancing) is
    /// ordered the same on every node and replay.
    homes: BTreeMap<PostId, usize>,
}

impl ShardRouter {
    /// A router over `shards` partitions.
    ///
    /// # Panics
    /// If `shards` is zero.
    pub fn new(shards: usize) -> ShardRouter {
        assert!(shards >= 1, "a shard router needs at least one shard");
        ShardRouter {
            shards,
            homes: BTreeMap::new(),
        }
    }

    /// Number of shards routed across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard a source's documents and engagement route to.
    pub fn shard_of(&self, source: SourceId) -> usize {
        source.shard(self.shards)
    }

    /// The shard currently housing a post (`None` once removed or
    /// never added through this router).
    pub fn home_of(&self, post: PostId) -> Option<usize> {
        self.homes.get(&post).copied()
    }

    /// Splits one delta into per-shard sub-deltas (index = shard),
    /// updating the post registry. Within each sub-delta the
    /// removals-before-adds apply order and the relative order of
    /// entries are preserved, so per-shard application reproduces
    /// the unsharded application of the original delta restricted to
    /// that shard's sources. Assumes the documented
    /// [`CorpusDelta`] invariant of at most one engagement entry per
    /// source.
    pub fn route(&mut self, delta: &CorpusDelta) -> Vec<CorpusDelta> {
        let mut routed = vec![CorpusDelta::new(); self.shards];
        for &post in &delta.removed {
            match self.homes.remove(&post) {
                Some(home) => routed[home].remove_doc(post),
                // Unknown post: broadcast. Whichever shard holds it
                // removes it; for the rest it is a no-op.
                None => {
                    for sub in routed.iter_mut() {
                        sub.remove_doc(post);
                    }
                }
            }
        }
        for doc in &delta.added {
            let home = self.shard_of(doc.source);
            self.homes.insert(doc.post, home);
            routed[home].add_doc(doc.post, doc.source, doc.text.clone());
        }
        for e in &delta.engagement {
            routed[self.shard_of(e.source)].note_engagement(e.source, e.discussions, e.comments);
        }
        routed
    }

    /// Registry hook for recovery replay: records that `post`'s
    /// document lives in `shard`.
    pub(crate) fn note_home(&mut self, post: PostId, shard: usize) {
        self.homes.insert(post, shard);
    }

    /// Registry hook for recovery replay: records that `post` was
    /// removed.
    pub(crate) fn forget(&mut self, post: PostId) {
        self.homes.remove(&post);
    }
}

/// What [`ShardedLiveService::recover`] did for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Journal records replayed into the seed engine.
    pub replayed: usize,
    /// Whether a truncated final record was dropped (torn tail).
    pub torn_tail_dropped: bool,
    /// Sequence the recovered shard resumed at.
    pub recovered_seq: u64,
}

/// One shard's moving parts: its journal and its writer. Commit
/// order inside a shard is the service invariant: journal (fsync) →
/// apply → publish.
#[derive(Debug)]
struct Shard {
    writer: LiveWriter,
    journal: DeltaJournal,
}

impl Shard {
    /// Group-commits this shard's sub-batch: all records under one
    /// fsync ([`DeltaJournal::append_batch`], all-or-nothing), one
    /// batched apply, one frozen snapshot — returned for the
    /// service's view publish. An empty batch touches nothing.
    fn commit(
        &mut self,
        deltas: &[CorpusDelta],
        metrics: Option<&ShardMetrics>,
    ) -> Result<Option<Arc<EngineSnapshot>>, LiveError> {
        let refs: Vec<&CorpusDelta> = deltas.iter().collect();
        let appended = time_stage(metrics, Stage::JournalFsync, || {
            self.journal.append_batch(&refs)
        });
        let Some((first, _)) = appended.inspect_err(|_| {
            // `append_batch` already retracted the staged batch
            // (all-or-nothing); account for it.
            if let Some(m) = metrics {
                m.retractions.inc();
            }
        })?
        else {
            return Ok(None);
        };
        if let Some(m) = metrics {
            m.batch_deltas.record(refs.len() as u64);
        }
        time_stage(metrics, Stage::Apply, || {
            self.writer.apply_batch(first, &refs)
        });
        Ok(Some(time_stage(metrics, Stage::Publish, || {
            self.writer.publish()
        })))
    }
}

/// Source of view epochs: process-wide, so no two views — of any
/// service in the process — ever share one. Epochs only key the
/// query cache; nothing journaled or routed depends on them.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(0);

/// One published serving view: every shard's snapshot and the global
/// blend of one routed commit, under one epoch.
///
/// A routed commit publishes exactly one of these, after its shard
/// commits join and the blend is re-standardized, and
/// [`ShardedReader::pin`] hands out the current one as a single
/// `Arc`. Everything downstream of a pin — the scatter plan, the
/// cache key, the cache-transparency contract — is a pure function
/// of it, so a caller holding one can compare cached and uncached
/// evaluations of the *same* view even while commits race ahead.
#[derive(Debug)]
pub struct PinnedShards {
    epoch: u64,
    snapshots: Vec<Arc<EngineSnapshot>>,
    blend: Arc<StaticBlend>,
}

impl PinnedShards {
    fn new(snapshots: Vec<Arc<EngineSnapshot>>, blend: Arc<StaticBlend>) -> PinnedShards {
        PinnedShards {
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            snapshots,
            blend,
        }
    }

    /// Per-shard snapshot sequences, in shard order.
    pub fn seqs(&self) -> Vec<u64> {
        self.snapshots.iter().map(|s| s.seq()).collect()
    }

    /// Total documents across the view's shard snapshots.
    pub fn doc_count(&self) -> usize {
        self.snapshots.iter().map(|s| s.engine().doc_count()).sum()
    }

    /// The view's global static score of a source.
    pub fn static_score(&self, source: SourceId) -> f64 {
        self.blend.score(source)
    }
}

/// What a failed multi-shard commit needs to surface internally: the
/// first failing shard and error, plus every source whose routed
/// content was refused (for mark rollback).
struct FailedCommit {
    shard: usize,
    error: LiveError,
    refused_sources: Vec<SourceId>,
}

impl FailedCommit {
    fn into_error(self) -> LiveError {
        LiveError::ShardCommit {
            shard: self.shard,
            cause: Box::new(self.error),
        }
    }
}

/// The live service: N independent journal + writer columns behind
/// one router, one global static blend, one published view and one
/// scatter-gather query plan.
///
/// Construction starts from an **empty** seed engine (carrying the
/// analytics-derived static signals but zero documents) and grows
/// every shard from the delta stream — an existing index cannot be
/// partitioned after the fact. The single-shard construction is the
/// unsharded service, byte-for-byte: same journal contents as a bare
/// [`DeltaJournal`], same rankings as a [`SearchEngine`] fed the same
/// deltas (proptest-pinned at the workspace level).
#[derive(Debug)]
pub struct ShardedLiveService {
    router: ShardRouter,
    shards: Vec<Shard>,
    /// The one global blend, absorbing every committed shard's
    /// engagement in arrival order.
    blend: StaticBlend,
    /// The published view readers pin: one pointer, swapped once per
    /// routed commit.
    view: Arc<SnapshotStore<PinnedShards>>,
    /// Per-shard commit instruments. This module is
    /// `lint:deterministic`, so all timing happens inside
    /// [`ShardMetrics`] (untagged `metrics` module) — the shard path
    /// only hands it closures and plan facts, never reads a clock.
    metrics: Option<ShardMetrics>,
    /// Epoch-keyed result cache shared by every reader this
    /// service hands out. Lives in the untagged
    /// [`cache`](crate::cache) module for the same reason as the
    /// metrics: this module only holds the handle and calls methods.
    query_cache: Option<Arc<QueryCache>>,
}

impl ShardedLiveService {
    /// The journal path of shard `shard` under `dir`.
    pub fn shard_journal_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.journal"))
    }

    /// Starts a fresh sharded service: `shards` journal files
    /// (`shard-{i}.journal`) created (truncated) under `dir` — the
    /// directory is created if missing — and every shard's writer
    /// seeded with a clone of `seed` at sequence 0. The global blend
    /// starts as `seed`'s blend.
    ///
    /// # Panics
    /// If `shards` is zero, or if `seed` already indexes documents —
    /// existing documents cannot be partitioned after the fact;
    /// ingest them as deltas instead.
    pub fn start(
        seed: &SearchEngine,
        shards: usize,
        dir: impl AsRef<Path>,
    ) -> Result<ShardedLiveService, LiveError> {
        Self::check_seed(seed, shards);
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(crate::journal::JournalError::Io)?;
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            handles.push(Shard {
                writer: LiveWriter::new(seed.clone(), 0),
                journal: DeltaJournal::create(Self::shard_journal_path(dir, i))?,
            });
        }
        Ok(Self::assemble(
            ShardRouter::new(shards),
            handles,
            seed.blend().clone(),
        ))
    }

    /// The service over freshly started or recovered shards, serving
    /// their current state as its first view.
    fn assemble(router: ShardRouter, shards: Vec<Shard>, blend: StaticBlend) -> ShardedLiveService {
        let snapshots = shards.iter().map(|s| s.writer.publish()).collect();
        let view = PinnedShards::new(snapshots, Arc::new(blend.clone()));
        ShardedLiveService {
            router,
            shards,
            blend,
            view: Arc::new(SnapshotStore::new(view)),
            metrics: None,
            query_cache: None,
        }
    }

    /// Attaches per-shard commit and query instruments (see
    /// [`ShardMetrics`]): subsequent routed commits record per-shard
    /// latency, outcome counters and fan-out width, and readers
    /// built by [`ShardedLiveService::reader`] record scatter-gather
    /// stage timings. The uninstrumented service records nothing.
    pub fn with_metrics(mut self, metrics: ShardMetrics) -> ShardedLiveService {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches an epoch-keyed [`QueryCache`] (see
    /// [`cache`](crate::cache)): every reader built by
    /// [`ShardedLiveService::reader`] from now on shares it, and a
    /// repeated query over an unchanged view is answered from the
    /// cached ranking instead of re-running the scatter plan. View
    /// publication invalidates for free — entries are keyed to the
    /// epoch of the view a commit swaps out — so cached and uncached
    /// readers are observably identical (pinned by the
    /// cache-transparency concurrency suite). The uncached service
    /// caches nothing.
    pub fn with_query_cache(mut self, cache: QueryCache) -> ShardedLiveService {
        self.query_cache = Some(Arc::new(cache));
        self
    }

    /// Rebuilds the pre-crash service by replaying **each shard's own
    /// journal** over a clone of `seed` — shards recover
    /// independently, so the cost of a crash is proportional to the
    /// largest shard, not the corpus. The router's post registry and
    /// the global blend are rebuilt from the replayed records; the
    /// per-shard reports come back in shard order.
    ///
    /// # Panics
    /// As [`ShardedLiveService::start`].
    pub fn recover(
        seed: &SearchEngine,
        shards: usize,
        dir: impl AsRef<Path>,
    ) -> Result<(ShardedLiveService, Vec<RecoveryReport>), LiveError> {
        Self::check_seed(seed, shards);
        let dir = dir.as_ref();
        let mut router = ShardRouter::new(shards);
        let mut blend = seed.blend().clone();
        let mut blend_touched = false;
        let mut handles = Vec::with_capacity(shards);
        let mut reports = Vec::with_capacity(shards);
        for i in 0..shards {
            let (mut journal, replay) = DeltaJournal::open(Self::shard_journal_path(dir, i))?;
            if let Some(first) = replay.records.first() {
                if first.seq > 1 {
                    return Err(LiveError::CheckpointGap {
                        checkpoint_seq: 0,
                        journal_first_seq: first.seq,
                    });
                }
            }
            // The whole journal as one batched apply: one index detach
            // and one re-blend, bit-identical to replaying it record
            // by record (the group-commit equivalence).
            let deltas: Vec<&CorpusDelta> = replay.records.iter().map(|r| &r.delta).collect();
            let mut writer = LiveWriter::new(seed.clone(), 0);
            writer.apply_batch(1, &deltas);
            for delta in deltas {
                // Registry rebuild mirrors routing order: removals
                // before adds, so a remove-then-readd inside one
                // delta leaves the post homed.
                for &post in &delta.removed {
                    router.forget(post);
                }
                for doc in &delta.added {
                    router.note_home(doc.post, i);
                }
                blend_touched |= blend.apply_engagement(&delta.engagement);
            }
            reports.push(RecoveryReport {
                replayed: replay.records.len(),
                torn_tail_dropped: replay.torn_tail_dropped,
                recovered_seq: writer.seq(),
            });
            journal.resume_at(writer.seq() + 1);
            handles.push(Shard { writer, journal });
        }
        if blend_touched {
            blend.reblend();
        }
        Ok((Self::assemble(router, handles, blend), reports))
    }

    fn check_seed(seed: &SearchEngine, shards: usize) {
        assert!(shards >= 1, "a sharded service needs at least one shard");
        assert_eq!(
            seed.doc_count(),
            0,
            "the seed engine must be empty: an existing index cannot be \
             partitioned after the fact — ingest its documents as deltas"
        );
    }

    /// Ingests one delta through the routed path (see
    /// [`ShardedLiveService::ingest_batch`]).
    pub fn ingest(&mut self, delta: &CorpusDelta) -> Result<(), LiveError> {
        self.ingest_batch(std::slice::from_ref(delta))
    }

    /// Ingests a burst of deltas: routes every delta into per-shard
    /// sub-deltas, then commits each shard's sub-batch **in
    /// parallel** (one scoped thread per non-empty shard), each as
    /// its own group commit — per-shard journal records under one
    /// per-shard fsync, one batched apply, one frozen snapshot.
    /// Engagement of every *committed* shard is then absorbed into
    /// the global blend (in arrival order per source — exact, since
    /// a source maps to one shard), the blend is re-standardized, and
    /// one view holding every shard's snapshot and the blend is
    /// published. Readers never observe a state inside the burst, nor
    /// shards from different bursts. Empty deltas are skipped without
    /// burning sequences; a burst with no changes publishes nothing.
    ///
    /// Failure is per-shard, not all-or-nothing across shards: a
    /// shard whose fsync is refused retracts its own sub-batch
    /// ([`DeltaJournal::append_batch`] semantics) while the other
    /// shards' commits stand. The error is
    /// [`LiveError::ShardCommit`] naming the first failed shard;
    /// sweep callers additionally get the refused sources' marks
    /// rolled back (see [`ShardedLiveService::tick_sweep`]).
    pub fn ingest_batch(&mut self, deltas: &[CorpusDelta]) -> Result<(), LiveError> {
        self.commit_routed(deltas).map_err(FailedCommit::into_error)
    }

    /// The shared ingest core: route, parallel per-shard commit,
    /// blend absorption for committed shards, one view publish.
    fn commit_routed(&mut self, deltas: &[CorpusDelta]) -> Result<(), FailedCommit> {
        let mut routed: Vec<Vec<CorpusDelta>> = vec![Vec::new(); self.shards.len()];
        for delta in deltas {
            if delta.is_empty() {
                continue;
            }
            for (shard, sub) in self.router.route(delta).into_iter().enumerate() {
                if !sub.is_empty() {
                    routed[shard].push(sub);
                }
            }
        }
        let metrics = self.metrics.as_ref();
        if let Some(m) = metrics {
            m.fanout
                .record(routed.iter().filter(|b| !b.is_empty()).count() as u64);
        }
        let outcomes: Vec<Result<Option<Arc<EngineSnapshot>>, LiveError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(&routed)
                    .enumerate()
                    .map(|(i, (shard, batch))| {
                        if batch.is_empty() {
                            None
                        } else {
                            Some(scope.spawn(move || match metrics {
                                Some(m) => m.time_shard_commit(i, || shard.commit(batch, metrics)),
                                None => shard.commit(batch, None),
                            }))
                        }
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h {
                        None => Ok(None),
                        // lint:allow(panic): join only errs if the commit thread panicked; re-raising that panic is the designed propagation
                        Some(h) => h.join().expect("shard commit thread panicked"),
                    })
                    .collect()
            });

        let current = self.view.load();
        let mut snapshots = current.snapshots.clone();
        let mut retired = Vec::new();
        let mut failed: Option<(usize, LiveError)> = None;
        let mut refused_sources: Vec<SourceId> = Vec::new();
        let mut blend_touched = false;
        for (shard, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(published) => {
                    if let Some(snapshot) = published {
                        retired.push(std::mem::replace(&mut snapshots[shard], snapshot));
                    }
                    for sub in &routed[shard] {
                        blend_touched |= self.blend.apply_engagement(&sub.engagement);
                    }
                }
                Err(error) => {
                    for sub in &routed[shard] {
                        refused_sources.extend(sub.added.iter().map(|d| d.source));
                        refused_sources.extend(sub.engagement.iter().map(|e| e.source));
                    }
                    if failed.is_none() {
                        failed = Some((shard, error));
                    }
                }
            }
        }
        if !retired.is_empty() {
            let blend = if blend_touched {
                self.blend.reblend();
                Arc::new(self.blend.clone())
            } else {
                Arc::clone(&current.blend)
            };
            self.view
                .publish(Arc::new(PinnedShards::new(snapshots, blend)));
            drop(current);
            // Unless a reader still pins the old view, this frees each
            // replaced shard index; free them in parallel, as the
            // commits that replaced them ran.
            std::thread::scope(|scope| {
                for snapshot in retired {
                    scope.spawn(move || drop(snapshot));
                }
            });
        }
        match failed {
            None => Ok(()),
            Some((shard, error)) => {
                refused_sources.sort_unstable();
                refused_sources.dedup();
                Err(FailedCommit {
                    shard,
                    error,
                    refused_sources,
                })
            }
        }
    }

    /// One sweep tick over every registered service: crawl each
    /// source since its high-water mark
    /// ([`Crawler::crawl_sweep`], fanned across
    /// `CrawlerConfig::workers` threads and joined back in service
    /// order, so the burst is byte-identical to a sequential crawl),
    /// route the burst and commit every shard's slice in parallel.
    ///
    /// Failure rollback is **per shard**: if some shards refuse
    /// their slice, only the sources routed to those shards get
    /// their marks rolled back to the pre-sweep readings
    /// ([`HighWaterMarks::rollback_many`]) — sources whose shard
    /// committed keep their advanced marks, because their content
    /// *is* durable. With one shard that is every participating
    /// source. A crawl-layer failure advances no mark (the crawler
    /// restores the marks itself) and journals nothing.
    pub fn tick_sweep(
        &mut self,
        crawler: &Crawler,
        services: &mut [Box<dyn DataService + '_>],
        clock: &mut Clock,
        marks: &mut HighWaterMarks,
    ) -> Result<SweepReport, LiveError> {
        let pre_sweep = marks.clone();
        let (deltas, report) = crawler.crawl_sweep(services, clock, marks)?;
        match self.commit_routed(&deltas) {
            Ok(()) => Ok(report),
            Err(failure) => {
                marks.rollback_many(failure.refused_sources.iter().copied(), &pre_sweep);
                if let Some(m) = &self.metrics {
                    m.rollbacks.inc();
                }
                Err(failure.into_error())
            }
        }
    }

    /// A scatter-gather reader over the published view. Cloneable,
    /// `Send`, never blocks on an in-flight commit.
    pub fn reader(&self) -> ShardedReader {
        ShardedReader {
            view: Arc::clone(&self.view),
            metrics: self.metrics.as_ref().map(|m| m.search().clone()),
            cache: self.query_cache.clone(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard sequence of the last committed delta (0 before the
    /// first), in shard order — the sequences of the published view.
    pub fn seqs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.writer.seq()).collect()
    }

    /// Total documents across every shard.
    pub fn doc_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.writer.engine().doc_count())
            .sum()
    }

    /// Number of records in one shard's journal.
    pub fn journal_len(&self, shard: usize) -> usize {
        self.shards[shard].journal.len()
    }

    /// One shard's private engine state (diagnostics and equivalence
    /// tests; readers should go through
    /// [`ShardedLiveService::reader`]).
    pub fn shard_engine(&self, shard: usize) -> &SearchEngine {
        self.shards[shard].writer.engine()
    }

    /// The router (diagnostics: shard count, source → shard, post
    /// homes).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Arms the next `n` fsyncs of one shard's journal to fail
    /// deterministically — per-shard durability fault injection for
    /// tests.
    pub fn inject_journal_sync_failures(&mut self, shard: usize, n: u32) {
        self.shards[shard].journal.inject_sync_failures(n);
    }
}

/// A cloneable reader handle fanning queries across every shard.
///
/// Each query pins the current published view — one `Arc` clone —
/// then runs the scatter-gather plan ([`obs_search::scatter_query`])
/// entirely outside any lock. A view is one whole routed commit, so
/// a reader racing commits sees every shard and the blend at the
/// same commit.
#[derive(Debug, Clone)]
pub struct ShardedReader {
    view: Arc<SnapshotStore<PinnedShards>>,
    /// Query-path instruments inherited from the service's
    /// [`ShardMetrics`]; the timing itself lives behind
    /// [`SearchMetrics`] so this `lint:deterministic` module stays
    /// clock-free.
    metrics: Option<SearchMetrics>,
    /// Epoch-keyed result cache inherited from
    /// [`ShardedLiveService::with_query_cache`]; `None` means every
    /// query runs the scatter plan.
    cache: Option<Arc<QueryCache>>,
}

impl ShardedReader {
    /// Pins the current published view: every shard's snapshot and
    /// the global blend of one routed commit, as one `Arc` clone.
    pub fn pin(&self) -> Arc<PinnedShards> {
        self.view.load()
    }

    /// Evaluates a query across all shards, returning the top `k`
    /// sources — bit-identical to an unsharded engine holding the
    /// same documents (term normalization, scoring and tie-breaking
    /// included). Pins the current view and delegates to
    /// [`ShardedReader::query_pinned`], so a cached reader consults
    /// the cache under the pinned key.
    pub fn query<S: AsRef<str>>(&self, terms: &[S], k: usize) -> Vec<SearchHit> {
        let pinned = self.pin();
        self.query_pinned(&pinned, terms, k)
    }

    /// Evaluates a query against an explicit pinned view. With a
    /// cache attached, the result is served from (or filled into)
    /// the entry keyed by exactly this view's epoch — by the
    /// cache-transparency invariant it is bit-identical to
    /// [`ShardedReader::query_uncached`] on the same pin.
    pub fn query_pinned<S: AsRef<str>>(
        &self,
        pinned: &PinnedShards,
        terms: &[S],
        k: usize,
    ) -> Vec<SearchHit> {
        match &self.cache {
            Some(cache) => cache.query_or_compute(pinned.epoch, terms, k, |normalized| {
                self.run_plan(pinned, normalized, k)
            }),
            None => self.run_plan(pinned, terms, k),
        }
    }

    /// Evaluates a query against a pinned view, always running the
    /// full scatter plan and never touching the cache — the oracle
    /// side of the cache-transparency contract.
    pub fn query_uncached<S: AsRef<str>>(
        &self,
        pinned: &PinnedShards,
        terms: &[S],
        k: usize,
    ) -> Vec<SearchHit> {
        self.run_plan(pinned, terms, k)
    }

    /// The scatter-gather plan over a pinned view, instrumented when
    /// the service carries [`SearchMetrics`].
    fn run_plan<S: AsRef<str>>(
        &self,
        pinned: &PinnedShards,
        terms: &[S],
        k: usize,
    ) -> Vec<SearchHit> {
        let engines: Vec<&SearchEngine> = pinned.snapshots.iter().map(|s| s.engine()).collect();
        let blend = &pinned.blend;
        match &self.metrics {
            Some(m) => {
                let mut timer = m.trace();
                scatter_query_traced(
                    &engines,
                    terms,
                    k,
                    |s| blend.score(s),
                    blend.weights(),
                    &mut timer,
                )
            }
            None => scatter_query(&engines, terms, k, |s| blend.score(s), blend.weights()),
        }
    }

    /// Per-shard snapshot sequences of the current view, in shard
    /// order.
    pub fn seqs(&self) -> Vec<u64> {
        self.pin().seqs()
    }

    /// Total documents across the current view's shard snapshots.
    pub fn doc_count(&self) -> usize {
        self.pin().doc_count()
    }

    /// The current view's global static score of a source
    /// (diagnostics and equivalence tests).
    pub fn static_score(&self, source: SourceId) -> f64 {
        self.pin().static_score(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_analytics::{AlexaPanel, LinkGraph};
    use obs_search::BlendWeights;
    use obs_synth::{World, WorldConfig};
    use obs_wrappers::service_for;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "obs_live_shard_{}_{}_{}",
            std::process::id(),
            tag,
            n
        ))
    }

    fn world_and_engine(seed: u64) -> (World, SearchEngine) {
        let world = World::generate(WorldConfig::small(seed));
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 2);
        let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
        (world, engine)
    }

    /// An engine carrying the world's static signals but zero
    /// documents — the sharded seed.
    fn empty_seed(world: &World, engine: &SearchEngine) -> SearchEngine {
        let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
        let mut empty = engine.clone();
        empty.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
        assert_eq!(empty.doc_count(), 0);
        empty
    }

    /// The full post history as a stream of multi-post deltas.
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

    #[test]
    fn router_sends_docs_engagement_and_removals_to_the_source_shard() {
        let mut router = ShardRouter::new(4);
        let source = SourceId::new(11);
        let home = router.shard_of(source);
        let mut delta = CorpusDelta::new();
        delta.add_doc(PostId::new(5), source, "duomo rooftop");
        delta.note_engagement(source, 2, 3);

        let routed = router.route(&delta);
        assert_eq!(routed.len(), 4);
        for (i, sub) in routed.iter().enumerate() {
            if i == home {
                assert_eq!(sub.added.len(), 1);
                assert_eq!(sub.engagement.len(), 1);
            } else {
                assert!(sub.is_empty(), "shard {i} got foreign content");
            }
        }
        assert_eq!(router.home_of(PostId::new(5)), Some(home));

        // The removal follows the registry, then clears it.
        let mut removal = CorpusDelta::new();
        removal.remove_doc(PostId::new(5));
        let routed = router.route(&removal);
        assert_eq!(routed[home].removed, vec![PostId::new(5)]);
        assert_eq!(router.home_of(PostId::new(5)), None);

        // Unknown posts broadcast to every shard.
        let mut unknown = CorpusDelta::new();
        unknown.remove_doc(PostId::new(999));
        let routed = router.route(&unknown);
        for sub in &routed {
            assert_eq!(sub.removed, vec![PostId::new(999)]);
        }
    }

    #[test]
    fn single_shard_routing_is_the_identity() {
        let mut router = ShardRouter::new(1);
        let mut delta = CorpusDelta::new();
        delta.remove_doc(PostId::new(9));
        delta.add_doc(PostId::new(1), SourceId::new(3), "duomo");
        delta.add_doc(PostId::new(2), SourceId::new(8), "castle");
        delta.note_engagement(SourceId::new(3), 1, 1);
        delta.note_engagement(SourceId::new(8), 2, 0);
        let routed = router.route(&delta);
        assert_eq!(routed.len(), 1);
        assert_eq!(routed[0], delta);
    }

    #[test]
    fn sharded_service_matches_unsharded_engine() {
        let (world, engine) = world_and_engine(601);
        let seed = empty_seed(&world, &engine);
        let stream = delta_stream(&world, 7);
        let probe: Vec<String> = vec!["duomo".into(), "rooftop".into(), "castle".into()];

        let mut unsharded = seed.clone();
        let dir = temp_dir("sharded");
        let mut sharded = ShardedLiveService::start(&seed, 3, &dir).unwrap();

        for batch in stream.chunks(4) {
            unsharded.apply_deltas(batch.iter());
            sharded.ingest_batch(batch).unwrap();
        }
        assert_eq!(sharded.doc_count(), unsharded.doc_count());
        assert_eq!(sharded.doc_count(), engine.doc_count());

        let reader = sharded.reader();
        assert_eq!(reader.query(&probe, 50), unsharded.query(&probe, 50));
        for s in world.corpus.sources() {
            assert_eq!(reader.static_score(s.id), unsharded.static_score(s.id));
        }
        cleanup(&dir);
    }

    #[test]
    fn empty_bursts_journal_and_publish_nothing() {
        let (world, engine) = world_and_engine(607);
        let seed = empty_seed(&world, &engine);
        let stream = delta_stream(&world, 5);
        let dir = temp_dir("empty_bursts");
        let mut service = ShardedLiveService::start(&seed, 2, &dir).unwrap();
        let sparse = vec![
            CorpusDelta::new(),
            stream[0].clone(),
            CorpusDelta::new(),
            stream[1].clone(),
        ];
        service.ingest_batch(&sparse).unwrap();
        let seqs = service.seqs();
        // Empty deltas burn no sequence: only the two real deltas
        // were journaled, spread over the shards they route to.
        let journaled: usize = (0..2).map(|i| service.journal_len(i)).sum();
        assert_eq!(journaled as u64, seqs.iter().sum::<u64>());
        assert!(journaled <= 4);

        let reader = service.reader();
        let pinned = reader.pin();
        let journals: Vec<Vec<u8>> = (0..2)
            .map(|i| std::fs::read(ShardedLiveService::shard_journal_path(&dir, i)).unwrap())
            .collect();
        service
            .ingest_batch(&[CorpusDelta::new(), CorpusDelta::new()])
            .unwrap();
        service.ingest(&CorpusDelta::new()).unwrap();
        assert_eq!(service.seqs(), seqs);
        for (i, bytes) in journals.iter().enumerate() {
            let path = ShardedLiveService::shard_journal_path(&dir, i);
            assert_eq!(&std::fs::read(path).unwrap(), bytes);
        }
        // Not even a republish: the served view is the same Arc.
        assert!(Arc::ptr_eq(&pinned, &reader.pin()));
        cleanup(&dir);
    }

    #[test]
    fn instrumented_service_records_shard_commits_fanout_and_queries() {
        use obs_telemetry::Registry;

        let (world, engine) = world_and_engine(608);
        let seed = empty_seed(&world, &engine);
        let stream = delta_stream(&world, 7);
        let dir = temp_dir("metrics");
        let registry = Registry::new();
        let metrics = ShardMetrics::new(&registry, 3);
        let mut service = ShardedLiveService::start(&seed, 3, &dir)
            .unwrap()
            .with_metrics(metrics.clone());

        let mut bursts = 0u64;
        for batch in stream.chunks(4) {
            service.ingest_batch(batch).unwrap();
            bursts += 1;
        }
        // Every routed commit recorded an outcome: commit totals
        // across shards equal the fan-out histogram's running sum.
        let counts = metrics.commit_counts();
        let committed: u64 = counts.iter().map(|(_, c, _)| c).sum();
        assert!(committed > 0, "no shard commits recorded");
        assert_eq!(counts.iter().map(|(_, _, f)| f).sum::<u64>(), 0);
        let fanout = metrics.fanout.snapshot();
        assert_eq!(fanout.count(), bursts);
        assert_eq!(fanout.sum(), committed);

        // The instrumented reader answers identically and records
        // query-path timings.
        let reader = service.reader();
        let probe: Vec<String> = vec!["duomo".into(), "castle".into()];
        let hits = reader.query(&probe, 20);
        assert_eq!(hits, service.reader().query(&probe, 20));
        assert_eq!(metrics.search().query_snapshot().count(), 2);

        let text = registry.render_text();
        assert!(text.contains("live_shard_commit_ns_count{shard=\"0\"}"));
        assert!(text.contains("live_commit_fanout_shards_count"));
        assert!(text.contains("search_query_ns_count 2"));
        // Every shard commit recorded each stage once and its group
        // size.
        for stage in ["journal_fsync", "apply", "publish"] {
            let series = format!("live_ingest_stage_ns_count{{stage=\"{stage}\"}} {committed}");
            assert!(text.contains(&series), "missing {series}");
        }
        assert!(text.contains(&format!("live_ingest_batch_deltas_count {committed}")));

        // A per-shard fsync failure lands in that shard's failure
        // column; the probe delta targets a source homed on shard 0.
        let source = (0..100)
            .map(SourceId::new)
            .find(|s| service.router().shard_of(*s) == 0)
            .unwrap();
        let mut probe_delta = CorpusDelta::new();
        probe_delta.add_doc(PostId::new(999_999), source, "metrics probe");
        service.inject_journal_sync_failures(0, 1);
        assert!(service.ingest_batch(&[probe_delta]).is_err());
        let counts = metrics.commit_counts();
        assert_eq!(counts[0].2, 1, "shard 0 failure not recorded: {counts:?}");
        assert!(registry
            .render_text()
            .contains("live_journal_retractions_total 1"));
        cleanup(&dir);
    }

    #[test]
    fn one_shard_journals_byte_identically_to_a_bare_journal() {
        let (world, engine) = world_and_engine(602);
        let seed = empty_seed(&world, &engine);
        let stream = delta_stream(&world, 5);

        let base = temp_dir("bytes");
        let bare_path = base.join("bare.journal");
        std::fs::create_dir_all(&base).unwrap();
        let mut bare = DeltaJournal::create(&bare_path).unwrap();
        let dir = base.join("sharded");
        let mut sharded = ShardedLiveService::start(&seed, 1, &dir).unwrap();

        for batch in stream.chunks(3) {
            let refs: Vec<&CorpusDelta> = batch.iter().collect();
            bare.append_batch(&refs).unwrap();
            sharded.ingest_batch(batch).unwrap();
        }
        let single = std::fs::read(&bare_path).unwrap();
        let shard0 = std::fs::read(ShardedLiveService::shard_journal_path(&dir, 0)).unwrap();
        assert_eq!(single, shard0, "1-shard journal must be byte-identical");
        cleanup(&base);
    }

    #[test]
    fn failed_shard_leaves_other_shards_committed() {
        let (world, engine) = world_and_engine(603);
        let seed = empty_seed(&world, &engine);
        let stream = delta_stream(&world, 6);
        let dir = temp_dir("partial_failure");
        let mut service = ShardedLiveService::start(&seed, 2, &dir).unwrap();
        service.ingest_batch(&stream[..2]).unwrap();
        let seqs_before = service.seqs();
        let docs_before = service.doc_count();

        // The next burst routes content to both shards; shard 0's
        // fsync is refused.
        service.inject_journal_sync_failures(0, 1);
        let err = service.ingest_batch(&stream[2..]).unwrap_err();
        match err {
            LiveError::ShardCommit { shard, ref cause } => {
                assert_eq!(shard, 0);
                assert!(matches!(**cause, LiveError::Journal(_)), "{cause:?}");
            }
            other => panic!("expected ShardCommit, got {other:?}"),
        }
        // Shard 0 rolled its slice back; shard 1's commit stands.
        let seqs_after = service.seqs();
        assert_eq!(seqs_after[0], seqs_before[0]);
        assert!(seqs_after[1] > seqs_before[1], "healthy shard must commit");
        assert!(service.doc_count() > docs_before);
        assert!(service.doc_count() < engine.doc_count());
        cleanup(&dir);
    }

    #[test]
    fn sharded_sweep_rolls_back_only_the_failed_shards_sources() {
        let (world, engine) = world_and_engine(604);
        let seed = empty_seed(&world, &engine);
        let dir = temp_dir("sweep_rollback");
        let mut service = ShardedLiveService::start(&seed, 2, &dir).unwrap();
        let crawler = Crawler::default();
        let mut marks = HighWaterMarks::new();
        let pre_sweep = marks.clone();
        let mut services: Vec<Box<dyn DataService + '_>> = world
            .corpus
            .sources()
            .iter()
            .map(|s| service_for(&world.corpus, s.id, world.now).unwrap())
            .collect();
        let mut clock = Clock::starting_at(world.now);

        // Both shards host sources in any non-trivial world.
        let shard_of = |s: SourceId| s.shard(2);
        assert!(world.corpus.sources().iter().any(|s| shard_of(s.id) == 0));
        assert!(world.corpus.sources().iter().any(|s| shard_of(s.id) == 1));

        service.inject_journal_sync_failures(1, 1);
        let err = service
            .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
            .unwrap_err();
        assert!(
            matches!(err, LiveError::ShardCommit { shard: 1, .. }),
            "{err:?}"
        );
        // Every mark still advanced belongs to the committed shard
        // (sources with no observed items never get a mark at all),
        // and the committed shard did keep some.
        let mut committed_kept = 0;
        for source in world.corpus.sources() {
            if shard_of(source.id) == 1 {
                // Refused shard: back to the pre-sweep reading.
                assert_eq!(marks.since(source.id), pre_sweep.since(source.id));
            } else if marks.since(source.id).is_some() {
                committed_kept += 1;
            }
        }
        assert!(committed_kept > 0, "committed shard must keep its marks");

        // The retry re-observes only the refused sources and lands
        // the full corpus.
        let report = service
            .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
            .unwrap();
        assert!(report.fresh_sources > 0);
        assert_eq!(service.doc_count(), engine.doc_count());
        let extra = service
            .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
            .unwrap();
        assert_eq!(extra.fresh_sources, 0, "sweep must have converged");
        cleanup(&dir);
    }

    #[test]
    fn per_shard_recovery_restores_rankings_and_routing() {
        let (world, engine) = world_and_engine(605);
        let seed = empty_seed(&world, &engine);
        let stream = delta_stream(&world, 4);
        let probe: Vec<String> = vec!["duomo".into(), "gardens".into()];
        let dir = temp_dir("recovery");

        let (pre_hits, pre_seqs, pre_docs) = {
            let mut doomed = ShardedLiveService::start(&seed, 3, &dir).unwrap();
            for batch in stream.chunks(2) {
                doomed.ingest_batch(batch).unwrap();
            }
            let reader = doomed.reader();
            (reader.query(&probe, 50), doomed.seqs(), doomed.doc_count())
        }; // killed here — no shutdown, no checkpoint

        let (recovered, reports) = ShardedLiveService::recover(&seed, 3, &dir).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(recovered.seqs(), pre_seqs);
        assert_eq!(recovered.doc_count(), pre_docs);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.recovered_seq, pre_seqs[i]);
            assert_eq!(report.replayed as u64, pre_seqs[i]);
            assert!(!report.torn_tail_dropped);
        }
        assert_eq!(recovered.reader().query(&probe, 50), pre_hits);

        // The rebuilt registry still routes removals home: removing
        // a known post lands in exactly one shard.
        let mut service = recovered;
        let post = world.corpus.posts().first().unwrap().id;
        let mut removal = CorpusDelta::new();
        removal.remove_doc(post);
        let docs = service.doc_count();
        service.ingest(&removal).unwrap();
        assert_eq!(service.doc_count(), docs - 1);
        cleanup(&dir);
    }

    #[test]
    fn journal_compacted_past_the_seed_is_a_gap_on_recovery() {
        let (world, engine) = world_and_engine(609);
        let seed = empty_seed(&world, &engine);
        let stream = delta_stream(&world, 6);
        let dir = temp_dir("gap");
        {
            let mut doomed = ShardedLiveService::start(&seed, 1, &dir).unwrap();
            doomed.ingest_batch(&stream[..3]).unwrap();
        }
        // Drop records 1..=2 with nothing outside the journal
        // covering them: the seed cannot bridge to record 3.
        let path = ShardedLiveService::shard_journal_path(&dir, 0);
        let (mut journal, _) = DeltaJournal::open(&path).unwrap();
        journal.compact_through(2).unwrap();
        drop(journal);
        match ShardedLiveService::recover(&seed, 1, &dir).unwrap_err() {
            LiveError::CheckpointGap {
                checkpoint_seq,
                journal_first_seq,
            } => {
                assert_eq!(checkpoint_seq, 0);
                assert_eq!(journal_first_seq, 3);
            }
            other => panic!("expected CheckpointGap, got {other:?}"),
        }
        cleanup(&dir);
    }

    #[test]
    #[should_panic(expected = "seed engine must be empty")]
    fn non_empty_seed_is_rejected() {
        let (_, engine) = world_and_engine(606);
        let dir = temp_dir("bad_seed");
        let _ = ShardedLiveService::start(&engine, 2, &dir);
    }
}
