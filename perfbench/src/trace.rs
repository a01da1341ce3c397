//! The traced run's machinery: an in-memory span recorder and a
//! decomposed copy of the service's query and commit paths, built from
//! the layers' public functions, with a span around every call.
//!
//! The copy ([`Mirror`]) owns its own router, per-shard journals and
//! writers and its own global blend, and is fed exactly what the
//! service is fed. Its rankings must equal the service's to the bit and
//! its journals must equal the service's byte for byte; otherwise the
//! per-layer numbers would describe some other program.

use crate::setup::{postings_of, K};
use obs_live::{
    DeltaJournal, EngineSnapshot, LiveWriter, ShardRouter, ShardedLiveService, SnapshotReader,
};
use obs_model::CorpusDelta;
use obs_search::{
    merge_partials, normalize_query, InvertedIndex, ScatterStats, SearchEngine, SearchHit,
    StaticBlend,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One recorded call: name, interval, the span that caused it, the
/// request it belongs to and a count of the work it did.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub count: u64,
}

/// Spans kept in memory until the run ends. Nesting follows a stack:
/// a span entered while another is open is its child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
            count: 0,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize, count: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count;
        if self.open.last() == Some(&id) {
            self.open.pop();
        }
    }

    /// Sets a closed span's count, for counts taken after the call.
    pub fn set_count(&mut self, id: usize, count: u64) {
        self.spans[id].count = count;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per request, the summed duration (ns) and count of the spans
    /// called `name`, in request order.
    pub fn per_request(&self, name: &str) -> Vec<(f64, u64)> {
        let mut out: Vec<(u64, f64, u64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match out.last_mut() {
                Some(last) if last.0 == s.request => {
                    last.1 += (s.end_ns - s.start_ns) as f64;
                    last.2 += s.count;
                }
                _ => out.push((s.request, (s.end_ns - s.start_ns) as f64, s.count)),
            }
        }
        out.into_iter().map(|(_, d, c)| (d, c)).collect()
    }

    /// Self time per span name (duration minus the time covered by
    /// child spans), summed over the run, in ns, sorted by name.
    pub fn self_time(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64)> =
            std::collections::BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = by_name.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child);
            e.1 += 1;
        }
        by_name.into_iter().map(|(n, (t, c))| (n, t, c)).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.count
            )?;
        }
        out.flush()
    }
}

/// The service's commit and query paths rebuilt from public calls.
pub struct Mirror {
    router: ShardRouter,
    journals: Vec<DeltaJournal>,
    writers: Vec<LiveWriter>,
    readers: Vec<SnapshotReader>,
    blend: StaticBlend,
    published: Arc<StaticBlend>,
    pub journal_paths: Vec<PathBuf>,
    /// Journal bytes and records appended, and shards touched per commit.
    pub bytes_appended: u64,
    pub records_appended: u64,
    pub fanout: Vec<usize>,
}

impl Mirror {
    pub fn start(seed: &SearchEngine, shards: usize, dir: &Path) -> Result<Mirror, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let journal_paths: Vec<PathBuf> = (0..shards)
            .map(|i| ShardedLiveService::shard_journal_path(dir, i))
            .collect();
        let journals = journal_paths
            .iter()
            .map(DeltaJournal::create)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let writers: Vec<LiveWriter> = (0..shards)
            .map(|_| LiveWriter::new(seed.clone(), 0))
            .collect();
        let readers = writers.iter().map(LiveWriter::reader).collect();
        let blend = seed.blend().clone();
        Ok(Mirror {
            router: ShardRouter::new(shards),
            journals,
            writers,
            readers,
            published: Arc::new(blend.clone()),
            blend,
            journal_paths,
            bytes_appended: 0,
            records_appended: 0,
            fanout: Vec::new(),
        })
    }

    /// route → per shard (journal append + fsync → apply → publish) →
    /// blend, as `ShardedLiveService::ingest_batch` does it, but with
    /// the shards committed one after another so each call is timed
    /// alone.
    pub fn commit(
        &mut self,
        deltas: &[CorpusDelta],
        t: &mut Tracer,
        request: u64,
    ) -> Result<(), String> {
        let root = t.enter("commit", request);
        let span = t.enter("shard.route", request);
        let mut routed: Vec<Vec<CorpusDelta>> = vec![Vec::new(); self.writers.len()];
        for delta in deltas.iter().filter(|d| !d.is_empty()) {
            for (shard, sub) in self.router.route(delta).into_iter().enumerate() {
                if !sub.is_empty() {
                    routed[shard].push(sub);
                }
            }
        }
        t.exit(span, deltas.len() as u64);
        let touched = routed.iter().filter(|b| !b.is_empty()).count();
        self.fanout.push(touched);
        for (shard, batch) in routed.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let refs: Vec<&CorpusDelta> = batch.iter().collect();
            let before = self.journal_len(shard);
            let span = t.enter("journal.append_sync", request);
            let appended = self.journals[shard].append_batch(&refs);
            t.exit(span, refs.len() as u64);
            let Some((first, _)) = appended.map_err(|e| e.to_string())? else {
                continue;
            };
            self.bytes_appended += self.journal_len(shard) - before;
            self.records_appended += refs.len() as u64;
            let span = t.enter("snapshot.apply", request);
            self.writers[shard].apply_batch(first, &refs);
            t.exit(span, refs.len() as u64);
            let span = t.enter("snapshot.publish", request);
            self.writers[shard].publish();
            t.exit(span, 1);
        }
        let span = t.enter("blend.reblend", request);
        let mut blend_touched = false;
        for sub in routed.iter().flatten() {
            blend_touched |= self.blend.apply_engagement(&sub.engagement);
        }
        if blend_touched {
            self.blend.reblend();
            self.published = Arc::new(self.blend.clone());
        }
        t.exit(span, u64::from(blend_touched));
        t.exit(root, touched as u64);
        Ok(())
    }

    /// Forgets the counts gathered so far (after catching up).
    pub fn reset_counts(&mut self) {
        self.bytes_appended = 0;
        self.records_appended = 0;
        self.fanout.clear();
    }

    fn journal_len(&self, shard: usize) -> u64 {
        std::fs::metadata(&self.journal_paths[shard]).map_or(0, |m| m.len())
    }

    /// normalize → gather → per-shard partial → merge over the current
    /// snapshots, as `ShardedReader::query_uncached` does it.
    pub fn query(&self, terms: &[String], t: &mut Tracer, request: u64) -> Vec<SearchHit> {
        let root = t.enter("query", request);
        let snapshots: Vec<Arc<EngineSnapshot>> =
            self.readers.iter().map(|r| r.snapshot()).collect();
        let blend = Arc::clone(&self.published);
        let span = t.enter("scatter.normalize", request);
        let normalized = normalize_query(terms);
        t.exit(span, normalized.len() as u64);
        let indexes: Vec<&InvertedIndex> = snapshots.iter().map(|s| s.engine().index()).collect();
        let span = t.enter("scatter.gather", request);
        let stats = ScatterStats::gather(&indexes, &normalized);
        t.exit(span, 0);
        t.set_count(span, postings_of(&indexes, terms) as u64);
        let mut partials = Vec::new();
        for snapshot in &snapshots {
            let span = t.enter("engine.partial", request);
            let part = snapshot.engine().partial_query(&normalized, &stats);
            t.exit(span, part.len() as u64);
            partials.extend(part);
        }
        let span = t.enter("scatter.merge", request);
        let merged = partials.len() as u64;
        let hits = merge_partials(partials, |s| blend.score(s), blend.weights(), K);
        t.exit(span, merged);
        t.exit(root, hits.len() as u64);
        hits
    }
}
