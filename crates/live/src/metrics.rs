//! Serving-layer metrics: commit pipeline stages and per-shard
//! health.
//!
//! This module is the *untagged* timing half of the serving layer's
//! observability. [`shard`](crate::shard) is `lint:deterministic`
//! (the router and commit order must replay identically), so it
//! never reads a clock itself — it hands closures to
//! [`ShardMetrics::time_shard_commit`] and to the crate-private
//! stage timer, which live here and own the
//! [`TelemetryClock`](obs_telemetry::TelemetryClock). The
//! instruments:
//!
//! | instrument | type | labels | answers |
//! |---|---|---|---|
//! | `live_ingest_stage_ns` | histogram | `stage` | where does a shard commit spend its time? |
//! | `live_ingest_batch_deltas` | histogram | — | how big are group commits? |
//! | `live_journal_retractions_total` | counter | — | how often did durability fail? |
//! | `live_mark_rollbacks_total` | counter | — | how often were crawl cursors rolled back? |
//! | `live_shard_commit_ns` | histogram | `shard` | is one shard slow? |
//! | `live_shard_commits_total` | counter | `shard` | is commit load balanced? |
//! | `live_shard_failures_total` | counter | `shard` | is one shard failing? |
//! | `live_commit_fanout_shards` | histogram | — | how wide do routed commits fan out? |
//!
//! `stage` is `journal_fsync` (one
//! [`DeltaJournal::append_batch`](crate::DeltaJournal::append_batch)
//! call: every record of the sub-batch under one fsync — the
//! group-commit point), `apply` (the batched engine apply) or
//! `publish` (freezing the shard's new snapshot).

use crate::error::LiveError;
use obs_search::SearchMetrics;
use obs_telemetry::{Counter, Histogram, Registry, SharedClock};

/// One timed step of a shard commit (the `stage` label of
/// `live_ingest_stage_ns`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    JournalFsync,
    Apply,
    Publish,
}

/// Instrument handles for a
/// [`ShardedLiveService`](crate::ShardedLiveService): commit-stage
/// timings, group-commit sizes and retractions, per-shard commit
/// latency and outcome counters, commit fan-out width, the
/// mark-rollback counter, and the query path's [`SearchMetrics`] for
/// its [`ShardedReader`](crate::ShardedReader). Cheap to clone;
/// recording is lock-free.
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    clock: SharedClock,
    stages: [Histogram; 3],
    pub(crate) batch_deltas: Histogram,
    pub(crate) retractions: Counter,
    commit_ns: Vec<Histogram>,
    commits: Vec<Counter>,
    failures: Vec<Counter>,
    pub(crate) fanout: Histogram,
    pub(crate) rollbacks: Counter,
    search: SearchMetrics,
}

impl ShardMetrics {
    /// Registers per-shard instruments for `shards` shards in
    /// `registry`.
    pub fn new(registry: &Registry, shards: usize) -> ShardMetrics {
        // Name literals stay inline at each registration call so the
        // instrument-drift lint pass can see them.
        ShardMetrics {
            clock: registry.clock_handle(),
            stages: ["journal_fsync", "apply", "publish"]
                .map(|s| registry.histogram_with("live_ingest_stage_ns", &[("stage", s)])),
            batch_deltas: registry.histogram("live_ingest_batch_deltas"),
            retractions: registry.counter("live_journal_retractions_total"),
            commit_ns: (0..shards)
                .map(|i| {
                    registry.histogram_with("live_shard_commit_ns", &[("shard", &i.to_string())])
                })
                .collect(),
            commits: (0..shards)
                .map(|i| {
                    registry.counter_with("live_shard_commits_total", &[("shard", &i.to_string())])
                })
                .collect(),
            failures: (0..shards)
                .map(|i| {
                    registry.counter_with("live_shard_failures_total", &[("shard", &i.to_string())])
                })
                .collect(),
            fanout: registry.histogram("live_commit_fanout_shards"),
            rollbacks: registry.counter("live_mark_rollbacks_total"),
            search: SearchMetrics::new(registry, shards),
        }
    }

    /// The query-path metrics a [`ShardedReader`](crate::ShardedReader)
    /// built from the instrumented service records into.
    pub fn search(&self) -> &SearchMetrics {
        &self.search
    }

    /// Runs one shard's commit closure under the latency/outcome
    /// instruments — the clock boundary the `lint:deterministic`
    /// shard module calls instead of reading time itself. A shard
    /// index beyond the registered range still runs the closure; it
    /// just records nothing.
    pub fn time_shard_commit<T>(
        &self,
        shard: usize,
        commit: impl FnOnce() -> Result<T, LiveError>,
    ) -> Result<T, LiveError> {
        let start = self.clock.now_ns();
        let outcome = commit();
        let elapsed = self.clock.now_ns().saturating_sub(start);
        if let Some(hist) = self.commit_ns.get(shard) {
            hist.record(elapsed);
        }
        let column = match &outcome {
            Ok(_) => &self.commits,
            Err(_) => &self.failures,
        };
        if let Some(counter) = column.get(shard) {
            counter.inc();
        }
        outcome
    }

    /// Per-shard commit counts `(shard, commits, failures)` — the
    /// balance view the examples print.
    pub fn commit_counts(&self) -> Vec<(usize, u64, u64)> {
        self.commits
            .iter()
            .zip(&self.failures)
            .enumerate()
            .map(|(i, (c, f))| (i, c.get(), f.get()))
            .collect()
    }
}

/// Runs one commit stage, recording its duration under
/// `live_ingest_stage_ns{stage}` when the service is instrumented —
/// the stage-level clock boundary for the shard module.
pub(crate) fn time_stage<T>(
    metrics: Option<&ShardMetrics>,
    stage: Stage,
    step: impl FnOnce() -> T,
) -> T {
    let Some(m) = metrics else {
        return step();
    };
    let start = m.clock.now_ns();
    let out = step();
    m.stages[stage as usize].record(m.clock.now_ns().saturating_sub(start));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_telemetry::ManualClock;
    use std::sync::Arc;

    #[test]
    fn shard_commit_timer_splits_outcomes_per_shard() {
        let clock = Arc::new(ManualClock::new());
        let registry = Registry::with_clock(clock.clone());
        let metrics = ShardMetrics::new(&registry, 2);

        let ok: Result<u32, LiveError> = metrics.time_shard_commit(0, || {
            clock.advance(500);
            Ok(7)
        });
        assert_eq!(ok.ok(), Some(7));
        let err: Result<(), LiveError> = metrics.time_shard_commit(1, || {
            clock.advance(900);
            Err(LiveError::CheckpointGap {
                checkpoint_seq: 0,
                journal_first_seq: 2,
            })
        });
        assert!(err.is_err());

        assert_eq!(metrics.commit_counts(), vec![(0, 1, 0), (1, 0, 1)]);
        assert_eq!(metrics.commit_ns[0].snapshot().sum(), 500);
        assert_eq!(metrics.commit_ns[1].snapshot().sum(), 900);
    }

    #[test]
    fn out_of_range_shard_still_commits() {
        let registry = Registry::new();
        let metrics = ShardMetrics::new(&registry, 1);
        let ok: Result<u32, LiveError> = metrics.time_shard_commit(9, || Ok(1));
        assert_eq!(ok.ok(), Some(1));
        assert_eq!(metrics.commit_counts(), vec![(0, 0, 0)]);
    }

    #[test]
    fn stage_timer_records_under_its_stage_label_only_when_instrumented() {
        let clock = Arc::new(ManualClock::new());
        let registry = Registry::with_clock(clock.clone());
        let metrics = ShardMetrics::new(&registry, 1);
        let out = time_stage(Some(&metrics), Stage::Apply, || {
            clock.advance(40);
            7
        });
        assert_eq!(out, 7);
        assert_eq!(time_stage(None, Stage::Publish, || 8), 8);
        assert_eq!(metrics.stages[Stage::Apply as usize].snapshot().sum(), 40);
        let text = registry.render_text();
        assert!(text.contains("live_ingest_stage_ns_count{stage=\"apply\"} 1"));
        assert!(text.contains("live_ingest_stage_ns_count{stage=\"publish\"} 0"));
    }
}
