//! # obs-live — concurrent snapshot serving with a durable delta journal
//!
//! The batch pipeline builds a [`SearchEngine`](obs_search::SearchEngine)
//! once and queries it; the paper's observer model instead assumes
//! queries are answered *continuously while new Web 2.0 content
//! streams in*. This crate is the serving layer that closes that gap:
//!
//! * [`SnapshotStore`] / [`SnapshotReader`] — readers grab an
//!   immutable engine snapshot through an epoch-style arc swap.
//!   Acquiring a snapshot is a reference-count bump under a lock held
//!   for nanoseconds; **`query` never blocks on an in-flight
//!   `apply_delta`**, because writers mutate a private copy-on-write
//!   engine and publish by swapping one `Arc` pointer.
//! * [`LiveWriter`] — the single owner of the mutable engine. It
//!   applies [`CorpusDelta`](obs_model::CorpusDelta)s and publishes
//!   new snapshots; published snapshots are frozen forever.
//! * [`DeltaJournal`] — an append-only on-disk log of serialized
//!   deltas with sequence numbers, crc-protected records,
//!   torn-tail tolerance (a truncated final record is detected and
//!   dropped, not a panic) and prefix compaction.
//! * [`ShardedLiveService`] — the service. It partitions the corpus
//!   by source id ([`ShardRouter`]) into N journal + writer columns
//!   (one shard is the unsharded service) and enforces the one
//!   ordering that makes crashes safe: **journal (fsync) → apply →
//!   publish**. [`ShardedLiveService::ingest_batch`] and
//!   [`ShardedLiveService::tick_sweep`] group-commit a burst: each
//!   shard's records share one fsync
//!   ([`DeltaJournal::append_batch`], all-or-nothing), one
//!   copy-on-write index detach and one deferred re-blend
//!   ([`LiveWriter::apply_batch`], replay order), and routed
//!   sub-batches commit in parallel. Each commit then publishes
//!   **one** view ([`PinnedShards`]): every shard's snapshot and the
//!   global blend under one epoch, so readers only ever observe
//!   whole commits. [`ShardedLiveService::recover`] replays each
//!   shard's journal and lands on the identical engines by
//!   construction.
//! * [`ShardedReader`] answers queries with a scatter-gather plan
//!   that is bit-identical to an unsharded engine over the same
//!   documents (see [`shard`]).
//! * **Query caching** — [`QueryCache`] memoizes top-k rankings
//!   keyed by the epoch of the view that produced them, so a publish
//!   invalidates for free and a cached reader is observably
//!   identical to an uncached one (see [`cache`]).
//!
//! ```text
//! crawler sweeps ──► route ──► per shard: DeltaJournal (fsync) ──► LiveWriter.apply
//!                                                                      │
//!      ShardedReader.pin() ◄── one view per commit (all shards + blend) ◄┘
//!      (N reader threads, never blocked)
//! ```
//!
//! The recovery invariant — replaying the journals reproduces the
//! uninterrupted engines down to identical BM25 score maps — is
//! enforced by property tests at the workspace level.

#![warn(missing_docs)]

pub mod cache;
mod error;
pub mod journal;
pub mod metrics;
pub mod shard;
pub mod snapshot;

pub use cache::{CacheMetrics, QueryCache};
pub use error::LiveError;
pub use journal::{DeltaJournal, JournalError, JournalReplay};
pub use metrics::ShardMetrics;
pub use shard::{PinnedShards, RecoveryReport, ShardRouter, ShardedLiveService, ShardedReader};
pub use snapshot::{EngineSnapshot, LiveWriter, SnapshotReader, SnapshotStore};
