//! Serving-layer errors.

use crate::journal::JournalError;
use obs_wrappers::WrapperError;
use std::fmt;

/// Why a live-service operation failed.
#[derive(Debug)]
pub enum LiveError {
    /// The durable journal failed (I/O or corruption).
    Journal(JournalError),
    /// A crawl sweep failed at the wrapper layer.
    Crawl(WrapperError),
    /// The journal does not connect to the state recovery replays it
    /// over (the seed engine, at sequence 0): its first retained
    /// record is later than that state's next change, so the
    /// intervening deltas are unrecoverable.
    CheckpointGap {
        /// Sequence the checkpoint covers.
        checkpoint_seq: u64,
        /// First sequence the journal still holds.
        journal_first_seq: u64,
    },
    /// One shard of a sharded service refused its slice of a routed
    /// batch. Shards are independent failure domains: the other
    /// shards' commits stand, and only the sources routed to the
    /// failed shard need re-observation (their high-water marks are
    /// rolled back by the sharded sweep path).
    ShardCommit {
        /// Index of the first shard whose commit failed.
        shard: usize,
        /// The underlying failure on that shard.
        cause: Box<LiveError>,
    },
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Journal(e) => write!(f, "journal failure: {e}"),
            LiveError::Crawl(e) => write!(f, "crawl sweep failed: {e}"),
            LiveError::CheckpointGap {
                checkpoint_seq,
                journal_first_seq,
            } => write!(
                f,
                "checkpoint at seq {checkpoint_seq} does not reach the journal \
                 (first retained record is seq {journal_first_seq}); \
                 deltas in between are lost"
            ),
            LiveError::ShardCommit { shard, cause } => {
                write!(f, "shard {shard} refused its slice of the batch: {cause}")
            }
        }
    }
}

impl std::error::Error for LiveError {}

impl From<JournalError> for LiveError {
    fn from(e: JournalError) -> Self {
        LiveError::Journal(e)
    }
}

impl From<WrapperError> for LiveError {
    fn from(e: WrapperError) -> Self {
        LiveError::Crawl(e)
    }
}
