//! The durable delta journal.
//!
//! An append-only on-disk log of serialized
//! [`CorpusDelta`]s — the filtered source
//! updates treated as a first-class, replayable stream rather than a
//! transient mutation. One record per line:
//!
//! ```text
//! <seq> <crc32-hex> <delta-json>\n
//! ```
//!
//! * `seq` — contiguous, 1-based sequence number; replay refuses a
//!   log with a gap or regression (that's corruption, not a crash);
//! * `crc32` — IEEE CRC-32 of the line without its checksum field
//!   (`<seq> <delta-json>`), so a bit-flipped or truncated record is
//!   detected rather than deserialized into garbage — sequence
//!   number included;
//! * `delta-json` — the delta through the in-tree serde_json shim.
//!
//! **Torn-tail tolerance:** a crash mid-append leaves at most one
//! truncated record, and only at the end of the file. Replay detects
//! a final record that is incomplete (no newline, bad CRC, or
//! unparseable) and *drops it* — the delta was never acknowledged as
//! durable, so dropping it is the correct recovery. The same damage
//! anywhere else in the file is reported as
//! [`JournalError::Corrupt`].
//!
//! **Group commit:** [`DeltaJournal::append_batch`] stages any number
//! of records and makes them durable under **one** fsync — the
//! amortization that turns a burst of crawl ticks from N disk syncs
//! into one. The batch is all-or-nothing: if the sync fails, the
//! whole staged suffix is truncated back out ([`DeltaJournal::retract_staged`]),
//! so a retry re-claims the exact same sequence numbers and recovery
//! never replays an unacknowledged record.
//!
//! **Compaction:** once a checkpoint (an engine snapshot at sequence
//! `S`) makes the prefix `..=S` redundant, [`DeltaJournal::compact_through`]
//! rewrites the log without it (atomically, via a temp file +
//! rename). Sequence numbers keep rising across compactions; the
//! first retained record pins the replay base.

// lint:deterministic — replaying this log must rebuild a
// byte-identical engine, so nothing here may depend on hash order
// or the wall clock.

use obs_model::{CorpusDelta, SequencedDelta};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Why a journal operation failed.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A record *before* the final one is damaged, or sequence
    /// numbers are not contiguous — the log cannot be trusted.
    Corrupt {
        /// 1-based record (line) number of the damage.
        record: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Corrupt { record, reason } => {
                write!(f, "journal corrupt at record {record}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What replaying a journal found.
#[derive(Debug, Clone, Default)]
pub struct JournalReplay {
    /// Every intact record, in sequence order.
    pub records: Vec<SequencedDelta>,
    /// Whether a truncated final record (torn tail) was dropped.
    pub torn_tail_dropped: bool,
    /// Byte length of the intact prefix — the whole file when no
    /// tail was torn. Healing truncates to exactly here.
    pub clean_len: u64,
}

impl JournalReplay {
    /// Sequence of the last intact record (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.records.last().map_or(0, |r| r.seq)
    }
}

/// A record's checksum: IEEE CRC-32 (the polynomial every zip/png
/// reader uses) of `<seq> <json>` — the line minus its checksum
/// field — bit-reflected, table-free: journal records are small and
/// append throughput is bounded by fsync, not the checksum.
fn record_crc(seq: &str, json: &str) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in [seq.as_bytes(), b" ", json.as_bytes()]
        .into_iter()
        .flatten()
    {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One parse attempt over a record line (without its newline).
fn parse_record(line: &str) -> Result<SequencedDelta, String> {
    let (seq_text, rest) = line.split_once(' ').ok_or("missing field separators")?;
    let (crc_text, json) = rest.split_once(' ').ok_or("missing crc separator")?;
    let seq: u64 = seq_text
        .parse()
        .map_err(|_| format!("bad sequence number {seq_text:?}"))?;
    let stored_crc =
        u32::from_str_radix(crc_text, 16).map_err(|_| format!("bad crc field {crc_text:?}"))?;
    let actual_crc = record_crc(seq_text, json);
    if stored_crc != actual_crc {
        return Err(format!(
            "crc mismatch: stored {stored_crc:08x}, computed {actual_crc:08x}"
        ));
    }
    let delta: CorpusDelta =
        serde_json::from_str(json).map_err(|e| format!("undecodable delta: {e}"))?;
    Ok(SequencedDelta::new(seq, delta))
}

/// The staged (appended but not yet acknowledged-durable) suffix of
/// the file: how many bytes and records every append since the last
/// acknowledged sync wrote. A failed durability step retracts
/// exactly this much.
#[derive(Debug, Clone, Copy)]
struct StagedSuffix {
    bytes: u64,
    records: usize,
}

/// The append handle over a journal file.
///
/// Writes go straight to the [`File`] — no userspace write buffer.
/// Every append hands the kernel one fully-rendered payload and is
/// immediately visible in the file's length, so failure handling
/// only ever has to reason about file bytes (truncate back to a
/// known-clean length), never about a stale buffered tail that could
/// fuse with a retry's bytes. Throughput is bounded by fsync, not by
/// write syscalls, so buffering would buy nothing.
///
/// ```
/// use obs_live::DeltaJournal;
/// use obs_model::CorpusDelta;
///
/// let path = std::env::temp_dir()
///     .join(format!("doc_journal_{}.journal", std::process::id()));
/// let mut journal = DeltaJournal::create(&path)?;
/// let seq = journal.append(&CorpusDelta::new())?;
/// journal.sync()?; // durable — and acknowledged — from here on
/// assert_eq!(seq, 1);
///
/// // Replay sees exactly the acknowledged records.
/// let replay = DeltaJournal::replay_path(&path)?;
/// assert_eq!(replay.records.len(), 1);
/// assert_eq!(replay.records[0].seq, 1);
/// std::fs::remove_file(&path).ok();
/// # Ok::<(), obs_live::JournalError>(())
/// ```
#[derive(Debug)]
pub struct DeltaJournal {
    path: PathBuf,
    file: File,
    /// Sequence the next appended record will carry.
    next_seq: u64,
    /// Records currently in the file (post-compaction, post-recovery).
    len: usize,
    /// The retractable suffix: the most recent append or batch whose
    /// durability has not yet been acknowledged by a successful sync.
    staged: Option<StagedSuffix>,
    /// Pending injected [`DeltaJournal::sync`] failures (durability
    /// fault injection for tests; see
    /// [`DeltaJournal::inject_sync_failures`]).
    sync_faults: u32,
}

impl DeltaJournal {
    /// Creates a fresh, empty journal, truncating any existing file.
    /// The parent directory is fsynced so the new file's entry
    /// survives a crash.
    pub fn create(path: impl AsRef<Path>) -> Result<DeltaJournal, JournalError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        sync_parent_dir(&path)?;
        Ok(DeltaJournal {
            path,
            file,
            next_seq: 1,
            len: 0,
            staged: None,
            sync_faults: 0,
        })
    }

    /// Opens an existing journal (or creates an empty one, fsyncing
    /// the parent directory as [`DeltaJournal::create`] does),
    /// replaying it to find the append position. A torn tail is
    /// physically truncated away so the file is clean for future
    /// appends; the replay of everything intact is returned alongside
    /// the handle.
    pub fn open(path: impl AsRef<Path>) -> Result<(DeltaJournal, JournalReplay), JournalError> {
        let path = path.as_ref().to_path_buf();
        let (replay, created) = match Self::replay_path(&path) {
            Ok(replay) => (replay, false),
            Err(JournalError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                (JournalReplay::default(), true)
            }
            Err(e) => return Err(e),
        };
        // A record stamped `u64::MAX` leaves no sequence to append
        // under; refuse it rather than wrap the stream back to 0.
        let next_seq = replay
            .last_seq()
            .checked_add(1)
            .ok_or_else(|| JournalError::Corrupt {
                record: replay.records.len(),
                reason: "sequence space exhausted: the last record is u64::MAX".to_owned(),
            })?;
        if replay.torn_tail_dropped {
            // Heal by truncating to the end of the last intact
            // record: O(1), and the durable prefix keeps its exact
            // original bytes.
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(replay.clean_len)?;
            file.sync_data()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if created {
            sync_parent_dir(&path)?;
        }
        Ok((
            DeltaJournal {
                path,
                file,
                next_seq,
                len: replay.records.len(),
                staged: None,
                sync_faults: 0,
            },
            replay,
        ))
    }

    /// Reads and verifies every record of the journal at `path`
    /// without taking an append handle. Tolerates (and reports) a
    /// torn final record; fails on any other damage.
    ///
    /// The file is read as *bytes*, not as a string: a crash can
    /// truncate mid-UTF-8-sequence or leave garbage blocks at the
    /// tail, and that damage must be confined to the torn record,
    /// not fail the whole read.
    pub fn replay_path(path: impl AsRef<Path>) -> Result<JournalReplay, JournalError> {
        let mut bytes = Vec::new();
        File::open(path.as_ref())?.read_to_end(&mut bytes)?;

        let mut replay = JournalReplay::default();
        let mut offset = 0usize;
        let mut record_no = 0usize;
        while offset < bytes.len() {
            record_no += 1;
            let rest = &bytes[offset..];
            let (line_bytes, complete, consumed) = match rest.iter().position(|&b| b == b'\n') {
                Some(nl) => (&rest[..nl], true, nl + 1),
                None => (rest, false, rest.len()),
            };
            let is_last = offset + consumed >= bytes.len();
            let parsed = std::str::from_utf8(line_bytes)
                .map_err(|_| "invalid utf-8".to_owned())
                .and_then(parse_record);
            match parsed {
                Ok(record) => {
                    // Checked: nothing follows a record stamped u64::MAX.
                    let out_of_sequence = replay
                        .records
                        .last()
                        .filter(|prev| prev.seq.checked_add(1) != Some(record.seq));
                    if !complete {
                        // A record without its newline is a torn
                        // append even if its payload happens to
                        // verify — the trailing newline is part of
                        // the durable format.
                        replay.torn_tail_dropped = true;
                    } else if let Some(prev) = out_of_sequence {
                        return Err(JournalError::Corrupt {
                            record: record_no,
                            reason: format!("sequence gap: {} follows {}", record.seq, prev.seq),
                        });
                    } else {
                        replay.records.push(record);
                        replay.clean_len = (offset + consumed) as u64;
                    }
                }
                Err(_) if is_last => {
                    replay.torn_tail_dropped = true;
                }
                Err(reason) => {
                    return Err(JournalError::Corrupt {
                        record: record_no,
                        reason,
                    });
                }
            }
            offset += consumed;
        }
        Ok(replay)
    }

    /// Serializes one record line (with its trailing newline).
    fn render_record(seq: u64, delta: &CorpusDelta) -> Result<String, JournalError> {
        let json = serde_json::to_string(delta)
            .map_err(|e| std::io::Error::other(format!("delta serialization failed: {e}")))?;
        let seq = seq.to_string();
        let crc = record_crc(&seq, &json);
        Ok(format!("{seq} {crc:08x} {json}\n"))
    }

    /// Grows the staged suffix. Accumulates rather than replaces:
    /// every append since the last acknowledged sync is
    /// unacknowledged, so a failed durability step must be able to
    /// retract all of them, not just the latest.
    fn stage(&mut self, bytes: u64, records: usize) {
        match &mut self.staged {
            Some(staged) => {
                staged.bytes += bytes;
                staged.records += records;
            }
            None => self.staged = Some(StagedSuffix { bytes, records }),
        }
    }

    /// Writes `bytes` to the file (one write, no userspace buffer).
    /// On failure the file is healed back to its pre-write length
    /// (best effort), so a partially written payload never lingers
    /// to fuse with the bytes a retry appends under the same
    /// sequence numbers.
    fn write_payload(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        // With no write buffer, the file's length *is* the clean
        // pre-write position.
        let clean_len = self.file.metadata()?.len();
        if let Err(e) = self.file.write_all(bytes) {
            self.heal_failed_write(clean_len);
            return Err(e.into());
        }
        Ok(())
    }

    /// Best-effort cleanup after a failed write: truncates the file
    /// back to `clean_len` so no partially written tail survives on
    /// disk. Errors are swallowed — the caller is already surfacing
    /// the original failure, and the counters were never advanced.
    fn heal_failed_write(&mut self, clean_len: u64) {
        let _ = self.file.set_len(clean_len); // lint:allow(discard): best-effort heal; caller surfaces the original write error
        let _ = self.file.seek(std::io::SeekFrom::Start(clean_len)); // lint:allow(discard): best-effort heal; caller surfaces the original write error
        let _ = self.file.sync_data(); // lint:allow(discard): best-effort heal; caller surfaces the original write error
    }

    /// Appends one delta, assigning it the next sequence number. The
    /// record is flushed to the OS; call [`DeltaJournal::sync`] to
    /// force it to stable storage before acknowledging durability.
    pub fn append(&mut self, delta: &CorpusDelta) -> Result<u64, JournalError> {
        let seq = self.next_seq;
        let record = Self::render_record(seq, delta)?;
        self.write_payload(record.as_bytes())?;
        // Counters and the staged suffix move only once the record
        // is known to be in the file, so a failed write or flush
        // leaves them honest about the file contents.
        self.next_seq += 1;
        self.len += 1;
        self.stage(record.len() as u64, 1);
        Ok(seq)
    }

    /// Appends `deltas` as one *group commit*: every record is staged
    /// with its own contiguous sequence number, then the whole batch
    /// is forced to stable storage under a **single** fsync. Returns
    /// the `(first, last)` sequence range, or `None` for an empty
    /// batch (which touches neither the file nor the sequence).
    ///
    /// All-or-nothing: the batch is serialized in full before a byte
    /// is written, and if the sync fails, the entire staged suffix
    /// is retracted — no record of the batch survives to be
    /// replayed, and a retry re-claims the same sequence numbers.
    pub fn append_batch(
        &mut self,
        deltas: &[&CorpusDelta],
    ) -> Result<Option<(u64, u64)>, JournalError> {
        if deltas.is_empty() {
            return Ok(None);
        }
        let first = self.next_seq;
        let mut payload = String::new();
        for (i, delta) in deltas.iter().enumerate() {
            payload.push_str(&Self::render_record(first + i as u64, delta)?);
        }
        self.write_payload(payload.as_bytes())?;
        self.next_seq += deltas.len() as u64;
        self.len += deltas.len();
        self.stage(payload.len() as u64, deltas.len());
        let last = self.next_seq - 1;
        if let Err(sync_err) = self.sync() {
            // Best effort: if the retract also fails the counters
            // and the file have diverged and only a re-open can
            // reconcile them; surface the original failure either way.
            let _ = self.retract_staged(); // lint:allow(discard): best effort per the comment above; the sync error wins
            return Err(sync_err);
        }
        Ok(Some((first, last)))
    }

    /// Forces appended records to stable storage (fsync). A
    /// successful sync acknowledges the staged suffix: it is durable
    /// and no longer retractable.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if self.sync_faults > 0 {
            self.sync_faults -= 1;
            return Err(JournalError::Io(std::io::Error::other(
                "injected fsync failure",
            )));
        }
        self.file.sync_data()?;
        self.staged = None;
        Ok(())
    }

    /// Arms the next `n` calls to [`DeltaJournal::sync`] to fail
    /// deterministically (the staged bytes are already in the file,
    /// exactly as a real failed fsync would leave them). Durability
    /// fault injection for tests, in the same spirit as
    /// `obs_wrappers::FaultPlan`.
    pub fn inject_sync_failures(&mut self, n: u32) {
        self.sync_faults = n;
    }

    /// Truncates away the staged suffix — every
    /// [`DeltaJournal::append`] / [`DeltaJournal::append_batch`]
    /// record since the last acknowledged sync — winding the
    /// sequence back with it. The failure-path inverse: when the
    /// durability step after an append fails, the records were never
    /// acknowledged, so they must not linger in the file to be
    /// replayed on recovery (the caller will retry and re-journal
    /// the same content under the same sequences). A no-op when
    /// nothing is staged.
    pub fn retract_staged(&mut self) -> Result<(), JournalError> {
        let Some(StagedSuffix { bytes, records }) = self.staged else {
            return Ok(());
        };
        let end = self.file.metadata()?.len();
        let new_end = end.saturating_sub(bytes);
        self.file.set_len(new_end)?;
        // Truncation does not move the write cursor; without the
        // seek the next append would leave a zero-filled hole where
        // the retracted records were (files created by
        // `DeltaJournal::create` are not in O_APPEND mode).
        self.file.seek(std::io::SeekFrom::Start(new_end))?;
        // Counters move only after the truncate is known durable, so
        // a failed retract leaves them honest about file contents.
        self.file.sync_data()?;
        self.next_seq -= records as u64;
        self.len -= records;
        self.staged = None;
        Ok(())
    }

    /// Drops every record with `seq <= through_seq` — legal once a
    /// checkpoint covers that prefix — rewriting the file atomically
    /// (temp file + rename). Returns how many records were dropped.
    /// Sequence numbers are preserved, so replay-over-checkpoint
    /// still lines up.
    pub fn compact_through(&mut self, through_seq: u64) -> Result<usize, JournalError> {
        self.sync()?;
        let replay = Self::replay_path(&self.path)?;
        let retained: Vec<&SequencedDelta> = replay
            .records
            .iter()
            .filter(|r| r.seq > through_seq)
            .collect();
        let dropped = replay.records.len() - retained.len();
        if dropped == 0 {
            return Ok(0);
        }
        Self::rewrite_refs(&self.path, &retained)?;
        // Reopen the handle onto the rewritten file; the last append
        // is no longer retractable (the rewrite re-framed it).
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        self.file = file;
        self.len = retained.len();
        self.staged = None;
        Ok(dropped)
    }

    /// Number of records currently in the file.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the file currently holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sequence number the next append will be stamped with.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Fast-forwards the next append sequence to `next_seq` (never
    /// backwards). A fully-compacted journal file carries no records,
    /// so on re-open its derived position restarts at 1; the owner —
    /// who knows the stream position from its checkpoint — uses this
    /// to keep sequence numbers rising monotonically across
    /// compact-then-crash-then-recover cycles.
    pub fn resume_at(&mut self, next_seq: u64) {
        self.next_seq = self.next_seq.max(next_seq);
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes `records` to a sibling temp file, fsyncs it, and
    /// renames it over `path` so the journal is never observable in
    /// a half-rewritten state, then fsyncs the directory so the
    /// rename itself survives a crash.
    fn rewrite_refs(path: &Path, records: &[&SequencedDelta]) -> Result<(), JournalError> {
        let tmp = path.with_extension("journal.tmp");
        {
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)?;
            let mut out = BufWriter::new(file);
            for record in records {
                out.write_all(Self::render_record(record.seq, &record.delta)?.as_bytes())?;
            }
            out.flush()?;
            out.get_ref().sync_data()?;
        }
        std::fs::rename(&tmp, path)?;
        // The rename is only durable once the directory entry is.
        sync_parent_dir(path)?;
        Ok(())
    }
}

/// Fsyncs the directory holding `path`, making a file creation or a
/// rename in it durable — fsyncing the file itself does not persist
/// its directory entry.
fn sync_parent_dir(path: &Path) -> Result<(), JournalError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::{PostId, SourceId};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "obs_live_journal_{}_{}_{}.journal",
            std::process::id(),
            tag,
            n
        ))
    }

    fn sample_delta(post: u32) -> CorpusDelta {
        let mut d = CorpusDelta::new();
        d.add_doc(PostId::new(post), SourceId::new(0), format!("doc {post}"));
        d.note_engagement(SourceId::new(0), 1, 0);
        d
    }

    #[test]
    fn append_sync_replay_roundtrips() {
        let path = temp_path("roundtrip");
        let mut journal = DeltaJournal::create(&path).unwrap();
        for i in 0..5 {
            let seq = journal.append(&sample_delta(i)).unwrap();
            assert_eq!(seq, u64::from(i) + 1);
        }
        journal.sync().unwrap();
        assert_eq!(journal.len(), 5);
        assert_eq!(journal.next_seq(), 6);

        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert!(!replay.torn_tail_dropped);
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.last_seq(), 5);
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.delta, sample_delta(i as u32));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = temp_path("torn");
        let mut journal = DeltaJournal::create(&path).unwrap();
        for i in 0..3 {
            journal.append(&sample_delta(i)).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);

        // Simulate a crash mid-append: truncate the file inside the
        // final record.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();

        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert!(replay.torn_tail_dropped);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.last_seq(), 2);

        // Re-opening heals the file and appends continue the
        // sequence from the surviving prefix.
        let (mut journal, replay) = DeltaJournal::open(&path).unwrap();
        assert!(replay.torn_tail_dropped);
        assert_eq!(journal.next_seq(), 3);
        journal.append(&sample_delta(9)).unwrap();
        journal.sync().unwrap();
        let healed = DeltaJournal::replay_path(&path).unwrap();
        assert!(!healed.torn_tail_dropped);
        assert_eq!(healed.last_seq(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_record_without_newline_is_dropped_even_if_payload_verifies() {
        let path = temp_path("no_newline");
        let mut journal = DeltaJournal::create(&path).unwrap();
        journal.append(&sample_delta(0)).unwrap();
        journal.append(&sample_delta(1)).unwrap();
        journal.sync().unwrap();
        drop(journal);

        // Strip only the final newline: payload intact, frame torn.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert!(replay.torn_tail_dropped);
        assert_eq!(replay.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_utf8_torn_tail_is_dropped_not_io_error() {
        let path = temp_path("utf8_tail");
        let mut journal = DeltaJournal::create(&path).unwrap();
        journal.append(&sample_delta(0)).unwrap();
        journal.append(&sample_delta(1)).unwrap();
        journal.sync().unwrap();
        drop(journal);

        // A crash can leave raw garbage (or a truncated multi-byte
        // UTF-8 sequence) at the tail; replay must confine the
        // damage to the torn record, not refuse the whole file.
        {
            use std::io::Write;
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(b"3 deadbeef {\"added\xff\xfe\x00").unwrap();
        }
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert!(replay.torn_tail_dropped);
        assert_eq!(replay.records.len(), 2);

        // Re-opening heals it and appends continue.
        let (mut journal, _) = DeltaJournal::open(&path).unwrap();
        assert_eq!(journal.append(&sample_delta(7)).unwrap(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_utf8_mid_file_is_corruption() {
        let path = temp_path("utf8_mid");
        let mut journal = DeltaJournal::create(&path).unwrap();
        journal.append(&sample_delta(0)).unwrap();
        journal.append(&sample_delta(1)).unwrap();
        journal.sync().unwrap();
        drop(journal);

        let mut bytes = std::fs::read(&path).unwrap();
        // Clobber a byte inside the first record.
        bytes[10] = 0xFF;
        std::fs::write(&path, bytes).unwrap();
        let err = DeltaJournal::replay_path(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { record: 1, .. }),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retract_staged_unwinds_an_unacknowledged_append() {
        let path = temp_path("retract");
        let mut journal = DeltaJournal::create(&path).unwrap();
        journal.append(&sample_delta(0)).unwrap();
        journal.append(&sample_delta(1)).unwrap();
        journal.sync().unwrap();

        // Append a record whose durability step "failed": retract it.
        journal.append(&sample_delta(2)).unwrap();
        journal.retract_staged().unwrap();
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.next_seq(), 3);
        // A second retract is a no-op (nothing retractable).
        journal.retract_staged().unwrap();
        assert_eq!(journal.len(), 2);

        // The retry claims the same sequence, and replay sees a
        // clean two-then-three record history with no orphan.
        assert_eq!(journal.append(&sample_delta(3)).unwrap(), 3);
        journal.sync().unwrap();
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert!(!replay.torn_tail_dropped);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[2].delta, sample_delta(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retract_staged_unwinds_every_append_since_the_last_sync() {
        // Two appends with no sync in between: both are
        // unacknowledged, so a failed durability step must unwind
        // both — retracting only the latest would leave an
        // unacknowledged record to be replayed after a crash.
        let path = temp_path("retract_multi");
        let mut journal = DeltaJournal::create(&path).unwrap();
        journal.append(&sample_delta(0)).unwrap();
        journal.sync().unwrap();

        journal.append(&sample_delta(1)).unwrap();
        journal.append(&sample_delta(2)).unwrap();
        journal.inject_sync_failures(1);
        assert!(journal.sync().is_err());
        journal.retract_staged().unwrap();
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.next_seq(), 2);
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert_eq!(replay.last_seq(), 1);

        // The retry re-claims seq 2 cleanly.
        assert_eq!(journal.append(&sample_delta(1)).unwrap(), 2);
        journal.sync().unwrap();
        assert_eq!(DeltaJournal::replay_path(&path).unwrap().last_seq(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_acknowledges_the_staged_suffix() {
        // Once a sync succeeds the record is durable; a later
        // retract must not be able to unwind it.
        let path = temp_path("acknowledged");
        let mut journal = DeltaJournal::create(&path).unwrap();
        journal.append(&sample_delta(0)).unwrap();
        journal.sync().unwrap();
        journal.retract_staged().unwrap();
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.next_seq(), 2);
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_batch_is_one_commit_with_contiguous_seqs() {
        let path = temp_path("batch");
        let mut journal = DeltaJournal::create(&path).unwrap();
        journal.append(&sample_delta(0)).unwrap();
        journal.sync().unwrap();

        let batch: Vec<CorpusDelta> = (1..5).map(sample_delta).collect();
        let refs: Vec<&CorpusDelta> = batch.iter().collect();
        let range = journal.append_batch(&refs).unwrap();
        assert_eq!(range, Some((2, 5)));
        assert_eq!(journal.len(), 5);
        assert_eq!(journal.next_seq(), 6);

        // The batch is already durable (append_batch syncs): replay
        // sees every record, byte-identical to sequential appends.
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert_eq!(replay.records.len(), 5);
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.delta, sample_delta(i as u32));
        }

        let sequential_path = temp_path("batch_seq");
        let mut sequential = DeltaJournal::create(&sequential_path).unwrap();
        for i in 0..5 {
            sequential.append(&sample_delta(i)).unwrap();
        }
        sequential.sync().unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&sequential_path).unwrap(),
            "a batched journal must be byte-identical to a sequential one"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sequential_path).ok();
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let path = temp_path("batch_empty");
        let mut journal = DeltaJournal::create(&path).unwrap();
        journal.append(&sample_delta(0)).unwrap();
        journal.sync().unwrap();
        let before = std::fs::read(&path).unwrap();
        assert_eq!(journal.append_batch(&[]).unwrap(), None);
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.next_seq(), 2);
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_batch_sync_retracts_the_whole_staged_suffix() {
        let path = temp_path("batch_fail");
        let mut journal = DeltaJournal::create(&path).unwrap();
        journal.append(&sample_delta(0)).unwrap();
        journal.sync().unwrap();
        let durable = std::fs::read(&path).unwrap();

        let batch: Vec<CorpusDelta> = (1..4).map(sample_delta).collect();
        let refs: Vec<&CorpusDelta> = batch.iter().collect();
        journal.inject_sync_failures(1);
        let err = journal.append_batch(&refs).unwrap_err();
        assert!(matches!(err, JournalError::Io(_)), "{err:?}");

        // No trace of the batch: counters, file bytes and replay all
        // match the pre-batch state, so a retry re-claims seq 2..=4.
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.next_seq(), 2);
        assert_eq!(std::fs::read(&path).unwrap(), durable);
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert_eq!(replay.last_seq(), 1);

        let range = journal.append_batch(&refs).unwrap();
        assert_eq!(range, Some((2, 4)));
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert_eq!(replay.last_seq(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn healing_a_torn_tail_preserves_the_intact_prefix_bytes() {
        let path = temp_path("heal_bytes");
        let mut journal = DeltaJournal::create(&path).unwrap();
        journal.append(&sample_delta(0)).unwrap();
        journal.append(&sample_delta(1)).unwrap();
        journal.sync().unwrap();
        drop(journal);

        let intact = std::fs::read(&path).unwrap();
        let mut torn = intact.clone();
        torn.extend_from_slice(b"3 0badc0de {\"trunc");
        std::fs::write(&path, &torn).unwrap();

        let (_journal, replay) = DeltaJournal::open(&path).unwrap();
        assert!(replay.torn_tail_dropped);
        assert_eq!(replay.clean_len, intact.len() as u64);
        // Healing truncated, it did not rewrite: byte-identical.
        assert_eq!(std::fs::read(&path).unwrap(), intact);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_at_only_moves_forward() {
        let path = temp_path("resume");
        let mut journal = DeltaJournal::create(&path).unwrap();
        journal.append(&sample_delta(0)).unwrap();
        assert_eq!(journal.next_seq(), 2);
        journal.resume_at(10);
        assert_eq!(journal.next_seq(), 10);
        journal.resume_at(4); // never backwards
        assert_eq!(journal.next_seq(), 10);
        assert_eq!(journal.append(&sample_delta(1)).unwrap(), 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_damage_is_corruption() {
        let path = temp_path("corrupt");
        let mut journal = DeltaJournal::create(&path).unwrap();
        for i in 0..3 {
            journal.append(&sample_delta(i)).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);

        // Flip a byte inside the *second* record's JSON.
        let mut lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        lines[1] = lines[1].replace("doc 1", "doc X");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let err = DeltaJournal::replay_path(&path).unwrap_err();
        match err {
            JournalError::Corrupt { record, reason } => {
                assert_eq!(record, 2);
                assert!(reason.contains("crc mismatch"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sequence_gap_is_corruption() {
        let path = temp_path("gap");
        let mut journal = DeltaJournal::create(&path).unwrap();
        for i in 0..3 {
            journal.append(&sample_delta(i)).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);

        // Delete the middle line: seqs 1,3 remain.
        let lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        std::fs::write(&path, format!("{}\n{}\n", lines[0], lines[2])).unwrap();

        let err = DeltaJournal::replay_path(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { record: 2, .. }),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Writes checksum-valid records stamped with `seqs`, which no
    /// journal handle would ever assign.
    fn forge(path: &Path, seqs: &[u64]) {
        let text: String = seqs
            .iter()
            .map(|&seq| DeltaJournal::render_record(seq, &sample_delta(0)).unwrap())
            .collect();
        std::fs::write(path, text).unwrap();
    }

    #[test]
    fn a_record_after_u64_max_is_corruption_not_an_overflow() {
        let path = temp_path("seq_overflow");
        // 0 is what u64::MAX + 1 wraps to: wrapping arithmetic would
        // accept it as contiguous.
        forge(&path, &[u64::MAX - 1, u64::MAX, 0]);
        let err = DeltaJournal::replay_path(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { record: 3, .. }),
            "{err:?}"
        );
        let before = std::fs::read(&path).unwrap();
        let err = DeltaJournal::open(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { record: 3, .. }),
            "{err:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_journal_ending_at_u64_max_refuses_to_open_and_is_not_healed() {
        let path = temp_path("seq_exhausted");
        forge(&path, &[u64::MAX - 1, u64::MAX]);
        // Every record is intact and contiguous, so replay succeeds;
        // only appending after it is impossible.
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert_eq!(replay.last_seq(), u64::MAX);
        // A torn tail that `open` would otherwise truncate away.
        {
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(b"0 0000").unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        let err = DeltaJournal::open(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { record: 2, .. }),
            "{err:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_rewritten_sequence_number_fails_its_checksum() {
        let path = temp_path("seq_flip");
        forge(&path, &[1]);
        // A lone record has no neighbour to contradict its sequence,
        // so only the checksum can catch a damaged one.
        let line = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, line.replacen('1', "7", 1)).unwrap();
        let replay = DeltaJournal::replay_path(&path).unwrap();
        assert!(replay.torn_tail_dropped);
        assert!(replay.records.is_empty());
        // Mid-file, the same damage is corruption.
        std::fs::write(&path, format!("{}{line}", line.replacen('1', "7", 1))).unwrap();
        let err = DeltaJournal::replay_path(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { record: 1, .. }),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_drops_covered_prefix_and_keeps_sequences() {
        let path = temp_path("compact");
        let mut journal = DeltaJournal::create(&path).unwrap();
        for i in 0..6 {
            journal.append(&sample_delta(i)).unwrap();
        }
        journal.sync().unwrap();

        let dropped = journal.compact_through(4).unwrap();
        assert_eq!(dropped, 4);
        assert_eq!(journal.len(), 2);
        // Appends continue the global sequence.
        assert_eq!(journal.append(&sample_delta(9)).unwrap(), 7);
        journal.sync().unwrap();

        let replay = DeltaJournal::replay_path(&path).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![5, 6, 7]);

        // Compacting an already-covered prefix is a no-op.
        assert_eq!(journal.compact_through(3).unwrap(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compacting_below_the_first_retained_record_is_idempotent() {
        let path = temp_path("compact_below");
        let mut journal = DeltaJournal::create(&path).unwrap();
        for i in 0..6 {
            journal.append(&sample_delta(i)).unwrap();
        }
        journal.sync().unwrap();
        assert_eq!(journal.compact_through(4).unwrap(), 4);
        let bytes = std::fs::read(&path).unwrap();

        // `through_seq` below the first retained record (5): not an
        // error, not a rewrite — the file keeps its exact bytes.
        for covered in [0, 1, 4] {
            assert_eq!(journal.compact_through(covered).unwrap(), 0);
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.next_seq(), 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compacting_beyond_the_last_record_does_not_invent_sequences() {
        let path = temp_path("compact_beyond");
        let mut journal = DeltaJournal::create(&path).unwrap();
        for i in 0..3 {
            journal.append(&sample_delta(i)).unwrap();
        }
        journal.sync().unwrap();

        // Compacting through a sequence past the end drops every
        // record but must not fast-forward the stream: the next
        // append still continues where the journal left off.
        assert_eq!(journal.compact_through(100).unwrap(), 3);
        assert_eq!(journal.len(), 0);
        assert!(journal.is_empty());
        assert_eq!(journal.next_seq(), 4);
        assert_eq!(journal.append(&sample_delta(9)).unwrap(), 4);
        journal.sync().unwrap();
        let replay = DeltaJournal::replay_path(&path).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn double_compaction_at_the_same_seq_is_a_no_op() {
        let path = temp_path("compact_twice");
        let mut journal = DeltaJournal::create(&path).unwrap();
        for i in 0..5 {
            journal.append(&sample_delta(i)).unwrap();
        }
        journal.sync().unwrap();
        assert_eq!(journal.compact_through(3).unwrap(), 3);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(journal.compact_through(3).unwrap(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.next_seq(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_missing_journals_replay_empty() {
        let path = temp_path("empty");
        let (journal, replay) = DeltaJournal::open(&path).unwrap();
        assert!(journal.is_empty());
        assert!(replay.records.is_empty());
        assert_eq!(replay.last_seq(), 0);
        std::fs::remove_file(&path).ok();
    }
}
