//! Property suite: no byte sequence panics the journal parser.
//!
//! Recovery reads whatever a crash, a bad disk or a stray write left
//! in a journal file, so [`DeltaJournal::replay_path`] and
//! [`DeltaJournal::open`] must treat every byte string as input, not
//! as a precondition. For any file they either succeed — dropping at
//! most a torn final record — or report [`JournalError::Corrupt`];
//! they never panic and never invent data. Two generators drive them:
//!
//! * arbitrary byte strings, drawn either from all 256 byte values or
//!   from the journal's own alphabet (digits, hex, separators, JSON
//!   punctuation, newlines), so inputs get past the first field;
//! * valid journals — possibly compacted, so the first sequence is
//!   not 1 — with random bytes overwritten, inserted or deleted and
//!   the file truncated at a random length. Every successful replay
//!   of those must be a prefix of the records originally written.

use obs_live::{DeltaJournal, JournalError, JournalReplay};
use obs_model::{CorpusDelta, PostId, SequencedDelta, SourceId};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "obs_live_parser_{}_{tag}_{n}.journal",
        std::process::id()
    ))
}

/// SplitMix64: the mutation plan is derived from one proptest seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, bound: usize) -> usize {
    (next(state) % bound as u64) as usize
}

/// Bytes a journal line is made of, so generated inputs often parse
/// a field or two before they fail.
const ALPHABET: &[u8] = b"0123456789abcdef \n{}[]\":,-.adeoprstx";

fn sample_delta(i: u32) -> CorpusDelta {
    let mut d = CorpusDelta::new();
    d.add_doc(
        PostId::new(i),
        SourceId::new(i % 3),
        format!("post {i} über"),
    );
    d.note_engagement(SourceId::new(i % 3), 1, i64::from(i % 2));
    d
}

/// Writes `bytes` to a fresh file and runs both entry points over it.
/// Checks what must hold for *any* input and returns the replay when
/// the file was accepted.
fn parse(bytes: &[u8]) -> Option<JournalReplay> {
    let path = temp_path("input");
    std::fs::write(&path, bytes).unwrap();
    let replay = match DeltaJournal::replay_path(&path) {
        Ok(replay) => Some(replay),
        Err(JournalError::Corrupt { .. }) => None,
        Err(e) => panic!("replay of an existing file failed with {e}"),
    };
    check_open(&path, bytes, replay.as_ref());
    std::fs::remove_file(&path).ok();
    replay
}

/// `open` agrees with `replay_path`, heals only a torn tail, and
/// leaves a refused file byte-for-byte alone.
fn check_open(path: &Path, bytes: &[u8], replay: Option<&JournalReplay>) {
    match (DeltaJournal::open(path), replay) {
        (Ok((journal, opened)), Some(replay)) => {
            assert_eq!(opened.records, replay.records);
            assert_eq!(opened.torn_tail_dropped, replay.torn_tail_dropped);
            assert_eq!(journal.next_seq(), replay.last_seq() + 1);
            assert_eq!(journal.len(), replay.records.len());
            drop(journal);
            let healed = std::fs::read(path).unwrap();
            assert_eq!(healed, &bytes[..replay.clean_len as usize]);
            let again = DeltaJournal::replay_path(path).unwrap();
            assert!(!again.torn_tail_dropped);
            assert_eq!(again.records, replay.records);
        }
        (Err(JournalError::Corrupt { .. }), replay) => {
            // Refusal is legal for a replayable file only when its
            // last sequence leaves nothing to append under.
            if let Some(replay) = replay {
                assert_eq!(replay.last_seq(), u64::MAX);
            }
            assert_eq!(std::fs::read(path).unwrap(), bytes);
        }
        (Ok(_), None) => panic!("open accepted a file replay refused"),
        (Err(e), _) => panic!("open failed with {e}"),
    }
}

/// Every accepted replay has contiguous sequence numbers and ends
/// where its `clean_len` says.
fn check_shape(replay: &JournalReplay, bytes: &[u8]) {
    for w in replay.records.windows(2) {
        assert_eq!(Some(w[1].seq), w[0].seq.checked_add(1));
    }
    let clean = replay.clean_len as usize;
    assert!(clean <= bytes.len());
    assert!(clean == 0 || bytes[clean - 1] == b'\n');
    assert_eq!(replay.torn_tail_dropped, clean < bytes.len());
}

/// A valid journal of `records` records whose first `compacted` were
/// compacted away, as bytes plus the records it holds.
fn valid_journal(records: u32, compacted: u64) -> (Vec<u8>, Vec<SequencedDelta>) {
    let path = temp_path("valid");
    let mut journal = DeltaJournal::create(&path).unwrap();
    let deltas: Vec<CorpusDelta> = (0..records).map(sample_delta).collect();
    let refs: Vec<&CorpusDelta> = deltas.iter().collect();
    journal.append_batch(&refs).unwrap();
    journal.compact_through(compacted).unwrap();
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let kept = deltas
        .into_iter()
        .zip(1u64..)
        .filter(|&(_, seq)| seq > compacted)
        .map(|(delta, seq)| SequencedDelta::new(seq, delta))
        .collect();
    (bytes, kept)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_replay_or_are_refused_as_corrupt(
        seed in any::<u64>(),
        len in 0usize..300,
        journal_alphabet in any::<bool>(),
    ) {
        let mut state = seed;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                let b = next(&mut state) as u8;
                if journal_alphabet {
                    ALPHABET[b as usize % ALPHABET.len()]
                } else {
                    b
                }
            })
            .collect();
        if let Some(replay) = parse(&bytes) {
            check_shape(&replay, &bytes);
        }
    }

    #[test]
    fn damaged_journals_replay_a_prefix_or_are_refused_as_corrupt(
        seed in any::<u64>(),
        records in 1u32..7,
        compacted in 0u64..3,
        edits in 0usize..4,
    ) {
        let (original, written) = valid_journal(records, compacted);
        let mut state = seed;
        let mut bytes = original.clone();
        for _ in 0..edits {
            if bytes.is_empty() {
                break;
            }
            let at = below(&mut state, bytes.len());
            let byte = next(&mut state) as u8;
            match below(&mut state, 3) {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ => {
                    let end = (at + 1 + below(&mut state, 8)).min(bytes.len());
                    bytes.drain(at..end);
                }
            }
        }
        if below(&mut state, 2) == 0 {
            bytes.truncate(below(&mut state, bytes.len() + 1));
        }
        if let Some(replay) = parse(&bytes) {
            check_shape(&replay, &bytes);
            prop_assert!(
                written.starts_with(&replay.records),
                "replay is not a prefix of the written records: {:?}",
                replay.records.iter().map(|r| r.seq).collect::<Vec<_>>()
            );
        }
        // With no damage at all, everything written comes back.
        if bytes == original {
            prop_assert_eq!(parse(&bytes).map(|r| r.records), Some(written));
        }
    }
}

/// IEEE CRC-32 (reflected, polynomial `0xEDB8_8320`), written out
/// here so records can be rendered without the journal's own code.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// A record line `<seq> <crc> <json>\n` rendered by hand.
fn render(seq: u64, delta: &CorpusDelta) -> String {
    let json = serde_json::to_string(delta).unwrap();
    let crc = crc32(format!("{seq} {json}").as_bytes());
    format!("{seq} {crc:08x} {json}\n")
}

#[test]
fn hand_rendered_records_match_the_writer() {
    let (bytes, _) = valid_journal(2, 0);
    let expected = render(1, &sample_delta(0)) + &render(2, &sample_delta(1));
    assert_eq!(String::from_utf8(bytes).unwrap(), expected);
}

/// No writer stamps sequence 0, so a record carrying it — checksum
/// valid — is corruption wherever it sits, the tail included: it
/// cannot be a torn append.
#[test]
fn sequence_zero_is_refused_even_with_a_valid_checksum() {
    let zero = render(0, &sample_delta(0));
    let inputs = [zero.clone(), zero + &render(1, &sample_delta(1))];
    for input in inputs {
        // `parse` also runs `open` and checks it refuses the file and
        // leaves it byte-for-byte alone.
        assert!(parse(input.as_bytes()).is_none(), "accepted {input:?}");
        let path = temp_path("seq0");
        std::fs::write(&path, &input).unwrap();
        let err = DeltaJournal::replay_path(&path).unwrap_err();
        assert!(
            matches!(&err, JournalError::Corrupt { record: 1, reason } if reason.contains("sequence 0")),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Recovery over a journal whose only record is numbered 0 fails
/// instead of numbering the writer past a record it replayed.
#[test]
fn recovery_refuses_a_journal_holding_sequence_zero() {
    use obs_analytics::{AlexaPanel, LinkGraph};
    use obs_live::{LiveError, ShardedLiveService};
    use obs_search::{BlendWeights, SearchEngine};
    use obs_synth::{World, WorldConfig};

    let world = World::generate(WorldConfig::small(5));
    let panel = AlexaPanel::simulate(&world, 1);
    let links = LinkGraph::simulate(&world, 2);
    let mut seed = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());

    let dir = temp_path("seq0_dir");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = ShardedLiveService::shard_journal_path(&dir, 0);
    std::fs::write(&journal, render(0, &sample_delta(0))).unwrap();
    match ShardedLiveService::recover(&seed, 1, &dir) {
        Err(LiveError::Journal(JournalError::Corrupt { record: 1, .. })) => {}
        Err(other) => panic!("expected a corrupt journal, got {other:?}"),
        Ok(_) => panic!("recovery accepted a record numbered 0"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
