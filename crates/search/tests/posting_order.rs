//! Property suite: the ordinal layout stays consistent under
//! arbitrary index maintenance.
//!
//! The document-at-a-time query path
//! ([`SearchEngine::partial_query`](obs_search::SearchEngine::partial_query))
//! walks every query term's posting list in step and reads each
//! document's length and source from ordinal-indexed columns, so its
//! bit-identity with the term-at-a-time reference rests on invariants
//! that must survive any interleaving of adds, removes, ordinal reuse
//! and tombstone compaction through the [`IndexWriter`]:
//!
//! * every list is in strictly ascending ordinal order;
//! * every live post maps to its ordinal and back;
//! * no freed ordinal appears in any posting list;
//! * the statistics BM25 reads (document count, total token length,
//!   per-term document frequency) equal a scratch build of the live
//!   set.
//!
//! The generator drives batched writer commits (several ops per
//! sweep, so multi-tombstone compaction paths run), re-adds of live
//! ids and re-use of removed ids, then checks all four after every
//! commit.

use obs_model::{PostId, SourceId};
use obs_search::{IndexWriter, InvertedIndex};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Small shared vocabulary so removals constantly dirty lists that
/// other live documents still populate, and adds land in the middle
/// of long lists (the binary-search insert path).
const POOL: [&str; 8] = [
    "duomo", "castle", "gardens", "rooftop", "market", "fountain", "museum", "piazza",
];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A synthetic document body of 1–12 pool words.
fn synth_text(state: &mut u64) -> String {
    let words = 1 + (lcg(state) % 12) as usize;
    (0..words)
        .map(|_| POOL[(lcg(state) % POOL.len() as u64) as usize])
        .collect::<Vec<_>>()
        .join(" ")
}

/// Checks every invariant of `idx` against the live set it should
/// hold (doc id → source, text).
fn assert_consistent(idx: &InvertedIndex, live: &BTreeMap<u32, (SourceId, String)>) {
    for term in POOL {
        let postings = idx.postings(term);
        for w in postings.windows(2) {
            assert!(
                w[0].ordinal < w[1].ordinal,
                "postings of `{term}` out of ordinal order"
            );
        }
        for p in postings {
            assert!(
                idx.post_at(p.ordinal).is_some(),
                "postings of `{term}` hold free ordinal {}",
                p.ordinal
            );
        }
    }
    for &doc in live.keys() {
        let doc = PostId::new(doc);
        let ordinal = idx.ordinal(doc).expect("live post has an ordinal");
        assert_eq!(
            idx.post_at(ordinal),
            Some(doc),
            "ordinal {ordinal} maps back"
        );
    }
    let live_ordinals = (0..idx.ordinal_span() as u32)
        .filter(|&o| idx.post_at(o).is_some())
        .count();
    assert_eq!(live_ordinals, live.len(), "ordinals held by live posts");

    let mut scratch = InvertedIndex::default();
    for (&doc, (source, text)) in live {
        scratch.add_document(PostId::new(doc), *source, text);
    }
    assert_eq!(idx.doc_count(), scratch.doc_count());
    assert_eq!(idx.total_token_length(), scratch.total_token_length());
    for term in POOL {
        assert_eq!(
            idx.doc_frequency(term),
            scratch.doc_frequency(term),
            "doc frequency of `{term}`"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ordinal_layout_stays_consistent_through_maintenance(seed in 0u64..10_000, ops in 5usize..60) {
        let mut state = seed.wrapping_add(1);
        let mut idx = InvertedIndex::default();
        let mut live: BTreeMap<u32, (SourceId, String)> = BTreeMap::new();
        let mut most_live = 0usize;

        let mut done = 0usize;
        while done < ops {
            // A writer batch of 1–5 ops: tombstones accumulate and
            // compact in one generation sweep at commit.
            let batch = 1 + (lcg(&mut state) % 5) as usize;
            let mut writer = IndexWriter::new(&mut idx);
            for _ in 0..batch {
                let roll = lcg(&mut state) % 3;
                if roll == 0 && !live.is_empty() {
                    let nth = (lcg(&mut state) as usize) % live.len();
                    let victim = *live.keys().nth(nth).expect("nth < len");
                    writer.remove_document(PostId::new(victim));
                    live.remove(&victim);
                } else {
                    // Doc ids from a small range, so re-adds of live
                    // ids (update semantics) and re-use of removed
                    // ids both occur.
                    let doc = (lcg(&mut state) % 40) as u32;
                    let text = synth_text(&mut state);
                    let source = SourceId::new(doc % 5);
                    writer.add_document(PostId::new(doc), source, &text);
                    live.insert(doc, (source, text));
                }
                most_live = most_live.max(live.len());
                done += 1;
            }
            writer.commit();
            assert_consistent(&idx, &live);
        }
        // Freed ordinals are reused before the columns grow, but a
        // batch's removals free theirs only at commit, so one batch
        // (≤ 5 ops) may briefly need fresh ones.
        prop_assert!(idx.ordinal_span() <= most_live + 5);

        // Drain the survivors through one final batched removal: the
        // lists must shrink all the way to empty.
        let mut writer = IndexWriter::new(&mut idx);
        for &doc in live.keys() {
            writer.remove_document(PostId::new(doc));
        }
        writer.commit();
        live.clear();
        assert_consistent(&idx, &live);
        prop_assert_eq!(idx.doc_count(), 0);
        for term in POOL {
            prop_assert!(idx.postings(term).is_empty());
        }
    }
}
