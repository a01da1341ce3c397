//! Property suite: posting lists stay **sorted by document id**
//! under arbitrary index maintenance.
//!
//! The document-at-a-time query path
//! ([`SearchEngine::partial_query`](obs_search::SearchEngine::partial_query))
//! walks every query term's posting list in step, so its
//! bit-identity with the term-at-a-time reference rests on one index
//! invariant surviving any interleaving of adds, removes and
//! tombstone compaction through the [`IndexWriter`]: every list is
//! in strictly ascending doc-id order.
//!
//! The generator drives batched writer commits (several ops per
//! sweep, so multi-tombstone compaction paths run), out-of-order
//! adds, re-adds of live ids and re-use of removed ids, then checks
//! every list.

use obs_model::{PostId, SourceId};
use obs_search::{IndexWriter, InvertedIndex};
use proptest::prelude::*;

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

/// The invariant: strictly ascending doc ids in every list.
fn assert_sorted(idx: &InvertedIndex) {
    for term in POOL {
        for w in idx.postings(term).windows(2) {
            assert!(
                w[0].doc < w[1].doc,
                "postings of `{term}` out of doc-id order"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn postings_stay_doc_id_sorted_through_maintenance(seed in 0u64..10_000, ops in 5usize..60) {
        let mut state = seed.wrapping_add(1);
        let mut idx = InvertedIndex::default();
        let mut live: Vec<u32> = Vec::new();

        let mut done = 0usize;
        while done < ops {
            // A writer batch of 1–5 ops: tombstones accumulate and
            // compact in one generation sweep at commit.
            let batch = 1 + (lcg(&mut state) % 5) as usize;
            let mut writer = IndexWriter::new(&mut idx);
            for _ in 0..batch {
                let roll = lcg(&mut state) % 3;
                if roll == 0 && !live.is_empty() {
                    let victim = live[(lcg(&mut state) as usize) % live.len()];
                    writer.remove_document(PostId::new(victim));
                    live.retain(|&d| d != victim);
                } else {
                    // Doc ids from a small range, so re-adds of live
                    // ids (update semantics) and re-use of removed
                    // ids both occur.
                    let doc = (lcg(&mut state) % 40) as u32;
                    let text = synth_text(&mut state);
                    writer.add_document(PostId::new(doc), SourceId::new(doc % 5), &text);
                    if !live.contains(&doc) {
                        live.push(doc);
                    }
                }
                done += 1;
            }
            writer.commit();
            assert_sorted(&idx);
        }

        // Drain the survivors through one final batched removal: the
        // lists must shrink all the way to empty.
        let mut writer = IndexWriter::new(&mut idx);
        for &doc in &live {
            writer.remove_document(PostId::new(doc));
        }
        writer.commit();
        assert_sorted(&idx);
        prop_assert_eq!(idx.doc_count(), 0);
        for term in POOL {
            prop_assert!(idx.postings(term).is_empty());
        }
    }
}
