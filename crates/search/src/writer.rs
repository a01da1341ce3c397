//! Batched index maintenance.
//!
//! An [`IndexWriter`] borrows an [`InvertedIndex`] mutably and
//! applies a batch of additions and removals. Additions land
//! immediately; removals are *tombstoned* — the document's
//! statistics vanish at once, while its posting entries are swept by
//! a single generation-aware compaction pass when the batch commits
//! (explicitly via [`IndexWriter::commit`], or on drop). Batching
//! matters when many removed documents share vocabulary: each dirty
//! posting list is rescanned once per commit, not once per removal.
//!
//! Because the writer holds the only reference to the index for its
//! whole lifetime, readers can never observe the intermediate state
//! in which a tombstoned document still has postings.

use crate::index::InvertedIndex;
use obs_model::{CorpusDelta, PostId, SourceId};

/// Accumulates additions and removals against a borrowed index.
#[derive(Debug)]
pub struct IndexWriter<'a> {
    index: &'a mut InvertedIndex,
    added: usize,
    removed: usize,
}

/// What a committed batch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitStats {
    /// Documents added (or replaced) by the batch.
    pub added: usize,
    /// Documents removed by the batch.
    pub removed: usize,
}

impl<'a> IndexWriter<'a> {
    /// Opens a maintenance batch on the index.
    pub fn new(index: &'a mut InvertedIndex) -> IndexWriter<'a> {
        IndexWriter {
            index,
            added: 0,
            removed: 0,
        }
    }

    /// Adds (or replaces) one document.
    pub fn add_document(&mut self, doc: PostId, source: SourceId, text: &str) {
        self.index.add_document(doc, source, text);
        self.added += 1;
    }

    /// Tombstones one document; its postings are swept at commit.
    /// Returns whether the document was present.
    pub fn remove_document(&mut self, doc: PostId) -> bool {
        let removed = self.index.tombstone_document(doc);
        if removed {
            self.removed += 1;
        }
        removed
    }

    /// Applies a whole change-set: removals first, then additions,
    /// so a delta that replaces a document behaves like an update.
    pub fn apply(&mut self, delta: &CorpusDelta) {
        for &doc in &delta.removed {
            self.remove_document(doc);
        }
        for add in &delta.added {
            self.add_document(add.post, add.source, &add.text);
        }
    }

    /// Removals tombstoned but not yet swept.
    pub fn pending_removals(&self) -> usize {
        self.index.pending_tombstones()
    }

    /// Sweeps all tombstones and ends the batch.
    pub fn commit(self) -> CommitStats {
        // The sweep itself runs in `drop`, which fires right after
        // the stats are read here; `sweep` is idempotent.
        let stats = CommitStats {
            added: self.added,
            removed: self.removed,
        };
        drop(self);
        stats
    }
}

impl Drop for IndexWriter<'_> {
    fn drop(&mut self) {
        self.index.sweep();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::{AccountKind, CorpusBuilder, SourceKind, Tag, Timestamp};

    fn index_of(bodies: &[&str]) -> InvertedIndex {
        let mut idx = InvertedIndex::default();
        for (i, body) in bodies.iter().enumerate() {
            idx.add_document(PostId::new(i as u32), SourceId::new(0), body);
        }
        idx
    }

    #[test]
    fn batch_removals_sweep_once_at_commit() {
        let mut idx = index_of(&[
            "duomo rooftop views",
            "duomo castle gardens",
            "duomo park fountain",
        ]);
        let mut writer = IndexWriter::new(&mut idx);
        assert!(writer.remove_document(PostId::new(0)));
        assert!(writer.remove_document(PostId::new(1)));
        assert_eq!(writer.pending_removals(), 2);
        let stats = writer.commit();
        assert_eq!(
            stats,
            CommitStats {
                added: 0,
                removed: 2
            }
        );
        // The shared term survives with only the live doc.
        assert_eq!(idx.doc_frequency("duomo"), 1);
        let ordinal = idx.postings("duomo")[0].ordinal;
        assert_eq!(idx.post_at(ordinal), Some(PostId::new(2)));
        // Exclusive terms are gone from the vocabulary.
        assert_eq!(idx.doc_frequency("rooftop"), 0);
        assert_eq!(idx.doc_count(), 1);
    }

    #[test]
    fn dropping_the_writer_commits() {
        let mut idx = index_of(&["duomo rooftop", "castle gardens"]);
        {
            let mut writer = IndexWriter::new(&mut idx);
            writer.remove_document(PostId::new(0));
        }
        assert_eq!(idx.doc_frequency("duomo"), 0);
        assert_eq!(idx.doc_count(), 1);
    }

    #[test]
    fn remove_then_readd_in_one_batch_keeps_fresh_postings() {
        let mut idx = index_of(&["duomo rooftop", "castle gardens"]);
        let mut writer = IndexWriter::new(&mut idx);
        writer.remove_document(PostId::new(0));
        writer.add_document(PostId::new(0), SourceId::new(0), "duomo fountain");
        let stats = writer.commit();
        assert_eq!(stats.added, 1);
        assert_eq!(stats.removed, 1);
        assert_eq!(idx.doc_count(), 2);
        assert_eq!(idx.doc_frequency("duomo"), 1);
        assert_eq!(idx.postings("duomo")[0].tf, 1);
        assert_eq!(idx.doc_frequency("fountain"), 1);
        assert_eq!(idx.doc_frequency("rooftop"), 0);
    }

    #[test]
    fn removing_missing_documents_reports_false() {
        let mut idx = index_of(&["duomo"]);
        let mut writer = IndexWriter::new(&mut idx);
        assert!(!writer.remove_document(PostId::new(7)));
        assert_eq!(writer.commit().removed, 0);
    }

    #[test]
    fn writer_applied_delta_matches_fresh_build() {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("c");
        let s = b.add_source(SourceKind::Blog, "b", Timestamp::EPOCH);
        let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
        for i in 0..6 {
            b.add_discussion_with_post(
                s,
                cat,
                format!("title {i}"),
                u,
                Timestamp::from_days(i),
                format!("duomo body number {i}"),
                vec![Tag::new("duomo")],
                None,
            );
        }
        let corpus = b.build();
        let fresh = InvertedIndex::build(&corpus);

        // Start from half the corpus, stream in the rest as a delta.
        let mut idx = InvertedIndex::default();
        let first: Vec<PostId> = (0..3).map(PostId::new).collect();
        let rest: Vec<PostId> = (3..6).map(PostId::new).collect();
        idx.apply_delta(&CorpusDelta::for_posts(&corpus, &first).unwrap());
        let mut writer = IndexWriter::new(&mut idx);
        writer.apply(&CorpusDelta::for_posts(&corpus, &rest).unwrap());
        writer.commit();

        assert_eq!(idx.doc_count(), fresh.doc_count());
        assert_eq!(idx.vocabulary_size(), fresh.vocabulary_size());
        assert_eq!(idx.avg_doc_length(), fresh.avg_doc_length());
        assert_eq!(idx.doc_frequency("duomo"), fresh.doc_frequency("duomo"));
    }
}
