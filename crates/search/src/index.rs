//! Inverted index over opening posts.
//!
//! Documents are the corpus's opening posts (title + body + tags),
//! which is what a search engine of the paper's era would index of a
//! blog or forum. Postings store term frequencies; document lengths
//! feed BM25's length normalization.
//!
//! The index is maintainable in place: documents can be added and
//! removed one at a time (or in batches through an
//! [`IndexWriter`](crate::writer::IndexWriter)), and an incremental
//! history of adds/removes converges to exactly the index a
//! from-scratch [`InvertedIndex::build`] produces. Removals go
//! through *tombstones*: the document's statistics disappear
//! immediately, while its postings are swept out by a
//! generation-aware compaction pass that touches each affected term
//! list at most once per commit.

use crate::token::tokenize;
use obs_model::{document_text, Corpus, CorpusDelta, PostId, SourceId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A posting: document and term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document (post) id.
    pub doc: PostId,
    /// Term frequency in the document.
    pub tf: u32,
}

/// One term's postings plus the compaction generation that last
/// swept it, so a batched commit never rescans a list twice.
///
/// Entries are **sorted by document id** (the invariant the DAAT
/// merge in [`partial_query`](crate::SearchEngine::partial_query)
/// walks), and `max_tf` is the **exact** maximum term frequency among
/// the surviving entries — not merely an upper bound. Adds take the
/// running max; every removal path recomputes the max over survivors
/// in the same pass that compacts the list, so the two never drift.
#[derive(Debug, Clone, Default)]
struct PostingList {
    entries: Vec<Posting>,
    clean_gen: u64,
    /// Exact max term frequency across `entries`.
    max_tf: u32,
}

impl PostingList {
    /// Inserts a posting at its doc-id-sorted position. Appends are
    /// O(1) (the common case: ids arrive mostly ascending); the max
    /// takes the new frequency if it is larger.
    fn insert_sorted(&mut self, doc: PostId, tf: u32) {
        match self.entries.last() {
            Some(last) if last.doc < doc => self.entries.push(Posting { doc, tf }),
            _ => match self.entries.binary_search_by(|p| p.doc.cmp(&doc)) {
                // A live duplicate cannot occur (re-adds remove the
                // old document first); replacing keeps the list a
                // valid set even if that precondition were violated.
                Ok(pos) => self.entries[pos].tf = tf,
                Err(pos) => self.entries.insert(pos, Posting { doc, tf }),
            },
        }
        self.max_tf = self.max_tf.max(tf);
    }

    /// Recomputes the exact max after a removal pass.
    fn refresh_max(&mut self) {
        self.max_tf = self.entries.iter().map(|p| p.tf).max().unwrap_or(0);
    }
}

/// The inverted index.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, PostingList>,
    doc_len: HashMap<PostId, u32>,
    doc_source: HashMap<PostId, SourceId>,
    /// Forward index: the distinct terms of each live document, so a
    /// removal knows exactly which posting lists it dirties. Shared
    /// (`Arc`), so the copy-on-write clone a writer takes of a
    /// published index copies one pointer per document, not its terms.
    doc_terms: HashMap<PostId, Arc<[String]>>,
    total_len: u64,
    /// Documents removed but not yet swept from their posting lists,
    /// keyed to the terms awaiting compaction. Only ever non-empty
    /// while an [`IndexWriter`](crate::writer::IndexWriter) holds the
    /// index mutably, so readers never observe a stale posting.
    tombstones: HashMap<PostId, Arc<[String]>>,
    /// Compaction generation, bumped once per sweep.
    generation: u64,
}

impl InvertedIndex {
    /// Indexes every opening post of the corpus.
    pub fn build(corpus: &Corpus) -> InvertedIndex {
        let mut index = InvertedIndex::default();
        for post in corpus.posts() {
            let (source, text) = match document_text(corpus, post.id) {
                Ok(pair) => pair,
                Err(_) => continue,
            };
            index.add_document(post.id, source, &text);
        }
        index
    }

    /// Adds one document. Re-adding a live document replaces its
    /// previous contents (update semantics).
    pub fn add_document(&mut self, doc: PostId, source: SourceId, text: &str) {
        if self.doc_len.contains_key(&doc) {
            self.remove_document(doc);
        } else if self.tombstones.contains_key(&doc) {
            // Pending removal of the same id: sweep its old postings
            // now so the fresh ones below survive the next commit.
            self.sweep_tombstone(doc);
        }
        let tokens = tokenize(text);
        let mut tf: HashMap<String, u32> = HashMap::new();
        for t in tokens {
            *tf.entry(t).or_insert(0) += 1;
        }
        let len: u32 = tf.values().sum();
        self.doc_len.insert(doc, len);
        self.doc_source.insert(doc, source);
        self.total_len += len as u64;
        let mut terms = Vec::with_capacity(tf.len());
        for (term, freq) in tf {
            self.postings
                .entry(term.clone())
                .or_default()
                .insert_sorted(doc, freq);
            terms.push(term);
        }
        self.doc_terms.insert(doc, terms.into());
    }

    /// Removes one document, sweeping its postings immediately.
    /// Returns whether the document was present.
    pub fn remove_document(&mut self, doc: PostId) -> bool {
        if !self.tombstone_document(doc) {
            return false;
        }
        self.sweep_tombstone(doc);
        true
    }

    /// Applies a change-set: removals first, then additions, so a
    /// delta that replaces a document behaves like an update.
    pub fn apply_delta(&mut self, delta: &CorpusDelta) {
        let mut writer = crate::writer::IndexWriter::new(self);
        writer.apply(delta);
        writer.commit();
    }

    /// Marks a document removed without sweeping its postings:
    /// statistics (count, lengths, source) update immediately, the
    /// posting entries wait for [`InvertedIndex::sweep`]. Crate-
    /// internal: only the writer defers sweeps.
    pub(crate) fn tombstone_document(&mut self, doc: PostId) -> bool {
        let Some(len) = self.doc_len.remove(&doc) else {
            return false;
        };
        self.total_len -= len as u64;
        self.doc_source.remove(&doc);
        let terms = self.doc_terms.remove(&doc).unwrap_or_else(|| Arc::from([]));
        self.tombstones.insert(doc, terms);
        true
    }

    /// Sweeps all pending tombstones in one generation: every posting
    /// list dirtied by at least one tombstoned document is compacted
    /// exactly once, however many documents it hosted.
    pub(crate) fn sweep(&mut self) -> usize {
        if self.tombstones.is_empty() {
            return 0;
        }
        self.generation += 1;
        let gen = self.generation;
        let tombstones = std::mem::take(&mut self.tombstones);
        let swept = tombstones.len();
        let mut emptied: Vec<&String> = Vec::new();
        for term in tombstones.values().flat_map(|terms| terms.iter()) {
            if let Some(list) = self.postings.get_mut(term) {
                if list.clean_gen < gen {
                    list.entries.retain(|p| !tombstones.contains_key(&p.doc));
                    list.refresh_max();
                    list.clean_gen = gen;
                    if list.entries.is_empty() {
                        emptied.push(term);
                    }
                }
            }
        }
        let emptied: HashSet<&String> = emptied.into_iter().collect();
        for term in emptied {
            self.postings.remove(term);
        }
        swept
    }

    /// Sweeps one specific tombstone (used when a pending removal is
    /// cancelled by a re-add of the same document id).
    fn sweep_tombstone(&mut self, doc: PostId) {
        let Some(terms) = self.tombstones.remove(&doc) else {
            return;
        };
        for term in terms.iter() {
            if let Some(list) = self.postings.get_mut(term) {
                list.entries.retain(|p| p.doc != doc);
                list.refresh_max();
                if list.entries.is_empty() {
                    self.postings.remove(term);
                }
            }
        }
    }

    /// Number of removals awaiting a sweep.
    pub(crate) fn pending_tombstones(&self) -> usize {
        self.tombstones.len()
    }

    /// Postings for a term (empty slice when absent), **sorted by
    /// document id** — the invariant the pruned DAAT query path
    /// merges on.
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.postings
            .get(term)
            .map_or(&[], |list| list.entries.as_slice())
    }

    /// The **exact** maximum term frequency among the term's live
    /// postings (0 when absent). Maintained incrementally: adds take
    /// the running max, every removal path recomputes over survivors
    /// in its compaction pass — so after any add/remove/compaction
    /// history this equals `postings(term).iter().map(|p| p.tf).max()`
    /// exactly. Per-term score upper bounds for top-k pruning derive
    /// from it.
    pub fn max_term_frequency(&self, term: &str) -> u32 {
        self.postings.get(term).map_or(0, |list| list.max_tf)
    }

    /// Document frequency of a term.
    pub fn doc_frequency(&self, term: &str) -> usize {
        self.postings(term).len()
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.doc_len.len()
    }

    /// A document's token length.
    pub fn doc_length(&self, doc: PostId) -> u32 {
        self.doc_len.get(&doc).copied().unwrap_or(0)
    }

    /// Total token length across all live documents — the numerator
    /// of [`InvertedIndex::avg_doc_length`], exposed as an exact
    /// integer so scatter-gather scoring can sum shard statistics
    /// without floating-point drift.
    pub fn total_token_length(&self) -> u64 {
        self.total_len
    }

    /// Average document length.
    pub fn avg_doc_length(&self) -> f64 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.doc_len.len() as f64
        }
    }

    /// Source hosting a document.
    pub fn source_of(&self, doc: PostId) -> Option<SourceId> {
        self.doc_source.get(&doc).copied()
    }

    /// Number of distinct terms.
    pub fn vocabulary_size(&self) -> usize {
        self.postings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::{AccountKind, CorpusBuilder, SourceKind, Tag, Timestamp};

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("attractions");
        let s1 = b.add_source(SourceKind::Blog, "one", Timestamp::EPOCH);
        let s2 = b.add_source(SourceKind::Forum, "two", Timestamp::EPOCH);
        let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
        b.add_discussion_with_post(
            s1,
            cat,
            "duomo rooftop views",
            u,
            Timestamp::from_days(1),
            "the duomo rooftop is amazing",
            vec![Tag::new("duomo")],
            None,
        );
        b.add_discussion_with_post(
            s2,
            cat,
            "castle gardens",
            u,
            Timestamp::from_days(2),
            "the castle gardens are lovely",
            vec![],
            None,
        );
        b.build()
    }

    #[test]
    fn build_indexes_every_post() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        assert_eq!(idx.doc_count(), 2);
        assert!(idx.vocabulary_size() > 4);
        assert!(idx.avg_doc_length() > 0.0);
    }

    #[test]
    fn term_frequencies_accumulate_title_body_tags() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        // "duomo" appears in title, body and tag of doc 0 → tf 3.
        let postings = idx.postings("duomo");
        assert_eq!(postings.len(), 1);
        assert_eq!(postings[0].tf, 3);
        assert_eq!(idx.doc_frequency("duomo"), 1);
        assert_eq!(idx.doc_frequency("missing"), 0);
    }

    #[test]
    fn documents_map_to_their_sources() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        assert_eq!(idx.source_of(PostId::new(0)), Some(SourceId::new(0)));
        assert_eq!(idx.source_of(PostId::new(1)), Some(SourceId::new(1)));
        assert_eq!(idx.source_of(PostId::new(99)), None);
    }

    #[test]
    fn stopwords_are_not_indexed() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        assert_eq!(idx.doc_frequency("the"), 0);
        assert_eq!(idx.doc_frequency("is"), 0);
    }

    #[test]
    fn removal_erases_every_trace() {
        let c = corpus();
        let mut idx = InvertedIndex::build(&c);
        assert!(idx.remove_document(PostId::new(0)));
        assert_eq!(idx.doc_count(), 1);
        assert_eq!(idx.doc_frequency("duomo"), 0);
        assert_eq!(idx.doc_length(PostId::new(0)), 0);
        assert_eq!(idx.source_of(PostId::new(0)), None);
        // Terms exclusive to the removed doc leave the vocabulary.
        assert_eq!(idx.postings("rooftop"), &[]);
        // Removing twice is a no-op.
        assert!(!idx.remove_document(PostId::new(0)));
    }

    #[test]
    fn incremental_adds_match_full_build() {
        let c = corpus();
        let built = InvertedIndex::build(&c);
        let mut incremental = InvertedIndex::default();
        // Reverse order: the converged state must not depend on it.
        for post in c.posts().iter().rev() {
            let (source, text) = document_text(&c, post.id).unwrap();
            incremental.add_document(post.id, source, &text);
        }
        assert_eq!(built.doc_count(), incremental.doc_count());
        assert_eq!(built.vocabulary_size(), incremental.vocabulary_size());
        assert_eq!(built.avg_doc_length(), incremental.avg_doc_length());
        assert_eq!(
            built.doc_frequency("duomo"),
            incremental.doc_frequency("duomo")
        );
    }

    #[test]
    fn add_remove_add_equals_single_add() {
        let c = corpus();
        let mut idx = InvertedIndex::build(&c);
        let (source, text) = document_text(&c, PostId::new(0)).unwrap();
        idx.remove_document(PostId::new(0));
        idx.add_document(PostId::new(0), source, &text);
        let fresh = InvertedIndex::build(&c);
        assert_eq!(idx.doc_count(), fresh.doc_count());
        assert_eq!(idx.vocabulary_size(), fresh.vocabulary_size());
        assert_eq!(idx.avg_doc_length(), fresh.avg_doc_length());
        assert_eq!(idx.postings("duomo")[0].tf, 3);
    }

    #[test]
    fn readd_replaces_previous_contents() {
        let c = corpus();
        let mut idx = InvertedIndex::build(&c);
        idx.add_document(PostId::new(0), SourceId::new(0), "fountain plaza");
        assert_eq!(idx.doc_count(), 2);
        assert_eq!(idx.doc_frequency("duomo"), 0);
        assert_eq!(idx.doc_frequency("fountain"), 1);
        assert_eq!(idx.doc_length(PostId::new(0)), 2);
    }

    /// Every posting list must be doc-id-sorted with an exactly
    /// maintained max term frequency — the two invariants the pruned
    /// query path is built on.
    fn assert_bounds_exact(idx: &InvertedIndex) {
        for (term, list) in &idx.postings {
            for w in list.entries.windows(2) {
                assert!(w[0].doc < w[1].doc, "postings of `{term}` out of order");
            }
            let recomputed = list.entries.iter().map(|p| p.tf).max().unwrap_or(0);
            assert_eq!(
                list.max_tf, recomputed,
                "max_tf of `{term}` drifted from the survivors"
            );
        }
    }

    #[test]
    fn postings_stay_sorted_through_out_of_order_adds() {
        let mut idx = InvertedIndex::default();
        let s = SourceId::new(0);
        for doc in [7u32, 2, 9, 0, 5] {
            idx.add_document(PostId::new(doc), s, "duomo rooftop");
        }
        let docs: Vec<usize> = idx
            .postings("duomo")
            .iter()
            .map(|p| p.doc.index())
            .collect();
        assert_eq!(docs, vec![0, 2, 5, 7, 9]);
        assert_bounds_exact(&idx);
    }

    #[test]
    fn max_term_frequency_tracks_adds_removes_and_compaction() {
        let mut idx = InvertedIndex::default();
        let s = SourceId::new(0);
        idx.add_document(PostId::new(0), s, "duomo");
        idx.add_document(PostId::new(1), s, "duomo duomo duomo");
        idx.add_document(PostId::new(2), s, "duomo duomo");
        assert_eq!(idx.max_term_frequency("duomo"), 3);
        assert_eq!(idx.max_term_frequency("missing"), 0);

        // Removing the max holder must *shrink* the bound to the
        // surviving max — exact, not merely conservative.
        idx.remove_document(PostId::new(1));
        assert_eq!(idx.max_term_frequency("duomo"), 2);
        assert_bounds_exact(&idx);

        // The batched writer path (tombstone + one sweep) recomputes
        // identically.
        let mut writer = crate::writer::IndexWriter::new(&mut idx);
        writer.remove_document(PostId::new(2));
        writer.commit();
        assert_eq!(idx.max_term_frequency("duomo"), 1);

        // Re-adding a live doc with fewer repeats shrinks it too
        // (re-add sweeps the old postings first).
        idx.add_document(PostId::new(5), s, "duomo duomo duomo duomo");
        assert_eq!(idx.max_term_frequency("duomo"), 4);
        idx.add_document(PostId::new(5), s, "duomo");
        assert_eq!(idx.max_term_frequency("duomo"), 1);
        assert_bounds_exact(&idx);
    }

    #[test]
    fn apply_delta_adds_and_removes() {
        let c = corpus();
        let mut idx = InvertedIndex::build(&c);
        let delta = CorpusDelta::for_removals(&c, &[PostId::new(1)]).unwrap();
        idx.apply_delta(&delta);
        assert_eq!(idx.doc_count(), 1);
        let delta = CorpusDelta::for_posts(&c, &[PostId::new(1)]).unwrap();
        idx.apply_delta(&delta);
        let fresh = InvertedIndex::build(&c);
        assert_eq!(idx.doc_count(), fresh.doc_count());
        assert_eq!(idx.vocabulary_size(), fresh.vocabulary_size());
        assert_eq!(idx.doc_frequency("castle"), fresh.doc_frequency("castle"));
    }
}
