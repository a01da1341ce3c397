//! Inverted index over opening posts.
//!
//! Documents are the corpus's opening posts (title + body + tags),
//! which is what a search engine of the paper's era would index of a
//! blog or forum. Postings store term frequencies; document lengths
//! feed BM25's length normalization.
//!
//! Every live document holds a dense, shard-local **ordinal**. The
//! read path works on ordinals only: postings are `(ordinal, tf)`
//! sorted by ordinal, and each document's length and source slot sit
//! in a `Vec` column indexed by ordinal, so scoring a posting is two
//! array reads and no hashing. Only the write path maps a
//! [`PostId`] to its ordinal. A removed document's ordinal goes on a
//! LIFO free list once its postings are swept, so a post removed and
//! re-added gets its ordinal — and its posting positions — back, and
//! the columns grow with the live document count, not with id values.
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

/// A posting: document ordinal and term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The document's shard-local ordinal
    /// ([`InvertedIndex::post_at`] maps it back to the post).
    pub ordinal: u32,
    /// Term frequency in the document.
    pub tf: u32,
}

/// One ordinal's read-path column entry: what scoring a posting
/// needs besides its term frequency.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DocColumn {
    /// Token length (0 while the ordinal is tombstoned or free).
    pub(crate) len: u32,
    /// Source slot: an index into [`InvertedIndex::slot_sources`].
    pub(crate) slot: u32,
}

/// One term's postings plus the compaction generation that last
/// swept it, so a batched commit never rescans a list twice.
///
/// Entries are **sorted by ordinal**: the document-at-a-time merge
/// in [`partial_query`](crate::SearchEngine::partial_query) walks
/// every query term's list in step on that order. Removals only
/// delete entries, so they keep it.
#[derive(Debug, Clone, Default)]
struct PostingList {
    entries: Vec<Posting>,
    clean_gen: u64,
}

impl PostingList {
    /// Inserts a posting at its ordinal-sorted position. Appends are
    /// O(1) (the common case: fresh ordinals are handed out
    /// ascending).
    fn insert_sorted(&mut self, ordinal: u32, tf: u32) {
        let posting = Posting { ordinal, tf };
        match self.entries.last() {
            Some(last) if last.ordinal < ordinal => self.entries.push(posting),
            _ => match self.entries.binary_search_by_key(&ordinal, |p| p.ordinal) {
                // A live duplicate cannot occur (an ordinal is reused
                // only after its postings are swept); replacing keeps
                // the list a valid set even if that were violated.
                Ok(pos) => self.entries[pos].tf = tf,
                Err(pos) => self.entries.insert(pos, posting),
            },
        }
    }

    /// Deletes the posting of `ordinal`, if present.
    fn remove(&mut self, ordinal: u32) {
        if let Ok(pos) = self.entries.binary_search_by_key(&ordinal, |p| p.ordinal) {
            self.entries.remove(pos);
        }
    }
}

/// The inverted index.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, PostingList>,
    /// Read path, indexed by ordinal: length and source slot.
    columns: Vec<DocColumn>,
    /// Source slot → source.
    slot_sources: Vec<SourceId>,
    /// Ordinal → post. A free ordinal keeps its last post; liveness
    /// is `ordinals[posts[o]] == o`.
    posts: Vec<PostId>,
    /// Ordinal → the document's distinct terms (the forward index a
    /// removal uses to find the posting lists it dirties); `None`
    /// once the ordinal is free. Shared (`Arc`), so the
    /// copy-on-write clone a writer takes of a published index
    /// copies one pointer per document, not its terms.
    doc_terms: Vec<Option<Arc<[String]>>>,
    /// Write path: live post → ordinal.
    ordinals: HashMap<PostId, u32>,
    /// Write path: source → slot.
    source_slots: HashMap<SourceId, u32>,
    /// Swept ordinals awaiting reuse, popped last-in first-out.
    free: Vec<u32>,
    total_len: u64,
    /// Documents removed but not yet swept from their posting lists,
    /// with their ordinals. Only ever non-empty while an
    /// [`IndexWriter`](crate::writer::IndexWriter) holds the index
    /// mutably, so readers never observe a stale posting.
    tombstones: HashMap<PostId, u32>,
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
        if self.ordinals.contains_key(&doc) {
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
        let slot = self.slot_of(source);
        let ordinal = self.allocate(doc, DocColumn { len, slot });
        self.total_len += len as u64;
        let mut terms = Vec::with_capacity(tf.len());
        for (term, freq) in tf {
            self.postings
                .entry(term.clone())
                .or_default()
                .insert_sorted(ordinal, freq);
            terms.push(term);
        }
        self.doc_terms[ordinal as usize] = Some(terms.into());
    }

    /// The source's slot, assigning the next one on first sight.
    /// Slots are never freed: a source with no live document simply
    /// has no posting pointing at its slot.
    fn slot_of(&mut self, source: SourceId) -> u32 {
        let next = self.slot_sources.len() as u32;
        let slot = *self.source_slots.entry(source).or_insert(next);
        if slot == next {
            self.slot_sources.push(source);
        }
        slot
    }

    /// Hands `doc` an ordinal — the most recently freed one, else a
    /// fresh one at the end of the columns — and fills its column.
    fn allocate(&mut self, doc: PostId, column: DocColumn) -> u32 {
        let ordinal = match self.free.pop() {
            Some(ordinal) => {
                self.columns[ordinal as usize] = column;
                self.posts[ordinal as usize] = doc;
                ordinal
            }
            None => {
                self.columns.push(column);
                self.posts.push(doc);
                self.doc_terms.push(None);
                (self.columns.len() - 1) as u32
            }
        };
        self.ordinals.insert(doc, ordinal);
        ordinal
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
    /// statistics (count, total length) update immediately, the
    /// posting entries wait for [`InvertedIndex::sweep`], and the
    /// ordinal stays taken until then. Crate-internal: only the
    /// writer defers sweeps.
    pub(crate) fn tombstone_document(&mut self, doc: PostId) -> bool {
        let Some(ordinal) = self.ordinals.remove(&doc) else {
            return false;
        };
        let len = std::mem::take(&mut self.columns[ordinal as usize].len);
        self.total_len -= len as u64;
        self.tombstones.insert(doc, ordinal);
        true
    }

    /// Sweeps all pending tombstones in one generation: every posting
    /// list dirtied by at least one tombstoned document is compacted
    /// exactly once, however many documents it hosted. The swept
    /// ordinals go on the free list, lowest on top.
    pub(crate) fn sweep(&mut self) -> usize {
        if self.tombstones.is_empty() {
            return 0;
        }
        self.generation += 1;
        let gen = self.generation;
        let mut dead: Vec<u32> = std::mem::take(&mut self.tombstones).into_values().collect();
        dead.sort_unstable();
        let mut emptied: HashSet<&String> = HashSet::new();
        for &ordinal in &dead {
            let Some(terms) = &self.doc_terms[ordinal as usize] else {
                continue;
            };
            for term in terms.iter() {
                if let Some(list) = self.postings.get_mut(term) {
                    if list.clean_gen < gen {
                        list.entries
                            .retain(|p| dead.binary_search(&p.ordinal).is_err());
                        list.clean_gen = gen;
                        if list.entries.is_empty() {
                            emptied.insert(term);
                        }
                    }
                }
            }
        }
        for term in emptied {
            self.postings.remove(term);
        }
        for &ordinal in dead.iter().rev() {
            self.doc_terms[ordinal as usize] = None;
            self.free.push(ordinal);
        }
        dead.len()
    }

    /// Sweeps one specific tombstone (used when a pending removal is
    /// cancelled by a re-add of the same document id) and frees its
    /// ordinal, which the re-add then takes straight back.
    fn sweep_tombstone(&mut self, doc: PostId) {
        let Some(ordinal) = self.tombstones.remove(&doc) else {
            return;
        };
        if let Some(terms) = self.doc_terms[ordinal as usize].take() {
            for term in terms.iter() {
                if let Some(list) = self.postings.get_mut(term) {
                    list.remove(ordinal);
                    if list.entries.is_empty() {
                        self.postings.remove(term);
                    }
                }
            }
        }
        self.free.push(ordinal);
    }

    /// Number of removals awaiting a sweep.
    pub(crate) fn pending_tombstones(&self) -> usize {
        self.tombstones.len()
    }

    /// Postings for a term (empty slice when absent), **sorted by
    /// ordinal** — the order the document-at-a-time query path
    /// merges on.
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.postings
            .get(term)
            .map_or(&[], |list| list.entries.as_slice())
    }

    /// The read-path columns: per ordinal its length and source slot,
    /// and per slot its source.
    pub(crate) fn columns(&self) -> (&[DocColumn], &[SourceId]) {
        (&self.columns, &self.slot_sources)
    }

    /// Document frequency of a term.
    pub fn doc_frequency(&self, term: &str) -> usize {
        self.postings(term).len()
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.ordinals.len()
    }

    /// A live document's ordinal.
    pub fn ordinal(&self, doc: PostId) -> Option<u32> {
        self.ordinals.get(&doc).copied()
    }

    /// The live document holding `ordinal` (`None` for a free or
    /// out-of-range ordinal).
    pub fn post_at(&self, ordinal: u32) -> Option<PostId> {
        let post = *self.posts.get(ordinal as usize)?;
        (self.ordinal(post) == Some(ordinal)).then_some(post)
    }

    /// Length of the ordinal columns: live documents plus free
    /// ordinals awaiting reuse. It follows how many documents were
    /// live at once, never the values of their ids.
    pub fn ordinal_span(&self) -> usize {
        self.columns.len()
    }

    /// A document's token length.
    pub fn doc_length(&self, doc: PostId) -> u32 {
        self.ordinal(doc).map_or(0, |o| self.ordinal_length(o))
    }

    /// The token length held at `ordinal` (0 when free).
    pub(crate) fn ordinal_length(&self, ordinal: u32) -> u32 {
        self.columns.get(ordinal as usize).map_or(0, |c| c.len)
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
        if self.ordinals.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.ordinals.len() as f64
        }
    }

    /// Source hosting a document.
    pub fn source_of(&self, doc: PostId) -> Option<SourceId> {
        let column = self.columns.get(self.ordinal(doc)? as usize)?;
        self.slot_sources.get(column.slot as usize).copied()
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

    #[test]
    fn postings_stay_sorted_through_out_of_order_adds() {
        let mut idx = InvertedIndex::default();
        let s = SourceId::new(0);
        for doc in [7u32, 2, 9, 0, 5] {
            idx.add_document(PostId::new(doc), s, "duomo rooftop");
        }
        for term in ["duomo", "rooftop"] {
            let ordinals: Vec<u32> = idx.postings(term).iter().map(|p| p.ordinal).collect();
            assert_eq!(ordinals, vec![0, 1, 2, 3, 4], "postings of `{term}`");
        }
        // Removing from the middle and adding a new id reuses the
        // freed ordinal at the same position.
        idx.remove_document(PostId::new(9));
        idx.add_document(PostId::new(11), s, "duomo rooftop");
        assert_eq!(idx.ordinal(PostId::new(11)), Some(2));
        let docs: Vec<Option<PostId>> = idx
            .postings("duomo")
            .iter()
            .map(|p| idx.post_at(p.ordinal))
            .collect();
        let expected = [7, 2, 11, 0, 5].map(|d| Some(PostId::new(d)));
        assert_eq!(docs, expected);
        assert_eq!(idx.ordinal_span(), 5);
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
