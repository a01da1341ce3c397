//! Document relevance scoring: TF-IDF and BM25.

use crate::index::InvertedIndex;
use crate::scatter::ScatterStats;
use obs_model::PostId;
use std::collections::{HashMap, HashSet};

/// BM25 parameters (classic defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation.
    pub k1: f64,
    /// Length-normalization strength.
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// The smoothed-IDF formula on raw counts — shared by the
/// index-local [`idf`] and the gathered cross-shard
/// [`ScatterStats::idf`], so both compute the identical float.
pub(crate) fn idf_from_counts(n: f64, df: f64) -> f64 {
    ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
}

/// Smoothed IDF used by both scorers (never negative).
pub fn idf(index: &InvertedIndex, term: &str) -> f64 {
    idf_from_counts(index.doc_count() as f64, index.doc_frequency(term) as f64)
}

/// Deduplicates query terms preserving first-occurrence order, so a
/// repeated term contributes to a document's score exactly once (the
/// bag-of-words model treats the query as a term *set* per scorer
/// pass; without this, `["duomo", "duomo"]` doubled every matching
/// document's score). Generic over the term representation so
/// callers can pass `String`s, `&str`s or `Cow<str>`s without
/// converting the slice.
pub(crate) fn distinct_terms<S: AsRef<str>>(terms: &[S]) -> Vec<&str> {
    let mut seen: HashSet<&str> = HashSet::with_capacity(terms.len());
    terms
        .iter()
        .map(|t| t.as_ref())
        .filter(|t| seen.insert(t))
        .collect()
}

/// TF-IDF scores of all documents matching any query term.
pub fn tfidf_scores<S: AsRef<str>>(index: &InvertedIndex, terms: &[S]) -> HashMap<PostId, f64> {
    let mut scores: HashMap<PostId, f64> = HashMap::new();
    for term in distinct_terms(terms) {
        let w = idf(index, term);
        for p in index.postings(term) {
            if let Some(doc) = index.post_at(p.ordinal) {
                *scores.entry(doc).or_insert(0.0) += (1.0 + (p.tf as f64).ln()) * w;
            }
        }
    }
    scores
}

/// BM25 scores of all documents matching any query term.
pub fn bm25_scores<S: AsRef<str>>(
    index: &InvertedIndex,
    terms: &[S],
    params: Bm25Params,
) -> HashMap<PostId, f64> {
    let stats = ScatterStats::gather(&[index], terms);
    bm25_scores_with(index, terms, params, &stats)
}

/// BM25 scores against **externally supplied** corpus statistics —
/// the scatter-phase scorer. A shard scores its own postings while
/// the IDF and length normalization come from `stats`, which a
/// scatter-gather plan sums over *every* shard
/// ([`ScatterStats::gather`]). With stats gathered from `index`
/// alone this is exactly [`bm25_scores`] — the single-index scorer
/// delegates here, so the two can never drift apart.
pub fn bm25_scores_with<S: AsRef<str>>(
    index: &InvertedIndex,
    terms: &[S],
    params: Bm25Params,
    stats: &ScatterStats,
) -> HashMap<PostId, f64> {
    let avg_len = stats.avg_doc_length().max(1.0);
    let mut scores: HashMap<PostId, f64> = HashMap::new();
    for term in distinct_terms(terms) {
        let w = stats.idf(term);
        for p in index.postings(term) {
            let Some(doc) = index.post_at(p.ordinal) else {
                continue;
            };
            let tf = p.tf as f64;
            let len = index.ordinal_length(p.ordinal);
            let len_norm = 1.0 - params.b + params.b * len as f64 / avg_len;
            let sat = tf * (params.k1 + 1.0) / (tf + params.k1 * len_norm);
            *scores.entry(doc).or_insert(0.0) += w * sat;
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::SourceId;

    fn tiny_index() -> InvertedIndex {
        let mut idx = InvertedIndex::default();
        let s = SourceId::new(0);
        idx.add_document(PostId::new(0), s, "duomo duomo rooftop");
        idx.add_document(
            PostId::new(1),
            s,
            "castle gardens fountain gardens castle park",
        );
        idx.add_document(PostId::new(2), s, "duomo castle");
        idx
    }

    #[test]
    fn idf_prefers_rare_terms() {
        let idx = tiny_index();
        assert!(idf(&idx, "rooftop") > idf(&idx, "duomo"));
        assert!(idf(&idx, "duomo") > 0.0);
        // Unknown terms get the maximum idf.
        assert!(idf(&idx, "zzz") >= idf(&idx, "rooftop"));
    }

    #[test]
    fn tfidf_ranks_repeated_terms_higher() {
        let idx = tiny_index();
        let scores = tfidf_scores(&idx, &["duomo".to_owned()]);
        assert_eq!(scores.len(), 2);
        assert!(scores[&PostId::new(0)] > scores[&PostId::new(2)]);
    }

    #[test]
    fn bm25_saturates_term_frequency() {
        let mut idx = InvertedIndex::default();
        let s = SourceId::new(0);
        idx.add_document(PostId::new(0), s, "duomo filler filler filler");
        idx.add_document(PostId::new(1), s, &"duomo ".repeat(50));
        idx.add_document(PostId::new(2), s, "other words entirely here");
        let scores = bm25_scores(&idx, &["duomo".to_owned()], Bm25Params::default());
        let once = scores[&PostId::new(0)];
        let fifty = scores[&PostId::new(1)];
        assert!(fifty > once);
        // Far less than 50×: saturation at work.
        assert!(fifty < once * 5.0, "once {once} fifty {fifty}");
    }

    #[test]
    fn multi_term_queries_accumulate() {
        let idx = tiny_index();
        let scores = bm25_scores(
            &idx,
            &["duomo".to_owned(), "castle".to_owned()],
            Bm25Params::default(),
        );
        // Doc 2 matches both terms.
        assert!(scores[&PostId::new(2)] > 0.0);
        assert_eq!(scores.len(), 3);
    }

    #[test]
    fn duplicate_terms_score_once() {
        let idx = tiny_index();
        let once = bm25_scores(&idx, &["duomo".to_owned()], Bm25Params::default());
        let twice = bm25_scores(
            &idx,
            &["duomo".to_owned(), "duomo".to_owned()],
            Bm25Params::default(),
        );
        assert_eq!(once, twice);
        let once = tfidf_scores(&idx, &["duomo".to_owned()]);
        let twice = tfidf_scores(&idx, &["duomo".to_owned(), "duomo".to_owned()]);
        assert_eq!(once, twice);
    }

    #[test]
    fn empty_query_scores_nothing() {
        let idx = tiny_index();
        assert!(tfidf_scores::<String>(&idx, &[]).is_empty());
        assert!(bm25_scores::<String>(&idx, &[], Bm25Params::default()).is_empty());
    }

    #[test]
    fn borrowed_terms_score_like_owned_terms() {
        let idx = tiny_index();
        let owned = bm25_scores(&idx, &["duomo".to_owned()], Bm25Params::default());
        let borrowed = bm25_scores(&idx, &["duomo"], Bm25Params::default());
        assert_eq!(owned, borrowed);
    }
}
