//! Property suite: the top-k selection in
//! [`merge_partials`](obs_search::merge_partials) equals a full sort
//! followed by truncation.
//!
//! The merge selects the `k` winners under its total order (blended
//! score descending, then match count descending, then source id
//! ascending) and sorts only those. That is sort-then-truncate
//! exactly when the order is total, so the generator leans on the
//! tie-breakers: `best` values repeat, match counts repeat, and half
//! the cases zero the depth weight so equal `best` blends to an equal
//! score whatever the match counts. Sources are distinct, as the
//! shard router guarantees.

use obs_model::SourceId;
use obs_search::{merge_partials, BlendWeights, SearchHit, SourcePartial};
use proptest::prelude::*;

/// SplitMix64: the partial set is derived from one proptest seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A few static scores, so blended ties survive the static term.
fn static_score(source: SourceId) -> f64 {
    [0.0, 0.25, 0.0, -0.5][source.index() % 4]
}

/// `len` partials over distinct, shuffled sources with repeated
/// `best` values and match counts.
fn partials(seed: u64, len: usize) -> Vec<SourcePartial> {
    let mut state = seed;
    let mut sources: Vec<u32> = (0..len as u32 * 2).collect();
    for i in (1..sources.len()).rev() {
        let j = (next(&mut state) % (i as u64 + 1)) as usize;
        sources.swap(i, j);
    }
    const BEST: [f64; 4] = [0.5, 1.0, 1.0, 2.25];
    sources
        .into_iter()
        .take(len)
        .map(|source| SourcePartial {
            source: SourceId::new(source),
            best: BEST[(next(&mut state) % BEST.len() as u64) as usize],
            matches: 1 + (next(&mut state) % 3) as u32,
        })
        .collect()
}

/// The reference: blend everything, sort under the total order,
/// truncate, number.
fn sort_then_truncate(
    partials: &[SourcePartial],
    weights: &BlendWeights,
    k: usize,
) -> Vec<SearchHit> {
    let mut blended: Vec<(SearchHit, u32)> = partials
        .iter()
        .map(|p| {
            let score = weights.content * p.best
                + weights.depth * (1.0 + p.matches as f64).ln()
                + static_score(p.source);
            let hit = SearchHit {
                source: p.source,
                score,
                position: 0,
            };
            (hit, p.matches)
        })
        .collect();
    blended.sort_by(|(a, am), (b, bm)| {
        b.score
            .total_cmp(&a.score)
            .then(bm.cmp(am))
            .then(a.source.cmp(&b.source))
    });
    blended.truncate(k);
    blended
        .into_iter()
        .enumerate()
        .map(|(i, (mut hit, _))| {
            hit.position = i + 1;
            hit
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn selection_merge_equals_sort_then_truncate(
        seed in any::<u64>(),
        len in 0usize..120,
        zero_depth in any::<bool>(),
    ) {
        let weights = if zero_depth {
            BlendWeights { depth: 0.0, ..BlendWeights::default() }
        } else {
            BlendWeights::default()
        };
        let input = partials(seed, len);
        for k in [0, 1, len.saturating_sub(1), len, len + 5] {
            let merged = merge_partials(input.iter().copied(), static_score, &weights, k);
            let reference = sort_then_truncate(&input, &weights, k);
            prop_assert_eq!(merged.len(), reference.len());
            for (m, r) in merged.iter().zip(&reference) {
                prop_assert_eq!(m.source, r.source);
                prop_assert_eq!(m.position, r.position);
                prop_assert_eq!(m.score.to_bits(), r.score.to_bits());
            }
        }
    }
}
