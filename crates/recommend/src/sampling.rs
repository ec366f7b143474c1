//! Per-relation candidate sampling — the heart of the paper's efficiency
//! argument (§4, "Sampling efficiency").
//!
//! Because relation recommenders are agnostic to the query's entity, the
//! negatives for *every* query of a relation can be drawn once per
//! domain/range column: `2·|R|` samplings per evaluation instead of one per
//! `(h,r)` pair, an `Ω(f_s·|E|·|KG_test|) → Ω(f_s·|E|·2|R|)` reduction
//! (Table 3).

use kg_core::sample::{uniform_without_replacement_into, PickSet, WeightedIndex};
use kg_core::triple::QuerySide;
use kg_core::{DrColumn, EntityId, RelationId};
use rand::Rng;

use crate::candidates::CandidateSets;
use crate::score_matrix::ScoreMatrix;

/// One alias table ([`WeightedIndex`]) per column of a score matrix, for
/// repeated probabilistic sampling: `O(nnz)` and 8 bytes per nonzero once,
/// then `O(1)` per draw. A column's `n_s` candidates are a successive
/// weighted sample without replacement — each pick proportional to its
/// recommender score among the entities not picked yet — which is what
/// the paper's Probabilistic strategy (§4.1) and A-Res both define.
#[derive(Clone, Debug)]
pub struct ProbabilisticCache {
    columns: Vec<WeightedIndex>,
}

impl ProbabilisticCache {
    /// Build the per-column tables from a score matrix.
    pub fn new(matrix: &ScoreMatrix) -> Self {
        let columns = (0..matrix.num_columns())
            .map(|c| WeightedIndex::new(matrix.column(DrColumn(c as u32)).1))
            .collect();
        ProbabilisticCache { columns }
    }

    /// One weighted draw from column `c` (used by KP's corruption step).
    pub fn sample_one<R: Rng>(
        &self,
        matrix: &ScoreMatrix,
        c: DrColumn,
        rng: &mut R,
    ) -> Option<EntityId> {
        let (entities, _) = matrix.column(c);
        self.columns[c.index()].sample_one(rng).map(|p| EntityId(entities[p]))
    }
}

/// The three sampling strategies compared throughout the paper's tables.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SamplingStrategy {
    /// `R` — uniform over all entities (the biased baseline).
    Random,
    /// `S` — uniform over the static (thresholded ∪ seen) candidate set.
    Static,
    /// `P` — weighted by recommender score, without replacement.
    Probabilistic,
}

impl SamplingStrategy {
    /// All strategies in the paper's column order (R, P, S).
    pub const ALL: [SamplingStrategy; 3] =
        [SamplingStrategy::Random, SamplingStrategy::Probabilistic, SamplingStrategy::Static];

    /// One-letter label used in result tables.
    pub fn label(self) -> &'static str {
        match self {
            SamplingStrategy::Random => "R",
            SamplingStrategy::Static => "S",
            SamplingStrategy::Probabilistic => "P",
        }
    }

    /// Full display name.
    pub fn name(self) -> &'static str {
        match self {
            SamplingStrategy::Random => "Random",
            SamplingStrategy::Static => "Static",
            SamplingStrategy::Probabilistic => "Probabilistic",
        }
    }
}

/// Sampled negative candidates, one list per domain/range column, drawn
/// *once* and reused by every query of the relation.
#[derive(Clone, Debug)]
pub struct SampledCandidates {
    num_relations: usize,
    /// Every column's candidates back to back; column `c` is
    /// `ids[offsets[c]..offsets[c + 1]]`.
    ids: Vec<EntityId>,
    offsets: Vec<usize>,
    strategy: SamplingStrategy,
    sample_size: usize,
}

impl SampledCandidates {
    /// The candidates answering `side` queries of relation `r`.
    pub fn for_query(&self, r: RelationId, side: QuerySide) -> &[EntityId] {
        self.column(match side {
            QuerySide::Tail => DrColumn::range(r, self.num_relations),
            QuerySide::Head => DrColumn::domain(r),
        })
    }

    /// The candidates of a raw column.
    pub fn column(&self, c: DrColumn) -> &[EntityId] {
        &self.ids[self.offsets[c.index()]..self.offsets[c.index() + 1]]
    }

    /// Which strategy produced this sample.
    pub fn strategy(&self) -> SamplingStrategy {
        self.strategy
    }

    /// The requested per-column sample size `n_s`.
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// Total entities drawn across all columns (the Table 3 quantity).
    pub fn total_drawn(&self) -> usize {
        self.ids.len()
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }
}

/// Draw `n_s` candidates per column using `strategy`.
///
/// * `Random` needs only `num_entities`;
/// * `Static` draws uniformly from `sets` (saturating at the set size);
/// * `Probabilistic` draws from `matrix` scores without replacement
///   (saturating at the column's positive scores). This builds each
///   column's alias table for the one draw, `O(nnz)`; prefer
///   [`sample_candidates_cached`] when sampling repeatedly from the same
///   matrix — for a seed, the two draw the same candidates.
pub fn sample_candidates<R: Rng>(
    strategy: SamplingStrategy,
    num_entities: usize,
    num_relations: usize,
    n_s: usize,
    matrix: Option<&ScoreMatrix>,
    sets: Option<&CandidateSets>,
    rng: &mut R,
) -> SampledCandidates {
    sample_candidates_cached(strategy, num_entities, num_relations, n_s, matrix, sets, None, rng)
}

/// As [`sample_candidates`], reusing a [`ProbabilisticCache`] for the
/// probabilistic strategy when provided.
#[allow(clippy::too_many_arguments)]
pub fn sample_candidates_cached<R: Rng>(
    strategy: SamplingStrategy,
    num_entities: usize,
    num_relations: usize,
    n_s: usize,
    matrix: Option<&ScoreMatrix>,
    sets: Option<&CandidateSets>,
    cache: Option<&ProbabilisticCache>,
    rng: &mut R,
) -> SampledCandidates {
    let nc = 2 * num_relations;
    let mut ids = Vec::with_capacity(nc * n_s.min(num_entities));
    let mut offsets = Vec::with_capacity(nc + 1);
    offsets.push(0);
    // Positions picked in the current column, and their duplicate filter.
    let mut picks: Vec<u32> = Vec::with_capacity(n_s.min(num_entities));
    let mut seen = PickSet::new();
    for c in 0..nc {
        let col = DrColumn(c as u32);
        picks.clear();
        match strategy {
            SamplingStrategy::Random => {
                uniform_without_replacement_into(rng, num_entities, n_s, &mut seen, &mut picks);
                ids.extend(picks.iter().map(|&p| EntityId(p)));
            }
            SamplingStrategy::Static => {
                let set = sets.expect("Static sampling requires candidate sets").column(col);
                uniform_without_replacement_into(rng, set.len(), n_s, &mut seen, &mut picks);
                ids.extend(picks.iter().map(|&p| EntityId(set[p as usize])));
            }
            SamplingStrategy::Probabilistic => {
                let m = matrix.expect("Probabilistic sampling requires a score matrix");
                let (entities, scores) = m.column(col);
                let built;
                let table = match cache {
                    Some(cache) => &cache.columns[c],
                    None => {
                        built = WeightedIndex::new(scores);
                        &built
                    }
                };
                table.sample_distinct(rng, n_s, &mut seen, &mut picks);
                ids.extend(picks.iter().map(|&p| EntityId(entities[p as usize])));
            }
        }
        offsets.push(ids.len());
    }
    SampledCandidates { num_relations, ids, offsets, strategy, sample_size: n_s }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seen::SeenSets;
    use kg_core::sample::seeded_rng;
    use kg_core::{Triple, TripleStore};

    fn matrix() -> ScoreMatrix {
        ScoreMatrix::from_columns(
            10,
            1,
            vec![vec![(0, 1.0), (1, 1.0), (2, 5.0)], vec![(3, 1.0), (4, 2.0), (5, 3.0), (6, 0.5)]],
        )
    }

    fn sets() -> CandidateSets {
        let store =
            TripleStore::from_triples(vec![Triple::new(0, 0, 3), Triple::new(2, 0, 5)], 10, 1);
        CandidateSets::from_seen(&SeenSets::from_store(&store))
    }

    #[test]
    fn random_draws_ns_distinct() {
        let s =
            sample_candidates(SamplingStrategy::Random, 10, 1, 4, None, None, &mut seeded_rng(1));
        assert_eq!(s.column(DrColumn(0)).len(), 4);
        assert_eq!(s.total_drawn(), 8);
        let mut v: Vec<u32> = s.column(DrColumn(0)).iter().map(|e| e.0).collect();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn static_saturates_at_set_size() {
        let s = sample_candidates(
            SamplingStrategy::Static,
            10,
            1,
            5,
            None,
            Some(&sets()),
            &mut seeded_rng(2),
        );
        // Seen sets have 2 members per column; sample saturates there.
        assert_eq!(s.column(DrColumn(0)).len(), 2);
        assert_eq!(s.column(DrColumn(1)).len(), 2);
        for &e in s.column(DrColumn(0)) {
            assert!(e == EntityId(0) || e == EntityId(2));
        }
    }

    #[test]
    fn probabilistic_draws_only_scored_entities() {
        let m = matrix();
        let s = sample_candidates(
            SamplingStrategy::Probabilistic,
            10,
            1,
            3,
            Some(&m),
            None,
            &mut seeded_rng(3),
        );
        for &e in s.column(DrColumn(0)) {
            assert!(m.score(e.0, DrColumn(0)) > 0.0);
        }
        assert_eq!(s.column(DrColumn(0)).len(), 3);
        assert_eq!(s.column(DrColumn(1)).len(), 3);
    }

    #[test]
    fn probabilistic_prefers_high_scores() {
        let m = matrix();
        let mut rng = seeded_rng(4);
        let mut count2 = 0usize;
        for _ in 0..300 {
            let s = sample_candidates(
                SamplingStrategy::Probabilistic,
                10,
                1,
                1,
                Some(&m),
                None,
                &mut rng,
            );
            if s.column(DrColumn(0))[0] == EntityId(2) {
                count2 += 1;
            }
        }
        // Entity 2 has 5/7 of the mass.
        assert!(count2 > 150, "high-score entity drawn only {count2}/300 times");
    }

    #[test]
    fn cached_probabilistic_matches_constraints() {
        let m = matrix();
        let cache = ProbabilisticCache::new(&m);
        let s = sample_candidates_cached(
            SamplingStrategy::Probabilistic,
            10,
            1,
            3,
            Some(&m),
            None,
            Some(&cache),
            &mut seeded_rng(9),
        );
        for c in 0..2 {
            let col = DrColumn(c);
            for &e in s.column(col) {
                assert!(m.score(e.0, col) > 0.0, "cached sampler drew zero-score entity");
            }
            let mut v: Vec<u32> = s.column(col).iter().map(|e| e.0).collect();
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), s.column(col).len(), "duplicates in cached sample");
        }
    }

    #[test]
    fn cached_sampler_biased_toward_heavy_items() {
        let m = matrix();
        let cache = ProbabilisticCache::new(&m);
        let mut rng = seeded_rng(10);
        let mut count2 = 0usize;
        for _ in 0..300 {
            let s = sample_candidates_cached(
                SamplingStrategy::Probabilistic,
                10,
                1,
                1,
                Some(&m),
                None,
                Some(&cache),
                &mut rng,
            );
            if s.column(DrColumn(0))[0] == EntityId(2) {
                count2 += 1;
            }
        }
        assert!(count2 > 150, "heavy entity drawn only {count2}/300");
    }

    #[test]
    fn random_and_static_draws_are_pinned_to_the_parent_commit() {
        // Candidate sets are protocol (Ott et al.: conclusions flip on
        // them), so the flat buffer and the bitset filter must not move a
        // Random or Static draw: values recorded at the parent commit.
        // Columns of 10, 1, 3 and 16 seen entities cover Floyd's collision
        // branch and both saturation cases.
        let mut triples: Vec<Triple> = (0..10).map(|h| Triple::new(h, 0, 20 + h % 3)).collect();
        triples.extend((10..26).map(|t| Triple::new(5, 1, t)));
        let store = TripleStore::from_triples(triples, 30, 2);
        let sets = CandidateSets::from_seen(&SeenSets::from_store(&store));
        let golden: [(SamplingStrategy, [&[u32]; 4]); 2] = [
            (
                SamplingStrategy::Random,
                [
                    &[21, 20, 26, 16, 7, 29],
                    &[3, 0, 21, 11, 19, 10],
                    &[7, 9, 2, 23, 28, 19],
                    &[23, 11, 1, 12, 27, 29],
                ],
            ),
            (
                SamplingStrategy::Static,
                [&[4, 5, 6, 7, 2, 9], &[5], &[20, 21, 22], &[11, 10, 20, 15, 24, 25]],
            ),
        ];
        for (strategy, columns) in golden {
            let s = sample_candidates(strategy, 30, 2, 6, None, Some(&sets), &mut seeded_rng(11));
            for (c, want) in columns.into_iter().enumerate() {
                let got: Vec<u32> = s.column(DrColumn(c as u32)).iter().map(|e| e.0).collect();
                assert_eq!(got, want, "{strategy:?} column {c}");
            }
            assert_eq!(s.total_drawn(), columns.iter().map(|c| c.len()).sum::<usize>());
        }
    }

    #[test]
    fn probabilistic_draws_do_not_depend_on_the_cache() {
        // One sampler: with or without a prebuilt cache a seed draws the
        // same candidates, and a column saturates at its positive scores.
        let m = matrix();
        let cache = ProbabilisticCache::new(&m);
        for n_s in [1, 2, 3, 9] {
            let draw = |cache| {
                sample_candidates_cached(
                    SamplingStrategy::Probabilistic,
                    10,
                    1,
                    n_s,
                    Some(&m),
                    None,
                    cache,
                    &mut seeded_rng(21),
                )
            };
            let (cached, uncached) = (draw(Some(&cache)), draw(None));
            for c in [DrColumn(0), DrColumn(1)] {
                assert_eq!(cached.column(c), uncached.column(c), "n_s={n_s} {c:?}");
                assert_eq!(cached.column(c).len(), n_s.min(m.column(c).0.len()));
            }
        }
    }

    #[test]
    fn for_query_maps_tail_to_range() {
        let s = sample_candidates(
            SamplingStrategy::Probabilistic,
            10,
            1,
            2,
            Some(&matrix()),
            None,
            &mut seeded_rng(5),
        );
        let tails = s.for_query(RelationId(0), QuerySide::Tail);
        for &e in tails {
            assert!(e.0 >= 3, "tail candidates come from the range column");
        }
        let heads = s.for_query(RelationId(0), QuerySide::Head);
        for &e in heads {
            assert!(e.0 <= 2);
        }
    }
}
