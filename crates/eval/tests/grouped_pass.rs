//! The column-grouped sampled pass against a per-query reference.
//!
//! `evaluate_sampled` groups queries by `(relation, side)` column, walks
//! each column's candidates in tiles, compares the score before it looks
//! at the filter, and splits work across threads two ways. None of that
//! may show in a rank: the reference here scores one query at a time
//! (`score_candidates`) and ranks it with `sampled_rank`.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use kg_core::sample::seeded_rng;
use kg_core::topk::cmp_score;
use kg_core::triple::QuerySide;
use kg_core::{EntityId, FilterIndex, Triple, TripleStore};
use kg_eval::ranker::queries_of;
use kg_eval::sampled::sampled_rank;
use kg_eval::{evaluate_sampled, TieBreak};
use kg_models::{build_model, KgcModel, ModelKind};
use kg_recommend::{
    sample_candidates, CandidateSets, SampledCandidates, SamplingStrategy, SeenSets,
};

const ENTITIES: usize = 1300;
const RELATIONS: usize = 5;

/// `inner` with the rows of `nan` scoring NaN, and a count of query builds.
struct Doctored {
    inner: Box<dyn KgcModel>,
    nan: [EntityId; 3],
    builds: AtomicUsize,
}

impl KgcModel for Doctored {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn num_entities(&self) -> usize {
        self.inner.num_entities()
    }
    fn num_relations(&self) -> usize {
        self.inner.num_relations()
    }
    fn query_len(&self) -> usize {
        self.inner.query_len()
    }
    fn build_query(&self, triple: Triple, side: QuerySide, q: &mut [f32]) {
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.inner.build_query(triple, side, q);
    }
    fn score_rows(&self, q: &[f32], rows: Range<usize>, out: &mut [f32]) {
        self.inner.score_rows(q, rows.clone(), out);
        for (o, e) in out.iter_mut().zip(rows) {
            if self.nan.contains(&EntityId(e as u32)) {
                *o = f32::NAN;
            }
        }
    }
    fn score_gathered(&self, q: &[f32], candidates: &[EntityId], out: &mut [f32]) {
        self.inner.score_gathered(q, candidates, out);
        for (o, c) in out.iter_mut().zip(candidates) {
            if self.nan.contains(c) {
                *o = f32::NAN;
            }
        }
    }
}

fn doctored(kind: ModelKind) -> Doctored {
    let dim = match kind {
        ModelKind::ConvE => 16,
        ModelKind::Rescal | ModelKind::TuckEr => 8,
        _ => 12,
    };
    Doctored {
        inner: build_model(kind, ENTITIES, RELATIONS, dim, 5),
        // A head candidate of relation 0, the first triple's tail answer,
        // and a known sibling of that answer.
        nan: [EntityId(3), EntityId(40), EntityId(46)],
        builds: AtomicUsize::new(0),
    }
}

/// The known graph: relation 0 is dense (one head with many tails, so its
/// queries have known answers among the candidates), relations 1–2 are
/// sparse, relation 3 has four triples (a Static column smaller than
/// `n_s`) and relation 4 none (an empty Static column).
fn known_graph() -> Vec<Triple> {
    let mut known: Vec<Triple> = (0..60u32).map(|i| Triple::new(i % 6, 0, 40 + i)).collect();
    known.extend((0..40u32).map(|i| Triple::new(i, 1 + i % 2, (i * 7 + 3) % 90)));
    known.extend((0..4u32).map(|i| Triple::new(200 + i, 3, 300 + i)));
    known
}

/// One query at a time, every candidate scored, the filter consulted
/// before the score: `sampled_rank`, and the same rule spelled out.
fn reference_ranks(
    model: &dyn KgcModel,
    slice: &[Triple],
    filter: &FilterIndex,
    samples: &SampledCandidates,
    tie: TieBreak,
) -> Vec<f64> {
    queries_of(slice)
        .into_iter()
        .map(|(triple, side)| {
            let candidates = samples.for_query(triple.relation, side);
            let mut ids = vec![side.answer(triple)];
            ids.extend_from_slice(candidates);
            let mut scores = vec![0.0f32; ids.len()];
            model.score_candidates(triple, side, &ids, &mut scores);
            let known = filter.known_answers(triple, side);
            let (mut higher, mut ties) = (0, 0);
            for (c, &s) in candidates.iter().zip(&scores[1..]) {
                if *c == ids[0] || known.contains(c) {
                    continue;
                }
                match cmp_score(s, scores[0]) {
                    std::cmp::Ordering::Greater => higher += 1,
                    std::cmp::Ordering::Equal => ties += 1,
                    std::cmp::Ordering::Less => {}
                }
            }
            let rank = sampled_rank(ids[0], candidates, &scores, known, tie);
            assert_eq!(rank.to_bits(), tie.rank(higher, ties).to_bits());
            rank
        })
        .collect()
}

#[test]
fn grouped_pass_matches_the_per_query_reference_for_every_family_thread_count_and_tie_policy() {
    let known = known_graph();
    let filter = FilterIndex::from_slices(&[&known]);
    let store = TripleStore::from_triples(known.clone(), ENTITIES, RELATIONS);
    let sets = CandidateSets::from_seen(&SeenSets::from_store(&store));
    let draw = |strategy, n_s, seed| {
        sample_candidates(
            strategy,
            ENTITIES,
            RELATIONS,
            n_s,
            None,
            Some(&sets),
            &mut seeded_rng(seed),
        )
    };
    // Known triples (the answer and its siblings are Static candidates),
    // relations repeated and interleaved, plus the small and empty columns.
    let mut slice: Vec<Triple> = known.iter().copied().step_by(3).collect();
    slice.extend([Triple::new(201, 3, 302), Triple::new(7, 4, 9), Triple::new(8, 4, 9)]);
    let cases: [(&str, SampledCandidates, &[Triple]); 3] = [
        ("static", draw(SamplingStrategy::Static, 24, 1), &slice),
        ("random", draw(SamplingStrategy::Random, 24, 2), &slice),
        // Fewer queries than threads and a column wide enough that the
        // spare threads split its candidates.
        ("wide", draw(SamplingStrategy::Random, 1200, 3), &slice[..1]),
    ];
    let static_column = |r, side| cases[0].1.for_query(kg_core::RelationId(r), side).len();
    assert_eq!(static_column(3, QuerySide::Tail), 4, "smaller than n_s");
    assert_eq!(static_column(4, QuerySide::Head), 0, "empty");

    for kind in ModelKind::ALL {
        let model = doctored(kind);
        for (case, samples, slice) in &cases {
            for tie in [TieBreak::Mean, TieBreak::Optimistic, TieBreak::Pessimistic] {
                let want = reference_ranks(&model, slice, &filter, samples, tie);
                assert!(want.iter().all(|r| *r >= 1.0), "{kind:?} {case}: {want:?}");
                for threads in [1usize, 2, 8] {
                    model.builds.store(0, Ordering::Relaxed);
                    let got = evaluate_sampled(&model, slice, &filter, samples, tie, threads);
                    assert_eq!(
                        got.ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                        "{kind:?} {case} {tie:?} threads={threads}"
                    );
                    assert_eq!(
                        model.builds.load(Ordering::Relaxed),
                        2 * slice.len(),
                        "{kind:?} {case} threads={threads}: one query build per (triple, side)"
                    );
                }
            }
        }
    }
}
