//! The exact, filtered, full-ranking evaluation — the `O(|E|)`-per-query
//! protocol whose cost the paper's framework avoids, and the ground truth
//! every estimator is compared against.
//!
//! The ranking pass streams cache-resident tiles of the entity table
//! through [`kg_models::engine`] for a block of queries at a time instead
//! of materialising a `num_entities()`-sized row per query: each query is
//! prepared once, `higher`/`ties` counters accumulate tile by tile, and
//! the tile scratch is pooled across the whole pass.

use kg_core::parallel::{parallel_map_indexed, two_level_split, BufferPool, ShardPlan};
use kg_core::timing::Stopwatch;
use kg_core::topk::cmp_score;
use kg_core::triple::QuerySide;
use kg_core::{KnownIndex, Triple};
use kg_models::{engine, KgcModel};

use crate::metrics::{RankingMetrics, TieBreak};

/// Result of an evaluation pass: metrics, per-query ranks and wall time.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// Aggregated metrics.
    pub metrics: RankingMetrics,
    /// Per-query filtered ranks, in query order (tail query then head query
    /// per test triple).
    pub ranks: Vec<f64>,
    /// Wall-clock seconds of the scoring + ranking work.
    pub seconds: f64,
}

/// Expand triples into the standard query list: for each test triple, a
/// tail query and a head query.
pub fn queries_of(triples: &[Triple]) -> Vec<(Triple, QuerySide)> {
    let mut out = Vec::with_capacity(triples.len() * 2);
    for &t in triples {
        out.push((t, QuerySide::Tail));
        out.push((t, QuerySide::Head));
    }
    out
}

/// Compute the filtered rank of the true answer from a full score row (the
/// reference kernel the streamed sharded path is tested against).
///
/// `known` are the other true answers of this query (to be filtered out);
/// the answer itself must be contained in `scores`.
///
/// **NaN ordering** is explicit (shared with [`kg_core::topk::cmp_score`]):
/// a NaN score is worse than every real score. A NaN competitor never
/// counts as `higher` nor as a tie against a real answer, and a NaN answer
/// ranks behind every real competitor — previously IEEE all-false
/// comparisons silently ranked a NaN answer first.
pub fn filtered_rank_from_scores(
    scores: &[f32],
    answer: usize,
    known: &[kg_core::EntityId],
    tie: TieBreak,
) -> f64 {
    let s_true = scores[answer];
    let mut higher = 0usize;
    let mut ties = 0usize;
    for (i, &s) in scores.iter().enumerate() {
        match cmp_score(s, s_true) {
            std::cmp::Ordering::Greater => higher += 1,
            std::cmp::Ordering::Equal => {
                if i != answer {
                    ties += 1;
                }
            }
            std::cmp::Ordering::Less => {}
        }
    }
    // Remove known-true competitors (the *filtered* protocol).
    for &k in known {
        let ki = k.index();
        if ki == answer {
            continue;
        }
        match cmp_score(scores[ki], s_true) {
            std::cmp::Ordering::Greater => higher -= 1,
            std::cmp::Ordering::Equal => ties -= 1,
            std::cmp::Ordering::Less => {}
        }
    }
    tie.rank(higher, ties)
}

/// Evaluate `model` on `triples` with the full filtered protocol.
///
/// Queries are ranked in blocks of [`engine::BLOCK_QUERIES`]
/// ([`kg_models::engine::partial_rank_counts_block`] over the full range):
/// each block streams the entity table once, tile by cache-resident tile,
/// and every query of the block scores a tile while it is hot — no
/// `num_entities()`-sized row is materialised, and the tile scratch is
/// pooled across the whole pass.
///
/// The thread budget follows the two-level work plan
/// ([`kg_core::parallel::two_level_split`]): the queries are cut into
/// `outer` contiguous pieces, one per thread, each ranked block by block
/// (the throughput regime); with fewer queries than threads the spare
/// threads fan each block's pass out over contiguous pieces of the entity
/// range, so a single-query evaluation uses the whole budget instead of
/// one core. Per-row arithmetic, the comparison order, and the counter
/// sums are all partition-, block- and schedule-independent, so
/// `EvalResult::ranks` is bit-for-bit identical for every `threads`.
pub fn evaluate_full<F: KnownIndex + ?Sized>(
    model: &dyn KgcModel,
    triples: &[Triple],
    filter: &F,
    tie: TieBreak,
    threads: usize,
) -> EvalResult {
    let queries = queries_of(triples);
    let n_entities = model.num_entities();
    let split = two_level_split(queries.len(), threads);
    let pieces = ShardPlan::new(queries.len(), split.outer);
    let pool = BufferPool::new(engine::BLOCK_QUERIES * engine::tile_rows(model.dim()));
    let sw = Stopwatch::start();
    let ranks = parallel_map_indexed(pieces.num_shards(), split.outer, |p| {
        let mut ranks = Vec::with_capacity(pieces.range(p).len());
        for block in queries[pieces.range(p)].chunks(engine::BLOCK_QUERIES) {
            let known: Vec<_> =
                block.iter().map(|&(t, side)| filter.known_answers(t, side)).collect();
            let asks: Vec<_> =
                block.iter().zip(&known).map(|(&(t, side), k)| (t, side, &k[..])).collect();
            let counts =
                engine::partial_rank_counts_block(model, &pool, &asks, 0..n_entities, split.inner);
            ranks.extend(counts.iter().map(|c| tie.rank(c.higher as usize, c.ties as usize)));
        }
        ranks
    })
    .concat();
    let seconds = sw.seconds();
    EvalResult { metrics: RankingMetrics::from_ranks(&ranks), ranks, seconds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::{EntityId, FilterIndex};
    use kg_models::{build_model, ModelKind};

    /// A deterministic mock model: score(h,r,t) = f(t) only, so ranks are
    /// hand-computable.
    struct MockModel {
        n: usize,
        tail_scores: Vec<f32>,
    }

    impl KgcModel for MockModel {
        fn name(&self) -> &'static str {
            "Mock"
        }
        fn dim(&self) -> usize {
            1
        }
        fn num_entities(&self) -> usize {
            self.n
        }
        fn num_relations(&self) -> usize {
            1
        }
        fn query_len(&self) -> usize {
            0
        }
        fn build_query(&self, _triple: Triple, _side: QuerySide, _q: &mut [f32]) {}
        fn score_rows(&self, _q: &[f32], rows: std::ops::Range<usize>, out: &mut [f32]) {
            out.copy_from_slice(&self.tail_scores[rows]);
        }
        fn score_gathered(&self, _q: &[f32], c: &[EntityId], out: &mut [f32]) {
            for (o, &e) in out.iter_mut().zip(c) {
                *o = self.tail_scores[e.index()];
            }
        }
    }

    #[test]
    fn rank_is_position_by_score() {
        // Scores: entity 3 best, then 1, then 0, 2.
        let model = MockModel { n: 4, tail_scores: vec![0.5, 0.8, 0.1, 0.9] };
        let triples = vec![Triple::new(0, 0, 1)];
        let filter = FilterIndex::from_slices(&[&triples]);
        let r = evaluate_full(&model, &triples, &filter, TieBreak::Mean, 1);
        // Tail query answer=1: entity 3 scores higher → rank 2.
        // Head query answer=0: entities 3 and 1 higher → rank 3.
        assert_eq!(r.ranks, vec![2.0, 3.0]);
        assert_eq!(r.metrics.count, 2);
        assert!((r.metrics.mrr - (0.5 + 1.0 / 3.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn filtering_removes_known_answers() {
        let model = MockModel { n: 4, tail_scores: vec![0.5, 0.8, 0.1, 0.9] };
        // Known: (0,0,3) also true → filtering it promotes (0,0,1)'s tail
        // rank from 2 to 1.
        let test = vec![Triple::new(0, 0, 1)];
        let train = vec![Triple::new(0, 0, 3)];
        let filter = FilterIndex::from_slices(&[&train, &test]);
        let r = evaluate_full(&model, &test, &filter, TieBreak::Mean, 1);
        assert_eq!(r.ranks[0], 1.0, "filtered rank must skip known tail 3");
    }

    #[test]
    fn tie_handling() {
        let model = MockModel { n: 4, tail_scores: vec![0.8, 0.8, 0.8, 0.1] };
        let test = vec![Triple::new(3, 0, 0)];
        let filter = FilterIndex::from_slices(&[&test]);
        let mean = evaluate_full(&model, &test, &filter, TieBreak::Mean, 1);
        let opt = evaluate_full(&model, &test, &filter, TieBreak::Optimistic, 1);
        let pess = evaluate_full(&model, &test, &filter, TieBreak::Pessimistic, 1);
        // Tail query: answer 0 tied with 1, 2.
        assert_eq!(mean.ranks[0], 2.0);
        assert_eq!(opt.ranks[0], 1.0);
        assert_eq!(pess.ranks[0], 3.0);
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng_scores = Vec::new();
        for i in 0..50 {
            rng_scores.push(((i * 37 + 11) % 100) as f32 / 100.0);
        }
        let model = MockModel { n: 50, tail_scores: rng_scores };
        let triples: Vec<Triple> = (0..20).map(|i| Triple::new(i, 0, (i + 1) % 50)).collect();
        let filter = FilterIndex::from_slices(&[&triples]);
        let serial = evaluate_full(&model, &triples, &filter, TieBreak::Mean, 1);
        let parallel = evaluate_full(&model, &triples, &filter, TieBreak::Mean, 8);
        assert_eq!(serial.ranks, parallel.ranks);
    }

    #[test]
    fn real_model_full_eval_is_finite() {
        let model = build_model(ModelKind::ComplEx, 20, 2, 8, 3);
        let triples: Vec<Triple> = (0..10).map(|i| Triple::new(i, i % 2, 19 - i)).collect();
        let filter = FilterIndex::from_slices(&[&triples]);
        let r = evaluate_full(model.as_ref(), &triples, &filter, TieBreak::Mean, 2);
        assert_eq!(r.ranks.len(), 20);
        assert!(r.ranks.iter().all(|&x| (1.0..=20.0).contains(&x)));
        assert!(r.metrics.mrr > 0.0 && r.metrics.mrr <= 1.0);
    }

    #[test]
    fn ranks_identical_for_every_thread_count_and_block() {
        // Query counts on both sides of a block boundary, every piece
        // split of them across threads: the ranks must stay the row-based
        // reference's.
        let model = build_model(ModelKind::RotatE, 26, 2, 8, 17);
        let half = engine::BLOCK_QUERIES / 2;
        for len in [1, half, half + 1, 2 * half + 1] {
            let triples: Vec<Triple> =
                (0..len as u32).map(|i| Triple::new(i % 26, i % 2, 25 - i % 26)).collect();
            let filter = FilterIndex::from_slices(&[&triples]);
            let mut row = vec![0.0f32; 26];
            let baseline: Vec<f64> = queries_of(&triples)
                .into_iter()
                .map(|(t, side)| {
                    model.score_all(t, side, &mut row);
                    let known = filter.known_answers(t, side);
                    filtered_rank_from_scores(&row, side.answer(t).index(), known, TieBreak::Mean)
                })
                .collect();
            for threads in [1usize, 2, 3, 8] {
                let got = evaluate_full(model.as_ref(), &triples, &filter, TieBreak::Mean, threads);
                assert_eq!(got.ranks, baseline, "{len} triples, threads={threads} diverged");
            }
        }
    }

    #[test]
    fn single_query_fanout_matches_serial_for_every_model_family() {
        // One triple (two queries) against a big thread budget: the spare
        // threads fan each query's range out, and the ranks must stay
        // bit-for-bit those of the fully serial pass.
        for kind in ModelKind::ALL {
            let dim = match kind {
                ModelKind::ConvE => 16,
                ModelKind::Rescal | ModelKind::TuckEr => 8,
                _ => 12,
            };
            let model = build_model(kind, 29, 3, dim, 5);
            let triples = vec![Triple::new(4, 1, 22)];
            let filter = FilterIndex::from_slices(&[&triples]);
            let serial = evaluate_full(model.as_ref(), &triples, &filter, TieBreak::Mean, 1);
            for threads in [2usize, 3, 8] {
                let fanned =
                    evaluate_full(model.as_ref(), &triples, &filter, TieBreak::Mean, threads);
                assert_eq!(
                    fanned.ranks,
                    serial.ranks,
                    "{} threads={threads}: range fan-out changed the ranks",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn nan_answer_ranks_last_and_nan_competitors_never_count() {
        // Entity 1 scores NaN; the answer is entity 0 (score 0.5).
        let model = MockModel { n: 4, tail_scores: vec![0.5, f32::NAN, 0.9, 0.2] };
        let test = vec![Triple::new(3, 0, 0)];
        let filter = FilterIndex::from_slices(&[&test]);
        let r = evaluate_full(&model, &test, &filter, TieBreak::Mean, 1);
        // Tail query: only entity 2 (0.9) outranks the answer; the NaN is
        // worse, not invisible.
        assert_eq!(r.ranks[0], 2.0);
        // A NaN answer ranks behind every real competitor instead of
        // silently ranking first.
        let nan_answer = vec![Triple::new(3, 0, 1)];
        let filter = FilterIndex::from_slices(&[&nan_answer]);
        let r = evaluate_full(&model, &nan_answer, &filter, TieBreak::Mean, 1);
        assert_eq!(r.ranks[0], 4.0, "three real scores beat the NaN answer");
        // The row-based reference kernel agrees.
        let rank = filtered_rank_from_scores(&[0.5, f32::NAN, 0.9, 0.2], 1, &[], TieBreak::Mean);
        assert_eq!(rank, 4.0);
    }

    #[test]
    fn perfect_model_gets_mrr_one() {
        // Score the true tail/head highest via a filter-free single triple.
        let model = MockModel { n: 3, tail_scores: vec![0.0, 1.0, 0.5] };
        let test = vec![Triple::new(2, 0, 1)];
        let filter = FilterIndex::from_slices(&[&test]);
        let r = evaluate_full(&model, &test, &filter, TieBreak::Mean, 1);
        assert_eq!(r.ranks[0], 1.0); // tail query: answer 1 has top score
    }
}
