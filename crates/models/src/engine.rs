//! The scoring engine — the single full-ranking entry point.
//!
//! A model is a prepared query and a table ([`KgcModel`]), so ranking is
//! one loop: **build each query once per `(triple, side)`**, then walk the
//! requested entity range in cache-resident **tiles** of rows; every
//! query of a *block* scores a tile ([`KgcModel::score_rows_block`]) while
//! it is hot, and folds its slice into a mergeable partial from
//! [`kg_core::partial`] before the next tile is read. A block of Q queries
//! streams the table once, not Q times. That walker is the only loop:
//!
//! * [`partial_rank_counts_block`] computes the [`PartialRankCounts`] of a
//!   block of queries over an **explicit entity range** — full filtered
//!   ranking ranks its test queries this way;
//! * [`partial_rank_counts`] / [`ScoringEngine::partial_top_k`] are the
//!   one-query forms (a block of one) — the primitive a shard server
//!   evaluates for its configured range and ships over the wire. With
//!   `threads > 1` the range is split into contiguous pieces, every worker
//!   walks its piece against the *same* prepared queries, and the
//!   per-piece partials are merged — the in-process latency path;
//! * [`ScoringEngine::rank_counts`], [`ScoringEngine::top_k`] and
//!   [`ScoringEngine::top_k_fanout`] pass the full `0..|E|` range, so
//!   in-process fan-out and remote shard endpoints share **exactly one
//!   ranking code path** and one merge implementation, for every model
//!   family;
//! * [`count_gathered`] is the same counter over gathered candidates, so
//!   sampled evaluation counts under the one order too.
//!
//! No path scores or allocates an `|E|`-sized row: scratch is one tile per
//! query of the block, whatever the model.
//!
//! **Parity invariant:** a row's score depends on the prepared query and
//! the row alone (the [`KgcModel`] row contract — whatever the block or
//! tile), all comparisons use the total order of
//! [`kg_core::topk::cmp_score`], counter addition is associative, and the
//! top-k merge re-selects under a total order — so results are bit-for-bit
//! identical for every range partition, tiling, block, shard count, and
//! thread count, including the degenerate single-range serial pass. The
//! reference score `s_true` is likewise partition-independent: it is the
//! answer's own row through the same range primitive (a one-entity range)
//! on every node, so a shard that does not own the answer still counts
//! against the identical bits.
//!
//! **NaN ordering** (explicit, see [`cmp_score`]): a NaN score is *worse
//! than every real score*. A NaN competitor therefore never counts as
//! `higher` nor as a tie against a real answer, and a NaN answer ranks
//! behind every real competitor instead of silently ranking first.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use kg_core::parallel::{parallel_map_indexed, BufferPool, ShardPlan};
use kg_core::partial::{Partial, PartialRankCounts, PartialTopK};
use kg_core::topk::{cmp_score, TopKHeap};
use kg_core::triple::QuerySide;
use kg_core::{EntityId, Triple};

use crate::model::{prepared_query, KgcModel};

/// Floats of rows one tile spans, counting `dim` per row: 8 KiB of rows
/// (16 KiB for families that store two halves), so a tile stays in L1
/// while every query of a block scores it. The sampled pass tiles its
/// gathered candidates by the same budget.
pub const TILE_FLOATS: usize = 2048;

/// Queries a full-ranking block holds: the table streams once per block,
/// and the block's query vectors and tile scores stay in L1/L2 beside the
/// tile.
pub const BLOCK_QUERIES: usize = 32;

/// Rows in one tile of a `dim`-wide model (see [`TILE_FLOATS`]).
pub fn tile_rows(dim: usize) -> usize {
    (TILE_FLOATS / dim.max(1)).clamp(16, 512)
}

/// Count strictly-higher and tied competitors in one scored range.
///
/// `scores` is the slice for entities `base..base + scores.len()`; `known`
/// (ascending) are filtered out, and the answer never competes with itself.
fn count_scored_range(
    scores: &[f32],
    base: usize,
    answer: usize,
    s_true: f32,
    known: &[EntityId],
) -> PartialRankCounts {
    let mut acc = PartialRankCounts::ZERO;
    if s_true.is_nan() {
        for (off, &s) in scores.iter().enumerate() {
            match cmp_score(s, s_true) {
                Ordering::Greater => acc.higher += 1,
                Ordering::Equal if base + off != answer => acc.ties += 1,
                _ => {}
            }
        }
    } else {
        // Against a real `s_true`, `cmp_score`'s Greater and Equal are
        // exactly `>` and `==` (a NaN competitor is false both ways, and
        // `-0 == +0`), which count without a branch and vectorise. Entity
        // ids are u32, so a range's counts fit one.
        let (higher, ties) = scores.iter().fold((0u32, 0u32), |(h, t), &s| {
            (h + u32::from(s > s_true), t + u32::from(s == s_true))
        });
        acc = PartialRankCounts::new(higher.into(), ties.into());
        // The answer's own row comes off only if it did tie here.
        if answer.checked_sub(base).and_then(|off| scores.get(off)) == Some(&s_true) {
            acc.ties -= 1;
        }
    }
    // Remove known-true competitors (the *filtered* protocol). `known` is
    // sorted, so only its sub-range inside this range is visited.
    let end = base + scores.len();
    let first = known.partition_point(|k| k.index() < base);
    for k in &known[first..] {
        let ki = k.index();
        if ki >= end {
            break;
        }
        if ki == answer {
            continue;
        }
        match cmp_score(scores[ki - base], s_true) {
            Ordering::Greater => acc.higher -= 1,
            Ordering::Equal => acc.ties -= 1,
            Ordering::Less => {}
        }
    }
    acc
}

/// Push one scored range into a bounded heap, excluding `known`
/// (ascending) entities.
fn heap_scored_range(heap: &mut TopKHeap, scores: &[f32], base: usize, known: &[EntityId]) {
    let mut next_known = known.partition_point(|e| e.index() < base);
    for (off, &s) in scores.iter().enumerate() {
        let e = base + off;
        if next_known < known.len() && known[next_known].index() == e {
            next_known += 1;
            continue;
        }
        heap.push(e as u32, s);
    }
}

/// The tile walker: score `range` tile by tile against every prepared
/// query of a block (`qs`, `query_len` floats each, back to back) and hand
/// `fold` each query's index, accumulator, scored slice of the tile and
/// the tile's first entity id, before the next tile is scored.
///
/// A block's tile is [`tile_rows`] wide, or narrower when `scratch` cannot
/// hold one per query; `scratch` must hold at least one float per query.
fn walk_tiles<A>(
    model: &dyn KgcModel,
    qs: &[f32],
    accs: &mut [A],
    scratch: &mut [f32],
    range: Range<usize>,
    fold: impl Fn(usize, &mut A, &[f32], usize),
) {
    if accs.is_empty() {
        return;
    }
    let nq = accs.len();
    assert!(scratch.len() >= nq, "scratch of {} floats for {nq} queries", scratch.len());
    // A block of one reuses no row, so it takes the whole scratch per call:
    // fewer calls, and the single-query paths keep their chunking.
    let tile =
        if nq == 1 { scratch.len() } else { (scratch.len() / nq).min(tile_rows(model.dim())) };
    for start in range.clone().step_by(tile) {
        let end = (start + tile).min(range.end);
        let scores = &mut scratch[..nq * (end - start)];
        model.score_rows_block(qs, start..end, scores);
        for (i, (acc, scores)) in accs.iter_mut().zip(scores.chunks_exact(end - start)).enumerate()
        {
            fold(i, acc, scores, start);
        }
    }
}

/// One partial per query of a block over `range`: `piece(scratch,
/// sub_range)` run serially on the whole range, or — the in-process
/// latency path — on `threads` contiguous pieces in parallel with each
/// query's per-piece partials merged in piece order. Bit-for-bit the
/// serial partials for every `threads` (merging is associative). Scratch
/// comes from `pool`, so a caller ranking many blocks reuses one pool
/// across all of them.
fn fan_out<P: Partial + Send + Clone>(
    pool: &BufferPool,
    range: Range<usize>,
    threads: usize,
    piece: impl Fn(&mut [f32], Range<usize>) -> Vec<P> + Sync,
) -> Vec<P> {
    if threads <= 1 || range.len() <= 1 {
        return piece(&mut pool.acquire(), range);
    }
    let pieces = ShardPlan::new(range.len(), threads);
    let mut parts = parallel_map_indexed(pieces.num_shards(), threads, |s| {
        let r = pieces.range(s);
        piece(&mut pool.acquire(), range.start + r.start..range.start + r.end)
    })
    .into_iter();
    let mut acc = parts.next().unwrap_or_default();
    for part in parts {
        for (acc, p) in acc.iter_mut().zip(part) {
            acc.merge(p);
        }
    }
    acc
}

/// The filtered-rank counters of a block of queries — `(triple, side,
/// known answers ascending)` each — restricted to `range`, fanned across
/// `threads` workers, in query order. Every query is built once; each tile
/// of the range is scored for the whole block while it is cache-resident.
/// A query's counters are bit-for-bit those of [`partial_rank_counts`] on
/// it alone, whatever the block around it.
///
/// `pool` supplies the tile scratch: buffers must hold at least one float
/// per query; [`BLOCK_QUERIES`] × [`tile_rows`] floats keep whole tiles.
pub fn partial_rank_counts_block(
    model: &dyn KgcModel,
    pool: &BufferPool,
    queries: &[(Triple, QuerySide, &[EntityId])],
    range: Range<usize>,
    threads: usize,
) -> Vec<PartialRankCounts> {
    debug_assert!(range.end <= model.num_entities());
    if range.is_empty() {
        return vec![PartialRankCounts::ZERO; queries.len()];
    }
    // Built once: the reference scores, every tile and every fan-out
    // worker below share them read-only.
    let len = model.query_len();
    let mut qs = vec![0.0f32; queries.len() * len];
    let answers: Vec<(usize, f32)> = queries
        .iter()
        .enumerate()
        .map(|(i, &(triple, side, _))| {
            let q = &mut qs[i * len..(i + 1) * len];
            model.build_query(triple, side, q);
            let answer = side.answer(triple).index();
            let mut s_true = [0.0f32];
            model.score_rows(q, answer..answer + 1, &mut s_true);
            (answer, s_true[0])
        })
        .collect();
    fan_out(pool, range, threads, |scratch, piece| {
        let mut accs = vec![PartialRankCounts::ZERO; queries.len()];
        walk_tiles(model, &qs, &mut accs, scratch, piece, |i, acc, scores, base| {
            let (answer, s_true) = answers[i];
            acc.merge(count_scored_range(scores, base, answer, s_true, queries[i].2));
        });
        accs
    })
}

/// One query's filtered-rank counters restricted to `range`, fanned across
/// `threads` workers: the serializable partial a shard server evaluates
/// for its configured range (see [`kg_core::partial::PartialRankCounts`]).
/// Merging the partials of any partition of `0..num_entities()` reproduces
/// the unpartitioned counters bit for bit. A block of one through
/// [`partial_rank_counts_block`].
///
/// `pool` supplies the tile scratch: any non-zero buffer length is
/// correct.
pub fn partial_rank_counts(
    model: &dyn KgcModel,
    pool: &BufferPool,
    triple: Triple,
    side: QuerySide,
    known: &[EntityId],
    range: Range<usize>,
    threads: usize,
) -> PartialRankCounts {
    partial_rank_counts_block(model, pool, &[(triple, side, known)], range, threads)[0]
}

/// Count strictly-higher and tied competitors among gathered candidates —
/// the sampled counterpart of the range counter above, and the one place
/// sampled evaluation compares scores.
///
/// `scores` is parallel to `candidates`; the answer itself and `known`
/// (ascending) entities never compete. The score is compared first: a
/// candidate that scores lower cannot change the rank, filtered or not, so
/// only candidates at or above `s_true` pay for the `known` search.
pub fn count_gathered(
    scores: &[f32],
    candidates: &[EntityId],
    answer: EntityId,
    s_true: f32,
    known: &[EntityId],
) -> PartialRankCounts {
    debug_assert_eq!(scores.len(), candidates.len());
    let mut acc = PartialRankCounts::ZERO;
    for (&c, &s) in candidates.iter().zip(scores) {
        let order = cmp_score(s, s_true);
        if order == Ordering::Less || c == answer || known.binary_search(&c).is_ok() {
            continue;
        }
        match order {
            Ordering::Greater => acc.higher += 1,
            _ => acc.ties += 1,
        }
    }
    acc
}

/// An owning handle bundling a model with its shard plan and scratch pool —
/// what long-lived consumers (the serving registry) hold instead of a bare
/// `Arc<dyn KgcModel>`.
pub struct ScoringEngine {
    model: Arc<dyn KgcModel>,
    plan: ShardPlan,
    pool: BufferPool,
}

impl ScoringEngine {
    /// Engine over `model` with `num_shards` entity shards (`0` = choose
    /// automatically from [`kg_core::parallel::DEFAULT_SHARD_TARGET`]).
    /// Scratch buffers are one shard wide.
    pub fn new(model: Arc<dyn KgcModel>, num_shards: usize) -> Self {
        let n = model.num_entities();
        let plan = if num_shards == 0 { ShardPlan::auto(n) } else { ShardPlan::new(n, num_shards) };
        let pool = BufferPool::new(plan.max_shard_len());
        ScoringEngine { model, plan, pool }
    }

    /// The underlying model.
    pub fn model(&self) -> &Arc<dyn KgcModel> {
        &self.model
    }

    /// Number of entity shards.
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.plan.len()
    }

    /// Storage precision of the model's entity table (what the scoring
    /// kernels actually read — reported by serving surfaces).
    pub fn precision(&self) -> crate::kernels::Precision {
        self.model.precision()
    }

    /// Score a single triple (point lookups bypass the shard machinery).
    pub fn score_one(&self, triple: Triple) -> f32 {
        self.model.score(triple.head, triple.relation, triple.tail)
    }

    /// Scores of a candidate subset answering `triple`'s query on `side`
    /// (the sampled-evaluation primitive; passthrough to the model).
    pub fn score_candidates(
        &self,
        triple: Triple,
        side: QuerySide,
        candidates: &[EntityId],
        out: &mut [f32],
    ) {
        self.model.score_candidates(triple, side, candidates, out);
    }

    /// [`partial_rank_counts`] over this engine's model and scratch pool.
    /// Merging the partials of any partition of `0..num_entities()` with
    /// [`kg_core::partial::Partial::merge`] is bit-identical to
    /// [`ScoringEngine::rank_counts`]. `range` is clamped to the entity
    /// space.
    pub fn partial_rank_counts(
        &self,
        triple: Triple,
        side: QuerySide,
        known: &[EntityId],
        range: Range<usize>,
        threads: usize,
    ) -> PartialRankCounts {
        let range = clamp_range(range, self.plan.len());
        partial_rank_counts(self.model.as_ref(), &self.pool, triple, side, known, range, threads)
    }

    /// One query's top-k restricted to an explicit entity `range`, fanned
    /// across `threads` workers — the shard-server counterpart of
    /// [`ScoringEngine::partial_rank_counts`] (see
    /// [`kg_core::partial::PartialTopK`]). Merging the partials of any
    /// partition of `0..num_entities()` is bit-identical to
    /// [`ScoringEngine::top_k`]. `range` is clamped to the entity space.
    pub fn partial_top_k(
        &self,
        triple: Triple,
        side: QuerySide,
        known: &[EntityId],
        k: usize,
        range: Range<usize>,
        threads: usize,
    ) -> PartialTopK {
        let range = clamp_range(range, self.plan.len());
        if k == 0 || range.is_empty() {
            return PartialTopK::empty(k);
        }
        let model = self.model.as_ref();
        let q = prepared_query(model, triple, side);
        let mut top = fan_out(&self.pool, range, threads, |scratch, piece| {
            let mut heaps = [TopKHeap::new(k)];
            walk_tiles(model, &q, &mut heaps, scratch, piece, |_, heap, scores, base| {
                heap_scored_range(heap, scores, base, known);
            });
            heaps.map(|heap| PartialTopK::from_entries(k, heap.into_sorted())).into()
        });
        top.swap_remove(0)
    }

    /// Streamed filtered-rank counters for one query: `(higher, ties)`
    /// over all entities except `known`, serially, under the NaN ordering
    /// documented at the module level.
    pub fn rank_counts(
        &self,
        triple: Triple,
        side: QuerySide,
        known: &[EntityId],
    ) -> (usize, usize) {
        let p = self.partial_rank_counts(triple, side, known, 0..self.plan.len(), 1);
        (p.higher as usize, p.ties as usize)
    }

    /// Top-k entities for one query over the full entity range, serially,
    /// excluding `known` (ascending). Best first; ties break toward the
    /// lower entity id.
    pub fn top_k(
        &self,
        triple: Triple,
        side: QuerySide,
        known: &[EntityId],
        k: usize,
    ) -> Vec<(u32, f32)> {
        self.top_k_fanout(triple, side, known, k, 1)
    }

    /// Top-k with the full range fanned out across `threads` workers and
    /// the per-range partials merged; bit-for-bit identical to
    /// [`ScoringEngine::top_k`] for every model family.
    pub fn top_k_fanout(
        &self,
        triple: Triple,
        side: QuerySide,
        known: &[EntityId],
        k: usize,
        threads: usize,
    ) -> Vec<(u32, f32)> {
        let k = k.min(self.plan.len());
        self.partial_top_k(triple, side, known, k, 0..self.plan.len(), threads).into_entries()
    }
}

/// Clamp a caller-supplied range into `0..len` (empty if inverted).
fn clamp_range(range: Range<usize>, len: usize) -> Range<usize> {
    let start = range.start.min(len);
    start..range.end.clamp(start, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build_model, ModelKind};
    use proptest::prelude::*;

    /// Reference rank counters from a fully materialised row (the seed
    /// path's logic, generalised to cmp_score).
    fn reference_counts(scores: &[f32], answer: usize, known: &[EntityId]) -> (usize, usize) {
        let c = reference_range_counts(scores, 0, answer, scores[answer], known);
        (c.higher as usize, c.ties as usize)
    }

    /// The range counter as one `cmp_score` per row, the answer skipped
    /// inline: the reference the branch-free counter must equal.
    fn reference_range_counts(
        scores: &[f32],
        base: usize,
        answer: usize,
        s_true: f32,
        known: &[EntityId],
    ) -> PartialRankCounts {
        let mut acc = PartialRankCounts::ZERO;
        for (off, &s) in scores.iter().enumerate() {
            match cmp_score(s, s_true) {
                Ordering::Greater => acc.higher += 1,
                Ordering::Equal if base + off != answer => acc.ties += 1,
                _ => {}
            }
        }
        for kn in known {
            let ki = kn.index();
            if ki == answer || !(base..base + scores.len()).contains(&ki) {
                continue;
            }
            match cmp_score(scores[ki - base], s_true) {
                Ordering::Greater => acc.higher -= 1,
                Ordering::Equal => acc.ties -= 1,
                Ordering::Less => {}
            }
        }
        acc
    }

    /// Scores from a small set, so ties, NaNs and signed zeros are common.
    const SPECIAL_SCORES: [f32; 10] = [
        f32::NAN,
        f32::from_bits(0xffc0_1234),
        0.0,
        -0.0,
        1.0,
        -1.0,
        2.5,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
    ];

    fn special_score() -> impl Strategy<Value = f32> {
        (0..SPECIAL_SCORES.len()).prop_map(|i| SPECIAL_SCORES[i])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The branch-free counter equals the per-row `cmp_score` loop on
        /// any scored range: NaN and real answers, NaN competitors, ±0,
        /// ties, an answer inside or outside the range — and an `s_true`
        /// that is not the answer's own score there, which the counter must
        /// check rather than assume.
        #[test]
        fn branch_free_count_equals_the_cmp_score_loop(
            scores in proptest::collection::vec(special_score(), 0..80),
            base in 0usize..40,
            answer in 0usize..130,
            own in 0u8..2,
            other in special_score(),
            known in proptest::collection::vec(0u32..130, 0..12),
        ) {
            let s_true = match answer.checked_sub(base).and_then(|off| scores.get(off)) {
                Some(&s) if own == 1 => s,
                _ => other,
            };
            let mut known: Vec<EntityId> = known.into_iter().map(EntityId).collect();
            known.sort_unstable();
            known.dedup();
            let got = count_scored_range(&scores, base, answer, s_true, &known);
            let want = reference_range_counts(&scores, base, answer, s_true, &known);
            prop_assert_eq!(got, want);
        }
    }

    fn reference_topk(scores: &[f32], known: &[EntityId], k: usize) -> Vec<(u32, f32)> {
        let mut all: Vec<(u32, f32)> = scores
            .iter()
            .enumerate()
            .filter(|(e, _)| known.binary_search(&EntityId(*e as u32)).is_err())
            .map(|(e, &s)| (e as u32, s))
            .collect();
        all.sort_by(|&a, &b| kg_core::topk::cmp_entry(a, b));
        all.truncate(k);
        all
    }

    fn models() -> Vec<Arc<dyn KgcModel>> {
        ModelKind::ALL
            .into_iter()
            .map(|kind| {
                let dim = match kind {
                    ModelKind::ConvE => 16,
                    ModelKind::Rescal | ModelKind::TuckEr => 8,
                    _ => 12,
                };
                Arc::from(build_model(kind, 23, 3, dim, 5) as Box<dyn KgcModel>)
            })
            .collect()
    }

    /// The full-range counters with the pass fanned across `fanout` workers.
    fn fanned_counts(
        engine: &ScoringEngine,
        triple: Triple,
        side: QuerySide,
        known: &[EntityId],
        fanout: usize,
    ) -> (usize, usize) {
        let p = engine.partial_rank_counts(triple, side, known, 0..engine.num_entities(), fanout);
        (p.higher as usize, p.ties as usize)
    }

    #[test]
    fn sharded_counts_match_full_row_for_every_model_and_shard_count() {
        for model in models() {
            let n = model.num_entities();
            let triple = Triple::new(2, 1, 20);
            let known = [EntityId(4), EntityId(20), EntityId(21)];
            for side in QuerySide::BOTH {
                let mut row = vec![0.0f32; n];
                model.score_all(triple, side, &mut row);
                let want = reference_counts(&row, side.answer(triple).index(), &known);
                for shards in [1usize, 2, 7, n] {
                    let engine = ScoringEngine::new(Arc::clone(&model), shards);
                    let got = engine.rank_counts(triple, side, &known);
                    assert_eq!(got, want, "{} S={shards} {side:?}: counts diverged", model.name());
                }
            }
        }
    }

    #[test]
    fn sharded_topk_matches_reference_for_every_model_and_shard_count() {
        for model in models() {
            let n = model.num_entities();
            let triple = Triple::new(0, 2, 9);
            let known = [EntityId(1), EntityId(9)];
            for side in QuerySide::BOTH {
                let mut row = vec![0.0f32; n];
                model.score_all(triple, side, &mut row);
                for k in [0usize, 1, 5, n] {
                    let want = reference_topk(&row, &known, k);
                    for shards in [1usize, 2, 7, n] {
                        let engine = ScoringEngine::new(Arc::clone(&model), shards);
                        let got = engine.top_k(triple, side, &known, k);
                        assert_eq!(
                            got,
                            want,
                            "{} S={shards} k={k} {side:?}: top-k diverged",
                            model.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fanout_counts_and_topk_match_serial_for_every_model_family() {
        for model in models() {
            let n = model.num_entities();
            let triple = Triple::new(5, 2, 11);
            let known = [EntityId(0), EntityId(11), EntityId(19)];
            for shards in [1usize, 2, 7, n] {
                let engine = ScoringEngine::new(Arc::clone(&model), shards);
                for side in QuerySide::BOTH {
                    let counts = engine.rank_counts(triple, side, &known);
                    let top = engine.top_k(triple, side, &known, 6);
                    for fanout in [1usize, 3, 8] {
                        assert_eq!(
                            fanned_counts(&engine, triple, side, &known, fanout),
                            counts,
                            "{} S={shards} fanout={fanout} {side:?}: counts diverged",
                            model.name()
                        );
                        assert_eq!(
                            engine.top_k_fanout(triple, side, &known, 6, fanout),
                            top,
                            "{} S={shards} fanout={fanout} {side:?}: top-k diverged",
                            model.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partials_over_any_split_merge_to_the_full_result() {
        // The partial API directly: split 0..n at every cut point, merge
        // the two partials, compare against the full-range pass — for a
        // kernel-scored family and one with a heavy query build.
        for kind in [ModelKind::ComplEx, ModelKind::TuckEr] {
            let dim = if kind == ModelKind::TuckEr { 8 } else { 12 };
            let model = build_model(kind, 23, 3, dim, 5);
            let model: Arc<dyn KgcModel> = Arc::from(model as Box<dyn KgcModel>);
            let n = model.num_entities();
            let engine = ScoringEngine::new(model, 4);
            let triple = Triple::new(2, 1, 20);
            let known = [EntityId(4), EntityId(20)];
            for side in QuerySide::BOTH {
                let full_counts = engine.partial_rank_counts(triple, side, &known, 0..n, 1);
                let full_top = engine.partial_top_k(triple, side, &known, 6, 0..n, 1);
                for cut in 0..=n {
                    let mut c = engine.partial_rank_counts(triple, side, &known, 0..cut, 1);
                    c.merge(engine.partial_rank_counts(triple, side, &known, cut..n, 2));
                    assert_eq!(c, full_counts, "{kind:?} {side:?} cut={cut}: counts");
                    let mut t = engine.partial_top_k(triple, side, &known, 6, 0..cut, 2);
                    t.merge(engine.partial_top_k(triple, side, &known, 6, cut..n, 1));
                    assert_eq!(t, full_top, "{kind:?} {side:?} cut={cut}: top-k");
                }
            }
        }
    }

    #[test]
    fn partial_ranges_are_clamped_to_the_entity_space() {
        let model = build_model(ModelKind::DistMult, 20, 2, 8, 3);
        let engine = ScoringEngine::new(Arc::from(model as Box<dyn KgcModel>), 2);
        let triple = Triple::new(1, 0, 2);
        let full = engine.partial_rank_counts(triple, QuerySide::Tail, &[], 0..20, 1);
        assert_eq!(engine.partial_rank_counts(triple, QuerySide::Tail, &[], 0..999, 1), full);
        let empty = engine.partial_top_k(triple, QuerySide::Tail, &[], 5, 30..40, 1);
        assert!(empty.entries().is_empty(), "out-of-space range is empty, not a panic");
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = engine.partial_rank_counts(triple, QuerySide::Tail, &[], 9..3, 1);
        assert_eq!(inverted, PartialRankCounts::ZERO);
    }

    /// A model that counts its query builds and its range calls.
    struct Counting {
        n: usize,
        builds: std::sync::atomic::AtomicUsize,
        range_calls: std::sync::atomic::AtomicUsize,
        block_calls: std::sync::atomic::AtomicUsize,
    }

    impl Counting {
        fn new(n: usize) -> Arc<Counting> {
            Arc::new(Counting {
                n,
                builds: Default::default(),
                range_calls: Default::default(),
                block_calls: Default::default(),
            })
        }

        /// `(query builds, range calls)` since the last take.
        fn take(&self) -> (usize, usize) {
            use std::sync::atomic::Ordering::Relaxed;
            (self.builds.swap(0, Relaxed), self.range_calls.swap(0, Relaxed))
        }
    }

    impl KgcModel for Counting {
        fn name(&self) -> &'static str {
            "Counting"
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
        fn build_query(&self, _triple: Triple, _side: QuerySide, _q: &mut [f32]) {
            self.builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn score_rows(&self, _q: &[f32], rows: Range<usize>, out: &mut [f32]) {
            self.range_calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            for (o, e) in out.iter_mut().zip(rows) {
                *o = (e * 7 % self.n) as f32;
            }
        }
        fn score_rows_block(&self, qs: &[f32], rows: Range<usize>, out: &mut [f32]) {
            self.block_calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            for out in out.chunks_exact_mut(rows.len()) {
                self.score_rows(qs, rows.clone(), out);
            }
        }
        fn score_gathered(&self, _q: &[f32], candidates: &[EntityId], out: &mut [f32]) {
            for (o, &c) in out.iter_mut().zip(candidates) {
                *o = (c.index() * 7 % self.n) as f32;
            }
        }
    }

    #[test]
    fn the_query_is_built_once_per_triple_and_side_on_every_path() {
        let concrete = Counting::new(64);
        let triple = Triple::new(3, 0, 9);
        let known = [EntityId(9)];
        let side = QuerySide::Tail;

        // Chunked serial pass: 8 shards ⇒ 8-entity scratch ⇒ 8 chunk calls
        // (+ the one-entity reference score for counts), one build.
        let chunked = ScoringEngine::new(Arc::clone(&concrete) as Arc<dyn KgcModel>, 8);
        let serial_counts = chunked.rank_counts(triple, side, &known);
        assert_eq!(concrete.take(), (1, 9), "chunked counts");
        let serial_top = chunked.top_k(triple, side, &known, 5);
        assert_eq!(concrete.take(), (1, 8), "chunked top-k");

        // Fan-out over a single-shard storage plan (every small graph under
        // the auto target): the range must subdivide into one piece per
        // worker rather than silently run serial on one core — and the
        // workers share the one prepared query.
        let engine = ScoringEngine::new(Arc::clone(&concrete) as Arc<dyn KgcModel>, 1);
        assert_eq!(engine.num_shards(), 1, "storage plan is deliberately coarse");
        assert_eq!(fanned_counts(&engine, triple, side, &known, 4), serial_counts);
        assert_eq!(concrete.take(), (1, 5), "fan-out counts: 4 pieces + the reference score");
        assert_eq!(engine.top_k_fanout(triple, side, &known, 5, 4), serial_top);
        assert_eq!(concrete.take(), (1, 4), "fan-out top-k: 4 pieces");

        // A shard server's sub-range partial.
        engine.partial_top_k(triple, side, &known, 5, 16..48, 2);
        assert_eq!(concrete.take(), (1, 2), "partial top-k over a sub-range");

        // A block pass: each query is built once, not once per tile, and a
        // tile is one block call for all of them. Five queries in the
        // 64-float scratch ⇒ 12-row tiles; two fan-out pieces of 32 rows ⇒
        // 3 tiles each ⇒ 6 block calls of 5 rows each, + 5 reference scores.
        use std::sync::atomic::Ordering::Relaxed;
        let triples: Vec<Triple> = (0..5).map(|i| Triple::new(i, 0, 9 + i)).collect();
        let asks: Vec<_> = triples.iter().map(|&t| (t, side, &known[..])).collect();
        concrete.block_calls.swap(0, Relaxed);
        let block = partial_rank_counts_block(&*concrete, &engine.pool, &asks, 0..64, 2);
        assert_eq!(concrete.take(), (5, 6 * 5 + 5), "block pass");
        assert_eq!(concrete.block_calls.swap(0, Relaxed), 6, "one block call per tile");
        for (&(t, side, known), got) in asks.iter().zip(&block) {
            let want = partial_rank_counts(&*concrete, &engine.pool, t, side, known, 0..64, 1);
            assert_eq!(*got, want, "{t:?}: a block changed a query's counts");
        }
    }

    /// A block's counters are each query's own, over any block size (odd
    /// ones leave a query out of the 2-query kernel blocks), sub-range,
    /// fan-out, and scratch width (down to one row per query per tile) —
    /// against the materialised row, not another engine path.
    #[test]
    fn block_counts_match_the_full_row_across_block_tile_and_fanout_boundaries() {
        for model in models() {
            let n = model.num_entities();
            let asks: Vec<(Triple, QuerySide, Vec<EntityId>)> = (0..9u32)
                .map(|i| {
                    let triple = Triple::new(i * 5 % 23, i % 3, (i * 7 + 2) % 23);
                    let side = QuerySide::BOTH[i as usize % 2];
                    let answer = side.answer(triple);
                    let mut known = vec![answer, EntityId((i + 4) % 23), EntityId((i * 3) % 23)];
                    known.sort_unstable();
                    known.dedup();
                    (triple, side, known)
                })
                .collect();
            let mut row = vec![0.0f32; n];
            for nq in [1usize, 2, 3, 8, 9] {
                let block: Vec<_> = asks[..nq].iter().map(|(t, s, k)| (*t, *s, &k[..])).collect();
                for (range, threads, scratch) in
                    [(0..n, 1, nq), (0..n, 3, 4 * nq + 1), (5..19, 2, 64), (7..8, 4, nq)]
                {
                    let pool = BufferPool::new(scratch);
                    let got = partial_rank_counts_block(
                        model.as_ref(),
                        &pool,
                        &block,
                        range.clone(),
                        threads,
                    );
                    for (&(triple, side, known), got) in block.iter().zip(&got) {
                        model.score_all(triple, side, &mut row);
                        let answer = side.answer(triple).index();
                        let want = reference_range_counts(
                            &row[range.clone()],
                            range.start,
                            answer,
                            row[answer],
                            known,
                        );
                        assert_eq!(
                            *got,
                            want,
                            "{} nq={nq} {range:?} threads={threads} scratch={scratch}",
                            model.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn engine_handle_matches_kernels_and_fanout_is_identical() {
        let model = build_model(ModelKind::ComplEx, 40, 2, 8, 9);
        let model: Arc<dyn KgcModel> = Arc::from(model as Box<dyn KgcModel>);
        let triple = Triple::new(3, 1, 17);
        let known = [EntityId(0), EntityId(17)];
        let serial_engine = ScoringEngine::new(Arc::clone(&model), 1);
        for shards in [2usize, 5, 40] {
            let engine = ScoringEngine::new(Arc::clone(&model), shards);
            assert_eq!(engine.num_shards(), shards);
            for side in QuerySide::BOTH {
                assert_eq!(
                    engine.rank_counts(triple, side, &known),
                    serial_engine.rank_counts(triple, side, &known)
                );
                let want = serial_engine.top_k(triple, side, &known, 7);
                assert_eq!(engine.top_k(triple, side, &known, 7), want);
                assert_eq!(engine.top_k_fanout(triple, side, &known, 7, 4), want);
            }
        }
        // The pool recycles: a second query should not grow the pool.
        let engine = ScoringEngine::new(model, 4);
        engine.top_k(triple, QuerySide::Tail, &known, 3);
        engine.top_k(triple, QuerySide::Tail, &known, 3);
        assert!(engine.pool.idle() <= 1, "serial queries reuse one scratch buffer");
    }

    #[test]
    fn auto_sharding_defaults_to_one_shard_for_small_graphs() {
        let model = build_model(ModelKind::DistMult, 30, 2, 8, 3);
        let engine = ScoringEngine::new(Arc::from(model as Box<dyn KgcModel>), 0);
        assert_eq!(engine.num_shards(), 1);
    }

    /// NaN regression (the documented ordering): NaN competitors never
    /// outrank a real answer, and a NaN answer ranks behind every real
    /// competitor.
    #[test]
    fn nan_scores_rank_worst() {
        const ROW: [f32; 4] = [0.5, f32::NAN, 0.9, f32::NAN];
        struct NanModel;
        impl KgcModel for NanModel {
            fn name(&self) -> &'static str {
                "Nan"
            }
            fn dim(&self) -> usize {
                1
            }
            fn num_entities(&self) -> usize {
                4
            }
            fn num_relations(&self) -> usize {
                1
            }
            fn query_len(&self) -> usize {
                0
            }
            fn build_query(&self, _triple: Triple, _side: QuerySide, _q: &mut [f32]) {}
            fn score_rows(&self, _q: &[f32], rows: Range<usize>, out: &mut [f32]) {
                out.copy_from_slice(&ROW[rows]);
            }
            fn score_gathered(&self, _q: &[f32], candidates: &[EntityId], out: &mut [f32]) {
                for (o, &c) in out.iter_mut().zip(candidates) {
                    *o = ROW[c.index()];
                }
            }
        }
        let engine = ScoringEngine::new(Arc::new(NanModel), 2);
        // Real answer (entity 0, score 0.5): only entity 2 (0.9) is higher;
        // the two NaNs neither rank higher nor tie.
        let counts = engine.rank_counts(Triple::new(0, 0, 0), QuerySide::Tail, &[]);
        assert_eq!(counts, (1, 0));
        // NaN answer (entity 1): both real scores rank higher, the other
        // NaN ties.
        let counts = engine.rank_counts(Triple::new(0, 0, 1), QuerySide::Tail, &[]);
        assert_eq!(counts, (2, 1));
        // Top-k: NaNs sort after all real scores, lower id first.
        let top = engine.top_k(Triple::new(0, 0, 0), QuerySide::Tail, &[], 4);
        assert_eq!(top.iter().map(|t| t.0).collect::<Vec<_>>(), vec![2, 0, 1, 3]);
    }
}
