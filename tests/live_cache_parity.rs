//! Filtered answers served **through the caches** equal a cold rebuild,
//! over interleaved histories of writes and reads, for all 7 model
//! families (ROADMAP direction 3(ii)).
//!
//! One live router per history takes a sequence of `/triples`, filtered
//! and unfiltered `/topk`, and `/eval` requests; after every read, a
//! router cold-loaded with a [`FilterIndex`] built from a naive set of the
//! triples at that step must answer the same request with the same bytes.
//! A history is a fixed script — delete-then-reinsert of a base triple,
//! insert-then-delete of a new one, a delete of another base triple, a
//! no-op delta, and the same reads repeated after touching and
//! non-touching deltas — with random steps (seeded, so a failure names the
//! case that reproduces it) drawn from a small universe between its steps,
//! so the `/topk` and `/eval` caches are hit, missed and overwritten in
//! orders nobody wrote down.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use kgeval::core::sample::seeded_rng;
use kgeval::core::triple::QuerySide;
use kgeval::core::{FilterIndex, Triple};
use kgeval::models::{build_model, KgcModel, ModelKind};
use kgeval::serve::{Json, ModelRegistry, Router};
use rand::Rng;

const NUM_ENTITIES: usize = 40;
const NUM_RELATIONS: usize = 3;
/// Histories per family.
const CASES: u64 = 12;
/// Writes and reads draw entities below this and relations below
/// [`SMALL_R`], so random steps keep landing on each other's keys.
const SMALL_E: u32 = 6;
const SMALL_R: u32 = 2;

#[derive(Clone, Debug)]
enum Step {
    Delta { insert: Vec<Triple>, delete: Vec<Triple> },
    TopK { queries: Vec<(Triple, QuerySide)>, filtered: bool },
    Eval { triples: Vec<Triple>, seed: u64 },
}

fn base_triples() -> Vec<Triple> {
    (0..30u32).map(|i| Triple::new(i % 10, i % NUM_RELATIONS as u32, (i * 7 + 3) % 40)).collect()
}

fn small_triple(rng: &mut impl Rng) -> Triple {
    Triple::new(rng.gen_range(0..SMALL_E), rng.gen_range(0..SMALL_R), rng.gen_range(0..SMALL_E))
}

/// Zero to `max` triples of the small universe.
fn small_triples(rng: &mut impl Rng, max: u32) -> Vec<Triple> {
    (0..rng.gen_range(0..=max)).map(|_| small_triple(rng)).collect()
}

fn random_step(rng: &mut impl Rng) -> Step {
    match rng.gen_range(0..5u32) {
        0 | 1 => Step::Delta { insert: small_triples(rng, 3), delete: small_triples(rng, 2) },
        2 | 3 => Step::TopK {
            queries: (0..rng.gen_range(1..=3u32))
                .map(|_| {
                    let side = if rng.gen_bool(0.5) { QuerySide::Tail } else { QuerySide::Head };
                    (small_triple(rng), side)
                })
                .collect(),
            filtered: rng.gen_bool(0.7),
        },
        // Two seeds only, so an `/eval` often repeats an earlier one.
        _ => Step::Eval { triples: eval_triples(), seed: rng.gen_range(0..2u64) },
    }
}

/// The triples every `/eval` ranks: inside the small universe, so deltas
/// touch some of their keys, plus one no delta can reach.
fn eval_triples() -> Vec<Triple> {
    vec![Triple::new(0, 0, 3), Triple::new(1, 1, 10), Triple::new(2, 0, 1), Triple::new(30, 2, 31)]
}

/// The scripted steps every history contains, in order.
fn script() -> Vec<Step> {
    let base = Triple::new(0, 0, 3); // base_triples()[0]
    let other_base = Triple::new(1, 1, 10); // base_triples()[1]
    let new = Triple::new(5, 1, 5);
    let delta = |insert: Vec<Triple>, delete: Vec<Triple>| Step::Delta { insert, delete };
    let reads = || {
        vec![
            Step::TopK {
                queries: vec![(base, QuerySide::Tail), (base, QuerySide::Head)],
                filtered: true,
            },
            Step::TopK { queries: vec![(base, QuerySide::Tail)], filtered: false },
            Step::Eval { triples: eval_triples(), seed: 0 },
        ]
    };
    let mut steps = reads();
    steps.push(delta(vec![], vec![base])); // delete a base triple …
    steps.extend(reads());
    steps.push(delta(vec![base], vec![])); // … and reinsert it
    steps.extend(reads());
    steps.push(delta(vec![new], vec![])); // touches none of the reads' keys
    steps.extend(reads());
    steps.push(delta(vec![], vec![new])); // insert-then-delete of a new one
    steps.push(delta(vec![base], vec![Triple::new(39, 2, 39)])); // a no-op
    steps.extend(reads());
    steps.push(delta(vec![], vec![other_base]));
    steps.extend(reads());
    steps
}

fn history(case: u64) -> Vec<Step> {
    let mut rng = seeded_rng(0xC0FFEE ^ case);
    let mut steps = Vec::new();
    for scripted in script() {
        for _ in 0..rng.gen_range(0..=2u32) {
            steps.push(random_step(&mut rng));
        }
        steps.push(scripted);
    }
    steps
}

fn triples_json(triples: &[Triple]) -> String {
    let one = |t: &Triple| format!("[{},{},{}]", t.head.0, t.relation.0, t.tail.0);
    triples.iter().map(one).collect::<Vec<_>>().join(",")
}

fn request(step: &Step) -> (&'static str, String) {
    match step {
        Step::Delta { insert, delete } => (
            "/triples",
            format!(
                r#"{{"model":"m","insert":[{}],"delete":[{}]}}"#,
                triples_json(insert),
                triples_json(delete)
            ),
        ),
        Step::TopK { queries, filtered } => {
            let one = |(t, side): &(Triple, QuerySide)| match side {
                QuerySide::Tail => {
                    format!(r#"{{"head":{},"relation":{}}}"#, t.head.0, t.relation.0)
                }
                QuerySide::Head => {
                    format!(r#"{{"tail":{},"relation":{}}}"#, t.tail.0, t.relation.0)
                }
            };
            let queries = queries.iter().map(one).collect::<Vec<_>>().join(",");
            (
                "/topk",
                format!(r#"{{"model":"m","queries":[{queries}],"k":7,"filtered":{filtered}}}"#),
            )
        }
        Step::Eval { triples, seed } => (
            "/eval",
            format!(
                r#"{{"model":"m","triples":[{}],"n_s":15,"seed":{seed},"include_ranks":true}}"#,
                triples_json(triples)
            ),
        ),
    }
}

/// A response with the fields dropped that say *how* it was produced
/// (cache outcomes, wall clock) or that a cold server cannot know (the
/// graph version): what is left must match byte for byte.
fn canon(body: &str) -> String {
    let volatile = ["seconds", "graph_version", "eval_cache", "sample_cache"];
    match Json::parse(body) {
        Ok(Json::Obj(fields)) => {
            Json::Obj(fields.into_iter().filter(|(k, _)| !volatile.contains(&k.as_str())).collect())
                .to_string()
        }
        _ => panic!("not a JSON object: {body}"),
    }
}

fn router_over(model: &Arc<dyn KgcModel>, triples: &[Triple]) -> (Router, Arc<ModelRegistry>) {
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", Arc::clone(model), Arc::new(FilterIndex::from_slices(&[triples])));
    (Router::new(Arc::clone(&registry)), registry)
}

fn post(router: &Router, path: &str, body: &str) -> String {
    let response = router.handle("POST", path, body);
    assert_eq!(response.status, 200, "{path} {body}: {}", response.body);
    response.body
}

/// The naive model of the live graph: the triple set, the number of
/// effective deltas so far, and for each query key the index of the last
/// delta that effectively wrote a triple under it.
#[derive(Default)]
struct Naive {
    triples: HashSet<Triple>,
    version: u64,
    changed_at: HashMap<(Triple, QuerySide), u64>,
}

impl Naive {
    /// The key `t`'s query on `side` reads, as the triple with the answer
    /// slot zeroed.
    fn key(t: Triple, side: QuerySide) -> (Triple, QuerySide) {
        let key = match side {
            QuerySide::Tail => Triple::new(t.head.0, t.relation.0, 0),
            QuerySide::Head => Triple::new(0, t.relation.0, t.tail.0),
        };
        (key, side)
    }

    /// Inserts first, then deletes; returns the effective counts.
    fn apply(&mut self, insert: &[Triple], delete: &[Triple]) -> (usize, usize) {
        let mut written = Vec::new();
        for &t in insert {
            if self.triples.insert(t) {
                written.push(t);
            }
        }
        let inserted = written.len();
        for &t in delete {
            if self.triples.remove(&t) {
                written.push(t);
            }
        }
        let deleted = written.len() - inserted;
        if !written.is_empty() {
            self.version += 1;
            for t in written {
                for side in QuerySide::BOTH {
                    self.changed_at.insert(Self::key(t, side), self.version);
                }
            }
        }
        (inserted, deleted)
    }
}

fn run_history(kind: ModelKind, model: &Arc<dyn KgcModel>, case: u64) {
    let base = base_triples();
    let (live, registry) = router_over(model, &base);
    let entry = registry.get("m").unwrap();
    let mut naive = Naive { triples: base.iter().copied().collect(), ..Naive::default() };
    for (i, step) in history(case).iter().enumerate() {
        let at = format!("{kind:?} case {case} step {i} {step:?}");
        let (path, body) = request(step);
        let served = post(&live, path, &body);
        if let Step::Delta { insert, delete } = step {
            let (inserted, deleted) = naive.apply(insert, delete);
            let outcome = Json::parse(&served).unwrap();
            let field = |name| outcome.get(name).and_then(Json::as_usize);
            assert_eq!(field("version"), Some(naive.version as usize), "{at}");
            assert_eq!(field("inserted"), Some(inserted), "{at}");
            assert_eq!(field("deleted"), Some(deleted), "{at}");
            assert_eq!(field("known_triples"), Some(naive.triples.len()), "{at}");
            let snapshot = entry.live().snapshot();
            for (h, r) in (0..SMALL_E).flat_map(|h| (0..NUM_RELATIONS as u32).map(move |r| (h, r)))
            {
                for (t, side) in [
                    (Triple::new(h, r, 0), QuerySide::Tail),
                    (Triple::new(0, r, h), QuerySide::Head),
                ] {
                    let want = naive.changed_at.get(&(t, side)).copied().unwrap_or(0);
                    assert_eq!(snapshot.answers_changed_at(t, side), want, "{at}: {t:?} {side:?}");
                }
            }
            continue;
        }
        let now: Vec<Triple> = naive.triples.iter().copied().collect();
        let (cold, _) = router_over(model, &now);
        assert_eq!(canon(&served), canon(&post(&cold, path, &body)), "{at}");
        if path == "/eval" {
            let version =
                Json::parse(&served).unwrap().get("graph_version").and_then(Json::as_usize);
            assert_eq!(version, Some(naive.version as usize), "{at}");
        }
    }
}

#[test]
fn cached_reads_equal_a_cold_rebuild_over_interleaved_histories_for_all_families() {
    for kind in ModelKind::ALL {
        let dim = match kind {
            ModelKind::ConvE => 16,
            _ => 8,
        };
        let model: Arc<dyn KgcModel> =
            Arc::from(build_model(kind, NUM_ENTITIES, NUM_RELATIONS, dim, 77) as Box<dyn KgcModel>);
        for case in 0..CASES {
            run_history(kind, &model, case);
        }
    }
}
