//! Seeded input generation shared by the workloads: a tiny PRNG, the
//! `inputs_hash`, never-repeating query keys, request bodies and the
//! write schedule. Everything here is a pure function of `--seed`; the
//! program under test receives only what these functions produce.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use kgeval::core::Triple;

/// SplitMix64: the harness's own generator, so request streams do not
/// change when the repo's `rand` stand-in does.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`; the modulo bias is irrelevant at
    /// these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Order-sensitive 64-bit digest of everything a workload feeds the
/// program. Identical seeds must print identical hashes.
#[derive(Clone, Debug)]
pub struct InputsHash(u64);

impl Default for InputsHash {
    fn default() -> Self {
        InputsHash(0xcbf2_9ce4_8422_2325)
    }
}

impl InputsHash {
    /// Mix one word in (FNV-1a step over 64-bit words).
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Mix a byte string in, length first so concatenations differ.
    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail));
    }

    /// Mix a triple list in.
    pub fn triples(&mut self, triples: &[Triple]) {
        self.word(triples.len() as u64);
        for t in triples {
            self.word((u64::from(t.head.0) << 32) | u64::from(t.tail.0));
            self.word(u64::from(t.relation.0));
        }
    }

    /// Mix a whole file in (snapshots, datasets written to disk).
    pub fn file(&mut self, path: &Path) -> std::io::Result<()> {
        self.bytes(&std::fs::read(path)?);
        Ok(())
    }

    /// The digest, as printed.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A stream of `(entity, relation)` query keys that never repeats within
/// `num_entities * num_relations` draws: index `i` maps to entity
/// `(a·i + b) mod |E|` with `a` coprime to `|E|`, and the relation advances
/// once per full entity cycle — so a result cache can never hit.
#[derive(Clone, Debug)]
pub struct KeyStream {
    num_entities: u64,
    num_relations: u64,
    a: u64,
    b: u64,
    r0: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl KeyStream {
    /// Stream over `num_entities × num_relations` keys, permuted by `rng`.
    pub fn new(num_entities: usize, num_relations: usize, rng: &mut SplitMix64) -> Self {
        let n = num_entities as u64;
        let mut a = rng.below(n).max(1) | 1;
        while gcd(a, n) != 1 {
            a += 2;
        }
        KeyStream {
            num_entities: n,
            num_relations: num_relations as u64,
            a: a % n.max(2),
            b: rng.below(n),
            r0: rng.below(num_relations as u64),
        }
    }

    /// Key number `i`.
    pub fn key(&self, i: u64) -> (u32, u32) {
        let e = (self.a.wrapping_mul(i % self.num_entities) + self.b) % self.num_entities;
        let r = (self.r0 + i / self.num_entities) % self.num_relations;
        (e as u32, r as u32)
    }
}

/// A cursor over a [`KeyStream`] that several probe closures can share:
/// every call hands out the next, never-used key.
pub struct FreshKeys<'a> {
    keys: &'a KeyStream,
    next: std::cell::Cell<u64>,
}

impl<'a> FreshKeys<'a> {
    /// Cursor starting after key `from`.
    pub fn after(keys: &'a KeyStream, from: u64) -> Self {
        FreshKeys { keys, next: std::cell::Cell::new(from) }
    }

    /// The next `(entity, relation)` key.
    pub fn next_key(&self) -> (u32, u32) {
        self.next.set(self.next.get() + 1);
        self.keys.key(self.next.get())
    }

    /// The next key as a `/topk` body for model `model`, and as the query
    /// triple the engine would be asked.
    pub fn next_query(&self, model: &str) -> (String, Triple) {
        let (h, r) = self.next_key();
        (topk_body(model, h, r), Triple::new(h, r, 0))
    }
}

/// `POST /topk` body: one tail-prediction query, `k = 10`, filtered.
pub fn topk_body(model: &str, head: u32, relation: u32) -> String {
    format!(r#"{{"model":"{model}","queries":[{{"head":{head},"relation":{relation}}}],"k":10}}"#)
}

fn push_triples(out: &mut String, triples: &[Triple]) {
    out.push('[');
    for (i, t) in triples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{},{},{}]", t.head.0, t.relation.0, t.tail.0));
    }
    out.push(']');
}

/// `POST /score` body.
pub fn score_body(model: &str, triples: &[Triple]) -> String {
    let mut out = format!(r#"{{"model":"{model}","triples":"#);
    push_triples(&mut out, triples);
    out.push('}');
    out
}

/// `POST /eval` body: `static` strategy, fixed `n_s` and seed so the same
/// slice hits the server's result cache until a write invalidates it.
pub fn eval_body(model: &str, triples: &[Triple], n_s: usize, seed: u64) -> String {
    let mut out = format!(r#"{{"model":"{model}","triples":"#);
    push_triples(&mut out, triples);
    out.push_str(&format!(r#","strategy":"static","n_s":{n_s},"seed":{seed}}}"#));
    out
}

/// `POST /triples` body inserting `triples`.
pub fn triples_body(model: &str, triples: &[Triple]) -> String {
    let mut out = format!(r#"{{"model":"{model}","insert":"#);
    push_triples(&mut out, triples);
    out.push('}');
    out
}

/// Generates write batches whose every insert is new to the graph (so
/// each write is effective and bumps the version by exactly one) and of
/// which a fixed count per batch lands on hot-set keys.
pub struct WriteBatches {
    rng: SplitMix64,
    in_base: Box<dyn Fn(Triple) -> bool + Send>,
    seen: HashSet<Triple>,
    written: Vec<Triple>,
    num_entities: u64,
    num_relations: u64,
    hot: Vec<(u32, u32)>,
    hot_cursor: usize,
    batch: usize,
    hot_per_batch: usize,
}

impl WriteBatches {
    /// Batches of `batch` inserts over a graph whose base triples
    /// `in_base` recognises; `hot_per_batch` of each batch's inserts take
    /// their `(head, relation)` from `hot`, round-robin.
    pub fn new(
        rng: SplitMix64,
        in_base: impl Fn(Triple) -> bool + Send + 'static,
        num_entities: usize,
        num_relations: usize,
        hot: Vec<(u32, u32)>,
        batch: usize,
        hot_per_batch: usize,
    ) -> Self {
        assert!(hot_per_batch <= batch && (hot_per_batch == 0 || !hot.is_empty()));
        WriteBatches {
            rng,
            in_base: Box::new(in_base),
            seen: HashSet::new(),
            written: Vec::new(),
            num_entities: num_entities as u64,
            num_relations: num_relations as u64,
            hot,
            hot_cursor: 0,
            batch,
            hot_per_batch,
        }
    }

    /// The next batch. Deterministic: batch `n` is the same for a seed no
    /// matter when it is drawn.
    pub fn next_batch(&mut self) -> Vec<Triple> {
        let mut out = Vec::with_capacity(self.batch);
        while out.len() < self.batch {
            let (h, r) = if out.len() < self.hot_per_batch {
                let key = self.hot[self.hot_cursor % self.hot.len()];
                self.hot_cursor += 1;
                key
            } else {
                (
                    self.rng.below(self.num_entities) as u32,
                    self.rng.below(self.num_relations) as u32,
                )
            };
            // Redraw the tail until the triple is new; hot keys keep
            // their (head, relation) so the write really touches them.
            loop {
                let t = Triple::new(h, r, self.rng.below(self.num_entities) as u32);
                if !(self.in_base)(t) && self.seen.insert(t) {
                    out.push(t);
                    break;
                }
            }
        }
        self.written.extend_from_slice(&out);
        out
    }

    /// Every triple drawn so far, in order: base plus these is the final
    /// graph.
    pub fn written(&self) -> &[Triple] {
        &self.written
    }
}

/// Scratch directory of one process, under the benchmark's own directory
/// so nothing is written outside the checkout. Removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `perf/.work/<tag>-<pid>/`.
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let dir = work_root().join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// Path of `name` inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is named in .gitignore.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `perf/.work`: where inputs and span files go.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(8);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    fn hash_of(seed: u64) -> String {
        let mut rng = SplitMix64::new(seed);
        let keys = KeyStream::new(50_000, 16, &mut rng);
        let mut h = InputsHash::default();
        for i in 0..256 {
            let (e, r) = keys.key(i);
            h.bytes(topk_body("m", e, r).as_bytes());
        }
        let mut w = WriteBatches::new(rng, |_| false, 50_000, 16, vec![(1, 2), (3, 4)], 64, 2);
        for _ in 0..4 {
            h.triples(&w.next_batch());
        }
        h.hex()
    }

    #[test]
    fn same_seed_same_inputs_hash() {
        assert_eq!(hash_of(11), hash_of(11));
        assert_ne!(hash_of(11), hash_of(12));
        assert_eq!(hash_of(11).len(), 16);
    }

    #[test]
    fn hash_is_order_and_length_sensitive() {
        let mut a = InputsHash::default();
        a.bytes(b"ab");
        a.bytes(b"c");
        let mut b = InputsHash::default();
        b.bytes(b"a");
        b.bytes(b"bc");
        assert_ne!(a.hex(), b.hex());
    }

    #[test]
    fn key_stream_never_repeats_within_a_cycle() {
        for n in [10usize, 97, 1000, 50_000] {
            let mut rng = SplitMix64::new(n as u64);
            let keys = KeyStream::new(n, 3, &mut rng);
            let seen: HashSet<(u32, u32)> = (0..(3 * n) as u64).map(|i| keys.key(i)).collect();
            assert_eq!(seen.len(), 3 * n, "|E| = {n}");
            assert!(seen.iter().all(|&(e, r)| (e as usize) < n && r < 3));
        }
    }

    #[test]
    fn write_batches_are_fresh_and_touch_hot_keys() {
        let base = [Triple::new(1, 2, 3)];
        let hot = vec![(1, 2), (5, 0)];
        let mut w = WriteBatches::new(
            SplitMix64::new(3),
            move |t| base.contains(&t),
            100,
            4,
            hot.clone(),
            8,
            2,
        );
        let mut all: HashSet<Triple> = base.into_iter().collect();
        for _ in 0..20 {
            let batch = w.next_batch();
            assert_eq!(batch.len(), 8);
            let on_hot = batch.iter().filter(|t| hot.contains(&(t.head.0, t.relation.0))).count();
            assert!(on_hot >= 2);
            for t in batch {
                assert!(all.insert(t), "{t:?} was already known");
            }
        }
        assert_eq!(w.written().len() + 1, all.len());
    }

    #[test]
    fn bodies_are_what_the_router_parses() {
        use kgeval::serve::Json;
        let t = [Triple::new(1, 2, 3), Triple::new(4, 5, 6)];
        for body in [
            topk_body("m", 7, 1),
            score_body("m", &t),
            eval_body("m", &t, 200, 9),
            triples_body("m", &t),
        ] {
            let parsed = Json::parse(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
            assert_eq!(parsed.get("model").and_then(Json::as_str), Some("m"));
        }
        assert_eq!(score_body("m", &t), r#"{"model":"m","triples":[[1,2,3],[4,5,6]]}"#);
    }
}
