//! Property tests for the request-body JSON codec under adversarial input:
//! `Json::parse` answers every string with `Ok` or `Err` and never panics
//! (unbalanced and over-deep brackets included), and every value nested up
//! to `MAX_DEPTH` survives `Display` → `parse` bit for bit.

use kg_serve::json::MAX_DEPTH;
use kg_serve::Json;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Fragments that stress the grammar: brackets, separators, escapes,
/// surrogate halves, number pieces, literals, multi-byte characters.
const FRAGMENTS: &[&str] = &[
    "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "d83d", "dc00", "\\ud83d", "0", "-", ".", "e",
    "E+", "1e999", "12345678", "true", "fals", "null", " ", "\n", "\"k\"", "é", "😀", "\u{0}",
    "\u{1f}", "\u{7f}",
];

fn adversarial() -> impl Strategy<Value = String> {
    const RUNS: &[&str] = &["[", "{\"a\":", "[{", "]"];
    let piece = prop_oneof![
        4 => (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
        1 => (0u32..0x11_0000).prop_map(|c| char::from_u32(c).map(String::from).unwrap_or_default()),
        1 => (0..RUNS.len(), 1usize..4 * MAX_DEPTH).prop_map(|(i, n)| RUNS[i].repeat(n)),
    ];
    proptest::collection::vec(piece, 0..48).prop_map(|parts| parts.concat())
}

fn finite_f64(rng: &mut TestRng) -> f64 {
    const SPECIAL: &[f64] =
        &[0.0, -0.0, 0.1, 1.0 / 3.0, 5e-324, f64::MIN_POSITIVE, f64::MAX, f64::MIN, -1e300, 2e53];
    if rng.gen_bool(0.3) {
        return SPECIAL[rng.gen_range(0..SPECIAL.len())];
    }
    let v = f64::from_bits(rng.gen_range(0..u64::MAX));
    if v.is_finite() {
        v
    } else {
        rng.gen_range(-1e6..1e6)
    }
}

fn string(rng: &mut TestRng) -> String {
    const CHARS: &[char] = &[
        'a', 'Z', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}', 'é', '\u{2028}',
        '😀',
    ];
    (0..rng.gen_range(0..8))
        .map(|_| {
            if rng.gen_bool(0.7) {
                CHARS[rng.gen_range(0..CHARS.len())]
            } else {
                char::from_u32(rng.gen_range(0u32..0x11_0000)).unwrap_or('?')
            }
        })
        .collect()
}

fn leaf(rng: &mut TestRng) -> Json {
    match rng.gen_range(0..4) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(finite_f64(rng)),
        _ => Json::Str(string(rng)),
    }
}

/// A value with exactly `depth` arrays/objects on its deepest path, with
/// scalar siblings at every level.
fn nested(rng: &mut TestRng, depth: usize) -> Json {
    if depth == 0 {
        return leaf(rng);
    }
    let mut items: Vec<Json> = (0..rng.gen_range(0..3)).map(|_| leaf(rng)).collect();
    let inner = nested(rng, depth - 1);
    items.insert(rng.gen_range(0..=items.len()), inner);
    if rng.gen_bool(0.5) {
        Json::Arr(items)
    } else {
        Json::Obj(items.into_iter().map(|v| (string(rng), v)).collect())
    }
}

/// Structural equality with numbers compared by bits (`-0.0 != 0.0`).
fn same_bits(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs.iter().zip(ys).all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_never_panics(text in adversarial()) {
        let _ = Json::parse(&text);
    }

    #[test]
    fn display_then_parse_is_bit_exact(seed in 0u64..u64::MAX, depth in 0usize..=MAX_DEPTH) {
        let value = nested(&mut TestRng::seed_from_u64(seed), depth);
        let text = value.to_string();
        let back = Json::parse(&text);
        prop_assert!(back.is_ok(), "depth {depth}: {:?} on {text}", back.err());
        prop_assert!(same_bits(&value, &back.unwrap()), "depth {depth}: {text}");
    }
}
