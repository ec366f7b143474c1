//! The lint rules. Each rule walks the analyzed token stream of one file
//! and produces [`Finding`]s; all rules skip test-only code (`#[cfg(test)]`
//! modules, `#[test]` fns) — tests exercise the invariants, production
//! code is held to them.
//!
//! | ID    | name              | what it enforces |
//! |-------|-------------------|------------------|
//! | KL001 | atomic-ordering   | every atomic `Ordering::…` use is justified with `// ORDERING:` (Relaxed is sanctioned without one only in configured metrics-counter files; SeqCst always needs one) |
//! | KL002 | undocumented-unsafe | every `unsafe` keyword (block, fn, impl) carries an adjacent `// SAFETY:` comment or `# Safety` doc section |
//! | KL003 | ungated-intrinsic | ISA intrinsics appear only in configured arch-gated files, inside `#[target_feature]` or `unsafe` fns |
//! | KL004 | fma-intrinsic     | FMA-capable intrinsics are banned in parity-critical files (fused rounding breaks bit parity with the scalar reference) |
//! | KL005 | lossy-cast        | potentially lossy `as` numeric casts in parity-critical files need `// PARITY:` justification |
//! | KL006 | hash-iteration    | `HashMap`/`HashSet` are banned in parity-critical files (iteration order is nondeterministic) unless justified with `// PARITY:` |
//! | KL007 | float-format      | `{}` / `{:?}` format placeholders in wire-codec files need `// PARITY:` justification (decimal float text is not a bit-exact codec) |
//! | KL008 | panic-surface     | no `unwrap`/`expect`/`panic!`-family/indexing in request-path files without `// PANIC-OK:` (each panic is a dropped connection under `catch_unwind`) |
//! | KL009 | lock-order        | every lock nesting (direct or through the intra-crate call graph) follows the `[locks] order` declared in lint.toml — undeclared nestings and inversions are potential deadlocks |
//! | KL010 | blocking-under-lock | no blocking call (I/O, sleep, channel/condvar waits, thread joins) while a guard is live in `[locks] blocking_files`, unless justified with `// HELD-OK:` |
//! | KL011 | layering          | workspace crates import only what `[layering] allow` declares (checked in `use`/path tokens and `Cargo.toml [dependencies]`) — architecture erosion is a CI failure |
//! | KL012 | dead-surface      | every `pub` item in `crates/*/src` is named by some code outside its declaration (tests, examples and `perf/src` count as callers) |
//!
//! KL001–KL008 are per-file (see [`check_file`]); KL009–KL011 need the
//! cross-file workspace model (see [`check_workspace`]); KL012 needs every
//! file that could name an item (see [`dead_surface_rule`]).

use std::collections::BTreeMap;

use crate::analyze::FileData;
use crate::config::{matches, Config};
use crate::lexer::TokKind;
use crate::model::{crate_of, is_condvar_wait, Workspace};
use crate::parse::FileModel;

/// One diagnostic: where, which rule, what, and the offending source line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-root-relative path.
    pub rel: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Stable rule ID (`KL001`…`KL012`).
    pub rule_id: &'static str,
    /// Short rule name.
    pub rule_name: &'static str,
    /// Human explanation of this occurrence.
    pub message: String,
    /// The source line the finding points into.
    pub snippet: String,
}

const ATOMIC_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

const NARROW_CAST_TARGETS: &[&str] =
    &["u8", "i8", "u16", "i16", "u32", "i32", "u64", "i64", "f32", "usize", "isize"];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

const FORMAT_MACROS: &[&str] =
    &["format", "write", "writeln", "print", "println", "eprint", "eprintln"];

/// Keywords that can directly precede `[` without it being indexing.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "ref", "in", "as", "dyn", "impl", "return", "break", "continue", "move", "box", "if",
    "else", "match", "loop", "while", "for", "let", "static", "const", "where", "unsafe", "async",
    "await", "fn", "trait", "type", "use", "pub", "enum", "struct", "union", "mod", "yield",
];

/// Run every applicable rule over one analyzed file.
pub fn check_file(fd: &FileData, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    atomics_rule(fd, cfg, &mut out);
    unsafe_rule(fd, &mut out);
    intrinsics_rule(fd, cfg, &mut out);
    parity_cast_rule(fd, cfg, &mut out);
    parity_hash_rule(fd, cfg, &mut out);
    parity_fmt_rule(fd, cfg, &mut out);
    panic_rule(fd, cfg, &mut out);
    out
}

fn finding(
    fd: &FileData,
    i: usize,
    rule_id: &'static str,
    rule_name: &'static str,
    message: String,
) -> Finding {
    let t = &fd.toks[i];
    Finding {
        rel: fd.rel.clone(),
        line: t.line,
        col: t.col,
        rule_id,
        rule_name,
        message,
        snippet: fd.line_text(t.line).to_string(),
    }
}

/// KL001 — every atomic memory-ordering use must be an allowlisted pattern
/// or carry an adjacent `// ORDERING:` justification.
fn atomics_rule(fd: &FileData, cfg: &Config, out: &mut Vec<Finding>) {
    let counters = matches(&fd.rel, &cfg.atomics_relaxed_counter_files);
    for i in 0..fd.toks.len() {
        if fd.in_test[i] || fd.in_attr[i] {
            continue;
        }
        let t = &fd.toks[i];
        if t.kind != TokKind::Ident || (t.text != "Ordering" && t.text != "AtomicOrdering") {
            continue;
        }
        // Match `Ordering :: Variant` (cmp::Ordering variants are
        // Less/Equal/Greater, so the variant name disambiguates).
        let path = fd.toks.get(i + 1).zip(fd.toks.get(i + 2)).zip(fd.toks.get(i + 3));
        let Some(((c1, c2), variant)) = path else { continue };
        if c1.text != ":" || c2.text != ":" || variant.kind != TokKind::Ident {
            continue;
        }
        let v = variant.text.as_str();
        if !ATOMIC_VARIANTS.contains(&v) {
            continue;
        }
        if v == "Relaxed" && counters {
            continue; // sanctioned: monotonic metrics counters
        }
        if fd.has_tag(t.line, &["ORDERING:"]) {
            continue;
        }
        let why = match v {
            "Relaxed" => "Relaxed on a non-counter atomic synchronizes nothing",
            "SeqCst" => "SeqCst is a red flag in hot paths (and usually stronger than meant)",
            _ => "acquire/release edges must state what they synchronize with",
        };
        out.push(finding(
            fd,
            i,
            "KL001",
            "atomic-ordering",
            format!("`Ordering::{v}` without an adjacent `// ORDERING:` justification — {why}"),
        ));
    }
}

/// KL002 — every `unsafe` keyword needs an adjacent `// SAFETY:` comment
/// (or a `# Safety` doc section for `unsafe fn` contracts).
fn unsafe_rule(fd: &FileData, out: &mut Vec<Finding>) {
    for i in 0..fd.toks.len() {
        if fd.in_test[i] || fd.in_attr[i] {
            continue;
        }
        let t = &fd.toks[i];
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if fd.has_tag(t.line, &["SAFETY:", "# Safety"]) {
            continue;
        }
        out.push(finding(
            fd,
            i,
            "KL002",
            "undocumented-unsafe",
            "`unsafe` without an adjacent `// SAFETY:` comment (use `# Safety` docs for \
             `unsafe fn` contracts)"
                .to_string(),
        ));
    }
}

/// Does this identifier look like a SIMD intrinsic (x86 `_mm…` or the
/// aarch64 NEON `v…q_…` families)?
fn is_intrinsic(name: &str) -> bool {
    if name.starts_with("_mm") {
        return true;
    }
    const NEON_PREFIXES: &[&str] = &[
        "vld", "vst", "vadd", "vsub", "vmul", "vdiv", "vabs", "vdup", "vfma", "vfms", "vmax",
        "vmin", "vget", "vset", "vcvt", "vcombine", "vpadd", "vrnd", "vsqrt", "vneg", "vceq",
        "vbsl", "vand", "vorr", "veor",
    ];
    name.contains('_') && NEON_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Is this identifier an FMA-capable intrinsic? Fused multiply-add rounds
/// once where the scalar reference rounds twice — different bits, broken
/// shard/gateway parity. There is no justification escape for these.
fn is_fma(name: &str) -> bool {
    const FMA_PREFIXES: &[&str] = &["vfma", "vfms"];
    if FMA_PREFIXES.iter().any(|p| name.starts_with(p)) {
        return true;
    }
    // _mm_fmadd_ps, _mm256_fmsub_pd, _mm512_fnmadd_ps, …
    name.starts_with("_mm")
        && ["_fmadd", "_fmsub", "_fnmadd", "_fnmsub"].iter().any(|op| name.contains(op))
}

/// KL003 — ISA intrinsics only in declared arch-gated files, and there
/// only inside `#[target_feature]` or `unsafe` fns.
fn intrinsics_rule(fd: &FileData, cfg: &Config, out: &mut Vec<Finding>) {
    let isa_file = matches(&fd.rel, &cfg.unsafe_isa_files);
    for i in 0..fd.toks.len() {
        if fd.in_test[i] || fd.in_attr[i] {
            continue;
        }
        let t = &fd.toks[i];
        if t.kind != TokKind::Ident || !is_intrinsic(&t.text) {
            continue;
        }
        if !isa_file {
            out.push(finding(
                fd,
                i,
                "KL003",
                "ungated-intrinsic",
                format!(
                    "ISA intrinsic `{}` outside the declared ISA-gated files \
                     ([unsafe] isa_files in lint.toml)",
                    t.text
                ),
            ));
        } else if !fd.fn_gated[i] {
            out.push(finding(
                fd,
                i,
                "KL003",
                "ungated-intrinsic",
                format!("ISA intrinsic `{}` outside a `#[target_feature]` or `unsafe` fn", t.text),
            ));
        }
    }
}

/// KL004 — FMA intrinsics banned in parity-critical files.
fn fma_check(fd: &FileData, cfg: &Config, i: usize, out: &mut Vec<Finding>) {
    if !matches(&fd.rel, &cfg.parity_fma_files) {
        return;
    }
    let t = &fd.toks[i];
    out.push(finding(
        fd,
        i,
        "KL004",
        "fma-intrinsic",
        format!(
            "FMA intrinsic `{}` in a parity-critical file — fused rounding breaks bit \
             parity with the scalar reference (no justification escape)",
            t.text
        ),
    ));
}

/// KL005 — potentially lossy `as` numeric casts in parity-critical files.
fn parity_cast_rule(fd: &FileData, cfg: &Config, out: &mut Vec<Finding>) {
    // KL004 piggybacks on the same token walk.
    for i in 0..fd.toks.len() {
        if fd.in_test[i] || fd.in_attr[i] {
            continue;
        }
        let t = &fd.toks[i];
        if t.kind == TokKind::Ident && is_fma(&t.text) {
            fma_check(fd, cfg, i, out);
        }
    }
    if !matches(&fd.rel, &cfg.parity_cast_files) {
        return;
    }
    for i in 0..fd.toks.len() {
        if fd.in_test[i] || fd.in_attr[i] {
            continue;
        }
        let t = &fd.toks[i];
        if t.kind != TokKind::Ident || t.text != "as" {
            continue;
        }
        let Some(target) = fd.toks.get(i + 1) else { continue };
        if target.kind != TokKind::Ident || !NARROW_CAST_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        if fd.has_tag(t.line, &["PARITY:"]) {
            continue;
        }
        out.push(finding(
            fd,
            i,
            "KL005",
            "lossy-cast",
            format!(
                "`as {}` in a parity-critical file without `// PARITY:` justification — \
                 a lossy cast silently changes bytes on the wire",
                target.text
            ),
        ));
    }
}

/// KL006 — `HashMap`/`HashSet` banned in parity-critical files: if the
/// type cannot be named, its nondeterministic iteration order cannot leak
/// into results. `// PARITY:` justifies non-iterated uses.
fn parity_hash_rule(fd: &FileData, cfg: &Config, out: &mut Vec<Finding>) {
    if !matches(&fd.rel, &cfg.parity_hash_files) {
        return;
    }
    for i in 0..fd.toks.len() {
        if fd.in_test[i] || fd.in_attr[i] {
            continue;
        }
        let t = &fd.toks[i];
        if t.kind != TokKind::Ident
            || !["HashMap", "HashSet", "FxHashMap", "FxHashSet"].contains(&t.text.as_str())
        {
            continue;
        }
        if fd.has_tag(t.line, &["PARITY:"]) {
            continue;
        }
        out.push(finding(
            fd,
            i,
            "KL006",
            "hash-iteration",
            format!(
                "`{}` in a parity-critical file without `// PARITY:` justification — \
                 hash iteration order is nondeterministic across runs and hosts",
                t.text
            ),
        ));
    }
}

/// Scan a format string for placeholders that go through `Display`/`Debug`
/// (`{}`, `{name}`, `{:?}`, precision/exponent specs). Returns the first
/// offending placeholder, if any. Hex/octal/binary specs (`{:08x}` …) are
/// sanctioned — they are exact for integers and are how score bits travel.
fn offending_placeholder(s: &str) -> Option<String> {
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'{' {
            if i + 1 < b.len() && b[i + 1] == b'{' {
                i += 2; // escaped brace
                continue;
            }
            let mut j = i + 1;
            while j < b.len() && b[j] != b'}' {
                j += 1;
            }
            let inner = &s[i + 1..j.min(s.len())];
            let spec = inner.split_once(':').map(|(_, sp)| sp);
            let ok = match spec {
                // `{:x}`, `{e:08X}` … — radix formatting, exact.
                Some(sp) => matches!(sp.as_bytes().last(), Some(b'x' | b'X' | b'b' | b'o')),
                // `{}` / `{name}` — Display with default formatting.
                None => false,
            };
            if !ok {
                return Some(format!("{{{inner}}}"));
            }
            i = j + 1;
            continue;
        }
        if b[i] == b'}' && i + 1 < b.len() && b[i + 1] == b'}' {
            i += 2;
            continue;
        }
        i += 1;
    }
    None
}

/// KL007 — `{}` / `{:?}` placeholders in wire-codec files must be
/// justified: default float formatting is not a bit-exact codec.
fn parity_fmt_rule(fd: &FileData, cfg: &Config, out: &mut Vec<Finding>) {
    if !matches(&fd.rel, &cfg.parity_fmt_files) {
        return;
    }
    for i in 0..fd.toks.len() {
        if fd.in_test[i] || fd.in_attr[i] {
            continue;
        }
        let t = &fd.toks[i];
        if t.kind != TokKind::Ident || !FORMAT_MACROS.contains(&t.text.as_str()) {
            continue;
        }
        let Some(bang) = fd.toks.get(i + 1) else { continue };
        if bang.kind != TokKind::Punct || bang.text != "!" {
            continue;
        }
        // First string literal inside the macro's delimiter group is the
        // format string.
        let mut depth = 0i32;
        let mut fmt_tok = None;
        for j in i + 2..fd.toks.len() {
            let tj = &fd.toks[j];
            if tj.kind == TokKind::Punct {
                match tj.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth <= 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            } else if tj.kind == TokKind::Str && depth >= 1 {
                fmt_tok = Some(j);
                break;
            }
        }
        let Some(j) = fmt_tok else { continue };
        let Some(ph) = offending_placeholder(&fd.toks[j].text) else { continue };
        if fd.has_tag(fd.toks[j].line, &["PARITY:"]) || fd.has_tag(t.line, &["PARITY:"]) {
            continue;
        }
        out.push(finding(
            fd,
            j,
            "KL007",
            "float-format",
            format!(
                "`{ph}` placeholder in a wire-codec file without `// PARITY:` justification \
                 — default Display/Debug is not a bit-exact float codec (use `{{:08x}}` on \
                 `to_bits()`, or justify why no float flows here)"
            ),
        ));
    }
}

/// Is the `unwrap`/`expect` at token `i` the sanctioned lock-poisoning
/// pattern `.lock().unwrap()` / `.read().unwrap()` / `.write().unwrap()`?
/// Lock poisoning only propagates a panic that already happened on another
/// thread — unwrapping it adds no new panic surface.
fn is_lock_poison_pattern(fd: &FileData, i: usize) -> bool {
    // Token shape: `. lock ( ) . unwrap` — `unwrap` is at `i`, the guard
    // method call occupies `i-5..i-1` (the `.` at `i-1` is checked by the
    // caller).
    if i < 5 {
        return false;
    }
    fd.toks[i - 5].text == "."
        && ["lock", "read", "write"].contains(&fd.toks[i - 4].text.as_str())
        && fd.toks[i - 3].text == "("
        && fd.toks[i - 2].text == ")"
}

/// KL008 — panic surface audit of request-path files.
fn panic_rule(fd: &FileData, cfg: &Config, out: &mut Vec<Finding>) {
    if !matches(&fd.rel, &cfg.panic_files) {
        return;
    }
    let allowed_line = |line: u32| {
        let text = fd.line_text(line);
        cfg.panic_allow.iter().any(|p| text.contains(p.as_str()))
    };
    for i in 0..fd.toks.len() {
        if fd.in_test[i] || fd.in_attr[i] {
            continue;
        }
        let t = &fd.toks[i];
        match t.kind {
            TokKind::Ident if PANIC_MACROS.contains(&t.text.as_str()) => {
                let Some(bang) = fd.toks.get(i + 1) else { continue };
                if bang.kind != TokKind::Punct || bang.text != "!" {
                    continue;
                }
                if fd.has_tag(t.line, &["PANIC-OK:"]) || allowed_line(t.line) {
                    continue;
                }
                out.push(finding(
                    fd,
                    i,
                    "KL008",
                    "panic-surface",
                    format!(
                        "`{}!` in a request-path file without `// PANIC-OK:` justification — \
                         each panic is a dropped connection under catch_unwind",
                        t.text
                    ),
                ));
            }
            TokKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                let dot_before =
                    i > 0 && fd.toks[i - 1].kind == TokKind::Punct && fd.toks[i - 1].text == ".";
                let call_after = fd
                    .toks
                    .get(i + 1)
                    .is_some_and(|t2| t2.kind == TokKind::Punct && t2.text == "(");
                if !dot_before || !call_after {
                    continue;
                }
                if is_lock_poison_pattern(fd, i)
                    || fd.has_tag(t.line, &["PANIC-OK:"])
                    || allowed_line(t.line)
                {
                    continue;
                }
                out.push(finding(
                    fd,
                    i,
                    "KL008",
                    "panic-surface",
                    format!(
                        "`.{}()` in a request-path file without `// PANIC-OK:` justification \
                         — return an error or use a checked accessor",
                        t.text
                    ),
                ));
            }
            TokKind::Punct if t.text == "[" => {
                // Indexing heuristic: `[` directly after an identifier,
                // `)`, or `]` is indexing/slicing (both panic on
                // out-of-range); after keywords, `=`/`:`/`&` etc. it is an
                // array/type/literal position.
                let Some(prev) = (i > 0).then(|| &fd.toks[i - 1]) else { continue };
                let indexing = match prev.kind {
                    TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                    TokKind::Punct => prev.text == ")" || prev.text == "]",
                    _ => false,
                };
                if !indexing {
                    continue;
                }
                if fd.has_tag(t.line, &["PANIC-OK:"]) || allowed_line(t.line) {
                    continue;
                }
                out.push(finding(
                    fd,
                    i,
                    "KL008",
                    "panic-surface",
                    format!(
                        "indexing `{}[…]` in a request-path file without `// PANIC-OK:` \
                         justification — out-of-range panics drop the connection; use \
                         `.get()` or justify the bound",
                        prev.text
                    ),
                ));
            }
            _ => {}
        }
    }
}

/// Run the workspace-level rule families (KL009–KL011) over all analyzed
/// files and their structural models (`files` and `models` parallel).
pub fn check_workspace(files: &[FileData], models: &[FileModel], cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    let ws = Workspace::build(files, models, &cfg.layering_root);
    lock_order_rule(&ws, cfg, &mut out);
    blocking_rule(&ws, cfg, &mut out);
    layering_rule(files, models, cfg, &mut out);
    out
}

fn finding_at(
    fd: &FileData,
    tok: usize,
    rule_id: &'static str,
    rule_name: &'static str,
    message: String,
) -> Finding {
    let t = &fd.toks[tok];
    Finding {
        rel: fd.rel.clone(),
        line: t.line,
        col: t.col,
        rule_id,
        rule_name,
        message,
        snippet: fd.line_text(t.line).to_string(),
    }
}

/// One observed lock-nesting edge: `from` held while `to` is (or may be)
/// acquired, first observed at token `tok` of file `file` (through a call
/// to `via`, when indirect).
struct LockEdge {
    file: usize,
    tok: usize,
    via: Option<String>,
}

/// KL009 — build the cross-function lock-order graph and check every edge
/// against the declared `[locks] order`. Any edge outside the declared
/// total order is a potential deadlock: two such edges in opposite
/// directions (or one edge against the declared direction) form a cycle.
fn lock_order_rule(ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    for (fi, fm) in ws.models.iter().enumerate() {
        for f in &fm.fns {
            for g in &f.guards {
                let held = &f.acquisitions[g.acq].lock;
                // Direct nesting: another acquisition inside the range.
                for (ai, a) in f.acquisitions.iter().enumerate() {
                    if ai != g.acq && a.tok > g.start && a.tok <= g.end {
                        edges.entry((held.clone(), a.lock.clone())).or_insert(LockEdge {
                            file: fi,
                            tok: a.tok,
                            via: None,
                        });
                    }
                }
                // Indirect nesting: a call in range whose callee (in the
                // same crate) transitively acquires locks.
                for c in &f.calls {
                    if c.tok <= g.start || c.tok > g.end || is_condvar_wait(c) {
                        continue;
                    }
                    let Some(callee) = ws.resolve(&ws.groups[fi], c) else { continue };
                    for lock in ws.locks_closure(callee) {
                        edges.entry((held.clone(), lock.clone())).or_insert(LockEdge {
                            file: fi,
                            tok: c.tok,
                            via: Some(c.callee.clone()),
                        });
                    }
                }
            }
        }
    }

    let pos = |lock: &str| cfg.locks_order.iter().position(|l| l == lock);
    for ((from, to), e) in &edges {
        let via = match &e.via {
            Some(callee) => format!(" (via call to `{callee}`)"),
            None => String::new(),
        };
        let message = if from == to {
            format!(
                "lock `{from}` may be re-acquired while already held{via} — self-deadlock on a \
                 non-reentrant mutex"
            )
        } else {
            match (pos(from), pos(to)) {
                (Some(a), Some(b)) if a < b => continue, // declared order
                (Some(_), Some(_)) => format!(
                    "lock nesting `{from}` → `{to}`{via} inverts the declared [locks] order — \
                     this closes a cycle with the declared edges (potential deadlock)"
                ),
                _ => format!(
                    "undeclared lock nesting `{from}` → `{to}`{via} — narrow the guard scope, \
                     or declare the pair in [locks] order in lint.toml (potential deadlock)"
                ),
            }
        };
        out.push(finding_at(&ws.files[e.file], e.tok, "KL009", "lock-order", message));
    }
}

/// KL010 — no blocking call while any guard is live, in the configured
/// request-path files. Condvar waits release the guard they consume, so
/// only *other* live guards count there. `// HELD-OK:` is the escape for
/// the (rare) site where holding the lock is the protocol.
fn blocking_rule(ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
    for (fi, fm) in ws.models.iter().enumerate() {
        let fd = &ws.files[fi];
        if !matches(&fd.rel, &cfg.locks_blocking_files) {
            continue;
        }
        for f in &fm.fns {
            for c in &f.calls {
                // What blocks: the call itself, or its intra-crate callee
                // transitively.
                let desc = if crate::model::direct_blocking(c) {
                    Some(format!("`{}`", c.callee))
                } else {
                    ws.resolve(&ws.groups[fi], c)
                        .and_then(|callee| ws.blocking_closure(callee))
                        .map(|path| format!("`{}` (which blocks via {path})", c.callee))
                };
                let Some(desc) = desc else { continue };
                let consumed = is_condvar_wait(c).then(|| c.arg_heads.first()).flatten();
                let mut held: Vec<&str> = f
                    .guards
                    .iter()
                    .filter(|g| c.tok > g.start && c.tok <= g.end)
                    .filter(|g| match (consumed, &g.name) {
                        (Some(cg), Some(gn)) => cg != gn,
                        _ => true,
                    })
                    .map(|g| f.acquisitions[g.acq].lock.as_str())
                    .collect();
                held.sort_unstable();
                held.dedup();
                if held.is_empty() {
                    continue;
                }
                let line = fd.toks[c.tok].line;
                if fd.has_tag(line, &["HELD-OK:"]) {
                    continue;
                }
                out.push(finding_at(
                    fd,
                    c.tok,
                    "KL010",
                    "blocking-under-lock",
                    format!(
                        "blocking call {desc} while guard of `{}` is live — narrow the guard \
                         scope so the lock is released first, or justify with `// HELD-OK:`",
                        held.join("`, `")
                    ),
                ));
            }
        }
    }
}

/// KL011 — crate dependency direction from `use`/path references. The
/// matching `Cargo.toml [dependencies]` check is [`check_manifest`].
fn layering_rule(files: &[FileData], models: &[FileModel], cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.layering_allow.is_empty() {
        return;
    }
    let Ok(allow) = cfg.layering_map() else { return };
    let governed: std::collections::BTreeSet<&str> = allow
        .iter()
        .flat_map(|(k, v)| std::iter::once(k.as_str()).chain(v.iter().map(String::as_str)))
        .collect();
    for (fd, fm) in files.iter().zip(models) {
        let Some(own) = crate_of(&fd.rel, &cfg.layering_root) else { continue };
        for r in &fm.crate_refs {
            if r.name == own || !governed.contains(r.name.as_str()) {
                continue;
            }
            let message = match allow.get(&own) {
                None => format!(
                    "crate `{own}` imports `{}` but is not declared in the [layering] allow \
                     contract — add an entry stating what it may depend on",
                    r.name
                ),
                Some(deps) if !deps.contains(&r.name) => format!(
                    "layering violation: `{own}` must not import `{}` (allowed: {})",
                    r.name,
                    if deps.is_empty() {
                        "nothing workspace-local".to_string()
                    } else {
                        deps.iter().map(|d| format!("`{d}`")).collect::<Vec<_>>().join(", ")
                    }
                ),
                Some(_) => continue,
            };
            out.push(finding_at(fd, r.tok, "KL011", "layering", message));
        }
    }
}

/// KL011 (manifest half) — check one `Cargo.toml`'s `[dependencies]`
/// section against the layering contract. Dev-dependencies are exempt:
/// tests may reach across layers, shipped code may not.
pub fn check_manifest(rel: &str, text: &str, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    if cfg.layering_allow.is_empty() {
        return out;
    }
    let Ok(allow) = cfg.layering_map() else { return out };
    let governed: std::collections::BTreeSet<&str> = allow
        .iter()
        .flat_map(|(k, v)| std::iter::once(k.as_str()).chain(v.iter().map(String::as_str)))
        .collect();
    let importer = if rel == "Cargo.toml" {
        if cfg.layering_root.is_empty() {
            return out;
        }
        cfg.layering_root.clone()
    } else {
        match rel.strip_prefix("crates/").and_then(|r| r.strip_suffix("/Cargo.toml")) {
            Some(dir) if !dir.contains('/') => format!("kg_{}", dir.replace('-', "_")),
            _ => return out,
        }
    };
    let mut in_deps = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let key: String = line
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        let dep = key.replace('-', "_");
        if dep == importer || !governed.contains(dep.as_str()) {
            continue;
        }
        let violation = match allow.get(&importer) {
            None => format!(
                "crate `{importer}` depends on `{dep}` but is not declared in the [layering] \
                 allow contract"
            ),
            Some(deps) if !deps.contains(&dep) => format!(
                "layering violation: `{importer}` must not depend on `{dep}` \
                 ([dependencies] in {rel})"
            ),
            Some(_) => continue,
        };
        out.push(Finding {
            rel: rel.to_string(),
            line: idx as u32 + 1,
            col: 1,
            rule_id: "KL011",
            rule_name: "layering",
            message: violation,
            snippet: raw.to_string(),
        });
    }
    out
}

/// The item keywords whose `pub` items KL012 audits.
const SURFACE_KINDS: &[&str] = &["fn", "struct", "enum", "const", "static", "type", "trait"];

/// Is `rel` a library or binary source of a workspace member
/// (`crates/<member>/src/…`)? Only those declare the audited surface.
fn is_member_source(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src")
}

/// Per token: whether an identifier here names something for KL012 —
/// everything except declaration names and `pub use` re-exports. Comments
/// are not tokens, so doc links never count.
fn reference_mask(fd: &FileData) -> Vec<bool> {
    let toks = &fd.toks;
    let is = |i: usize, text: &str| toks.get(i).is_some_and(|t| t.text == text);
    let mut mask: Vec<bool> = toks.iter().map(|t| t.kind == TokKind::Ident).collect();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        match toks[i].text.as_str() {
            "fn" | "struct" | "enum" | "union" | "trait" | "type" | "const" | "static" | "mod" => {
                let name = if is(i + 1, "mut") { i + 2 } else { i + 1 };
                if let Some(m) = mask.get_mut(name) {
                    *m = false;
                }
            }
            "use" if i > 0 && (is(i - 1, "pub") || is(i - 1, ")")) => {
                let end = (i..toks.len()).find(|&j| is(j, ";")).unwrap_or(toks.len());
                mask[i..end].fill(false);
            }
            _ => {}
        }
    }
    mask
}

/// KL012 — a `pub` item (fn, method, struct, enum, const, static, type,
/// trait) declared in `crates/*/src` that no code names: no other file
/// (its tests included), and not its own file's non-test code. `callers`
/// (integration tests, examples, the benchmark package) are read for
/// references only. `pub(crate)` and `#[cfg(test)]` items are rustc's
/// `dead_code` lint's business and out of scope.
pub fn dead_surface_rule(files: &[FileData], callers: &[FileData], out: &mut Vec<Finding>) {
    // Name → the files naming it anywhere, and the files naming it in
    // non-test code.
    let mut anywhere: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut in_code: std::collections::BTreeSet<(usize, &str)> = Default::default();
    for (fi, fd) in files.iter().chain(callers).enumerate() {
        for (i, m) in reference_mask(fd).into_iter().enumerate() {
            if !m {
                continue;
            }
            let name = fd.toks[i].text.as_str();
            let seen = anywhere.entry(name).or_default();
            if seen.last() != Some(&fi) {
                seen.push(fi);
            }
            if !fd.in_test[i] {
                in_code.insert((fi, name));
            }
        }
    }
    let named = |fi: usize, name: &str| {
        in_code.contains(&(fi, name))
            || anywhere.get(name).is_some_and(|s| s.iter().any(|&f| f != fi))
    };
    for (fi, fd) in files.iter().enumerate().filter(|(_, fd)| is_member_source(&fd.rel)) {
        let toks = &fd.toks;
        let is = |i: usize, text: &str| toks.get(i).is_some_and(|t| t.text == text);
        for i in 0..toks.len() {
            let visibility = toks[i].kind == TokKind::Ident && toks[i].text == "pub";
            if !visibility || fd.in_test[i] || fd.in_attr[i] || is(i + 1, "(") {
                continue;
            }
            // Qualifiers between `pub` and the item keyword.
            let mut k = i + 1;
            while let Some(t) = toks.get(k) {
                match t.text.as_str() {
                    "const" if !is(k + 1, "fn") && !is(k + 1, "unsafe") => break,
                    "const" | "async" | "unsafe" | "extern" | "default" => k += 1,
                    _ if t.kind == TokKind::Str => k += 1,
                    _ => break,
                }
            }
            let Some(kind) = toks.get(k).map(|t| t.text.as_str()) else { continue };
            if !SURFACE_KINDS.contains(&kind) {
                continue;
            }
            let name = if is(k + 1, "mut") { k + 2 } else { k + 1 };
            let Some(t) = toks.get(name) else { continue };
            if t.kind != TokKind::Ident || t.text == "_" || named(fi, &t.text) {
                continue;
            }
            out.push(finding(
                fd,
                name,
                "KL012",
                "dead-surface",
                format!(
                    "`pub {kind} {}` is named by no code outside its declaration — delete it, \
                     or make it `#[cfg(test)]` if only tests use it",
                    t.text
                ),
            ));
        }
    }
}
