//! `kg-lint` — workspace-native static analysis for the invariants this
//! repo's byte-parity guarantee actually rests on, none of which clippy
//! can express:
//!
//! * **atomics audit** (KL001): every atomic `Ordering::` use is either an
//!   allowlisted pattern (Relaxed metrics counters) or carries an adjacent
//!   `// ORDERING:` justification. The `LiveFilterIndex` version flip and
//!   the kernel-dispatch `ACTIVE` byte are exactly the sites where a silent
//!   `Relaxed` would one day cost a stale read nobody can reproduce.
//! * **unsafe audit** (KL002/KL003): every `unsafe` needs an adjacent
//!   `// SAFETY:` comment, and ISA intrinsics may only appear in declared
//!   arch-gated files inside `#[target_feature]`/`unsafe` fns.
//! * **parity lint** (KL004–KL007): inside parity-critical modules (wire
//!   codecs, scoring kernels) ban FMA intrinsics, lossy `as` casts,
//!   `HashMap`/`HashSet`, and default-`Display` float formatting — the
//!   exact bug classes that silently break shard/gateway byte parity.
//! * **panic-surface lint** (KL008): no `unwrap`/`expect`/`panic!`-family/
//!   indexing in request-path files — each is a dropped connection under
//!   `catch_unwind`.
//! * **dead public surface** (KL012): every `pub` item in `crates/*/src`
//!   is named by some code outside its declaration.
//!
//! Deliberately `--fix`-free: a justification comment is a human claim,
//! not something a tool should fabricate. Std-only, hand-rolled lexer,
//! file-scoped via a hand-parsed [`config::Config`] (`lint.toml`).
//!
//! Run as `cargo run -p kg-lint --release` from the workspace root; exits
//! nonzero on any finding. Rules self-test against fixture files and the
//! workspace itself in `tests/`.

// Grown, not assumed: kg-lint (KL002/KL003) audits the crates that *do*
// need unsafe; everything else proves it needs none at compile time.
#![forbid(unsafe_code)]

pub mod analyze;
pub mod config;
pub mod lexer;
pub mod model;
pub mod parse;
pub mod rules;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub use analyze::FileData;
pub use config::Config;
pub use rules::Finding;

/// Lint a single file's source text under `rel` (root-relative path) with
/// the per-file rules (KL001–KL008). The workspace rules (KL009–KL011)
/// need the cross-file model — use [`lint_sources`] for those, and
/// [`lint_sources_with_callers`] for KL012.
pub fn lint_source(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let fd = FileData::new(rel.to_string(), src);
    rules::check_file(&fd, cfg)
}

/// Lint a set of `(rel, src)` files together: per-file rules plus the
/// workspace rule families (lock order, blocking-under-lock, layering)
/// over the structural model built from all of them. Pure — no filesystem
/// access — so fixtures and injected sources test the same code path the
/// real scan runs.
pub fn lint_sources(sources: &[(&str, &str)], cfg: &Config) -> Vec<Finding> {
    lint_tree(sources, None, cfg)
}

/// [`lint_sources`] plus KL012 (dead public surface), which needs every
/// file that could name an item: `callers` (integration tests, examples,
/// the benchmark package) are read for references only, never linted.
pub fn lint_sources_with_callers(
    sources: &[(&str, &str)],
    callers: &[(&str, &str)],
    cfg: &Config,
) -> Vec<Finding> {
    lint_tree(sources, Some(callers), cfg)
}

fn lint_tree(
    sources: &[(&str, &str)],
    callers: Option<&[(&str, &str)]>,
    cfg: &Config,
) -> Vec<Finding> {
    let analyze = |set: &[(&str, &str)]| -> Vec<FileData> {
        set.iter().map(|(rel, src)| FileData::new(rel.to_string(), src)).collect()
    };
    let files = analyze(sources);
    let models: Vec<parse::FileModel> = files.iter().map(parse::parse_file).collect();
    let mut findings = Vec::new();
    for fd in &files {
        findings.extend(rules::check_file(fd, cfg));
    }
    findings.extend(rules::check_workspace(&files, &models, cfg));
    if let Some(callers) = callers {
        rules::dead_surface_rule(&files, &analyze(callers), &mut findings);
    }
    sort_and_dedup(&mut findings);
    findings
}

/// Sort findings by (path, line, col, rule, message) and drop exact
/// duplicates — overlapping scope lists must not double-report, and output
/// order must not depend on filesystem iteration order.
pub fn sort_and_dedup(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| {
        (&a.rel, a.line, a.col, a.rule_id, &a.message)
            .cmp(&(&b.rel, b.line, b.col, b.rule_id, &b.message))
    });
    findings.dedup_by(|a, b| {
        a.rel == b.rel
            && a.line == b.line
            && a.col == b.col
            && a.rule_id == b.rule_id
            && a.message == b.message
    });
}

/// Collect the workspace source files to scan under `root`: every
/// `crates/*/src/**/*.rs` plus the umbrella `src/**/*.rs`. Integration
/// tests, benches, examples, and fixtures are deliberately out of scope —
/// the invariants bind library and binary code.
pub fn scan_roots(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut files)?;
        }
    }
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The files read only for KL012's references: `crates/*/tests`,
/// `tests/`, `examples/` and the benchmark package's `perf/src`. Reading
/// `perf/src` keeps the API the frozen benchmark compiles against alive.
fn caller_roots(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> =
            std::fs::read_dir(&crates)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("tests"), &mut files)?;
        }
    }
    for dir in ["tests", "examples", "perf/src"] {
        collect_rs(&root.join(dir), &mut files)?;
    }
    Ok(files)
}

/// The workspace manifests governed by the layering contract: the root
/// `Cargo.toml` plus every `crates/*/Cargo.toml`.
fn manifest_paths(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if root.join("Cargo.toml").is_file() {
        out.push(root.join("Cargo.toml"));
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path().join("Cargo.toml"))
            .filter(|p| p.is_file())
            .collect();
        members.sort();
        out.extend(members);
    }
    Ok(out)
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint the whole workspace under `root` with `cfg`: every scanned source
/// file through the per-file and workspace rules (KL012 with the caller
/// files), plus the `Cargo.toml` layering checks. Returns findings sorted
/// and deduplicated.
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let read = |paths: Vec<PathBuf>| -> std::io::Result<Vec<(String, String)>> {
        paths.iter().map(|p| Ok((rel_of(root, p), std::fs::read_to_string(p)?))).collect()
    };
    let (named, callers) = (read(scan_roots(root)?)?, read(caller_roots(root)?)?);
    let sources: Vec<(&str, &str)> = named.iter().map(|(r, s)| (r.as_str(), s.as_str())).collect();
    let callers: Vec<(&str, &str)> =
        callers.iter().map(|(r, s)| (r.as_str(), s.as_str())).collect();
    let mut findings = lint_sources_with_callers(&sources, &callers, cfg);
    for path in manifest_paths(root)? {
        let rel = rel_of(root, &path);
        let text = std::fs::read_to_string(&path)?;
        findings.extend(rules::check_manifest(&rel, &text, cfg));
    }
    sort_and_dedup(&mut findings);
    Ok(findings)
}

/// Render findings in the `file:line:col` diagnostic format.
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}:{}: {} [{}]: {}",
            f.rel, f.line, f.col, f.rule_id, f.rule_name, f.message
        );
        let _ = writeln!(out, "  {:>5} | {}", f.line, f.snippet);
    }
    out
}

/// Render findings as JSON Lines: one object per finding with `file`,
/// `line`, `col`, `rule`, `name`, and `message` fields — machine-readable
/// for CI artifacts and annotation tooling.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            r#"{{"file":{},"line":{},"col":{},"rule":{},"name":{},"message":{}}}"#,
            json_str(&f.rel),
            f.line,
            f.col,
            json_str(f.rule_id),
            json_str(f.rule_name),
            json_str(&f.message)
        );
    }
    out
}

/// Minimal JSON string encoder (std-only, ASCII control escapes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Audit `cfg` against the tree under `root`: every configured path must
/// exist (a moved or renamed file would silently disable its rule), every
/// declared lock must still have an acquisition site, and every layering
/// importer must name a real crate. Returns human-readable problems;
/// empty means the config is live.
pub fn check_config(root: &Path, cfg: &Config) -> std::io::Result<Vec<String>> {
    let mut problems = Vec::new();
    let lists: &[(&str, &[String])] = &[
        ("[atomics] relaxed_counter_files", &cfg.atomics_relaxed_counter_files),
        ("[unsafe] isa_files", &cfg.unsafe_isa_files),
        ("[parity] cast_files", &cfg.parity_cast_files),
        ("[parity] hash_files", &cfg.parity_hash_files),
        ("[parity] fma_files", &cfg.parity_fma_files),
        ("[parity] fmt_files", &cfg.parity_fmt_files),
        ("[panics] files", &cfg.panic_files),
        ("[locks] blocking_files", &cfg.locks_blocking_files),
    ];
    for (list, entries) in lists {
        for entry in entries.iter() {
            let exists = match entry.strip_suffix('/') {
                Some(dir) => root.join(dir).is_dir(),
                None => root.join(entry).is_file(),
            };
            if !exists {
                problems.push(format!(
                    "{list}: {entry:?} does not exist — orphaned by a move or rename, the \
                     rule silently no longer applies to it"
                ));
            }
        }
    }
    // Declared locks must correspond to real acquisition sites, otherwise
    // the order entry is stale (field renamed, file split).
    if !cfg.locks_order.is_empty() {
        let mut acquired = std::collections::BTreeSet::new();
        for path in scan_roots(root)? {
            let rel = rel_of(root, &path);
            let src = std::fs::read_to_string(&path)?;
            let fd = FileData::new(rel, &src);
            let fm = parse::parse_file(&fd);
            for f in &fm.fns {
                for a in &f.acquisitions {
                    acquired.insert(a.lock.clone());
                }
            }
        }
        for lock in &cfg.locks_order {
            if !acquired.contains(lock) {
                problems.push(format!(
                    "[locks] order: `{lock}` has no acquisition site in the workspace — \
                     stale entry (locks are named <file-stem>.<field>)"
                ));
            }
        }
    }
    match cfg.layering_map() {
        Err(e) => problems.push(format!("[layering] allow: {e}")),
        Ok(map) => {
            for importer in map.keys() {
                let exists = if importer == &cfg.layering_root {
                    root.join("src").is_dir()
                } else {
                    importer
                        .strip_prefix("kg_")
                        .map(|dir| {
                            root.join("crates").join(dir.replace('_', "-")).is_dir()
                                || root.join("crates").join(dir).is_dir()
                        })
                        .unwrap_or(false)
                };
                if !exists {
                    problems.push(format!(
                        "[layering] allow: importer `{importer}` names no crate in this \
                         workspace"
                    ));
                }
            }
        }
    }
    Ok(problems)
}
