//! Fixture-driven rule tests: each KL rule gets a failing fixture (every
//! expected finding asserted by rule ID and line) and a passing fixture
//! (zero findings under the same scoping config). Fixtures live in
//! `fixtures/` — outside `src/`, so the workspace self-scan never sees
//! them — and are lexed, not compiled.

use kg_lint::{lint_source, lint_sources, lint_sources_with_callers, Config, Finding};

fn ids(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule_id).collect()
}

fn lines(findings: &[Finding]) -> Vec<u32> {
    findings.iter().map(|f| f.line).collect()
}

fn one(rel: &str) -> Vec<String> {
    vec![rel.to_string()]
}

#[test]
fn kl001_flags_every_unjustified_ordering() {
    let rel = "fixtures/kl001_fail.rs";
    let f = lint_source(rel, include_str!("../fixtures/kl001_fail.rs"), &Config::default());
    assert_eq!(ids(&f), ["KL001", "KL001", "KL001"], "{f:#?}");
    assert_eq!(lines(&f), [5, 6, 7]);
    assert!(f[0].message.contains("Acquire"));
    assert!(f[1].message.contains("SeqCst"));
    assert!(f[2].message.contains("Relaxed"));
    // The SeqCst inside `#[cfg(test)]` must NOT be reported.
    assert!(f.iter().all(|x| x.line < 10));
}

#[test]
fn kl001_accepts_justifications_and_counter_files() {
    let rel = "fixtures/kl001_pass.rs";
    let src = include_str!("../fixtures/kl001_pass.rs");
    // As a declared metrics-counter file, the bare Relaxed is sanctioned.
    let cfg = Config { atomics_relaxed_counter_files: one(rel), ..Config::default() };
    assert!(lint_source(rel, src, &cfg).is_empty());
    // Outside that list the same Relaxed needs a justification.
    let f = lint_source(rel, src, &Config::default());
    assert_eq!(ids(&f), ["KL001"]);
    assert_eq!(lines(&f), [8]);
}

#[test]
fn kl002_flags_undocumented_unsafe() {
    let f = lint_source(
        "fixtures/kl002_fail.rs",
        include_str!("../fixtures/kl002_fail.rs"),
        &Config::default(),
    );
    assert_eq!(ids(&f), ["KL002", "KL002"], "{f:#?}");
    assert_eq!(lines(&f), [3, 6]);
}

#[test]
fn kl002_accepts_safety_comments_and_safety_docs() {
    let f = lint_source(
        "fixtures/kl002_pass.rs",
        include_str!("../fixtures/kl002_pass.rs"),
        &Config::default(),
    );
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn kl003_flags_intrinsics_outside_declared_files() {
    let rel = "fixtures/kl003_fail.rs";
    let src = include_str!("../fixtures/kl003_fail.rs");
    let f = lint_source(rel, src, &Config::default());
    assert_eq!(ids(&f), ["KL003"], "{f:#?}");
    assert_eq!(lines(&f), [4]);
    assert!(f[0].message.contains("declared ISA-gated"));
}

#[test]
fn kl003_flags_ungated_intrinsics_inside_declared_files() {
    let rel = "fixtures/kl003_fail.rs";
    let src = include_str!("../fixtures/kl003_fail.rs");
    let cfg = Config { unsafe_isa_files: one(rel), ..Config::default() };
    let f = lint_source(rel, src, &cfg);
    assert_eq!(ids(&f), ["KL003"], "{f:#?}");
    assert_eq!(lines(&f), [4]);
    assert!(f[0].message.contains("target_feature"));
}

#[test]
fn kl003_accepts_gated_intrinsics() {
    let rel = "fixtures/kl003_pass.rs";
    let cfg = Config {
        unsafe_isa_files: one(rel),
        // Also in scope for KL004: a plain load is not an FMA.
        parity_fma_files: one(rel),
        ..Config::default()
    };
    let f = lint_source(rel, include_str!("../fixtures/kl003_pass.rs"), &cfg);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn kl004_has_no_justification_escape() {
    let rel = "fixtures/kl004_fail.rs";
    let cfg =
        Config { unsafe_isa_files: one(rel), parity_fma_files: one(rel), ..Config::default() };
    let f = lint_source(rel, include_str!("../fixtures/kl004_fail.rs"), &cfg);
    // Both the x86 and the NEON fused ops, despite the `// PARITY:` comment.
    assert_eq!(ids(&f), ["KL004", "KL004"], "{f:#?}");
    assert_eq!(lines(&f), [8, 14]);
    assert!(f[0].message.contains("_mm256_fmadd_ps"));
    assert!(f[1].message.contains("vfmaq_f32"));
}

#[test]
fn kl005_flags_lossy_casts() {
    let rel = "fixtures/kl005_fail.rs";
    let cfg = Config { parity_cast_files: one(rel), ..Config::default() };
    let f = lint_source(rel, include_str!("../fixtures/kl005_fail.rs"), &cfg);
    assert_eq!(ids(&f), ["KL005", "KL005"], "{f:#?}");
    assert_eq!(lines(&f), [3, 3]);
    assert!(f[0].message.contains("as u32"));
    assert!(f[1].message.contains("as f32"));
    // Out of scope, the same file is clean: the rule is file-scoped.
    assert!(
        lint_source(rel, include_str!("../fixtures/kl005_fail.rs"), &Config::default()).is_empty()
    );
}

#[test]
fn kl005_accepts_justified_and_widening_casts() {
    let rel = "fixtures/kl005_pass.rs";
    let cfg = Config { parity_cast_files: one(rel), ..Config::default() };
    let f = lint_source(rel, include_str!("../fixtures/kl005_pass.rs"), &cfg);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn kl006_flags_hash_collections() {
    let rel = "fixtures/kl006_fail.rs";
    let cfg = Config { parity_hash_files: one(rel), ..Config::default() };
    let f = lint_source(rel, include_str!("../fixtures/kl006_fail.rs"), &cfg);
    assert_eq!(ids(&f), ["KL006", "KL006", "KL006"], "{f:#?}");
    assert_eq!(lines(&f), [2, 4, 5]);
}

#[test]
fn kl006_accepts_ordered_maps_and_justified_sets() {
    let rel = "fixtures/kl006_pass.rs";
    let cfg = Config { parity_hash_files: one(rel), ..Config::default() };
    let f = lint_source(rel, include_str!("../fixtures/kl006_pass.rs"), &cfg);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn kl007_flags_default_display_placeholders() {
    let rel = "fixtures/kl007_fail.rs";
    let cfg = Config { parity_fmt_files: one(rel), ..Config::default() };
    let f = lint_source(rel, include_str!("../fixtures/kl007_fail.rs"), &cfg);
    assert_eq!(ids(&f), ["KL007", "KL007"], "{f:#?}");
    assert_eq!(lines(&f), [3, 7]);
    assert!(f[0].message.contains("{score}"));
    assert!(f[1].message.contains("{:?}"));
}

#[test]
fn kl007_accepts_radix_specs_and_justified_placeholders() {
    let rel = "fixtures/kl007_pass.rs";
    let cfg = Config { parity_fmt_files: one(rel), ..Config::default() };
    let f = lint_source(rel, include_str!("../fixtures/kl007_pass.rs"), &cfg);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn kl008_flags_all_four_panic_classes() {
    let rel = "fixtures/kl008_fail.rs";
    let cfg = Config { panic_files: one(rel), ..Config::default() };
    let f = lint_source(rel, include_str!("../fixtures/kl008_fail.rs"), &cfg);
    assert_eq!(ids(&f), ["KL008", "KL008", "KL008", "KL008"], "{f:#?}");
    // indexing, .unwrap(), .expect(), panic! — in source order.
    assert_eq!(lines(&f), [3, 4, 5, 7]);
}

#[test]
fn kl008_allow_patterns_suppress_matching_lines() {
    let rel = "fixtures/kl008_fail.rs";
    let cfg = Config {
        panic_files: one(rel),
        panic_allow: vec!["expect(\"third byte\")".to_string()],
        ..Config::default()
    };
    let f = lint_source(rel, include_str!("../fixtures/kl008_fail.rs"), &cfg);
    assert_eq!(lines(&f), [3, 4, 7], "the allowed expect line drops out");
}

#[test]
fn kl008_accepts_justified_sites_and_sanctioned_locks() {
    let rel = "fixtures/kl008_pass.rs";
    let cfg = Config { panic_files: one(rel), ..Config::default() };
    let f = lint_source(rel, include_str!("../fixtures/kl008_pass.rs"), &cfg);
    assert!(f.is_empty(), "{f:#?}");
}

fn kl009_cfg(stem: &str) -> Config {
    Config {
        locks_order: vec![format!("{stem}.writer"), format!("{stem}.current")],
        ..Config::default()
    }
}

#[test]
fn kl009_flags_inversion_undeclared_indirect_and_reentrant_nesting() {
    let rel = "fixtures/kl009_fail.rs";
    let src = include_str!("../fixtures/kl009_fail.rs");
    let f = lint_sources(&[(rel, src)], &kl009_cfg("kl009_fail"));
    assert_eq!(ids(&f), ["KL009", "KL009", "KL009", "KL009"], "{f:#?}");
    assert_eq!(lines(&f), [8, 15, 26, 33]);
    assert!(f[0].message.contains("inverts the declared [locks] order"), "{}", f[0].message);
    assert!(f[1].message.contains("undeclared lock nesting"), "{}", f[1].message);
    assert!(f[2].message.contains("via call to `helper`"), "{}", f[2].message);
    assert!(f[3].message.contains("self-deadlock"), "{}", f[3].message);
}

#[test]
fn kl009_accepts_declared_order_and_narrowed_scopes() {
    let rel = "fixtures/kl009_pass.rs";
    let src = include_str!("../fixtures/kl009_pass.rs");
    let f = lint_sources(&[(rel, src)], &kl009_cfg("kl009_pass"));
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn kl010_flags_direct_and_transitive_blocking_under_guard() {
    let rel = "fixtures/kl010_fail.rs";
    let src = include_str!("../fixtures/kl010_fail.rs");
    let cfg = Config { locks_blocking_files: one(rel), ..Config::default() };
    let f = lint_sources(&[(rel, src)], &cfg);
    assert_eq!(ids(&f), ["KL010", "KL010", "KL010"], "{f:#?}");
    assert_eq!(lines(&f), [7, 13, 22]);
    assert!(f[0].message.contains("`write_all`"), "{}", f[0].message);
    assert!(f[0].message.contains("kl010_fail.state"), "{}", f[0].message);
    assert!(f[1].message.contains("`sleep`"), "{}", f[1].message);
    assert!(f[2].message.contains("blocks via flush"), "{}", f[2].message);
    // Out of scope, the same file is clean: the rule is file-scoped.
    assert!(lint_sources(&[(rel, src)], &Config::default()).is_empty());
}

#[test]
fn kl010_accepts_narrowed_scopes_condvar_waits_and_held_ok() {
    let rel = "fixtures/kl010_pass.rs";
    let src = include_str!("../fixtures/kl010_pass.rs");
    let cfg = Config { locks_blocking_files: one(rel), ..Config::default() };
    let f = lint_sources(&[(rel, src)], &cfg);
    assert!(f.is_empty(), "{f:#?}");
}

fn kl011_cfg() -> Config {
    Config {
        layering_root: "kgeval".to_string(),
        layering_allow: vec![
            "kg_core <-".to_string(),
            "kg_models <- kg_core".to_string(),
            "kg_recommend <- kg_core".to_string(),
            "kg_eval <- kg_core kg_models".to_string(),
            "kg_serve <- kg_core kg_models kg_recommend".to_string(),
        ],
        ..Config::default()
    }
}

#[test]
fn kl011_flags_imports_outside_the_contract() {
    // The fixture lexes as a file of kg_core, which may import nothing
    // workspace-local: both `use` statements and the inline path flag.
    let rel = "crates/core/src/kl011_fail.rs";
    let src = include_str!("../fixtures/kl011_fail.rs");
    let f = lint_sources(&[(rel, src)], &kl011_cfg());
    assert_eq!(ids(&f), ["KL011", "KL011", "KL011"], "{f:#?}");
    assert_eq!(lines(&f), [5, 6, 9]);
    assert!(f[0].message.contains("must not import `kg_models`"), "{}", f[0].message);
    assert!(f[0].message.contains("nothing workspace-local"), "{}", f[0].message);
    assert!(f[1].message.contains("must not import `kg_serve`"), "{}", f[1].message);
    assert!(f[2].message.contains("must not import `kg_eval`"), "{}", f[2].message);
}

#[test]
fn kl011_flags_crates_missing_from_the_contract() {
    // Same imports under an UNDECLARED crate: every governed reference
    // reports the missing allow entry instead.
    let rel = "crates/widget/src/kl011_fail.rs";
    let src = include_str!("../fixtures/kl011_fail.rs");
    let f = lint_sources(&[(rel, src)], &kl011_cfg());
    assert_eq!(ids(&f), ["KL011", "KL011", "KL011"], "{f:#?}");
    assert!(
        f[0].message.contains("`kg_widget`")
            && f[0].message.contains("not declared in the [layering] allow contract"),
        "{}",
        f[0].message
    );
}

#[test]
fn kl011_accepts_declared_imports_and_ignores_external_crates() {
    let rel = "crates/serve/src/kl011_pass.rs";
    let src = include_str!("../fixtures/kl011_pass.rs");
    let f = lint_sources(&[(rel, src)], &kl011_cfg());
    assert!(f.is_empty(), "{f:#?}");
    // With the rule unconfigured, even the failing fixture is silent.
    let fail = include_str!("../fixtures/kl011_fail.rs");
    assert!(lint_sources(&[("crates/core/src/kl011_fail.rs", fail)], &Config::default()).is_empty());
}

/// The companion `lib.rs` for the KL012 failing fixture: a `pub use`
/// re-export and a doc link, neither of which is a reference.
const KL012_LIB: &str = "//! [`kl012_fail::ONLY_DOCUMENTED`] is linked, not used.\n\
                         pub mod kl012_fail;\n\
                         pub use kl012_fail::OnlyReexported;\n";

#[test]
fn kl012_flags_surface_named_only_by_own_tests_reexports_and_docs() {
    let rel = "crates/demo/src/kl012_fail.rs";
    let src = include_str!("../fixtures/kl012_fail.rs");
    let sources = [(rel, src), ("crates/demo/src/lib.rs", KL012_LIB)];
    let f = lint_sources_with_callers(&sources, &[], &Config::default());
    assert_eq!(ids(&f), ["KL012", "KL012", "KL012"], "{f:#?}");
    assert_eq!(lines(&f), [7, 12, 15]);
    assert!(f[0].message.contains("`pub fn only_tested`"), "{}", f[0].message);
    assert!(f[1].message.contains("`pub struct OnlyReexported`"), "{}", f[1].message);
    assert!(f[2].message.contains("`pub const ONLY_DOCUMENTED`"), "{}", f[2].message);
    // KL012 audits `crates/*/src` only, and runs only when callers are
    // given: under a fixtures path, or through `lint_sources`, the same
    // files are clean.
    let outside = [("fixtures/kl012_fail.rs", src), ("fixtures/lib.rs", KL012_LIB)];
    assert!(lint_sources_with_callers(&outside, &[], &Config::default()).is_empty());
    assert!(lint_sources(&sources, &Config::default()).is_empty());
}

#[test]
fn kl012_accepts_callers_crate_visibility_test_items_and_own_file_uses() {
    let rel = "crates/demo/src/kl012_pass.rs";
    let src = include_str!("../fixtures/kl012_pass.rs");
    let perf = "fn main() {\n    println!(\"{}\", demo::kl012_pass::entry());\n}\n";
    let f =
        lint_sources_with_callers(&[(rel, src)], &[("perf/src/main.rs", perf)], &Config::default());
    assert!(f.is_empty(), "{f:#?}");
    // The caller-only file is what keeps `entry` alive.
    let f = lint_sources_with_callers(&[(rel, src)], &[], &Config::default());
    assert_eq!(ids(&f), ["KL012"], "{f:#?}");
    assert_eq!(lines(&f), [5]);
}
