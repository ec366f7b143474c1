//! KL012 passing fixture: lexed under a `crates/*/src` path with a
//! caller-only `perf/src/main.rs` (in the tests) that calls `entry`.

/// Called only from the caller-only file — the frozen benchmark's case.
pub fn entry() -> u32 {
    helper() + LIMIT
}

/// Called by `entry`, a non-test item of this file.
pub fn helper() -> u32 {
    1
}

/// Named by `entry`.
pub const LIMIT: u32 = 2;

/// Crate-visible: rustc's `dead_code` lint covers it, KL012 does not.
pub(crate) fn crate_visible() -> u32 {
    0
}

/// Test-only: compiled out of the shipped crate.
#[cfg(test)]
pub fn test_support() -> u32 {
    5
}
