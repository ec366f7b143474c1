//! KL012 failing fixture: lexed under a `crates/*/src` path next to a
//! companion `lib.rs` (in the tests) that re-exports `OnlyReexported`
//! with `pub use` and links `ONLY_DOCUMENTED` from a doc comment. Neither
//! counts as a reference, and neither does this file's test module.

/// Named only by this file's `#[cfg(test)]` code.
pub fn only_tested() -> u32 {
    7
}

/// Reachable only through the companion's `pub use`.
pub struct OnlyReexported;

/// Named only by a doc link in the companion file.
pub const ONLY_DOCUMENTED: u32 = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_tested_is_seven() {
        assert_eq!(only_tested(), 7);
    }
}
