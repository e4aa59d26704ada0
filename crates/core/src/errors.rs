//! Typed errors for the fallible service path.
//!
//! A caller that takes its configuration from outside (the CLI, a
//! serving front end) must be able to refuse a bad one instead of
//! aborting the process, so the training entry point gets a `Result`
//! twin here (library code propagates errors — `clippy::panic` and
//! `expect_used` are denied there — and panicking wrappers stay thin,
//! documented and under an `#[expect]`).

use std::fmt;

/// Why [`crate::EmbLookup::try_train_on`] refused to train.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The configuration failed `EmbLookupConfig::validate`.
    InvalidConfig(String),
    /// The knowledge graph has no entities to index.
    EmptyKg,
    /// Mining produced no triplets (e.g. `triplets_per_entity == 0`).
    NoTriplets,
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::InvalidConfig(why) => write!(f, "invalid EmbLookup config: {why}"),
            TrainError::EmptyKg => write!(f, "training on an empty knowledge graph"),
            TrainError::NoTriplets => write!(f, "mining produced no training triplets"),
        }
    }
}

impl std::error::Error for TrainError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_error_messages_are_specific() {
        let e = TrainError::InvalidConfig("epochs must be positive".into());
        assert!(e.to_string().contains("epochs"));
        assert!(TrainError::EmptyKg.to_string().contains("empty"));
        assert!(TrainError::NoTriplets.to_string().contains("triplets"));
    }
}
