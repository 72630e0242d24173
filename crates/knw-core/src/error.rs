//! Error types for the KNW sketches.

use std::fmt;

/// Errors arising when combining or operating sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// Two sketches could not be merged because their configurations differ.
    ///
    /// The error pinpoints *which* configuration field diverged and both
    /// observed values, so an operator aggregating shards from many processes
    /// can tell at a glance whether a deployment rolled out a new accuracy
    /// target, a different universe bound, or a stale hash strategy.
    IncompatibleConfig {
        /// Name of the mismatching configuration field (e.g. `"epsilon"`).
        field: &'static str,
        /// The receiving sketch's value, rendered for display.
        ours: String,
        /// The offered sketch's value, rendered for display.
        theirs: String,
    },
    /// Two sketches could not be merged because they were built with different
    /// hash-function seeds; their bucket assignments are not comparable.
    SeedMismatch,
    /// A type-erased merge
    /// ([`merge_dyn`](crate::estimator::DynMergeableCardinalityEstimator::merge_dyn))
    /// was attempted between two different concrete estimator types.
    TypeMismatch {
        /// Name of the receiving estimator.
        expected: &'static str,
        /// Name of the estimator that was offered for merging.
        found: &'static str,
    },
    /// The Figure 3 space guard tripped: the total bit budget `A` of the
    /// offset counters exceeded `3K`, which the paper treats as a FAIL output.
    ///
    /// The sketch keeps operating (see `KnwF0Sketch::failed`); this error is
    /// surfaced by the strict estimation API.
    SpaceGuardTripped,
    /// A shard worker thread of the sharded ingestion engine panicked; the
    /// shard's sketch state is lost, so no trustworthy merged estimate can be
    /// produced from the remaining shards.
    ShardPanicked {
        /// Index of the shard whose worker died.
        shard: usize,
    },
    /// Bytes offered for a merge
    /// ([`merge_from_bytes`](crate::estimator::MergeableEstimator::merge_from_bytes))
    /// are not an encoding the sketch's decoder accepts.
    Decode(String),
}

impl From<serde::Error> for SketchError {
    fn from(error: serde::Error) -> Self {
        SketchError::Decode(error.to_string())
    }
}

impl SketchError {
    /// Builds an [`IncompatibleConfig`](Self::IncompatibleConfig) error for a
    /// single mismatching configuration field, rendering both values.
    pub fn config_mismatch<L: fmt::Debug, R: fmt::Debug>(
        field: &'static str,
        ours: L,
        theirs: R,
    ) -> Self {
        SketchError::IncompatibleConfig {
            field,
            ours: format!("{ours:?}"),
            theirs: format!("{theirs:?}"),
        }
    }
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::IncompatibleConfig {
                field,
                ours,
                theirs,
            } => {
                write!(
                    f,
                    "sketches have incompatible configurations: {field} differs ({ours} vs {theirs})"
                )
            }
            SketchError::SeedMismatch => {
                write!(f, "sketches were built with different hash seeds")
            }
            SketchError::TypeMismatch { expected, found } => {
                write!(f, "cannot merge estimator type {found:?} into {expected:?}")
            }
            SketchError::SpaceGuardTripped => {
                write!(
                    f,
                    "the counter bit budget exceeded 3K (the paper's FAIL condition)"
                )
            }
            SketchError::ShardPanicked { shard } => {
                write!(f, "shard worker {shard} panicked; its sketch state is lost")
            }
            SketchError::Decode(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for SketchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SketchError::config_mismatch("epsilon", 0.1, 0.2);
        assert!(e.to_string().contains("epsilon"));
        assert!(e.to_string().contains("0.1"));
        assert!(e.to_string().contains("0.2"));
        assert!(SketchError::SeedMismatch.to_string().contains("seeds"));
        assert!(SketchError::SpaceGuardTripped.to_string().contains("3K"));
        assert!(SketchError::ShardPanicked { shard: 3 }
            .to_string()
            .contains("worker 3"));
    }

    #[test]
    fn config_mismatch_names_the_field_and_both_values() {
        let e = SketchError::config_mismatch("universe", 1024u64, 2048u64);
        match &e {
            SketchError::IncompatibleConfig {
                field,
                ours,
                theirs,
            } => {
                assert_eq!(*field, "universe");
                assert_eq!(ours, "1024");
                assert_eq!(theirs, "2048");
            }
            other => panic!("unexpected variant {other:?}"),
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(SketchError::SeedMismatch);
        assert!(e.source().is_none());
    }
}
