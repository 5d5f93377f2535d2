//! Store execution modes.
//!
//! The isolation levels themselves — and the per-level methods the chooser
//! dispatches through — live in [`isopredict_history::isolation`]; the store
//! re-exports [`IsolationLevel`] so its API is self-contained.

pub use isopredict_history::IsolationLevel;

use crate::replay::ReplayScript;

/// How the store chooses the writer each read observes.
#[derive(Debug, Clone)]
pub enum StoreMode {
    /// Every read returns the latest committed write; with serial transaction
    /// execution the recorded history is serializable. Used to produce the
    /// *observed* executions that feed the predictive analysis.
    SerializableRecord,
    /// Every read picks a uniformly random writer among those that keep the
    /// execution valid under the given isolation level — MonkeyDB's strategy.
    WeakRandom {
        /// Target isolation level.
        level: IsolationLevel,
        /// Seed for the random writer choices.
        seed: u64,
    },
    /// Every read returns the latest committed write, mimicking a single-node
    /// MySQL server running in `READ COMMITTED` mode (the paper's "regular
    /// execution" baseline in Table 7).
    RealisticRc,
    /// Reads follow a predicted execution whenever the paper's three
    /// conditions hold, and fall back to a weak-isolation-conforming writer
    /// (recording a divergence) when they do not — the validation query
    /// engine of Section 5.
    Controlled {
        /// Target isolation level the validating execution must preserve.
        level: IsolationLevel,
        /// The predicted execution to follow.
        script: ReplayScript,
    },
}

impl StoreMode {
    /// The isolation level this mode maintains, if it is one of the weak modes.
    #[must_use]
    pub fn isolation_level(&self) -> Option<IsolationLevel> {
        match self {
            StoreMode::SerializableRecord | StoreMode::RealisticRc => None,
            StoreMode::WeakRandom { level, .. } | StoreMode::Controlled { level, .. } => {
                Some(*level)
            }
        }
    }

    /// A stable label naming the mode (and its level, for the weak modes),
    /// used as the `isolation` field of recorded trace provenance. Corpus
    /// index keys match on this string, so it must stay stable across
    /// releases for a given mode.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            StoreMode::SerializableRecord => "serializable-record".to_string(),
            StoreMode::RealisticRc => "realistic-rc".to_string(),
            StoreMode::WeakRandom { level, .. } => format!("weak-random({level})"),
            StoreMode::Controlled { level, .. } => format!("controlled({level})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_accessors() {
        assert_eq!(StoreMode::SerializableRecord.isolation_level(), None);
        assert_eq!(StoreMode::RealisticRc.isolation_level(), None);
        for level in IsolationLevel::ALL {
            assert_eq!(
                StoreMode::WeakRandom { level, seed: 1 }.isolation_level(),
                Some(level)
            );
        }
    }

    #[test]
    fn mode_labels_are_stable_and_name_the_level() {
        assert_eq!(StoreMode::SerializableRecord.label(), "serializable-record");
        assert_eq!(StoreMode::RealisticRc.label(), "realistic-rc");
        assert_eq!(
            StoreMode::WeakRandom {
                level: IsolationLevel::Causal,
                seed: 1
            }
            .label(),
            "weak-random(causal)"
        );
    }
}
