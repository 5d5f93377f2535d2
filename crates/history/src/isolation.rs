//! The pluggable isolation-level seam.
//!
//! Every layer of the pipeline that cares about a weak isolation level —
//! the store's legal-writer chooser, validation's controlled replay, the
//! history-level conformance deciders, campaign/report identity — goes
//! through the methods of [`IsolationLevel`], each an exhaustive `match` on
//! the level: its identity (name, parse aliases), its history conformance
//! checker and its chooser behavior. The SMT axiom emitters live in the
//! `isopredict` (core) crate's encoder, which matches on the same
//! [`IsolationLevel`] because they operate on encoder internals.
//!
//! Adding a level is a one-module change plus the arms the compiler then
//! asks for: implement a conformance checker (see [`crate::si`] for the
//! newest example), add the variant, and fill in the match arms here and in
//! the core encoder.

use serde::{Deserialize, Serialize};

use crate::history::History;
use crate::ids::TxnId;
use crate::{causal, readcommitted, si};

/// The weak isolation levels supported by the analysis (Section 2 of the
/// paper plus the snapshot-isolation extension the paper names as the natural
/// next level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IsolationLevel {
    /// Causal consistency.
    Causal,
    /// Read committed.
    ReadCommitted,
    /// Snapshot isolation (first-committer-wins write conflicts).
    Snapshot,
}

impl IsolationLevel {
    /// All supported levels, in the order campaigns and tables list them.
    pub const ALL: [IsolationLevel; 3] = [
        IsolationLevel::Causal,
        IsolationLevel::ReadCommitted,
        IsolationLevel::Snapshot,
    ];

    /// Canonical display name (also accepted by the parser).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::Causal => "causal",
            IsolationLevel::ReadCommitted => "read committed",
            IsolationLevel::Snapshot => "snapshot isolation",
        }
    }

    /// Additional spellings accepted by the parser.
    #[must_use]
    pub fn aliases(self) -> &'static [&'static str] {
        match self {
            IsolationLevel::Causal => &["cc", "causal-consistency"],
            IsolationLevel::ReadCommitted => &["rc", "read-committed"],
            IsolationLevel::Snapshot => &["si", "snapshot", "snapshot-isolation"],
        }
    }

    /// A commit order witnessing that `history` is valid under this level,
    /// or `None` if it is not.
    #[must_use]
    pub fn commit_order(self, history: &History) -> Option<Vec<TxnId>> {
        match self {
            IsolationLevel::Causal => causal::causal_commit_order(history),
            IsolationLevel::ReadCommitted => readcommitted::rc_commit_order(history),
            IsolationLevel::Snapshot => si::si_commit_order(history),
        }
    }

    /// Whether `history` is valid under this level.
    #[must_use]
    pub fn is_conformant(self, history: &History) -> bool {
        self.commit_order(history).is_some()
    }

    /// Whether the level constrains *write–write* conflicts (first-committer
    /// wins). When true, the store's legal-writer chooser must account for
    /// the open transaction's declared write set, not just its reads.
    #[must_use]
    pub fn write_conflicts(self) -> bool {
        match self {
            IsolationLevel::Causal | IsolationLevel::ReadCommitted => false,
            IsolationLevel::Snapshot => true,
        }
    }
}

impl std::fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an [`IsolationLevel`] from an unknown name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIsolationLevelError {
    attempted: String,
}

impl std::fmt::Display for ParseIsolationLevelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown isolation level `{}`; accepted:", self.attempted)?;
        for level in IsolationLevel::ALL {
            let dashed = level.name().replace(' ', "-");
            write!(f, " {dashed}")?;
            for alias in level.aliases() {
                if *alias != dashed {
                    write!(f, "|{alias}")?;
                }
            }
        }
        Ok(())
    }
}

impl std::error::Error for ParseIsolationLevelError {}

impl std::str::FromStr for IsolationLevel {
    type Err = ParseIsolationLevelError;

    /// Parses a level by canonical name or alias, case-insensitively; spaces,
    /// dashes and underscores are interchangeable (`rc`, `read-committed`,
    /// `read committed`, `si`, `snapshot`, … all parse).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.trim().to_lowercase().replace(['-', '_'], " ");
        IsolationLevel::ALL
            .into_iter()
            .find(|level| {
                level.name() == normalized
                    || level
                        .aliases()
                        .iter()
                        .any(|alias| alias.replace('-', " ") == normalized)
            })
            .ok_or_else(|| ParseIsolationLevelError {
                attempted: s.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryBuilder;

    #[test]
    fn display_uses_the_seam_names() {
        assert_eq!(IsolationLevel::Causal.to_string(), "causal");
        assert_eq!(IsolationLevel::ReadCommitted.to_string(), "read committed");
        assert_eq!(IsolationLevel::Snapshot.to_string(), "snapshot isolation");
    }

    #[test]
    fn display_and_parse_round_trip() {
        for level in IsolationLevel::ALL {
            let rendered = level.to_string();
            assert_eq!(rendered.parse::<IsolationLevel>(), Ok(level), "{rendered}");
        }
    }

    #[test]
    fn aliases_parse_to_their_level() {
        for (spelling, expected) in [
            ("causal", IsolationLevel::Causal),
            ("CAUSAL", IsolationLevel::Causal),
            ("rc", IsolationLevel::ReadCommitted),
            ("read-committed", IsolationLevel::ReadCommitted),
            ("read_committed", IsolationLevel::ReadCommitted),
            ("si", IsolationLevel::Snapshot),
            ("snapshot", IsolationLevel::Snapshot),
            ("snapshot-isolation", IsolationLevel::Snapshot),
        ] {
            assert_eq!(
                spelling.parse::<IsolationLevel>(),
                Ok(expected),
                "{spelling}"
            );
        }
        let err = "serializable".parse::<IsolationLevel>().unwrap_err();
        assert!(err.to_string().contains("serializable"), "{err}");
        assert!(err.to_string().contains("snapshot"), "{err}");
    }

    #[test]
    fn conformance_dispatches_to_the_level_checkers() {
        // Racing deposits: causal and rc, but a lost update — not SI.
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let t1 = b.begin(s1);
        b.read(t1, "acct", TxnId::INITIAL);
        b.write(t1, "acct");
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(t2, "acct", TxnId::INITIAL);
        b.write(t2, "acct");
        b.commit(t2);
        let racing = b.finish();
        assert!(IsolationLevel::Causal.is_conformant(&racing));
        assert!(IsolationLevel::ReadCommitted.is_conformant(&racing));
        assert!(!IsolationLevel::Snapshot.is_conformant(&racing));
        assert!(IsolationLevel::Causal.commit_order(&racing).is_some());
        assert!(IsolationLevel::Snapshot.commit_order(&racing).is_none());
    }

    #[test]
    fn only_snapshot_constrains_write_conflicts() {
        assert!(!IsolationLevel::Causal.write_conflicts());
        assert!(!IsolationLevel::ReadCommitted.write_conflicts());
        assert!(IsolationLevel::Snapshot.write_conflicts());
    }
}
