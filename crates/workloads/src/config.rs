//! Workload configuration.

use serde::{Deserialize, Serialize};

/// The two workload sizes evaluated in the paper: three sessions each running
/// four (small) or eight (large) transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadSize {
    /// 3 sessions × 4 transactions.
    Small,
    /// 3 sessions × 8 transactions.
    Large,
}

impl WorkloadSize {
    /// Both sizes, small first.
    pub const ALL: [WorkloadSize; 2] = [WorkloadSize::Small, WorkloadSize::Large];

    /// The size's CLI and report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadSize::Small => "small",
            WorkloadSize::Large => "large",
        }
    }
}

impl std::fmt::Display for WorkloadSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing a [`WorkloadSize`] from an unknown name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkloadSizeError {
    attempted: String,
}

impl std::fmt::Display for ParseWorkloadSizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown size `{}`; accepted:", self.attempted)?;
        for size in WorkloadSize::ALL {
            write!(f, " {}", size.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseWorkloadSizeError {}

impl std::str::FromStr for WorkloadSize {
    type Err = ParseWorkloadSizeError;

    /// Parses a size by name, case-insensitively (`small`, `LARGE`, …).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        WorkloadSize::ALL
            .into_iter()
            .find(|size| size.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseWorkloadSizeError {
                attempted: s.to_string(),
            })
    }
}

/// Deterministic workload parameters (Section 7.1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of client sessions.
    pub sessions: usize,
    /// Number of transactions attempted by each session.
    pub txns_per_session: usize,
    /// RNG seed (the paper uses ten seeds per configuration).
    pub seed: u64,
    /// Data-size knob: number of accounts / contestants / items / pages. Small
    /// values increase contention, which is what surfaces anomalies.
    pub scale: usize,
}

impl WorkloadConfig {
    /// The paper's small workload: 3 sessions × 4 transactions.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        WorkloadConfig {
            sessions: 3,
            txns_per_session: 4,
            seed,
            scale: 4,
        }
    }

    /// The paper's large workload: 3 sessions × 8 transactions.
    #[must_use]
    pub fn large(seed: u64) -> Self {
        WorkloadConfig {
            sessions: 3,
            txns_per_session: 8,
            seed,
            scale: 4,
        }
    }

    /// Builds a config for the given size.
    #[must_use]
    pub fn sized(size: WorkloadSize, seed: u64) -> Self {
        match size {
            WorkloadSize::Small => WorkloadConfig::small(seed),
            WorkloadSize::Large => WorkloadConfig::large(seed),
        }
    }

    /// Total number of attempted transactions.
    #[must_use]
    pub fn total_txns(&self) -> usize {
        self.sessions * self.txns_per_session
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_shapes() {
        let small = WorkloadConfig::small(7);
        assert_eq!(small.sessions, 3);
        assert_eq!(small.txns_per_session, 4);
        assert_eq!(small.total_txns(), 12);
        assert_eq!(small.seed, 7);

        let large = WorkloadConfig::large(7);
        assert_eq!(large.total_txns(), 24);
        assert_eq!(WorkloadConfig::sized(WorkloadSize::Small, 7), small);
        assert_eq!(WorkloadConfig::sized(WorkloadSize::Large, 7), large);
        assert_eq!(WorkloadSize::Small.to_string(), "small");
        assert_eq!(WorkloadSize::Large.to_string(), "large");
    }

    #[test]
    fn sizes_parse_case_insensitively() {
        for size in WorkloadSize::ALL {
            assert_eq!(size.to_string().parse(), Ok(size));
            assert_eq!(size.name().to_uppercase().parse(), Ok(size));
        }
        let error = "huge".parse::<WorkloadSize>().unwrap_err().to_string();
        assert_eq!(error, "unknown size `huge`; accepted: small large");
    }
}
