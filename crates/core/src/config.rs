//! Predictor configuration.

use isopredict_store::IsolationLevel;

/// The prediction boundary variants of Section 4.5 (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryKind {
    /// Exclude events that happen-after any read event with a different
    /// writer. Divergent behaviour can cause false predictions only through
    /// aborts.
    Strict,
    /// Exclude events that happen-after any *transaction* containing a read
    /// with a different writer. Risks more false predictions but finds more
    /// unserializable executions.
    Relaxed,
}

/// The prediction strategies evaluated in the paper (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Exact unserializability condition (Section 4.2.1) with the strict
    /// boundary. Implemented as a counterexample-guided loop: the solver
    /// proposes feasible weak-isolation-conforming candidates, the first
    /// whose prefix history admits no commit order is the prediction, and
    /// each serializable candidate's witness commit order rules out every
    /// candidate it also serializes.
    ExactStrict,
    /// Approximate (sufficient) unserializability condition via a cyclic `pco`
    /// with rank constraints (Section 4.2.2), strict boundary.
    ApproxStrict,
    /// Approximate condition with the relaxed boundary.
    ApproxRelaxed,
}

impl Strategy {
    /// All strategies, in the order the paper's tables list them.
    #[must_use]
    pub fn all() -> [Strategy; 3] {
        [
            Strategy::ExactStrict,
            Strategy::ApproxStrict,
            Strategy::ApproxRelaxed,
        ]
    }

    /// The boundary kind this strategy uses.
    #[must_use]
    pub fn boundary(self) -> BoundaryKind {
        match self {
            Strategy::ExactStrict | Strategy::ApproxStrict => BoundaryKind::Strict,
            Strategy::ApproxRelaxed => BoundaryKind::Relaxed,
        }
    }

    /// Whether this strategy uses the exact (CEGAR) unserializability check.
    #[must_use]
    pub fn is_exact(self) -> bool {
        matches!(self, Strategy::ExactStrict)
    }

    /// The name used in the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Strategy::ExactStrict => "Exact-Strict",
            Strategy::ApproxStrict => "Approx-Strict",
            Strategy::ApproxRelaxed => "Approx-Relaxed",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Error returned when parsing a [`Strategy`] from an unknown name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError {
    attempted: String,
}

impl std::fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown strategy `{}`; accepted:", self.attempted)?;
        for strategy in Strategy::all() {
            write!(f, " {}", strategy.name().to_ascii_lowercase())?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseStrategyError {}

impl std::str::FromStr for Strategy {
    type Err = ParseStrategyError;

    /// Parses a strategy by its table name, case-insensitively
    /// (`exact-strict`, `Approx-Relaxed`, …).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Strategy::all()
            .into_iter()
            .find(|strategy| strategy.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseStrategyError {
                attempted: s.to_string(),
            })
    }
}

/// Configuration of a [`crate::Predictor`].
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    /// Which prediction strategy to use.
    pub strategy: Strategy,
    /// The target weak isolation level the predicted execution must satisfy.
    pub isolation: IsolationLevel,
    /// Optional conflict budget for each underlying solver call; exceeding it
    /// makes the predictor report [`crate::PredictionOutcome::Unknown`]
    /// (the analogue of the paper's solver timeouts).
    pub conflict_budget: Option<u64>,
    /// Maximum number of candidate executions the exact strategy's
    /// counterexample-guided loop examines before giving up.
    pub max_exact_candidates: usize,
    /// Run the SAT core's static preprocessing pipeline (subsumption, failed
    /// literals, bounded variable elimination) before solving. On by default;
    /// disable to measure raw search or to rule preprocessing out when
    /// debugging a prediction.
    pub preprocess: bool,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            strategy: Strategy::ApproxRelaxed,
            isolation: IsolationLevel::Causal,
            conflict_budget: Some(2_000_000),
            max_exact_candidates: 256,
            preprocess: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_properties_match_table_2() {
        assert_eq!(Strategy::ExactStrict.boundary(), BoundaryKind::Strict);
        assert_eq!(Strategy::ApproxStrict.boundary(), BoundaryKind::Strict);
        assert_eq!(Strategy::ApproxRelaxed.boundary(), BoundaryKind::Relaxed);
        assert!(Strategy::ExactStrict.is_exact());
        assert!(!Strategy::ApproxRelaxed.is_exact());
        assert_eq!(Strategy::all().len(), 3);
        assert_eq!(Strategy::ApproxStrict.to_string(), "Approx-Strict");
    }

    #[test]
    fn strategies_parse_case_insensitively() {
        for strategy in Strategy::all() {
            assert_eq!(strategy.to_string().parse(), Ok(strategy));
            assert_eq!(strategy.name().to_lowercase().parse(), Ok(strategy));
        }
        let error = "exact".parse::<Strategy>().unwrap_err().to_string();
        assert_eq!(
            error,
            "unknown strategy `exact`; accepted: exact-strict approx-strict approx-relaxed"
        );
    }

    #[test]
    fn default_config_is_sensible() {
        let config = PredictorConfig::default();
        assert_eq!(config.strategy, Strategy::ApproxRelaxed);
        assert!(config.preprocess);
        assert!(config.max_exact_candidates > 0);
    }
}
