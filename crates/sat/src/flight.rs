//! Flight recorder: clause provenance, progress heartbeats, and `unknown`
//! post-mortems.
//!
//! Every clause in the solver carries a **family** — an interned tag naming
//! the encoding layer that emitted it (e.g. `feasibility`,
//! `isolation:serializability`, `unserializability`). Three families are
//! reserved: `default` for untagged clauses, `learned` for clauses produced
//! by conflict analysis, and `theory` for conflict clauses reported by the
//! DPLL(T) theory. The solver attributes its work to families two ways:
//!
//! * a strict **partition**: each conflict is charged to the family of the
//!   clause that became falsified (or `theory`), so the per-family conflict
//!   counts sum exactly to [`crate::SolverStats::conflicts`];
//! * an **involvement** measure: during conflict analysis the solver ORs
//!   together the provenance bitmasks of every clause resolved on, so a
//!   conflict can "involve" several families at once. This is what backs
//!   statements like "78% of conflicts involve SI first-committer-wins
//!   clauses". Learnt clauses inherit the mask of their derivation, making
//!   the measure transitive through learned clauses.
//!
//! Progress is sampled every [`crate::SolverConfig::heartbeat_every`]
//! conflicts into a [`Heartbeat`]; the most recent samples are retained in a
//! bounded ring so that a budget-exhausted solve can be explained after the
//! fact via [`crate::Solver::postmortem`]. Heartbeats carry **counts only**
//! (no wall-clock readings): rates are computed by whoever installed the
//! heartbeat hook, keeping the solver itself deterministic.

use serde::{Deserialize, Serialize};

use crate::stats::SolverStats;

/// Family id of clauses added without an explicit tag.
pub const FAMILY_DEFAULT: u16 = 0;
/// Family id of clauses learnt by conflict analysis.
pub const FAMILY_LEARNED: u16 = 1;
/// Family id of conflict clauses reported by the theory.
pub const FAMILY_THEORY: u16 = 2;

/// Number of heartbeats retained for a post-mortem.
pub(crate) const HEARTBEAT_RING_CAP: usize = 32;

/// The provenance bit for a family. Families beyond 31 share the last bit
/// (saturating), which keeps involvement sound (never under-reports a
/// family's own bucket) at the cost of merging the long tail.
#[must_use]
pub(crate) fn family_bit(family: u16) -> u32 {
    1u32 << (u32::from(family)).min(31)
}

/// A progress sample taken every `heartbeat_every` conflicts during search.
///
/// All fields are counters or instantaneous depths — deliberately no
/// wall-clock timestamps, so the solver stays deterministic and rates are
/// the hook installer's business.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// 1-based index of this heartbeat within the current solve call;
    /// strictly increasing.
    pub seq: u64,
    /// Cumulative conflicts at sample time (strictly increasing).
    pub conflicts: u64,
    /// Cumulative decisions at sample time.
    pub decisions: u64,
    /// Cumulative propagations at sample time.
    pub propagations: u64,
    /// Cumulative restarts at sample time.
    pub restarts: u64,
    /// Assigned literals on the trail at sample time.
    pub trail_depth: u64,
    /// Live learnt clauses in the database at sample time.
    pub learnt_clauses: u64,
    /// Variables assigned at decision level 0 (root) at sample time.
    pub vars_assigned_at_root: u64,
    /// Total problem variables.
    pub total_vars: u64,
    /// Per-family conflict partition at sample time (index = family id;
    /// sums to [`Heartbeat::conflicts`]).
    pub conflicts_by_family: Vec<u64>,
}

/// Per-family attribution of solver work, indexed by family id. All five
/// vectors are parallel to [`FamilyAttribution::families`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FamilyAttribution {
    /// Interned family names; index is the family id.
    pub families: Vec<String>,
    /// Strict partition: conflicts charged to the falsified clause's family
    /// (or `theory`). Sums exactly to [`SolverStats::conflicts`].
    pub conflicts_by_family: Vec<u64>,
    /// Conflicts whose resolution involved at least one clause of the
    /// family (via provenance bitmasks; a conflict can involve several
    /// families, so this does **not** sum to the conflict total).
    pub conflicts_involving: Vec<u64>,
    /// Unit propagations forced by a clause of the family.
    pub propagations_by_family: Vec<u64>,
    /// Learnt clauses (including unit learnts) whose derivation involved
    /// the family.
    pub learned_ancestry: Vec<u64>,
    /// Problem clauses emitted under the family tag.
    pub clauses_by_family: Vec<u64>,
}

impl FamilyAttribution {
    /// Creates an attribution table with the three reserved families.
    #[must_use]
    pub(crate) fn with_reserved() -> Self {
        let mut attribution = FamilyAttribution::default();
        for name in ["default", "learned", "theory"] {
            attribution.push_family(name);
        }
        attribution
    }

    /// Appends a family, growing every counter vector in lockstep.
    pub(crate) fn push_family(&mut self, name: &str) -> u16 {
        let id = self.families.len() as u16;
        self.families.push(name.to_string());
        self.conflicts_by_family.push(0);
        self.conflicts_involving.push(0);
        self.propagations_by_family.push(0);
        self.learned_ancestry.push(0);
        self.clauses_by_family.push(0);
        id
    }

    /// Total conflicts across the partition (equals
    /// [`SolverStats::conflicts`] for a live solver).
    #[must_use]
    pub fn total_conflicts(&self) -> u64 {
        self.conflicts_by_family.iter().sum()
    }

    /// The axiom family most involved in conflicts, by
    /// [`busiest_family`] over [`FamilyAttribution::conflicts_involving`].
    /// Returns `(name, conflicts_involving)`.
    #[must_use]
    pub fn dominant_family(&self) -> Option<(&str, u64)> {
        busiest_family(&self.conflicts_involving)
            .map(|i| (self.families[i].as_str(), self.conflicts_involving[i]))
    }
}

/// The busiest family of a per-family count slice (index = family id): the
/// non-reserved family with the highest non-zero count, falling back to the
/// busiest reserved family when no axiom family has one; the lowest id wins
/// ties. Reserved families are only a fallback because once learning starts
/// almost every conflict trivially involves `learned`.
#[must_use]
pub fn busiest_family(counts: &[u64]) -> Option<usize> {
    let reserved = (usize::from(FAMILY_THEORY) + 1).min(counts.len());
    let busiest = |ids: std::ops::Range<usize>| {
        ids.filter(|&i| counts[i] > 0)
            .max_by_key(|&i| (counts[i], std::cmp::Reverse(i)))
    };
    busiest(reserved..counts.len()).or_else(|| busiest(0..reserved))
}

/// Why a solve ended without an answer: the final attribution plus the most
/// recent heartbeats, captured when [`crate::Solver::solve`] returns
/// [`crate::SolveOutcome::Unknown`] (retrievable any time via
/// [`crate::Solver::postmortem`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SolverPostmortem {
    /// The conflict budget in force, if any.
    pub budget: Option<u64>,
    /// Conflicts spent inside the most recent solve call.
    pub conflicts_in_call: u64,
    /// Cumulative solver statistics at capture time.
    pub stats: SolverStats,
    /// Per-family attribution at capture time.
    pub attribution: FamilyAttribution,
    /// The most recent heartbeats of the solve call, oldest first (a
    /// bounded ring; at most 32 are retained).
    pub heartbeats: Vec<Heartbeat>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_families_are_interned_in_order() {
        let attribution = FamilyAttribution::with_reserved();
        assert_eq!(attribution.families, ["default", "learned", "theory"]);
        assert_eq!(attribution.conflicts_by_family.len(), 3);
        assert_eq!(attribution.total_conflicts(), 0);
    }

    #[test]
    fn family_bit_saturates_at_31() {
        assert_eq!(family_bit(0), 1);
        assert_eq!(family_bit(5), 32);
        assert_eq!(family_bit(31), 1 << 31);
        assert_eq!(family_bit(40), 1 << 31);
    }

    #[test]
    fn dominant_family_prefers_axiom_families() {
        let mut attribution = FamilyAttribution::with_reserved();
        let iso = attribution.push_family("isolation:snapshot");
        let feas = attribution.push_family("feasibility");
        attribution.conflicts_involving[usize::from(FAMILY_LEARNED)] = 100;
        attribution.conflicts_involving[usize::from(iso)] = 42;
        attribution.conflicts_involving[usize::from(feas)] = 7;
        let (name, count) = attribution.dominant_family().expect("has conflicts");
        assert_eq!(name, "isolation:snapshot");
        assert_eq!(count, 42);
    }

    #[test]
    fn dominant_family_falls_back_to_reserved() {
        let mut attribution = FamilyAttribution::with_reserved();
        attribution.conflicts_involving[usize::from(FAMILY_THEORY)] = 9;
        let (name, count) = attribution.dominant_family().expect("has conflicts");
        assert_eq!(name, "theory");
        assert_eq!(count, 9);
        assert_eq!(FamilyAttribution::with_reserved().dominant_family(), None);
    }

    #[test]
    fn busiest_family_prefers_axiom_families_and_breaks_ties_low() {
        assert_eq!(busiest_family(&[0, 900, 50, 3, 7, 7]), Some(4));
        assert_eq!(busiest_family(&[0, 900, 50, 0, 0]), Some(1));
        assert_eq!(busiest_family(&[4, 0, 4]), Some(0));
        assert_eq!(busiest_family(&[0, 0, 0, 0]), None);
        assert_eq!(busiest_family(&[]), None);
    }
}
