//! History sharding: splitting an observed history into independently
//! analyzable shards.
//!
//! A shard is a set of committed transactions closed under *communication*
//! (shared keys and shared sessions; see
//! [`isopredict_history::connectivity`]). Because `so`, `wr`, the
//! arbitration orders and anti-dependencies never cross communication
//! components, neither can any cycle the analysis searches for — a
//! prediction exists for the whole history iff it exists for some shard, and
//! per-shard constraint systems are strictly smaller (SAT solving is
//! superlinear, so this is where the decomposition pays beyond parallelism).
//!
//! Sharding is not always worth it: when one component dominates the
//! history, the dominant shard's solver call costs nearly as much as the
//! whole-history call while the decomposition still pays its bookkeeping.
//! [`ShardPolicy::Auto`] therefore falls back to whole-history analysis
//! above a dominance threshold.

#![warn(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use std::borrow::Cow;

use isopredict_history::{connectivity::KeyComponents, History, TxnId};

/// When to shard a history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardPolicy {
    /// Always analyze whole histories (the paper's original pipeline).
    Never,
    /// Shard unless a single component holds more than `dominance` of the
    /// committed transactions (or there is only one component).
    Auto {
        /// Dominant-fraction threshold in `(0, 1]` above which sharding is
        /// skipped.
        dominance: f64,
    },
    /// Shard whenever there is more than one component.
    Always,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy::Auto { dominance: 0.75 }
    }
}

/// One unit of analysis work produced by sharding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardUnit {
    /// Analyze the history as a whole.
    Whole,
    /// Analyze the restriction to one communication component.
    Component {
        /// Index into [`ShardPlan::components`].
        index: usize,
        /// The component's transactions (sorted).
        txns: Vec<TxnId>,
    },
}

impl ShardUnit {
    /// A short label for reports ("whole" or "shard-N").
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ShardUnit::Whole => "whole".to_string(),
            ShardUnit::Component { index, .. } => format!("shard-{index}"),
        }
    }
}

/// The sharding decision for one observed history.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// The communication decomposition of the history.
    pub components: KeyComponents,
    /// The units the campaign will analyze (either a single
    /// [`ShardUnit::Whole`] or one [`ShardUnit::Component`] per component).
    pub units: Vec<ShardUnit>,
    /// Whether the plan decided to shard.
    pub sharded: bool,
}

impl ShardPlan {
    /// Plans the analysis of `observed` under `policy`.
    #[must_use]
    pub fn new(observed: &History, policy: ShardPolicy) -> ShardPlan {
        let components = KeyComponents::of(observed);
        let shard = match policy {
            ShardPolicy::Never => false,
            ShardPolicy::Always => components.len() > 1,
            ShardPolicy::Auto { dominance } => {
                components.len() > 1 && components.dominant_fraction() <= dominance
            }
        };
        let units = if shard {
            components
                .components()
                .iter()
                .enumerate()
                .map(|(index, txns)| ShardUnit::Component {
                    index,
                    txns: txns.clone(),
                })
                .collect()
        } else {
            vec![ShardUnit::Whole]
        };
        ShardPlan {
            components,
            units,
            sharded: shard,
        }
    }

    /// The history each unit analyzes: the original, borrowed, for
    /// [`ShardUnit::Whole`]; the restriction to the component otherwise.
    ///
    /// A restriction keeps the original transaction identifiers, session
    /// identifiers and event positions, so a prediction over it merges back
    /// into the whole history losslessly ([`crate::merge::embed`]). It is
    /// sound because components are closed under communication: no kept
    /// transaction shares a key or a session with a dropped one, so no read
    /// loses its writer and the analyzed application behavior is unchanged.
    #[must_use]
    pub fn history_for<'h>(&self, observed: &'h History, unit: &ShardUnit) -> Cow<'h, History> {
        match unit {
            ShardUnit::Whole => Cow::Borrowed(observed),
            ShardUnit::Component { txns, .. } => Cow::Owned(observed.restrict(txns, false)),
        }
    }

    /// Splits one experiment's solver conflict budget across this plan's
    /// units, proportionally to component size (largest-remainder rounding,
    /// so the shares sum to exactly the whole-history budget): a sharded run
    /// must never be granted more total budget than the whole-history run it
    /// replaces. An unlimited budget (`None`) stays unlimited for every unit,
    /// and unsharded plans pass the full budget through to their single unit.
    #[must_use]
    pub fn unit_budgets(&self, budget: Option<u64>) -> Vec<Option<u64>> {
        let Some(total) = budget else {
            return vec![None; self.units.len()];
        };
        if !self.sharded {
            return vec![Some(total); self.units.len()];
        }
        let sizes: Vec<usize> = self
            .units
            .iter()
            .map(|unit| match unit {
                ShardUnit::Whole => 0,
                ShardUnit::Component { txns, .. } => txns.len(),
            })
            .collect();
        apportion(total, &sizes).into_iter().map(Some).collect()
    }
}

/// Largest-remainder apportionment of `total` across `sizes`: allocations are
/// proportional, sum to exactly `total` (when some size is nonzero), and are
/// deterministic (remainders tie-break by index).
fn apportion(total: u64, sizes: &[usize]) -> Vec<u64> {
    let sum: u128 = sizes.iter().map(|&s| s as u128).sum();
    if sum == 0 {
        return vec![0; sizes.len()];
    }
    let mut allocations: Vec<u64> = sizes
        .iter()
        .map(|&s| ((u128::from(total) * s as u128) / sum) as u64)
        .collect();
    let mut remainder = total - allocations.iter().sum::<u64>();
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&i| {
        (
            std::cmp::Reverse((u128::from(total) * sizes[i] as u128) % sum),
            i,
        )
    });
    for &i in &order {
        if remainder == 0 {
            break;
        }
        allocations[i] += 1;
        remainder -= 1;
    }
    allocations
}

#[cfg(test)]
mod tests {
    use super::*;
    use isopredict_history::HistoryBuilder;

    /// `pairs` independent two-session components, one key each.
    fn disjoint_history(pairs: usize) -> History {
        let mut b = HistoryBuilder::new();
        for p in 0..pairs {
            let key = format!("k{p}");
            let s1 = b.session(format!("s{p}a"));
            let s2 = b.session(format!("s{p}b"));
            let t1 = b.begin(s1);
            b.read(t1, &key, TxnId::INITIAL);
            b.write(t1, &key);
            b.commit(t1);
            let t2 = b.begin(s2);
            b.read(t2, &key, t1);
            b.write(t2, &key);
            b.commit(t2);
        }
        b.finish()
    }

    #[test]
    fn never_policy_yields_one_whole_unit() {
        let history = disjoint_history(3);
        let plan = ShardPlan::new(&history, ShardPolicy::Never);
        assert!(!plan.sharded);
        assert_eq!(plan.units, vec![ShardUnit::Whole]);
        assert_eq!(plan.components.len(), 3);
        let whole = plan.history_for(&history, &plan.units[0]);
        assert!(
            matches!(whole, Cow::Borrowed(_)),
            "the whole unit is not cloned"
        );
        assert_eq!(*whole, history);
    }

    #[test]
    fn always_policy_yields_one_unit_per_component() {
        let history = disjoint_history(3);
        let plan = ShardPlan::new(&history, ShardPolicy::Always);
        assert!(plan.sharded);
        assert_eq!(plan.units.len(), 3);
        for (i, unit) in plan.units.iter().enumerate() {
            assert_eq!(unit.label(), format!("shard-{i}"));
            let restricted = plan.history_for(&history, unit);
            // The restriction keeps exactly the component's two transactions.
            assert_eq!(
                restricted
                    .committed_transactions()
                    .filter(|t| !t.events.is_empty())
                    .count(),
                2
            );
        }
    }

    #[test]
    fn auto_policy_respects_the_dominance_threshold() {
        // 3 components of 2 transactions each: dominant fraction = 1/3.
        let balanced = disjoint_history(3);
        let plan = ShardPlan::new(&balanced, ShardPolicy::Auto { dominance: 0.5 });
        assert!(plan.sharded);

        // One big component (4 txns) + one small (2): dominant = 2/3 > 0.5.
        let mut b = HistoryBuilder::new();
        let s1 = b.session("big");
        for _ in 0..4 {
            let t = b.begin(s1);
            b.write(t, "big-key");
            b.commit(t);
        }
        let s2 = b.session("small-a");
        let s3 = b.session("small-b");
        let t = b.begin(s2);
        b.write(t, "small-key");
        b.commit(t);
        let u = b.begin(s3);
        b.read(u, "small-key", t);
        b.commit(u);
        let skewed = b.finish();
        let plan = ShardPlan::new(&skewed, ShardPolicy::Auto { dominance: 0.5 });
        assert!(!plan.sharded, "dominant component must disable sharding");
        assert_eq!(plan.units, vec![ShardUnit::Whole]);
    }

    #[test]
    fn sharded_budgets_never_exceed_the_whole_history_budget() {
        // Components of sizes 2/2/2 plus skewed mixes: the per-unit shares
        // must be proportional and sum to exactly the experiment budget.
        for pairs in 2..6 {
            let history = disjoint_history(pairs);
            let plan = ShardPlan::new(&history, ShardPolicy::Always);
            assert!(plan.sharded);
            for budget in [1u64, 7, 100, 2_000_000] {
                let shares = plan.unit_budgets(Some(budget));
                let total: u64 = shares.iter().map(|b| b.expect("budgeted")).sum();
                assert!(
                    total <= budget,
                    "sharded total {total} exceeds whole-history budget {budget}"
                );
                assert_eq!(total, budget, "shares must not waste budget either");
            }
        }
    }

    #[test]
    fn budget_shares_are_proportional_to_component_size() {
        // One 4-txn component and one 2-txn component.
        let mut b = HistoryBuilder::new();
        let s1 = b.session("big-a");
        let s2 = b.session("big-b");
        for session in [s1, s2] {
            for _ in 0..2 {
                let t = b.begin(session);
                b.read(t, "big", TxnId::INITIAL);
                b.write(t, "big");
                b.commit(t);
            }
        }
        let s3 = b.session("small-a");
        let s4 = b.session("small-b");
        let t = b.begin(s3);
        b.write(t, "small");
        b.commit(t);
        let u = b.begin(s4);
        b.read(u, "small", t);
        b.commit(u);
        let history = b.finish();
        let plan = ShardPlan::new(&history, ShardPolicy::Always);
        assert!(plan.sharded);
        let shares = plan.unit_budgets(Some(600_000));
        assert_eq!(shares, vec![Some(400_000), Some(200_000)]);
    }

    #[test]
    fn unsharded_and_unlimited_budgets_pass_through() {
        let history = disjoint_history(3);
        let plan = ShardPlan::new(&history, ShardPolicy::Never);
        assert_eq!(plan.unit_budgets(Some(5)), vec![Some(5)]);
        let sharded = ShardPlan::new(&history, ShardPolicy::Always);
        assert_eq!(sharded.unit_budgets(None), vec![None; 3]);
    }

    #[test]
    fn single_component_histories_never_shard() {
        let history = disjoint_history(1);
        for policy in [
            ShardPolicy::Always,
            ShardPolicy::Auto { dominance: 0.1 },
            ShardPolicy::Never,
        ] {
            let plan = ShardPlan::new(&history, policy);
            assert!(!plan.sharded);
            assert_eq!(plan.units.len(), 1);
        }
    }
}
