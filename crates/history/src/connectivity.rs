//! Key-connectivity queries: decomposing a history into communication
//! components.
//!
//! Two committed transactions *communicate* if they access (read or write) a
//! common key, or run in the same session (session order relates them). The
//! transitive closure of communication partitions a history's committed
//! transactions into **components** with a crucial property: every relation
//! the predictive analysis constrains — `so`, `wr`, the arbitration orders
//! and anti-dependencies, and therefore every `pco`/commit-order cycle — only
//! ever links transactions of the *same* component. Key-disjoint components
//! can thus be analyzed independently and their verdicts merged losslessly,
//! which is what `isopredict-orchestrator`'s history sharding builds on.
//!
//! The initial-state transaction `t0` writes every key and is `so`-before
//! everything, so it is excluded from the union-find (it would otherwise glue
//! all components together) and implicitly belongs to every component.

use crate::history::History;
use crate::ids::{KeyId, SessionId, TxnId};

/// A disjoint-set forest over dense `u32` indices (path halving + union by
/// rank).
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    #[must_use]
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..u32::try_from(n).expect("index fits u32")).collect(),
            rank: vec![0; n],
        }
    }

    /// Finds the representative of `x`'s set.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            // Path halving: point every other node at its grandparent.
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merges the sets containing `a` and `b`; returns `true` if they were
    /// distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (small, large) = if self.rank[ra as usize] < self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = large;
        if self.rank[small as usize] == self.rank[large as usize] {
            self.rank[large as usize] += 1;
        }
        true
    }
}

/// The key/session-connectivity decomposition of a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyComponents {
    /// The components, each a sorted list of committed transaction ids.
    /// Components are ordered by their smallest member, so the decomposition
    /// is deterministic for a given history.
    components: Vec<Vec<TxnId>>,
    /// Total committed transactions across all components.
    total: usize,
}

impl KeyComponents {
    /// Computes the communication components of `history`.
    ///
    /// Transactions are merged when they access a common key or belong to the
    /// same session; `t0` and emptied transactions (e.g. produced by
    /// [`History::restrict`]) are skipped.
    #[must_use]
    pub fn of(history: &History) -> KeyComponents {
        let len = history.len();
        let mut uf = UnionFind::new(len);

        // Last committed transaction seen accessing each key.
        let mut last_on_key: Vec<Option<u32>> = vec![None; history.num_keys()];
        // Last committed transaction seen in each session.
        let mut last_in_session: Vec<Option<u32>> = vec![None; history.num_sessions()];

        let mut total = 0usize;
        for txn in history.committed_transactions() {
            if txn.events.is_empty() && txn.session.is_none() {
                continue; // dropped by a restriction
            }
            total += 1;
            let index = txn.id.0;
            for event in &txn.events {
                let slot = &mut last_on_key[event.key.index()];
                if let Some(previous) = *slot {
                    uf.union(previous, index);
                }
                *slot = Some(index);
            }
            if let Some(session) = txn.session {
                let slot = &mut last_in_session[session.index()];
                if let Some(previous) = *slot {
                    uf.union(previous, index);
                }
                *slot = Some(index);
            }
        }

        // Group by representative, keyed by the smallest member for a
        // deterministic component order.
        let mut by_root: std::collections::HashMap<u32, Vec<TxnId>> =
            std::collections::HashMap::new();
        for txn in history.committed_transactions() {
            if txn.events.is_empty() && txn.session.is_none() {
                continue;
            }
            by_root.entry(uf.find(txn.id.0)).or_default().push(txn.id);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the components are sorted below, so the HashMap order cannot leak"
        )]
        let mut components: Vec<Vec<TxnId>> = by_root.into_values().collect();
        for component in &mut components {
            component.sort_unstable();
        }
        components.sort_unstable_by_key(|component| component[0]);

        KeyComponents { components, total }
    }

    /// The components, ordered by smallest transaction id; each is sorted.
    #[must_use]
    pub fn components(&self) -> &[Vec<TxnId>] {
        &self.components
    }

    /// Number of components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the history has no committed transactions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Size of the largest component (0 for an empty history).
    #[must_use]
    pub fn largest(&self) -> usize {
        self.components.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Fraction of committed transactions in the largest component, in
    /// `[0, 1]`; `1.0` for an empty or single-component history.
    #[must_use]
    pub fn dominant_fraction(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.largest() as f64 / self.total as f64
        }
    }

    /// The keys accessed by component `index`.
    #[must_use]
    pub fn keys_of(&self, history: &History, index: usize) -> Vec<KeyId> {
        let mut keys: Vec<KeyId> = self.components[index]
            .iter()
            .flat_map(|&txn| history.txn(txn).events.iter().map(|event| event.key))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The sessions whose transactions belong to component `index`.
    #[must_use]
    pub fn sessions_of(&self, history: &History, index: usize) -> Vec<SessionId> {
        let mut sessions: Vec<SessionId> = self.components[index]
            .iter()
            .filter_map(|&txn| history.txn(txn).session)
            .collect();
        sessions.sort_unstable();
        sessions.dedup();
        sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryBuilder;

    /// Two sessions on key "x", two sessions on key "y": two components.
    fn two_component_history() -> History {
        let mut b = HistoryBuilder::new();
        let mut make = |key: &str| {
            let s1 = b.session(format!("{key}-writer"));
            let s2 = b.session(format!("{key}-reader"));
            let t1 = b.begin(s1);
            b.read(t1, key, TxnId::INITIAL);
            b.write(t1, key);
            b.commit(t1);
            let t2 = b.begin(s2);
            b.read(t2, key, t1);
            b.write(t2, key);
            b.commit(t2);
        };
        make("x");
        make("y");
        b.finish()
    }

    #[test]
    fn union_find_merges_and_finds() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(3, 4));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(3));
        assert!(uf.union(1, 4));
        assert_eq!(uf.find(0), uf.find(3));
        assert_ne!(uf.find(2), uf.find(0));
    }

    #[test]
    fn key_disjoint_sessions_split_into_components() {
        let history = two_component_history();
        let components = KeyComponents::of(&history);
        assert_eq!(components.len(), 2);
        assert_eq!(
            components.components()[0],
            vec![TxnId(1), TxnId(2)],
            "components are ordered by smallest member"
        );
        assert_eq!(components.components()[1], vec![TxnId(3), TxnId(4)]);
        assert!((components.dominant_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(components.largest(), 2);
        assert_eq!(
            components.keys_of(&history, 0),
            vec![history.key_id("x").unwrap()]
        );
        assert_eq!(components.sessions_of(&history, 0).len(), 2);
    }

    #[test]
    fn shared_keys_merge_components() {
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let t1 = b.begin(s1);
        b.write(t1, "x");
        b.write(t1, "y");
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(t2, "y", t1);
        b.commit(t2);
        let history = b.finish();
        let components = KeyComponents::of(&history);
        assert_eq!(components.len(), 1);
        assert!((components.dominant_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sessions_merge_key_disjoint_transactions() {
        // One session touching x then y: session order glues the component.
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let t1 = b.begin(s1);
        b.write(t1, "x");
        b.commit(t1);
        let t2 = b.begin(s1);
        b.write(t2, "y");
        b.commit(t2);
        let history = b.finish();
        assert_eq!(KeyComponents::of(&history).len(), 1);
    }

    #[test]
    fn restriction_leftovers_are_ignored() {
        let history = two_component_history();
        let restricted = history.restrict(&[TxnId(1), TxnId(2)], false);
        let components = KeyComponents::of(&restricted);
        assert_eq!(components.len(), 1);
        assert_eq!(components.components()[0], vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn empty_history_has_no_components() {
        let history = HistoryBuilder::new().finish();
        let components = KeyComponents::of(&history);
        assert!(components.is_empty());
        assert_eq!(components.len(), 0);
        assert_eq!(components.largest(), 0);
        assert!((components.dominant_fraction() - 1.0).abs() < 1e-9);
    }
}
