//! The `⟨T, so, wr⟩` execution-history type.

use std::collections::HashMap;

use crate::event::{Event, EventKind};
use crate::ids::{KeyId, SessionId, TxnId};

/// A committed transaction of a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// The transaction's identifier (its index in the history).
    pub id: TxnId,
    /// The session the transaction executed in; `None` for the initial-state
    /// transaction `t0`.
    pub session: Option<SessionId>,
    /// The transaction's events in program order.
    pub events: Vec<Event>,
}

impl Transaction {
    /// Positions (within the session) of this transaction's reads of `key` —
    /// the paper's `rdpos_k(t)`.
    #[must_use]
    pub fn read_positions_of_key(&self, key: KeyId) -> Vec<usize> {
        self.events
            .iter()
            .filter(|e| e.is_read() && e.key == key)
            .map(|e| e.pos)
            .collect()
    }

    /// Positions of all of this transaction's reads — the paper's `rdpos_*(t)`.
    #[must_use]
    pub fn read_positions(&self) -> Vec<usize> {
        self.events
            .iter()
            .filter(|e| e.is_read())
            .map(|e| e.pos)
            .collect()
    }

    /// Position of this transaction's (last) write to `key` — the paper's
    /// `wrpos_k(t)` — or `None` if it does not write `key`.
    #[must_use]
    pub fn write_position(&self, key: KeyId) -> Option<usize> {
        self.events
            .iter()
            .filter(|e| e.is_write() && e.key == key)
            .map(|e| e.pos)
            .next_back()
    }

    /// Keys written by this transaction.
    #[must_use]
    pub fn written_keys(&self) -> Vec<KeyId> {
        let mut keys: Vec<KeyId> = self
            .events
            .iter()
            .filter(|e| e.is_write())
            .map(|e| e.key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Keys read by this transaction.
    #[must_use]
    pub fn read_keys(&self) -> Vec<KeyId> {
        let mut keys: Vec<KeyId> = self
            .events
            .iter()
            .filter(|e| e.is_read())
            .map(|e| e.key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Whether the transaction performs no writes.
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.events.iter().all(|e| e.is_read())
    }

    /// The position of the transaction's last event within its session, or
    /// `None` if the transaction has no events.
    #[must_use]
    pub fn last_event_position(&self) -> Option<usize> {
        self.events.iter().map(|e| e.pos).max()
    }
}

/// An execution history `⟨T, so, wr⟩` of a data store application.
///
/// Construct histories with [`crate::HistoryBuilder`] or by converting a
/// recorded [`crate::Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History {
    pub(crate) key_names: Vec<String>,
    pub(crate) key_index: HashMap<String, KeyId>,
    pub(crate) transactions: Vec<Transaction>,
    /// For each session, its transactions in session order.
    pub(crate) sessions: Vec<Vec<TxnId>>,
    pub(crate) session_names: Vec<String>,
}

impl History {
    /// All transactions including `t0` (always at index 0).
    #[must_use]
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// The transactions other than `t0`.
    pub fn committed_transactions(&self) -> impl Iterator<Item = &Transaction> {
        self.transactions.iter().skip(1)
    }

    /// Looks up a transaction.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this history.
    #[must_use]
    pub fn txn(&self, id: TxnId) -> &Transaction {
        &self.transactions[id.index()]
    }

    /// The initial-state transaction `t0`.
    #[must_use]
    pub fn initial(&self) -> &Transaction {
        &self.transactions[0]
    }

    /// Number of transactions, including `t0`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the history contains only `t0`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transactions.len() <= 1
    }

    /// Number of sessions.
    #[must_use]
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// The transactions of `session`, in session order.
    #[must_use]
    pub fn session_transactions(&self, session: SessionId) -> &[TxnId] {
        &self.sessions[session.index()]
    }

    /// The name given to `session` when it was created.
    #[must_use]
    pub fn session_name(&self, session: SessionId) -> &str {
        &self.session_names[session.index()]
    }

    /// All session identifiers.
    pub fn sessions(&self) -> impl Iterator<Item = SessionId> {
        (0..self.sessions.len() as u32).map(SessionId)
    }

    /// Number of interned keys.
    #[must_use]
    pub fn num_keys(&self) -> usize {
        self.key_names.len()
    }

    /// All key identifiers.
    pub fn keys(&self) -> impl Iterator<Item = KeyId> {
        (0..self.key_names.len() as u32).map(KeyId)
    }

    /// The name of a key.
    #[must_use]
    pub fn key_name(&self, key: KeyId) -> &str {
        &self.key_names[key.index()]
    }

    /// Looks a key up by name.
    #[must_use]
    pub fn key_id(&self, name: &str) -> Option<KeyId> {
        self.key_index.get(name).copied()
    }

    /// Session order: `so(t1, t2)` holds if both run in the same session and
    /// `t1` precedes `t2`, or if `t1` is `t0` and `t2` is not.
    #[must_use]
    pub fn so(&self, t1: TxnId, t2: TxnId) -> bool {
        if t1 == t2 {
            return false;
        }
        if t1.is_initial() {
            return !t2.is_initial();
        }
        if t2.is_initial() {
            return false;
        }
        match (self.txn(t1).session, self.txn(t2).session) {
            (Some(s1), Some(s2)) if s1 == s2 => {
                let order = &self.sessions[s1.index()];
                let p1 = order.iter().position(|&t| t == t1);
                let p2 = order.iter().position(|&t| t == t2);
                matches!((p1, p2), (Some(a), Some(b)) if a < b)
            }
            _ => false,
        }
    }

    /// Observed write–read relation restricted to `key`: `wr_k(t1, t2)` holds
    /// if some read of `key` in `t2` reads from `t1`.
    #[must_use]
    pub fn wr_on_key(&self, key: KeyId, t1: TxnId, t2: TxnId) -> bool {
        if t1 == t2 {
            return false;
        }
        self.txn(t2)
            .events
            .iter()
            .any(|e| e.key == key && e.kind == EventKind::Read { from: t1 })
    }

    /// Observed write–read relation (union over all keys).
    #[must_use]
    pub fn wr(&self, t1: TxnId, t2: TxnId) -> bool {
        if t1 == t2 {
            return false;
        }
        self.txn(t2)
            .events
            .iter()
            .any(|e| e.kind == EventKind::Read { from: t1 })
    }

    /// All `(writer, reader, key, reader position)` tuples of the observed
    /// write–read relation.
    #[must_use]
    pub fn wr_tuples(&self) -> Vec<(TxnId, TxnId, KeyId, usize)> {
        let mut tuples = Vec::new();
        for txn in &self.transactions {
            for event in &txn.events {
                if let EventKind::Read { from } = event.kind {
                    tuples.push((from, txn.id, event.key, event.pos));
                }
            }
        }
        tuples
    }

    /// Transactions whose last-write set contains `key` (including `t0`,
    /// which implicitly writes every key's initial value).
    #[must_use]
    pub fn writers_of(&self, key: KeyId) -> Vec<TxnId> {
        self.transactions
            .iter()
            .filter(|t| t.id.is_initial() || t.write_position(key).is_some())
            .map(|t| t.id)
            .collect()
    }

    /// Transactions that read `key`.
    #[must_use]
    pub fn readers_of(&self, key: KeyId) -> Vec<TxnId> {
        self.transactions
            .iter()
            .filter(|t| t.events.iter().any(|e| e.is_read() && e.key == key))
            .map(|t| t.id)
            .collect()
    }

    /// Total number of read events (excluding `t0`).
    #[must_use]
    pub fn num_reads(&self) -> usize {
        self.committed_transactions()
            .map(|t| t.events.iter().filter(|e| e.is_read()).count())
            .sum()
    }

    /// Total number of write events (excluding `t0`).
    #[must_use]
    pub fn num_writes(&self) -> usize {
        self.committed_transactions()
            .map(|t| t.events.iter().filter(|e| e.is_write()).count())
            .sum()
    }

    /// Number of committed transactions that perform no writes.
    #[must_use]
    pub fn num_read_only(&self) -> usize {
        self.committed_transactions()
            .filter(|t| t.is_read_only())
            .count()
    }

    /// The largest event position used in `session` (the "last event" that a
    /// relaxed prediction boundary may sit after), or `None` if the session
    /// has no events.
    #[must_use]
    pub fn last_position(&self, session: SessionId) -> Option<usize> {
        self.sessions[session.index()]
            .iter()
            .filter_map(|&t| self.txn(t).last_event_position())
            .max()
    }

    /// Returns a copy of the history in which every event has been transformed
    /// (or dropped) by `f`, preserving transaction identifiers, sessions, key
    /// interning and event positions. Used to derive *predicted* histories
    /// from an observed history: the caller rewrites each read's writer and
    /// drops events beyond the prediction boundary.
    #[must_use]
    pub fn map_events<F>(&self, mut f: F) -> History
    where
        F: FnMut(&Transaction, &Event) -> Option<Event>,
    {
        let transactions = self
            .transactions
            .iter()
            .map(|txn| Transaction {
                id: txn.id,
                session: txn.session,
                events: txn.events.iter().filter_map(|e| f(txn, e)).collect(),
            })
            .collect();
        History {
            key_names: self.key_names.clone(),
            key_index: self.key_index.clone(),
            transactions,
            sessions: self.sessions.clone(),
            session_names: self.session_names.clone(),
        }
    }

    /// Restricts the history to the given transactions (plus `t0`, which is
    /// always kept). Surviving transactions keep their identifiers so that
    /// relations computed before and after the restriction remain comparable;
    /// dropped transactions become *empty* transactions detached from their
    /// session (an empty transaction never affects serializability or the
    /// weak-isolation checks). Reads whose writer was dropped are removed;
    /// a set closed under communication (a union of
    /// [`crate::connectivity::KeyComponents`] components) has none.
    #[must_use]
    pub fn restrict(&self, keep: &[TxnId]) -> History {
        let keep_set: std::collections::HashSet<TxnId> = keep.iter().copied().collect();
        let mut transactions = Vec::with_capacity(self.transactions.len());
        for txn in &self.transactions {
            if !txn.id.is_initial() && !keep_set.contains(&txn.id) {
                transactions.push(Transaction {
                    id: txn.id,
                    session: None,
                    events: Vec::new(),
                });
                continue;
            }
            let events = txn
                .events
                .iter()
                .filter(|event| match event.kind {
                    EventKind::Read { from } => from.is_initial() || keep_set.contains(&from),
                    _ => true,
                })
                .copied()
                .collect();
            transactions.push(Transaction {
                id: txn.id,
                session: txn.session,
                events,
            });
        }
        let sessions = self
            .sessions
            .iter()
            .map(|txns| {
                txns.iter()
                    .copied()
                    .filter(|t| keep_set.contains(t))
                    .collect()
            })
            .collect();
        History {
            key_names: self.key_names.clone(),
            key_index: self.key_index.clone(),
            transactions,
            sessions,
            session_names: self.session_names.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryBuilder;

    fn two_txn_history() -> History {
        let mut b = HistoryBuilder::new();
        let s1 = b.session("s1");
        let s2 = b.session("s2");
        let t1 = b.begin(s1);
        b.read(t1, "x", TxnId::INITIAL);
        b.write(t1, "x");
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(t2, "x", t1);
        b.write(t2, "x");
        b.commit(t2);
        b.finish()
    }

    #[test]
    fn basic_accessors() {
        let h = two_txn_history();
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        assert_eq!(h.num_sessions(), 2);
        assert_eq!(h.num_keys(), 1);
        assert_eq!(h.key_name(KeyId(0)), "x");
        assert_eq!(h.key_id("x"), Some(KeyId(0)));
        assert_eq!(h.key_id("missing"), None);
        assert_eq!(h.num_reads(), 2);
        assert_eq!(h.num_writes(), 2);
        assert_eq!(h.num_read_only(), 0);
        assert_eq!(h.session_name(SessionId(0)), "s1");
    }

    #[test]
    fn session_order_includes_initial_transaction() {
        let h = two_txn_history();
        let t1 = TxnId(1);
        let t2 = TxnId(2);
        assert!(h.so(TxnId::INITIAL, t1));
        assert!(h.so(TxnId::INITIAL, t2));
        assert!(!h.so(t1, TxnId::INITIAL));
        // Different sessions are not so-ordered.
        assert!(!h.so(t1, t2));
        assert!(!h.so(t2, t1));
        assert!(!h.so(t1, t1));
    }

    #[test]
    fn write_read_relation_matches_construction() {
        let h = two_txn_history();
        let x = KeyId(0);
        assert!(h.wr_on_key(x, TxnId::INITIAL, TxnId(1)));
        assert!(h.wr_on_key(x, TxnId(1), TxnId(2)));
        assert!(!h.wr_on_key(x, TxnId(2), TxnId(1)));
        assert!(h.wr(TxnId(1), TxnId(2)));
        assert_eq!(h.wr_tuples().len(), 2);
    }

    #[test]
    fn writers_and_readers_of_key() {
        let h = two_txn_history();
        let x = KeyId(0);
        let writers = h.writers_of(x);
        assert!(writers.contains(&TxnId::INITIAL));
        assert!(writers.contains(&TxnId(1)));
        assert!(writers.contains(&TxnId(2)));
        let readers = h.readers_of(x);
        assert_eq!(readers, vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn transaction_position_helpers() {
        let h = two_txn_history();
        let t1 = h.txn(TxnId(1));
        let x = KeyId(0);
        assert_eq!(t1.read_positions_of_key(x), vec![0]);
        assert_eq!(t1.read_positions(), vec![0]);
        assert_eq!(t1.write_position(x), Some(1));
        assert_eq!(t1.written_keys(), vec![x]);
        assert_eq!(t1.read_keys(), vec![x]);
        assert!(!t1.is_read_only());
        assert_eq!(t1.last_event_position(), Some(1));
        assert_eq!(h.last_position(SessionId(0)), Some(1));
    }

    #[test]
    fn restriction_drops_transactions_and_their_readers_edges() {
        let h = two_txn_history();
        // Keep only t2: its read of x from t1 must be dropped.
        let restricted = h.restrict(&[TxnId(2)]);
        assert_eq!(restricted.len(), 3); // t0, an emptied t1, and t2
        assert!(restricted.txn(TxnId(1)).events.is_empty());
        assert!(restricted.txn(TxnId(1)).session.is_none());
        assert_eq!(
            restricted.session_transactions(SessionId(0)),
            &[] as &[TxnId]
        );
        let t2 = restricted.txn(TxnId(2));
        assert_eq!(t2.events.iter().filter(|e| e.is_read()).count(), 0);
    }
}
