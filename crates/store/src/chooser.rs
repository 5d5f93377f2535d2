//! Writer-choice logic: which committed write should a read observe?

use isopredict_history::{HistoryBuilder, TxnId};

use crate::isolation::IsolationLevel;

/// Returns the candidates (a subset of `candidates`) from which the open
/// transaction may legally read `key` without violating `level`.
///
/// The check is the axiomatic one: tentatively extend the recorded history
/// with the candidate read, commit the open transaction's prefix, and test the
/// isolation level on the resulting history with
/// [`IsolationLevel::is_conformant`]. Histories hold a few
/// dozen transactions, so the checks are cheap.
pub(crate) fn legal_writers(
    builder: &HistoryBuilder,
    open_txn: TxnId,
    declared_writes: &[String],
    key: &str,
    candidates: &[TxnId],
    level: IsolationLevel,
) -> Vec<TxnId> {
    candidates
        .iter()
        .copied()
        .filter(|&writer| is_legal(builder, open_txn, declared_writes, key, writer, level))
        .collect()
}

/// Whether reading `key` from `writer` keeps the execution valid under `level`.
///
/// Levels whose semantics constrain write–write conflicts (first-committer
/// wins; see [`IsolationLevel::write_conflicts`])
/// additionally charge the open transaction with its *declared* write set, so
/// that a read-modify-write never observes a writer it would conflict with at
/// commit time. Declared writes are an over-approximation supplied by the
/// application via [`crate::OpenTxn::declare_writes`].
pub(crate) fn is_legal(
    builder: &HistoryBuilder,
    open_txn: TxnId,
    declared_writes: &[String],
    key: &str,
    writer: TxnId,
    level: IsolationLevel,
) -> bool {
    let mut tentative = builder.clone();
    tentative.read(open_txn, key, writer);
    if level.write_conflicts() {
        for write_key in declared_writes {
            tentative.write(open_txn, write_key);
        }
    }
    tentative.commit(open_txn);
    level.is_conformant(&tentative.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use isopredict_history::SessionId;

    const NO_WRITES: &[String] = &[];

    /// Session A writes x twice (t1 then t2); session B already read x from
    /// t2. Under causal, a later read of x in the same session-B transaction
    /// may not go back to t1 or the initial state.
    fn builder_with_stale_read() -> (HistoryBuilder, TxnId) {
        let mut b = HistoryBuilder::new();
        let sa = b.session("A");
        let sb = b.session("B");
        let t1 = b.begin(sa);
        b.write(t1, "x");
        b.commit(t1);
        let t2 = b.begin(sa);
        b.read(t2, "x", t1);
        b.write(t2, "x");
        b.commit(t2);
        let open = b.begin(sb);
        b.read(open, "x", t2);
        (b, open)
    }

    #[test]
    fn causal_forbids_going_back_in_time_within_a_transaction() {
        let (builder, open) = builder_with_stale_read();
        let t1 = TxnId(1);
        let t2 = TxnId(2);
        let legal = legal_writers(
            &builder,
            open,
            NO_WRITES,
            "x",
            &[TxnId::INITIAL, t1, t2],
            IsolationLevel::Causal,
        );
        assert_eq!(legal, vec![t2]);
    }

    #[test]
    fn read_committed_also_forbids_observing_older_writes_after_newer_ones() {
        // Under rc, the second read of x may not observe t1 (hb-before t2)
        // after the first read observed t2: that is exactly ww_rc.
        let (builder, open) = builder_with_stale_read();
        let t1 = TxnId(1);
        let t2 = TxnId(2);
        assert!(!is_legal(
            &builder,
            open,
            NO_WRITES,
            "x",
            t1,
            IsolationLevel::ReadCommitted
        ));
        assert!(is_legal(
            &builder,
            open,
            NO_WRITES,
            "x",
            t2,
            IsolationLevel::ReadCommitted
        ));
    }

    #[test]
    fn fresh_transactions_may_read_anything_under_causal() {
        let mut b = HistoryBuilder::new();
        let sa = b.session("A");
        let sb = b.session("B");
        let t1 = b.begin(sa);
        b.write(t1, "x");
        b.commit(t1);
        let t2 = b.begin(sa);
        b.write(t2, "x");
        b.commit(t2);
        let open = b.begin(sb);
        let _ = SessionId(1);
        let legal = legal_writers(
            &b,
            open,
            NO_WRITES,
            "x",
            &[TxnId::INITIAL, TxnId(1), TxnId(2)],
            IsolationLevel::Causal,
        );
        assert_eq!(legal, vec![TxnId::INITIAL, TxnId(1), TxnId(2)]);
    }

    #[test]
    fn session_order_constrains_later_transactions_of_the_same_session() {
        // Session B's first transaction read x from t2; a *later* transaction
        // of session B must not read x from the initial state under causal.
        let mut b = HistoryBuilder::new();
        let sa = b.session("A");
        let sb = b.session("B");
        let t1 = b.begin(sa);
        b.write(t1, "x");
        b.commit(t1);
        let tb1 = b.begin(sb);
        b.read(tb1, "x", t1);
        b.commit(tb1);
        let open = b.begin(sb);
        assert!(!is_legal(
            &b,
            open,
            NO_WRITES,
            "x",
            TxnId::INITIAL,
            IsolationLevel::Causal
        ));
        assert!(is_legal(
            &b,
            open,
            NO_WRITES,
            "x",
            t1,
            IsolationLevel::Causal
        ));
        // Read committed is weaker and allows the stale read across
        // transactions (it only constrains reads within one transaction).
        assert!(is_legal(
            &b,
            open,
            NO_WRITES,
            "x",
            TxnId::INITIAL,
            IsolationLevel::ReadCommitted
        ));
    }

    #[test]
    fn snapshot_isolation_forces_rmw_transactions_onto_the_latest_writer() {
        // A chain of committed read-modify-writes of x; the open transaction
        // *declares* it will write x (a read-modify-write too).
        // First-committer-wins then forbids reading anything but the latest
        // writer — exactly what rules out the lost update that causal still
        // allows.
        let mut b = HistoryBuilder::new();
        let sa = b.session("A");
        let sb = b.session("B");
        let t1 = b.begin(sa);
        b.read(t1, "x", TxnId::INITIAL);
        b.write(t1, "x");
        b.commit(t1);
        let t2 = b.begin(sa);
        b.read(t2, "x", t1);
        b.write(t2, "x");
        b.commit(t2);
        let open = b.begin(sb);
        let declared = vec!["x".to_string()];
        let si_legal = legal_writers(
            &b,
            open,
            &declared,
            "x",
            &[TxnId::INITIAL, t1, t2],
            IsolationLevel::Snapshot,
        );
        assert_eq!(si_legal, vec![t2]);
        // Without the declared write (a read-only transaction) any consistent
        // snapshot is fine.
        let read_only = legal_writers(
            &b,
            open,
            NO_WRITES,
            "x",
            &[TxnId::INITIAL, t1, t2],
            IsolationLevel::Snapshot,
        );
        assert_eq!(read_only, vec![TxnId::INITIAL, t1, t2]);
        // Causal ignores the declared writes entirely.
        let causal_legal = legal_writers(
            &b,
            open,
            &declared,
            "x",
            &[TxnId::INITIAL, t1, t2],
            IsolationLevel::Causal,
        );
        assert_eq!(causal_legal, vec![TxnId::INITIAL, t1, t2]);
    }

    #[test]
    fn snapshot_isolation_allows_write_skew_reads() {
        // t1 read x and y and updated y; the open transaction reads y stale
        // and declares a write of x only — no write–write conflict, so the
        // stale read stays legal (this is exactly how write skew arises).
        let mut b = HistoryBuilder::new();
        let sa = b.session("A");
        let sb = b.session("B");
        let t1 = b.begin(sa);
        b.read(t1, "x", TxnId::INITIAL);
        b.read(t1, "y", TxnId::INITIAL);
        b.write(t1, "y");
        b.commit(t1);
        let open = b.begin(sb);
        let declared = vec!["x".to_string()];
        assert!(is_legal(
            &b,
            open,
            &declared,
            "y",
            TxnId::INITIAL,
            IsolationLevel::Snapshot
        ));
        // Declaring a write of y instead creates the conflict and forbids the
        // stale read.
        let conflicting = vec!["y".to_string()];
        assert!(!is_legal(
            &b,
            open,
            &conflicting,
            "y",
            TxnId::INITIAL,
            IsolationLevel::Snapshot
        ));
    }
}
