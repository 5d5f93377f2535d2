//! Property-based integration tests over the store's weak execution modes and
//! the history-level checkers.

use proptest::prelude::*;

use isopredict_history::{causal, readcommitted, serializability, si, HistoryBuilder, TxnId};
use isopredict_store::{Engine, IsolationLevel, StoreMode, Value};

/// A small random program: per session, a list of transactions, each a list
/// of (key index, is_write) operations.
fn program_strategy() -> impl Strategy<Value = Vec<Vec<Vec<(u8, bool)>>>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec((0u8..3, any::<bool>()), 1..4), 1..4),
        1..4,
    )
}

fn run_program(program: &[Vec<Vec<(u8, bool)>>], mode: StoreMode) -> isopredict_history::History {
    let engine = Engine::new(mode);
    for key in 0..3u8 {
        engine.set_initial(&format!("k{key}"), Value::Int(0));
    }
    let clients: Vec<_> = (0..program.len())
        .map(|s| engine.client(format!("s{s}")))
        .collect();
    // Round-robin the sessions' transactions.
    let max_txns = program.iter().map(Vec::len).max().unwrap_or(0);
    for txn_index in 0..max_txns {
        for (session, txns) in program.iter().enumerate() {
            let Some(ops) = txns.get(txn_index) else {
                continue;
            };
            let mut txn = clients[session].begin();
            // Declare the write set up front, as a snapshot-isolation client
            // (ignored by the other levels).
            txn.declare_writes(
                ops.iter()
                    .filter(|(_, is_write)| *is_write)
                    .map(|(key, _)| format!("k{key}")),
            );
            for (key, is_write) in ops {
                let key = format!("k{key}");
                if *is_write {
                    let value = txn.get_int(&key, 0);
                    txn.put(&key, value + 1);
                } else {
                    let _ = txn.get(&key);
                }
            }
            txn.commit();
        }
    }
    engine.history()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serializable recording always yields serializable histories.
    #[test]
    fn serializable_recording_is_serializable(program in program_strategy()) {
        let history = run_program(&program, StoreMode::SerializableRecord);
        prop_assert!(serializability::check(&history).is_serializable());
        // Serializability is the strongest level of the seam: every weaker
        // checker — snapshot isolation included — must accept the history.
        for level in IsolationLevel::ALL {
            prop_assert!(level.is_conformant(&history), "{}", level);
        }
    }

    /// Random weak executions always conform to their isolation level.
    #[test]
    fn weak_random_causal_is_causal(program in program_strategy(), seed in 0u64..1000) {
        let history = run_program(
            &program,
            StoreMode::WeakRandom { level: IsolationLevel::Causal, seed },
        );
        prop_assert!(causal::is_causal(&history));
        // causal implies read committed.
        prop_assert!(readcommitted::is_read_committed(&history));
    }

    /// Random weak rc executions conform to read committed.
    #[test]
    fn weak_random_rc_is_read_committed(program in program_strategy(), seed in 0u64..1000) {
        let history = run_program(
            &program,
            StoreMode::WeakRandom { level: IsolationLevel::ReadCommitted, seed },
        );
        prop_assert!(readcommitted::is_read_committed(&history));
    }

    /// Random weak snapshot-isolation executions conform to SI — the
    /// declared-write-set chooser really does enforce first-committer-wins.
    #[test]
    fn weak_random_snapshot_is_si(program in program_strategy(), seed in 0u64..1000) {
        let history = run_program(
            &program,
            StoreMode::WeakRandom { level: IsolationLevel::Snapshot, seed },
        );
        prop_assert!(si::is_si(&history));
        // SI implies causal (and hence read committed) in this framework.
        prop_assert!(causal::is_causal(&history));
    }

    /// Serializability is monotone under event removal: dropping transactions
    /// (and the reads that observed them) from a serializable history keeps
    /// it serializable, because removing events only removes constraints.
    /// (Note that *retargeting* those reads to the initial state instead is a
    /// semantic change and may well introduce anomalies — that is exactly the
    /// kind of alternative execution the predictor searches for.)
    #[test]
    fn serializability_is_preserved_by_restriction(program in program_strategy(), keep_mask in any::<u16>()) {
        let history = run_program(&program, StoreMode::SerializableRecord);
        let keep: Vec<TxnId> = history
            .committed_transactions()
            .enumerate()
            .filter(|(i, _)| keep_mask & (1 << (i % 16)) != 0)
            .map(|(_, t)| t.id)
            .collect();
        let restricted = history.restrict(&keep);
        prop_assert!(serializability::check(&restricted).is_serializable());
    }
}

/// Deterministic regression: the checkers agree on the strictness ordering
/// serializable ⊂ snapshot isolation ⊂ causal ⊂ rc on the running examples.
#[test]
fn isolation_level_strictness_on_the_paper_examples() {
    // Racing deposits (a lost update): causal and rc but neither
    // serializable nor SI.
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
    assert!(!serializability::check(&racing).is_serializable());
    assert!(!si::is_si(&racing));
    assert!(causal::is_causal(&racing));
    assert!(readcommitted::is_read_committed(&racing));

    // Write skew: SI (and so causal and rc) but not serializable.
    let mut b = HistoryBuilder::new();
    let s1 = b.session("s1");
    let s2 = b.session("s2");
    let t1 = b.begin(s1);
    b.read(t1, "x", TxnId::INITIAL);
    b.write(t1, "y");
    b.commit(t1);
    let t2 = b.begin(s2);
    b.read(t2, "y", TxnId::INITIAL);
    b.write(t2, "x");
    b.commit(t2);
    let skew = b.finish();
    assert!(!serializability::check(&skew).is_serializable());
    assert!(si::is_si(&skew));
    assert!(causal::is_causal(&skew));
    assert!(readcommitted::is_read_committed(&skew));
}
