//! The store engine: sessions, transactions, recording, and the four
//! execution modes.

use std::collections::HashMap;

use parking_lot::Mutex;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use isopredict_history::{History, HistoryBuilder, SessionId, TxnId};

use crate::chooser;
use crate::isolation::{IsolationLevel, StoreMode};
use crate::replay::{Divergence, DivergenceKind};
use crate::value::Value;
use crate::version::VersionedStore;

/// Aggregate counters for one execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Read events recorded (excluding reads served from the transaction's
    /// own write buffer).
    pub reads: u64,
    /// Write events recorded.
    pub writes: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted (rolled back) transactions.
    pub aborts: u64,
}

#[derive(Debug)]
struct OpenState {
    txn: TxnId,
    write_buffer: HashMap<String, Value>,
    /// Keys the application announced it may write (see
    /// [`OpenTxn::declare_writes`]); consulted by write-conflict-sensitive
    /// isolation levels when choosing legal writers.
    declared_writes: Vec<String>,
}

#[derive(Debug)]
struct Inner {
    mode: StoreMode,
    rng: ChaCha8Rng,
    store: VersionedStore,
    builder: HistoryBuilder,
    /// Committed transactions per session, in commit order (builder ids).
    committed_per_session: Vec<Vec<TxnId>>,
    open: HashMap<SessionId, OpenState>,
    commit_seq: u64,
    divergences: Vec<Divergence>,
    stats: RunStats,
}

/// The transactional key–value store engine.
///
/// See the [crate-level documentation](crate) for an overview and example.
#[derive(Debug)]
pub struct Engine {
    inner: Mutex<Inner>,
}

impl Engine {
    /// Creates an engine running in `mode`.
    #[must_use]
    pub fn new(mode: StoreMode) -> Self {
        let seed = match &mode {
            StoreMode::WeakRandom { seed, .. } => *seed,
            _ => 0,
        };
        Engine {
            inner: Mutex::new(Inner {
                mode,
                rng: ChaCha8Rng::seed_from_u64(seed),
                store: VersionedStore::new(),
                builder: HistoryBuilder::new(),
                committed_per_session: Vec::new(),
                open: HashMap::new(),
                commit_seq: 0,
                divergences: Vec::new(),
                stats: RunStats::default(),
            }),
        }
    }

    /// Installs an initial value for `key`, attributed to the initial-state
    /// transaction `t0`. Workloads use this for their load phase, which is
    /// not part of the analyzed history.
    pub fn set_initial(&self, key: &str, value: Value) {
        self.inner.lock().store.set_initial(key, value);
    }

    /// Opens a client session.
    pub fn client(&self, name: impl Into<String>) -> Client<'_> {
        let session = self.inner.lock().builder.session(name.into());
        let mut inner = self.inner.lock();
        while inner.committed_per_session.len() <= session.index() {
            inner.committed_per_session.push(Vec::new());
        }
        Client {
            engine: self,
            session,
        }
    }

    /// The execution recorded so far as a [`History`].
    #[must_use]
    pub fn history(&self) -> History {
        self.inner.lock().builder.clone().finish()
    }

    /// A stable label for the mode this engine runs in (see
    /// [`StoreMode::label`]).
    #[must_use]
    pub fn mode_label(&self) -> String {
        self.inner.lock().mode.label()
    }

    /// Reads the latest committed value of `key` without going through a
    /// transaction and without recording an event. Used by workload
    /// assertion checks that inspect the final state.
    #[must_use]
    pub fn peek(&self, key: &str) -> Option<Value> {
        self.inner
            .lock()
            .store
            .latest(key)
            .map(|version| version.value.clone())
    }

    /// Like [`Engine::peek`] but returns an integer, treating a missing value
    /// as `default`.
    #[must_use]
    pub fn peek_int(&self, key: &str, default: i64) -> i64 {
        self.peek(key).and_then(|v| v.as_int()).unwrap_or(default)
    }

    /// Divergences recorded while running in [`StoreMode::Controlled`].
    #[must_use]
    pub fn divergences(&self) -> Vec<Divergence> {
        self.inner.lock().divergences.clone()
    }

    /// Aggregate execution counters.
    #[must_use]
    pub fn stats(&self) -> RunStats {
        self.inner.lock().stats
    }

    fn begin(&self, session: SessionId) -> TxnId {
        let mut inner = self.inner.lock();
        assert!(
            !inner.open.contains_key(&session),
            "session already has an open transaction"
        );
        let txn = inner.builder.begin(session);
        inner.open.insert(
            session,
            OpenState {
                txn,
                write_buffer: HashMap::new(),
                declared_writes: Vec::new(),
            },
        );
        txn
    }

    fn declare_writes(&self, session: SessionId, keys: Vec<String>) {
        let mut inner = self.inner.lock();
        let open = inner.open.get_mut(&session).expect("transaction is open");
        for key in keys {
            if !open.declared_writes.contains(&key) {
                open.declared_writes.push(key);
            }
        }
    }

    fn get(&self, session: SessionId, key: &str) -> Option<Value> {
        let mut inner = self.inner.lock();
        let open = inner.open.get(&session).expect("transaction is open");
        let open_txn = open.txn;

        // Read-your-own-writes from the buffer; not an event of the history.
        if let Some(value) = open.write_buffer.get(key) {
            return Some(value.clone());
        }

        let writer = inner.choose_writer(session, open_txn, key);
        let value = inner
            .store
            .by_writer(key, writer)
            .map(|version| version.value.clone());
        inner.builder.read(open_txn, key, writer);
        inner.stats.reads += 1;
        value
    }

    fn put(&self, session: SessionId, key: &str, value: Value) {
        let mut inner = self.inner.lock();
        let open = inner.open.get_mut(&session).expect("transaction is open");
        let open_txn = open.txn;
        open.write_buffer.insert(key.to_string(), value);
        inner.builder.write(open_txn, key);
        inner.stats.writes += 1;
    }

    fn commit(&self, session: SessionId) {
        let mut inner = self.inner.lock();
        let open = inner.open.remove(&session).expect("transaction is open");
        inner.commit_seq += 1;
        let seq = inner.commit_seq;
        #[expect(
            clippy::iter_over_hash_type,
            reason = "every buffered write installs under the same commit seq and keys are \
                      distinct, so install order is unobservable"
        )]
        for (key, value) in open.write_buffer {
            inner.store.install(&key, open.txn, seq, value);
        }
        inner.builder.commit(open.txn);
        inner.committed_per_session[session.index()].push(open.txn);
        inner.stats.commits += 1;
    }

    fn rollback(&self, session: SessionId) {
        let mut inner = self.inner.lock();
        let open = inner.open.remove(&session).expect("transaction is open");
        inner.builder.abort(open.txn);
        inner.stats.aborts += 1;
    }
}

impl Inner {
    /// Decides which committed transaction the next read of `key` by
    /// `open_txn` (running in `session`) observes, according to the mode.
    fn choose_writer(&mut self, session: SessionId, open_txn: TxnId, key: &str) -> TxnId {
        let latest = self
            .store
            .latest(key)
            .map(|v| v.writer)
            .unwrap_or(TxnId::INITIAL);

        // The mode stays borrowed only while its script is read: every arm
        // copies what it needs out of it before touching the rest of the
        // engine mutably. The chooser-driven arms detach the open
        // transaction's declared write set (the recording modes never
        // consult it, so they skip the clone).
        match &self.mode {
            StoreMode::SerializableRecord | StoreMode::RealisticRc => latest,
            StoreMode::WeakRandom { level, .. } => {
                let level = *level;
                let declared = self.declared_writes_of(session);
                let candidates = self.candidates(key);
                let legal = chooser::legal_writers(
                    &self.builder,
                    open_txn,
                    &declared,
                    key,
                    &candidates,
                    level,
                );
                legal.choose(&mut self.rng).copied().unwrap_or(latest)
            }
            StoreMode::Controlled { level, script } => {
                let level = *level;
                let declared = self.declared_writes_of(session);
                let position = self.builder.next_position(session);
                let Some(choice) = script.choice(session, position) else {
                    self.divergences.push(Divergence {
                        session,
                        position,
                        kind: DivergenceKind::PastPrediction,
                        key: key.to_string(),
                    });
                    return self.fallback_writer(&declared, open_txn, key, level, latest);
                };
                if choice.key != key {
                    self.divergences.push(Divergence {
                        session,
                        position,
                        kind: DivergenceKind::DifferentKey,
                        key: key.to_string(),
                    });
                    return self.fallback_writer(&declared, open_txn, key, level, latest);
                }
                // Resolve the predicted writer against this (validating) execution.
                let resolved = match choice.writer {
                    None => Some(TxnId::INITIAL),
                    Some((s, i)) => self
                        .committed_per_session
                        .get(s)
                        .and_then(|txns| txns.get(i))
                        .copied(),
                };
                let Some(writer) = resolved else {
                    self.divergences.push(Divergence {
                        session,
                        position,
                        kind: DivergenceKind::WriterMissing,
                        key: key.to_string(),
                    });
                    return self.fallback_writer(&declared, open_txn, key, level, latest);
                };
                let wrote_key = writer.is_initial() || self.store.by_writer(key, writer).is_some();
                if !wrote_key {
                    self.divergences.push(Divergence {
                        session,
                        position,
                        kind: DivergenceKind::WriterMissing,
                        key: key.to_string(),
                    });
                    return self.fallback_writer(&declared, open_txn, key, level, latest);
                }
                if !chooser::is_legal(&self.builder, open_txn, &declared, key, writer, level) {
                    self.divergences.push(Divergence {
                        session,
                        position,
                        kind: DivergenceKind::IsolationViolation,
                        key: key.to_string(),
                    });
                    return self.fallback_writer(&declared, open_txn, key, level, latest);
                }
                writer
            }
        }
    }

    /// The open transaction's declared write set (see
    /// [`OpenTxn::declare_writes`]), detached for the chooser.
    fn declared_writes_of(&self, session: SessionId) -> Vec<String> {
        self.open
            .get(&session)
            .map(|open| open.declared_writes.clone())
            .unwrap_or_default()
    }

    /// Candidate writers of `key`: every committed transaction with a version
    /// of the key, plus the initial state.
    fn candidates(&self, key: &str) -> Vec<TxnId> {
        let mut candidates: Vec<TxnId> =
            self.store.versions(key).iter().map(|v| v.writer).collect();
        if !candidates.contains(&TxnId::INITIAL) {
            candidates.push(TxnId::INITIAL);
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates
    }

    /// The writer used when the predicted execution cannot be followed: the
    /// latest *legal* writer under `level` (falling back to the latest
    /// committed writer if, unexpectedly, none is legal).
    fn fallback_writer(
        &mut self,
        declared_writes: &[String],
        open_txn: TxnId,
        key: &str,
        level: IsolationLevel,
        latest: TxnId,
    ) -> TxnId {
        let candidates = self.candidates(key);
        let legal = chooser::legal_writers(
            &self.builder,
            open_txn,
            declared_writes,
            key,
            &candidates,
            level,
        );
        // Prefer the latest committed legal writer for determinism.
        legal
            .iter()
            .copied()
            .max_by_key(|&w| {
                self.store
                    .by_writer(key, w)
                    .map(|v| v.commit_seq)
                    .unwrap_or(0)
            })
            .unwrap_or(latest)
    }
}

/// A client session of the engine.
#[derive(Debug)]
pub struct Client<'e> {
    engine: &'e Engine,
    session: SessionId,
}

impl<'e> Client<'e> {
    /// The session identifier in the recorded history.
    #[must_use]
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Starts a transaction.
    ///
    /// # Panics
    ///
    /// Panics if the session already has an open transaction.
    pub fn begin(&self) -> OpenTxn<'_> {
        let txn = self.engine.begin(self.session);
        OpenTxn {
            engine: self.engine,
            session: self.session,
            txn,
            finished: false,
        }
    }
}

/// An open transaction. Dropping it without calling [`OpenTxn::commit`] rolls
/// it back.
#[derive(Debug)]
pub struct OpenTxn<'e> {
    engine: &'e Engine,
    session: SessionId,
    txn: TxnId,
    finished: bool,
}

impl<'e> OpenTxn<'e> {
    /// The transaction's identifier in the recorder's numbering.
    #[must_use]
    pub fn id(&self) -> TxnId {
        self.txn
    }

    /// Declares keys this transaction may write before it commits.
    ///
    /// Write-conflict-sensitive isolation levels (snapshot isolation's
    /// first-committer-wins rule) charge the transaction with its declared
    /// writes when picking legal writers for its reads, so a read-modify-write
    /// never observes a version it would conflict with at commit time.
    /// Over-declaring (a conditional write that ends up skipped) is sound —
    /// the chooser just becomes more conservative; under-declaring can let a
    /// later write break the level. Levels without write-conflict rules
    /// (causal, read committed) ignore the declaration entirely.
    pub fn declare_writes<I, K>(&mut self, keys: I)
    where
        I: IntoIterator<Item = K>,
        K: Into<String>,
    {
        self.engine
            .declare_writes(self.session, keys.into_iter().map(Into::into).collect());
    }

    /// Reads `key`, returning `None` if the key has no value (never written,
    /// not even by the loader).
    pub fn get(&mut self, key: &str) -> Option<Value> {
        self.engine.get(self.session, key)
    }

    /// Reads `key` as an integer, treating a missing value as `default`.
    pub fn get_int(&mut self, key: &str, default: i64) -> i64 {
        self.get(key).and_then(|v| v.as_int()).unwrap_or(default)
    }

    /// Writes `key`.
    pub fn put(&mut self, key: &str, value: impl Into<Value>) {
        self.engine.put(self.session, key, value.into());
    }

    /// Commits the transaction.
    pub fn commit(mut self) {
        self.engine.commit(self.session);
        self.finished = true;
    }

    /// Rolls the transaction back.
    pub fn rollback(mut self) {
        self.engine.rollback(self.session);
        self.finished = true;
    }
}

impl Drop for OpenTxn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.engine.rollback(self.session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ReplayScript;
    use isopredict_history::serializability;

    #[test]
    fn serializable_recording_reads_latest_and_builds_history() {
        let engine = Engine::new(StoreMode::SerializableRecord);
        engine.set_initial("acct", Value::Int(0));
        let c1 = engine.client("c1");
        let c2 = engine.client("c2");

        let mut t1 = c1.begin();
        let balance = t1.get_int("acct", 0);
        t1.put("acct", balance + 50);
        t1.commit();

        let mut t2 = c2.begin();
        let balance = t2.get_int("acct", 0);
        assert_eq!(balance, 50, "observed executions read the latest write");
        t2.put("acct", balance + 60);
        t2.commit();

        let history = engine.history();
        assert_eq!(history.len(), 3);
        assert!(serializability::check(&history).is_serializable());
        assert_eq!(engine.stats().commits, 2);
        assert_eq!(engine.stats().reads, 2);
        assert_eq!(engine.stats().writes, 2);
    }

    #[test]
    fn read_own_writes_are_served_from_the_buffer() {
        let engine = Engine::new(StoreMode::SerializableRecord);
        let c = engine.client("c");
        let mut t = c.begin();
        t.put("x", 7);
        assert_eq!(t.get("x"), Some(Value::Int(7)));
        t.commit();
        // The read-own-write is not an event.
        let history = engine.history();
        assert_eq!(history.num_reads(), 0);
        assert_eq!(history.num_writes(), 1);
    }

    #[test]
    fn rollback_discards_writes_and_is_not_in_the_history() {
        let engine = Engine::new(StoreMode::SerializableRecord);
        engine.set_initial("x", Value::Int(1));
        let c = engine.client("c");
        let mut t = c.begin();
        t.put("x", 99);
        t.rollback();
        let mut t = c.begin();
        assert_eq!(t.get("x"), Some(Value::Int(1)));
        t.commit();
        let history = engine.history();
        assert_eq!(history.len(), 2);
        assert_eq!(engine.stats().aborts, 1);
    }

    #[test]
    fn dropping_an_open_transaction_rolls_it_back() {
        let engine = Engine::new(StoreMode::SerializableRecord);
        let c = engine.client("c");
        {
            let mut t = c.begin();
            t.put("x", 1);
            // dropped without commit
        }
        assert_eq!(engine.stats().aborts, 1);
        let mut t = c.begin();
        assert_eq!(t.get("x"), None);
        t.commit();
    }

    #[test]
    fn weak_random_causal_executions_stay_causal() {
        for seed in 0..5 {
            let engine = Engine::new(StoreMode::WeakRandom {
                level: IsolationLevel::Causal,
                seed,
            });
            engine.set_initial("acct", Value::Int(0));
            let c1 = engine.client("c1");
            let c2 = engine.client("c2");
            for client in [&c1, &c2] {
                let mut t = client.begin();
                let balance = t.get_int("acct", 0);
                t.put("acct", balance + 10);
                t.commit();
            }
            let history = engine.history();
            assert!(
                isopredict_history::causal::is_causal(&history),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn weak_random_rc_executions_stay_read_committed() {
        for seed in 0..5 {
            let engine = Engine::new(StoreMode::WeakRandom {
                level: IsolationLevel::ReadCommitted,
                seed,
            });
            engine.set_initial("x", Value::Int(0));
            engine.set_initial("y", Value::Int(0));
            let c1 = engine.client("c1");
            let c2 = engine.client("c2");
            for (client, key) in [(&c1, "x"), (&c2, "y")] {
                let mut t = client.begin();
                let _ = t.get(key);
                let _ = t.get("x");
                t.put(key, 1);
                t.commit();
            }
            let history = engine.history();
            assert!(
                isopredict_history::readcommitted::is_read_committed(&history),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn weak_random_snapshot_executions_stay_si_and_never_lose_updates() {
        // Racing read-modify-writes with declared write sets: under snapshot
        // isolation the second deposit must observe the first (first-committer
        // wins), so no seed may lose an update.
        for seed in 0..10 {
            let engine = Engine::new(StoreMode::WeakRandom {
                level: IsolationLevel::Snapshot,
                seed,
            });
            engine.set_initial("acct", Value::Int(0));
            let c1 = engine.client("c1");
            let c2 = engine.client("c2");
            for client in [&c1, &c2] {
                let mut t = client.begin();
                t.declare_writes(["acct"]);
                let balance = t.get_int("acct", 0);
                t.put("acct", balance + 10);
                t.commit();
            }
            let history = engine.history();
            assert!(isopredict_history::si::is_si(&history), "seed {seed}");
            assert_eq!(
                engine.peek_int("acct", 0),
                20,
                "seed {seed}: snapshot isolation must not lose updates"
            );
        }
    }

    #[test]
    fn weak_random_snapshot_can_produce_write_skew() {
        // Two withdrawals guarded by a combined-balance invariant, each
        // writing its own key: no write–write conflict, so snapshot isolation
        // lets some seed interleave them into the classic write skew.
        let mut found_write_skew = false;
        for seed in 0..40 {
            let engine = Engine::new(StoreMode::WeakRandom {
                level: IsolationLevel::Snapshot,
                seed,
            });
            engine.set_initial("x", Value::Int(50));
            engine.set_initial("y", Value::Int(50));
            let c1 = engine.client("c1");
            let c2 = engine.client("c2");
            for (client, own) in [(&c1, "x"), (&c2, "y")] {
                let mut t = client.begin();
                t.declare_writes([own]);
                let x = t.get_int("x", 0);
                let y = t.get_int("y", 0);
                if x + y >= 60 {
                    let own_balance = if own == "x" { x } else { y };
                    t.put(own, own_balance - 60);
                }
                t.commit();
            }
            let history = engine.history();
            assert!(isopredict_history::si::is_si(&history), "seed {seed}");
            if !serializability::check(&history).is_serializable() {
                found_write_skew = true;
                break;
            }
        }
        assert!(found_write_skew, "no seed produced the write-skew anomaly");
    }

    #[test]
    fn weak_random_can_produce_unserializable_executions() {
        // The racing-deposit pattern: under causal, some seed lets both
        // transactions read the initial balance, which is unserializable.
        let mut found_unserializable = false;
        for seed in 0..20 {
            let engine = Engine::new(StoreMode::WeakRandom {
                level: IsolationLevel::Causal,
                seed,
            });
            engine.set_initial("acct", Value::Int(0));
            let c1 = engine.client("c1");
            let c2 = engine.client("c2");
            for client in [&c1, &c2] {
                let mut t = client.begin();
                let balance = t.get_int("acct", 0);
                t.put("acct", balance + 10);
                t.commit();
            }
            if !serializability::check(&engine.history()).is_serializable() {
                found_unserializable = true;
                break;
            }
        }
        assert!(
            found_unserializable,
            "no seed produced the lost-update anomaly"
        );
    }

    #[test]
    fn controlled_mode_follows_the_predicted_execution() {
        // Predicted execution: both deposits read the initial state.
        let mut b = HistoryBuilder::new();
        let s1 = b.session("c1");
        let s2 = b.session("c2");
        let p1 = b.begin(s1);
        b.read(p1, "acct", TxnId::INITIAL);
        b.write(p1, "acct");
        b.commit(p1);
        let p2 = b.begin(s2);
        b.read(p2, "acct", TxnId::INITIAL);
        b.write(p2, "acct");
        b.commit(p2);
        let predicted = b.finish();
        let script = ReplayScript::from_history(&predicted);

        let engine = Engine::new(StoreMode::Controlled {
            level: IsolationLevel::Causal,
            script,
        });
        engine.set_initial("acct", Value::Int(0));
        let c1 = engine.client("c1");
        let c2 = engine.client("c2");
        for client in [&c1, &c2] {
            let mut t = client.begin();
            let balance = t.get_int("acct", 0);
            t.put("acct", balance + 10);
            t.commit();
        }
        assert!(
            engine.divergences().is_empty(),
            "{:?}",
            engine.divergences()
        );
        let history = engine.history();
        assert!(!serializability::check(&history).is_serializable());
        assert!(isopredict_history::causal::is_causal(&history));
    }

    #[test]
    fn controlled_mode_records_divergence_when_the_writer_is_missing() {
        // The predicted execution expects the second transaction to read from
        // the first, but the validating execution aborts the first
        // transaction, so the writer is missing.
        let mut b = HistoryBuilder::new();
        let s1 = b.session("c1");
        let s2 = b.session("c2");
        let p1 = b.begin(s1);
        b.read(p1, "acct", TxnId::INITIAL);
        b.write(p1, "acct");
        b.commit(p1);
        let p2 = b.begin(s2);
        b.read(p2, "acct", p1);
        b.write(p2, "acct");
        b.commit(p2);
        let predicted = b.finish();
        let script = ReplayScript::from_history(&predicted);

        let engine = Engine::new(StoreMode::Controlled {
            level: IsolationLevel::Causal,
            script,
        });
        engine.set_initial("acct", Value::Int(0));
        let c1 = engine.client("c1");
        let c2 = engine.client("c2");

        // Session c1 aborts instead of committing.
        let mut t = c1.begin();
        let _ = t.get("acct");
        t.put("acct", 999);
        t.rollback();

        let mut t = c2.begin();
        let _ = t.get("acct");
        t.put("acct", 10);
        t.commit();

        let divergences = engine.divergences();
        assert!(divergences
            .iter()
            .any(|d| d.kind == DivergenceKind::WriterMissing));
    }
}
