//! Versioned key storage.

use std::collections::HashMap;

use isopredict_history::TxnId;

use crate::value::Value;

/// One committed version of a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Version {
    /// The transaction (in the recorder's numbering) that wrote this version;
    /// [`TxnId::INITIAL`] for values installed by the loader.
    pub(crate) writer: TxnId,
    /// Commit sequence number, used to find the latest committed version.
    pub(crate) commit_seq: u64,
    /// The written value.
    pub(crate) value: Value,
}

/// Multi-version storage: every committed write of every key is retained so
/// that weak reads can observe old versions.
#[derive(Debug, Default, Clone)]
pub(crate) struct VersionedStore {
    versions: HashMap<String, Vec<Version>>,
}

impl VersionedStore {
    pub(crate) fn new() -> Self {
        VersionedStore::default()
    }

    /// Installs an initial-state value (attributed to `t0`, commit sequence 0).
    pub(crate) fn set_initial(&mut self, key: &str, value: Value) {
        let versions = self.versions.entry(key.to_string()).or_default();
        // At most one initial version per key; overwrite it if the loader runs twice.
        versions.retain(|v| !v.writer.is_initial());
        versions.insert(
            0,
            Version {
                writer: TxnId::INITIAL,
                commit_seq: 0,
                value,
            },
        );
    }

    /// Appends a committed version.
    pub(crate) fn install(&mut self, key: &str, writer: TxnId, commit_seq: u64, value: Value) {
        self.versions
            .entry(key.to_string())
            .or_default()
            .push(Version {
                writer,
                commit_seq,
                value,
            });
    }

    /// All versions of `key` (oldest first). Missing keys have no versions.
    pub(crate) fn versions(&self, key: &str) -> &[Version] {
        self.versions.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The latest committed version of `key`.
    pub(crate) fn latest(&self, key: &str) -> Option<&Version> {
        self.versions(key).iter().max_by_key(|v| v.commit_seq)
    }

    /// The version of `key` written by `writer`, if any.
    pub(crate) fn by_writer(&self, key: &str, writer: TxnId) -> Option<&Version> {
        self.versions(key).iter().find(|v| v.writer == writer)
    }

    /// Every key that has at least one version, in no particular order.
    #[cfg_attr(not(test), allow(dead_code))]
    #[expect(
        clippy::disallowed_methods,
        reason = "test-only accessor; callers count or sort, never depend on the order"
    )]
    pub(crate) fn keys(&self) -> impl Iterator<Item = &str> {
        self.versions.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_then_committed_versions() {
        let mut store = VersionedStore::new();
        store.set_initial("x", Value::Int(0));
        store.install("x", TxnId(1), 1, Value::Int(10));
        store.install("x", TxnId(2), 2, Value::Int(20));
        assert_eq!(store.versions("x").len(), 3);
        assert_eq!(store.latest("x").unwrap().value, Value::Int(20));
        assert_eq!(
            store.by_writer("x", TxnId(1)).unwrap().value,
            Value::Int(10)
        );
        assert_eq!(
            store.by_writer("x", TxnId::INITIAL).unwrap().value,
            Value::Int(0)
        );
        assert!(store.by_writer("x", TxnId(9)).is_none());
        assert!(store.versions("missing").is_empty());
        assert!(store.latest("missing").is_none());
        assert_eq!(store.keys().count(), 1);
    }

    #[test]
    fn re_running_the_loader_replaces_the_initial_version() {
        let mut store = VersionedStore::new();
        store.set_initial("x", Value::Int(1));
        store.set_initial("x", Value::Int(2));
        let initials: Vec<_> = store
            .versions("x")
            .iter()
            .filter(|v| v.writer.is_initial())
            .collect();
        assert_eq!(initials.len(), 1);
        assert_eq!(initials[0].value, Value::Int(2));
    }
}
