//! The on-disk corpus: content-addressed trace objects plus a manifest index.
//!
//! # Layout
//!
//! ```text
//! <root>/
//!   manifest.json          index: one entry per (benchmark, workload config,
//!                          seed, isolation, store version) key
//!   objects/<sha256>.json  canonical trace JSON, addressed by the SHA-256
//!                          of exactly those bytes
//! ```
//!
//! Objects are immutable once written; the manifest maps lookup keys to
//! object hashes. Nothing is assumed about hashes being collision-free:
//! storing a trace whose address already exists compares the canonical bytes
//! against the existing object and reports a [`CorpusError::HashCollision`]
//! on mismatch, and loading re-hashes the object to detect on-disk
//! corruption.

use std::fs;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use isopredict_history::{History, OpTrace, Trace, TraceMeta};
use isopredict_store::StoreMode;
use isopredict_workloads::WorkloadConfig;

use crate::hash::sha256_hex;
use crate::import::{normalize, ImportError};

/// The exact-match lookup key of a corpus entry.
///
/// Every field participates in equality: two traces share an entry only if
/// they name the same benchmark, workload shape, seed, recording mode *and*
/// recorder version. Lookups never fall back to "close enough" keys.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusKey {
    /// Benchmark (application) name.
    pub benchmark: String,
    /// Workload RNG seed.
    pub seed: u64,
    /// Number of client sessions.
    pub sessions: usize,
    /// Transactions attempted per session.
    pub txns_per_session: usize,
    /// Workload data-size knob.
    pub scale: usize,
    /// Store-mode label the trace was recorded under.
    pub isolation: String,
    /// Version of the recording store crate.
    pub store_version: String,
}

impl CorpusKey {
    /// The key of a trace, read off its provenance metadata.
    #[must_use]
    pub fn from_meta(meta: &TraceMeta) -> CorpusKey {
        CorpusKey {
            benchmark: meta.benchmark.clone(),
            seed: meta.seed,
            sessions: meta.sessions,
            txns_per_session: meta.txns_per_session,
            scale: meta.scale,
            isolation: meta.isolation.clone(),
            store_version: meta.store_version.clone(),
        }
    }

    /// The key an *observed* recording of `benchmark` under `config` gets
    /// from this workspace's recorder: serializable record mode, current
    /// store version. This is what campaigns look up before deciding to
    /// re-record.
    #[must_use]
    pub fn observed(benchmark: &str, config: &WorkloadConfig) -> CorpusKey {
        CorpusKey {
            benchmark: benchmark.to_string(),
            seed: config.seed,
            sessions: config.sessions,
            txns_per_session: config.txns_per_session,
            scale: config.scale,
            isolation: StoreMode::SerializableRecord.label(),
            store_version: isopredict_store::VERSION.to_string(),
        }
    }
}

impl std::fmt::Display for CorpusKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} seed={} {}s×{}t scale={} [{}] v{}",
            self.benchmark,
            self.seed,
            self.sessions,
            self.txns_per_session,
            self.scale,
            self.isolation,
            self.store_version
        )
    }
}

/// One manifest entry: a lookup key, the object it resolves to, and summary
/// statistics cheap enough to show in listings without loading the object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// The exact-match lookup key.
    pub key: CorpusKey,
    /// Content address of the trace object (`objects/<hash>.json`).
    pub hash: String,
    /// Wall-clock microseconds the original recording took — what a warm
    /// campaign saves by loading this entry instead of re-recording.
    pub record_us: u64,
    /// Committed transactions in the trace.
    pub txns: usize,
    /// Read events in committed transactions.
    pub reads: usize,
    /// Write events in committed transactions.
    pub writes: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    entries: Vec<ManifestEntry>,
}

impl Manifest {
    fn empty() -> Manifest {
        Manifest {
            version: 1,
            entries: Vec::new(),
        }
    }
}

/// Why a corpus operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error message.
        error: String,
    },
    /// The manifest or an object file does not parse.
    Malformed(String),
    /// Two different canonical byte strings hashed to the same address.
    HashCollision {
        /// The colliding content address.
        hash: String,
    },
    /// The key is already bound to a different trace. The recorder is
    /// deterministic, so this means the recording changed without a
    /// `store_version` bump (or a stale entry needs `gc`).
    KeyConflict {
        /// The conflicting key.
        key: Box<CorpusKey>,
        /// Hash already in the manifest.
        existing: String,
        /// Hash of the trace being stored.
        incoming: String,
    },
    /// The trace has no provenance metadata, so it cannot be indexed.
    MissingMeta,
    /// An object's bytes no longer hash to its address (on-disk corruption).
    CorruptObject {
        /// The expected address.
        hash: String,
        /// The hash the bytes actually have.
        actual: String,
    },
    /// No (or more than one) object matches the given hash or prefix.
    UnknownHash(String),
    /// An external trace failed validation.
    Import(ImportError),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io { path, error } => write!(f, "{path}: {error}"),
            CorpusError::Malformed(what) => write!(f, "corpus data malformed: {what}"),
            CorpusError::HashCollision { hash } => write!(
                f,
                "content address collision on {hash}: two different traces \
                 hash identically — refusing to overwrite"
            ),
            CorpusError::KeyConflict {
                key,
                existing,
                incoming,
            } => write!(
                f,
                "key ({key}) is already bound to {existing} but the new \
                 recording hashes to {incoming}; recordings are expected to \
                 be deterministic — bump the store version or remove the \
                 stale entry"
            ),
            CorpusError::MissingMeta => write!(
                f,
                "trace has no provenance metadata to index it by; stamp it \
                 (or import it with explicit --benchmark/--seed/--isolation)"
            ),
            CorpusError::CorruptObject { hash, actual } => write!(
                f,
                "object {hash} is corrupt on disk (bytes hash to {actual})"
            ),
            CorpusError::UnknownHash(hash) => {
                write!(f, "no unique corpus object matches `{hash}`")
            }
            CorpusError::Import(error) => write!(f, "import rejected: {error}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<ImportError> for CorpusError {
    fn from(error: ImportError) -> Self {
        CorpusError::Import(error)
    }
}

fn io_error(path: &Path, error: &std::io::Error) -> CorpusError {
    CorpusError::Io {
        path: path.display().to_string(),
        error: error.to_string(),
    }
}

/// Receipt of a store operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreReceipt {
    /// Content address of the stored trace.
    pub hash: String,
    /// `false` when the key was already present (the store was a no-op).
    pub fresh: bool,
}

/// A corpus trace resolved into the pieces a campaign needs: the canonical
/// history to analyze and the committed plan indices a steered validation
/// replay requires.
#[derive(Debug, Clone)]
pub struct LoadedTrace {
    /// The trace itself.
    pub trace: Trace,
    /// The canonical history rebuilt from the trace. Analyses must run on
    /// this (rather than a live recorder's history) so that verdicts are
    /// identical whether the trace was just recorded or loaded from disk.
    pub history: History,
    /// Per session, the plan indices of committed transactions. Taken from
    /// the trace's provenance; when absent (external traces), committed
    /// transactions are assumed to be plan entries `0..n` with no aborted
    /// attempts in between.
    pub committed_indices: Vec<Vec<usize>>,
}

impl LoadedTrace {
    /// Resolves a trace into its analysis form.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Malformed`] when the trace is not a valid
    /// history.
    pub fn new(trace: Trace) -> Result<LoadedTrace, CorpusError> {
        let history = trace
            .to_history()
            .map_err(|error| CorpusError::Malformed(error.to_string()))?;
        let committed_indices = trace
            .meta
            .as_ref()
            .and_then(|meta| meta.committed_plan_indices.clone())
            .unwrap_or_else(|| {
                trace
                    .sessions
                    .iter()
                    .map(|session| {
                        (0..session.transactions.iter().filter(|t| t.committed).count()).collect()
                    })
                    .collect()
            });
        Ok(LoadedTrace {
            trace,
            history,
            committed_indices,
        })
    }
}

/// Summary statistics of a trace's committed transactions.
fn trace_stats(trace: &Trace) -> (usize, usize, usize) {
    let mut txns = 0;
    let mut reads = 0;
    let mut writes = 0;
    for session in &trace.sessions {
        for txn in &session.transactions {
            if !txn.committed {
                continue;
            }
            txns += 1;
            for op in &txn.ops {
                match op {
                    OpTrace::Read { .. } => reads += 1,
                    OpTrace::Write { .. } => writes += 1,
                }
            }
        }
    }
    (txns, reads, writes)
}

/// Report of a [`Corpus::verify`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Manifest entries checked.
    pub checked: usize,
    /// Human-readable problems found (empty means the corpus is sound).
    pub problems: Vec<String>,
}

/// Report of a [`Corpus::gc`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Unreferenced objects removed.
    pub removed: usize,
    /// Referenced objects kept.
    pub kept: usize,
}

/// An on-disk, content-addressed trace corpus (see the [module docs](self)).
///
/// The handle is `Sync`: the manifest is guarded by a mutex, so campaign
/// worker threads may record-or-load cells concurrently through one
/// `Corpus`. Concurrent *processes* are not coordinated — point them at
/// different roots.
#[derive(Debug)]
pub struct Corpus {
    root: PathBuf,
    objects: PathBuf,
    manifest_path: PathBuf,
    manifest: Mutex<Manifest>,
}

impl Corpus {
    /// Opens (creating if necessary) the corpus rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Io`] when the directories cannot be created or
    /// read, and [`CorpusError::Malformed`] when an existing manifest does
    /// not parse.
    pub fn open(root: impl AsRef<Path>) -> Result<Corpus, CorpusError> {
        let root = root.as_ref().to_path_buf();
        let objects = root.join("objects");
        fs::create_dir_all(&objects).map_err(|e| io_error(&objects, &e))?;
        let manifest_path = root.join("manifest.json");
        let manifest = if manifest_path.exists() {
            let text =
                fs::read_to_string(&manifest_path).map_err(|e| io_error(&manifest_path, &e))?;
            let manifest: Manifest = serde_json::from_str(&text)
                .map_err(|e| CorpusError::Malformed(format!("{}: {e}", manifest_path.display())))?;
            let supported = Manifest::empty().version;
            if manifest.version != supported {
                return Err(CorpusError::Malformed(format!(
                    "{}: corpus manifest version {} is not supported by this \
                     build (expected {supported})",
                    manifest_path.display(),
                    manifest.version
                )));
            }
            manifest
        } else {
            Manifest::empty()
        };
        Ok(Corpus {
            root,
            objects,
            manifest_path,
            manifest: Mutex::new(manifest),
        })
    }

    /// The corpus root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of indexed traces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.manifest.lock().entries.len()
    }

    /// Whether the corpus indexes no traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the manifest entries, in insertion order.
    #[must_use]
    pub fn entries(&self) -> Vec<ManifestEntry> {
        self.manifest.lock().entries.clone()
    }

    /// Looks up the entry for `key`, exact-match on every field.
    #[must_use]
    pub fn lookup(&self, key: &CorpusKey) -> Option<ManifestEntry> {
        self.manifest
            .lock()
            .entries
            .iter()
            .find(|entry| &entry.key == key)
            .cloned()
    }

    /// Stores a provenance-stamped trace, indexing it under the key derived
    /// from its metadata. `record_us` is the wall-clock cost of the recording
    /// (what a later warm load saves). Storing the same trace under the same
    /// key again is a no-op (`fresh: false`).
    ///
    /// # Errors
    ///
    /// [`CorpusError::MissingMeta`] when the trace has no metadata,
    /// [`CorpusError::KeyConflict`] when the key is bound to different bytes,
    /// [`CorpusError::HashCollision`] when the address is taken by different
    /// bytes, and [`CorpusError::Io`] on filesystem failures.
    pub fn store(&self, trace: &Trace, record_us: u64) -> Result<StoreReceipt, CorpusError> {
        let meta = trace.meta.as_ref().ok_or(CorpusError::MissingMeta)?;
        let key = CorpusKey::from_meta(meta);
        let canonical = trace.to_canonical_json();
        let hash = sha256_hex(canonical.as_bytes());
        let (txns, reads, writes) = trace_stats(trace);

        let mut manifest = self.manifest.lock();
        if let Some(existing) = manifest.entries.iter().find(|entry| entry.key == key) {
            if existing.hash != hash {
                return Err(CorpusError::KeyConflict {
                    key: Box::new(key),
                    existing: existing.hash.clone(),
                    incoming: hash,
                });
            }
            return Ok(StoreReceipt { hash, fresh: false });
        }

        self.write_object(&hash, &canonical)?;
        manifest.entries.push(ManifestEntry {
            key,
            hash: hash.clone(),
            record_us,
            txns,
            reads,
            writes,
        });
        self.save_manifest(&manifest)?;
        Ok(StoreReceipt { hash, fresh: true })
    }

    /// Ingests external trace JSON: validates and normalizes it (see
    /// [`crate::import::normalize`]), attaches `fallback_meta` when the trace
    /// carries no provenance of its own, and stores it.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Import`] when the trace is malformed, plus every error
    /// [`Corpus::store`] can return.
    pub fn import(
        &self,
        json: &str,
        fallback_meta: impl FnOnce(&Trace) -> TraceMeta,
    ) -> Result<StoreReceipt, CorpusError> {
        let mut trace = normalize(json)?;
        if trace.meta.is_none() {
            trace.meta = Some(fallback_meta(&trace));
        }
        self.store(&trace, 0)
    }

    /// Loads and integrity-checks the trace at `hash` (a full content
    /// address).
    ///
    /// # Errors
    ///
    /// [`CorpusError::UnknownHash`] when no such object exists,
    /// [`CorpusError::CorruptObject`] when its bytes no longer hash to the
    /// address, and [`CorpusError::Malformed`] when they do not parse.
    pub fn load(&self, hash: &str) -> Result<Trace, CorpusError> {
        let path = self.object_path(hash);
        let bytes = match fs::read_to_string(&path) {
            Ok(bytes) => bytes,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
                return Err(CorpusError::UnknownHash(hash.to_string()))
            }
            Err(error) => return Err(io_error(&path, &error)),
        };
        let actual = sha256_hex(bytes.as_bytes());
        if actual != hash {
            return Err(CorpusError::CorruptObject {
                hash: hash.to_string(),
                actual,
            });
        }
        Trace::from_json(&bytes)
            .map_err(|error| CorpusError::Malformed(format!("{}: {error}", path.display())))
    }

    /// Resolves a (possibly abbreviated) content address against the
    /// manifest; the prefix must match exactly one entry.
    ///
    /// # Errors
    ///
    /// [`CorpusError::UnknownHash`] when zero or several entries match.
    pub fn resolve(&self, prefix: &str) -> Result<String, CorpusError> {
        let manifest = self.manifest.lock();
        let mut matches = manifest
            .entries
            .iter()
            .map(|entry| entry.hash.as_str())
            .filter(|hash| hash.starts_with(prefix));
        match (matches.next(), matches.next()) {
            (Some(hash), None) => Ok(hash.to_string()),
            _ => Err(CorpusError::UnknownHash(prefix.to_string())),
        }
    }

    /// The load half of record-or-load ([`crate::observe_cell`]): returns
    /// the trace under [`CorpusKey::observed`] if present.
    ///
    /// # Errors
    ///
    /// Propagates [`Corpus::load`] errors for the indexed object.
    pub fn load_observed(
        &self,
        benchmark: &str,
        config: &WorkloadConfig,
    ) -> Result<Option<(ManifestEntry, LoadedTrace)>, CorpusError> {
        let Some(entry) = self.lookup(&CorpusKey::observed(benchmark, config)) else {
            return Ok(None);
        };
        let trace = self.load(&entry.hash)?;
        Ok(Some((entry, LoadedTrace::new(trace)?)))
    }

    /// Checks every manifest entry: the object exists, its bytes hash to its
    /// address, they parse, and they form a valid history whose provenance
    /// still matches the index key.
    ///
    /// # Errors
    ///
    /// Only [`CorpusError::Io`] for filesystem failures; per-entry defects
    /// are collected in the report, not raised.
    pub fn verify(&self) -> Result<VerifyReport, CorpusError> {
        let entries = self.entries();
        let mut report = VerifyReport::default();
        for entry in entries {
            report.checked += 1;
            match self.load(&entry.hash) {
                Err(error) => report.problems.push(format!("{}: {error}", entry.hash)),
                Ok(trace) => {
                    if let Err(error) = trace.to_history() {
                        report
                            .problems
                            .push(format!("{}: invalid history: {error}", entry.hash));
                    }
                    match trace.meta.as_ref() {
                        None => report
                            .problems
                            .push(format!("{}: object lost its provenance", entry.hash)),
                        Some(meta) if CorpusKey::from_meta(meta) != entry.key => {
                            report.problems.push(format!(
                                "{}: provenance disagrees with index key ({})",
                                entry.hash, entry.key
                            ));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        Ok(report)
    }

    /// Removes objects not referenced by any manifest entry.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] when the objects directory cannot be read or an
    /// unreferenced object cannot be removed.
    pub fn gc(&self) -> Result<GcReport, CorpusError> {
        let manifest = self.manifest.lock();
        let referenced: Vec<&str> = manifest
            .entries
            .iter()
            .map(|entry| entry.hash.as_str())
            .collect();
        let mut report = GcReport::default();
        let listing = fs::read_dir(&self.objects).map_err(|e| io_error(&self.objects, &e))?;
        for dir_entry in listing {
            let dir_entry = dir_entry.map_err(|e| io_error(&self.objects, &e))?;
            let path = dir_entry.path();
            let stem = path
                .file_stem()
                .and_then(|stem| stem.to_str())
                .unwrap_or_default();
            if referenced.contains(&stem) {
                report.kept += 1;
            } else {
                fs::remove_file(&path).map_err(|e| io_error(&path, &e))?;
                report.removed += 1;
            }
        }
        Ok(report)
    }

    fn object_path(&self, hash: &str) -> PathBuf {
        self.objects.join(format!("{hash}.json"))
    }

    /// Writes `canonical` to the object at `hash`, tolerating an existing
    /// identical object and refusing to clobber different bytes.
    fn write_object(&self, hash: &str, canonical: &str) -> Result<(), CorpusError> {
        let path = self.object_path(hash);
        match fs::read_to_string(&path) {
            Ok(existing) => {
                if existing == canonical {
                    return Ok(());
                }
                return Err(CorpusError::HashCollision {
                    hash: hash.to_string(),
                });
            }
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {}
            Err(error) => return Err(io_error(&path, &error)),
        }
        // Write-then-rename so readers never observe a torn object.
        let tmp = self.objects.join(format!("{hash}.tmp"));
        fs::write(&tmp, canonical).map_err(|e| io_error(&tmp, &e))?;
        fs::rename(&tmp, &path).map_err(|e| io_error(&path, &e))?;
        Ok(())
    }

    fn save_manifest(&self, manifest: &Manifest) -> Result<(), CorpusError> {
        let text = serde_json::to_string_pretty(manifest).expect("manifest serialization");
        let tmp = self.root.join("manifest.tmp");
        fs::write(&tmp, text).map_err(|e| io_error(&tmp, &e))?;
        fs::rename(&tmp, &self.manifest_path).map_err(|e| io_error(&self.manifest_path, &e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch_dir;
    use isopredict_store::StoreMode;
    use isopredict_workloads::{run, Benchmark, Schedule};

    fn recorded_trace(seed: u64) -> (Trace, WorkloadConfig) {
        let config = WorkloadConfig::small(seed);
        let output = run(
            Benchmark::Smallbank,
            &config,
            StoreMode::SerializableRecord,
            &Schedule::RoundRobin,
        );
        (output.trace(), config)
    }

    #[test]
    fn store_lookup_load_round_trip() {
        let dir = scratch_dir("roundtrip");
        let corpus = Corpus::open(dir.path()).expect("open");
        assert!(corpus.is_empty());

        let (trace, config) = recorded_trace(0);
        let receipt = corpus.store(&trace, 1234).expect("store");
        assert!(receipt.fresh);
        assert_eq!(corpus.len(), 1);

        // Exact-match lookup under the observed key.
        let entry = corpus
            .lookup(&CorpusKey::observed("Smallbank", &config))
            .expect("indexed");
        assert_eq!(entry.hash, receipt.hash);
        assert_eq!(entry.record_us, 1234);
        assert!(entry.txns > 0);

        // Loading verifies integrity and returns the identical trace.
        let loaded = corpus.load(&entry.hash).expect("load");
        assert_eq!(loaded, trace);

        // A different seed is a different key.
        let other = WorkloadConfig::small(1);
        assert!(corpus
            .lookup(&CorpusKey::observed("Smallbank", &other))
            .is_none());

        // Storing the same trace again is a cached no-op.
        let again = corpus.store(&trace, 99).expect("store again");
        assert!(!again.fresh);
        assert_eq!(corpus.len(), 1);
    }

    #[test]
    fn corpus_state_survives_reopen() {
        let dir = scratch_dir("reopen");
        let (trace, config) = recorded_trace(2);
        let hash = {
            let corpus = Corpus::open(dir.path()).expect("open");
            corpus.store(&trace, 7).expect("store").hash
        };
        let corpus = Corpus::open(dir.path()).expect("reopen");
        assert_eq!(corpus.len(), 1);
        let (entry, loaded) = corpus
            .load_observed("Smallbank", &config)
            .expect("load")
            .expect("present");
        assert_eq!(entry.hash, hash);
        assert_eq!(loaded.trace, trace);
        assert_eq!(
            loaded.committed_indices,
            trace
                .meta
                .as_ref()
                .unwrap()
                .committed_plan_indices
                .clone()
                .unwrap()
        );
        assert!(loaded.history.committed_transactions().count() > 0);
    }

    #[test]
    fn unsupported_manifest_versions_are_rejected_on_open() {
        let dir = scratch_dir("version");
        {
            let corpus = Corpus::open(dir.path()).expect("open");
            let (trace, _) = recorded_trace(0);
            corpus.store(&trace, 0).expect("store");
        }
        let manifest_path = dir.path().join("manifest.json");
        let text = fs::read_to_string(&manifest_path).expect("manifest exists");
        fs::write(
            &manifest_path,
            text.replace("\"version\": 1", "\"version\": 2"),
        )
        .expect("rewrite");
        let error = Corpus::open(dir.path()).unwrap_err();
        assert!(
            error.to_string().contains("version 2 is not supported"),
            "{error}"
        );
    }

    #[test]
    fn traces_without_meta_cannot_be_indexed() {
        let dir = scratch_dir("nometa");
        let corpus = Corpus::open(dir.path()).expect("open");
        let (mut trace, _) = recorded_trace(0);
        trace.meta = None;
        assert_eq!(corpus.store(&trace, 0), Err(CorpusError::MissingMeta));
    }

    #[test]
    fn key_conflicts_are_detected_not_overwritten() {
        let dir = scratch_dir("conflict");
        let corpus = Corpus::open(dir.path()).expect("open");
        let (trace, _) = recorded_trace(0);
        corpus.store(&trace, 0).expect("store");

        // Same key, different body: drop a session's transactions.
        let mut tampered = trace.clone();
        tampered.sessions[0].transactions.clear();
        let error = corpus.store(&tampered, 0).unwrap_err();
        assert!(
            matches!(error, CorpusError::KeyConflict { .. }),
            "{error:?}"
        );
        assert!(error.to_string().contains("store version"));
    }

    #[test]
    fn corruption_is_detected_on_load_and_verify() {
        let dir = scratch_dir("corrupt");
        let corpus = Corpus::open(dir.path()).expect("open");
        let (trace, _) = recorded_trace(0);
        let hash = corpus.store(&trace, 0).expect("store").hash;

        // Flip the object's bytes on disk.
        let path = dir.path().join("objects").join(format!("{hash}.json"));
        fs::write(&path, "{\"sessions\":[],\"meta\":null}").expect("tamper");

        let error = corpus.load(&hash).unwrap_err();
        assert!(matches!(error, CorpusError::CorruptObject { .. }));

        let report = corpus.verify().expect("verify runs");
        assert_eq!(report.checked, 1);
        assert_eq!(report.problems.len(), 1);
        assert!(report.problems[0].contains("corrupt"));
    }

    #[test]
    fn verify_passes_on_a_sound_corpus_and_gc_removes_orphans() {
        let dir = scratch_dir("gc");
        let corpus = Corpus::open(dir.path()).expect("open");
        let (trace, _) = recorded_trace(0);
        corpus.store(&trace, 0).expect("store");

        let report = corpus.verify().expect("verify");
        assert_eq!(report.checked, 1);
        assert!(report.problems.is_empty(), "{:?}", report.problems);

        // Drop an orphan object next to the real one.
        let orphan = dir
            .path()
            .join("objects")
            .join(format!("{}.json", "ab".repeat(32)));
        fs::write(&orphan, "{}").expect("orphan");
        let gc = corpus.gc().expect("gc");
        assert_eq!(gc.removed, 1);
        assert_eq!(gc.kept, 1);
        assert!(!orphan.exists());
    }

    #[test]
    fn prefix_resolution_requires_uniqueness() {
        let dir = scratch_dir("resolve");
        let corpus = Corpus::open(dir.path()).expect("open");
        let (a, _) = recorded_trace(0);
        let (b, _) = recorded_trace(1);
        let ha = corpus.store(&a, 0).expect("store a").hash;
        let hb = corpus.store(&b, 0).expect("store b").hash;
        assert_eq!(corpus.resolve(&ha[..12]).expect("unique"), ha);
        assert_eq!(corpus.resolve(&hb).expect("full"), hb);
        // The empty prefix matches both.
        assert!(corpus.resolve("").is_err());
        assert!(corpus.resolve("zzzz").is_err());
    }

    #[test]
    fn import_accepts_external_traces_and_synthesizes_meta() {
        let dir = scratch_dir("import");
        let corpus = Corpus::open(dir.path()).expect("open");
        let json = r#"{
            "sessions": [
                {"name": "ext-1", "transactions": [
                    {"id": 10, "committed": true, "ops": [
                        {"op": "read", "key": "k", "from": 0},
                        {"op": "write", "key": "k"}
                    ]}
                ]},
                {"name": "ext-2", "transactions": [
                    {"id": 11, "committed": true, "ops": [
                        {"op": "read", "key": "k", "from": 10}
                    ]}
                ]}
            ]
        }"#;
        let receipt = corpus
            .import(json, |trace| TraceMeta {
                benchmark: "external".to_string(),
                seed: 0,
                sessions: trace.sessions.len(),
                txns_per_session: 1,
                scale: 0,
                isolation: "external".to_string(),
                store_version: "external".to_string(),
                committed_plan_indices: None,
            })
            .expect("import");
        assert!(receipt.fresh);

        // The stored object is canonical and analyzable.
        let trace = corpus.load(&receipt.hash).expect("load");
        let loaded = LoadedTrace::new(trace).expect("valid");
        assert_eq!(loaded.history.committed_transactions().count(), 2);
        // External trace without plan indices: identity fallback.
        assert_eq!(loaded.committed_indices, vec![vec![0], vec![0]]);

        // Malformed imports are rejected with the normalizer's error.
        let error = corpus
            .import("{\"sessions\": []}", |_| unreachable!("never stored"))
            .unwrap_err();
        assert!(matches!(error, CorpusError::Import(ImportError::Empty)));
    }
}
