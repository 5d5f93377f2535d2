//! The JSONL event stream: schema types and the stream validator.
//!
//! A run with a sink attached emits one JSON object per line:
//!
//! ```json
//! {"type": "run_start", "schema": 3}
//! {"type": "span_start", "seq": 1, "id": 0, "parent": null, "name": "campaign", "at_us": 2, "labels": []}
//! {"type": "counter", "seq": 2, "name": "solver.conflicts", "delta": 42, "total": 42}
//! {"type": "span_end", "seq": 3, "id": 0, "name": "campaign", "path": "campaign", "dur_us": 1234, "labels": []}
//! ```
//!
//! `seq` is a registry-global monotonic sequence number (events are emitted
//! under the registry lock, so it is strictly increasing down the file);
//! `at_us`/`dur_us` are microseconds relative to the registry epoch. The
//! stream is append-only and crash-legible: every prefix of a valid stream is
//! itself valid except for spans still open at the cut.

use serde::{Deserialize, Serialize};

/// Version of the JSONL schema, carried by the `run_start` event.
///
/// v2 added the `heartbeat` event kind (solver progress samples with
/// per-family conflict attribution); v3 removed the `gauge` kind.
/// [`validate_stream`] accepts this version only.
pub const SCHEMA_VERSION: u64 = 3;

/// One span label on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Label {
    /// Label key (e.g. `"benchmark"`).
    pub key: String,
    /// Label value (e.g. `"Smallbank"`).
    pub value: String,
}

/// One line of the JSONL event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum ObsEvent {
    /// Stream header: first line of every stream.
    RunStart {
        /// The stream's schema version ([`SCHEMA_VERSION`]).
        schema: u64,
    },
    /// A span was opened.
    SpanStart {
        /// Monotonic sequence number.
        seq: u64,
        /// Span identifier (unique within the run).
        id: u64,
        /// Identifier of the enclosing span, if any.
        parent: Option<u64>,
        /// Taxonomy name.
        name: String,
        /// Offset from the registry epoch, in microseconds.
        at_us: u64,
        /// Labels attached at creation.
        labels: Vec<Label>,
    },
    /// A span finished.
    SpanEnd {
        /// Monotonic sequence number.
        seq: u64,
        /// Identifier matching the earlier `span_start`.
        id: u64,
        /// Taxonomy name (repeated for grep-ability).
        name: String,
        /// Full `/`-joined taxonomy path from the root.
        path: String,
        /// Wall-clock duration in microseconds.
        dur_us: u64,
        /// All labels, including ones attached after creation.
        labels: Vec<Label>,
    },
    /// A counter was incremented.
    Counter {
        /// Monotonic sequence number.
        seq: u64,
        /// Counter name (e.g. `"solver.conflicts"`).
        name: String,
        /// Amount added by this update.
        delta: u64,
        /// Counter value after the update.
        total: u64,
    },
    /// A solver progress sample: emitted every N conflicts while
    /// a solve call runs, carrying counter deltas and the per-family conflict
    /// attribution so a budget-exhausted `unknown` is legible after the fact.
    Heartbeat {
        /// Monotonic sequence number.
        seq: u64,
        /// Offset from the registry epoch, in microseconds.
        at_us: u64,
        /// Heartbeat ordinal *within the solve call*, counting from 1.
        hb_seq: u64,
        /// Conflicts recorded by the solver so far.
        conflicts: u64,
        /// Conflict rate since the previous heartbeat (for the first, since
        /// the solve began).
        conflicts_per_sec: f64,
        /// Restarts so far.
        restarts: u64,
        /// Current assignment trail depth.
        trail_depth: u64,
        /// Learnt clauses currently in the database.
        learnt_clauses: u64,
        /// Variables fixed at decision level 0.
        vars_assigned_at_root: u64,
        /// Total variables in the solver.
        total_vars: u64,
        /// Clause-family names, parallel to `conflicts_by_family`.
        families: Vec<String>,
        /// Per-family conflict partition (sums to `conflicts`).
        conflicts_by_family: Vec<u64>,
    },
}

impl ObsEvent {
    /// The event's sequence number (`None` for the header).
    #[must_use]
    pub fn seq(&self) -> Option<u64> {
        match self {
            ObsEvent::RunStart { .. } => None,
            ObsEvent::SpanStart { seq, .. }
            | ObsEvent::SpanEnd { seq, .. }
            | ObsEvent::Counter { seq, .. }
            | ObsEvent::Heartbeat { seq, .. } => Some(*seq),
        }
    }
}

/// Every event kind the current schema knows, as it appears on the wire.
const KNOWN_KINDS: [&str; 5] = [
    "run_start",
    "span_start",
    "span_end",
    "counter",
    "heartbeat",
];

/// A defect found while validating an event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for StreamError {}

/// What a valid stream contained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total event lines (header included).
    pub events: usize,
    /// Spans that started.
    pub spans_started: usize,
    /// Spans that finished.
    pub spans_finished: usize,
    /// Counter updates.
    pub counter_updates: usize,
    /// Solver heartbeats.
    pub heartbeats: usize,
    /// The schema version the stream declared.
    pub schema: u64,
}

/// Validates a JSONL event stream against the schema and its structural
/// invariants: the first line is a `run_start` declaring [`SCHEMA_VERSION`],
/// every line parses and names a known event kind, sequence numbers strictly
/// increase, span ids are unique, parents and ends refer to spans that
/// already started, no span ends twice, and heartbeat conflict partitions
/// sum to their conflict counts. Returns a content summary on success.
///
/// # Errors
///
/// The first [`StreamError`] encountered, with its line number.
pub fn validate_stream(text: &str) -> Result<StreamSummary, StreamError> {
    let mut summary = StreamSummary::default();
    let mut last_seq: Option<u64> = None;
    let mut started: Vec<u64> = Vec::new();
    let mut finished: Vec<u64> = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let number = index + 1;
        let error = |message: String| StreamError {
            line: number,
            message,
        };
        if line.trim().is_empty() {
            return Err(error("blank line in event stream".to_string()));
        }
        // Look at the raw `type` tag first so an unrecognized kind gets a
        // precise diagnostic instead of a generic enum-parse failure.
        let raw: serde::Content = serde_json::from_str(line)
            .map_err(|parse| error(format!("not a valid event: {parse}")))?;
        match raw.get("type").as_str() {
            None => return Err(error("event has no `type` field".to_string())),
            Some(kind) if !KNOWN_KINDS.contains(&kind) => {
                return Err(error(format!("unknown event kind `{kind}`")))
            }
            Some(_) => {}
        }
        let event: ObsEvent = serde_json::from_str(line)
            .map_err(|parse| error(format!("not a valid event: {parse}")))?;
        summary.events += 1;
        if index == 0 {
            match event {
                ObsEvent::RunStart { schema } if schema == SCHEMA_VERSION => {
                    summary.schema = schema;
                    continue;
                }
                ObsEvent::RunStart { schema } => {
                    return Err(error(format!(
                        "unsupported schema version {schema} (expected {SCHEMA_VERSION})"
                    )))
                }
                _ => return Err(error("stream must begin with run_start".to_string())),
            }
        }
        if let Some(seq) = event.seq() {
            if let Some(last) = last_seq {
                if seq <= last {
                    return Err(error(format!(
                        "sequence number {seq} does not increase past {last}"
                    )));
                }
            }
            last_seq = Some(seq);
        } else {
            return Err(error("duplicate run_start".to_string()));
        }
        match event {
            ObsEvent::RunStart { .. } => unreachable!("handled above"),
            ObsEvent::SpanStart { id, parent, .. } => {
                if started.contains(&id) {
                    return Err(error(format!("span {id} started twice")));
                }
                if let Some(parent) = parent {
                    if !started.contains(&parent) {
                        return Err(error(format!("span {id} names unknown parent {parent}")));
                    }
                }
                started.push(id);
                summary.spans_started += 1;
            }
            ObsEvent::SpanEnd { id, path, name, .. } => {
                if !started.contains(&id) {
                    return Err(error(format!("span {id} ended without starting")));
                }
                if finished.contains(&id) {
                    return Err(error(format!("span {id} ended twice")));
                }
                if path != name && !path.ends_with(&format!("/{name}")) {
                    return Err(error(format!(
                        "span {id} path `{path}` does not end with its name `{name}`"
                    )));
                }
                finished.push(id);
                summary.spans_finished += 1;
            }
            ObsEvent::Counter { .. } => summary.counter_updates += 1,
            ObsEvent::Heartbeat {
                conflicts,
                families,
                conflicts_by_family,
                ..
            } => {
                if families.len() != conflicts_by_family.len() {
                    return Err(error(format!(
                        "heartbeat names {} families but carries {} conflict counts",
                        families.len(),
                        conflicts_by_family.len()
                    )));
                }
                let sum: u64 = conflicts_by_family.iter().sum();
                if sum != conflicts {
                    return Err(error(format!(
                        "heartbeat family partition sums to {sum}, not its conflict count {conflicts}"
                    )));
                }
                summary.heartbeats += 1;
            }
        }
    }
    if summary.events == 0 {
        return Err(StreamError {
            line: 1,
            message: "empty event stream".to_string(),
        });
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            ObsEvent::RunStart {
                schema: SCHEMA_VERSION,
            },
            ObsEvent::SpanStart {
                seq: 1,
                id: 0,
                parent: None,
                name: "campaign".into(),
                at_us: 3,
                labels: vec![Label {
                    key: "workers".into(),
                    value: "2".into(),
                }],
            },
            ObsEvent::Counter {
                seq: 2,
                name: "solver.conflicts".into(),
                delta: 5,
                total: 5,
            },
            ObsEvent::Heartbeat {
                seq: 3,
                at_us: 120,
                hb_seq: 1,
                conflicts: 7,
                conflicts_per_sec: 350.5,
                restarts: 1,
                trail_depth: 9,
                learnt_clauses: 4,
                vars_assigned_at_root: 2,
                total_vars: 40,
                families: vec!["default".into(), "learned".into()],
                conflicts_by_family: vec![3, 4],
            },
            ObsEvent::SpanEnd {
                seq: 4,
                id: 0,
                name: "campaign".into(),
                path: "campaign".into(),
                dur_us: 99,
                labels: Vec::new(),
            },
        ];
        for event in events {
            let line = serde_json::to_string(&event).expect("serialize");
            let back: ObsEvent = serde_json::from_str(&line).expect("parse");
            assert_eq!(back, event, "{line}");
        }
    }

    fn stream(lines: &[&str]) -> String {
        lines.join("\n")
    }

    #[test]
    fn valid_stream_summarizes() {
        let text = stream(&[
            r#"{"type": "run_start", "schema": 3}"#,
            r#"{"type": "span_start", "seq": 1, "id": 0, "parent": null, "name": "a", "at_us": 0, "labels": []}"#,
            r#"{"type": "span_start", "seq": 2, "id": 1, "parent": 0, "name": "b", "at_us": 1, "labels": []}"#,
            r#"{"type": "counter", "seq": 3, "name": "c", "delta": 1, "total": 1}"#,
            r#"{"type": "span_end", "seq": 4, "id": 1, "name": "b", "path": "a/b", "dur_us": 5, "labels": []}"#,
            r#"{"type": "span_end", "seq": 5, "id": 0, "name": "a", "path": "a", "dur_us": 9, "labels": []}"#,
        ]);
        let summary = validate_stream(&text).expect("valid");
        assert_eq!(summary.spans_started, 2);
        assert_eq!(summary.spans_finished, 2);
        assert_eq!(summary.counter_updates, 1);
    }

    #[test]
    fn defects_are_rejected_with_line_numbers() {
        let missing_header =
            stream(&[r#"{"type": "counter", "seq": 1, "name": "c", "delta": 1, "total": 1}"#]);
        assert!(validate_stream(&missing_header)
            .unwrap_err()
            .message
            .contains("run_start"));

        let unknown_parent = stream(&[
            r#"{"type": "run_start", "schema": 3}"#,
            r#"{"type": "span_start", "seq": 1, "id": 0, "parent": 7, "name": "a", "at_us": 0, "labels": []}"#,
        ]);
        let error = validate_stream(&unknown_parent).unwrap_err();
        assert_eq!(error.line, 2);
        assert!(error.message.contains("unknown parent"));

        let stale_seq = stream(&[
            r#"{"type": "run_start", "schema": 3}"#,
            r#"{"type": "counter", "seq": 2, "name": "c", "delta": 1, "total": 1}"#,
            r#"{"type": "counter", "seq": 2, "name": "c", "delta": 1, "total": 2}"#,
        ]);
        assert!(validate_stream(&stale_seq)
            .unwrap_err()
            .message
            .contains("does not increase"));

        let garbage = stream(&[r#"{"type": "run_start", "schema": 3}"#, "not json"]);
        assert_eq!(validate_stream(&garbage).unwrap_err().line, 2);

        assert!(validate_stream("").unwrap_err().message.contains("empty"));
    }

    #[test]
    fn future_schema_versions_are_rejected() {
        for schema in [4, 999] {
            let text = format!(r#"{{"type": "run_start", "schema": {schema}}}"#);
            assert!(validate_stream(&text)
                .unwrap_err()
                .message
                .contains("unsupported schema"));
        }
    }

    #[test]
    fn v1_streams_are_rejected_as_unsupported() {
        // Schema 1 predates heartbeats and has no producer left.
        let text = stream(&[
            r#"{"type": "run_start", "schema": 1}"#,
            r#"{"type": "gauge", "seq": 1, "name": "workers", "value": 2}"#,
        ]);
        let error = validate_stream(&text).unwrap_err();
        assert_eq!(error.line, 1);
        assert!(error.message.contains("unsupported schema"));
    }

    #[test]
    fn v2_streams_are_rejected_as_unsupported() {
        // Schema 2 still carried gauges; nothing produces it any more.
        let text = stream(&[
            r#"{"type": "run_start", "schema": 2}"#,
            r#"{"type": "gauge", "seq": 1, "name": "workers", "value": 2}"#,
        ]);
        let error = validate_stream(&text).unwrap_err();
        assert_eq!(error.line, 1);
        assert!(error.message.contains("unsupported schema"));
    }

    #[test]
    fn unknown_event_kinds_are_named_with_their_line() {
        let text = stream(&[
            r#"{"type": "run_start", "schema": 3}"#,
            r#"{"type": "counter", "seq": 1, "name": "c", "delta": 1, "total": 1}"#,
            r#"{"type": "gauge", "seq": 2, "name": "g", "value": 1}"#,
        ]);
        let error = validate_stream(&text).unwrap_err();
        assert_eq!(error.line, 3);
        // Gauges left the schema in v3.
        assert!(error.message.contains("unknown event kind `gauge`"));

        let untagged = stream(&[r#"{"type": "run_start", "schema": 3}"#, r#"{"seq": 1}"#]);
        assert!(validate_stream(&untagged)
            .unwrap_err()
            .message
            .contains("no `type` field"));
    }

    #[test]
    fn heartbeat_partitions_must_sum_to_their_conflict_count() {
        let text = stream(&[
            r#"{"type": "run_start", "schema": 3}"#,
            r#"{"type": "heartbeat", "seq": 1, "at_us": 5, "hb_seq": 1, "conflicts": 9, "conflicts_per_sec": 1.0, "restarts": 0, "trail_depth": 1, "learnt_clauses": 0, "vars_assigned_at_root": 0, "total_vars": 4, "families": ["default"], "conflicts_by_family": [2]}"#,
        ]);
        let error = validate_stream(&text).unwrap_err();
        assert!(error.message.contains("sums to 2"));

        let ragged = stream(&[
            r#"{"type": "run_start", "schema": 3}"#,
            r#"{"type": "heartbeat", "seq": 1, "at_us": 5, "hb_seq": 1, "conflicts": 2, "conflicts_per_sec": 1.0, "restarts": 0, "trail_depth": 1, "learnt_clauses": 0, "vars_assigned_at_root": 0, "total_vars": 4, "families": ["default", "theory"], "conflicts_by_family": [2]}"#,
        ]);
        assert!(validate_stream(&ragged)
            .unwrap_err()
            .message
            .contains("2 families but carries 1"));
    }
}
