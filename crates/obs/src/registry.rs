//! The thread-safe telemetry registry and its [`Obs`] handles.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::event::{Label, ObsEvent, SCHEMA_VERSION};
use crate::span::{Snapshot, SpanRecord};

/// Owns one run's telemetry: span records, counters, and the optional
/// JSONL sink. Handles into the registry are [`Obs`] values obtained
/// from [`Registry::obs`]; the registry itself stays with whoever will
/// aggregate the results (a CLI, a benchmark harness, a test).
pub struct Registry {
    inner: Arc<Inner>,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

struct State {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<String, u64>,
    seq: u64,
    sink: Option<Box<dyn Write + Send>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A registry without an event sink (spans and counters are still
    /// recorded and can be snapshot).
    #[must_use]
    pub fn new() -> Registry {
        Registry::build(None)
    }

    /// A registry streaming every event to `sink` as JSONL. The stream
    /// header (`run_start`) is written immediately.
    #[must_use]
    pub fn with_sink(sink: Box<dyn Write + Send>) -> Registry {
        Registry::build(Some(sink))
    }

    fn build(sink: Option<Box<dyn Write + Send>>) -> Registry {
        let registry = Registry {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State {
                    spans: Vec::new(),
                    counters: BTreeMap::new(),
                    seq: 0,
                    sink,
                }),
            }),
        };
        registry.inner.emit(
            &mut registry.inner.state.lock(),
            &ObsEvent::RunStart {
                schema: SCHEMA_VERSION,
            },
        );
        registry
    }

    /// The root observation context.
    #[must_use]
    pub fn obs(&self) -> Obs {
        Obs {
            ctx: Some(Ctx {
                inner: Arc::clone(&self.inner),
                parent: None,
            }),
        }
    }

    /// A point-in-time copy of all telemetry recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.inner.snapshot()
    }

    /// Flushes the event sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = self.inner.state.lock().sink.as_mut() {
            let _ = sink.flush();
        }
    }
}

impl Inner {
    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn snapshot(&self) -> Snapshot {
        let state = self.state.lock();
        Snapshot {
            spans: state.spans.clone(),
            counters: state
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    /// Writes one event line; on the first sink failure the sink is dropped
    /// (telemetry must never take the analysis down with it).
    fn emit(&self, state: &mut State, event: &ObsEvent) {
        if let Some(sink) = state.sink.as_mut() {
            let line = serde_json::to_string(event).expect("events always serialize");
            if writeln!(sink, "{line}").is_err() {
                eprintln!("isopredict-obs: event sink failed; disabling the stream");
                state.sink = None;
            }
        }
    }
}

/// One solver progress sample, as handed to [`Obs::heartbeat`]. The caller
/// (whoever installed the solver's heartbeat hook) owns the wall clock and
/// computes `conflicts_per_sec`; everything else is copied straight from the
/// solver's count-only heartbeat.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HeartbeatSample {
    /// Heartbeat ordinal within the solve call, counting from 1.
    pub hb_seq: u64,
    /// Conflicts recorded by the solver so far.
    pub conflicts: u64,
    /// Conflict rate since the previous heartbeat (for the first, since the
    /// solve began).
    pub conflicts_per_sec: f64,
    /// Restarts so far.
    pub restarts: u64,
    /// Current assignment trail depth.
    pub trail_depth: u64,
    /// Learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Variables fixed at decision level 0.
    pub vars_assigned_at_root: u64,
    /// Total variables in the solver.
    pub total_vars: u64,
    /// Clause-family names, parallel to `conflicts_by_family`.
    pub families: Vec<String>,
    /// Per-family conflict partition (sums to `conflicts`).
    pub conflicts_by_family: Vec<u64>,
}

/// A cheap, cloneable handle into a [`Registry`], carrying the current span
/// context. The disabled handle ([`Obs::off`], also `Default`) records
/// nothing, so instrumented code takes an `&Obs` (or stores an `Obs`)
/// unconditionally; its spans still time themselves.
#[derive(Clone, Default)]
pub struct Obs {
    ctx: Option<Ctx>,
}

#[derive(Clone)]
struct Ctx {
    inner: Arc<Inner>,
    parent: Option<u64>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.ctx {
            None => write!(f, "Obs(off)"),
            Some(ctx) => write!(f, "Obs(parent: {:?})", ctx.parent),
        }
    }
}

impl Obs {
    /// The disabled handle: nothing is recorded or streamed (spans still
    /// return their duration from [`Span::finish`]).
    #[must_use]
    pub fn off() -> Obs {
        Obs { ctx: None }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.ctx.is_some()
    }

    /// Opens a span as a child of the current context. The span reads the
    /// clock whether or not this handle records: [`Span::finish`] returns its
    /// duration either way.
    #[must_use]
    pub fn span(&self, name: &str) -> Span {
        self.span_with(name, &[])
    }

    /// Opens a span with labels attached from the start.
    #[must_use]
    pub fn span_with(&self, name: &str, labels: &[(&str, &str)]) -> Span {
        let start = Instant::now();
        let Some(ctx) = &self.ctx else {
            return Span {
                obs: Obs::off(),
                start,
                finished: false,
            };
        };
        let start_us = ctx.inner.now_us();
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        let mut state = ctx.inner.state.lock();
        let id = state.spans.len() as u64;
        state.spans.push(SpanRecord {
            id,
            parent: ctx.parent,
            name: name.to_string(),
            labels: labels.clone(),
            start_us,
            dur_us: None,
        });
        state.seq += 1;
        let event = ObsEvent::SpanStart {
            seq: state.seq,
            id,
            parent: ctx.parent,
            name: name.to_string(),
            at_us: start_us,
            labels: labels
                .into_iter()
                .map(|(key, value)| Label { key, value })
                .collect(),
        };
        ctx.inner.emit(&mut state, &event);
        drop(state);
        Span {
            obs: Obs {
                ctx: Some(Ctx {
                    inner: Arc::clone(&ctx.inner),
                    parent: Some(id),
                }),
            },
            start,
            finished: false,
        }
    }

    /// Adds `delta` to the named monotonic counter (no-op when `delta == 0`).
    pub fn count(&self, name: &str, delta: u64) {
        let Some(ctx) = &self.ctx else { return };
        if delta == 0 {
            return;
        }
        let mut state = ctx.inner.state.lock();
        let total = {
            let entry = state.counters.entry(name.to_string()).or_insert(0);
            *entry = entry.saturating_add(delta);
            *entry
        };
        state.seq += 1;
        let event = ObsEvent::Counter {
            seq: state.seq,
            name: name.to_string(),
            delta,
            total,
        };
        ctx.inner.emit(&mut state, &event);
    }

    /// Emits a solver progress heartbeat to the event stream.
    ///
    /// Heartbeats are stream-only telemetry: they do not accumulate in the
    /// registry snapshot (their content is a point-in-time sample, not an
    /// aggregate), so a disabled handle or a sink-less registry makes this a
    /// no-op apart from the sequence number.
    pub fn heartbeat(&self, sample: HeartbeatSample) {
        let Some(ctx) = &self.ctx else { return };
        let at_us = ctx.inner.now_us();
        let mut state = ctx.inner.state.lock();
        state.seq += 1;
        let event = ObsEvent::Heartbeat {
            seq: state.seq,
            at_us,
            hb_seq: sample.hb_seq,
            conflicts: sample.conflicts,
            conflicts_per_sec: sample.conflicts_per_sec,
            restarts: sample.restarts,
            trail_depth: sample.trail_depth,
            learnt_clauses: sample.learnt_clauses,
            vars_assigned_at_root: sample.vars_assigned_at_root,
            total_vars: sample.total_vars,
            families: sample.families,
            conflicts_by_family: sample.conflicts_by_family,
        };
        ctx.inner.emit(&mut state, &event);
    }

    /// A snapshot of the underlying registry (`None` when disabled).
    #[must_use]
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.ctx.as_ref().map(|ctx| ctx.inner.snapshot())
    }
}

/// An open span: the pipeline's one timer. Finishes (records its duration
/// and emits `span_end` when telemetry is on) on [`Span::finish`], which
/// returns the duration, or on drop; child spans and metrics hang off
/// [`Span::obs`].
pub struct Span {
    /// Context whose parent is this span (or the disabled handle).
    obs: Obs,
    start: Instant,
    finished: bool,
}

impl Span {
    /// The observation context *inside* this span: children opened through
    /// it become this span's children.
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The span's registry id (`None` when observability is off).
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        self.obs.ctx.as_ref().and_then(|ctx| ctx.parent)
    }

    /// Attaches a label (visible in the record and the `span_end` event).
    pub fn label(&self, key: &str, value: &str) {
        let Some(ctx) = &self.obs.ctx else { return };
        let Some(id) = ctx.parent else { return };
        let mut state = ctx.inner.state.lock();
        state.spans[id as usize]
            .labels
            .push((key.to_string(), value.to_string()));
    }

    /// Closes the span now (otherwise drop does) and returns its duration,
    /// measured whether or not telemetry is on.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.finished = true;
        let Some(ctx) = &self.obs.ctx else {
            return elapsed;
        };
        let Some(id) = ctx.parent else { return elapsed };
        let dur_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let mut state = ctx.inner.state.lock();
        state.spans[id as usize].dur_us = Some(dur_us);
        state.seq += 1;
        let record = &state.spans[id as usize];
        let event = ObsEvent::SpanEnd {
            seq: state.seq,
            id,
            name: record.name.clone(),
            path: record.path(&state.spans),
            dur_us,
            labels: record
                .labels
                .iter()
                .map(|(key, value)| Label {
                    key: key.clone(),
                    value: value.clone(),
                })
                .collect(),
        };
        ctx.inner.emit(&mut state, &event);
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.finished {
            self.close();
        }
    }
}

/// An in-memory `Write` sink for tests and self-measurement: clone it, hand
/// one copy to [`Registry::with_sink`], and read the captured stream back
/// from the other.
#[derive(Clone, Default)]
pub struct BufferSink {
    buffer: Arc<Mutex<Vec<u8>>>,
}

impl BufferSink {
    /// An empty buffer sink.
    #[must_use]
    pub fn new() -> BufferSink {
        BufferSink::default()
    }

    /// The captured stream as UTF-8 text.
    #[must_use]
    pub fn contents(&self) -> String {
        String::from_utf8(self.buffer.lock().clone()).expect("event streams are UTF-8")
    }
}

impl Write for BufferSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.buffer.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::validate_stream;
    use crate::span::span_forest;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let obs = Obs::off();
        assert!(!obs.is_enabled());
        let span = obs.span("anything");
        span.obs().count("c", 5);
        assert!(span.id().is_none());
        std::thread::sleep(Duration::from_millis(2));
        // Telemetry is off, but the span is still the timer.
        assert!(span.finish() >= Duration::from_millis(2));
        assert!(obs.snapshot().is_none());
        assert_eq!(format!("{obs:?}"), "Obs(off)");
    }

    #[test]
    fn spans_nest_and_counters_accumulate() {
        let registry = Registry::new();
        let obs = registry.obs();
        let outer = obs.span_with("outer", &[("k", "v")]);
        {
            let inner = outer.obs().span("inner");
            inner.obs().count("hits", 2);
            inner.obs().count("hits", 3);
            inner.obs().count("zero", 0);
        }
        outer.label("outcome", "done");
        let outer_dur = outer.finish();

        let snapshot = registry.snapshot();
        // The duration the caller gets is the one the registry records.
        let micros = u64::try_from(outer_dur.as_micros()).unwrap();
        assert_eq!(snapshot.spans[0].dur_us, Some(micros));
        assert_eq!(snapshot.counter("hits"), 5);
        assert_eq!(snapshot.counter("zero"), 0);
        assert!(snapshot.counters.iter().all(|(name, _)| name != "zero"));
        assert_eq!(snapshot.spans.len(), 2);
        assert!(snapshot.spans.iter().all(|s| s.dur_us.is_some()));

        let forest = span_forest(&snapshot.spans);
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].name, "outer");
        assert_eq!(
            forest[0].labels,
            vec![
                ("k".to_string(), "v".to_string()),
                ("outcome".to_string(), "done".to_string())
            ]
        );
        assert_eq!(forest[0].children[0].name, "inner");
    }

    #[test]
    fn dropped_spans_still_close() {
        let registry = Registry::new();
        {
            let _span = registry.obs().span("implicit");
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.spans.len(), 1);
        assert!(snapshot.spans[0].dur_us.is_some());
    }

    #[test]
    fn sink_receives_a_valid_stream() {
        let sink = BufferSink::new();
        let registry = Registry::with_sink(Box::new(sink.clone()));
        let obs = registry.obs();
        let span = obs.span("phase");
        span.obs().count("n", 1);
        span.finish();
        registry.flush();

        let text = sink.contents();
        let summary = validate_stream(&text).expect("stream is valid");
        assert_eq!(summary.spans_started, 1);
        assert_eq!(summary.spans_finished, 1);
        assert_eq!(summary.counter_updates, 1);
        assert!(text.lines().next().unwrap().contains("run_start"));
    }

    #[test]
    fn heartbeats_flow_to_the_sink_and_validate() {
        let sink = BufferSink::new();
        let registry = Registry::with_sink(Box::new(sink.clone()));
        let obs = registry.obs();
        let span = obs.span("solve");
        span.obs().heartbeat(HeartbeatSample {
            hb_seq: 1,
            conflicts: 10,
            conflicts_per_sec: 0.0,
            restarts: 1,
            trail_depth: 6,
            learnt_clauses: 3,
            vars_assigned_at_root: 1,
            total_vars: 12,
            families: vec!["default".into(), "feasibility".into()],
            conflicts_by_family: vec![4, 6],
        });
        span.finish();
        registry.flush();
        let summary = validate_stream(&sink.contents()).expect("stream is valid");
        assert_eq!(summary.heartbeats, 1);
        assert_eq!(summary.schema, crate::event::SCHEMA_VERSION);

        // The disabled handle drops samples on the floor.
        Obs::off().heartbeat(HeartbeatSample::default());
    }

    #[test]
    fn concurrent_spans_record_under_their_own_parents() {
        let registry = Registry::new();
        let obs = registry.obs();
        let root = obs.span("root");
        std::thread::scope(|scope| {
            for i in 0..4 {
                let child_obs = root.obs().clone();
                scope.spawn(move || {
                    let label = i.to_string();
                    let span = child_obs.span_with("worker", &[("i", &label)]);
                    span.obs().count("work", 1);
                });
            }
        });
        root.finish();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("work"), 4);
        let forest = span_forest(&snapshot.spans);
        assert_eq!(forest[0].children.len(), 4);
        // Normalized order is by label, not by scheduling.
        let labels: Vec<String> = forest[0]
            .children
            .iter()
            .map(|c| c.labels[0].1.clone())
            .collect();
        assert_eq!(labels, ["0", "1", "2", "3"]);
    }
}
