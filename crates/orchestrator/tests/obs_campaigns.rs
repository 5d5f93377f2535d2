//! The observability layer's contracts on real campaigns: the span tree is a
//! pure function of the campaign specification (not of worker scheduling),
//! the JSONL event stream is schema-valid and round-trips through serde,
//! enabling telemetry never perturbs the deterministic report half, the
//! report's phase timings are the phase spans' durations, and a long solve
//! streams heartbeats at the solver's fixed interval.

use std::sync::OnceLock;

use proptest::prelude::*;

use isopredict::{IsolationLevel, Strategy};
use isopredict_obs::{span_forest, validate_stream, BufferSink, ObsEvent, Registry, SpanNode};
use isopredict_orchestrator::{Campaign, CampaignOptions, ShardPolicy};
use isopredict_workloads::Benchmark;

/// One-experiment campaign: small enough for proptest to re-run, big enough
/// to exercise record, connectivity, the encode/solve pipeline and
/// validation.
fn tiny_campaign() -> Campaign {
    Campaign::new()
        .benchmarks([Benchmark::Smallbank])
        .seeds([0])
        .strategies([Strategy::ApproxRelaxed])
        .isolations([IsolationLevel::ReadCommitted])
        .txns_per_session(2)
}

fn options(workers: usize) -> CampaignOptions {
    CampaignOptions {
        workers,
        conflict_budget: Some(2_000_000),
        shard_policy: ShardPolicy::default(),
        corpus: None,
        ..CampaignOptions::default()
    }
}

/// Runs the tiny campaign on `workers` threads and returns its normalized
/// span forest (names and labels, timings discarded).
fn forest_with(workers: usize) -> Vec<SpanNode> {
    let registry = Registry::new();
    let _ = tiny_campaign().run_observed(&options(workers), &registry.obs());
    span_forest(&registry.snapshot().spans)
}

proptest! {
    // Each case runs a full record→predict→validate campaign, so keep the
    // case count small; the workers dimension is the whole point.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The normalized span tree must not depend on how many workers drained
    /// the task queue — same names, same labels, same shape.
    #[test]
    fn span_forest_is_identical_across_worker_counts(workers in 1usize..=6) {
        static SEQUENTIAL: OnceLock<Vec<SpanNode>> = OnceLock::new();
        let expected = SEQUENTIAL.get_or_init(|| forest_with(1));
        let actual = forest_with(workers);
        prop_assert_eq!(
            &actual,
            expected,
            "{} workers produced a different span tree:\n{}",
            workers,
            actual.iter().map(SpanNode::render).collect::<String>()
        );
    }
}

#[test]
fn campaign_jsonl_stream_is_valid_and_round_trips_through_serde() {
    let sink = BufferSink::new();
    let registry = Registry::with_sink(Box::new(sink.clone()));
    let _ = tiny_campaign().run_observed(&options(2), &registry.obs());
    registry.flush();
    let stream = sink.contents();

    let summary = validate_stream(&stream).expect("campaign emits a valid stream");
    assert_eq!(summary.spans_started, summary.spans_finished);
    assert!(summary.counter_updates > 0, "solver counters must stream");

    // Every line parses into a typed event and survives a serialize/parse
    // cycle unchanged — the schema has no lossy corners.
    let mut names = Vec::new();
    for line in stream.lines() {
        let event: ObsEvent = serde_json::from_str(line).expect("typed event");
        let reserialized = serde_json::to_string(&event).expect("serialize");
        let back: ObsEvent = serde_json::from_str(&reserialized).expect("reparse");
        assert_eq!(back, event, "{line}");
        if let ObsEvent::SpanEnd { name, .. } = event {
            names.push(name);
        }
    }
    for expected in ["campaign", "record", "connectivity", "predict", "solve"] {
        assert!(
            names.iter().any(|name| name == expected),
            "no `{expected}` span in the stream (saw {names:?})"
        );
    }
}

#[test]
fn deterministic_half_is_byte_identical_with_metrics_on_and_off() {
    let campaign = tiny_campaign();
    let off = campaign.run(&options(2));
    let registry = Registry::new();
    let on = campaign.run_observed(&options(2), &registry.obs());

    assert!(off.metrics.is_none());
    let metrics = on.metrics.as_ref().expect("telemetry aggregates");
    assert!(
        metrics.attributed_wall_fraction >= 0.95,
        "phase spans attribute only {:.1}% of campaign wall time",
        metrics.attributed_wall_fraction * 100.0
    );
    assert_eq!(off.deterministic_json(), on.deterministic_json());
}

#[test]
fn phase_timings_are_the_phase_spans() {
    let registry = Registry::new();
    let report = tiny_campaign().run_observed(&options(2), &registry.obs());
    let metrics = report.metrics.as_ref().expect("telemetry aggregates");
    let span_us = |path: &str| metrics.span(path).expect(path).total_us;
    let timing = &report.timing;
    assert_eq!(timing.wall_us, span_us("campaign").max(1));
    assert_eq!(timing.record_us, span_us("campaign/record"));
    assert_eq!(timing.predict_us, span_us("campaign/predict"));
    assert_eq!(timing.validate_us, span_us("campaign/validate"));
    // Busy time is the cell, unit and experiment spans. It sums whole
    // durations, while the span records truncate each one to microseconds.
    let busy = metrics.spans.iter().filter(|span| {
        matches!(
            span.path.split('/').collect::<Vec<_>>()[..],
            ["campaign", "record", "cell"]
                | ["campaign", "predict", _]
                | ["campaign", "validate", "experiment"]
        )
    });
    let (busy_us, spans) = busy.fold((0, 0), |(us, n), span| (us + span.total_us, n + span.count));
    assert!(
        (busy_us..=busy_us + spans).contains(&timing.cpu_us),
        "cpu {} vs {spans} spans' {busy_us}",
        timing.cpu_us
    );
}

#[test]
fn heartbeats_stream_at_the_fixed_interval_and_survive_in_the_postmortem() {
    // Voter under causal at two transactions per session proves Unsat in
    // about 22,000 conflicts. The predictor's 50-conflict probe does not
    // decide it, so the cell preprocesses and searches again; a budget of
    // 15,000, past the solver's fixed heartbeat interval of 10,000, ends
    // that search `unknown` after one heartbeat.
    let campaign = Campaign::new()
        .benchmarks([Benchmark::Voter])
        .seeds([0])
        .strategies([Strategy::ApproxRelaxed])
        .isolations([IsolationLevel::Causal])
        .txns_per_session(2);
    let sink = BufferSink::new();
    let registry = Registry::with_sink(Box::new(sink.clone()));
    let options = CampaignOptions {
        conflict_budget: Some(15_000),
        shard_policy: ShardPolicy::Never,
        ..options(1)
    };
    let report = campaign.run_observed(&options, &registry.obs());
    registry.flush();
    let stream = sink.contents();
    let summary = validate_stream(&stream).expect("campaign emits a valid stream");
    assert!(summary.heartbeats >= 1, "no heartbeat streamed");
    // The first heartbeat's rate runs from the start of the search, after
    // preprocessing.
    let first_rate = stream
        .lines()
        .find_map(
            |line| match serde_json::from_str(line).expect("typed event") {
                ObsEvent::Heartbeat {
                    hb_seq: 1,
                    conflicts_per_sec,
                    ..
                } => Some(conflicts_per_sec),
                _ => None,
            },
        )
        .expect("a first heartbeat");
    assert!(first_rate > 0.0, "first heartbeat rate {first_rate}");
    assert_eq!(
        report.summary.unknown, 1,
        "the budget must cut the proof short"
    );
    let [postmortem] = &report.postmortems[..] else {
        panic!(
            "{} post-mortems for one unknown cell",
            report.postmortems.len()
        );
    };
    let conflicts: Vec<u64> = postmortem
        .solver
        .heartbeats
        .iter()
        .map(|hb| hb.conflicts)
        .collect();
    // Heartbeats count the solver's conflicts since it was built: the
    // probe's 50, then 10,000 into the search that ran out of budget.
    assert_eq!(conflicts, [10_050], "the post-mortem keeps the heartbeat");
    assert_eq!(postmortem.solver.conflicts_in_call, 15_000);
    assert_eq!(postmortem.solver.stats.conflicts, 15_050);
}
