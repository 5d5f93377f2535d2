//! Aggregation of raw telemetry into the report-embeddable metrics section.

use serde::{Deserialize, Serialize};

use crate::span::Snapshot;

/// All closed spans sharing one taxonomy path, aggregated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanAggregate {
    /// The `/`-joined taxonomy path (relative to the aggregation root).
    pub path: String,
    /// Number of spans on this path.
    pub count: u64,
    /// Summed wall-clock duration in microseconds.
    pub total_us: u64,
}

/// A named counter value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterValue {
    /// Metric name (e.g. `"solver.conflicts"`).
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// The aggregated `metrics` section of a report: per-path span totals,
/// counters, and how much of the root span's wall time its direct
/// children account for.
///
/// Lives in the **non-deterministic** half of campaign reports (durations
/// vary run to run); the deterministic half must be byte-identical whether
/// metrics are collected or not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSection {
    /// Per-path aggregates, sorted by path.
    pub spans: Vec<SpanAggregate>,
    /// Final counter values, sorted by name.
    pub counters: Vec<CounterValue>,
    /// Fraction of the root span's wall time covered by its direct children
    /// (sequential phases sum below 1.0; overlapping parallel children can
    /// push it above).
    pub attributed_wall_fraction: f64,
}

impl MetricsSection {
    /// Aggregates the subtree rooted at span `root` (paths are relative to
    /// it, starting with its own name), together with the snapshot's
    /// counters. Spans still open are excluded from totals.
    #[must_use]
    pub fn for_span(snapshot: &Snapshot, root: u64) -> MetricsSection {
        // Walk the subtree: relative path per span id.
        let mut paths: Vec<Option<String>> = vec![None; snapshot.spans.len()];
        let root_index = root as usize;
        paths[root_index] = Some(snapshot.spans[root_index].name.clone());
        // Ids are allocated parent-before-child, so one forward pass resolves
        // every descendant.
        for record in &snapshot.spans[root_index..] {
            if paths[record.id as usize].is_some() {
                continue;
            }
            if let Some(parent) = record.parent {
                if let Some(parent_path) = &paths[parent as usize] {
                    paths[record.id as usize] = Some(format!("{parent_path}/{}", record.name));
                }
            }
        }

        let mut by_path: std::collections::BTreeMap<String, (u64, u64)> =
            std::collections::BTreeMap::new();
        let mut children_us: u64 = 0;
        for record in &snapshot.spans {
            let Some(path) = &paths[record.id as usize] else {
                continue;
            };
            let Some(dur) = record.dur_us else { continue };
            let entry = by_path.entry(path.clone()).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += dur;
            if record.parent == Some(root) {
                children_us += dur;
            }
        }
        let root_us = snapshot.spans[root_index].dur_us.unwrap_or(0);
        MetricsSection {
            spans: by_path
                .into_iter()
                .map(|(path, (count, total_us))| SpanAggregate {
                    path,
                    count,
                    total_us,
                })
                .collect(),
            counters: snapshot
                .counters
                .iter()
                .map(|(name, value)| CounterValue {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            attributed_wall_fraction: if root_us == 0 {
                0.0
            } else {
                children_us as f64 / root_us as f64
            },
        }
    }

    /// The aggregate for an exact path, if present.
    #[must_use]
    pub fn span(&self, path: &str) -> Option<&SpanAggregate> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// The value of a counter (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn aggregates_merge_same_path_spans_and_compute_coverage() {
        let registry = Registry::new();
        let obs = registry.obs();
        let campaign = obs.span("campaign");
        {
            let predict = campaign.obs().span("predict");
            for _ in 0..3 {
                let _solve = predict.obs().span("solve");
            }
        }
        {
            let _validate = campaign.obs().span("validate");
        }
        campaign.obs().count("solver.conflicts", 7);
        let root = campaign.id().expect("enabled");
        campaign.finish();

        let metrics = MetricsSection::for_span(&registry.snapshot(), root);
        assert_eq!(metrics.span("campaign").unwrap().count, 1);
        assert_eq!(metrics.span("campaign/predict").unwrap().count, 1);
        let solves = metrics.span("campaign/predict/solve").unwrap();
        assert_eq!(solves.count, 3);
        assert_eq!(metrics.counter("solver.conflicts"), 7);
        // Sleep-free spans are microsecond-scale; coverage just needs to be a
        // sane fraction.
        assert!(metrics.attributed_wall_fraction >= 0.0);

        let json = serde_json::to_string(&metrics).expect("serialize");
        let back: MetricsSection = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, metrics);
    }

    #[test]
    fn aggregation_scopes_to_the_requested_subtree() {
        let registry = Registry::new();
        let obs = registry.obs();
        let outside = obs.span("outside");
        outside.finish();
        let root = obs.span("root");
        let _child = root.obs().span("child");
        drop(_child);
        let root_id = root.id().unwrap();
        root.finish();

        let metrics = MetricsSection::for_span(&registry.snapshot(), root_id);
        assert!(metrics.span("outside").is_none());
        assert!(metrics.span("root/child").is_some());
    }
}
