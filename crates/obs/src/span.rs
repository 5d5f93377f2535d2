//! Span records, registry snapshots, and the normalized span tree.

/// One finished (or still-open) hierarchical timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Registry-unique identifier (also the record's index).
    pub id: u64,
    /// Identifier of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Taxonomy name (`"predict"`, `"solve"`, `"shard-0"`, …). Names form
    /// the aggregation path; run-dependent detail belongs in labels.
    pub name: String,
    /// Key–value labels (benchmark, seed, outcome, …), in attachment order.
    pub labels: Vec<(String, String)>,
    /// Start offset from the registry epoch, in microseconds.
    pub start_us: u64,
    /// Wall-clock duration in microseconds; `None` while the span is open.
    pub dur_us: Option<u64>,
}

impl SpanRecord {
    /// The `/`-joined name path from the root to this span, resolved against
    /// `spans` (a slice indexed by span id, as [`Snapshot::spans`] is).
    #[must_use]
    pub fn path(&self, spans: &[SpanRecord]) -> String {
        let mut parts = vec![self.name.as_str()];
        let mut parent = self.parent;
        while let Some(id) = parent {
            let record = &spans[id as usize];
            parts.push(record.name.as_str());
            parent = record.parent;
        }
        parts.reverse();
        parts.join("/")
    }
}

/// A point-in-time copy of a registry's telemetry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Every span opened so far, indexed by id.
    pub spans: Vec<SpanRecord>,
    /// Final counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl Snapshot {
    /// The value of the named counter (0 when never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// A node of the normalized, timing-free span tree: name, labels, and
/// children sorted recursively. Two runs of the same deterministic workload
/// produce equal forests no matter how many worker threads executed them or
/// how their spans interleaved.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanNode {
    /// The span's taxonomy name.
    pub name: String,
    /// The span's labels, sorted by key then value.
    pub labels: Vec<(String, String)>,
    /// Child nodes, sorted by `(name, labels, children)`.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Renders the tree as an indented outline (for test diagnostics).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.name);
        if !self.labels.is_empty() {
            let labels: Vec<String> = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!("[{}]", labels.join(",")));
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }
}

/// Builds the normalized span forest from raw records: one root node per
/// parentless span, children sorted recursively, timings discarded.
#[must_use]
pub fn span_forest(spans: &[SpanRecord]) -> Vec<SpanNode> {
    let mut children_of: Vec<Vec<u64>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<u64> = Vec::new();
    for record in spans {
        match record.parent {
            Some(parent) => children_of[parent as usize].push(record.id),
            None => roots.push(record.id),
        }
    }
    let mut forest: Vec<SpanNode> = roots
        .into_iter()
        .map(|id| build_node(id, spans, &children_of))
        .collect();
    forest.sort();
    forest
}

fn build_node(id: u64, spans: &[SpanRecord], children_of: &[Vec<u64>]) -> SpanNode {
    let record = &spans[id as usize];
    let mut labels = record.labels.clone();
    labels.sort();
    let mut children: Vec<SpanNode> = children_of[id as usize]
        .iter()
        .map(|&child| build_node(child, spans, children_of))
        .collect();
    children.sort();
    SpanNode {
        name: record.name.clone(),
        labels,
        children,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, parent: Option<u64>, name: &str) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            labels: Vec::new(),
            start_us: id * 10,
            dur_us: Some(5),
        }
    }

    #[test]
    fn paths_join_ancestor_names() {
        let spans = vec![
            record(0, None, "campaign"),
            record(1, Some(0), "predict"),
            record(2, Some(1), "solve"),
        ];
        assert_eq!(spans[2].path(&spans), "campaign/predict/solve");
        assert_eq!(spans[0].path(&spans), "campaign");
    }

    #[test]
    fn forest_normalizes_sibling_order_and_ignores_timings() {
        let mut a = vec![
            record(0, None, "root"),
            record(1, Some(0), "beta"),
            record(2, Some(0), "alpha"),
        ];
        let b = vec![
            record(0, None, "root"),
            record(1, Some(0), "alpha"),
            record(2, Some(0), "beta"),
        ];
        // Different interleaving (ids/start times swapped) — same tree.
        a[1].start_us = 900;
        assert_eq!(span_forest(&a), span_forest(&b));
        let forest = span_forest(&a);
        let names: Vec<&str> = forest[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
    }

    #[test]
    fn labels_distinguish_otherwise_equal_nodes() {
        let mut x = record(1, Some(0), "task");
        x.labels.push(("seed".into(), "0".into()));
        let mut y = record(2, Some(0), "task");
        y.labels.push(("seed".into(), "1".into()));
        let spans = vec![record(0, None, "root"), x, y];
        let forest = span_forest(&spans);
        assert_eq!(forest[0].children.len(), 2);
        assert_ne!(forest[0].children[0], forest[0].children[1]);
        assert!(forest[0].render().contains("task[seed=0]"));
    }

    #[test]
    fn snapshot_lookups_default_sensibly() {
        let snapshot = Snapshot {
            spans: Vec::new(),
            counters: vec![("a".into(), 3)],
        };
        assert_eq!(snapshot.counter("a"), 3);
        assert_eq!(snapshot.counter("missing"), 0);
    }
}
