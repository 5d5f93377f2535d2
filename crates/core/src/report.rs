//! Human-readable and Graphviz reports of predictions, in the spirit of the
//! paper's textual and graphical output.

use std::fmt::Write as _;

use isopredict_history::dot::{render, Overlay};
use isopredict_history::History;

use crate::predict::format_cycle;
use crate::prediction::Prediction;

/// A textual summary of a prediction: which reads changed, where each
/// session's boundary sits, and the cycle that witnesses unserializability.
#[must_use]
pub fn text_report(observed: &History, prediction: &Prediction) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "predicted {} execution ({} strategy) is unserializable",
        prediction.isolation, prediction.strategy
    );
    let _ = writeln!(
        out,
        "  {} of {} committed transactions are part of the predicted prefix",
        prediction.included_transactions(),
        observed.committed_transactions().count()
    );
    for (&session, &limit) in &prediction.boundaries {
        match limit {
            None => {
                let _ = writeln!(
                    out,
                    "  session {} ({}): no boundary (unchanged)",
                    session,
                    observed.session_name(session)
                );
            }
            Some(pos) => {
                let _ = writeln!(
                    out,
                    "  session {} ({}): boundary after event position {}",
                    session,
                    observed.session_name(session),
                    pos
                );
            }
        }
    }
    for changed in &prediction.changed_reads {
        let _ = writeln!(
            out,
            "  read of `{}` at {}[{}] now reads from {} (observed {})",
            changed.key, changed.session, changed.position, changed.predicted, changed.observed
        );
    }
    if let Some(cycle) = &prediction.pco_cycle {
        let _ = writeln!(out, "  pco cycle: {}", format_cycle(cycle));
    }
    let _ = writeln!(
        out,
        "  encoding: {} ({} constraint generation, {} solving)",
        prediction.stats,
        humanize(prediction.constraint_gen_time),
        humanize(prediction.solving_time)
    );
    out
}

/// A Graphviz rendering of the predicted history, with the witnessing cycle
/// overlaid as dashed edges (compare the paper's Figures 7, 8 and 10).
#[must_use]
pub fn dot_report(prediction: &Prediction) -> String {
    let mut overlay = Overlay {
        edges: Vec::new(),
        caption: Some(format!(
            "predicted {} execution ({})",
            prediction.isolation, prediction.strategy
        )),
    };
    if let Some(cycle) = &prediction.pco_cycle {
        for (index, &from) in cycle.iter().enumerate() {
            let to = cycle[(index + 1) % cycle.len()];
            overlay.edges.push((from, to, "pco".to_string()));
        }
    }
    render(&prediction.predicted, &overlay)
}

fn humanize(duration: std::time::Duration) -> String {
    if duration.as_secs() >= 1 {
        format!("{:.2} s", duration.as_secs_f64())
    } else {
        format!("{:.2} ms", duration.as_secs_f64() * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PredictorConfig, Strategy};
    use crate::encode::test_support::chained_deposits;
    use crate::predict::Predictor;
    use isopredict_obs::Obs;
    use isopredict_store::IsolationLevel;

    fn example() -> (History, Prediction) {
        let observed = chained_deposits();
        let predictor = Predictor::new(PredictorConfig {
            strategy: Strategy::ApproxRelaxed,
            isolation: IsolationLevel::Causal,
            ..PredictorConfig::default()
        });
        let prediction = match predictor.predict(&observed, &Obs::off()) {
            crate::PredictionOutcome::Prediction(p) => *p,
            other => panic!("expected a prediction, got {other:?}"),
        };
        (observed, prediction)
    }

    #[test]
    fn text_report_mentions_the_changed_read_and_cycle() {
        let (observed, prediction) = example();
        let report = text_report(&observed, &prediction);
        assert!(report.contains("unserializable"));
        assert!(report.contains("acct"));
        assert!(report.contains("pco cycle"));
        assert!(report.contains("literals"));
    }

    #[test]
    fn dot_report_is_valid_graphviz_with_an_overlay() {
        let (_, prediction) = example();
        let dot = dot_report(&prediction);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("pco"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn durations_are_humanized() {
        assert!(humanize(std::time::Duration::from_millis(5)).ends_with("ms"));
        assert!(humanize(std::time::Duration::from_secs(2)).ends_with(" s"));
    }
}
