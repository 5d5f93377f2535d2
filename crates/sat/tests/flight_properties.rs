//! Property-based tests of the solver flight recorder: per-family conflict
//! attribution must partition the conflict counter exactly, and heartbeat
//! sequences must be strictly monotone within a solve call.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use isopredict_sat::{Heartbeat, Lit, Solver, SolverConfig, Var};

/// Raw clause material: variable indices are reduced modulo the instance's
/// variable count when the formula is built.
fn cnf_strategy() -> impl Strategy<Value = (usize, Vec<Vec<(u8, bool)>>)> {
    (
        3usize..9,
        prop::collection::vec(prop::collection::vec((0u8..32, any::<bool>()), 1..4), 8..40),
    )
}

/// Builds a solver whose clauses are spread across three interned axiom
/// families (round-robin), exercising the tagging path the encoder uses.
fn build_tagged(
    num_vars: usize,
    raw: &[Vec<(u8, bool)>],
    preprocess: bool,
    max_conflicts: Option<u64>,
    heartbeat_every: u64,
) -> Solver {
    let mut solver = Solver::with_config(SolverConfig {
        max_conflicts,
        heartbeat_every,
        ..SolverConfig::default()
    });
    let families = [
        solver.intern_family("feasibility"),
        solver.intern_family("isolation:causal"),
        solver.intern_family("unserializability"),
    ];
    let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
    for (index, clause) in raw.iter().enumerate() {
        solver.set_emit_family(families[index % families.len()]);
        solver.add_clause(
            clause
                .iter()
                .map(|&(v, neg)| Lit::new(vars[usize::from(v) % num_vars], neg)),
        );
    }
    if preprocess {
        solver.preprocess();
    }
    solver
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-family conflict partition must sum exactly to
    /// `SolverStats.conflicts`, whatever the outcome (including budget
    /// exhaustion) and with preprocessing on or off.
    #[test]
    fn conflict_attribution_partitions_the_conflict_counter(
        (num_vars, raw) in cnf_strategy(),
        preprocess in any::<bool>(),
        budgeted in any::<bool>(),
        budget_raw in 1u64..20,
    ) {
        let budget = budgeted.then_some(budget_raw);
        let mut solver = build_tagged(num_vars, &raw, preprocess, budget, 0);
        let _ = solver.solve();
        let attribution = solver.attribution();
        prop_assert_eq!(
            attribution.total_conflicts(),
            solver.stats().conflicts,
            "partition {:?} does not sum to the conflict counter",
            &attribution.conflicts_by_family
        );
        // Involvement is at least as large as the partition per family: the
        // falsified clause's own mask always carries its family bit.
        for id in 0..attribution.families.len().min(32) {
            prop_assert!(
                attribution.conflicts_involving[id] >= attribution.conflicts_by_family[id],
                "family {} involved less often than it was charged",
                &attribution.families[id]
            );
        }
    }

    /// Attribution stays an exact partition across incremental solve calls
    /// (blocking clauses, restored variables and all).
    #[test]
    fn attribution_survives_incremental_solving(
        (num_vars, raw) in cnf_strategy(),
    ) {
        let mut solver = build_tagged(num_vars, &raw, true, None, 0);
        for _ in 0..3 {
            if !solver.solve().is_sat() {
                break;
            }
            let model = solver.model().expect("sat outcome has a model").clone();
            let blocking: Vec<Lit> = (0..num_vars)
                .map(|v| {
                    let var = Var::from_index(v as u32);
                    Lit::new(var, model.value(var))
                })
                .collect();
            solver.add_clause(blocking);
        }
        prop_assert_eq!(
            solver.attribution().total_conflicts(),
            solver.stats().conflicts
        );
    }

    /// Heartbeat `seq` must increase by exactly one per sample and the
    /// conflict counts must be strictly monotone within a solve call; the
    /// retained ring must be a suffix of the emitted stream.
    #[test]
    fn heartbeats_are_strictly_monotone_within_a_solve(
        (num_vars, raw) in cnf_strategy(),
        every in 1u64..5,
    ) {
        let mut solver = build_tagged(num_vars, &raw, false, None, every);
        let seen: Arc<Mutex<Vec<Heartbeat>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        solver.set_heartbeat_hook(Some(Box::new(move |hb: &Heartbeat| {
            sink.lock().expect("hook lock").push(hb.clone());
        })));
        let _ = solver.solve();
        let seen = seen.lock().expect("test lock").clone();
        for (index, hb) in seen.iter().enumerate() {
            prop_assert_eq!(hb.seq, index as u64 + 1, "seq must count from 1");
            prop_assert_eq!(
                hb.conflicts_by_family.iter().sum::<u64>(),
                hb.conflicts,
                "heartbeat partition must sum to its conflict count"
            );
            prop_assert!(hb.trail_depth <= hb.total_vars);
            prop_assert!(hb.vars_assigned_at_root <= hb.trail_depth);
        }
        for pair in seen.windows(2) {
            prop_assert!(
                pair[1].conflicts > pair[0].conflicts,
                "conflict counts must be strictly increasing"
            );
        }
        // The ring retained by the solver is the tail of the emitted stream.
        let ring = solver.heartbeats();
        prop_assert!(ring.len() <= seen.len());
        prop_assert_eq!(&seen[seen.len() - ring.len()..], &ring[..]);
    }
}

#[test]
fn postmortem_names_a_dominant_family_for_a_budgeted_unknown() {
    // Pigeonhole 6-into-5, all clauses tagged as one axiom family, tiny
    // budget: the solve must end Unknown and the post-mortem must attribute
    // the fight to that family.
    let mut solver = Solver::with_config(SolverConfig {
        max_conflicts: Some(50),
        heartbeat_every: 5,
        ..SolverConfig::default()
    });
    let fam = solver.intern_family("isolation:snapshot");
    solver.set_emit_family(fam);
    let n = 6;
    let holes = 5;
    let p: Vec<Vec<Var>> = (0..n)
        .map(|_| (0..holes).map(|_| solver.new_var()).collect())
        .collect();
    for row in &p {
        solver.add_clause(row.iter().map(|&v| Lit::positive(v)));
    }
    for (i, row1) in p.iter().enumerate() {
        for row2 in &p[i + 1..] {
            for (s1, s2) in row1.iter().zip(row2) {
                solver.add_clause([Lit::negative(*s1), Lit::negative(*s2)]);
            }
        }
    }
    assert!(!solver.solve().is_sat());
    let postmortem = solver.postmortem();
    assert_eq!(postmortem.budget, Some(50));
    assert!(postmortem.conflicts_in_call >= 50);
    assert!(
        !postmortem.heartbeats.is_empty(),
        "ring must retain samples"
    );
    let (name, involved) = postmortem
        .attribution
        .dominant_family()
        .expect("conflicts were attributed");
    assert_eq!(name, "isolation:snapshot");
    assert!(involved > 0);
    assert_eq!(
        postmortem.attribution.total_conflicts(),
        postmortem.stats.conflicts
    );
}
