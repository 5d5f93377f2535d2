//! Property-based tests of the preprocessing pipeline: for arbitrary CNF
//! formulas, preprocessing must be equisatisfiable and the reconstructed
//! models must satisfy every original clause.

use proptest::prelude::*;

use isopredict_sat::{Lit, SolveOutcome, Solver, Var};

/// Raw clause material: variable indices are reduced modulo the instance's
/// variable count when the formula is built (the vendored proptest has no
/// `prop_flat_map`, so sizes and contents are drawn independently).
fn cnf_strategy() -> impl Strategy<Value = (usize, Vec<Vec<(u8, bool)>>)> {
    (
        3usize..9,
        prop::collection::vec(prop::collection::vec((0u8..32, any::<bool>()), 1..4), 1..24),
    )
}

/// Reduces raw clause material to in-range variable indices.
fn normalize(num_vars: usize, raw: &[Vec<(u8, bool)>]) -> Vec<Vec<(u8, bool)>> {
    raw.iter()
        .map(|clause| {
            clause
                .iter()
                .map(|&(v, neg)| (v % num_vars as u8, neg))
                .collect()
        })
        .collect()
}

fn build(num_vars: usize, clauses: &[Vec<(u8, bool)>]) -> Solver {
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
    for clause in clauses {
        solver.add_clause(
            clause
                .iter()
                .map(|&(v, neg)| Lit::new(vars[v as usize], neg)),
        );
    }
    solver
}

fn check_model(
    solver: &Solver,
    clauses: &[Vec<(u8, bool)>],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let model = solver.model().expect("sat outcome has a model");
    for (index, clause) in clauses.iter().enumerate() {
        prop_assert!(
            clause
                .iter()
                .any(|&(v, neg)| model.value(Var::from_index(u32::from(v))) != neg),
            "model violates original clause {}: {:?}",
            index,
            clause
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Preprocessing (UP, equivalent literals, subsumption, strengthening,
    /// probing, variable elimination) must never change satisfiability, and
    /// models must reconstruct through the elimination stack to assignments
    /// that satisfy the *original* formula.
    #[test]
    fn preprocessing_is_equisatisfiable_and_models_reconstruct(
        (num_vars, raw) in cnf_strategy()
    ) {
        let clauses = normalize(num_vars, &raw);
        let mut plain = build(num_vars, &clauses);
        let mut preprocessed = build(num_vars, &clauses);
        preprocessed.preprocess();
        let plain_outcome = plain.solve();
        let pp_outcome = preprocessed.solve();
        prop_assert_eq!(plain_outcome, pp_outcome, "preprocessing changed the verdict");
        if pp_outcome == SolveOutcome::Sat {
            check_model(&plain, &clauses)?;
            check_model(&preprocessed, &clauses)?;
        }
    }

    /// Incremental use after preprocessing: adding clauses that mention
    /// eliminated or substituted variables must transparently restore them,
    /// and re-solving must stay correct against a from-scratch solver.
    #[test]
    fn incremental_clauses_after_preprocessing_stay_correct(
        (num_vars, raw) in cnf_strategy(),
        extra_raw in prop::collection::vec(
            prop::collection::vec((0u8..32, any::<bool>()), 1..3),
            1..4,
        ),
    ) {
        let clauses = normalize(num_vars, &raw);
        let extra = normalize(num_vars, &extra_raw);

        let mut preprocessed = build(num_vars, &clauses);
        preprocessed.preprocess();
        let first = preprocessed.solve();

        // Reference: a fresh solver over the combined formula, no pp.
        let mut combined = clauses.clone();
        combined.extend(extra.iter().cloned());
        let mut reference = build(num_vars, &combined);
        let reference_outcome = reference.solve();

        if first == SolveOutcome::Unsat {
            // Adding clauses cannot make an unsat formula sat.
            prop_assert_eq!(reference_outcome, SolveOutcome::Unsat);
            return Ok(());
        }
        for clause in &extra {
            preprocessed.add_clause(
                clause
                    .iter()
                    .map(|&(v, neg)| Lit::new(Var::from_index(u32::from(v)), neg)),
            );
        }
        let second = preprocessed.solve();
        prop_assert_eq!(second, reference_outcome, "incremental resolve disagrees");
        if second == SolveOutcome::Sat {
            check_model(&preprocessed, &combined)?;
        }
    }
}

/// Whether `clauses` over `num_vars` variables has a satisfying assignment,
/// by enumeration.
fn brute_force_sat(num_vars: usize, clauses: &[Vec<(u8, bool)>]) -> bool {
    (0u32..1 << num_vars).any(|bits| {
        clauses
            .iter()
            .all(|clause| clause.iter().any(|&(v, neg)| (bits >> v & 1 == 1) != neg))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Preprocessing runs once, before the first solve. Afterwards, batches
    /// of clauses that mention eliminated and substituted variables join
    /// the simplified formula without another preprocessing run, and every
    /// answer still agrees with brute force over all clauses so far.
    #[test]
    fn clause_batches_join_the_simplified_formula_without_reprocessing(
        (num_vars, raw) in (4usize..9, prop::collection::vec(
            prop::collection::vec((0u8..32, any::<bool>()), 1..4), 1..20)),
        equivalences in prop::collection::vec((0u8..32, 0u8..32), 0..4),
        frozen_mask in 0u16..512,
        batches in prop::collection::vec(
            prop::collection::vec(
                (0u8..32, prop::collection::vec((0u8..32, any::<bool>()), 0..3), any::<bool>()),
                1..4,
            ),
            1..5,
        ),
    ) {
        // Planted equivalences give the substitution pass something to do.
        let mut clauses = normalize(num_vars, &raw);
        for &(a, b) in &equivalences {
            let (a, b) = (a % num_vars as u8, b % num_vars as u8);
            if a != b {
                clauses.push(vec![(a, false), (b, true)]);
                clauses.push(vec![(a, true), (b, false)]);
            }
        }
        let mut solver = build(num_vars, &clauses);
        for v in 0..num_vars {
            if frozen_mask >> v & 1 == 1 {
                solver.freeze_var(Var::from_index(v as u32));
            }
        }
        solver.preprocess();
        let first = solver.solve();
        prop_assert_eq!(first.is_sat(), brute_force_sat(num_vars, &clauses));
        let rounds = solver.stats().pp_rounds;

        for batch in &batches {
            // Each clause leads with a variable preprocessing took out of
            // the formula, when there is one left.
            let inactive: Vec<u8> = (0..num_vars as u8)
                .filter(|&v| !solver.is_active_var(Var::from_index(u32::from(v))))
                .collect();
            for (pick, rest, neg) in batch {
                let lead = if inactive.is_empty() {
                    pick % num_vars as u8
                } else {
                    inactive[usize::from(*pick) % inactive.len()]
                };
                let mut clause = vec![(lead, *neg)];
                clause.extend(normalize(num_vars, std::slice::from_ref(rest)).remove(0));
                solver.add_clause(
                    clause
                        .iter()
                        .map(|&(v, neg)| Lit::new(Var::from_index(u32::from(v)), neg)),
                );
                clauses.push(clause);
            }
            // A no-op once the solver has searched.
            solver.preprocess();
            let outcome = solver.solve();
            prop_assert_eq!(
                outcome.is_sat(),
                brute_force_sat(num_vars, &clauses),
                "incremental answer disagrees with brute force"
            );
            prop_assert!(outcome != SolveOutcome::Unknown);
            if outcome.is_sat() {
                check_model(&solver, &clauses)?;
            }
            prop_assert_eq!(
                solver.stats().pp_rounds,
                rounds,
                "a later call re-ran preprocessing"
            );
        }
    }
}
