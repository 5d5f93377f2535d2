//! Brute-force check of the SMT layer on tiny order problems: `check` must
//! answer Sat exactly when some assignment satisfies every clause with an
//! acyclic set of true `<` atoms, and every Sat model's order positions must
//! respect each true atom — with SAT preprocessing on and off, and on the
//! predictor's probe → rewind → preprocess path.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use isopredict_smt::{OrderNode, SmtResult, SmtSolver, TermId};

const MAX_NODES: u32 = 5;
const MAX_ESCAPES: usize = 3;

/// A clause literal: an order atom (always positive) or a possibly negated
/// boolean escape variable.
#[derive(Debug, Clone, Copy)]
enum Literal {
    Atom(usize),
    Escape(usize, bool),
}

/// A random instance: node count, atoms as `(from, to)` node pairs, escape
/// count and clauses. Self-loops and repeated pairs are allowed.
#[derive(Debug)]
struct Instance {
    nodes: u32,
    atoms: Vec<(u32, u32)>,
    escapes: usize,
    clauses: Vec<Vec<Literal>>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (
        1..=MAX_NODES,
        prop::collection::vec((0..MAX_NODES, 0..MAX_NODES), 1..13),
        0..=MAX_ESCAPES,
        prop::collection::vec(
            prop::collection::vec((any::<bool>(), any::<u8>(), any::<bool>()), 1..4),
            1..12,
        ),
    )
        .prop_map(|(nodes, raw_atoms, escapes, raw_clauses)| {
            let atoms: Vec<(u32, u32)> = raw_atoms
                .into_iter()
                .map(|(from, to)| (from % nodes, to % nodes))
                .collect();
            let clauses = raw_clauses
                .into_iter()
                .map(|clause| {
                    clause
                        .into_iter()
                        .map(|(escape, index, negated)| {
                            if escape && escapes > 0 {
                                Literal::Escape(usize::from(index) % escapes, negated)
                            } else {
                                Literal::Atom(usize::from(index) % atoms.len())
                            }
                        })
                        .collect()
                })
                .collect();
            Instance {
                nodes,
                atoms,
                escapes,
                clauses,
            }
        })
}

/// Whether the edges `atoms[i]` with bit `i` of `mask` set form a DAG.
fn acyclic(nodes: u32, atoms: &[(u32, u32)], mask: u32) -> bool {
    let mut removed = vec![false; nodes as usize];
    loop {
        let mut indegree = vec![0u32; nodes as usize];
        for (index, &(from, to)) in atoms.iter().enumerate() {
            if mask & (1 << index) != 0 && !removed[from as usize] {
                indegree[to as usize] += 1;
            }
        }
        match (0..nodes as usize).find(|&node| !removed[node] && indegree[node] == 0) {
            Some(source) => removed[source] = true,
            None => return removed.iter().all(|&gone| gone),
        }
    }
}

/// Exhaustive search over every atom and escape assignment.
fn brute_force_sat(instance: &Instance) -> bool {
    (0u32..1 << instance.atoms.len()).any(|atoms| {
        (0u32..1 << instance.escapes).any(|escapes| {
            instance.clauses.iter().all(|clause| {
                clause.iter().any(|&literal| match literal {
                    Literal::Atom(index) => atoms & (1 << index) != 0,
                    Literal::Escape(index, negated) => (escapes & (1 << index) != 0) != negated,
                })
            })
        }) && acyclic(instance.nodes, &instance.atoms, atoms)
    })
}

/// Encodes `instance` into a fresh solver; returns it with the atom terms.
fn encode(instance: &Instance) -> (SmtSolver, Vec<TermId>) {
    let mut smt = SmtSolver::new();
    let nodes: Vec<OrderNode> = (0..instance.nodes).map(|_| smt.order_node()).collect();
    let atoms: Vec<TermId> = instance
        .atoms
        .iter()
        .map(|&(from, to)| smt.less(nodes[from as usize], nodes[to as usize]))
        .collect();
    let escapes: Vec<TermId> = (0..instance.escapes).map(|_| smt.bool_var()).collect();
    for clause in &instance.clauses {
        let literals: Vec<TermId> = clause
            .iter()
            .map(|&literal| match literal {
                Literal::Atom(index) => atoms[index],
                Literal::Escape(index, false) => escapes[index],
                Literal::Escape(index, true) => smt.not(escapes[index]),
            })
            .collect();
        let disjunction = smt.or(literals);
        smt.assert_term(disjunction);
    }
    (smt, atoms)
}

/// Checks a decided `result` against enumeration, and a Sat model's order
/// positions against each true atom.
fn check_answer(
    smt: &SmtSolver,
    atoms: &[TermId],
    instance: &Instance,
    result: SmtResult,
    path: &str,
) -> Result<(), TestCaseError> {
    let expected = brute_force_sat(instance);
    prop_assert_eq!(
        result == SmtResult::Sat,
        expected,
        "{}: solver said {:?} on {:?}",
        path,
        result,
        instance
    );
    if result != SmtResult::Sat {
        prop_assert_eq!(result, SmtResult::Unsat, "{}: no budget was set", path);
        return Ok(());
    }
    let positions = smt.model_order_positions();
    prop_assert!(
        positions.is_some(),
        "{}: the true atoms of a Sat model are cyclic",
        path
    );
    let positions = positions.unwrap_or_default();
    for (&atom, &(from, to)) in atoms.iter().zip(&instance.atoms) {
        if smt.model_bool(atom) == Some(true) {
            prop_assert!(
                positions[from as usize] < positions[to as usize],
                "{}: true atom {} < {} violated by positions {:?}",
                path,
                from,
                to,
                positions
            );
        }
    }
    Ok(())
}

/// Encodes `instance`, solves it, and checks the answer and the model.
fn solve_and_check(instance: &Instance, preprocess: bool) -> Result<(), TestCaseError> {
    let (mut smt, atoms) = encode(instance);
    if preprocess {
        smt.preprocess();
    }
    let result = smt.check();
    let path = if preprocess { "preprocessed" } else { "plain" };
    check_answer(&smt, &atoms, instance, result, path)
}

/// The predictor's schedule: a probe under `budget` conflicts whose answer,
/// if it decides, must be right; then a rewind, preprocessing and a full
/// search, which must repeat a fresh preprocessed solver's answer, model and
/// work exactly — the order theory included, so a rewound theory behaves as
/// a fresh one.
fn probe_rewind_and_check(instance: &Instance, budget: u64) -> Result<(), TestCaseError> {
    let (mut fresh, atoms) = encode(instance);
    fresh.preprocess();
    let fresh_result = fresh.check();

    let (mut smt, _) = encode(instance);
    smt.set_conflict_budget(Some(budget));
    let probe = smt.check();
    if probe != SmtResult::Unknown {
        check_answer(&smt, &atoms, instance, probe, "probe")?;
    }
    smt.set_conflict_budget(None);
    smt.rewind();
    let at_rewind = smt.work_counters();
    smt.preprocess();
    let result = smt.check();
    check_answer(&smt, &atoms, instance, result, "rewound")?;

    prop_assert_eq!(result, fresh_result, "rewound and fresh answers differ");
    prop_assert_eq!(
        smt.model_order_positions(),
        fresh.model_order_positions(),
        "rewound and fresh order models differ"
    );
    for &atom in &atoms {
        prop_assert_eq!(smt.model_bool(atom), fresh.model_bool(atom));
    }
    let rewound_work: Vec<(&str, u64)> = smt
        .work_counters()
        .into_iter()
        .zip(at_rewind)
        .map(|((name, now), (_, then))| (name, now - then))
        .collect();
    prop_assert_eq!(rewound_work, fresh.work_counters(), "work after the rewind");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn check_agrees_with_enumeration_and_models_respect_true_atoms(
        instance in instance_strategy(),
    ) {
        solve_and_check(&instance, true)?;
        solve_and_check(&instance, false)?;
    }

    #[test]
    fn probe_then_rewind_agrees_with_enumeration_and_a_fresh_solver(
        instance in instance_strategy(),
        budget in 1u64..4,
    ) {
        probe_rewind_and_check(&instance, budget)?;
    }
}
