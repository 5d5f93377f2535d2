//! `Solver::rewind` restores the exact pre-search state: a solver that
//! searched under a small conflict budget, rewound, preprocessed and searched
//! again must find the same model, with the same preprocessing summary and
//! the same work after the rewind, as a fresh solver that preprocessed
//! before its first search.

use isopredict_sat::{parse_dimacs, solver_from_dimacs, Lit, SolveOutcome, Solver, Var};

/// A deterministic xorshift generator for the random instances.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random 3-SAT instance near the satisfiability threshold (4.2 clauses
/// per variable), so that most need more than a handful of conflicts.
fn random_3sat(seed: u64) -> (usize, Vec<Vec<Lit>>) {
    let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let num_vars = 40 + rng.below(41);
    let clauses = (0..num_vars * 42 / 10)
        .map(|_| {
            let mut vars: Vec<usize> = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.below(num_vars);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| Lit::new(Var::from_index(v as u32), rng.next() & 1 == 0))
                .collect()
        })
        .collect();
    (num_vars, clauses)
}

fn fixture(text: &str) -> (usize, Vec<Vec<Lit>>) {
    parse_dimacs(text).expect("fixture parses")
}

/// The work counters of `solver` minus the totals in `before`.
fn work_since(before: &[(&'static str, u64)], solver: &Solver) -> Vec<(&'static str, u64)> {
    solver
        .stats()
        .work_counters()
        .into_iter()
        .zip(before)
        .map(|((name, total), &(_, earlier))| (name, total - earlier))
        .collect()
}

/// Probes `clauses` under `budget` conflicts, rewinds, preprocesses and
/// solves, and checks the result against a fresh preprocess-then-solve.
/// Returns the probe's outcome.
fn assert_rewind_is_exact(
    name: &str,
    num_vars: usize,
    clauses: &[Vec<Lit>],
    budget: u64,
) -> SolveOutcome {
    let mut fresh = solver_from_dimacs(num_vars, clauses);
    let fresh_summary = fresh.preprocess();
    let fresh_outcome = fresh.solve();

    let mut probed = solver_from_dimacs(num_vars, clauses);
    probed.config_mut().max_conflicts = Some(budget);
    let probe = probed.solve();
    probed.config_mut().max_conflicts = None;
    probed.rewind();
    let at_rewind = probed.stats().work_counters();
    let summary = probed.preprocess();
    let outcome = probed.solve();

    assert_eq!(
        summary, fresh_summary,
        "{name}, budget {budget}: preprocessing summary"
    );
    assert_eq!(outcome, fresh_outcome, "{name}, budget {budget}: outcome");
    assert_eq!(
        probed.model(),
        fresh.model(),
        "{name}, budget {budget}: model"
    );
    assert_eq!(
        work_since(&at_rewind, &probed),
        fresh.stats().work_counters(),
        "{name}, budget {budget}: work after the rewind"
    );
    probe
}

#[test]
fn probe_rewind_preprocess_repeats_a_fresh_preprocessed_solve() {
    let mut instances = vec![
        (
            "golden_sat",
            fixture(include_str!("fixtures/golden_sat.cnf")),
        ),
        ("php_4_3", fixture(include_str!("fixtures/php_4_3.cnf"))),
    ];
    for seed in 1..=10 {
        instances.push(("random_3sat", random_3sat(seed)));
    }
    let mut undecided = 0;
    for (name, (num_vars, clauses)) in &instances {
        for budget in 1..=5 {
            let probe = assert_rewind_is_exact(name, *num_vars, clauses, budget);
            undecided += usize::from(probe == SolveOutcome::Unknown);
        }
    }
    assert!(undecided >= 20, "only {undecided} probes ran out of budget");
}

#[test]
fn a_rewound_solver_searches_as_a_fresh_one() {
    // Without preprocessing in between, the search after a rewind is the
    // fresh solver's first search.
    for seed in 11..=15 {
        let (num_vars, clauses) = random_3sat(seed);
        let mut fresh = solver_from_dimacs(num_vars, &clauses);
        let fresh_outcome = fresh.solve();
        let mut probed = solver_from_dimacs(num_vars, &clauses);
        probed.config_mut().max_conflicts = Some(3);
        probed.solve();
        probed.config_mut().max_conflicts = None;
        probed.rewind();
        let at_rewind = probed.stats().work_counters();
        assert_eq!(probed.solve(), fresh_outcome, "seed {seed}");
        assert_eq!(probed.model(), fresh.model(), "seed {seed}");
        assert_eq!(
            work_since(&at_rewind, &probed),
            fresh.stats().work_counters(),
            "seed {seed}"
        );
    }
}

#[test]
#[should_panic(expected = "rewind needs a search to undo")]
fn rewind_without_a_search_panics() {
    let mut solver = Solver::new();
    let v = solver.new_var();
    solver.add_clause([Lit::positive(v)]);
    solver.rewind();
}

#[test]
#[should_panic(expected = "rewind needs a search to undo")]
fn rewind_after_an_added_clause_panics() {
    let mut solver = Solver::new();
    let a = solver.new_var();
    let b = solver.new_var();
    solver.add_clause([Lit::positive(a), Lit::positive(b)]);
    assert_eq!(solver.solve(), SolveOutcome::Sat);
    solver.add_clause([Lit::negative(a)]);
    solver.rewind();
}
