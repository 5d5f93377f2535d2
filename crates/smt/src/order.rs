//! The strict-order theory: keeps asserted `x < y` atoms acyclic.

use isopredict_sat::{Lit, Theory, TheoryResult, Var};

use crate::stats::TheoryStats;

/// A node of the strict-order theory — conceptually an integer-valued symbol
/// such as `co(t)` or `rank(t1, t2)` whose concrete value never matters, only
/// its relative order to other nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrderNode {
    pub(crate) id: u32,
}

impl OrderNode {
    /// The dense identifier of this node.
    #[must_use]
    pub fn id(self) -> u32 {
        self.id
    }
}

/// The parent entry of a search root: the path to the root has no edges.
const ROOT: u32 = u32::MAX;

/// The edge an order atom's positive literal asserts.
#[derive(Debug, Clone, Copy)]
struct Atom {
    from: u32,
    to: u32,
    /// Whether the edge is currently in the graph (on the trail).
    asserted: bool,
}

/// An edge asserted in the theory, remembered for backtracking.
#[derive(Debug, Clone, Copy)]
struct AssertedEdge {
    level: u32,
    var: Var,
    from: u32,
    to: u32,
}

/// Buffers reused by every graph search, so that a search allocates nothing
/// once they have grown to the graph's size.
#[derive(Debug, Default)]
struct Scratch {
    /// `marks[node] == epoch` iff the current search has visited `node`.
    marks: Vec<u32>,
    epoch: u32,
    /// Forward DFS stack of `(node, entry)`: `entry` indexes `entries` and
    /// names the last edge of the path the search reached `node` along.
    stack: Vec<(u32, u32)>,
    /// Path arena of `(edge var, parent entry)`; a path is recovered by
    /// walking parent entries back to [`ROOT`].
    entries: Vec<(Var, u32)>,
    /// Nodes the forward search visited (Pearce–Kelly's δF).
    forward: Vec<u32>,
    /// Nodes the backward search visited (Pearce–Kelly's δB).
    backward: Vec<u32>,
    /// The topological indices of `forward ∪ backward`, to be reassigned.
    slots: Vec<u32>,
}

impl Scratch {
    /// Starts a new search: every node becomes unvisited.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// Incremental cycle detection over the graph of asserted `<` atoms.
///
/// When the SAT core asserts an atom `a < b` true, the theory adds the edge
/// `a → b` unless a path `b ⇝ a` already exists. If one does, the cycle
/// `a → b ⇝ a` is inconsistent and the negations of the atoms along it form
/// the conflict clause. Negated atoms are ignored (see the crate-level
/// polarity discussion).
///
/// Invariants between calls:
///
/// * **Topological order.** `ord` is a permutation of the nodes with
///   `ord[u] < ord[v]` for every asserted edge `u → v` (Pearce & Kelly, "A
///   dynamic topological sort algorithm for directed acyclic graphs", JEA
///   2006). Removing edges keeps it valid, so backtracking never touches it.
/// * **Path-preserving pruning.** A node `w` with `ord[w] > ord[a]` cannot
///   reach `a`. The search for `b ⇝ a` is therefore skipped outright when
///   `ord[a] < ord[b]`, and otherwise never pushes such a node. Pruned nodes
///   lie on no path to `a`, so the depth-first search (successors pushed in
///   adjacency order, nodes marked when popped) returns the same path — and
///   hence the same conflict clause — as the unpruned search would.
/// * **LIFO edges.** `adj`, `radj` and `trail` grow and shrink together, so
///   backtracking pops the last entry of each, and an atom's `asserted`
///   flag is set exactly while its edge is on the trail.
#[derive(Debug, Default)]
pub(crate) struct OrderTheory {
    /// `atoms[var.index()]` is the edge `var` asserts, if `var` is an atom.
    atoms: Vec<Option<Atom>>,
    /// Adjacency list: `adj[node]` = (successor, asserting SAT variable).
    adj: Vec<Vec<(u32, Var)>>,
    /// Reverse adjacency list: `radj[node]` = predecessors.
    radj: Vec<Vec<u32>>,
    /// `ord[node]` is the node's index in a topological order of the graph.
    ord: Vec<u32>,
    /// Stack of asserted edges for backtracking.
    trail: Vec<AssertedEdge>,
    scratch: Scratch,
    stats: TheoryStats,
}

impl OrderTheory {
    pub(crate) fn new() -> Self {
        OrderTheory::default()
    }

    pub(crate) fn new_node(&mut self) -> OrderNode {
        let id = self.num_nodes();
        // A node without edges may take any place; the last one is free.
        self.ord.push(id);
        self.adj.push(Vec::new());
        self.radj.push(Vec::new());
        self.scratch.marks.push(0);
        OrderNode { id }
    }

    pub(crate) fn register_atom(&mut self, var: Var, from: OrderNode, to: OrderNode) {
        if self.atoms.len() <= var.index() {
            self.atoms.resize(var.index() + 1, None);
        }
        self.atoms[var.index()] = Some(Atom {
            from: from.id,
            to: to.id,
            asserted: false,
        });
    }

    /// Drops every edge, root-level ones included, and restores the
    /// identity order and empty search buffers of a theory that has seen no
    /// assertion. The work counters are kept.
    pub(crate) fn rewind(&mut self) {
        for atom in self.atoms.iter_mut().flatten() {
            atom.asserted = false;
        }
        for list in &mut self.adj {
            list.clear();
        }
        for list in &mut self.radj {
            list.clear();
        }
        for (node, ord) in self.ord.iter_mut().enumerate() {
            *ord = node as u32;
        }
        self.trail.clear();
        let nodes = self.scratch.marks.len();
        self.scratch = Scratch::default();
        self.scratch.marks.resize(nodes, 0);
    }

    pub(crate) fn num_nodes(&self) -> u32 {
        self.ord.len() as u32
    }

    /// The registered atoms `(var, from, to)`, by variable.
    pub(crate) fn atoms(&self) -> impl Iterator<Item = (Var, OrderNode, OrderNode)> + '_ {
        self.atoms.iter().enumerate().filter_map(|(index, atom)| {
            let atom = atom.as_ref()?;
            Some((
                Var::from_index(index as u32),
                OrderNode { id: atom.from },
                OrderNode { id: atom.to },
            ))
        })
    }

    pub(crate) fn stats(&self) -> TheoryStats {
        self.stats
    }

    fn add_edge(&mut self, var: Var, atom: Atom, level: u32) -> TheoryResult {
        self.stats.asserts += 1;
        // The `Theory` contract does not promise one notification per
        // assignment; a repeated assertion adds nothing.
        if atom.asserted {
            return TheoryResult::Consistent;
        }
        let Atom { from, to, .. } = atom;
        // An edge that agrees with the topological order cannot close a cycle.
        if self.ord[from as usize] >= self.ord[to as usize] {
            self.stats.searches += 1;
            if let Some(entry) = self.find_path(to, from) {
                let clause = self.conflict_clause(entry, var);
                debug_assert!(
                    self.lemma_closes_cycle(&clause, var, from, to),
                    "lemma {clause:?} closes no cycle through x{} ({from} → {to})",
                    var.index()
                );
                return TheoryResult::Conflict(clause);
            }
            self.collect_backward(from, to);
            self.reorder();
        }
        if let Some(atom) = self.atoms[var.index()].as_mut() {
            atom.asserted = true;
        }
        self.adj[from as usize].push((to, var));
        self.radj[to as usize].push(from);
        self.trail.push(AssertedEdge {
            level,
            var,
            from,
            to,
        });
        TheoryResult::Consistent
    }

    /// Depth-first search for a path `source ⇝ target`, returning the path
    /// arena entry of its last edge ([`ROOT`] for the empty path), or `None`
    /// if no path exists. Successors ordered after `target` are pruned (see
    /// the type-level invariants). The nodes it visits are left in
    /// `scratch.forward`.
    fn find_path(&mut self, source: u32, target: u32) -> Option<u32> {
        let Self {
            adj,
            ord,
            scratch,
            stats,
            ..
        } = self;
        let epoch = scratch.next_epoch();
        let bound = ord[target as usize];
        scratch.stack.clear();
        scratch.entries.clear();
        scratch.forward.clear();
        scratch.stack.push((source, ROOT));
        while let Some((node, entry)) = scratch.stack.pop() {
            stats.nodes_visited += 1;
            if node == target {
                return Some(entry);
            }
            if scratch.marks[node as usize] == epoch {
                continue;
            }
            scratch.marks[node as usize] = epoch;
            scratch.forward.push(node);
            for &(succ, var) in &adj[node as usize] {
                if scratch.marks[succ as usize] != epoch && ord[succ as usize] <= bound {
                    scratch.entries.push((var, entry));
                    scratch
                        .stack
                        .push((succ, (scratch.entries.len() - 1) as u32));
                }
            }
        }
        None
    }

    /// Collects into `scratch.backward` the nodes that reach `source` and are
    /// ordered after `lower` (Pearce–Kelly's δB for a new edge
    /// `source → lower`).
    fn collect_backward(&mut self, source: u32, lower: u32) {
        let Self {
            radj,
            ord,
            scratch,
            stats,
            ..
        } = self;
        let epoch = scratch.next_epoch();
        let bound = ord[lower as usize];
        scratch.backward.clear();
        scratch.backward.push(source);
        scratch.marks[source as usize] = epoch;
        // `backward` doubles as the work queue: the visit order is
        // irrelevant because `reorder` sorts it.
        let mut next = 0;
        while let Some(&node) = scratch.backward.get(next) {
            next += 1;
            stats.nodes_visited += 1;
            for &pred in &radj[node as usize] {
                if scratch.marks[pred as usize] != epoch && ord[pred as usize] > bound {
                    scratch.marks[pred as usize] = epoch;
                    scratch.backward.push(pred);
                }
            }
        }
    }

    /// Restores the topological order after an edge `from → to` with
    /// `ord[to] < ord[from]` was found acyclic: the indices held by δB ∪ δF
    /// are handed out again in increasing order, δB first (each set keeping
    /// its relative order), which moves everything that reaches `from`
    /// before everything `to` reaches.
    fn reorder(&mut self) {
        let Scratch {
            forward,
            backward,
            slots,
            ..
        } = &mut self.scratch;
        let ord = &mut self.ord;
        backward.sort_unstable_by_key(|&node| ord[node as usize]);
        forward.sort_unstable_by_key(|&node| ord[node as usize]);
        slots.clear();
        slots.extend(
            backward
                .iter()
                .chain(forward.iter())
                .map(|&node| ord[node as usize]),
        );
        slots.sort_unstable();
        for (&node, &slot) in backward.iter().chain(forward.iter()).zip(slots.iter()) {
            ord[node as usize] = slot;
        }
    }

    /// The conflict clause of the cycle closed by `var` and the path that
    /// ends at arena `entry`: the negated atoms, sorted and deduplicated.
    fn conflict_clause(&self, mut entry: u32, var: Var) -> Vec<Lit> {
        let mut clause = vec![Lit::negative(var)];
        while entry != ROOT {
            let (edge_var, parent) = self.scratch.entries[entry as usize];
            clause.push(Lit::negative(edge_var));
            entry = parent;
        }
        clause.sort_unstable();
        clause.dedup();
        clause
    }

    /// Lemma self-check: every literal of `clause` negates `var` or a
    /// currently asserted atom, and those atoms' edges lead from `to` back to
    /// `from`, closing the cycle `from → to ⇝ from`.
    fn lemma_closes_cycle(&self, clause: &[Lit], var: Var, from: u32, to: u32) -> bool {
        let mut edges = Vec::new();
        for &lit in clause {
            if lit.is_positive() {
                return false;
            }
            if lit.var() == var {
                continue;
            }
            match self.atoms.get(lit.var().index()).copied().flatten() {
                Some(atom) if atom.asserted => edges.push((atom.from, atom.to)),
                _ => return false,
            }
        }
        if !clause.contains(&Lit::negative(var)) {
            return false;
        }
        let mut reached = vec![to];
        let mut next = 0;
        while let Some(&node) = reached.get(next) {
            next += 1;
            if node == from {
                return true;
            }
            for &(edge_from, edge_to) in &edges {
                if edge_from == node && !reached.contains(&edge_to) {
                    reached.push(edge_to);
                }
            }
        }
        false
    }
}

impl Theory for OrderTheory {
    fn assert_literal(&mut self, lit: Lit, level: u32) -> TheoryResult {
        if lit.is_negative() {
            return TheoryResult::Consistent;
        }
        match self.atoms.get(lit.var().index()) {
            Some(&Some(atom)) => self.add_edge(lit.var(), atom, level),
            _ => TheoryResult::Consistent,
        }
    }

    fn backtrack_to(&mut self, level: u32) {
        while let Some(edge) = self.trail.last().copied() {
            if edge.level <= level {
                break;
            }
            self.trail.pop();
            let succ = self.adj[edge.from as usize].pop();
            debug_assert_eq!(succ, Some((edge.to, edge.var)), "adjacency is LIFO");
            let pred = self.radj[edge.to as usize].pop();
            debug_assert_eq!(pred, Some(edge.from), "reverse adjacency is LIFO");
            if let Some(atom) = self.atoms[edge.var.index()].as_mut() {
                atom.asserted = false;
            }
        }
    }
}

/// Computes a topological order of the nodes given the atoms that are true in
/// `model`. Used to extract concrete commit orders for reporting. Returns
/// `None` if the true atoms are cyclic (which indicates a solver bug).
pub(crate) fn topological_positions(num_nodes: u32, edges: &[(u32, u32)]) -> Option<Vec<usize>> {
    let n = num_nodes as usize;
    let mut indegree = vec![0usize; n];
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(from, to) in edges {
        adj[from as usize].push(to);
        indegree[to as usize] += 1;
    }
    let mut queue: Vec<u32> = (0..num_nodes)
        .filter(|&v| indegree[v as usize] == 0)
        .collect();
    let mut positions = vec![usize::MAX; n];
    let mut next_pos = 0;
    while let Some(node) = queue.pop() {
        positions[node as usize] = next_pos;
        next_pos += 1;
        for &succ in &adj[node as usize] {
            indegree[succ as usize] -= 1;
            if indegree[succ as usize] == 0 {
                queue.push(succ);
            }
        }
    }
    if next_pos == n {
        Some(positions)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;
    use crate::{SmtResult, SmtSolver};

    /// The unpruned, allocating depth-first theory `OrderTheory` replaced;
    /// the differential test requires identical answers from both.
    #[derive(Debug, Default)]
    struct ReferenceTheory {
        edge_of_var: HashMap<Var, (u32, u32)>,
        adj: Vec<Vec<(u32, Var)>>,
        trail: Vec<AssertedEdge>,
    }

    impl ReferenceTheory {
        fn find_path(&self, from: u32, to: u32) -> Option<Vec<Var>> {
            let mut stack = vec![(from, Vec::new())];
            let mut visited = vec![false; self.adj.len()];
            while let Some((node, path)) = stack.pop() {
                if node == to {
                    return Some(path);
                }
                if visited[node as usize] {
                    continue;
                }
                visited[node as usize] = true;
                for &(succ, var) in &self.adj[node as usize] {
                    if !visited[succ as usize] {
                        let mut next_path = path.clone();
                        next_path.push(var);
                        stack.push((succ, next_path));
                    }
                }
            }
            None
        }
    }

    impl Theory for ReferenceTheory {
        fn assert_literal(&mut self, lit: Lit, level: u32) -> TheoryResult {
            if lit.is_negative() {
                return TheoryResult::Consistent;
            }
            let var = lit.var();
            let Some(&(from, to)) = self.edge_of_var.get(&var) else {
                return TheoryResult::Consistent;
            };
            if self
                .trail
                .iter()
                .any(|e| e.var == var && e.from == from && e.to == to)
            {
                return TheoryResult::Consistent;
            }
            if let Some(path_vars) = self.find_path(to, from) {
                let mut clause: Vec<Lit> = path_vars.into_iter().map(Lit::negative).collect();
                clause.push(Lit::negative(var));
                clause.sort_unstable();
                clause.dedup();
                return TheoryResult::Conflict(clause);
            }
            self.adj[from as usize].push((to, var));
            self.trail.push(AssertedEdge {
                level,
                var,
                from,
                to,
            });
            TheoryResult::Consistent
        }

        fn backtrack_to(&mut self, level: u32) {
            while let Some(edge) = self.trail.last().copied() {
                if edge.level <= level {
                    break;
                }
                self.trail.pop();
                let adj = &mut self.adj[edge.from as usize];
                if let Some(pos) = adj
                    .iter()
                    .rposition(|&(to, var)| to == edge.to && var == edge.var)
                {
                    adj.remove(pos);
                }
            }
        }
    }

    impl OrderTheory {
        /// Checks every structural invariant against the trail.
        fn check_invariants(&self) -> Result<(), String> {
            let n = self.ord.len();
            let mut seen = vec![false; n];
            for &index in &self.ord {
                if seen.get(index as usize).copied() != Some(false) {
                    return Err(format!("ord {:?} is not a permutation", self.ord));
                }
                seen[index as usize] = true;
            }
            let mut adj = vec![Vec::new(); n];
            let mut radj = vec![Vec::new(); n];
            for edge in &self.trail {
                if self.ord[edge.from as usize] >= self.ord[edge.to as usize] {
                    return Err(format!(
                        "ord {:?} violates edge {} → {}",
                        self.ord, edge.from, edge.to
                    ));
                }
                adj[edge.from as usize].push((edge.to, edge.var));
                radj[edge.to as usize].push(edge.from);
            }
            if adj != self.adj || radj != self.radj {
                return Err("adjacency lists disagree with the trail".to_string());
            }
            for (index, atom) in self.atoms.iter().enumerate() {
                let on_trail = self.trail.iter().any(|e| e.var.index() == index);
                if atom.is_some_and(|a| a.asserted) != on_trail {
                    return Err(format!(
                        "asserted flag of x{index} disagrees with the trail"
                    ));
                }
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The pruned, allocation-free theory answers every call exactly as
        /// the reference depth-first theory does — conflict clauses
        /// included — and keeps `ord` a topological order of the asserted
        /// edges throughout.
        #[test]
        fn pruned_theory_matches_the_reference_dfs(
            num_nodes in 1u32..9,
            raw_atoms in prop::collection::vec((0u32..8, 0u32..8), 1..25),
            ops in prop::collection::vec((0u8..8, any::<u8>(), any::<bool>()), 1..120),
        ) {
            let mut theory = OrderTheory::new();
            let mut reference = ReferenceTheory::default();
            let nodes: Vec<OrderNode> = (0..num_nodes).map(|_| theory.new_node()).collect();
            reference.adj = vec![Vec::new(); num_nodes as usize];
            // Atoms sit on odd variables so that even ones exercise the
            // non-atom path; endpoints may coincide (self-loops) and pairs
            // may repeat (parallel edges).
            let vars: Vec<Var> = (0..raw_atoms.len() as u32)
                .map(|i| Var::from_index(2 * i + 1))
                .collect();
            for (&var, &(from, to)) in vars.iter().zip(&raw_atoms) {
                let from = nodes[(from % num_nodes) as usize];
                let to = nodes[(to % num_nodes) as usize];
                theory.register_atom(var, from, to);
                reference.edge_of_var.insert(var, (from.id, to.id));
            }
            let mut level = 0u32;
            // Each op is `(kind, argument, negated)`: kind 0 backtracks,
            // 1 opens a decision level, 2 asserts a literal of either
            // polarity and 3..8 a positive one.
            for &(kind, arg, negated) in &ops {
                match kind {
                    0 => {
                        level = u32::from(arg) % (level + 1);
                        theory.backtrack_to(level);
                        reference.backtrack_to(level);
                    }
                    1 => level += 1,
                    _ => {
                        let index = u32::from(arg) % (2 * vars.len() as u32 + 2);
                        let lit = Lit::new(Var::from_index(index), negated && kind == 2);
                        let got = theory.assert_literal(lit, level);
                        let want = reference.assert_literal(lit, level);
                        prop_assert_eq!(&got, &want, "asserting {:?} at level {}", lit, level);
                    }
                }
                let trail: Vec<Var> = theory.trail.iter().map(|e| e.var).collect();
                let want: Vec<Var> = reference.trail.iter().map(|e| e.var).collect();
                prop_assert_eq!(trail, want);
                if let Err(message) = theory.check_invariants() {
                    prop_assert!(false, "{}", message);
                }
            }
        }
    }

    #[test]
    fn ordered_edges_need_no_search_and_reversed_ones_reorder() {
        let mut theory = OrderTheory::new();
        let nodes: Vec<OrderNode> = (0..3).map(|_| theory.new_node()).collect();
        let var = |i| Var::from_index(i);
        theory.register_atom(var(0), nodes[0], nodes[1]);
        theory.register_atom(var(1), nodes[2], nodes[0]);
        theory.register_atom(var(2), nodes[1], nodes[2]);
        assert!(theory
            .assert_literal(Lit::positive(var(0)), 1)
            .is_consistent());
        assert_eq!(theory.stats().searches, 0, "0 → 1 agrees with the order");
        assert!(theory
            .assert_literal(Lit::positive(var(1)), 1)
            .is_consistent());
        assert_eq!(theory.stats().searches, 1, "2 → 0 reverses the order");
        assert!(theory.ord[2] < theory.ord[0] && theory.ord[0] < theory.ord[1]);
        let conflict = theory.assert_literal(Lit::positive(var(2)), 1);
        assert_eq!(
            conflict,
            TheoryResult::Conflict((0..3).map(|i| Lit::negative(var(i))).collect())
        );
        assert_eq!(theory.stats().asserts, 3);
        theory.backtrack_to(0);
        assert!(theory.trail.is_empty());
        assert!(theory.check_invariants().is_ok());
    }

    #[test]
    fn a_rewound_theory_equals_a_fresh_one() {
        let build = || {
            let mut theory = OrderTheory::new();
            let nodes: Vec<OrderNode> = (0..4).map(|_| theory.new_node()).collect();
            for (i, (from, to)) in [(0, 1), (3, 0), (2, 3), (1, 2)].into_iter().enumerate() {
                theory.register_atom(Var::from_index(i as u32), nodes[from], nodes[to]);
            }
            theory
        };
        let state = |theory: &OrderTheory| {
            format!(
                "{:?}",
                (
                    &theory.atoms,
                    &theory.adj,
                    &theory.radj,
                    &theory.ord,
                    &theory.trail,
                    &theory.scratch
                )
            )
        };
        let fresh = build();
        let mut theory = build();
        // Root-level edges that reverse the order, then a cycle at level 1.
        for (var, level) in [(0, 0), (1, 0), (2, 1)] {
            assert!(theory
                .assert_literal(Lit::positive(Var::from_index(var)), level)
                .is_consistent());
        }
        assert!(!theory
            .assert_literal(Lit::positive(Var::from_index(3)), 1)
            .is_consistent());
        theory.backtrack_to(0);
        assert_ne!(state(&theory), state(&fresh));
        let stats = theory.stats();
        theory.rewind();
        assert_eq!(state(&theory), state(&fresh));
        assert_eq!(theory.stats(), stats, "the work counters are kept");
    }

    #[test]
    fn two_node_cycle_is_unsat() {
        let mut smt = SmtSolver::new();
        let a = smt.order_node();
        let b = smt.order_node();
        let ab = smt.less(a, b);
        let ba = smt.less(b, a);
        smt.assert_term(ab);
        smt.assert_term(ba);
        assert_eq!(smt.check(), SmtResult::Unsat);
    }

    #[test]
    fn chain_of_lesses_is_sat_and_orders_nodes() {
        let mut smt = SmtSolver::new();
        let nodes: Vec<_> = (0..5).map(|_| smt.order_node()).collect();
        for pair in nodes.windows(2) {
            let lt = smt.less(pair[0], pair[1]);
            smt.assert_term(lt);
        }
        assert_eq!(smt.check(), SmtResult::Sat);
        let positions = smt
            .model_order_positions()
            .expect("sat model has positions");
        for pair in nodes.windows(2) {
            assert!(positions[pair[0].id() as usize] < positions[pair[1].id() as usize]);
        }
    }

    #[test]
    fn long_cycle_through_disjunction_forces_the_escape_hatch() {
        // (a<b) ∧ (b<c) ∧ (c<a ∨ escape): the solver must pick `escape`.
        let mut smt = SmtSolver::new();
        let a = smt.order_node();
        let b = smt.order_node();
        let c = smt.order_node();
        let escape = smt.bool_var();
        let ab = smt.less(a, b);
        let bc = smt.less(b, c);
        let ca = smt.less(c, a);
        let alt = smt.or([ca, escape]);
        smt.assert_term(ab);
        smt.assert_term(bc);
        smt.assert_term(alt);
        assert_eq!(smt.check(), SmtResult::Sat);
        assert_eq!(smt.model_bool(escape), Some(true));
    }

    #[test]
    fn disconnected_components_do_not_interfere() {
        let mut smt = SmtSolver::new();
        let a = smt.order_node();
        let b = smt.order_node();
        let c = smt.order_node();
        let d = smt.order_node();
        let ab = smt.less(a, b);
        let cd = smt.less(c, d);
        let dc = smt.less(d, c);
        smt.assert_term(ab);
        // One direction between c and d must be chosen; either is fine and
        // neither interacts with the a/b component.
        let either = smt.or([cd, dc]);
        smt.assert_term(either);
        assert_eq!(smt.check(), SmtResult::Sat);
    }

    #[test]
    fn topological_positions_detects_cycles() {
        assert!(topological_positions(2, &[(0, 1), (1, 0)]).is_none());
        let positions = topological_positions(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(positions[0] < positions[1] && positions[1] < positions[2]);
    }
}
