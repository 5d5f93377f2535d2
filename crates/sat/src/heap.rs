//! Indexed max-heap over variable activities (VSIDS decision order).

use crate::literal::Var;

/// A binary max-heap keyed by per-variable activity scores, supporting
/// `decrease`/`increase` updates by variable index.
#[derive(Debug, Default, Clone)]
pub(crate) struct ActivityHeap {
    /// Heap of variable indices.
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    positions: Vec<usize>,
    /// Activity score per variable.
    activity: Vec<f64>,
}

const ABSENT: usize = usize::MAX;

impl ActivityHeap {
    pub(crate) fn new() -> Self {
        ActivityHeap::default()
    }

    pub(crate) fn grow_to(&mut self, num_vars: usize) {
        while self.positions.len() < num_vars {
            let var = self.positions.len() as u32;
            self.positions.push(ABSENT);
            self.activity.push(0.0);
            self.insert(Var::from_index(var));
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn activity(&self, var: Var) -> f64 {
        self.activity[var.index()]
    }

    pub(crate) fn contains(&self, var: Var) -> bool {
        self.positions[var.index()] != ABSENT
    }

    pub(crate) fn insert(&mut self, var: Var) {
        if self.contains(var) {
            return;
        }
        let pos = self.heap.len();
        self.heap.push(var.raw());
        self.positions[var.index()] = pos;
        self.sift_up(pos);
    }

    pub(crate) fn pop_max(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("heap non-empty");
        self.positions[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.positions[last as usize] = 0;
            self.sift_down(0);
        }
        Some(Var::from_index(top))
    }

    pub(crate) fn bump(&mut self, var: Var, amount: f64) -> f64 {
        self.activity[var.index()] += amount;
        let new = self.activity[var.index()];
        if self.contains(var) {
            self.sift_up(self.positions[var.index()]);
        }
        new
    }

    /// Rescales all activities by `factor` (used to avoid floating-point
    /// overflow when scores become very large).
    pub(crate) fn rescale(&mut self, factor: f64) {
        for a in &mut self.activity {
            *a *= factor;
        }
    }

    /// Moves the variable at `pos` towards the root while its parent has a
    /// lower activity. The variable is held in a hole that travels up, so
    /// each step writes one slot instead of swapping two.
    fn sift_up(&mut self, mut pos: usize) {
        let var = self.heap[pos];
        let act = self.activity[var as usize];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let up = self.heap[parent];
            if self.activity[up as usize] < act {
                self.heap[pos] = up;
                self.positions[up as usize] = pos;
                pos = parent;
            } else {
                break;
            }
        }
        self.heap[pos] = var;
        self.positions[var as usize] = pos;
    }

    /// Moves the variable at `pos` towards the leaves while a child has a
    /// higher activity, preferring the left child on ties: the tie-breaks
    /// fix the decision order, so they must not change.
    fn sift_down(&mut self, mut pos: usize) {
        let var = self.heap[pos];
        let act = self.activity[var as usize];
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            let right = left + 1;
            let mut largest = pos;
            let mut largest_act = act;
            if left < len && largest_act < self.activity[self.heap[left] as usize] {
                largest = left;
                largest_act = self.activity[self.heap[left] as usize];
            }
            if right < len && largest_act < self.activity[self.heap[right] as usize] {
                largest = right;
            }
            if largest == pos {
                break;
            }
            let down = self.heap[largest];
            self.heap[pos] = down;
            self.positions[down as usize] = pos;
            pos = largest;
        }
        self.heap[pos] = var;
        self.positions[var as usize] = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let mut heap = ActivityHeap::new();
        heap.grow_to(4);
        heap.bump(Var::from_index(2), 3.0);
        heap.bump(Var::from_index(0), 1.0);
        heap.bump(Var::from_index(3), 2.0);
        assert_eq!(heap.pop_max(), Some(Var::from_index(2)));
        assert_eq!(heap.pop_max(), Some(Var::from_index(3)));
        assert_eq!(heap.pop_max(), Some(Var::from_index(0)));
        assert_eq!(heap.pop_max(), Some(Var::from_index(1)));
        assert_eq!(heap.pop_max(), None);
    }

    #[test]
    fn reinsert_after_pop() {
        let mut heap = ActivityHeap::new();
        heap.grow_to(2);
        let v0 = Var::from_index(0);
        let popped = heap.pop_max().expect("non-empty");
        assert!(!heap.contains(popped));
        heap.insert(v0);
        heap.insert(v0); // idempotent
        assert!(heap.contains(v0));
    }

    #[test]
    fn rescale_preserves_order() {
        let mut heap = ActivityHeap::new();
        heap.grow_to(3);
        heap.bump(Var::from_index(1), 1e100);
        heap.bump(Var::from_index(2), 1e50);
        heap.rescale(1e-100);
        assert_eq!(heap.pop_max(), Some(Var::from_index(1)));
        assert_eq!(heap.pop_max(), Some(Var::from_index(2)));
        assert!(heap.activity(Var::from_index(1)) <= 1.0 + f64::EPSILON);
    }
}
