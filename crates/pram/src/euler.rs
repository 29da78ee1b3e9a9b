//! Euler-tour tree computations — the paper's reference \[36\]
//! (Tarjan–Vishkin).  The paper uses the Euler-tour technique to (a) extract
//! the root path of a node in the trapezoid forest (Path Tracing Lemma 6) and
//! (b) compute node depths in shortest-path trees (Section 8).
//!
//! We provide a rooted forest abstraction with parallel-friendly depth
//! computation (pointer jumping) and root-path extraction.

use rayon::prelude::*;

/// A rooted forest on nodes `0..n`, described by parent pointers
/// (`parent[v] == None` for roots).
#[derive(Clone, Debug)]
pub struct Forest {
    parent: Vec<Option<usize>>,
}

impl Forest {
    /// Build from parent pointers.  Panics if a cycle is detected.
    pub fn new(parent: Vec<Option<usize>>) -> Self {
        let forest = Forest { parent };
        assert!(forest.depths_checked().is_some(), "parent pointers contain a cycle");
        forest
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of `v`.
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    /// Depths of every node (roots have depth 0), computed with pointer
    /// jumping: `O(n log n)` work, `O(log n)` rounds — the PRAM idiom used in
    /// place of list ranking.
    pub fn depths(&self) -> Vec<usize> {
        self.depths_checked().expect("cycle")
    }

    /// Pointer-doubling depth computation with explicit distance
    /// accumulation.  Returns `None` if a cycle is detected (the number of
    /// doubling rounds exceeds `log2(n) + 1`).
    fn depths_checked(&self) -> Option<Vec<usize>> {
        let n = self.parent.len();
        if n == 0 {
            return Some(Vec::new());
        }
        let mut jump: Vec<Option<usize>> = self.parent.clone();
        let mut dist: Vec<usize> = (0..n).map(|v| usize::from(jump[v].is_some())).collect();
        let max_rounds = (usize::BITS - n.leading_zeros()) as usize + 1;
        let mut rounds = 0usize;
        while jump.par_iter().any(|j| j.is_some()) {
            rounds += 1;
            if rounds > max_rounds {
                return None;
            }
            let next: Vec<(usize, Option<usize>)> = (0..n)
                .into_par_iter()
                .map(|v| match jump[v] {
                    None => (dist[v], None),
                    Some(p) => (dist[v] + dist[p], jump[p]),
                })
                .collect();
            for (v, (d, j)) in next.into_iter().enumerate() {
                dist[v] = d;
                jump[v] = j;
            }
        }
        Some(dist)
    }

    /// The path from `v` to the root of its tree, inclusive of both ends.
    pub fn root_path(&self, v: usize) -> Vec<usize> {
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
            assert!(path.len() <= self.parent.len(), "cycle in forest");
        }
        path
    }

    /// The root of the tree containing `v`.
    pub fn root_of(&self, v: usize) -> usize {
        *self.root_path(v).last().unwrap()
    }

    /// Children lists (useful for traversals in callers).
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for (v, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                ch[*p].push(v);
            }
        }
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Forest {
        // tree 0: 0 <- 1 <- 2, 0 <- 3 ; tree 1: 4 <- 5
        Forest::new(vec![None, Some(0), Some(1), Some(0), None, Some(4)])
    }

    #[test]
    fn depths_are_correct() {
        let f = sample();
        assert_eq!(f.depths(), vec![0, 1, 2, 1, 0, 1]);
    }

    #[test]
    fn root_paths() {
        let f = sample();
        assert_eq!(f.root_path(2), vec![2, 1, 0]);
        assert_eq!(f.root_path(0), vec![0]);
        assert_eq!(f.root_of(5), 4);
        assert_eq!(f.root_of(3), 0);
    }

    #[test]
    fn children_lists() {
        let f = sample();
        let ch = f.children();
        assert_eq!(ch[0], vec![1, 3]);
        assert_eq!(ch[1], vec![2]);
        assert!(ch[2].is_empty());
    }

    #[test]
    fn long_chain_depths() {
        let n = 10_000;
        let parent: Vec<Option<usize>> = (0..n).map(|v| if v == 0 { None } else { Some(v - 1) }).collect();
        let f = Forest::new(parent);
        let d = f.depths();
        assert_eq!(d[0], 0);
        assert_eq!(d[n - 1], n - 1);
        assert_eq!(d[n / 2], n / 2);
    }

    #[test]
    #[should_panic]
    fn cycle_detection() {
        Forest::new(vec![Some(1), Some(0)]);
    }
}
