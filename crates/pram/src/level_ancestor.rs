//! Level-ancestor queries — the paper's reference \[5\] (Berkman–Vishkin).
//!
//! Section 8 of the paper uses level-ancestor queries to cut a reported
//! shortest path (a root path in a shortest-path tree) into `⌈k / log n⌉`
//! pieces that are output in parallel.  Berkman–Vishkin achieve `O(1)` query
//! after linear-work preprocessing; we use the classic jump-pointer table
//! (`O(n log n)` preprocessing, `O(log n)` query), which changes none of the
//! experiment outcomes — the substitution is recorded in DESIGN.md §3.

use crate::euler::Forest;
use rayon::prelude::*;

/// Jump-pointer level-ancestor structure over a rooted forest.
pub struct LevelAncestor {
    /// `up[k][v]` = the `2^k`-th ancestor of `v` (or `v`'s root if shallower).
    up: Vec<Vec<usize>>,
    depth: Vec<usize>,
}

impl LevelAncestor {
    /// Preprocess a forest.  Work `O(n log n)`, fully parallel per level.
    pub fn build(forest: &Forest) -> Self {
        let n = forest.len();
        let depth = forest.depths();
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        let levels = (usize::BITS - max_depth.leading_zeros()) as usize + 1;
        let mut up: Vec<Vec<usize>> = Vec::with_capacity(levels.max(1));
        let base: Vec<usize> = (0..n).map(|v| forest.parent(v).unwrap_or(v)).collect();
        up.push(base);
        for k in 1..levels.max(1) {
            let prev = &up[k - 1];
            let next: Vec<usize> = (0..n).into_par_iter().map(|v| prev[prev[v]]).collect();
            up.push(next);
        }
        LevelAncestor { up, depth }
    }

    /// Depth of node `v`.
    pub fn depth(&self, v: usize) -> usize {
        self.depth[v]
    }

    /// The ancestor of `v` that is `steps` edges closer to the root.
    /// Saturates at the root.
    pub fn ancestor_at(&self, v: usize, steps: usize) -> usize {
        let mut steps = steps.min(self.depth[v]);
        let mut cur = v;
        let mut k = 0;
        while steps > 0 {
            if steps & 1 == 1 {
                cur = self.up[k][cur];
            }
            steps >>= 1;
            k += 1;
        }
        cur
    }

    /// The ancestor of `v` at absolute depth `d` (must satisfy
    /// `d <= depth(v)`).
    pub fn ancestor_at_depth(&self, v: usize, d: usize) -> usize {
        assert!(d <= self.depth[v]);
        self.ancestor_at(v, self.depth[v] - d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_forest(n: usize) -> Forest {
        Forest::new((0..n).map(|v| if v == 0 { None } else { Some(v - 1) }).collect())
    }

    #[test]
    fn ancestors_on_a_chain() {
        let f = chain_forest(100);
        let la = LevelAncestor::build(&f);
        assert_eq!(la.ancestor_at(99, 0), 99);
        assert_eq!(la.ancestor_at(99, 1), 98);
        assert_eq!(la.ancestor_at(99, 63), 36);
        assert_eq!(la.ancestor_at(99, 99), 0);
        assert_eq!(la.ancestor_at(99, 1000), 0); // saturates
        assert_eq!(la.ancestor_at_depth(99, 40), 40);
        assert_eq!(la.depth(57), 57);
    }

    #[test]
    fn ancestors_in_branching_tree() {
        //        0
        //      /   \
        //     1     2
        //    / \     \
        //   3   4     5
        //  /
        // 6
        let f = Forest::new(vec![None, Some(0), Some(0), Some(1), Some(1), Some(2), Some(3)]);
        let la = LevelAncestor::build(&f);
        assert_eq!(la.ancestor_at(6, 1), 3);
        assert_eq!(la.ancestor_at(6, 2), 1);
        assert_eq!(la.ancestor_at(6, 3), 0);
        assert_eq!(la.ancestor_at(5, 1), 2);
        assert_eq!(la.ancestor_at_depth(6, 0), 0);
        assert_eq!(la.ancestor_at_depth(4, 1), 1);
    }

    #[test]
    fn consistent_with_naive_walk() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let n = 500;
        let parent: Vec<Option<usize>> =
            (0..n).map(|v| if v == 0 { None } else { Some(rng.gen_range(0..v)) }).collect();
        let f = Forest::new(parent);
        let la = LevelAncestor::build(&f);
        for _ in 0..500 {
            let v = rng.gen_range(0..n);
            let steps = rng.gen_range(0..20);
            // naive walk
            let mut cur = v;
            for _ in 0..steps {
                if let Some(p) = f.parent(cur) {
                    cur = p;
                }
            }
            assert_eq!(la.ancestor_at(v, steps), cur);
        }
    }
}
