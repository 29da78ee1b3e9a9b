//! Batch query planning: choose providing rows, group, deduplicate.
//!
//! A batch against an implicit [`DistanceStore`](crate::store::DistanceStore)
//! is only as fast as the number of single-source sweeps it triggers.  A
//! naive per-query loop under eviction pressure re-sweeps a row *per query*
//! (the E13 cold path); the planner instead rewrites a batch into:
//!
//! 1. **Providing rows by cover** — the rectilinear metric is symmetric, so
//!    an unordered pair `{u, v}` can be read from row `u` or row `v`.  The
//!    batch's distinct pairs form a graph on vertex indices, and any vertex
//!    cover of it is a set of rows that answers every pair.  The planner
//!    takes a greedy cover: the forced rows (the vertex endpoints of mixed
//!    pairs, which the point reductions read anyway) and the diagonal pairs'
//!    rows first, then repeatedly the vertex covering the most open pairs,
//!    ties to the smaller index.  A batch of `k` sources fanned out to
//!    many targets therefore costs `k` rows, where reading each pair from
//!    row `min(u, v)` would cost up to one row per pair.  When the
//!    `min(u, v)` rule needs no more rows than the cover, its plan is kept,
//!    so a plan never has more rows than that rule.  Each pair is read
//!    from its smaller endpoint when that row is planned, else from the
//!    larger one.
//! 2. **Row-major order** — lookups are grouped per providing row and the
//!    distinct rows listed in ascending order, so the store can materialise
//!    (and pin) each row exactly once for the whole batch.
//! 3. **Deduplication** — identical queries collapse to one lookup whose
//!    result is scattered back to every originating batch slot.
//!
//! The planner is pure bookkeeping over indices: it never touches the store,
//! so its output is deterministic, and since rows are exact and symmetric
//! the answers it scatters are bitwise-identical to per-call answers.
//! Planning a batch of `m` pairs costs `O(m log m)`.

use rsp_geom::Point;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// One deduplicated vertex-pair lookup: read `row`'s entry at `col` and
/// scatter it to every listed output slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedLookup {
    /// The providing row: the endpoint of the pair whose row the plan
    /// materialises (the smaller one when both rows are planned).
    pub row: usize,
    /// The entry read from that row: the pair's other endpoint.
    pub col: usize,
    /// Output slots of every batch query this lookup answers.
    pub slots: Vec<usize>,
}

/// A planned vertex-pair batch: the distinct providing rows (ascending) and
/// the deduplicated lookups in row-major order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VertexBatchPlan {
    /// Distinct rows to materialise (and pin) once for the batch, ascending:
    /// every lookup's providing row plus the forced rows.
    pub rows: Vec<usize>,
    /// Deduplicated lookups ordered row-major (by `(row, col)`).
    pub lookups: Vec<PlannedLookup>,
}

impl VertexBatchPlan {
    /// Total batch queries this plan answers (sum of slot counts).
    pub fn query_count(&self) -> usize {
        self.lookups.iter().map(|l| l.slots.len()).sum()
    }
}

/// Plan a batch of vertex-index pairs with no forced rows; see
/// [`plan_vertex_pairs_with`].
pub fn plan_vertex_pairs(items: &[(usize, usize, usize)]) -> VertexBatchPlan {
    plan_vertex_pairs_with(items, &[])
}

/// Plan a batch of vertex-index pairs.  Each item is `(u, v, slot)`: answer
/// `d(u, v)` into output slot `slot`.  `forced` lists rows the batch reads
/// anyway (they join the plan's rows first, so pairs they cover cost no
/// further row).  See the module docs for what the plan guarantees.
pub fn plan_vertex_pairs_with(items: &[(usize, usize, usize)], forced: &[usize]) -> VertexBatchPlan {
    let mut groups: HashMap<(usize, usize), Vec<usize>> = HashMap::with_capacity(items.len());
    for &(u, v, slot) in items {
        let key = if u <= v { (u, v) } else { (v, u) };
        groups.entry(key).or_default().push(slot);
    }
    let pairs: Vec<(usize, usize)> = groups.keys().copied().collect();
    let mut min_rule: Vec<usize> = pairs.iter().map(|&(u, _)| u).chain(forced.iter().copied()).collect();
    min_rule.sort_unstable();
    min_rule.dedup();
    let cover = greedy_cover(&pairs, forced);
    let rows = if cover.len() < min_rule.len() { cover } else { min_rule };
    let mut lookups: Vec<PlannedLookup> = groups
        .into_iter()
        .map(|((u, v), slots)| match rows.binary_search(&u) {
            Ok(_) => PlannedLookup { row: u, col: v, slots },
            Err(_) => PlannedLookup { row: v, col: u, slots },
        })
        .collect();
    lookups.sort_unstable_by_key(|l| (l.row, l.col));
    VertexBatchPlan { rows, lookups }
}

/// A vertex cover of the graph whose edges are `pairs` (each `(u, v)` with
/// `u <= v`), ascending.  It holds every forced row and every diagonal
/// pair's row, then greedily the vertex with the most uncovered edges (ties
/// to the smaller index).  A lazy max-heap keeps this `O(m log m)` for `m`
/// edges: degrees only fall, so a popped entry whose degree is current is
/// the true maximum, and a stale one is pushed back with its current degree.
fn greedy_cover(pairs: &[(usize, usize)], forced: &[usize]) -> Vec<usize> {
    let mut chosen: HashSet<usize> = forced.iter().copied().collect();
    chosen.extend(pairs.iter().filter(|&&(u, v)| u == v).map(|&(u, _)| u));
    let open: Vec<(usize, usize)> =
        pairs.iter().copied().filter(|(u, v)| !chosen.contains(u) && !chosen.contains(v)).collect();
    let mut incident: HashMap<usize, Vec<usize>> = HashMap::new();
    for (e, &(u, v)) in open.iter().enumerate() {
        incident.entry(u).or_default().push(e);
        incident.entry(v).or_default().push(e);
    }
    let mut degree: HashMap<usize, usize> = incident.iter().map(|(&v, edges)| (v, edges.len())).collect();
    let mut heap: BinaryHeap<(usize, Reverse<usize>)> = degree.iter().map(|(&v, &d)| (d, Reverse(v))).collect();
    let mut covered = vec![false; open.len()];
    while let Some((d, Reverse(v))) = heap.pop() {
        let live = degree[&v];
        if live != d {
            if live > 0 {
                heap.push((live, Reverse(v)));
            }
            continue;
        }
        chosen.insert(v);
        degree.insert(v, 0);
        for &e in &incident[&v] {
            if !std::mem::replace(&mut covered[e], true) {
                let (a, b) = open[e];
                *degree.get_mut(if a == v { &b } else { &a }).expect("every endpoint has a degree") -= 1;
            }
        }
    }
    let mut rows: Vec<usize> = chosen.into_iter().collect();
    rows.sort_unstable();
    rows
}

/// Identical point pairs of a batch, collapsed: `unique[g]` is evaluated
/// once and its answer scattered to every slot in `slots[g]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DedupedPairs {
    /// The distinct `(src, dst)` pairs, in first-appearance order.
    pub unique: Vec<(Point, Point)>,
    /// `slots[g]`: the output slots answered by `unique[g]`.
    pub slots: Vec<Vec<usize>>,
}

/// Deduplicate the selected `slots` of a point-pair batch by exact
/// `(src, dst)` equality.  (Deliberately *not* by unordered pair: arbitrary
/// point queries go through the ray-shooting reduction, and only identical
/// inputs are guaranteed bit-identical outputs without invoking symmetry.)
pub fn dedupe_point_pairs(pairs: &[(Point, Point)], selected: &[usize]) -> DedupedPairs {
    let mut index: HashMap<(Point, Point), usize> = HashMap::with_capacity(selected.len());
    let mut out = DedupedPairs::default();
    for &slot in selected {
        let pair = pairs[slot];
        match index.get(&pair) {
            Some(&g) => out.slots[g].push(slot),
            None => {
                index.insert(pair, out.unique.len());
                out.unique.push(pair);
                out.slots.push(vec![slot]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_and_duplicate_pairs_collapse_to_one_row_major_lookup() {
        // (7,2), (2,7) and a duplicate (7,2) are one lookup on row 2; the
        // diagonal (5,5) is its own row; everything comes out row-major.
        let items = [(7, 2, 0), (5, 5, 1), (2, 7, 2), (7, 2, 3), (9, 1, 4)];
        let plan = plan_vertex_pairs(&items);
        assert_eq!(plan.rows, vec![1, 2, 5]);
        assert_eq!(plan.query_count(), 5);
        assert_eq!(
            plan.lookups,
            vec![
                PlannedLookup { row: 1, col: 9, slots: vec![4] },
                PlannedLookup { row: 2, col: 7, slots: vec![0, 2, 3] },
                PlannedLookup { row: 5, col: 5, slots: vec![1] },
            ]
        );
    }

    #[test]
    fn a_star_batch_is_read_from_its_centres() {
        // Sources 6 and 9 fanned out to targets on both sides of them: the
        // min rule needs rows {1, 2, 3, 6, 9}, the cover only {6, 9}.
        let items = [(6, 1, 0), (6, 2, 1), (6, 11, 2), (3, 9, 3), (9, 12, 4), (2, 9, 5), (12, 9, 6)];
        let plan = plan_vertex_pairs(&items);
        assert_eq!(plan.rows, vec![6, 9]);
        assert_eq!(plan.query_count(), 7);
        assert_eq!(
            plan.lookups,
            vec![
                PlannedLookup { row: 6, col: 1, slots: vec![0] },
                PlannedLookup { row: 6, col: 2, slots: vec![1] },
                PlannedLookup { row: 6, col: 11, slots: vec![2] },
                PlannedLookup { row: 9, col: 2, slots: vec![5] },
                PlannedLookup { row: 9, col: 3, slots: vec![3] },
                PlannedLookup { row: 9, col: 12, slots: vec![4, 6] },
            ]
        );
    }

    #[test]
    fn forced_rows_join_the_plan_and_cover_their_pairs() {
        // Row 8 is read anyway, so (8, 1) and (8, 2) cost nothing more; the
        // remaining pair ties between rows 3 and 4 and goes to the smaller.
        let plan = plan_vertex_pairs_with(&[(8, 1, 0), (2, 8, 1), (4, 3, 2)], &[8, 8]);
        assert_eq!(plan.rows, vec![3, 8]);
        let read: Vec<(usize, usize)> = plan.lookups.iter().map(|l| (l.row, l.col)).collect();
        assert_eq!(read, vec![(3, 4), (8, 1), (8, 2)]);
        // With nothing to gain the min rule's plan stands: a forced row
        // that covers no pair is still listed.
        let plan = plan_vertex_pairs_with(&[(0, 5, 0)], &[7]);
        assert_eq!(plan.rows, vec![0, 7]);
        assert_eq!(plan.lookups, vec![PlannedLookup { row: 0, col: 5, slots: vec![0] }]);
    }

    #[test]
    fn empty_batches_plan_to_nothing() {
        let plan = plan_vertex_pairs(&[]);
        assert!(plan.rows.is_empty() && plan.lookups.is_empty());
        assert_eq!(plan_vertex_pairs_with(&[], &[4]).rows, vec![4]);
        assert_eq!(plan.query_count(), 0);
        assert_eq!(dedupe_point_pairs(&[], &[]), DedupedPairs::default());
    }

    #[test]
    fn point_pair_dedupe_is_exact_and_order_preserving() {
        let a = Point::new(0, 0);
        let b = Point::new(5, 3);
        let c = Point::new(2, 2);
        let pairs = [(a, b), (b, a), (a, b), (c, c), (a, b)];
        let deduped = dedupe_point_pairs(&pairs, &[0, 1, 2, 3, 4]);
        // (b, a) is NOT merged with (a, b): dedupe is by ordered pair.
        assert_eq!(deduped.unique, vec![(a, b), (b, a), (c, c)]);
        assert_eq!(deduped.slots, vec![vec![0, 2, 4], vec![1], vec![3]]);
        // Subset selection only considers the chosen slots.
        let partial = dedupe_point_pairs(&pairs, &[4, 1]);
        assert_eq!(partial.unique, vec![(a, b), (b, a)]);
        assert_eq!(partial.slots, vec![vec![4], vec![1]]);
    }
}
