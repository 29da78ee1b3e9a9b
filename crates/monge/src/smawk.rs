//! SMAWK row minima of totally monotone matrices.
//!
//! This is the classical ingredient behind Lemma 3 of the paper (fast
//! multiplication of Monge matrices, via Aggarwal–Park \[1\] / Apostolico et
//! al. \[3\]): the row-minima of an `n x m` totally monotone matrix can be
//! found with `O(n + m)` evaluations.  The matrix is given implicitly by an
//! evaluation closure so that the product matrices `A(i,k) + B(k,j)` never
//! need to be materialised.

use crate::matrix::Entry;

/// Compute, for each row `i` of an implicitly defined `rows x cols` totally
/// monotone matrix, the index of the leftmost column attaining the row
/// minimum.
pub fn smawk_row_minima(rows: usize, cols: usize, eval: &impl Fn(usize, usize) -> Entry) -> Vec<usize> {
    if rows == 0 {
        return Vec::new();
    }
    assert!(cols > 0, "matrix must have at least one column");
    let all_rows: Vec<usize> = (0..rows).collect();
    let all_cols: Vec<usize> = (0..cols).collect();
    let mut result = vec![0usize; rows];
    smawk_rec(&all_rows, &all_cols, eval, &mut result);
    result
}

fn smawk_rec(rows: &[usize], cols: &[usize], eval: &impl Fn(usize, usize) -> Entry, result: &mut [usize]) {
    if rows.is_empty() {
        return;
    }
    // REDUCE: prune columns that cannot contain any row minimum, keeping at
    // most |rows| columns.
    let cols = reduce(rows, cols, eval);
    if rows.len() == 1 {
        let r = rows[0];
        let mut best = cols[0];
        for &c in &cols[1..] {
            if eval(r, c) < eval(r, best) {
                best = c;
            }
        }
        result[r] = best;
        return;
    }
    // Recurse on the even-indexed rows.
    let even_rows: Vec<usize> = rows.iter().copied().step_by(2).collect();
    smawk_rec(&even_rows, &cols, eval, result);
    // INTERPOLATE: fill in the odd rows, scanning between the minima of the
    // neighbouring even rows.
    let col_pos: Vec<usize> = cols.to_vec();
    let mut start_idx = 0usize;
    for (odd_i, &r) in rows.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
        // column of the previous even row's minimum
        let lo_col = result[rows[odd_i - 1]];
        let hi_col = if odd_i + 1 < rows.len() { result[rows[odd_i + 1]] } else { *col_pos.last().unwrap() };
        // advance start_idx to lo_col
        while col_pos[start_idx] != lo_col {
            start_idx += 1;
        }
        let mut best = col_pos[start_idx];
        let mut k = start_idx;
        while col_pos[k] != hi_col {
            k += 1;
            let c = col_pos[k];
            if eval(r, c) < eval(r, best) {
                best = c;
            }
        }
        result[r] = best;
    }
}

/// The REDUCE step of SMAWK: returns a subset of `cols` of size at most
/// `|rows|` that still contains every row's minimum column.
fn reduce(rows: &[usize], cols: &[usize], eval: &impl Fn(usize, usize) -> Entry) -> Vec<usize> {
    let n = rows.len();
    let mut stack: Vec<usize> = Vec::with_capacity(n);
    for &c in cols {
        loop {
            if stack.is_empty() {
                break;
            }
            let r = rows[stack.len() - 1];
            let top = *stack.last().unwrap();
            // If the new column beats the stack top in the row where the top
            // was still allowed to win, the top can never be a minimum.
            if eval(r, c) < eval(r, top) {
                stack.pop();
            } else {
                break;
            }
        }
        if stack.len() < n {
            stack.push(c);
        }
    }
    stack
}

/// Reference implementation: brute-force leftmost row minima.  Used by tests
/// and as a fallback for matrices that are not totally monotone.
pub fn brute_force_row_minima(rows: usize, cols: usize, eval: &impl Fn(usize, usize) -> Entry) -> Vec<usize> {
    (0..rows)
        .map(|i| {
            let mut best = 0usize;
            for j in 1..cols {
                if eval(i, j) < eval(i, best) {
                    best = j;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monge::distance_monge;

    #[test]
    fn simple_monge_matrix() {
        let m = distance_monge(&[0, 2, 4, 9, 13], &[1, 3, 5, 6, 10, 14], 0);
        let eval = |i: usize, j: usize| m.get(i, j);
        let fast = smawk_row_minima(m.rows(), m.cols(), &eval);
        let brute = brute_force_row_minima(m.rows(), m.cols(), &eval);
        for i in 0..m.rows() {
            assert_eq!(eval(i, fast[i]), eval(i, brute[i]));
        }
    }

    #[test]
    fn single_row_and_column() {
        let eval = |_i: usize, j: usize| [5, 3, 9][j];
        assert_eq!(smawk_row_minima(1, 3, &eval), vec![1]);
        let eval1 = |i: usize, _j: usize| [(5), (3), (9)][i];
        assert_eq!(smawk_row_minima(3, 1, &eval1), vec![0, 0, 0]);
        assert!(smawk_row_minima(0, 3, &eval).is_empty());
    }

    #[test]
    fn wide_and_tall_random_monge() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..30 {
            let rows = rng.gen_range(1..40);
            let cols = rng.gen_range(1..40);
            let mut xs: Vec<i64> = (0..rows).map(|_| rng.gen_range(-100..100)).collect();
            let mut ys: Vec<i64> = (0..cols).map(|_| rng.gen_range(-100..100)).collect();
            xs.sort();
            ys.sort();
            let m = distance_monge(&xs, &ys, rng.gen_range(0..5));
            let eval = |i: usize, j: usize| m.get(i, j);
            let fast = smawk_row_minima(rows, cols, &eval);
            let brute = brute_force_row_minima(rows, cols, &eval);
            for i in 0..rows {
                assert_eq!(eval(i, fast[i]), eval(i, brute[i]), "row {i} minima differ: {} vs {}", fast[i], brute[i]);
            }
        }
    }

    #[test]
    fn sum_of_monge_matrices_row_minima() {
        // the use-case inside the (min,+) product: A(i,k) + B(k,j) for fixed j
        let a = distance_monge(&[0, 3, 7, 12], &[1, 5, 9], 4);
        let b = distance_monge(&[1, 5, 9], &[2, 6], 3);
        for j in 0..b.cols() {
            let eval = |i: usize, k: usize| a.get(i, k) + b.get(k, j);
            let fast = smawk_row_minima(a.rows(), a.cols(), &eval);
            let brute = brute_force_row_minima(a.rows(), a.cols(), &eval);
            for i in 0..a.rows() {
                assert_eq!(eval(i, fast[i]), eval(i, brute[i]));
            }
        }
    }
}
