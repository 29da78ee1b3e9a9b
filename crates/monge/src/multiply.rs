//! (min,+) matrix products — Lemmas 3, 4 and 5 of the paper.
//!
//! * [`min_plus_naive`]: the definition, `O(αγβ)` work.  Used as a baseline
//!   (this is exactly the "super-quadratic work bottleneck" the paper's
//!   Monge machinery avoids) and as a correctness oracle in tests.
//! * [`min_plus_monge`]: `O(αβ + βγ)` work using SMAWK row minima per output
//!   column — the content of Lemma 3.
//! * [`min_plus_parallel`]: the same, parallelised over output columns with
//!   rayon (in the PRAM model this is the `O(log γ)`-time algorithm of
//!   Lemma 3 after applying Brent's theorem).
//! * [`min_plus_general_parallel`]: the brute-force fallback for factors
//!   that fail the Monge check.

use crate::matrix::{Entry, MinPlusMatrix, INF};
use crate::smawk::{brute_force_row_minima, smawk_row_minima};
use crate::view::MatrixAccess;
use rayon::prelude::*;

pub(crate) fn sat_add(a: Entry, b: Entry) -> Entry {
    if a >= INF || b >= INF {
        INF
    } else {
        a + b
    }
}

/// Naive (min,+) product: `C(i,j) = min_k A(i,k) + B(k,j)`.
pub fn min_plus_naive(a: &MinPlusMatrix, b: &MinPlusMatrix) -> MinPlusMatrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut c = MinPlusMatrix::infinity(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let aik = a.get(i, k);
            if aik >= INF {
                continue;
            }
            for j in 0..b.cols() {
                let v = sat_add(aik, b.get(k, j));
                if v < c.get(i, j) {
                    c.set(i, j, v);
                }
            }
        }
    }
    c
}

/// (min,+) product exploiting the Monge property of the factors (Lemma 3):
/// for every output column `j`, the matrix `D_j(i,k) = A(i,k) + B(k,j)` is
/// totally monotone, so its row minima — which are exactly column `j` of the
/// product — are found by SMAWK with `O(α + γ)` evaluations.  Total work
/// `O(β (α + γ))`, i.e. `O(αβ)` under the size hypotheses of Lemma 3.
/// Generic over [`MatrixAccess`], so borrowed submatrix views multiply
/// without being copied out first.
pub fn min_plus_monge<A: MatrixAccess, B: MatrixAccess>(a: &A, b: &B) -> MinPlusMatrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut c = MinPlusMatrix::infinity(a.rows(), b.cols());
    if a.rows() == 0 || b.cols() == 0 || a.cols() == 0 {
        return c;
    }
    for j in 0..b.cols() {
        let eval = |i: usize, k: usize| sat_add(a.at(i, k), b.at(k, j));
        let minima = smawk_row_minima(a.rows(), a.cols(), &eval);
        for (i, &k) in minima.iter().enumerate() {
            c.set(i, j, eval(i, k));
        }
    }
    c
}

/// Parallel Monge product: the per-column SMAWK calls of [`min_plus_monge`]
/// are independent, so they are distributed over the rayon pool.
pub fn min_plus_parallel<A, B>(a: &A, b: &B) -> MinPlusMatrix
where
    A: MatrixAccess + Sync,
    B: MatrixAccess + Sync,
{
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    if a.rows() == 0 || b.cols() == 0 {
        return MinPlusMatrix::infinity(a.rows(), b.cols());
    }
    if a.cols() == 0 {
        return MinPlusMatrix::infinity(a.rows(), b.cols());
    }
    let cols: Vec<Vec<Entry>> = (0..b.cols())
        .into_par_iter()
        .map(|j| {
            let eval = |i: usize, k: usize| sat_add(a.at(i, k), b.at(k, j));
            let minima = smawk_row_minima(a.rows(), a.cols(), &eval);
            (0..a.rows()).map(|i| eval(i, minima[i])).collect()
        })
        .collect();
    MinPlusMatrix::from_fn(a.rows(), b.cols(), |i, j| cols[j][i])
}

/// Safe (min,+) product for matrices that are *not* guaranteed to be totally
/// monotone: per-column brute-force row minima, parallelised over columns.
/// Work `O(αγβ)` like the naive product but with better locality and
/// parallelism.  The divide-and-conquer uses this as a fallback when a
/// factor fails the Monge check (which the paper avoids by its partitioning
/// scheme; we keep the fallback so correctness never depends on it).
pub fn min_plus_general_parallel<A, B>(a: &A, b: &B) -> MinPlusMatrix
where
    A: MatrixAccess + Sync,
    B: MatrixAccess + Sync,
{
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    if a.rows() == 0 || b.cols() == 0 || a.cols() == 0 {
        return MinPlusMatrix::infinity(a.rows(), b.cols());
    }
    let cols: Vec<Vec<Entry>> = (0..b.cols())
        .into_par_iter()
        .map(|j| {
            let eval = |i: usize, k: usize| sat_add(a.at(i, k), b.at(k, j));
            let minima = brute_force_row_minima(a.rows(), a.cols(), &eval);
            (0..a.rows()).map(|i| eval(i, minima[i])).collect()
        })
        .collect();
    MinPlusMatrix::from_fn(a.rows(), b.cols(), |i, j| cols[j][i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monge::{distance_monge, is_monge};

    fn random_monge(rows: usize, cols: usize, seed: u64) -> MinPlusMatrix {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs: Vec<i64> = (0..rows).map(|_| rng.gen_range(-200..200)).collect();
        let mut ys: Vec<i64> = (0..cols).map(|_| rng.gen_range(-200..200)).collect();
        xs.sort();
        ys.sort();
        distance_monge(&xs, &ys, rng.gen_range(0..30))
    }

    #[test]
    fn monge_product_matches_naive() {
        for seed in 0..10 {
            let a = random_monge(9, 7, seed);
            let b = random_monge(7, 11, seed + 100);
            let naive = min_plus_naive(&a, &b);
            let fast = min_plus_monge(&a, &b);
            let par = min_plus_parallel(&a, &b);
            let gen = min_plus_general_parallel(&a, &b);
            assert_eq!(naive, fast, "seed {seed}");
            assert_eq!(naive, par, "seed {seed}");
            assert_eq!(naive, gen, "seed {seed}");
        }
    }

    #[test]
    fn product_of_monge_matrices_is_monge() {
        // Lemma 3 also asserts closure of the Monge property under (min,+).
        for seed in 20..30 {
            let a = random_monge(8, 6, seed);
            let b = random_monge(6, 9, seed + 7);
            let c = min_plus_parallel(&a, &b);
            assert!(is_monge(&c), "product lost the Monge property (seed {seed})");
        }
    }

    #[test]
    fn identity_like_behaviour() {
        // multiplying by a "diagonal" of zeros (INF off-diagonal) is identity
        let a = random_monge(5, 4, 3);
        let id = MinPlusMatrix::from_fn(4, 4, |i, j| if i == j { 0 } else { INF });
        // the identity is not Monge, so use the general product
        let c = min_plus_general_parallel(&a, &id);
        assert_eq!(c, a);
        let naive = min_plus_naive(&a, &id);
        assert_eq!(naive, a);
    }

    #[test]
    fn inf_rows_and_columns_propagate() {
        let a = MinPlusMatrix::infinity(3, 3);
        let b = random_monge(3, 3, 5);
        let c = min_plus_naive(&a, &b);
        assert!(!c.is_finite());
        assert_eq!(c, MinPlusMatrix::infinity(3, 3));
        let cp = min_plus_parallel(&a, &b);
        assert_eq!(cp, c);
    }

    #[test]
    fn degenerate_dimensions() {
        let a = MinPlusMatrix::infinity(0, 5);
        let b = MinPlusMatrix::infinity(5, 3);
        assert_eq!(min_plus_parallel(&a, &b).rows(), 0);
        let a = MinPlusMatrix::infinity(2, 0);
        let b = MinPlusMatrix::infinity(0, 3);
        let c = min_plus_parallel(&a, &b);
        assert_eq!((c.rows(), c.cols()), (2, 3));
        assert!(!c.is_finite());
    }

    #[test]
    fn triangle_inequality_composition() {
        // composing X->Z with Z->Y distance matrices gives upper bounds on
        // X->Y distances through Z; with points on a line they are exact
        let xs = vec![0i64, 4, 9];
        let zs = vec![1i64, 6];
        let ys = vec![2i64, 8, 13];
        let axz = distance_monge(&xs, &zs, 0);
        let bzy = distance_monge(&zs, &ys, 0);
        let c = min_plus_parallel(&axz, &bzy);
        for (i, &x) in xs.iter().enumerate() {
            for (j, &y) in ys.iter().enumerate() {
                let direct = (x - y).abs();
                assert!(c.get(i, j) >= direct);
                // going through the best z
                let best = zs.iter().map(|&z| (x - z).abs() + (z - y).abs()).min().unwrap();
                assert_eq!(c.get(i, j), best);
            }
        }
    }

    #[test]
    fn views_multiply_without_being_copied_out() {
        let a = random_monge(6, 5, 99);
        let b = random_monge(5, 7, 98);
        let rows: Vec<usize> = (0..a.rows()).collect();
        let inner: Vec<usize> = (0..a.cols()).collect();
        let view = crate::view::SubmatrixView::new(&a, &rows, &inner);
        assert_eq!(min_plus_parallel(&view, &b), min_plus_parallel(&a, &b));
    }

    #[test]
    fn larger_product_cross_check() {
        let a = random_monge(40, 35, 77);
        let b = random_monge(35, 50, 78);
        assert_eq!(min_plus_naive(&a, &b), min_plus_parallel(&a, &b));
    }
}
