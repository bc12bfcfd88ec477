//! Property-based tests for the tensor kernels.

use hetero_tensor::{gemm, ops, CsrMatrix, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix of the given shape with elements in [-1, 1].
fn mat(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..24, 1usize..24, 1usize..24)
}

fn close(a: &Matrix, b: &Matrix, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// gemm_nn agrees with the f64 reference for arbitrary shapes/values.
    #[test]
    fn gemm_nn_matches_reference((m, k, n) in dims(), seed in any::<u64>()) {
        let a = seeded(m, k, seed);
        let b = seeded(k, n, seed ^ 0xabcd);
        let mut c = Matrix::zeros(m, n);
        let mut c_ref = Matrix::zeros(m, n);
        gemm::gemm_nn(1.0, &a, &b, 0.0, &mut c);
        gemm::gemm_reference(1.0, &a, false, &b, false, 0.0, &mut c_ref);
        prop_assert!(close(&c, &c_ref, 1e-4));
    }

    /// (A·B)ᵀ == Bᵀ·Aᵀ, exercising NN against TN/NT consistency.
    #[test]
    fn transpose_of_product((m, k, n) in dims(), seed in any::<u64>()) {
        let a = seeded(m, k, seed);
        let b = seeded(k, n, seed ^ 1);
        let mut ab = Matrix::zeros(m, n);
        gemm::gemm_nn(1.0, &a, &b, 0.0, &mut ab);
        let mut btat = Matrix::zeros(n, m);
        gemm::gemm_nn(1.0, &b.transpose(), &a.transpose(), 0.0, &mut btat);
        prop_assert!(close(&ab.transpose(), &btat, 1e-4));
    }

    /// gemm is linear in alpha: gemm(2a) == 2*gemm(a).
    #[test]
    fn gemm_linear_in_alpha((m, k, n) in dims(), seed in any::<u64>()) {
        let a = seeded(m, k, seed);
        let b = seeded(k, n, seed ^ 2);
        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        gemm::gemm_nn(2.0, &a, &b, 0.0, &mut c1);
        gemm::gemm_nn(1.0, &a, &b, 0.0, &mut c2);
        ops::scale(2.0, c2.as_mut_slice());
        prop_assert!(close(&c1, &c2, 1e-4));
    }

    /// NT with an explicit transpose equals NN.
    #[test]
    fn nt_equals_nn_with_transposed_b((m, k, n) in dims(), seed in any::<u64>()) {
        let a = seeded(m, k, seed);
        let bt = seeded(n, k, seed ^ 3);
        let mut c_nt = Matrix::zeros(m, n);
        gemm::gemm_nt(1.0, &a, &bt, 0.0, &mut c_nt);
        let mut c_nn = Matrix::zeros(m, n);
        gemm::gemm_nn(1.0, &a, &bt.transpose(), 0.0, &mut c_nn);
        prop_assert!(close(&c_nt, &c_nn, 1e-4));
    }

    /// TN with an explicit transpose equals NN.
    #[test]
    fn tn_equals_nn_with_transposed_a((m, k, n) in dims(), seed in any::<u64>()) {
        let at = seeded(k, m, seed ^ 4);
        let b = seeded(k, n, seed ^ 5);
        let mut c_tn = Matrix::zeros(m, n);
        gemm::gemm_tn(1.0, &at, &b, 0.0, &mut c_tn);
        let mut c_nn = Matrix::zeros(m, n);
        gemm::gemm_nn(1.0, &at.transpose(), &b, 0.0, &mut c_nn);
        prop_assert!(close(&c_tn, &c_nn, 1e-4));
    }

    /// Parallel kernels agree with serial ones.
    #[test]
    fn parallel_agrees_with_serial(seed in any::<u64>()) {
        let (m, k, n) = (96, 80, 72);
        let a = seeded(m, k, seed);
        let b = seeded(k, n, seed ^ 6);
        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        gemm::gemm_nn(1.0, &a, &b, 0.0, &mut c1);
        gemm::par_gemm_nn(1.0, &a, &b, 0.0, &mut c2);
        prop_assert!(close(&c1, &c2, 1e-5));
    }

    /// Softmax rows sum to one and lie in (0, 1].
    #[test]
    fn softmax_is_distribution(m in mat(6, 9)) {
        let mut s = m;
        ops::scale(10.0, s.as_mut_slice());
        ops::softmax_rows(&mut s);
        for i in 0..s.rows() {
            let row_sum: f32 = s.row(i).iter().sum();
            prop_assert!((row_sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&v| v > 0.0 && v <= 1.0));
        }
    }

    /// Sigmoid output is always in (0, 1) and monotone.
    #[test]
    fn sigmoid_range(x in -50.0f32..50.0, y in -50.0f32..50.0) {
        let mut m = Matrix::from_rows(&[&[x, y]]);
        ops::sigmoid_inplace(&mut m);
        prop_assert!(m.get(0, 0) >= 0.0 && m.get(0, 0) <= 1.0);
        if x < y {
            prop_assert!(m.get(0, 0) <= m.get(0, 1));
        }
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(m in mat(11, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    /// axpy then axpy(-alpha) restores the original vector (within tolerance).
    #[test]
    fn axpy_inverse(alpha in -4.0f32..4.0, v in prop::collection::vec(-10.0f32..10.0, 1..64)) {
        let x: Vec<f32> = v.iter().map(|a| a * 0.5).collect();
        let mut y = v.clone();
        ops::axpy(alpha, &x, &mut y);
        ops::axpy(-alpha, &x, &mut y);
        for (a, b) in y.iter().zip(&v) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    /// The zero-skipping `from_dense` stores exactly the entries of the
    /// element-by-element scan, bit for bit, for every threshold and for
    /// widths that leave a short last block.
    #[test]
    fn from_dense_matches_scalar_scan(
        rows in 0usize..12,
        cols in 1usize..70,
        seed in any::<u64>(),
        t in 0usize..5,
    ) {
        let threshold = [0.0, f32::from_bits(1), 1e-3, 0.5, 2.0][t];
        let dense = awkward(rows, cols, seed);
        let csr = CsrMatrix::from_dense(&dense, threshold);
        let view = csr.view();
        prop_assert_eq!((csr.rows(), csr.cols()), (rows, cols));
        let mut nnz = 0;
        for i in 0..rows {
            let want: Vec<(usize, u32)> = dense
                .row(i)
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0 && v.abs() >= threshold)
                .map(|(j, v)| (j, v.to_bits()))
                .collect();
            let got: Vec<(usize, u32)> = view.row_iter(i).map(|(j, v)| (j, v.to_bits())).collect();
            nnz += want.len();
            prop_assert_eq!(got, want, "row {}", i);
        }
        prop_assert_eq!(csr.nnz(), nnz);
    }

    /// The block test agrees with "every element compares equal to zero",
    /// and `nonzero_blocks` tiles exactly the blocks that fail it.
    #[test]
    fn zero_blocks_match_elementwise(n in 0usize..80, seed in any::<u64>()) {
        let m = awkward(1, n.max(1), seed);
        let xs = &m.as_slice()[..n];
        let mut want = Vec::new();
        for (b, block) in xs.chunks(ops::ZERO_BLOCK).enumerate() {
            let zero = block.iter().all(|&v| v == 0.0);
            prop_assert_eq!(ops::is_zero_block(block), zero);
            if !zero {
                want.push((b * ops::ZERO_BLOCK, block.len()));
            }
        }
        let got: Vec<(usize, usize)> = ops::nonzero_blocks(xs).map(|(o, b)| (o, b.len())).collect();
        prop_assert_eq!(got, want);
    }
}

/// Mostly-zero matrix mixing `+0.0`/`-0.0` runs with the values a
/// zero-skipping scan must not lose: NaN, ±∞, subnormals, tiny and
/// ordinary magnitudes of both signs.
fn awkward(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = (state >> 33) as u32;
        // ~95% zeros, so about half of all 16-lane blocks are all-zero.
        match r % 256 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => f32::from_bits(1),
            4 => -f32::from_bits(1 + r % 0x007f_ffff),
            5 => 1e-3 * ((r >> 8) % 7) as f32,
            6 => -0.5,
            7 => 2.0,
            8..=11 => ((r >> 8) % 1000) as f32 / 250.0 - 2.0,
            12..=99 => -0.0,
            _ => 0.0,
        }
    })
}

fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    })
}
