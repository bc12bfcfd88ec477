//! Property tests for dataset handling: LIBSVM round trips, shuffling,
//! splitting, the batch scheduler, and the in-place / zero-skipping data
//! preparation checked bit for bit against plain element-by-element
//! references.

use hetero_data::{libsvm, BatchScheduler, DenseDataset, Labels, ShuffledScheduler, SynthConfig};
use hetero_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Mostly-zero feature matrix (±0.0 runs, so many 16-lane blocks are all
/// zero) salted with NaN, ±∞, subnormals and ordinary values, plus
/// single-class or multi-hot labels.
fn awkward(rows: usize, cols: usize, multihot: bool, seed: u64) -> DenseDataset {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let x = Matrix::from_fn(rows, cols, |_, _| {
        let r = next();
        match r % 256 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => -f32::INFINITY,
            3 => f32::from_bits(1),
            4 => -f32::from_bits(1 + r % 0x007f_ffff),
            5..=11 => ((r >> 8) % 1000) as f32 / 250.0 - 2.0,
            12..=99 => -0.0,
            _ => 0.0,
        }
    });
    let labels = if multihot {
        Labels::MultiHot(Matrix::from_fn(rows, 5, |_, _| (next() % 2) as f32))
    } else {
        Labels::Classes((0..rows).map(|_| next() % 3).collect())
    };
    DenseDataset::new("awkward", x, labels)
}

/// The gather-into-a-new-matrix shuffle: same permutation draw, every row
/// copied out into fresh storage.
fn shuffle_reference(d: &DenseDataset, seed: u64) -> DenseDataset {
    let mut perm: Vec<usize> = (0..d.len()).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    let gather = |m: &Matrix| {
        let mut out = Matrix::zeros(m.rows(), m.cols());
        for (new, &old) in perm.iter().enumerate() {
            out.row_mut(new).copy_from_slice(m.row(old));
        }
        out
    };
    let labels = match &d.labels {
        Labels::Classes(v) => Labels::Classes(perm.iter().map(|&i| v[i]).collect()),
        Labels::MultiHot(m) => Labels::MultiHot(gather(m)),
    };
    DenseDataset::new(d.name.clone(), gather(&d.x), labels)
}

/// Feature and label bit patterns (NaN-safe equality).
fn bits(d: &DenseDataset) -> (Vec<u32>, Vec<u32>) {
    let labels = match &d.labels {
        Labels::Classes(v) => v.clone(),
        Labels::MultiHot(m) => m.as_slice().iter().map(|v| v.to_bits()).collect(),
    };
    (d.x.as_slice().iter().map(|v| v.to_bits()).collect(), labels)
}

/// Element-by-element `scale_to_unit_variance`: f64 column sums of squares
/// over every entry, then every entry scaled.
fn scale_reference(x: &mut Matrix) {
    let (n, d) = x.shape();
    if n == 0 {
        return;
    }
    let mut sq = vec![0.0f64; d];
    for r in x.rows_iter() {
        for (s, v) in sq.iter_mut().zip(r) {
            *s += (*v as f64) * (*v as f64);
        }
    }
    let inv_rms: Vec<f32> = sq
        .iter()
        .map(|&s| {
            let rms = (s / n as f64).sqrt();
            if rms > 1e-12 {
                (1.0 / rms) as f32
            } else {
                1.0
            }
        })
        .collect();
    for r in x.as_mut_slice().chunks_exact_mut(d) {
        for (v, s) in r.iter_mut().zip(&inv_rms) {
            *v *= s;
        }
    }
}

fn arb_dense(max_rows: usize, max_cols: usize) -> impl Strategy<Value = DenseDataset> {
    (1..=max_rows, 1..=max_cols, any::<u64>()).prop_map(|(rows, cols, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        // Quantized values that survive the text round trip exactly.
        let x = Matrix::from_fn(rows, cols, |_, _| {
            let v = (next() % 17) as f32;
            if v < 5.0 {
                0.0
            } else {
                v * 0.25
            }
        });
        let labels = Labels::Classes((0..rows).map(|_| (next() % 3) as u32).collect());
        DenseDataset::new("prop", x, labels)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// LIBSVM write → parse → densify reproduces the feature matrix and
    /// the label sequence exactly.
    #[test]
    fn libsvm_roundtrip_exact(d in arb_dense(20, 12)) {
        let mut buf = Vec::new();
        libsvm::write(&d, &mut buf).unwrap();
        let parsed = libsvm::parse_reader(buf.as_slice()).unwrap();
        let back = libsvm::densify("prop", &parsed, false, d.features());
        prop_assert_eq!(&back.x, &d.x);
        // Labels are remapped to contiguous ids in sorted order; since ours
        // are already 0..k, they must round-trip identically.
        match (&back.labels, &d.labels) {
            (Labels::Classes(a), Labels::Classes(b)) => {
                // Only identical when all classes appear; otherwise the
                // remap compresses ids. Check consistency of partition.
                for (x, y) in a.iter().zip(b.iter()) {
                    for (x2, y2) in a.iter().zip(b.iter()) {
                        prop_assert_eq!(x == x2, y == y2, "label partition changed");
                    }
                }
            }
            _ => prop_assert!(false, "label kind changed"),
        }
    }

    /// Shuffling preserves the multiset of (row, label) pairs.
    #[test]
    fn shuffle_is_permutation(d in arb_dense(30, 6), seed in any::<u64>()) {
        let mut shuffled = d.clone();
        shuffled.shuffle(seed);
        prop_assert_eq!(shuffled.len(), d.len());
        // Sort row signatures and compare.
        let sig = |ds: &DenseDataset| {
            let mut rows: Vec<Vec<u32>> = (0..ds.len())
                .map(|i| {
                    let mut v: Vec<u32> = ds.x.row(i).iter().map(|f| f.to_bits()).collect();
                    if let Labels::Classes(c) = &ds.labels {
                        v.push(c[i]);
                    }
                    v
                })
                .collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(sig(&shuffled), sig(&d));
    }

    /// Split fractions always partition the dataset.
    #[test]
    fn split_partitions(d in arb_dense(40, 4), frac in 0.0f32..0.9) {
        let (train, test) = d.split(frac);
        prop_assert_eq!(train.len() + test.len(), d.len());
        prop_assert_eq!(train.features(), d.features());
        prop_assert_eq!(test.features(), d.features());
    }

    /// The scheduler's fractional epoch counter equals served/n exactly.
    #[test]
    fn scheduler_epoch_fraction(n in 1usize..200, reqs in prop::collection::vec(1usize..50, 1..40)) {
        let mut s = BatchScheduler::new(n, None);
        let mut served = 0u64;
        for r in reqs {
            let b = s.next_batch(r).unwrap();
            served += b.len() as u64;
        }
        prop_assert_eq!(s.examples_served(), served);
        prop_assert!((s.epochs_elapsed() - served as f64 / n as f64).abs() < 1e-12);
    }

    /// The shuffled scheduler's served-example totals are exact at every
    /// step — including non-divisible `n`, where the short tail block is
    /// handed out mid-epoch wherever the permutation places it.
    #[test]
    fn shuffled_scheduler_served_total_exact(
        n in 1usize..300,
        block in 1usize..40,
        epochs in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut s = ShuffledScheduler::new(n, block, seed, Some(epochs));
        let mut served = 0u64;
        while let Some(b) = s.next_block() {
            served += b.len() as u64;
            prop_assert_eq!(s.examples_served(), served, "mid-epoch drift");
        }
        prop_assert_eq!(served, (n * epochs) as u64);
        prop_assert!((s.epochs_elapsed() - epochs as f64).abs() < 1e-9);
    }

    /// Synthetic multilabel generation: label matrix is 0/1 and every
    /// example has at least one positive.
    #[test]
    fn multilabel_wellformed(seed in any::<u64>(), classes in 2usize..30) {
        let mut cfg = SynthConfig::small(50, 8, classes, seed);
        cfg.avg_labels = Some(2.0);
        let d = cfg.generate();
        match &d.labels {
            Labels::MultiHot(y) => {
                for i in 0..y.rows() {
                    let mut any = false;
                    for j in 0..y.cols() {
                        let v = y.get(i, j);
                        prop_assert!(v == 0.0 || v == 1.0);
                        any |= v == 1.0;
                    }
                    prop_assert!(any, "example {i} without labels");
                }
            }
            _ => prop_assert!(false, "expected multihot"),
        }
    }

    /// The in-place cycle-following shuffle moves every row and label
    /// exactly where the gather-into-a-new-matrix shuffle puts it, for
    /// both label kinds and for empty and one-row datasets.
    #[test]
    fn shuffle_matches_gather_reference(
        rows in 0usize..40,
        cols in 1usize..40,
        multihot in 0u8..2,
        data_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let d = awkward(rows, cols, multihot == 1, data_seed);
        let want = shuffle_reference(&d, seed);
        let mut got = d;
        got.shuffle(seed);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Zero-skipping `scale_to_unit_variance` and `sparsity` equal the
    /// element-by-element scans bit for bit, NaN/∞/subnormal columns
    /// and short last blocks included.
    #[test]
    fn scale_and_sparsity_match_scalar_scan(
        rows in 0usize..30,
        cols in 1usize..70,
        data_seed in any::<u64>(),
    ) {
        let mut d = awkward(rows, cols, false, data_seed);
        let zeros = d.x.as_slice().iter().filter(|&&v| v == 0.0).count();
        let want_sparsity = if d.x.is_empty() { 0.0 } else { zeros as f32 / d.x.len() as f32 };
        prop_assert_eq!(d.sparsity().to_bits(), want_sparsity.to_bits());
        let mut want = d.x.clone();
        scale_reference(&mut want);
        d.scale_to_unit_variance();
        let got: Vec<u32> = d.x.as_slice().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}

/// Small permutations are full of fixed points and short cycles; the
/// in-place shuffle must agree with the gather shuffle on all of them.
#[test]
fn shuffle_matches_gather_reference_on_fixed_points() {
    let mut with_fixed_point = 0;
    for n in 1..=6 {
        for seed in 0..40u64 {
            for multihot in [false, true] {
                let d = awkward(n, 3, multihot, seed ^ 0x5eed);
                let want = shuffle_reference(&d, seed);
                let mut got = d.clone();
                got.shuffle(seed);
                assert_eq!(bits(&got), bits(&want), "n {n} seed {seed}");
            }
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut StdRng::seed_from_u64(seed));
            with_fixed_point += perm.iter().enumerate().any(|(i, &p)| i == p) as usize;
        }
    }
    assert!(
        with_fixed_point > 0,
        "no permutation with a fixed point was exercised"
    );
}
