//! Golden digests of generated data.
//!
//! `perfbench` seeds and the engine oracle rely on `SynthConfig::generate`
//! → `scale_to_unit_variance` → `shuffle` producing the same bits on every
//! build. Each case hashes the shape, every feature bit pattern and every
//! label with 64-bit FNV-1a and compares against a digest pinned from the
//! dense gather-into-a-new-matrix implementation. A change to the data
//! preparation that is meant to be output-preserving must leave these
//! digests alone; a change that moves them changes every downstream run.

use hetero_data::{DenseDataset, Labels, PaperDataset, SynthConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn digest(d: &DenseDataset) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv(h, &(d.x.rows() as u64).to_le_bytes());
    h = fnv(h, &(d.x.cols() as u64).to_le_bytes());
    for v in d.x.as_slice() {
        h = fnv(h, &v.to_bits().to_le_bytes());
    }
    match &d.labels {
        Labels::Classes(c) => {
            h = fnv(h, b"classes");
            for y in c {
                h = fnv(h, &y.to_le_bytes());
            }
        }
        Labels::MultiHot(m) => {
            h = fnv(h, b"multihot");
            h = fnv(h, &(m.cols() as u64).to_le_bytes());
            for v in m.as_slice() {
                h = fnv(h, &v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// Generate, variance-scale and shuffle: the preparation `perfbench`'s
/// sparse workload runs.
fn prepared(cfg: &SynthConfig, order_seed: u64) -> DenseDataset {
    let mut d = cfg.generate();
    d.scale_to_unit_variance();
    d.shuffle(order_seed);
    d
}

fn check(name: &str, cfg: SynthConfig, order_seed: u64, want: u64) {
    let got = digest(&prepared(&cfg, order_seed));
    assert_eq!(
        got, want,
        "{name}: data digest {got:#018x} != golden {want:#018x}; generated data changed"
    );
}

#[test]
fn realsim_small_sparse_digest() {
    // 72 × 663 at 0.25% density: the sparse branch of the generator,
    // mostly-zero rows, and a width that is not a multiple of 16.
    let cfg = PaperDataset::RealSim.synth_config(0.001, 42);
    assert_eq!((cfg.examples, cfg.features), (72, 663));
    check("real-sim", cfg, 7, 0xac43_5f99_d0c0_c8d4);
}

#[test]
fn covtype_dense_digest() {
    // 581 × 54, dense branch of the generator.
    let cfg = PaperDataset::Covtype.synth_config(0.001, 42);
    assert_eq!((cfg.examples, cfg.features), (581, 54));
    check("covtype", cfg, 11, 0x3582_eac7_203d_a93a);
}

#[test]
fn multilabel_digest() {
    // delicious-shaped multi-label set: multi-hot labels travel with their
    // rows through the shuffle.
    let cfg = PaperDataset::Delicious.synth_config(0.01, 42);
    assert!(cfg.avg_labels.is_some());
    check("delicious", cfg, 13, 0x51e0_a7f6_8c2e_3c2d);
}
