//! Property-based tests of the tensor algebra — the foundation the whole
//! training substrate rests on.

use edgetune_nn::loss::softmax;
use edgetune_nn::tensor::Tensor;
use edgetune_util::rng::SeedStream;
use proptest::prelude::*;

/// Strategy producing a random 2-D tensor with the given shape.
fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::randn(&[rows, cols], 1.0, SeedStream::new(seed))
}

/// The `n × n` identity matrix.
fn eye(n: usize) -> Tensor {
    let mut data = vec![0.0; n * n];
    data.iter_mut().step_by(n + 1).for_each(|x| *x = 1.0);
    Tensor::from_vec(data, &[n, n])
}

fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.data().iter().zip(b.data()) {
        assert!((x - y).abs() <= tol, "{x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transpose_is_an_involution(m in 1usize..12, n in 1usize..12, seed in 0u64..500) {
        let a = tensor(m, n, seed);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_transpose_identity(
        m in 1usize..8,
        k in 1usize..8,
        n in 1usize..8,
        seed in 0u64..500,
    ) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed + 1);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        assert_close(&left, &right, 1e-4);
    }

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..8,
        k in 1usize..8,
        n in 1usize..8,
        seed in 0u64..500,
    ) {
        // A·(B + C) = A·B + A·C
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed + 1);
        let c = tensor(k, n, seed + 2);
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        assert_close(&left, &right, 1e-3);
    }

    #[test]
    fn identity_is_neutral(m in 1usize..10, seed in 0u64..500) {
        let a = tensor(m, m, seed);
        assert_close(&a.matmul(&eye(m)), &a, 1e-6);
        assert_close(&eye(m).matmul(&a), &a, 1e-6);
    }

    #[test]
    fn scaling_commutes_with_matmul(
        m in 1usize..6,
        k in 1usize..6,
        s in -4.0f32..4.0,
        seed in 0u64..500,
    ) {
        let a = tensor(m, k, seed);
        let b = tensor(k, m, seed + 1);
        let left = a.scale(s).matmul(&b);
        let right = a.matmul(&b).scale(s);
        assert_close(&left, &right, 1e-3);
    }

    #[test]
    fn softmax_rows_are_distributions(m in 1usize..10, n in 2usize..10, seed in 0u64..500) {
        let logits = tensor(m, n, seed).scale(3.0);
        let p = softmax(&logits);
        for i in 0..m {
            let mut sum = 0.0f32;
            for j in 0..n {
                let v = p.at(i, j);
                prop_assert!((0.0..=1.0).contains(&v), "probability out of range: {v}");
                sum += v;
            }
            prop_assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn gather_rows_preserves_rows(m in 2usize..12, n in 1usize..8, seed in 0u64..500) {
        let a = tensor(m, n, seed);
        let all: Vec<usize> = (0..m).collect();
        assert_eq!(a.gather_rows(&all), a);
        let reversed: Vec<usize> = (0..m).rev().collect();
        let twice = a.gather_rows(&reversed).gather_rows(&reversed);
        assert_eq!(twice, a);
    }

    #[test]
    fn sum_rows_matches_manual_reduction(m in 1usize..10, n in 1usize..10, seed in 0u64..500) {
        let a = tensor(m, n, seed);
        let sums = a.sum_rows();
        for (j, s) in sums.iter().enumerate() {
            let manual: f32 = (0..m).map(|i| a.at(i, j)).sum();
            prop_assert!((s - manual).abs() < 1e-4);
        }
        let total: f32 = sums.iter().sum();
        prop_assert!((total - a.sum()).abs() < 1e-3);
    }

    #[test]
    fn axpy_matches_scale_add(m in 1usize..8, n in 1usize..8, alpha in -3.0f32..3.0, seed in 0u64..500) {
        let a = tensor(m, n, seed);
        let b = tensor(m, n, seed + 1);
        let mut axpy = a.clone();
        axpy.axpy(alpha, &b);
        let reference = a.add(&b.scale(alpha));
        assert_close(&axpy, &reference, 1e-5);
    }
}
