//! Bit-identity properties of the hot-path kernels.
//!
//! Every matmul routine (`[f32; n]` register rows up to 32 output
//! columns, the cache-blocked loop beyond), the dense layer's
//! transpose-free gradients and the restructured convolution must be
//! *bit-identical* — not merely close — to
//! straightforward reference loops: trial results feed the golden
//! suites, which pin exact bytes. Routines may only regroup output
//! elements, never reorder the additions into one, and these properties
//! enforce that for arbitrary shapes and seeds: shapes straddling the
//! routine and block boundaries, inputs with exact zeros (the zero-skip
//! path), and the operands a diverged trial produces (`-0.0`, `±inf`,
//! NaN). Two NaNs count as the same value: which NaN an operation
//! returns depends on operand order, which the compiler may commute,
//! and nothing downstream tells NaNs apart.
//!
//! Run them in `--release` too: the vectorised code exists only in
//! optimised builds.

use edgetune_nn::layer::{Conv2d, Dense, Flatten, Layer, MaxPool2d, Relu, Reshape};
use edgetune_nn::model::Sequential;
use edgetune_nn::tensor::Tensor;
use edgetune_util::rng::SeedStream;
use proptest::prelude::*;
use rand::Rng;

/// Strategy producing a random 2-D tensor with the given shape.
fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::randn(&[rows, cols], 1.0, SeedStream::new(seed))
}

/// Zeroes roughly `1/3` of the elements so the kernels' zero-coefficient
/// skip path is exercised (post-ReLU activations look like this).
fn sparsify(t: &Tensor) -> Tensor {
    let data = t
        .data()
        .iter()
        .enumerate()
        .map(|(i, &v)| if i % 3 == 0 { 0.0 } else { v })
        .collect();
    Tensor::from_vec(data, t.shape())
}

/// Replaces roughly one element in six with `0.0`, `-0.0`, `±inf` or
/// NaN, at positions `seed` chooses.
fn with_specials(t: &Tensor, seed: u64) -> Tensor {
    const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let mut rng = SeedStream::new(seed).rng("specials");
    let data = t
        .data()
        .iter()
        .map(|&v| {
            if rng.gen_range(0..6) == 0 {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            } else {
                v
            }
        })
        .collect();
    Tensor::from_vec(data, t.shape())
}

fn same_value(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

fn assert_bits_equal(a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape());
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(same_value(*x, *y), "element {i} differs: {x} vs {y}");
    }
}

/// Reference transpose of a 2-D tensor.
fn transpose(t: &Tensor) -> Tensor {
    let (rows, cols) = (t.rows(), t.cols());
    let mut data = vec![0.0; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            data[j * rows + i] = t.data()[i * cols + j];
        }
    }
    Tensor::from_vec(data, &[cols, rows])
}

/// Reference column sums of a 2-D tensor as a `[1, cols]` row, each
/// accumulated onto zero in ascending row order.
fn column_sums(t: &Tensor) -> Tensor {
    let cols = t.cols();
    let mut sums = vec![0.0f32; cols];
    for row in t.data().chunks_exact(cols) {
        for (s, &v) in sums.iter_mut().zip(row) {
            *s += v;
        }
    }
    Tensor::from_vec(sums, &[1, cols])
}

/// Reference convolution: the pre-refactor per-output-element loop with
/// inline padding bounds checks, kept here as the ground truth.
fn conv2d_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    stride: usize,
    padding: usize,
) -> Tensor {
    let ishape = input.shape();
    let (batch, in_c, ih, iw) = (ishape[0], ishape[1], ishape[2], ishape[3]);
    let wshape = weight.shape();
    let (out_c, k) = (wshape[0], wshape[2]);
    let oh = (ih + 2 * padding - k) / stride + 1;
    let ow = (iw + 2 * padding - k) / stride + 1;
    let mut out = Tensor::zeros(&[batch, out_c, oh, ow]);
    let xd = input.data();
    let wd = weight.data();
    let od = out.data_mut();
    for n in 0..batch {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            if iy < 0 || iy >= ih as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - padding as isize;
                                if ix < 0 || ix >= iw as isize {
                                    continue;
                                }
                                acc += xd[((n * in_c + ic) * ih + iy as usize) * iw + ix as usize]
                                    * wd[((oc * in_c + ic) * k + ky) * k + kx];
                            }
                        }
                    }
                    od[((n * out_c + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// The three gradients of a convolution's backward pass.
struct ConvGrads {
    weight: Tensor,
    bias: Tensor,
    input: Tensor,
}

/// Reference convolution backward: the scatter loop the layer ran before
/// its parameter gradients moved into per-channel accumulators. For each
/// output element in ascending (n, oc, oy, ox) order, a nonzero gradient
/// `g` adds to the bias, then to every weight tap and input under its
/// window.
fn conv2d_backward_reference(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    padding: usize,
) -> ConvGrads {
    let ishape = input.shape();
    let (batch, in_c, ih, iw) = (ishape[0], ishape[1], ishape[2], ishape[3]);
    let wshape = weight.shape();
    let (out_c, k) = (wshape[0], wshape[2]);
    let (oh, ow) = (grad_out.shape()[2], grad_out.shape()[3]);
    let mut grads = ConvGrads {
        weight: Tensor::zeros(wshape),
        bias: Tensor::zeros(&[1, out_c]),
        input: Tensor::zeros(ishape),
    };
    let (xd, wd, god) = (input.data(), weight.data(), grad_out.data());
    for n in 0..batch {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = god[((n * out_c + oc) * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    grads.bias.data_mut()[oc] += g;
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            if iy < 0 || iy >= ih as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - padding as isize;
                                if ix < 0 || ix >= iw as isize {
                                    continue;
                                }
                                let xi = ((n * in_c + ic) * ih + iy as usize) * iw + ix as usize;
                                let wi = ((oc * in_c + ic) * k + ky) * k + kx;
                                grads.weight.data_mut()[wi] += g * xd[xi];
                                grads.input.data_mut()[xi] += g * wd[wi];
                            }
                        }
                    }
                }
            }
        }
    }
    grads
}

/// A convolution with non-zero biases (so the accumulator seed is
/// exercised), and copies of its weight and bias.
fn conv_with_params(
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    padding: usize,
    seed: u64,
) -> (Conv2d, Tensor, Vec<f32>) {
    let mut conv = Conv2d::new(in_c, out_c, k, stride, padding, SeedStream::new(seed));
    let mut weight = None;
    let mut bias = None;
    conv.visit_params(&mut |p, _| {
        if p.shape().len() == 4 {
            weight = Some(p.clone());
        } else {
            for (c, b) in p.data_mut().iter_mut().enumerate() {
                *b = c as f32 * 0.25 - 0.5;
            }
            bias = Some(p.data().to_vec());
        }
    });
    (
        conv,
        weight.expect("conv has a weight"),
        bias.expect("conv has a bias"),
    )
}

/// Every `(parameter, gradient)` gradient of a layer or model, in order.
fn param_grads(visit: impl FnOnce(&mut dyn FnMut(&mut Tensor, &mut Tensor))) -> Vec<Tensor> {
    let mut grads = Vec::new();
    visit(&mut |_, g| grads.push(g.clone()));
    grads
}

fn assert_all_bits_equal(a: &[Tensor], b: &[Tensor]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_bits_equal(x, y);
    }
}

/// An input side for a `k`-wide kernel with `padding`, chosen by `pick`
/// from every side with at least one output: from the smallest (one
/// output, the window mostly padding) to `k + 2 * padding + 3` (several
/// outputs per row, at every stride).
fn conv_side(k: usize, padding: usize, pick: usize) -> usize {
    let smallest = k.saturating_sub(2 * padding).max(1);
    smallest + pick % (k + 2 * padding + 4 - smallest)
}

/// The MLP and the convnet the real-training backend builds, each with
/// its input width.
fn models(hidden: usize, channels: usize, seed: u64) -> [(Sequential, usize); 2] {
    let s = SeedStream::new(seed);
    [
        (
            Sequential::new()
                .with(Dense::new(8, hidden, s.child("l1")))
                .with(Relu::new())
                .with(Dense::new(hidden, 4, s.child("l2"))),
            8,
        ),
        (
            Sequential::new()
                .with(Reshape::new(vec![1, 8, 8]))
                .with(Conv2d::new(1, channels, 3, 1, 1, s.child("conv")))
                .with(Relu::new())
                .with(MaxPool2d::new(2))
                .with(Flatten::new())
                .with(Dense::new(channels * 16, 4, s.child("head"))),
            64,
        ),
    ]
}

#[test]
fn every_width_routine_matches_naive() {
    // Each narrow width 1..=32 and the blocked routine past it, on
    // operands holding zeros, signed zeros, infinities and NaN.
    for n in 1..=64 {
        for (m, k) in [(1, 1), (5, 7), (17, 33)] {
            let seed = (n * 100 + m) as u64;
            let a = with_specials(&sparsify(&tensor(m, k, seed)), seed);
            let b = with_specials(&tensor(k, n, seed + 1), seed + 1);
            assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..65,
        seed in 0u64..500,
    ) {
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed + 1);
        assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b));
    }

    #[test]
    fn blocked_matmul_handles_zero_skip_identically(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..65,
        specials in 0usize..2,
        seed in 0u64..500,
    ) {
        let mut a = sparsify(&tensor(m, k, seed));
        let mut b = sparsify(&tensor(k, n, seed + 1));
        if specials == 1 {
            a = with_specials(&a, seed + 2);
            b = with_specials(&b, seed + 3);
        }
        assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b));
    }

    #[test]
    fn matmul_spanning_block_boundaries(
        dm in 0usize..3,
        dn in 0usize..3,
        seed in 0u64..100,
    ) {
        // Shapes straddling the 64-row / 128-column tile edges.
        let (m, n) = (63 + dm, 127 + dn);
        let a = tensor(m, 9, seed);
        let b = tensor(9, n, seed + 1);
        assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b));
    }

    #[test]
    fn matmul_into_matches_matmul(
        m in 1usize..16,
        k in 1usize..16,
        n in 1usize..65,
        seed in 0u64..500,
    ) {
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed + 1);
        // Stale contents must not leak into the result.
        let mut out = Tensor::from_vec(vec![f32::NAN; m * n], &[m, n]);
        a.matmul_into(&b, &mut out);
        assert_bits_equal(&out, &a.matmul(&b));
    }
}

proptest! {
    // More cases: the convolution shape space is wider than matmul's.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn conv2d_forward_is_bit_identical_to_reference(
        in_c in 1usize..3,
        out_c in 1usize..3,
        k in 1usize..6,
        stride in 1usize..3,
        padding in 0usize..3,
        pick in 0usize..64,
        specials in 0usize..2,
        seed in 0u64..200,
    ) {
        let side = conv_side(k, padding, pick);
        let mut x = sparsify(&Tensor::randn(&[2, in_c, side, side], 1.0, SeedStream::new(seed)));
        if specials == 1 {
            x = with_specials(&x, seed + 2);
        }
        let (mut conv, weight, bias) = conv_with_params(in_c, out_c, k, stride, padding, seed + 1);
        let got = conv.forward(&x);
        let want = conv2d_reference(&x, &weight, &bias, stride, padding);
        assert_bits_equal(&got, &want);
    }

    #[test]
    fn conv2d_backward_is_bit_identical_to_reference(
        in_c in 1usize..3,
        out_c in 1usize..3,
        k in 1usize..6,
        stride in 1usize..3,
        padding in 0usize..3,
        pick in 0usize..64,
        specials in 0usize..2,
        seed in 0u64..200,
    ) {
        let side = conv_side(k, padding, pick);
        let mut x = sparsify(&Tensor::randn(&[2, in_c, side, side], 1.0, SeedStream::new(seed)));
        let (mut conv, weight, _) = conv_with_params(in_c, out_c, k, stride, padding, seed + 1);
        let out_shape = conv.forward(&x).shape().to_vec();
        // Mostly zero, as behind a max-pool.
        let mut g = Tensor::randn(&out_shape, 1.0, SeedStream::new(seed + 2));
        for v in g.data_mut() {
            *v = if *v > 0.7 { *v } else { 0.0 };
        }
        if specials == 1 {
            x = with_specials(&x, seed + 3);
            g = with_specials(&g, seed + 4);
            let _ = conv.forward(&x);
        }
        let want = conv2d_backward_reference(&x, &weight, &g, stride, padding);
        let grad_in = conv.backward(&g);
        let grads = param_grads(|v| conv.visit_params(v));
        assert_bits_equal(&grads[0], &want.weight);
        assert_bits_equal(&grads[1], &want.bias);
        assert_bits_equal(&grad_in, &want.input);

        // The parameter-only pass leaves the same gradients.
        conv.visit_params(&mut |_, g| g.data_mut().fill(f32::NAN));
        conv.backward_params(&g);
        assert_all_bits_equal(&param_grads(|v| conv.visit_params(v)), &grads);
    }

    #[test]
    fn dense_gradients_match_naive_matmul_oracles(
        inputs_index in 0usize..3,
        hidden_index in 0usize..4,
        batch in 1usize..40,
        specials in 0usize..2,
        seed in 0u64..200,
    ) {
        // dW = xᵀ·dy and db = Σ_batch dy from `backward_params`, and
        // dx = dy·Wᵀ from `backward`, against the naive matmul over
        // test-local transposes.
        let inputs = [1, 8, 32][inputs_index];
        let hidden = [2, 8, 33, 64][hidden_index];
        let mut x = sparsify(&tensor(batch, inputs, seed));
        let mut dy = tensor(batch, hidden, seed + 1);
        if specials == 1 {
            x = with_specials(&x, seed + 2);
            dy = with_specials(&dy, seed + 3);
        }
        let mut dense = Dense::new(inputs, hidden, SeedStream::new(seed + 4));
        let mut weight = None;
        dense.visit_params(&mut |p, _| {
            weight.get_or_insert_with(|| p.clone());
        });
        let weight = weight.expect("dense has a weight");
        let _ = dense.forward(&x);
        dense.backward_params(&dy);
        let grads = param_grads(|v| dense.visit_params(v));
        assert_bits_equal(&grads[0], &transpose(&x).matmul_naive(&dy));
        assert_bits_equal(&grads[1], &column_sums(&dy));
        let dx = dense.backward(&dy);
        assert_bits_equal(&dx, &dy.matmul_naive(&transpose(&weight)));
    }

    #[test]
    fn parameter_only_backward_matches_full_backward(
        hidden_index in 0usize..4,
        batch in 1usize..40,
        specials in 0usize..2,
        seed in 0u64..200,
    ) {
        // Dense alone, and the two models the backend trains.
        let hidden = [2, 8, 33, 64][hidden_index];
        let mut x = sparsify(&tensor(batch, 8, seed));
        if specials == 1 {
            x = with_specials(&x, seed + 1);
        }
        let dy = tensor(batch, hidden, seed + 2);
        let mut dense = Dense::new(8, hidden, SeedStream::new(seed + 3));
        let _ = dense.forward(&x);
        let _ = dense.backward(&dy);
        let full = param_grads(|v| dense.visit_params(v));
        dense.visit_params(&mut |_, g| g.data_mut().fill(f32::NAN));
        dense.backward_params(&dy);
        assert_all_bits_equal(&param_grads(|v| dense.visit_params(v)), &full);

        for (mut model, width) in models(hidden, hidden_index + 1, seed + 4) {
            let logits = model.forward(&tensor(batch, width, seed + 5));
            let grad = tensor(batch, logits.cols(), seed + 6);
            let _ = model.backward(&grad);
            let full = param_grads(|v| model.visit_params(v));
            model.visit_params(&mut |_, g| g.data_mut().fill(f32::NAN));
            model.backward_params(&grad);
            assert_all_bits_equal(&param_grads(|v| model.visit_params(v)), &full);
        }
    }
}
