//! Neural-network layers with analytic forward/backward passes.
//!
//! Every layer implements [`Layer`]: `forward` caches whatever it needs,
//! `backward` consumes the gradient w.r.t. its output and returns the
//! gradient w.r.t. its input, `backward_params` is the training form that
//! computes only the parameter gradients, and `visit_params` exposes
//! `(parameter, gradient)` pairs to the optimizer in a stable order.
//!
//! Kernels are specialised by shape and never by measurement: `Conv2d`
//! takes contiguous slices when its stride is 1 and accumulates its
//! weight gradient one output channel at a time. Every specialisation
//! gives each output the additions of the reference loop in the same
//! order, so results are bit-identical (see `tests/kernel_properties.rs`).

use edgetune_util::rng::SeedStream;

use crate::tensor::Tensor;

/// A differentiable network layer.
///
/// Layers are stateful: `forward` must be called before `backward`, and
/// the pair must refer to the same input batch.
pub trait Layer: std::fmt::Debug + Send {
    /// Computes the layer output for `input`.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. this layer's output) back to
    /// the gradient w.r.t. its input, accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// The training form of [`Layer::backward`]: accumulates the same
    /// parameter gradients, bit for bit, and computes no input gradient.
    /// [`Sequential::backward_params`](crate::model::Sequential::backward_params)
    /// calls it on a model's first parameterised layer, whose input
    /// gradient nothing reads. The default runs `backward` and drops the
    /// result.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Visits every `(parameter, gradient)` pair, in a stable order.
    fn visit_params(&mut self, _visit: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Fully-connected layer: `y = x·W + b` over 2-D `[batch, features]`
/// inputs.
#[derive(Debug)]
pub struct Dense {
    weight: Tensor, // [in, out]
    bias: Tensor,   // [1, out]
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    // Scratch for the backward-pass transpose `Wᵀ` (shape [out, in]),
    // reused across steps so the optimiser loop does not allocate it per
    // layer per batch.
    scratch_wt: Option<Tensor>,
}

/// Returns the scratch tensor in `slot`, reallocating only when the
/// required shape changes.
fn ensure_shape<'a>(slot: &'a mut Option<Tensor>, shape: &[usize]) -> &'a mut Tensor {
    if slot.as_ref().is_none_or(|t| t.shape() != shape) {
        *slot = Some(Tensor::zeros(shape));
    }
    slot.as_mut().expect("scratch just ensured")
}

impl Dense {
    /// Creates a Kaiming-initialised dense layer.
    #[must_use]
    pub fn new(inputs: usize, outputs: usize, seed: SeedStream) -> Self {
        Dense {
            weight: Tensor::kaiming(&[inputs, outputs], inputs, seed.child("w")),
            bias: Tensor::zeros(&[1, outputs]),
            grad_weight: Tensor::zeros(&[inputs, outputs]),
            grad_bias: Tensor::zeros(&[1, outputs]),
            cached_input: None,
            scratch_wt: None,
        }
    }

    /// Input width.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Output width.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.weight.shape()[1]
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.cols(),
            self.inputs(),
            "dense layer expects {} inputs, got {}",
            self.inputs(),
            input.cols()
        );
        // Refill the standing input cache instead of cloning a fresh
        // tensor per batch — same bytes, one allocation for the epoch.
        match &mut self.cached_input {
            Some(cache) => cache.copy_from(input),
            None => self.cached_input = Some(input.clone()),
        }
        let mut out = Tensor::zeros(&[input.rows(), self.outputs()]);
        input.matmul_into(&self.weight, &mut out);
        out.add_row_assign(self.bias.data());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        // dx = dy · Wᵀ, the transpose through reused scratch.
        let (inputs, outputs) = (self.inputs(), self.outputs());
        let wt = ensure_shape(&mut self.scratch_wt, &[outputs, inputs]);
        self.weight.transpose_into(wt);
        let mut grad_in = Tensor::zeros(&[grad_out.rows(), inputs]);
        grad_out.matmul_into(wt, &mut grad_in);
        grad_in
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let input = self.cached_input.as_ref().expect("backward before forward");
        // dW = xᵀ · dy, read straight from the cached input: each batch
        // row adds `x[b][i] · dy[b]` to weight row `i`, in ascending `b`.
        // That is `matmul_naive(xᵀ, dy)`'s order of additions, zero-`x`
        // skip included, so no transpose is materialised. db = Σ_batch dy.
        let (inputs, outputs) = (self.inputs(), self.outputs());
        assert_eq!(
            grad_out.shape(),
            [input.rows(), outputs],
            "dense gradient must be [batch, outputs]"
        );
        let grad_weight = self.grad_weight.data_mut();
        grad_weight.fill(0.0);
        for (x_row, dy_row) in input
            .data()
            .chunks_exact(inputs)
            .zip(grad_out.data().chunks_exact(outputs))
        {
            for (&a, dw_row) in x_row.iter().zip(grad_weight.chunks_exact_mut(outputs)) {
                if a == 0.0 {
                    continue;
                }
                for (o, &d) in dw_row.iter_mut().zip(dy_row) {
                    *o += a * d;
                }
            }
        }
        grad_out.sum_rows_into(self.grad_bias.data_mut());
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visit(&mut self.weight, &mut self.grad_weight);
        visit(&mut self.bias, &mut self.grad_bias);
    }
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation.
    #[must_use]
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        // One pass writes the output and refills the standing mask.
        let mask = ensure_shape(&mut self.mask, input.shape());
        let mut out = input.clone();
        for (o, m) in out.data_mut().iter_mut().zip(mask.data_mut()) {
            *m = if *o > 0.0 { 1.0 } else { 0.0 };
            *o = o.max(0.0);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward before forward");
        grad_out.hadamard(mask)
    }
}

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

/// Flattens `[batch, …]` inputs into `[batch, features]`, remembering the
/// original shape for the backward pass.
#[derive(Debug, Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    #[must_use]
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let shape = input.shape().to_vec();
        assert!(shape.len() >= 2, "flatten expects a batch dimension");
        let batch = shape[0];
        let features: usize = shape[1..].iter().product();
        self.input_shape = Some(shape);
        input.reshape(&[batch, features])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.input_shape.as_ref().expect("backward before forward");
        grad_out.reshape(shape)
    }
}

// ---------------------------------------------------------------------------
// Reshape
// ---------------------------------------------------------------------------

/// Reshapes each sample: `[batch, ∏dims]` → `[batch, dims…]` (the inverse
/// of [`Flatten`], used to feed flat feature vectors into convolutional
/// stacks).
#[derive(Debug)]
pub struct Reshape {
    sample_shape: Vec<usize>,
}

impl Reshape {
    /// Creates a reshape to the given per-sample shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    #[must_use]
    pub fn new(sample_shape: Vec<usize>) -> Self {
        assert!(!sample_shape.is_empty(), "sample shape must be non-empty");
        assert!(
            sample_shape.iter().all(|&d| d > 0),
            "sample dims must be non-zero"
        );
        Reshape { sample_shape }
    }
}

impl Layer for Reshape {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let batch = input.shape()[0];
        let expected: usize = self.sample_shape.iter().product();
        let actual: usize = input.shape()[1..].iter().product();
        assert_eq!(
            actual, expected,
            "reshape expects {expected} features per sample, got {actual}"
        );
        let mut shape = vec![batch];
        shape.extend_from_slice(&self.sample_shape);
        input.reshape(&shape)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let batch = grad_out.shape()[0];
        let features: usize = grad_out.shape()[1..].iter().product();
        grad_out.reshape(&[batch, features])
    }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution over `[batch, channels, height, width]` inputs, with
/// configurable stride and zero padding.
#[derive(Debug)]
pub struct Conv2d {
    weight: Tensor, // [out_c, in_c, kh, kw]
    bias: Tensor,   // [1, out_c]
    grad_weight: Tensor,
    grad_bias: Tensor,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a Kaiming-initialised convolution.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or `kernel` is zero.
    #[must_use]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: SeedStream,
    ) -> Self {
        assert!(stride >= 1, "stride must be >= 1");
        assert!(kernel >= 1, "kernel must be >= 1");
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            weight: Tensor::kaiming(
                &[out_channels, in_channels, kernel, kernel],
                fan_in,
                seed.child("w"),
            ),
            bias: Tensor::zeros(&[1, out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            grad_bias: Tensor::zeros(&[1, out_channels]),
            stride,
            padding,
            cached_input: None,
        }
    }

    fn kernel(&self) -> usize {
        self.weight.shape()[2]
    }

    /// Output spatial size for an input spatial size.
    #[must_use]
    pub fn output_size(&self, input: usize) -> usize {
        (input + 2 * self.padding - self.kernel()) / self.stride + 1
    }
}

/// The shape of one convolution call: kernel side, stride, padding, and
/// input and output height and width.
#[derive(Debug, Clone, Copy)]
struct ConvGeometry {
    k: usize,
    stride: usize,
    padding: usize,
    ih: usize,
    iw: usize,
    oh: usize,
    ow: usize,
}

/// Range of output positions `o` (capped to `[0, out_len)`) for which
/// `o * stride + offset` lands inside `[0, in_len)` — the hoisted form
/// of the per-element padding bounds checks in the convolution loops.
#[inline]
fn valid_range(offset: isize, stride: usize, in_len: usize, out_len: usize) -> (usize, usize) {
    let stride = stride as isize;
    let lo = if offset < 0 {
        ((-offset + stride - 1) / stride) as usize
    } else {
        0
    };
    let hi = if (in_len as isize) > offset {
        ((in_len as isize - 1 - offset) / stride + 1).clamp(0, out_len as isize) as usize
    } else {
        0
    };
    (lo.min(hi), hi)
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let ishape = input.shape();
        assert_eq!(ishape.len(), 4, "conv2d expects NCHW input");
        let (batch, in_c, ih, iw) = (ishape[0], ishape[1], ishape[2], ishape[3]);
        let wshape = self.weight.shape();
        assert_eq!(
            in_c, wshape[1],
            "channel mismatch: input {in_c}, weight {}",
            wshape[1]
        );
        let (out_c, k) = (wshape[0], wshape[2]);
        let oh = self.output_size(ih);
        let ow = self.output_size(iw);
        let (stride, padding) = (self.stride, self.padding);
        let mut out = Tensor::zeros(&[batch, out_c, oh, ow]);
        let xd = input.data();
        let wd = self.weight.data();
        let bd = self.bias.data();
        let od = out.data_mut();
        // Output-stationary sweep: seed each output map with its bias,
        // then stream the (ic, ky, kx) weight taps in ascending order
        // with `ox` innermost, so every output element receives its
        // additions in the reference order. Padding is handled by the
        // valid oy/ox range of each tap, computed once per call; with
        // stride 1 the inner loop is two contiguous slices zipped, which
        // the autovectoriser turns into packed multiplies and adds.
        let tap_ranges = |in_len, out_len| -> Vec<(usize, usize)> {
            (0..k)
                .map(|t| valid_range(t as isize - padding as isize, stride, in_len, out_len))
                .collect()
        };
        let (oy_ranges, ox_ranges) = (tap_ranges(ih, oh), tap_ranges(iw, ow));
        for n in 0..batch {
            for oc in 0..out_c {
                let obase = (n * out_c + oc) * oh * ow;
                od[obase..obase + oh * ow].fill(bd[oc]);
                for ic in 0..in_c {
                    let xplane = (n * in_c + ic) * ih * iw;
                    for (ky, &(oy_lo, oy_hi)) in oy_ranges.iter().enumerate() {
                        for (kx, &(ox_lo, ox_hi)) in ox_ranges.iter().enumerate() {
                            if ox_lo == ox_hi {
                                continue;
                            }
                            let w = wd[((oc * in_c + ic) * k + ky) * k + kx];
                            for oy in oy_lo..oy_hi {
                                let iy = oy * stride + ky - padding;
                                let xrow = &xd[xplane + iy * iw..][..iw];
                                let orow = &mut od[obase + oy * ow..][..ow];
                                if stride == 1 {
                                    let xs = &xrow[ox_lo + kx - padding..];
                                    for (o, &x) in orow[ox_lo..ox_hi].iter_mut().zip(xs) {
                                        *o += x * w;
                                    }
                                } else {
                                    for ox in ox_lo..ox_hi {
                                        orow[ox] += xrow[ox * stride + kx - padding] * w;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        match &mut self.cached_input {
            Some(cache) => cache.copy_from(input),
            None => self.cached_input = Some(input.clone()),
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        let input = self.cached_input.as_ref().expect("backward before forward");
        let ishape = input.shape();
        let (in_c, ih, iw) = (ishape[1], ishape[2], ishape[3]);
        let wshape = self.weight.shape();
        let (out_c, k) = (wshape[0], wshape[2]);
        let (oh, ow) = (grad_out.shape()[2], grad_out.shape()[3]);
        let (stride, padding) = (self.stride, self.padding);
        let mut grad_in = Tensor::zeros(input.shape());
        let wd = self.weight.data();
        let god = grad_out.data();
        let gid = grad_in.data_mut();
        // Scatter: every nonzero output gradient adds `g · w` onto the
        // inputs under its window, output elements in ascending
        // (n, oc, oy, ox) order, with the padding bounds hoisted out of
        // the tap loops.
        for (plane, gplane) in god.chunks_exact(oh * ow).enumerate() {
            let (n, oc) = (plane / out_c, plane % out_c);
            for (oy, grow) in gplane.chunks_exact(ow).enumerate() {
                let oys = (oy * stride) as isize - padding as isize;
                let ky_lo = (-oys).max(0) as usize;
                let ky_hi = (ih as isize - oys).clamp(0, k as isize) as usize;
                for (ox, &g) in grow.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    let oxs = (ox * stride) as isize - padding as isize;
                    let kx_lo = (-oxs).max(0) as usize;
                    let kx_hi = (iw as isize - oxs).clamp(0, k as isize) as usize;
                    for ic in 0..in_c {
                        let xplane = (n * in_c + ic) * ih * iw;
                        for ky in ky_lo..ky_hi {
                            let xrow = xplane + (oys + ky as isize) as usize * iw;
                            let wrow = ((oc * in_c + ic) * k + ky) * k;
                            for kx in kx_lo..kx_hi {
                                gid[xrow + (oxs + kx as isize) as usize] += g * wd[wrow + kx];
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let ishape = input.shape();
        let (in_c, ih, iw) = (ishape[1], ishape[2], ishape[3]);
        let out_c = self.weight.shape()[0];
        let geo = ConvGeometry {
            k: self.kernel(),
            stride: self.stride,
            padding: self.padding,
            ih,
            iw,
            oh: self.output_size(ih),
            ow: self.output_size(iw),
        };
        assert_eq!(
            grad_out.shape(),
            [ishape[0], out_c, geo.oh, geo.ow],
            "conv2d output gradient does not match the forward output"
        );
        let (xd, god) = (input.data(), grad_out.data());
        let gwd = self.grad_weight.data_mut();
        let gbd = self.grad_bias.data_mut();
        // One output channel at a time: the bias and each weight tap see
        // the additions a scatter over output elements gives them, in the
        // same (n, oy, ox) order.
        // The taps skip zero gradients (zero times an infinite input is
        // NaN). The bias needs no skip: a sum started at +0.0 never
        // reaches -0.0, so adding ±0.0 leaves its bits unchanged.
        let taps = geo.k * geo.k;
        for oc in 0..out_c {
            let gplanes = || god.chunks_exact(geo.oh * geo.ow).skip(oc).step_by(out_c);
            gbd[oc] = gplanes().flatten().fold(0.0, |bias, &g| bias + g);
            for ic in 0..in_c {
                let xplanes = xd.chunks_exact(geo.ih * geo.iw).skip(ic).step_by(in_c);
                let planes = xplanes.zip(gplanes());
                let grad = &mut gwd[(oc * in_c + ic) * taps..][..taps];
                grad.fill(0.0);
                weight_taps(grad, geo, planes);
            }
        }
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visit(&mut self.weight, &mut self.grad_weight);
        visit(&mut self.bias, &mut self.grad_bias);
    }
}

/// Accumulates one (output channel, input channel) pair's weight
/// gradient: `taps[ky·k + kx] += g · x` for every nonzero output gradient
/// `g` of each `(input plane, output-gradient plane)` pair, in ascending
/// (n, oy, ox) order, skipping taps that land in the padding.
fn weight_taps<'a>(
    taps: &mut [f32],
    geo: ConvGeometry,
    planes: impl Iterator<Item = (&'a [f32], &'a [f32])>,
) {
    let (k, ih, iw) = (geo.k, geo.ih as isize, geo.iw);
    for (xplane, gplane) in planes {
        for (oy, grow) in gplane.chunks_exact(geo.ow).enumerate() {
            let y0 = (oy * geo.stride) as isize - geo.padding as isize;
            for (ox, &g) in grow.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                let x0 = (ox * geo.stride) as isize - geo.padding as isize;
                for ky in 0..k {
                    let iy = y0 + ky as isize;
                    if !(0..ih).contains(&iy) {
                        continue;
                    }
                    let xrow = &xplane[iy as usize * iw..][..iw];
                    for kx in 0..k {
                        let ix = x0 + kx as isize;
                        if (0..iw as isize).contains(&ix) {
                            taps[ky * k + kx] += g * xrow[ix as usize];
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

/// Non-overlapping 2-D max pooling (`kernel × kernel`, stride = kernel).
#[derive(Debug)]
pub struct MaxPool2d {
    kernel: usize,
    input_shape: Option<Vec<usize>>,
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is zero.
    #[must_use]
    pub fn new(kernel: usize) -> Self {
        assert!(kernel >= 1, "pool kernel must be >= 1");
        MaxPool2d {
            kernel,
            input_shape: None,
            argmax: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let ishape = input.shape().to_vec();
        assert_eq!(ishape.len(), 4, "maxpool expects NCHW input");
        let (batch, c, ih, iw) = (ishape[0], ishape[1], ishape[2], ishape[3]);
        let k = self.kernel;
        assert!(
            ih >= k && iw >= k,
            "input {ih}x{iw} smaller than pool kernel {k}"
        );
        let (oh, ow) = (ih / k, iw / k);
        let mut out = Tensor::zeros(&[batch, c, oh, ow]);
        // The argmax buffer is refilled, not reallocated, every call.
        self.argmax.clear();
        self.argmax.resize(out.len(), 0);
        let xd = input.data();
        let planes = out.data_mut().chunks_exact_mut(oh * ow);
        let arg_planes = self.argmax.chunks_exact_mut(oh * ow);
        for (plane, (oplane, arg_plane)) in planes.zip(arg_planes).enumerate() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for ky in 0..k {
                        let row = (plane * ih + oy * k + ky) * iw + ox * k;
                        for (xi, &x) in (row..).zip(&xd[row..row + k]) {
                            if x > best {
                                best = x;
                                best_idx = xi;
                            }
                        }
                    }
                    oplane[oy * ow + ox] = best;
                    arg_plane[oy * ow + ox] = best_idx;
                }
            }
        }
        self.input_shape = Some(ishape);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let ishape = self.input_shape.as_ref().expect("backward before forward");
        let mut grad_in = Tensor::zeros(ishape);
        let gid = grad_in.data_mut();
        for (oi, &g) in grad_out.data().iter().enumerate() {
            gid[self.argmax[oi]] += g;
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed() -> SeedStream {
        SeedStream::new(42)
    }

    /// Finite-difference check: analytic input gradient must match the
    /// numeric one.
    fn check_input_gradient(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let out = layer.forward(input);
        // Loss = sum(out) so dL/dout = 1 everywhere.
        let grad_out = Tensor::full(out.shape(), 1.0);
        let analytic = layer.backward(&grad_out);
        let eps = 1e-2f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let f_plus = layer.forward(&plus).data().iter().sum::<f32>();
            let f_minus = layer.forward(&minus).data().iter().sum::<f32>();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() < tol,
                "grad mismatch at {i}: analytic={a}, numeric={numeric}"
            );
        }
    }

    #[test]
    fn dense_forward_known_values() {
        let mut d = Dense::new(2, 2, seed());
        // Overwrite weights for a deterministic check.
        d.visit_params(&mut |p, _| {
            if p.shape() == [2, 2] {
                p.data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
            } else {
                p.data_mut().copy_from_slice(&[0.5, -0.5]);
            }
        });
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = d.forward(&x);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut d = Dense::new(3, 2, seed());
        let x = Tensor::randn(&[4, 3], 1.0, seed().child("x"));
        check_input_gradient(&mut d, &x, 1e-2);
    }

    #[test]
    fn dense_weight_gradient_matches_finite_differences() {
        let mut d = Dense::new(2, 2, seed());
        let x = Tensor::randn(&[3, 2], 1.0, seed().child("x"));
        let out = d.forward(&x);
        let grad_out = Tensor::full(out.shape(), 1.0);
        let _ = d.backward(&grad_out);
        let mut analytic_w = Vec::new();
        d.visit_params(&mut |_, g| analytic_w.push(g.clone()));
        let eps = 1e-2f32;
        // Perturb weight[0][0] and compare.
        let loss_at = |delta: f32, d: &mut Dense| {
            d.visit_params(&mut |p, _| {
                if p.shape() == [2, 2] {
                    p.data_mut()[0] += delta;
                }
            });
            let l: f32 = d.forward(&x).data().iter().sum();
            d.visit_params(&mut |p, _| {
                if p.shape() == [2, 2] {
                    p.data_mut()[0] -= delta;
                }
            });
            l
        };
        let numeric = (loss_at(eps, &mut d) - loss_at(-eps, &mut d)) / (2.0 * eps);
        let a = analytic_w[0].data()[0];
        assert!(
            (a - numeric).abs() < 1e-2,
            "analytic={a}, numeric={numeric}"
        );
    }

    #[test]
    fn relu_masks_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]);
        let y = r.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0]);
        let g = r.backward(&Tensor::full(&[1, 2], 1.0));
        assert_eq!(g.data(), &[0.0, 1.0]);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, seed());
        let y = f.forward(&x);
        assert_eq!(y.shape(), &[2, 48]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn conv2d_output_shape() {
        let mut c = Conv2d::new(3, 8, 3, 1, 1, seed());
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, seed().child("x"));
        let y = c.forward(&x);
        assert_eq!(
            y.shape(),
            &[2, 8, 8, 8],
            "same-padding 3x3 keeps spatial dims"
        );
        let mut s = Conv2d::new(3, 4, 3, 2, 0, seed());
        let y2 = s.forward(&x);
        assert_eq!(y2.shape(), &[2, 4, 3, 3]);
    }

    #[test]
    fn conv2d_known_values() {
        // 1x1 input channel, 2x2 kernel of ones, no padding, stride 1.
        let mut c = Conv2d::new(1, 1, 2, 1, 0, seed());
        c.visit_params(&mut |p, _| {
            if p.len() == 4 {
                p.data_mut().copy_from_slice(&[1.0; 4]);
            } else {
                p.data_mut()[0] = 0.0;
            }
        });
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        );
        let y = c.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_gradients_match_finite_differences() {
        let mut c = Conv2d::new(2, 3, 3, 1, 1, seed());
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, seed().child("x"));
        check_input_gradient(&mut c, &x, 5e-2);
    }

    #[test]
    fn conv2d_strided_gradients_match_finite_differences() {
        let mut c = Conv2d::new(1, 2, 3, 2, 1, seed());
        let x = Tensor::randn(&[1, 1, 5, 5], 1.0, seed().child("x"));
        check_input_gradient(&mut c, &x, 5e-2);
    }

    #[test]
    fn maxpool_selects_maxima_and_routes_gradient() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        );
        let y = p.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        let g = p.backward(&Tensor::full(&[1, 1, 2, 2], 1.0));
        let expected: Vec<f32> = (0..16)
            .map(|i| {
                if [5, 7, 13, 15].contains(&i) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        assert_eq!(g.data(), expected.as_slice());
    }

    #[test]
    fn param_counts() {
        let count = |layer: &mut dyn Layer| {
            let mut scalars = 0;
            layer.visit_params(&mut |p, _| scalars += p.len());
            scalars
        };
        assert_eq!(count(&mut Dense::new(10, 5, seed())), 55);
        let mut c = Conv2d::new(3, 8, 3, 1, 1, seed());
        assert_eq!(count(&mut c), 3 * 8 * 9 + 8);
        assert_eq!(count(&mut Relu::new()), 0);
    }

    #[test]
    fn reshape_inverts_flatten() {
        let mut r = Reshape::new(vec![1, 4, 4]);
        let x = Tensor::randn(&[3, 16], 1.0, seed());
        let y = r.forward(&x);
        assert_eq!(y.shape(), &[3, 1, 4, 4]);
        assert_eq!(y.data(), x.data(), "reshape preserves values");
        let g = r.backward(&y);
        assert_eq!(g.shape(), &[3, 16]);
    }

    #[test]
    #[should_panic(expected = "features per sample")]
    fn reshape_rejects_mismatched_width() {
        let mut r = Reshape::new(vec![1, 4, 4]);
        let _ = r.forward(&Tensor::zeros(&[2, 10]));
    }
}
