//! The [`Sequential`] model container.

use std::borrow::Cow;

use crate::layer::Layer;
use crate::tensor::Tensor;

/// A feed-forward stack of layers executed in order.
///
/// # Examples
///
/// ```
/// use edgetune_nn::layer::{Dense, Relu};
/// use edgetune_nn::model::Sequential;
/// use edgetune_nn::tensor::Tensor;
/// use edgetune_util::rng::SeedStream;
///
/// let mut model = Sequential::new()
///     .with(Dense::new(4, 8, SeedStream::new(1)))
///     .with(Relu::new())
///     .with(Dense::new(8, 2, SeedStream::new(2)));
/// let x = Tensor::zeros(&[3, 4]);
/// let y = model.forward(&x);
/// assert_eq!(y.shape(), &[3, 2]);
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty model.
    #[must_use]
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Runs the forward pass through every layer. The first layer reads
    /// `input` in place; only an empty model copies it.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = Cow::Borrowed(input);
        for layer in &mut self.layers {
            x = Cow::Owned(layer.forward(&x));
        }
        x.into_owned()
    }

    /// Runs the backward pass, accumulating parameter gradients, and
    /// returns the gradient with respect to the model input.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Sequential::forward`].
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// The training form of [`Sequential::backward`]: accumulates every
    /// parameter gradient, bit for bit the same, and returns nothing.
    /// Nothing reads the gradient with respect to the model input, so the
    /// layers in front of the first parameterised layer do not run
    /// backward, and that layer runs [`Layer::backward_params`].
    ///
    /// # Panics
    ///
    /// Panics if called before [`Sequential::forward`].
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        let first = self.layers.iter_mut().position(|layer| {
            let mut has_params = false;
            layer.visit_params(&mut |_, _| has_params = true);
            has_params
        });
        let Some(first) = first else {
            return;
        };
        let mut g = Cow::Borrowed(grad_out);
        for layer in self.layers[first + 1..].iter_mut().rev() {
            g = Cow::Owned(layer.backward(&g));
        }
        self.layers[first].backward_params(&g);
    }

    /// Visits every `(parameter, gradient)` pair across all layers, in a
    /// stable front-to-back order.
    pub fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Relu};
    use edgetune_util::rng::SeedStream;

    #[test]
    fn forward_threads_through_layers() {
        let mut m = Sequential::new()
            .with(Dense::new(2, 4, SeedStream::new(1)))
            .with(Relu::new())
            .with(Dense::new(4, 3, SeedStream::new(2)));
        assert_eq!(m.layers.len(), 3);
        let y = m.forward(&Tensor::zeros(&[5, 2]));
        assert_eq!(y.shape(), &[5, 3]);
    }

    #[test]
    fn backward_returns_input_shaped_gradient() {
        let mut m = Sequential::new()
            .with(Dense::new(3, 4, SeedStream::new(1)))
            .with(Relu::new());
        let x = Tensor::randn(&[2, 3], 1.0, SeedStream::new(9));
        let y = m.forward(&x);
        let g = m.backward(&Tensor::full(y.shape(), 1.0));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn param_count_sums_layers() {
        let mut m = Sequential::new()
            .with(Dense::new(2, 3, SeedStream::new(1))) // 2*3+3 = 9
            .with(Relu::new())
            .with(Dense::new(3, 1, SeedStream::new(2))); // 3*1+1 = 4
        let mut params = 0;
        m.visit_params(&mut |p, _| params += p.len());
        assert_eq!(params, 13);
    }

    #[test]
    fn visit_params_order_is_stable() {
        let mut m = Sequential::new()
            .with(Dense::new(2, 3, SeedStream::new(1)))
            .with(Dense::new(3, 1, SeedStream::new(2)));
        let mut shapes = Vec::new();
        m.visit_params(&mut |p, _| shapes.push(p.shape().to_vec()));
        assert_eq!(shapes, vec![vec![2, 3], vec![1, 3], vec![3, 1], vec![1, 1]]);
    }
}
