//! The SGD optimizer.

use crate::model::Sequential;
use crate::tensor::Tensor;

/// Stochastic gradient descent with momentum.
///
/// # Examples
///
/// ```
/// use edgetune_nn::optim::Sgd;
///
/// use edgetune_nn::layer::Dense;
/// use edgetune_nn::loss::cross_entropy;
/// use edgetune_nn::model::Sequential;
/// use edgetune_nn::tensor::Tensor;
/// use edgetune_util::rng::SeedStream;
///
/// let mut model = Sequential::new().with(Dense::new(2, 2, SeedStream::new(1)));
/// let mut opt = Sgd::new(0.1).with_momentum(0.9);
/// let x = Tensor::from_vec(vec![1.0, -1.0], &[1, 2]);
/// let loss = |model: &mut Sequential| cross_entropy(&model.forward(&x), &[0]);
/// let (before, grad) = loss(&mut model);
/// model.backward(&grad);
/// opt.step(&mut model);
/// assert!(loss(&mut model).0 < before);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Creates plain SGD with the given base learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be > 0, got {lr}");
        Sgd {
            lr,
            momentum: 0.0,
            velocities: Vec::new(),
        }
    }

    /// Enables classical momentum.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ momentum < 1`.
    #[must_use]
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        self.momentum = momentum;
        self
    }

    /// Applies one update step to every parameter of `model` using the
    /// gradients accumulated by the latest backward pass.
    pub fn step(&mut self, model: &mut Sequential) {
        let lr = self.lr;
        let momentum = self.momentum;
        let velocities = &mut self.velocities;
        let mut index = 0;
        model.visit_params(&mut |param, grad| {
            if velocities.len() <= index {
                velocities.push(Tensor::zeros(param.shape()));
            }
            let velocity = &mut velocities[index];
            assert_eq!(
                velocity.shape(),
                param.shape(),
                "parameter {index} changed shape between steps"
            );
            if momentum > 0.0 {
                // v = momentum * v + grad ; p -= lr * v — all in place:
                // the old clone-per-tensor sequence allocated four
                // tensors per parameter per step on the hottest path.
                velocity.momentum_update(momentum, grad);
                param.axpy(-lr, &*velocity);
            } else {
                param.axpy(-lr, grad);
            }
            index += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Dense;
    use crate::loss::mse;
    use edgetune_util::rng::SeedStream;

    fn one_param_model() -> Sequential {
        Sequential::new().with(Dense::new(1, 1, SeedStream::new(1)))
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        // Minimise (w·x - y)² for x=1, y=2: w should approach 2.
        let mut model = one_param_model();
        let mut opt = Sgd::new(0.2);
        let x = Tensor::from_vec(vec![1.0], &[1, 1]);
        let y = Tensor::from_vec(vec![2.0], &[1, 1]);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            let pred = model.forward(&x);
            let (loss, grad) = mse(&pred, &y);
            model.backward(&grad);
            opt.step(&mut model);
            assert!(
                loss <= last + 1e-4,
                "loss must not increase: {last} -> {loss}"
            );
            last = loss;
        }
        assert!(last < 1e-3, "should converge, final loss {last}");
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let run = |momentum: f32| {
            let mut model = one_param_model();
            let mut opt = Sgd::new(0.02);
            if momentum > 0.0 {
                opt = opt.with_momentum(momentum);
            }
            let x = Tensor::from_vec(vec![1.0], &[1, 1]);
            let y = Tensor::from_vec(vec![2.0], &[1, 1]);
            let mut loss = 0.0;
            for _ in 0..30 {
                let pred = model.forward(&x);
                let (l, grad) = mse(&pred, &y);
                loss = l;
                model.backward(&grad);
                opt.step(&mut model);
            }
            loss
        };
        assert!(
            run(0.6) < run(0.0),
            "momentum should reach lower loss in same steps"
        );
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_non_positive_lr() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn rejects_bad_momentum() {
        let _ = Sgd::new(0.1).with_momentum(1.0);
    }
}
