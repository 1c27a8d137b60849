//! A from-scratch mini deep-learning framework.
//!
//! The EdgeTune paper trains its workloads with PyTorch; PyTorch does not
//! exist here, so this crate is the training substrate: dense and
//! convolutional layers with full forward/backward passes, stochastic
//! gradient descent with momentum, cross-entropy and MSE losses,
//! synthetic datasets, and a training loop that reports the per-epoch
//! training loss and the final validation accuracy. It is small but *real* — gradients are computed
//! analytically and models genuinely learn — which lets the tuning stack
//! drive actual training through the same `TrainingBackend` interface it
//! uses for the simulated paper workloads.
//!
//! # Examples
//!
//! Train a small classifier on a synthetic blob dataset:
//!
//! ```
//! use edgetune_nn::data::Dataset;
//! use edgetune_nn::layer::{Dense, Relu};
//! use edgetune_nn::model::Sequential;
//! use edgetune_nn::optim::Sgd;
//! use edgetune_nn::train::{fit, FitConfig};
//! use edgetune_util::rng::SeedStream;
//!
//! let seed = SeedStream::new(7);
//! let data = Dataset::gaussian_blobs(200, 4, 3, 0.3, seed);
//! let (train, val) = data.split(0.8);
//! let mut model = Sequential::new()
//!     .with(Dense::new(4, 16, seed.child("d1")))
//!     .with(Relu::new())
//!     .with(Dense::new(16, 3, seed.child("d2")));
//! let mut opt = Sgd::new(0.1).with_momentum(0.9);
//! let report = fit(&mut model, &mut opt, &train, &val, &FitConfig::new(5, 16), seed);
//! assert!(report.final_val_accuracy() > 0.5);
//! ```

pub mod data;
pub mod layer;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod tensor;
pub mod train;

pub use model::Sequential;
pub use tensor::Tensor;
