//! Neural networks with manual backpropagation for the `blockfed` experiments.
//!
//! The stack mirrors what the paper trains with PyTorch: a small from-scratch
//! network ([`zoo::SimpleNn`], ≈62 K parameters) and a transfer-learned complex
//! network ([`zoo::EffNetLite`], ≈5.3 M parameters with a frozen pretrained
//! backbone). Models expose their trainable parameters as flat vectors so the
//! federated layer can average and ship them.
//!
//! # Examples
//!
//! ```
//! use blockfed_nn::{Linear, Relu, Sequential, Sgd};
//! use blockfed_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut model = Sequential::new();
//! model.push(Linear::new(&mut rng, 2, 8));
//! model.push(Relu::new());
//! model.push(Linear::new(&mut rng, 8, 2));
//! let mut opt = Sgd::new(0.1, 0.9);
//! let x = Tensor::from_vec(vec![1.0, -1.0], &[1, 2]);
//! let loss = model.train_batch(&x, &[0], &mut opt);
//! assert!(loss.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No function over 120 counted lines (threshold in the root clippy.toml).
#![warn(clippy::too_many_lines)]

pub mod layer;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod serialize;
pub mod zoo;

pub use layer::{Frozen, Layer, Linear, Relu};
pub use metrics::ConfusionMatrix;
pub use model::{train_shards, EvalResult, InferScratch, Sequential, MAX_TRAIN_SHARDS};
pub use optim::Sgd;
pub use zoo::{EffNetLite, EffNetLiteConfig, ModelKind, SimpleNn, SimpleNnConfig};
