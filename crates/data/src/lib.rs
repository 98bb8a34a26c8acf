//! Synthetic federated datasets for the `blockfed` experiments.
//!
//! CIFAR-10 is not available offline, so the experiments run on
//! [`SynthCifar`] — a seeded 10-class generator engineered to preserve the two
//! properties the paper's evaluation actually depends on: a capacity gap
//! between simple and complex models, and client heterogeneity under
//! federated partitioning. The paper compares waiting policies against each
//! other, so these two properties, not CIFAR-10's pixels, carry its results.
//!
//! # Examples
//!
//! ```
//! use blockfed_data::{partition_dataset, Partition, SynthCifar, SynthCifarConfig};
//! use rand::SeedableRng;
//!
//! let gen = SynthCifar::new(SynthCifarConfig::tiny());
//! let (train, _test) = gen.generate(0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let shards = partition_dataset(&train, 3, Partition::DirichletLabelSkew { alpha: 0.5 }, &mut rng);
//! assert_eq!(shards.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No function over 120 counted lines (threshold in the root clippy.toml).
#![warn(clippy::too_many_lines)]

pub mod dataset;
pub mod loader;
pub mod partition;
pub mod synth_cifar;

pub use dataset::Dataset;
pub use loader::{Batch, Batcher};
pub use partition::{partition_dataset, Partition};
pub use synth_cifar::{SynthCifar, SynthCifarConfig};
