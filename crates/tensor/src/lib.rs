//! Dense `f32` tensor math for the `blockfed` neural-network stack.
//!
//! Provides the [`Tensor`] type (row-major, shape-checked), matrix
//! multiplication kernels tuned for dense-layer forward/backward passes,
//! weight initializers, and the numerically careful
//! softmax/accuracy operations the federated-learning evaluation relies on.
//!
//! # Examples
//!
//! ```
//! use blockfed_tensor::{matmul, ops::softmax_rows, Tensor};
//!
//! let x = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
//! let w = Tensor::from_vec(vec![0.5, -0.5, 1.0, 2.0], &[2, 2]);
//! let logits = matmul(&x, &w);
//! let probs = softmax_rows(&logits);
//! assert!((probs.as_slice().iter().sum::<f32>() - 1.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No function over 120 counted lines (threshold in the root clippy.toml).
#![warn(clippy::too_many_lines)]

pub mod init;
pub mod matmul;
pub mod ops;
pub mod tensor;

pub use matmul::{matmul, matmul_at, matmul_bt, matmul_bt_into};
pub use tensor::Tensor;
