//! # octs-tensor
//!
//! Dense `f32` tensors plus a tape-based reverse-mode autograd engine.
//!
//! This crate is the computational substrate for the AutoCTS+ reproduction:
//! the original system trains PyTorch models on GPUs; here an equivalent (but
//! CPU-scale) engine provides exactly the operator set the paper's search
//! space needs — batched matmul, causal dilated convolution, attention
//! primitives (matmul + softmax + layer-norm), dropout and the usual
//! activations — together with Adam and gradient checking.
//!
//! ## Quick example
//! ```
//! use octs_tensor::{Graph, Tensor, ParamStore, Init, Adam};
//!
//! let mut ps = ParamStore::new(0);
//! let mut opt = Adam::new(0.1, 0.0);
//! for _ in 0..100 {
//!     let g = Graph::new();
//!     let w = ps.var(&g, "w", &[1], Init::Zeros);
//!     let target = g.constant(Tensor::scalar(2.0));
//!     let loss = w.sub(&target).mul(&w.sub(&target)).sum_all();
//!     g.backward(&loss);
//!     opt.step(&mut ps, &g.param_grads());
//! }
//! assert!((ps.get("w").unwrap().item() - 2.0).abs() < 0.1);
//! ```

#![warn(missing_docs)]

pub mod gradcheck;
pub mod graph;
pub mod infer;
pub mod init;
pub mod optim;
pub mod param;
pub mod pool;
pub mod shape;
pub mod tensor;

/// Low-level kernels backing the graph ops.
pub mod ops {
    pub mod conv;
    pub mod elementwise;
    pub mod matmul;
    pub mod norm;
    pub mod reduce;
    pub mod shapeops;
    pub mod softmax;
}

pub use gradcheck::{check_gradient, check_gradient_report, normalized_deviation, GradReport};
pub use graph::{Graph, Var};
pub use infer::{Act, FrozenGraph, FrozenOp};
pub use optim::{clip_grad_norm, Adam, Sgd};
pub use param::{Init, ParamStore};
pub use pool::PoolStats;
pub use tensor::Tensor;
