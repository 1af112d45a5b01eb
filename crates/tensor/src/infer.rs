//! Tape-free frozen-forward inference backend.
//!
//! [`crate::Graph::freeze`] compiles one recorded forward pass into a
//! [`FrozenGraph`]: a topologically ordered op list with every parameter
//! baked in as a constant and dead tape nodes eliminated. Each step runs
//! the same kernel the tape ran, on the same operands, so the replay is
//! **byte-identical** to the tape forward (the frozen-conformance sweep and
//! a property test in octs-testkit pin this).
//!
//! The frozen replay pays none of the tape's per-op costs (node pushes,
//! `Rc<RefCell>` traffic, `Var::value()` clones, gradient bookkeeping):
//! intermediate values live in a flat slot vector whose tensors are dropped
//! at their last use, so their pooled buffers recycle within a single run
//! and serving steady state allocates nothing.

use crate::ops::matmul::{bmm_forward, BatchKind};
use crate::ops::{conv, elementwise as ew, norm, reduce, shapeops, softmax};
use crate::tensor::Tensor;

/// An activation function replayed by the frozen graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Act {
    /// `max(x, 0)`.
    Relu,
    /// `x` for `x > 0`, `alpha * x` otherwise.
    LeakyRelu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// GELU (tanh approximation).
    Gelu,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
    /// Natural log with inputs clamped to ≥ 1e-12 (matches [`crate::Var::ln`]).
    Ln,
}

impl Act {
    /// Applies the activation to one element, bit-matching the tape kernels.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Act::Relu => ew::relu(x),
            Act::LeakyRelu(alpha) => ew::leaky_relu(x, alpha),
            Act::Sigmoid => ew::sigmoid(x),
            Act::Tanh => ew::tanh(x),
            Act::Gelu => ew::gelu(x),
            Act::Abs => x.abs(),
            Act::Sqrt => x.sqrt(),
            Act::Ln => x.max(1e-12).ln(),
        }
    }
}

/// One step of a frozen graph. Operand `usize`s index earlier steps.
#[derive(Debug, Clone)]
pub enum FrozenOp {
    /// Eliminated step (dead code).
    Nop,
    /// The single runtime argument.
    Input,
    /// A value baked in at freeze time (parameter, adjacency, mask).
    Const(Tensor),
    /// Elementwise sum.
    Add(usize, usize),
    /// Elementwise difference.
    Sub(usize, usize),
    /// Elementwise product.
    Mul(usize, usize),
    /// Elementwise quotient.
    Div(usize, usize),
    /// Rank-1 bias broadcast over the trailing dimension.
    AddBias {
        /// Input step.
        x: usize,
        /// Bias step (rank-1).
        bias: usize,
    },
    /// Scalar addition.
    AddScalar {
        /// Input step.
        x: usize,
        /// The constant addend.
        s: f32,
    },
    /// Scalar multiplication.
    MulScalar {
        /// Input step.
        x: usize,
        /// The constant factor.
        s: f32,
    },
    /// Negation.
    Neg(usize),
    /// Batched matrix multiplication (see [`crate::ops::matmul::resolve_batch`]).
    Matmul {
        /// LHS step.
        a: usize,
        /// RHS step.
        b: usize,
        /// Batch-broadcast kind.
        kind: BatchKind,
        /// Batch count.
        batch: usize,
        /// Rows per batch.
        m: usize,
        /// Reduction dim.
        k: usize,
        /// Columns per batch.
        n: usize,
        /// Output shape.
        out_shape: Vec<usize>,
    },
    /// Elementwise activation.
    Unary {
        /// Input step.
        x: usize,
        /// The activation.
        act: Act,
    },
    /// Softmax over the trailing dimension.
    Softmax {
        /// Input step.
        x: usize,
        /// Trailing-dimension length.
        d: usize,
    },
    /// Layer normalization over the trailing dimension.
    LayerNorm {
        /// Input step.
        x: usize,
        /// Gain step (rank-1).
        gamma: usize,
        /// Shift step (rank-1).
        beta: usize,
        /// Trailing-dimension length.
        d: usize,
        /// Variance epsilon.
        eps: f32,
    },
    /// Causal dilated 1-D convolution.
    Conv1d {
        /// Input step (`[B, C_in, L]`).
        x: usize,
        /// Weight step (`[C_out, C_in, K]`).
        w: usize,
        /// Optional bias step (rank-1).
        bias: Option<usize>,
        /// Batch size.
        b: usize,
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Sequence length.
        l: usize,
        /// Kernel width.
        k: usize,
        /// Dilation factor.
        dilation: usize,
    },
    /// Reshape to a fixed shape.
    Reshape {
        /// Input step.
        x: usize,
        /// Target shape.
        shape: Vec<usize>,
    },
    /// Materializing axis permutation.
    Permute {
        /// Input step.
        x: usize,
        /// Axis order.
        axes: Vec<usize>,
    },
    /// Concatenation along an axis.
    Concat {
        /// Input steps.
        xs: Vec<usize>,
        /// Concatenation axis.
        axis: usize,
    },
    /// Slice along an axis.
    SliceAxis {
        /// Input step.
        x: usize,
        /// Sliced axis.
        axis: usize,
        /// First kept index.
        start: usize,
        /// Kept length.
        len: usize,
    },
    /// Sum of all elements (scalar `[1]`).
    SumAll(usize),
    /// Mean of all elements (scalar `[1]`).
    MeanAll(usize),
    /// Sum over one axis.
    SumAxis {
        /// Input step.
        x: usize,
        /// Reduced axis.
        axis: usize,
    },
    /// Mean over one axis.
    MeanAxis {
        /// Input step.
        x: usize,
        /// Reduced axis.
        axis: usize,
    },
    /// Elementwise product with a baked-in constant (frozen dropout mask).
    MulConst {
        /// Input step.
        x: usize,
        /// The constant factor tensor.
        c: Tensor,
    },
    /// Row gather from a `[rows, cols]` matrix.
    GatherRows {
        /// Input step.
        x: usize,
        /// Source row per output row.
        idx: Vec<usize>,
    },
}

fn operands(op: &FrozenOp, out: &mut Vec<usize>) {
    match op {
        FrozenOp::Nop | FrozenOp::Input | FrozenOp::Const(_) => {}
        FrozenOp::Add(a, b)
        | FrozenOp::Sub(a, b)
        | FrozenOp::Mul(a, b)
        | FrozenOp::Div(a, b)
        | FrozenOp::Matmul { a, b, .. } => out.extend([*a, *b]),
        FrozenOp::AddBias { x, bias } => out.extend([*x, *bias]),
        FrozenOp::AddScalar { x, .. }
        | FrozenOp::MulScalar { x, .. }
        | FrozenOp::Neg(x)
        | FrozenOp::Unary { x, .. }
        | FrozenOp::Softmax { x, .. }
        | FrozenOp::Reshape { x, .. }
        | FrozenOp::Permute { x, .. }
        | FrozenOp::SliceAxis { x, .. }
        | FrozenOp::SumAll(x)
        | FrozenOp::MeanAll(x)
        | FrozenOp::SumAxis { x, .. }
        | FrozenOp::MeanAxis { x, .. }
        | FrozenOp::MulConst { x, .. }
        | FrozenOp::GatherRows { x, .. } => out.push(*x),
        FrozenOp::LayerNorm { x, gamma, beta, .. } => out.extend([*x, *gamma, *beta]),
        FrozenOp::Conv1d { x, w, bias, .. } => {
            out.extend([*x, *w]);
            if let Some(b) = bias {
                out.push(*b);
            }
        }
        FrozenOp::Concat { xs, .. } => out.extend_from_slice(xs),
    }
}

/// A compiled, tape-free forward pass specialized to one input shape.
pub struct FrozenGraph {
    steps: Vec<FrozenOp>,
    /// Slot ids to drop after executing step `i` (their last use).
    frees: Vec<Vec<usize>>,
    output: usize,
    input_shape: Vec<usize>,
}

impl FrozenGraph {
    /// Compiles a raw step list (one entry per tape node) into an executable
    /// frozen graph: dead-code elimination and last-use free lists for slot
    /// recycling.
    pub fn compile(
        mut steps: Vec<FrozenOp>,
        input: usize,
        output: usize,
        input_shape: Vec<usize>,
    ) -> Self {
        let n = steps.len();
        assert!(output < n, "output id out of range");

        // Dead-code elimination: anything the output does not (transitively)
        // reach becomes a Nop. Indices are preserved, so no remapping.
        let mut live = vec![false; n];
        live[input] = true;
        let mut stack = vec![output];
        let mut ops = Vec::new();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut live[id], true) {
                continue;
            }
            ops.clear();
            operands(&steps[id], &mut ops);
            stack.extend_from_slice(&ops);
        }
        for (id, step) in steps.iter_mut().enumerate() {
            if !live[id] {
                *step = FrozenOp::Nop;
            }
        }

        // Last-use free lists: a slot's tensor drops (returning its buffer
        // to the thread-local pool) right after the last step that reads it.
        let mut last_use = vec![usize::MAX; n];
        for (i, step) in steps.iter().enumerate() {
            ops.clear();
            operands(step, &mut ops);
            for &id in &ops {
                last_use[id] = i;
            }
        }
        let mut frees: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, &lu) in last_use.iter().enumerate() {
            let stored = matches!(steps[id], FrozenOp::Const(_) | FrozenOp::Nop);
            if lu != usize::MAX && id != output && !stored {
                frees[lu].push(id);
            }
        }

        Self { steps, frees, output, input_shape }
    }

    /// The input shape this graph is specialized to.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of executable (non-`Nop`, non-leaf) steps.
    pub fn live_ops(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| !matches!(s, FrozenOp::Nop | FrozenOp::Input | FrozenOp::Const(_)))
            .count()
    }

    /// Executes the frozen forward on one input tensor.
    ///
    /// # Panics
    /// Panics if `input`'s shape differs from the shape the graph was frozen
    /// with (frozen graphs are shape-specialized; callers hold one per
    /// batch size).
    pub fn run(&self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.shape(),
            &self.input_shape[..],
            "frozen graph compiled for shape {:?}",
            self.input_shape
        );
        let mut slots: Vec<Option<Tensor>> = (0..self.steps.len()).map(|_| None).collect();
        for (i, step) in self.steps.iter().enumerate() {
            if let Some(out) = self.exec(step, i, input, &mut slots) {
                slots[i] = Some(out);
            }
            for &id in &self.frees[i] {
                slots[id] = None;
            }
        }
        match slots[self.output].take() {
            Some(t) => t,
            None => match &self.steps[self.output] {
                FrozenOp::Const(t) => t.clone(),
                FrozenOp::Input => input.clone(),
                other => panic!("output step {other:?} produced no value"),
            },
        }
    }

    fn exec(
        &self,
        step: &FrozenOp,
        i: usize,
        input: &Tensor,
        slots: &mut [Option<Tensor>],
    ) -> Option<Tensor> {
        let val = |slots: &[Option<Tensor>], id: usize| -> Tensor {
            if let Some(t) = &slots[id] {
                return t.clone();
            }
            match &self.steps[id] {
                FrozenOp::Const(t) => t.clone(),
                FrozenOp::Input => input.clone(),
                other => panic!("step {i} reads unset slot {id} ({other:?})"),
            }
        };
        // Reads a value without cloning, for kernels that take slices.
        macro_rules! peek {
            ($id:expr) => {
                match &slots[$id] {
                    Some(t) => t,
                    None => match &self.steps[$id] {
                        FrozenOp::Const(t) => t,
                        FrozenOp::Input => input,
                        other => panic!("step {i} reads unset slot {} ({other:?})", $id),
                    },
                }
            };
        }
        // Takes ownership when this step is the operand's last use (its slot
        // is about to be freed anyway), avoiding a pooled copy.
        let owned = |slots: &mut [Option<Tensor>], id: usize, frees: &[usize]| -> Tensor {
            if frees.contains(&id) {
                if let Some(t) = slots[id].take() {
                    return t;
                }
            }
            val(slots, id)
        };
        let out = match step {
            FrozenOp::Nop | FrozenOp::Const(_) => return None,
            FrozenOp::Input => input.clone(),
            FrozenOp::Add(a, b) => peek!(*a).zip(peek!(*b), |x, y| x + y),
            FrozenOp::Sub(a, b) => peek!(*a).zip(peek!(*b), |x, y| x - y),
            FrozenOp::Mul(a, b) => peek!(*a).zip(peek!(*b), |x, y| x * y),
            FrozenOp::Div(a, b) => peek!(*a).zip(peek!(*b), |x, y| x / y),
            FrozenOp::AddBias { x, bias } => {
                let bv = val(slots, *bias);
                let mut out = owned(slots, *x, &self.frees[i]);
                let d = bv.len();
                for chunk in out.data_mut().chunks_exact_mut(d) {
                    for (c, &b) in chunk.iter_mut().zip(bv.data()) {
                        *c += b;
                    }
                }
                out
            }
            FrozenOp::AddScalar { x, s } => {
                let s = *s;
                let mut out = owned(slots, *x, &self.frees[i]);
                for v in out.data_mut() {
                    *v += s;
                }
                out
            }
            FrozenOp::MulScalar { x, s } => {
                let s = *s;
                let mut out = owned(slots, *x, &self.frees[i]);
                for v in out.data_mut() {
                    *v *= s;
                }
                out
            }
            FrozenOp::Neg(x) => {
                let mut out = owned(slots, *x, &self.frees[i]);
                for v in out.data_mut() {
                    *v = -*v;
                }
                out
            }
            FrozenOp::Matmul { a, b, kind, batch, m, k, n, out_shape } => {
                let mut out = Tensor::zeros(out_shape.clone());
                bmm_forward(
                    peek!(*a).data(),
                    peek!(*b).data(),
                    out.data_mut(),
                    *kind,
                    *batch,
                    *m,
                    *k,
                    *n,
                );
                out
            }
            FrozenOp::Unary { x, act } => {
                let act = *act;
                let mut out = owned(slots, *x, &self.frees[i]);
                for v in out.data_mut() {
                    *v = act.apply(*v);
                }
                out
            }
            FrozenOp::Softmax { x, d } => {
                let xv = peek!(*x);
                let mut out = Tensor::zeros(xv.shape().to_vec());
                softmax::softmax_forward(xv.data(), out.data_mut(), *d);
                out
            }
            FrozenOp::LayerNorm { x, gamma, beta, d, eps } => {
                let xv = peek!(*x);
                let mut out = Tensor::zeros(xv.shape().to_vec());
                let gv = peek!(*gamma);
                let bv = peek!(*beta);
                let _ = norm::layernorm_forward(
                    xv.data(),
                    gv.data(),
                    bv.data(),
                    out.data_mut(),
                    *d,
                    *eps,
                );
                out
            }
            FrozenOp::Conv1d { x, w, bias, b, c_in, c_out, l, k, dilation } => {
                let mut out = Tensor::zeros([*b, *c_out, *l]);
                let bias_t = bias.map(|id| val(slots, id));
                conv::conv1d_forward(
                    peek!(*x).data(),
                    peek!(*w).data(),
                    bias_t.as_ref().map(|t| t.data()),
                    out.data_mut(),
                    *b,
                    *c_in,
                    *c_out,
                    *l,
                    *k,
                    *dilation,
                );
                out
            }
            FrozenOp::Reshape { x, shape } => {
                let mut out = owned(slots, *x, &self.frees[i]);
                out.reshape_in_place(shape.clone());
                out
            }
            FrozenOp::Permute { x, axes } => peek!(*x).permuted(axes),
            FrozenOp::Concat { xs, axis } => {
                let values: Vec<Tensor> = xs.iter().map(|&id| val(slots, id)).collect();
                let refs: Vec<&Tensor> = values.iter().collect();
                shapeops::concat(&refs, *axis)
            }
            FrozenOp::SliceAxis { x, axis, start, len } => {
                shapeops::slice_axis(peek!(*x), *axis, *start, *len)
            }
            FrozenOp::SumAll(x) => Tensor::scalar(peek!(*x).sum()),
            FrozenOp::MeanAll(x) => Tensor::scalar(peek!(*x).mean()),
            FrozenOp::SumAxis { x, axis } => reduce::sum_axis(peek!(*x), *axis),
            FrozenOp::MeanAxis { x, axis } => reduce::mean_axis(peek!(*x), *axis),
            FrozenOp::MulConst { x, c } => peek!(*x).zip(c, |a, b| a * b),
            FrozenOp::GatherRows { x, idx } => {
                let xv = peek!(*x);
                assert_eq!(xv.rank(), 2, "gather_rows expects a matrix");
                let cols = xv.shape()[1];
                let mut out = Tensor::zeros([idx.len(), cols]);
                for (row, &src) in idx.iter().enumerate() {
                    out.data_mut()[row * cols..(row + 1) * cols]
                        .copy_from_slice(&xv.data()[src * cols..(src + 1) * cols]);
                }
                out
            }
        };
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, Var};

    fn seeded(shape: &[usize], seed: u64) -> Tensor {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 40) as f32) / ((1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect();
        Tensor::new(shape.to_vec(), data)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A small mixed graph touching matmul, bias, activation, reshape,
    /// slicing, reductions, and layer-norm.
    fn build(g: &Graph, x: &crate::graph::Var) -> crate::graph::Var {
        let w = g.constant(seeded(&[6, 8], 2));
        let b = g.constant(seeded(&[8], 3));
        let gamma = g.constant(seeded(&[8], 4).map(|v| 1.0 + 0.1 * v));
        let beta = g.constant(seeded(&[8], 5));
        let h = x.matmul(&w).add_bias(&b).relu();
        let n = h.layer_norm(&gamma, &beta, 1e-5);
        let s = n.add(&h).sigmoid();
        s.slice_axis(1, 0, 4).mean_axis(1).add_scalar(0.25)
    }

    #[test]
    fn freeze_is_byte_identical_to_tape() {
        let x = seeded(&[5, 6], 1);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let y = build(&g, &xin);
        let frozen = g.freeze(&xin, &y);
        assert_eq!(bits(&frozen.run(&x)), bits(&y.value()));
    }

    #[test]
    fn shared_operand_survives_in_place_steps() {
        let x = seeded(&[3, 4], 9);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let a = g.constant(seeded(&[3, 4], 10));
        let summed = xin.add(&a);
        // `summed` feeds both the in-place activation and the final add, so
        // the activation must not take its slot.
        let y = summed.relu().add(&summed).sum_all();
        let frozen = g.freeze(&xin, &y);
        assert_eq!(bits(&frozen.run(&x)), bits(&y.value()));
    }

    #[test]
    fn dead_branches_are_eliminated() {
        let x = seeded(&[3, 5], 15);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let _unused = xin.relu().sum_all();
        let y = xin.mul_scalar(2.0);
        let frozen = g.freeze(&xin, &y);
        assert_eq!(frozen.live_ops(), 1, "dead relu/sum must be DCE'd");
        assert_eq!(bits(&frozen.run(&x)), bits(&y.value()));
    }

    #[test]
    fn empty_batch_runs() {
        let x = Tensor::zeros([0, 6]);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let y = build(&g, &xin);
        let frozen = g.freeze(&xin, &y);
        let out = frozen.run(&x);
        assert_eq!(out.shape(), y.value().shape());
        assert!(out.is_empty());
    }

    #[test]
    fn run_rejects_wrong_shape() {
        let x = seeded(&[2, 6], 16);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let y = xin.relu();
        let frozen = g.freeze(&xin, &y);
        let r = std::panic::catch_unwind(|| frozen.run(&seeded(&[3, 6], 17)));
        assert!(r.is_err(), "shape mismatch must panic");
    }

    #[test]
    fn repeated_runs_reuse_pooled_buffers() {
        let x = seeded(&[5, 6], 1);
        let g = Graph::new();
        let xin = g.constant(x.clone());
        let y = build(&g, &xin);
        let frozen = g.freeze(&xin, &y);
        let first = frozen.run(&x);
        crate::pool::reset_stats();
        let again = frozen.run(&x);
        assert_eq!(bits(&first), bits(&again));
        let stats = crate::pool::stats();
        assert!(
            stats.hit_rate() > 0.8,
            "warm frozen runs must serve from the pool (hit rate {})",
            stats.hit_rate()
        );
    }

    /// Freezes `build` traced on one input, then runs the plan on a second
    /// input of the same shape and checks it against a fresh tape trace of
    /// that input. A lowering that baked an input-dependent value into the
    /// plan, or replayed a step differently from its tape kernel, fails.
    fn assert_replays(shape: &[usize], build: impl Fn(&Graph, &Var) -> Var) {
        let (traced, fresh) = (seeded(shape, 100), seeded(shape, 101));
        let g = Graph::new();
        let xin = g.constant(traced);
        let frozen = g.freeze(&xin, &build(&g, &xin));

        let g2 = Graph::new();
        let x2 = g2.constant(fresh.clone());
        let want = build(&g2, &x2).value();
        let got = frozen.run(&fresh);
        assert_eq!(got.shape(), want.shape());
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn conv1d_chain_replays_identically() {
        assert_replays(&[2, 3, 7], |g, x| {
            let w = g.constant(seeded(&[4, 3, 2], 7));
            let b = g.constant(seeded(&[4], 8));
            let biased = x.conv1d(&w, Some(&b), 2).tanh();
            let w2 = g.constant(seeded(&[4, 4, 3], 9));
            biased.conv1d(&w2, None, 1).add(&biased).mean_axis(2)
        });
    }

    #[test]
    fn elementwise_arithmetic_replays_identically() {
        assert_replays(&[4, 5], |g, x| {
            let c = g.constant(seeded(&[4, 5], 20));
            let divisor = x.abs().add_scalar(0.5);
            x.sub(&c).mul(x).div(&divisor).neg().mul_scalar(0.75)
        });
    }

    #[test]
    fn every_activation_replays_identically() {
        assert_replays(&[3, 6], |_, x| {
            let acts = [
                x.relu(),
                x.leaky_relu(0.1),
                x.sigmoid(),
                x.tanh(),
                x.gelu(),
                x.abs(),
                x.abs().sqrt(),
                x.abs().ln(),
            ];
            let refs: Vec<&Var> = acts.iter().collect();
            Var::concat(&refs, 1)
        });
    }

    #[test]
    fn batched_matmul_kinds_replay_identically() {
        assert_replays(&[2, 3, 4], |g, x| {
            let matched = x.matmul(&g.constant(seeded(&[2, 4, 5], 30)));
            let shared_lhs = g.constant(seeded(&[5, 3], 31)).matmul(x);
            let shared_rhs = x.matmul(&g.constant(seeded(&[4, 5], 32)));
            let lhs = shared_lhs.transpose().matmul(&matched.transpose());
            Var::concat(&[&lhs, &shared_rhs.matmul(&matched.transpose())], 1)
        });
    }

    #[test]
    fn attention_softmax_and_layer_norm_replay_identically() {
        assert_replays(&[2, 4, 6], |g, x| {
            let scores = x.matmul(&x.transpose()).mul_scalar(0.5).softmax();
            let gamma = g.constant(seeded(&[6], 40).map(|v| 1.0 + 0.1 * v));
            let beta = g.constant(seeded(&[6], 41));
            scores.matmul(x).layer_norm(&gamma, &beta, 1e-5)
        });
    }

    #[test]
    fn shape_ops_replay_identically() {
        assert_replays(&[2, 3, 4], |_, x| {
            let permuted = x.permute(&[2, 0, 1]).reshape([4, 6]);
            let head = permuted.slice_axis(0, 1, 2);
            let tail = permuted.slice_axis(1, 2, 3).reshape([6, 2]).transpose();
            Var::concat(&[&head, &tail, &permuted], 0)
        });
    }

    #[test]
    fn reductions_replay_identically() {
        assert_replays(&[4, 5], |_, x| {
            let parts = [x.sum_axis(0), x.mean_axis(1), x.sum_all(), x.mean_all()];
            let refs: Vec<&Var> = parts.iter().collect();
            Var::concat(&refs, 0)
        });
    }

    #[test]
    fn dropout_mask_is_baked_into_the_plan() {
        use rand::SeedableRng;
        assert_replays(&[6, 8], |_, x| {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(50);
            x.dropout(0.5, &mut rng).relu()
        });
    }

    #[test]
    fn gather_rows_replays_identically() {
        assert_replays(&[5, 3], |_, x| x.gather_rows(&[4, 0, 0, 2]).tanh());
    }
}
