//! Frozen-inference conformance: every `octs-model` operator and stack,
//! compiled into a tape-free [`octs_tensor::FrozenGraph`] and required to be
//! bit-identical to the tape forward.
//!
//! The gradient sweep ([`crate::conformance`]) guards training; this sweep
//! guards *serving*. For each registered op it builds the same seeded traced
//! graph the tape engine would run, freezes it, and compares the frozen
//! forward's bits with the tape value's: freezing and buffer pooling are
//! pure scheduling, never numerics.
//!
//! `crates/testkit/tests/frozen_conformance.rs` runs one test per spec, and
//! its coverage test pins the enumerated op list to the same 16 model-op
//! names as the gradient sweep, plus the full [`octs_model::Forecaster`]
//! stack — a new operator cannot ship without a frozen-serving check.
//!
//! Every value derives from a single `u64` seed through the same
//! `mix`/`shape_salt` derivation as the gradient sweep, so any failure
//! replays from `(op name, seed, shape)` alone.

use crate::conformance::{mix, path_adjacency, shape_salt, tensor_of, InputKind};
use octs_data::Adjacency;
use octs_model::{
    adaptive_adjacency, apply_op, channel_projection, gru_cell, layer_norm as layer_norm_layer,
    linear, linear_no_bias, mlp2, multi_head_attention, residual_norm, self_attention, st_block,
    Forecaster, ModelDims, OpCtx,
};
use octs_space::{ArchDag, ArchHyper, Edge, HyperParams, OpKind};
use octs_tensor::{Graph, ParamStore, Tensor, Var};

/// Builds the seeded traced graph for one (seed, input) pair: returns the
/// graph, the input leaf (what [`octs_tensor::Graph::freeze`] binds as the
/// runtime argument), and the output var whose tape value is the reference.
type TraceFn = Box<dyn Fn(u64, &Tensor) -> (Graph, Var, Var) + Send + Sync>;

/// One op registered with the frozen conformance sweep.
pub struct FrozenOpSpec {
    /// Unique spec name — same namespace as the gradient sweep
    /// (`"model/gdcc"`, ...) plus `"model/forecaster"` for the full stack.
    pub name: &'static str,
    /// Shapes swept in the quick (PR) profile.
    pub quick_shapes: Vec<Vec<usize>>,
    /// Shapes swept in the wide (`OCTS_CONFORMANCE_WIDE=1`, nightly) profile.
    pub wide_shapes: Vec<Vec<usize>>,
    trace: TraceFn,
}

/// Per-op sweep outcome.
#[derive(Debug, Clone)]
pub struct FrozenOpReport {
    /// Spec name.
    pub name: String,
    /// Number of shapes checked.
    pub shapes_checked: usize,
    /// What failed, if anything — already formatted with the replay key.
    pub failure: Option<String>,
}

impl FrozenOpReport {
    /// Panics with the failure (which carries its replay key) if the op's
    /// frozen forward differed from the tape on any shape.
    pub fn assert_green(&self) {
        if let Some(f) = &self.failure {
            panic!("FAIL {f} ({} shapes checked)", self.shapes_checked);
        }
    }
}

// ---------------------------------------------------------------------------
// the registry

fn spec(name: &'static str, quick: &[&[usize]], wide: &[&[usize]], trace: TraceFn) -> FrozenOpSpec {
    FrozenOpSpec {
        name,
        quick_shapes: quick.iter().map(|s| s.to_vec()).collect(),
        wide_shapes: wide.iter().map(|s| s.to_vec()).collect(),
        trace,
    }
}

/// An op spec whose graph is built around a single input leaf: the closure
/// receives `(seed, g, xin)` and returns the output var.
fn leaf_spec(
    name: &'static str,
    quick: &[&[usize]],
    wide: &[&[usize]],
    build: impl Fn(u64, &Graph, &Var) -> Var + Send + Sync + 'static,
) -> FrozenOpSpec {
    spec(
        name,
        quick,
        wide,
        Box::new(move |seed, x| {
            let g = Graph::new();
            let xin = g.constant(x.clone());
            let y = build(seed, &g, &xin);
            (g, xin, y)
        }),
    )
}

/// The five S/T candidate operators share the `[B, H, N, L]` contract.
fn model_op_spec(name: &'static str, op: OpKind) -> FrozenOpSpec {
    leaf_spec(name, &[&[1, 8, 4, 6]], &[&[1, 8, 4, 6], &[2, 8, 3, 7]], move |seed, g, v| {
        let s = v.shape();
        let (h, n) = (s[1], s[2]);
        let mut ps = ParamStore::new(mix(seed, 0x55));
        let (adj_fwd, adj_bwd) = path_adjacency(n);
        let mut ctx = OpCtx { g, ps: &mut ps, h, adj_fwd, adj_bwd };
        apply_op(op, "op", v, &mut ctx)
    })
}

/// Every op the frozen sweep checks: the same 16 model-op names as the
/// gradient sweep plus the full forecaster stack. The coverage test in
/// `crates/testkit/tests/frozen_conformance.rs` pins this list — extend it
/// when adding an op.
pub fn all_frozen_specs() -> Vec<FrozenOpSpec> {
    vec![
        // ---- S/T candidate operators (Section 3.1.1) ---------------------
        model_op_spec("model/gdcc", OpKind::Gdcc),
        model_op_spec("model/inf_t", OpKind::InfT),
        model_op_spec("model/dgcn", OpKind::Dgcn),
        model_op_spec("model/inf_s", OpKind::InfS),
        model_op_spec("model/identity", OpKind::Identity),
        // ---- the ST-block assembly, wiring every op kind -----------------
        leaf_spec(
            "model/st_block",
            &[&[1, 8, 3, 5]],
            &[&[1, 8, 3, 5], &[1, 8, 2, 6]],
            |seed, g, v| {
                let arch = ArchDag::new(
                    4,
                    vec![
                        Edge { from: 0, to: 1, op: OpKind::Gdcc },
                        Edge { from: 0, to: 2, op: OpKind::InfT },
                        Edge { from: 1, to: 2, op: OpKind::Identity },
                        Edge { from: 1, to: 3, op: OpKind::InfS },
                        Edge { from: 2, to: 3, op: OpKind::Dgcn },
                    ],
                )
                .expect("valid fixed DAG");
                let s = v.shape();
                let mut ps = ParamStore::new(mix(seed, 0x57));
                let (adj_fwd, adj_bwd) = path_adjacency(s[2]);
                let mut ctx = OpCtx { g, ps: &mut ps, h: s[1], adj_fwd, adj_bwd };
                st_block(&arch, "blk", v, 1, &mut ctx)
            },
        ),
        // ---- model layers and helpers ------------------------------------
        leaf_spec("model/adaptive_adjacency", &[&[8, 8]], &[&[8, 8], &[16, 16]], |seed, g, v| {
            // The softmaxed adjacency is applied to the swept input so
            // it reaches the output.
            let n = v.shape()[0];
            let mut ps = ParamStore::new(mix(seed, 0x70));
            adaptive_adjacency(&mut ps, g, "adp", n, n).matmul(v)
        }),
        leaf_spec("model/residual_norm", &[&[4, 16]], &[&[4, 16], &[2, 8]], |seed, g, v| {
            let d = *v.shape().last().expect("rank >= 1");
            let mut ps = ParamStore::new(mix(seed, 0x67));
            let y = g.constant(tensor_of(InputKind::Smooth, &v.shape(), seed, 0x20));
            residual_norm(&mut ps, g, "rn", v, &y, d)
        }),
        leaf_spec(
            "model/channel_projection",
            &[&[1, 8, 3, 4]],
            &[&[1, 8, 3, 4], &[2, 8, 2, 5]],
            |seed, g, v| {
                let f = v.shape()[1];
                let mut ps = ParamStore::new(mix(seed, 0x68));
                channel_projection(&mut ps, g, "in", v, f, 8)
            },
        ),
        leaf_spec("model/linear", &[&[4, 16]], &[&[4, 16], &[2, 3, 16]], |seed, g, v| {
            let d = *v.shape().last().expect("rank >= 1");
            let mut ps = ParamStore::new(mix(seed, 0x60));
            linear(&mut ps, g, "fc", v, d, 8)
        }),
        leaf_spec("model/linear_no_bias", &[&[4, 16]], &[&[4, 16], &[2, 3, 16]], |seed, g, v| {
            let d = *v.shape().last().expect("rank >= 1");
            let mut ps = ParamStore::new(mix(seed, 0x61));
            linear_no_bias(&mut ps, g, "fc", v, d, 8)
        }),
        leaf_spec("model/mlp2", &[&[4, 16]], &[&[4, 16], &[2, 16]], |seed, g, v| {
            let d = *v.shape().last().expect("rank >= 1");
            let mut ps = ParamStore::new(mix(seed, 0x62));
            mlp2(&mut ps, g, "m", v, d, 8, 8)
        }),
        leaf_spec("model/layer_norm", &[&[4, 16]], &[&[4, 16], &[2, 8]], |seed, g, v| {
            let d = *v.shape().last().expect("rank >= 1");
            let mut ps = ParamStore::new(mix(seed, 0x63));
            layer_norm_layer(&mut ps, g, "ln", v, d)
        }),
        leaf_spec(
            "model/self_attention",
            &[&[2, 4, 8]],
            &[&[2, 4, 8], &[1, 6, 8]],
            |seed, g, v| {
                let d = *v.shape().last().expect("rank >= 1");
                let mut ps = ParamStore::new(mix(seed, 0x64));
                self_attention(&mut ps, g, "att", v, d)
            },
        ),
        leaf_spec(
            "model/multi_head_attention",
            &[&[2, 4, 8]],
            &[&[2, 4, 8], &[1, 6, 8]],
            |seed, g, v| {
                let d = *v.shape().last().expect("rank >= 1");
                let mut ps = ParamStore::new(mix(seed, 0x65));
                multi_head_attention(&mut ps, g, "mh", v, d, 2)
            },
        ),
        leaf_spec("model/gru_cell", &[&[4, 8]], &[&[4, 8], &[2, 8]], |seed, g, v| {
            let s = v.shape();
            let (batch, in_dim, hidden) = (s[0], s[1], 8);
            let mut ps = ParamStore::new(mix(seed, 0x66));
            let h = g.constant(tensor_of(InputKind::Smooth, &[batch, hidden], seed, 0x21));
            gru_cell(&mut ps, g, "gru", v, &h, in_dim, hidden)
        }),
        // ---- the full stack: exactly what the serving layer freezes ------
        spec(
            "model/forecaster",
            &[&[1, 2, 4, 12]],
            &[&[1, 2, 4, 12], &[2, 2, 4, 12]],
            Box::new(|seed, x| {
                let mut fc = forecaster_fixture(seed, x.shape()[2], x.shape()[1], x.shape()[3]);
                fc.forward_traced(x)
            }),
        ),
    ]
}

/// A deterministic evaluation-mode forecaster (`h = 8`, `i = 16`) over the
/// same fixed all-operator DAG as the ST-block spec.
fn forecaster_fixture(seed: u64, n: usize, f: usize, p: usize) -> Forecaster {
    let arch = ArchDag::new(
        4,
        vec![
            Edge { from: 0, to: 1, op: OpKind::Gdcc },
            Edge { from: 0, to: 2, op: OpKind::InfT },
            Edge { from: 1, to: 2, op: OpKind::Identity },
            Edge { from: 1, to: 3, op: OpKind::InfS },
            Edge { from: 2, to: 3, op: OpKind::Dgcn },
        ],
    )
    .expect("valid fixed DAG");
    let hyper = HyperParams { b: 1, c: 4, h: 8, i: 16, u: 0, delta: 0 };
    let ah = ArchHyper::new(arch, hyper);
    let dims = ModelDims { n, f, p, out_steps: 3 };
    let mut adj = Adjacency::identity(n);
    for i in 0..n.saturating_sub(1) {
        *adj.weight_mut(i, i + 1) = 1.0;
        *adj.weight_mut(i + 1, i) = 1.0;
    }
    let mut fc = Forecaster::new(ah, dims, &adj, mix(seed, 0x71));
    fc.training = false;
    fc
}

// ---------------------------------------------------------------------------
// the sweep

fn check_frozen_spec(spec: &FrozenOpSpec, seed: u64, wide: bool) -> FrozenOpReport {
    let shapes = if wide { &spec.wide_shapes } else { &spec.quick_shapes };
    let mut failure = None;
    for shape in shapes {
        let salt = shape_salt(shape);
        let x = tensor_of(InputKind::Smooth, shape, seed, salt);
        let (g, xin, out) = (spec.trace)(seed, &x);
        let want = out.value().data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let got = g.freeze(&xin, &out).run(&x);
        if got.data().iter().map(|v| v.to_bits()).ne(want) {
            failure.get_or_insert(format!(
                "{}: frozen forward is not bit-identical to the tape forward \
                 (seed {seed:#x}, shape {shape:?})",
                spec.name
            ));
        }
    }
    FrozenOpReport { name: spec.name.to_string(), shapes_checked: shapes.len(), failure }
}

/// Runs the frozen conformance check of the registered spec `name` (one
/// test per spec, so a failure is reported under its op's name).
///
/// # Panics
/// If no spec is registered under `name`.
pub fn run_frozen_spec(name: &str, seed: u64, wide: bool) -> FrozenOpReport {
    let specs = all_frozen_specs();
    let spec = specs
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no frozen conformance spec named {name}"));
    check_frozen_spec(spec, seed, wide)
}
