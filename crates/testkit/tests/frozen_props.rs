//! Property: freezing a model is pure scheduling — the compiled plan's
//! forward is byte-identical to the tape engine's, for every generated
//! architecture, across batch sizes, repeated pooled-buffer reuse, and
//! plan-compilation orderings. CI runs this suite under
//! `RAYON_NUM_THREADS ∈ {1, 2, 8}`, so identity also holds across worker
//! counts (the kernels' parallel reductions are order-invariant).
//!
//! Edge shapes (empty batch, single-row, single-column) are checked on raw
//! graphs, where zero-sized buffers meet the pool allocator directly.

use octs_data::Adjacency;
use octs_model::{Forecaster, FrozenForecaster, ModelDims};
use octs_space::JointSpace;
use octs_tensor::{Graph, Init, ParamStore, Tensor};
use octs_testkit::Gen;

const SEED: u64 = 0x0C75_F00D;

fn path_adj(n: usize) -> Adjacency {
    let mut adj = Adjacency::identity(n);
    for i in 0..n - 1 {
        *adj.weight_mut(i, i + 1) = 1.0;
        *adj.weight_mut(i + 1, i) = 1.0;
    }
    adj
}

fn probe(gen: &mut Gen, shape: &[usize]) -> Tensor {
    let numel: usize = shape.iter().product();
    Tensor::new(shape.to_vec(), (0..numel).map(|_| gen.f32_in(-1.0, 1.0)).collect())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Freeze-then-forward matches the tape bit-for-bit on every
/// sampled architecture, for B ∈ {1, 2}, and stays bitwise stable when the
/// same pooled plan is re-run after other batch sizes have churned the pool.
#[test]
fn freeze_is_byte_identical_to_tape_across_archs_and_batches() {
    let space = JointSpace::tiny();
    for case in 0..8u64 {
        let mut gen = Gen::from_seed(SEED ^ case);
        let ah = gen.arch_hyper(&space);
        let dims = ModelDims { n: 4, f: 2, p: 12, out_steps: 2 };
        let mut fc = Forecaster::new(ah.clone(), dims, &path_adj(dims.n), gen.seed());
        fc.training = false;
        let mut frozen = FrozenForecaster::new(fc);

        let x1 = probe(&mut gen, &[1, dims.f, dims.n, dims.p]);
        let x2 = probe(&mut gen, &[2, dims.f, dims.n, dims.p]);
        let want1 = bits(&frozen.tape_predict(&x1));
        let want2 = bits(&frozen.tape_predict(&x2));

        // First compile+run per batch size, in both orders relative to the
        // tape runs above.
        assert_eq!(bits(&frozen.predict(&x2)), want2, "seed {:#x}: B=2 diverges", gen.seed());
        assert_eq!(bits(&frozen.predict(&x1)), want1, "seed {:#x}: B=1 diverges", gen.seed());
        assert_eq!(frozen.plans_compiled(), 2, "one plan per batch size");

        // Re-running a cached plan after the pool served other shapes must
        // not perturb a single bit.
        for _ in 0..3 {
            assert_eq!(bits(&frozen.predict(&x1)), want1, "pooled B=1 re-run diverges");
            assert_eq!(bits(&frozen.predict(&x2)), want2, "pooled B=2 re-run diverges");
        }
        assert_eq!(frozen.plans_compiled(), 2, "re-runs must reuse cached plans");
    }
}

/// Edge shapes on a raw graph: an empty batch (`[0, k]`), a single row
/// (`[1, k]`) and a single column (`[k, 1]`) freeze and run, matching the
/// tape exactly — including the degenerate zero-element output.
#[test]
fn freeze_handles_empty_and_unit_shapes() {
    for rows in [0usize, 1, 5] {
        for cols in [1usize, 4] {
            let mut gen = Gen::from_seed(SEED ^ ((rows as u64) << 8) ^ cols as u64);
            let g = Graph::new();
            let mut ps = ParamStore::new(gen.seed());
            let x = probe(&mut gen, &[rows, cols]);
            let xin = g.constant(x.clone());
            let w = ps.var(&g, "w", &[cols, 3], Init::Xavier);
            let b = ps.var(&g, "b", &[3], Init::Zeros);
            let y = xin.matmul(&w).add_bias(&b).relu();

            let want = y.value();
            assert_eq!(want.shape(), &[rows, 3]);
            let plan = g.freeze(&xin, &y);
            let got = plan.run(&x);
            assert_eq!(got.shape(), want.shape(), "[{rows}, {cols}]: shape");
            assert_eq!(bits(&got), bits(&want), "[{rows}, {cols}]: bytes");
            // The compiled plan is reusable on fresh inputs of the same shape.
            let x2 = probe(&mut gen, &[rows, cols]);
            let g2 = Graph::new();
            let xin2 = g2.constant(x2.clone());
            let y2 = xin2
                .matmul(&ps.var(&g2, "w", &[cols, 3], Init::Xavier))
                .add_bias(&ps.var(&g2, "b", &[3], Init::Zeros))
                .relu();
            assert_eq!(bits(&plan.run(&x2)), bits(&y2.value()), "[{rows}, {cols}]: re-run");
        }
    }
}

/// A plan compiled on the first request at a batch size serves every later
/// request at that size: replayed on fresh inputs, it matches the tape on
/// each one, so nothing input-dependent was baked in at compile time.
#[test]
fn cached_plan_serves_fresh_inputs_identically() {
    let space = JointSpace::tiny();
    for case in 0..4u64 {
        let mut gen = Gen::from_seed(SEED.wrapping_add(0x9000) ^ case);
        let ah = gen.arch_hyper(&space);
        let dims = ModelDims { n: 3, f: 2, p: 12, out_steps: 2 };
        let mut fc = Forecaster::new(ah, dims, &path_adj(dims.n), gen.seed());
        fc.training = false;
        let mut frozen = FrozenForecaster::new(fc);
        for request in 0..3 {
            let x = probe(&mut gen, &[2, dims.f, dims.n, dims.p]);
            let want = bits(&frozen.tape_predict(&x));
            assert_eq!(
                bits(&frozen.predict(&x)),
                want,
                "seed {:#x}: request {request}",
                gen.seed()
            );
        }
        assert_eq!(frozen.plans_compiled(), 1, "every request reuses the first plan");
    }
}
