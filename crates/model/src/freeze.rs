//! Frozen-forward forecaster: compiles a trained [`Forecaster`] into
//! tape-free [`FrozenGraph`] plans for serving.
//!
//! A frozen graph is specialized to one input shape, and the serving
//! micro-batcher produces a small set of batch sizes (1 … `max_batch`), so
//! the wrapper keeps one compiled plan per batch size: the first request at
//! a new size traces the tape forward once and compiles it; every later
//! request replays the plan with zero tape overhead.
//!
//! Predictions always come from the compiled plan — including the very
//! first call at a size — and every plan is byte-identical to
//! [`Forecaster::predict`] (pinned by the frozen-conformance sweep and a
//! property test in octs-testkit).

use crate::forecaster::Forecaster;
use octs_tensor::{FrozenGraph, Tensor};
use std::collections::HashMap;

/// A [`Forecaster`] compiled for tape-free inference.
pub struct FrozenForecaster {
    fc: Forecaster,
    plans: HashMap<usize, FrozenGraph>,
}

impl FrozenForecaster {
    /// Wraps a trained forecaster. The model is forced into evaluation mode:
    /// frozen graphs bake dropout out entirely.
    pub fn new(mut fc: Forecaster) -> Self {
        fc.training = false;
        Self { fc, plans: HashMap::new() }
    }

    /// The wrapped forecaster.
    pub fn forecaster(&self) -> &Forecaster {
        &self.fc
    }

    /// Number of batch-size-specialized plans compiled so far.
    pub fn plans_compiled(&self) -> usize {
        self.plans.len()
    }

    /// Frozen-forward prediction on `x` (`[B, F, N, P]`), compiling a plan
    /// for this batch size on first use.
    pub fn predict(&mut self, x: &Tensor) -> Tensor {
        let b = x.shape()[0];
        if !self.plans.contains_key(&b) {
            let (g, xin, pred) = self.fc.forward_traced(x);
            self.plans.insert(b, g.freeze(&xin, &pred));
        }
        self.plans[&b].run(x)
    }

    /// Tape-engine prediction, bypassing the frozen plans (reference path
    /// for probes and benchmarks).
    pub fn tape_predict(&mut self, x: &Tensor) -> Tensor {
        self.fc.predict(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::ModelDims;
    use octs_data::Adjacency;
    use octs_space::JointSpace;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fixture(seed: u64) -> (Forecaster, Tensor) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let space = JointSpace::tiny();
        let ah = space.sample(&mut rng);
        let dims = ModelDims { n: 4, f: 1, p: 6, out_steps: 3 };
        let adj = Adjacency::identity(4);
        let fc = Forecaster::new(ah, dims, &adj, seed);
        let x = Tensor::new([2, 1, 4, 6], (0..48).map(|i| (i % 5) as f32 * 0.1).collect());
        (fc, x)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn frozen_matches_tape_bit_for_bit() {
        let (mut fc, x) = fixture(7);
        let want = fc.predict(&x);
        let mut frozen = FrozenForecaster::new(fc);
        assert_eq!(bits(&frozen.predict(&x)), bits(&want));
        assert_eq!(bits(&frozen.predict(&x)), bits(&want), "warm plan");
    }

    #[test]
    fn plans_are_cached_per_batch_size() {
        let (fc, x) = fixture(8);
        let mut frozen = FrozenForecaster::new(fc);
        frozen.predict(&x);
        frozen.predict(&x);
        assert_eq!(frozen.plans_compiled(), 1);
        let x1 = Tensor::zeros([1, 1, 4, 6]);
        frozen.predict(&x1);
        assert_eq!(frozen.plans_compiled(), 2);
    }

    /// A forecaster handed over still in training mode, with dropout
    /// enabled, must not get a dropout mask baked into its plans: `new`
    /// forces evaluation mode, so the plan serves the eval forecast.
    #[test]
    fn new_forces_evaluation_mode() {
        let (fc, x) = fixture(9);
        let mut ah = fc.ah.clone();
        ah.hyper.delta = 1;
        let mut fc = Forecaster::new(ah, fc.dims, &Adjacency::identity(4), 9);
        assert!(fc.training && fc.ah.hyper.dropout_rate() > 0.0);
        let want = fc.predict(&x);
        let mut frozen = FrozenForecaster::new(fc);
        assert!(!frozen.forecaster().training);
        assert_eq!(bits(&frozen.predict(&x)), bits(&want));
        assert_eq!(bits(&frozen.tape_predict(&x)), bits(&want));
    }
}
