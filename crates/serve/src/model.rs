//! Servable checkpoints: the on-disk unit the registry stores and the
//! in-memory model a lane serves from.

use crate::ServeError;
use octs_data::Adjacency;
use octs_model::{Forecaster, FrozenForecaster, ModelDims};
use octs_space::ArchHyper;
use octs_tensor::{ParamStore, Tensor};
use serde::{Deserialize, Serialize};

/// Envelope schema version of [`ServableCheckpoint`] payloads.
pub const SERVABLE_VERSION: u32 = 1;

/// Which forward engine a served model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The autograd tape forward: the reference the frozen engine is
    /// checked against, and the serving benchmark's baseline.
    Tape,
    /// Compiled tape-free plans (`octs_tensor::FrozenGraph`), bit-identical
    /// to the tape forward.
    #[default]
    Frozen,
}

/// Everything needed to reconstruct a trained forecaster for serving: the
/// winning arch-hyper, the shape contract, the task graph, and the trained
/// weights. Serialized as the payload of a checksummed `persist` envelope.
#[derive(Serialize, Deserialize)]
pub struct ServableCheckpoint {
    /// Task identifier — doubles as the registry directory name.
    pub task: String,
    /// Registry version, assigned by [`crate::ModelRegistry::publish`]
    /// (0 until published).
    pub version: u32,
    /// The searched winner this checkpoint realizes.
    pub ah: ArchHyper,
    /// Shape contract the weights were trained under.
    pub dims: ModelDims,
    /// Task adjacency the spatial operators diffuse over.
    pub adjacency: Adjacency,
    /// Trained parameters.
    pub params: ParamStore,
    /// Seed the forecaster was built with (only feeds the eval-mode-unused
    /// dropout RNG, kept for reproducibility bookkeeping).
    pub seed: u64,
}

impl ServableCheckpoint {
    /// Packages a trained forecaster for publication. The registry assigns
    /// the version at publish time.
    pub fn new(task: impl Into<String>, fc: &Forecaster, adjacency: &Adjacency, seed: u64) -> Self {
        Self {
            task: task.into(),
            version: 0,
            ah: fc.ah.clone(),
            dims: fc.dims,
            adjacency: adjacency.clone(),
            params: fc.ps.snapshot(),
            seed,
        }
    }
}

/// A checkpoint rebuilt into a live, validated, evaluation-mode model — the
/// thing a [`crate::TaskLane`] worker owns and forwards through.
///
/// The model wraps a [`FrozenForecaster`]: under [`Engine::Frozen`] forwards
/// replay compiled tape-free plans (see `octs_tensor::FrozenGraph`), under
/// [`Engine::Tape`] they run the tape forward.
pub struct ServableModel {
    /// Registry version this model was loaded from.
    pub version: u32,
    /// Task the model serves.
    pub task: String,
    model: FrozenForecaster,
    engine: Engine,
}

impl ServableModel {
    /// [`ServableModel::from_checkpoint_with`] on the default
    /// [`Engine::Frozen`].
    pub fn from_checkpoint(ckpt: ServableCheckpoint) -> Result<Self, ServeError> {
        Self::from_checkpoint_with(ckpt, Engine::default())
    }

    /// Rebuilds and validates a model from a loaded checkpoint, serving on
    /// `engine`.
    ///
    /// Validation is the poisoned-model tripwire: every stored weight must be
    /// finite and a probe forward on a fixed seeded input, run on the engine
    /// that will serve, must produce a finite forecast. A checkpoint that
    /// fails either check is rejected with [`ServeError::Poisoned`] so the
    /// caller can keep serving the previous version.
    pub fn from_checkpoint_with(
        ckpt: ServableCheckpoint,
        engine: Engine,
    ) -> Result<Self, ServeError> {
        let ServableCheckpoint { task, version, ah, dims, adjacency, params, seed } = ckpt;
        if !params.all_finite() {
            return Err(ServeError::Poisoned {
                task,
                version,
                detail: "non-finite parameter values".to_string(),
            });
        }
        let fc = Forecaster::from_trained(ah, dims, &adjacency, params, seed);
        let mut model = Self { version, task, model: FrozenForecaster::new(fc), engine };
        if !model.forward(&probe_input(dims)).all_finite() {
            return Err(ServeError::Poisoned {
                task: model.task,
                version,
                detail: "probe forecast is non-finite".to_string(),
            });
        }
        Ok(model)
    }

    /// The `[F, N, P]` input shape every request must carry.
    pub fn input_shape(&self) -> [usize; 3] {
        let dims = self.dims();
        [dims.f, dims.n, dims.p]
    }

    /// Shape contract of the served model.
    pub fn dims(&self) -> ModelDims {
        self.model.forecaster().dims
    }

    /// One batched eval-mode forward: stacks `inputs` (each `[F, N, P]`)
    /// into `[B, F, N, P]`, runs a single forward on the model's engine, and
    /// demuxes the `[B, out_steps, N]` prediction back into per-request
    /// tensors.
    ///
    /// Each returned row is bit-identical to the forecast a lone
    /// single-request forward would produce: every output element is a dot
    /// product over one batch row, independent of `B`.
    pub fn predict_batch(&mut self, inputs: &[&Tensor]) -> Vec<Tensor> {
        self.forward(&Tensor::stack(inputs)).unstack()
    }

    /// One forward of a `[B, F, N, P]` batch on the model's engine.
    fn forward(&mut self, x: &Tensor) -> Tensor {
        match self.engine {
            Engine::Tape => self.model.tape_predict(x),
            Engine::Frozen => self.model.predict(x),
        }
    }
}

/// The fixed load-probe input: a seeded, sign-varying pattern (not zeros) so
/// the probe exercises real activation magnitudes. Deterministic across
/// loads, platforms and thread counts.
fn probe_input(dims: ModelDims) -> Tensor {
    let len = dims.f * dims.n * dims.p;
    let mut state: u64 = 0x0C75_9B0B_E51D_2026;
    let data = (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as u32 as f32 / u32::MAX as f32) * 2.0 - 1.0
        })
        .collect();
    Tensor::new([1, dims.f, dims.n, dims.p], data)
}

/// The post-forward half of the poisoned-model tripwire: every served
/// forecast must be finite. Returns the failure detail so the batcher can
/// reply [`ServeError::ForwardFailed`] and feed its circuit breaker.
pub fn validate_outputs(outputs: &[Tensor]) -> Result<(), String> {
    match outputs.iter().position(|t| !t.all_finite()) {
        None => Ok(()),
        Some(i) => Err(format!("non-finite forecast in batch row {i}")),
    }
}
