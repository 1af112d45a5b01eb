//! Golden fixture for the frozen serving path: a fixed-seed checkpoint
//! published to a registry, loaded on each serving engine, and forecast on
//! a fixed probe — snapshotted bit-for-bit to
//! `tests/golden/frozen_serving.json`.
//!
//! The fixture pins the exact forecast bytes of the tape and the frozen
//! engine, which must be equal. Any change to freezing or the registry load
//! path shows up as a structural diff naming the drifted field. Regenerate
//! deliberately with `UPDATE_GOLDEN=1 cargo test -p octs-serve --test
//! frozen_golden` and commit the fixture diff.

use octs_data::Adjacency;
use octs_model::{Forecaster, ModelDims};
use octs_serve::{Engine, ModelRegistry, ServableCheckpoint, ServableModel};
use octs_space::{ArchDag, ArchHyper, HyperParams};
use octs_tensor::Tensor;
use octs_testkit::golden::check_against_fixture;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::path::PathBuf;

const N: usize = 4;
const F: usize = 2;
const P: usize = 12;
const WEIGHT_SEED: u64 = 3;

/// One engine's end-to-end outcome on the golden checkpoint.
#[derive(Serialize)]
struct EngineSnapshot {
    /// The [`Engine`] the checkpoint was loaded on.
    engine: String,
    /// `f32::to_bits` of the forecast on the fixed probe input.
    forecast_bits: Vec<u64>,
}

/// The committed snapshot: registry-load → forward per engine.
#[derive(Serialize)]
struct FrozenServingRun {
    /// Bump when the snapshot layout changes (forces regeneration).
    schema_version: u64,
    /// Registry version the checkpoint published as.
    version: u64,
    /// Weight seed of the fixture forecaster.
    weight_seed: u64,
    /// Per-engine outcomes, in `[tape, frozen]` order.
    engines: Vec<EngineSnapshot>,
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// A fixture with `h = 8`, `i = 16`: wide enough that every ST-block op and
/// the output head run real matmuls.
fn publish_fixture(reg: &ModelRegistry, task: &str) -> u32 {
    let arch = ArchDag::sample_admissible(3, &mut ChaCha8Rng::seed_from_u64(7));
    let hp = HyperParams { b: 1, c: 3, h: 8, i: 16, u: 0, delta: 0 };
    let adj = Adjacency::identity(N);
    let dims = ModelDims { n: N, f: F, p: P, out_steps: 3 };
    let mut fc = Forecaster::new(ArchHyper::new(arch, hp), dims, &adj, WEIGHT_SEED);
    fc.training = false;
    fc.predict(&Tensor::zeros([1, F, N, P]));
    let mut ckpt = ServableCheckpoint::new(task, &fc, &adj, WEIGHT_SEED);
    reg.publish(&mut ckpt).unwrap()
}

fn probe_input() -> Tensor {
    let len = F * N * P;
    let data: Vec<f32> = (0..len)
        .map(|i| {
            let h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 33) % 2000) as f32 / 1000.0 - 1.0
        })
        .collect();
    Tensor::new([F, N, P], data)
}

fn capture() -> FrozenServingRun {
    let dir = std::env::temp_dir().join(format!("octs_frozen_golden_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let reg = ModelRegistry::open(&dir).unwrap();
    let version = publish_fixture(&reg, "golden");
    let x = probe_input();

    let engines = [(Engine::Tape, "tape"), (Engine::Frozen, "frozen")]
        .into_iter()
        .map(|(engine, name)| {
            let ckpt = reg.load_latest("golden").unwrap();
            let mut m = ServableModel::from_checkpoint_with(ckpt, engine).unwrap();
            let forecast = m.predict_batch(&[&x]).remove(0);
            EngineSnapshot {
                engine: name.to_string(),
                forecast_bits: forecast.data().iter().map(|v| v.to_bits() as u64).collect(),
            }
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    FrozenServingRun {
        schema_version: 2,
        version: version as u64,
        weight_seed: WEIGHT_SEED,
        engines,
    }
}

#[test]
fn frozen_serving_matches_golden_fixture() {
    let run = capture();

    // Whatever the committed bytes, the frozen engine is byte-identical to
    // the tape.
    assert_eq!(run.engines[1].forecast_bits, run.engines[0].forecast_bits, "frozen != tape");

    if let Err(diff) = check_against_fixture(&fixture("frozen_serving.json"), &run) {
        panic!("{diff}");
    }
}
