//! The frozen-inference conformance sweep, one test per spec, plus the
//! coverage contract pinning the enumerated op list to the gradient sweep's.
//!
//! `OCTS_CONFORMANCE_WIDE=1` (the nightly CI profile) widens the shape set.

use octs_space::OpKind;
use octs_testkit::frozen_conform::{all_frozen_specs, run_frozen_spec};

/// Fixed sweep seed — the gradient sweep's, so a reported failure replays
/// from `(op, seed, shape)` alone and both sweeps exercise the same inputs.
const SWEEP_SEED: u64 = 0x0C75_2024;

fn wide() -> bool {
    std::env::var("OCTS_CONFORMANCE_WIDE").as_deref() == Ok("1")
}

/// Declares the enumerated op list and one bit-identity test per entry, so
/// the list and the tests cannot drift apart.
macro_rules! frozen_sweep {
    ($($test:ident => $name:literal,)*) => {
        /// The model-layer contract: the exact op list the gradient sweep
        /// pins (see `tests/conformance_sweep.rs`), plus the full forecaster
        /// stack — what the serving layer actually freezes.
        const FROZEN_OPS: &[&str] = &[$($name),*];

        $(
            #[test]
            fn $test() {
                run_frozen_spec($name, SWEEP_SEED, wide()).assert_green();
            }
        )*
    };
}

frozen_sweep! {
    frozen_gdcc_matches_tape => "model/gdcc",
    frozen_inf_t_matches_tape => "model/inf_t",
    frozen_dgcn_matches_tape => "model/dgcn",
    frozen_inf_s_matches_tape => "model/inf_s",
    frozen_identity_matches_tape => "model/identity",
    frozen_st_block_matches_tape => "model/st_block",
    frozen_adaptive_adjacency_matches_tape => "model/adaptive_adjacency",
    frozen_residual_norm_matches_tape => "model/residual_norm",
    frozen_channel_projection_matches_tape => "model/channel_projection",
    frozen_linear_matches_tape => "model/linear",
    frozen_linear_no_bias_matches_tape => "model/linear_no_bias",
    frozen_mlp2_matches_tape => "model/mlp2",
    frozen_layer_norm_matches_tape => "model/layer_norm",
    frozen_self_attention_matches_tape => "model/self_attention",
    frozen_multi_head_attention_matches_tape => "model/multi_head_attention",
    frozen_gru_cell_matches_tape => "model/gru_cell",
    frozen_forecaster_matches_tape => "model/forecaster",
}

#[test]
fn frozen_sweep_covers_every_model_operator() {
    let specs = all_frozen_specs();
    let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
    for op in FROZEN_OPS {
        assert!(names.contains(op), "model op {op} has no frozen conformance spec");
    }
    for name in &names {
        assert!(
            FROZEN_OPS.contains(name),
            "spec {name} is not in the enumerated frozen op list — update the contract"
        );
    }
    // Every operator kind of the search space maps to a registered spec, so
    // a new OpKind cannot ship without a frozen-serving check.
    for op in OpKind::ALL {
        let expected = match op {
            OpKind::Gdcc => "model/gdcc",
            OpKind::InfT => "model/inf_t",
            OpKind::Dgcn => "model/dgcn",
            OpKind::InfS => "model/inf_s",
            OpKind::Identity => "model/identity",
        };
        assert!(names.contains(&expected), "OpKind::{op:?} has no frozen spec");
    }
}
