//! # octs-bench
//!
//! Experiment harnesses regenerating every table and figure of the paper's
//! evaluation (Section 4) at CPU scale, plus Criterion microbenches backing
//! the timing claims. See DESIGN.md's per-experiment index for the mapping
//! from paper artifact to binary.

#![warn(missing_docs)]

pub mod runner;
pub mod scale;
pub mod table;

pub use runner::{
    measure_baseline, pretrained_system, system_config, target_task, Baseline, MetricAgg,
};
pub use scale::Scale;
pub use table::{f, ms, results_dir, Table};

use serde::Serialize;

/// The host a `BENCH_*.json` artifact was measured on.
#[derive(Debug, Serialize)]
pub struct Host {
    /// Logical cores the OS reports.
    pub cores: usize,
    /// Rayon worker threads parallel kernels run on.
    pub rayon_threads: usize,
    /// ISA tier the matmul kernels dispatched to.
    pub isa_tier: &'static str,
    /// `rustc --version` of the compiler on `$RUSTC` or the `PATH`.
    pub rustc: String,
}

impl Host {
    /// Describes the host this process runs on.
    pub fn current() -> Self {
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rayon_threads: rayon::current_num_threads(),
            isa_tier: octs_tensor::ops::matmul::isa_tier(),
            rustc: rustc_version(),
        }
    }
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}
