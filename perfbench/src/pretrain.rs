//! `pretrain`: AutoCTS++ offline pre-training from a task bank on disk,
//! through `AutoCts::pretrain_bank_journaled` with the default
//! `BankRunOptions` (one labelling worker).
//!
//! Set-up generates the bank from the workload seed, writes it, and makes
//! one warm-up pre-training pass over a small bank: the first pass in a
//! process is always the slowest, and a user pays that once, not per run.
//! The run then pre-trains over the bank several times, each into a fresh
//! run directory; every repetition must report the same bits. Many short
//! repetitions rather than a few long ones keep one slow moment of the
//! host from moving the median.

use crate::{pool_hit_ratio, set_up, span_mean_s, span_s, stats, Ctx, Probe, Run};
use autocts::comparator::PretrainReport;
use autocts::data::bank::{write_bank, BankConfig};
use autocts::data::{BankManifest, BankStream};
use autocts::prelude::*;
use autocts::BankRunOptions;
use octs_obs::ObsScope;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Pre-training runs over the same bank per ten seconds of `--seconds`;
/// one run over `BANK_TASKS` tasks takes about 1.1 s on a 2-core host.
const REPS_PER_10_S: u64 = 8;

/// Tasks in the bank.
const BANK_TASKS: usize = 120;

/// Tasks per bank shard, as in `pretrain_scale`.
const SHARD_TASKS: usize = 40;

/// The `pretrain_scale` profiles and enrichment, seeded by the workload.
fn bank_cfg(n_tasks: usize, seed: u64) -> BankConfig {
    let profiles = vec![
        DatasetProfile::custom("bank-traffic", Domain::Traffic, 4, 320, 24, 0.3, 0.1, 10.0, 901),
        DatasetProfile::custom("bank-energy", Domain::Energy, 4, 320, 24, 0.2, 0.1, 5.0, 902),
        DatasetProfile::custom("bank-solar", Domain::Solar, 4, 320, 24, 0.25, 0.08, 8.0, 903),
    ];
    let enrich = EnrichConfig {
        subsets_per_dataset: 1,
        time_frac: (0.6, 0.9),
        series_frac: (0.7, 1.0),
        settings: vec![ForecastSetting::multi(4, 2), ForecastSetting::multi(6, 2)],
        min_spans: 8,
        stride: 2,
        seed,
    };
    BankConfig { n_tasks, shard_tasks: SHARD_TASKS.min(n_tasks), profiles, enrich, seed }
}

/// The `pretrain_scale` pre-training configuration.
fn pre_cfg() -> PretrainConfig {
    PretrainConfig {
        l_shared: 2,
        l_random: 2,
        epochs: 2,
        label_cfg: TrainConfig::test(),
        ..PretrainConfig::test()
    }
}

/// Bit-exact signature of a report: epoch losses, then holdout accuracy.
fn report_bits(r: &PretrainReport) -> String {
    r.epoch_losses
        .iter()
        .chain(std::iter::once(&r.holdout_accuracy))
        .map(|v| format!("{:08x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// One pre-training run over `bank` into the fresh directory `run_dir`.
fn pretrain_once(bank: &Path, run_dir: &Path) -> Result<PretrainReport, CoreError> {
    std::fs::remove_dir_all(run_dir).ok();
    let mut sys = AutoCts::new(AutoCtsConfig::test());
    sys.pretrain_bank_journaled(bank, &pre_cfg(), run_dir, &BankRunOptions::default())
}

/// Checks one report; returns its signature, or `None` if implausible.
fn check(rep: usize, out: &Result<PretrainReport, CoreError>) -> Option<String> {
    match out {
        Ok(r)
            if r.holdout_accuracy.is_finite()
                && (0.0..=1.0).contains(&r.holdout_accuracy)
                && r.epoch_losses.len() == pre_cfg().epochs
                && r.epoch_losses.iter().all(|l| l.is_finite()) =>
        {
            Some(report_bits(r))
        }
        Ok(r) => {
            eprintln!("[pretrain] rep {rep}: implausible report {r:?}");
            None
        }
        Err(e) => {
            eprintln!("[pretrain] rep {rep}: {e}");
            None
        }
    }
}

pub fn run(ctx: &Ctx) -> Run {
    let n_tasks = BANK_TASKS;
    let reps = (ctx.args.seconds * REPS_PER_10_S / 10).max(1) as usize;
    let cfg = bank_cfg(n_tasks, ctx.args.seed);
    let bank = ctx.dir.join("bank");
    let warm_bank = ctx.dir.join("warm_bank");
    let run_dir: PathBuf = ctx.dir.join("run");
    let mut write_s = Vec::new();
    let ((), setup_s) = set_up(|| {
        std::fs::remove_dir_all(&bank).ok();
        let t = Instant::now();
        write_bank(&bank, &cfg).expect("write the bank");
        write_s.push(t.elapsed().as_secs_f64());
        write_bank(&warm_bank, &bank_cfg(SHARD_TASKS, ctx.args.seed ^ 0x5EED))
            .expect("write the warm-up bank");
        pretrain_once(&warm_bank, &run_dir).expect("warm-up pre-training");
        std::fs::remove_dir_all(&warm_bank).ok();
    });

    let mut run = Run { setup_s, attempted: reps as u64, ..Run::default() };
    let mut walls = Vec::new();
    let mut holdout = 0.0;
    for rep in 0..reps {
        let t = Instant::now();
        let out = pretrain_once(&bank, &run_dir);
        walls.push(t.elapsed().as_secs_f64());
        match check(rep, &out) {
            // Every repetition over the same bank must report the same bits.
            Some(bits) if run.outputs.first().is_none_or(|first| *first == bits) => {
                run.outputs.push(bits)
            }
            _ => run.failed += 1,
        }
        if let Ok(r) = &out {
            holdout = r.holdout_accuracy as f64;
        }
    }
    run.latency_ms = walls.iter().map(|w| w * 1e3).collect();
    run.work = (reps * n_tasks) as f64;
    run.work_s = walls.iter().sum();
    run.notes.insert("bank_tasks", n_tasks.to_string());
    run.notes.insert("holdout_acc", format!("{holdout:?}"));
    eprintln!(
        "[pretrain] {n_tasks} tasks x {reps}: walls {walls:.3?} s ({:.1} tasks/s), \
         setup {setup_s:.3} s",
        run.work / run.work_s
    );

    if ctx.args.trace {
        let probe = Probe::new();
        let t = Instant::now();
        let out = {
            let _scope = ObsScope::activate(&probe.recorder);
            probe
                .tracer
                .time("pretrain_bank_journaled", None, 0, |_| pretrain_once(&bank, &run_dir))
                .0
        };
        let traced_s = t.elapsed().as_secs_f64();
        let untraced_s = run.work_s / reps as f64;
        if check(reps, &out).as_ref() != run.outputs.first() {
            run.failed += 1;
        }
        probe.graft_phases("pretrain_bank_journaled");
        let summary = probe.recorder.summary();
        let journal = summary.histogram("journal.append_us");

        // The bank stream alone, drained by the harness, untraced.
        let manifest = BankManifest::load(&bank).expect("load the bank manifest");
        let shards: Vec<usize> = (0..manifest.shards.len()).collect();
        let t = Instant::now();
        let mut streamed = 0usize;
        for task in BankStream::open(&bank, &manifest, &shards, 2) {
            std::hint::black_box(task.expect("the bank streams back"));
            streamed += 1;
        }
        let stream_s = t.elapsed().as_secs_f64();

        let l = &mut run.layers;
        l.insert("comparator.encoder_s", span_s(&summary, "phase.encoder"));
        l.insert("comparator.label_s", span_s(&summary, "phase.label"));
        l.insert("comparator.tahc_epoch_s", span_mean_s(&summary, "pretrain.epoch"));
        l.insert("comparator.label_unit_ms", span_mean_s(&summary, "label.unit") * 1e3);
        l.insert("comparator.holdout_acc", holdout);
        l.insert("model.train_epochs", summary.counter("train.epochs") as f64);
        l.insert("tensor.pool_hit_ratio", pool_hit_ratio(&summary));
        l.insert("data.bank_write_s", stats::median(&write_s));
        l.insert("data.stream_tasks_per_s", streamed as f64 / stream_s);
        l.insert("core.journal_append_p50_ms", journal.map_or(0.0, |h| h.p50 / 1e3));
        l.insert("core.journal_append_p99_ms", journal.map_or(0.0, |h| h.p99 / 1e3));
        l.insert("core.run_dir_mib", dir_bytes(&run_dir) as f64 / (1 << 20) as f64);
        l.insert("core.pretrain_self_s", probe.self_s("pretrain_bank_journaled"));
        l.insert("bench.trace_overhead", traced_s / untraced_s);
        probe.write(&ctx.dir.with_file_name("traces"), &format!("pretrain-seed{}", ctx.args.seed));
    }
    run
}
