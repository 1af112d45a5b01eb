//! Before/after throughput benchmark for the fast tensor kernels.
//!
//! Times the naive reference loops against the register-blocked/packed
//! matmul and the im2col conv1d lowering at the shapes the system actually
//! runs hot: the GIN comparator MLP (dim 128) and ST-block channel/temporal
//! mixing at paper-scale hidden widths. At the search and pre-training
//! workloads' own small shapes it times the channel-vectorised conv1d
//! (forward and backward) against the direct loops, and the stride-walking
//! `Tensor::permuted` against the per-element odometer it replaced. Also
//! times one full training run both ways and reports ns per optimizer step
//! plus the buffer-pool hit rate, and one predict of an inference fixture
//! on the tape engine against its compiled frozen plan. Results, with the
//! host's cores, rayon threads, dispatched ISA tier and rustc, land in
//! `BENCH_kernels.json`.
//!
//! Exits nonzero if any fast kernel is slower than its reference (the CI
//! smoke gate), or — in full mode — if matmul speedup at the GIN/ST-block
//! shapes falls below the 3x acceptance floor or the frozen plan is not
//! 1.5x faster than the tape.
//!
//! ```sh
//! cargo run --release --bin kernel_bench            # full, 3x/1.5x gates
//! cargo run --release --bin kernel_bench -- --quick # CI smoke, >=1x gate
//! ```

use octs_bench::Host;
use octs_data::{Adjacency, DatasetProfile, Domain, ForecastSetting, ForecastTask};
use octs_model::{train_forecaster, Forecaster, FrozenForecaster, ModelDims, TrainConfig};
use octs_space::{ArchDag, ArchHyper, HyperParams, JointSpace};
use octs_tensor::ops::{conv, matmul, shapeops};
use octs_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct MatmulRow {
    name: String,
    m: usize,
    k: usize,
    n: usize,
    naive_ns: f64,
    fast_ns: f64,
    naive_gflops: f64,
    fast_gflops: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct ConvRow {
    name: String,
    pass: &'static str,
    batch: usize,
    c_in: usize,
    c_out: usize,
    l: usize,
    ksize: usize,
    dilation: usize,
    naive_ns: f64,
    fast_ns: f64,
    naive_gflops: f64,
    fast_gflops: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct PermuteRow {
    name: String,
    shape: Vec<usize>,
    axes: Vec<usize>,
    odometer_ns: f64,
    stride_walk_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct TrainRow {
    steps: usize,
    naive_ns_per_step: f64,
    fast_ns_per_step: f64,
    speedup: f64,
    pool_hit_rate: f64,
}

#[derive(Serialize)]
struct InferRow {
    batch: usize,
    tape_ns: f64,
    frozen_ns: f64,
    frozen_speedup: f64,
}

#[derive(Serialize)]
struct Report {
    quick: bool,
    host: Host,
    matmul: Vec<MatmulRow>,
    conv: Vec<ConvRow>,
    permute: Vec<PermuteRow>,
    train_step: TrainRow,
    infer: Vec<InferRow>,
    min_matmul_speedup: f64,
    min_frozen_speedup: f64,
    note: String,
}

/// A conv1d row: name, whether to time the backward pass too, then batch,
/// C_in, C_out, L, K and dilation.
type ConvCase = (&'static str, bool, usize, usize, usize, usize, usize, usize);

/// ns per call, best of three measurement windows (this guards the CI gate
/// against scheduler noise on shared cores): one warm-up, then each window
/// repeats the call until `target` wall time elapses.
fn bench_ns<F: FnMut()>(target: Duration, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut iters = 0u64;
        let t0 = Instant::now();
        loop {
            f();
            iters += 1;
            if t0.elapsed() >= target {
                break;
            }
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

fn filled(n: usize, scale: f32) -> Vec<f32> {
    (0..n).map(|i| ((i * 2_654_435_761 % 1000) as f32 / 1000.0 - 0.5) * scale).collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let target = Duration::from_millis(if quick { 25 } else { 120 });

    // --- 1. Matmul at GIN and ST-block shapes -----------------------------
    // GIN comparator: MLP layers are [dim x dim] at dim = 128, applied to
    // the arch-graph node batch (~32 nodes) and to stacked embeddings.
    // ST-blocks: per-node channel mixing at paper widths H in {48, 64}
    // over METR-LA-scale node counts.
    let matmul_shapes: &[(&str, usize, usize, usize)] = &[
        ("gin_mlp_nodes", 32, 128, 128),
        ("gin_mlp_stack", 128, 128, 128),
        ("st_channel_mix", 207, 64, 64),
        ("st_temporal_mix", 768, 48, 48),
    ];
    let mut matmul_rows = Vec::new();
    for &(name, m, k, n) in matmul_shapes {
        let a = filled(m * k, 2.0);
        let b = filled(k * n, 2.0);
        let mut out = vec![0.0f32; m * n];
        let flops = 2.0 * (m * k * n) as f64;

        matmul::set_fast_enabled(false);
        let naive_ns = bench_ns(target, || {
            out.fill(0.0);
            matmul::matmul_kernel(&a, &b, &mut out, m, k, n);
        });
        matmul::set_fast_enabled(true);
        let fast_ns = bench_ns(target, || {
            out.fill(0.0);
            matmul::matmul_kernel(&a, &b, &mut out, m, k, n);
        });

        let row = MatmulRow {
            name: name.to_string(),
            m,
            k,
            n,
            naive_ns,
            fast_ns,
            naive_gflops: flops / naive_ns,
            fast_gflops: flops / fast_ns,
            speedup: naive_ns / fast_ns,
        };
        eprintln!(
            "[matmul] {:<16} {m:>4}x{k:>3}x{n:>3}  naive {:>7.2} GF/s  fast {:>7.2} GF/s  {:>5.2}x",
            row.name, row.naive_gflops, row.fast_gflops, row.speedup
        );
        matmul_rows.push(row);
    }

    // --- 2. Conv1d: ST-block temporal convs (im2col) and the workloads'
    // gdcc shape (B·N=20, C=16, L=4, K=2; the channel-vectorised small path).
    let conv_shapes: &[ConvCase] = &[
        ("tcn_d1", false, 4, 32, 64, 12, 2, 1),
        ("tcn_d2", false, 4, 64, 64, 12, 2, 2),
        ("tcn_long", false, 8, 32, 32, 48, 3, 2),
        ("gdcc_d1", true, 20, 16, 16, 4, 2, 1),
        ("gdcc_d2", true, 20, 16, 16, 4, 2, 2),
    ];
    let mut conv_rows = Vec::new();
    for &(name, with_backward, batch, c_in, c_out, l, ksize, dilation) in conv_shapes {
        let x = filled(batch * c_in * l, 1.0);
        let w = filled(c_out * c_in * ksize, 1.0);
        let bias = filled(c_out, 0.5);
        let dout = filled(batch * c_out * l, 1.0);
        let mut out = vec![0.0f32; batch * c_out * l];
        let (mut dx, mut dw, mut db) = (vec![0.0; x.len()], vec![0.0; w.len()], vec![0.0; c_out]);
        let flops = 2.0 * (batch * c_out * c_in * ksize * l) as f64;
        let naive_vs_fast = |run: &mut dyn FnMut()| {
            matmul::set_fast_enabled(false);
            let naive_ns = bench_ns(target, &mut *run);
            matmul::set_fast_enabled(true);
            (naive_ns, bench_ns(target, run))
        };

        let mut timings = vec![(
            "fwd",
            flops,
            naive_vs_fast(&mut || {
                out.fill(0.0);
                conv::conv1d_forward(
                    &x,
                    &w,
                    Some(&bias),
                    &mut out,
                    batch,
                    c_in,
                    c_out,
                    l,
                    ksize,
                    dilation,
                );
            }),
        )];
        if with_backward {
            // dx and dw each cost one forward's multiply-adds.
            let ns = naive_vs_fast(&mut || {
                dx.fill(0.0);
                dw.fill(0.0);
                db.fill(0.0);
                conv::conv1d_backward(
                    &x,
                    &w,
                    &dout,
                    &mut dx,
                    &mut dw,
                    Some(&mut db),
                    batch,
                    c_in,
                    c_out,
                    l,
                    ksize,
                    dilation,
                );
            });
            timings.push(("bwd", 2.0 * flops, ns));
        }
        for (pass, flops, (naive_ns, fast_ns)) in timings {
            let row = ConvRow {
                name: name.to_string(),
                pass,
                batch,
                c_in,
                c_out,
                l,
                ksize,
                dilation,
                naive_ns,
                fast_ns,
                naive_gflops: flops / naive_ns,
                fast_gflops: flops / fast_ns,
                speedup: naive_ns / fast_ns,
            };
            eprintln!(
                "[conv1d] {:<9} {pass} b{batch} {c_in}->{c_out} l{l} k{ksize} d{dilation}  \
                 naive {:>6.2} GF/s  fast {:>6.2} GF/s  {:>5.2}x",
                row.name, row.naive_gflops, row.fast_gflops, row.speedup
            );
            conv_rows.push(row);
        }
    }

    // --- 2b. Permute at the ST-block layouts ([B, H, N, L] = [4, 16, 5, 4])
    let permute_cases: &[(&str, &[usize], &[usize])] = &[
        ("temporal_0213", &[4, 16, 5, 4], &[0, 2, 1, 3]),
        ("spatial_0321", &[4, 16, 5, 4], &[0, 3, 2, 1]),
    ];
    let mut permute_rows = Vec::new();
    for &(name, shape, axes) in permute_cases {
        let t = Tensor::new(shape.to_vec(), filled(shape.iter().product(), 1.0));
        let odometer_ns = bench_ns(target, || {
            std::hint::black_box(shapeops::permute_odometer(&t, axes));
        });
        let stride_walk_ns = bench_ns(target, || {
            std::hint::black_box(t.permuted(axes));
        });
        let row = PermuteRow {
            name: name.to_string(),
            shape: shape.to_vec(),
            axes: axes.to_vec(),
            odometer_ns,
            stride_walk_ns,
            speedup: odometer_ns / stride_walk_ns,
        };
        eprintln!(
            "[permute] {:<14} {shape:?} by {axes:?}  odometer {:>7.0} ns  stride walk {:>7.0} ns  \
             {:>5.2}x",
            row.name, row.odometer_ns, row.stride_walk_ns, row.speedup
        );
        permute_rows.push(row);
    }

    // --- 3. One full training run, naive vs fast --------------------------
    let profile = DatasetProfile::custom("bench", Domain::Traffic, 8, 300, 24, 0.3, 0.05, 10.0, 3);
    let task = ForecastTask::new(profile.generate(0), ForecastSetting::multi(6, 3), 0.6, 0.2, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let ah = JointSpace::scaled().sample(&mut rng);
    let dims = ModelDims::new(8, 1, task.setting);
    let epochs = if quick { 2 } else { 6 };
    let cfg = TrainConfig { epochs, max_train_windows: 32, patience: 0, ..TrainConfig::test() };
    let steps = epochs * 32usize.div_ceil(cfg.batch_size);

    matmul::set_fast_enabled(false);
    let mut fc = Forecaster::new(ah.clone(), dims, &task.data.adjacency, 7);
    let t0 = Instant::now();
    train_forecaster(&mut fc, &task, &cfg);
    let naive_ns_per_step = t0.elapsed().as_nanos() as f64 / steps as f64;

    matmul::set_fast_enabled(true);
    let mut fc = Forecaster::new(ah, dims, &task.data.adjacency, 7);
    let pool_before = octs_tensor::pool::stats();
    let t0 = Instant::now();
    train_forecaster(&mut fc, &task, &cfg);
    let fast_ns_per_step = t0.elapsed().as_nanos() as f64 / steps as f64;
    let pool = octs_tensor::pool::stats().since(&pool_before);

    let train_step = TrainRow {
        steps,
        naive_ns_per_step,
        fast_ns_per_step,
        speedup: naive_ns_per_step / fast_ns_per_step,
        pool_hit_rate: pool.hit_rate(),
    };
    eprintln!(
        "[train]  {} steps  naive {:.0} ns/step  fast {:.0} ns/step  {:.2}x  pool hit rate {:.3}",
        train_step.steps,
        train_step.naive_ns_per_step,
        train_step.fast_ns_per_step,
        train_step.speedup,
        train_step.pool_hit_rate
    );

    // --- 4. Frozen-forward inference: tape vs compiled plans ---------------
    // The serving fixture shape: 3 ST-blocks at h=8 / i=16, 8 nodes,
    // 12-step history.
    let infer_dims = ModelDims { n: 8, f: 2, p: 12, out_steps: 3 };
    let infer_adj = Adjacency::identity(infer_dims.n);
    let infer_fixture = || {
        let arch = ArchDag::sample_admissible(4, &mut ChaCha8Rng::seed_from_u64(7));
        let hp = HyperParams { b: 3, c: 4, h: 8, i: 16, u: 0, delta: 0 };
        let mut fc = Forecaster::new(ArchHyper::new(arch, hp), infer_dims, &infer_adj, 11);
        fc.training = false;
        fc
    };
    let mut infer_rows = Vec::new();
    for &batch in &[1usize, 8] {
        let shape = [batch, infer_dims.f, infer_dims.n, infer_dims.p];
        let x = Tensor::new(shape.to_vec(), filled(shape.iter().product(), 1.0));

        let mut tape_fc = infer_fixture();
        let tape_ns = bench_ns(target, || {
            tape_fc.predict(&x);
        });
        let mut frozen = FrozenForecaster::new(infer_fixture());
        frozen.predict(&x); // compile outside the timed window
        let frozen_ns = bench_ns(target, || {
            frozen.predict(&x);
        });

        let row = InferRow { batch, tape_ns, frozen_ns, frozen_speedup: tape_ns / frozen_ns };
        eprintln!(
            "[infer]  B={batch}  tape {:>8.0} ns  frozen {:>8.0} ns  {:>5.2}x",
            row.tape_ns, row.frozen_ns, row.frozen_speedup
        );
        infer_rows.push(row);
    }

    // --- 5. Gates + report ------------------------------------------------
    let min_matmul_speedup = matmul_rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    let min_frozen_speedup =
        infer_rows.iter().map(|r| r.frozen_speedup).fold(f64::INFINITY, f64::min);
    let report = Report {
        quick,
        host: Host::current(),
        matmul: matmul_rows,
        conv: conv_rows,
        permute: permute_rows,
        train_step,
        infer: infer_rows,
        min_matmul_speedup,
        min_frozen_speedup,
        note: "naive = retained reference loops (ops::matmul::naive, ops::conv::direct); \
               fast = register-blocked packed matmul, im2col conv1d (tcn rows) or the \
               channel-vectorised small conv1d (gdcc rows, bit-identical to direct); \
               permute rows time Tensor::permuted against the per-element odometer it \
               replaced; train row is one \
               full train_forecaster run divided by optimizer steps; infer rows time one \
               predict on a 3-block h=8/i=16 forecaster — tape engine vs its compiled \
               frozen plan"
            .to_string(),
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");

    for r in &report.matmul {
        assert!(r.speedup >= 1.0, "fast matmul slower than naive at {}: {:.2}x", r.name, r.speedup);
    }
    for r in &report.conv {
        assert!(
            r.speedup >= 1.0,
            "fast conv1d {} slower than naive at {}: {:.2}x",
            r.pass,
            r.name,
            r.speedup
        );
    }
    for r in &report.permute {
        assert!(
            r.speedup >= 1.0,
            "stride-walking permute slower than the odometer at {}: {:.2}x",
            r.name,
            r.speedup
        );
    }
    for r in &report.infer {
        assert!(
            r.frozen_speedup >= 1.0,
            "frozen forward slower than tape at B={}: {:.2}x",
            r.batch,
            r.frozen_speedup
        );
    }
    if !quick {
        assert!(
            min_matmul_speedup >= 3.0,
            "matmul speedup at GIN/ST-block shapes must be >= 3x, got {min_matmul_speedup:.2}x"
        );
        assert!(
            min_frozen_speedup >= 1.5,
            "frozen-vs-tape speedup must be >= 1.5x on the inference fixture, got \
             {min_frozen_speedup:.2}x"
        );
    }
}
