//! `serve_steady`: open-loop forecast traffic against a `ForecastServer`
//! with the default `BatchPolicy`, four task lanes, one hot task taking 70%
//! of requests, Poisson arrivals at `STEADY_RPS`. Batches stay near one
//! request, so latency is one frozen forward plus the batch window and the
//! lane hand-off.
//!
//! One generator thread sends each request when it is due and hands the
//! pending reply to one collector thread, which waits for replies in
//! submission order. Latency runs from each request's due time to the
//! moment the collector holds its reply, so generator stalls count. A
//! reply that arrives before an earlier-submitted one on another lane is
//! seen when the earlier one is; within a lane replies come in order.
//!
//! The offered rate is a fixed absolute number, about 40% of what one
//! client in a closed loop gets from this server on a 2-core host, and is
//! never calibrated per run: a calibrated rate would move with the noise
//! and hide a speed-up. Traced runs measure that capacity again.

use crate::{set_up, stats, Ctx, Probe, Run};
use octs_data::Adjacency;
use octs_model::{Forecaster, ModelDims};
use octs_obs::{ObsScope, Recorder};
use octs_serve::{
    BatchPolicy, ForecastServer, ModelRegistry, PendingForecast, ServableCheckpoint, ServableModel,
};
use octs_space::JointSpace;
use octs_tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Model shape: series, features, input steps, output steps.
const N: usize = 16;
const F: usize = 2;
const P: usize = 24;
const OUT: usize = 6;

/// Task lanes; lane 0 is the hot one.
const LANES: usize = 4;
const HOT_SHARE: f64 = 0.7;

/// Distinct inputs per lane; every request carries one of them.
const INPUTS_PER_LANE: usize = 16;

/// Mean offered rate of `serve_steady`, requests per second: about 40% of
/// the one-client closed-loop capacity of this server
/// (`serve.capacity_rps`), 323–385 requests/s on a 2-core host.
const STEADY_RPS: f64 = 150.0;

/// Time from the end of set-up to the first due request.
const LEAD: Duration = Duration::from_millis(20);

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Request {
    /// Offset of its due time from the schedule start.
    due: Duration,
    lane: usize,
    input: usize,
}

fn task_name(lane: usize) -> String {
    format!("lane{lane}")
}

/// The request stream of `seconds`, generated from `seed`: exponential
/// gaps, so arrivals form a Poisson process.
fn schedule(seconds: u64, seed: u64) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / STEADY_RPS;
        if t >= seconds as f64 {
            return out;
        }
        let lane = if rng.gen::<f64>() < HOT_SHARE { 0 } else { 1 + rng.gen_range(0..LANES - 1) };
        let input = rng.gen_range(0..INPUTS_PER_LANE);
        out.push(Request { due: Duration::from_secs_f64(t), lane, input });
    }
}

/// Request inputs `[F, N, P]`, `INPUTS_PER_LANE` per lane, from `seed`.
fn inputs(seed: u64) -> Vec<Vec<Tensor>> {
    (0..LANES)
        .map(|lane| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0x00F0_CA57 + lane as u64));
            (0..INPUTS_PER_LANE)
                .map(|_| {
                    let data = (0..F * N * P).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
                    Tensor::new([F, N, P], data)
                })
                .collect()
        })
        .collect()
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A running server and the reference forecast of every input.
struct Served {
    server: ForecastServer,
    inputs: Vec<Vec<Tensor>>,
    references: Vec<Vec<Tensor>>,
    /// The hot lane's model, loaded apart from the server, for the
    /// forward probes.
    hot: ServableModel,
}

/// Publishes one model per lane to a fresh registry under `dir`, serves
/// every lane, computes the reference forecasts with a model loaded apart
/// from the server, and sends every input through the server once. Returns
/// the server and how many warm-up replies differed from their reference.
fn start(dir: &Path, inputs: Vec<Vec<Tensor>>) -> (Served, u64) {
    std::fs::remove_dir_all(dir).ok();
    let adj = Adjacency::identity(N);
    let dims = ModelDims { n: N, f: F, p: P, out_steps: OUT };
    let registry = ModelRegistry::open(dir).expect("open the registry");
    for lane in 0..LANES {
        // Models are part of the system under test, not of its input: they
        // stay fixed whatever the workload seed.
        let ah = JointSpace::tiny().sample(&mut ChaCha8Rng::seed_from_u64(100 + lane as u64));
        let mut fc = Forecaster::new(ah, dims, &adj, 1 + lane as u64);
        fc.training = false;
        fc.predict(&Tensor::zeros([1, F, N, P]));
        let mut ckpt = ServableCheckpoint::new(task_name(lane), &fc, &adj, 1 + lane as u64);
        registry.publish(&mut ckpt).expect("publish a lane model");
    }
    let policy = BatchPolicy::default();
    let server = ForecastServer::new(registry, policy);
    let mut references = Vec::with_capacity(LANES);
    let mut hot = None;
    for (lane, lane_inputs) in inputs.iter().enumerate() {
        let task = task_name(lane);
        server.serve_task(&task).expect("serve a lane");
        let ckpt = server.registry().load_latest(&task).expect("load the lane model");
        let mut model =
            ServableModel::from_checkpoint_with(ckpt, policy.precision).expect("a valid model");
        references.push(
            lane_inputs.iter().map(|x| model.predict_batch(&[x]).remove(0)).collect::<Vec<_>>(),
        );
        if lane == 0 {
            hot = Some(model);
        }
    }
    let mut mismatched = 0;
    for (lane, lane_inputs) in inputs.iter().enumerate() {
        for (x, want) in lane_inputs.iter().zip(&references[lane]) {
            match server.submit(&task_name(lane), x.clone()) {
                Ok(f) if same_bits(&f.values, want) => {}
                _ => mismatched += 1,
            }
        }
    }
    let hot = hot.expect("lane 0 exists");
    (Served { server, inputs, references, hot }, mismatched)
}

/// What one pass over the schedule measured.
#[derive(Clone)]
struct Pass {
    latency_ms: Vec<f64>,
    failed: u64,
    late_ms: Vec<f64>,
    /// From the schedule's start to the last reply.
    wall_s: f64,
}

impl Pass {
    /// Summed latency of the requests that completed, in seconds.
    fn busy_s(&self) -> f64 {
        self.latency_ms.iter().filter(|l| l.is_finite()).sum::<f64>() / 1e3
    }
}

/// Drives `schedule` open-loop against `served`: this thread collects,
/// one generator thread sends.
fn pass(served: &Served, schedule: &[Request], probe: Option<&Probe>) -> Pass {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Option<usize>, Option<PendingForecast>)>();
    let start = Instant::now() + LEAD;
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut late_ms = Vec::with_capacity(schedule.len());
            for (i, r) in schedule.iter().enumerate() {
                let due = start + r.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late_ms.push(stats::due_latency(due, Instant::now()).as_secs_f64() * 1e3);
                let input = served.inputs[r.lane][r.input].clone();
                let task = task_name(r.lane);
                let submit = || served.server.submit_async(&task, input).ok();
                let (root, pending) = match probe {
                    Some(p) => {
                        let at = p.tracer.at(due);
                        let root = p.tracer.push("request", None, i as u64, at, at);
                        (
                            Some(root),
                            p.tracer.time("submit_async", Some(root), i as u64, |_| submit()).0,
                        )
                    }
                    None => (None, submit()),
                };
                tx.send((i, due, root, pending)).expect("the collector outlives the generator");
            }
            late_ms
        });

        let mut out = Pass {
            latency_ms: Vec::with_capacity(schedule.len()),
            failed: 0,
            late_ms: Vec::new(),
            wall_s: 0.0,
        };
        for (i, due, root, pending) in rx {
            let r = schedule[i];
            let reply = pending.map(|p| match (probe, root) {
                (Some(pr), Some(root)) => {
                    pr.tracer.time("wait", Some(root), i as u64, |_| p.wait()).0
                }
                _ => p.wait(),
            });
            let replied = Instant::now();
            if let (Some(p), Some(root)) = (probe, root) {
                p.tracer.close(root);
            }
            let ok = matches!(&reply, Some(Ok(f)) if same_bits(&f.values, &served.references[r.lane][r.input]));
            if ok {
                out.latency_ms.push(stats::due_latency(due, replied).as_secs_f64() * 1e3);
            } else {
                // A failed request misses every latency limit.
                out.failed += 1;
                out.latency_ms.push(f64::INFINITY);
            }
            out.wall_s = replied.saturating_duration_since(start).as_secs_f64();
        }
        out.late_ms = generator.join().expect("the generator thread panicked");
        out
    })
}

/// Requests of the one-client capacity probe.
const CAPACITY_REQUESTS: usize = 1000;

/// One-client closed-loop capacity: one caller sends the schedule's
/// requests back to back with `submit`, each as soon as the previous reply
/// is in. Returns the rate it completes them at and how many replies
/// differed from their reference.
fn capacity(served: &Served, schedule: &[Request]) -> (f64, u64) {
    let mut failed = 0;
    let t = Instant::now();
    for r in schedule.iter().cycle().take(CAPACITY_REQUESTS) {
        let input = served.inputs[r.lane][r.input].clone();
        match served.server.submit(&task_name(r.lane), input) {
            Ok(f) if same_bits(&f.values, &served.references[r.lane][r.input]) => {}
            _ => failed += 1,
        }
    }
    (CAPACITY_REQUESTS as f64 / t.elapsed().as_secs_f64(), failed)
}

/// Median milliseconds of one `predict_batch` call with `b` requests.
fn predict_ms(model: &mut ServableModel, x: &Tensor, b: usize, calls: usize) -> f64 {
    let batch: Vec<&Tensor> = std::iter::repeat_n(x, b).collect();
    let times: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(model.predict_batch(&batch));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

pub fn run(ctx: &Ctx) -> Run {
    let seed = ctx.args.seed;
    let setup_rec = Recorder::new();
    let mut warm_failed = 0;
    let (mut served, setup_s) = {
        let _scope = ctx.args.trace.then(|| ObsScope::activate(&setup_rec));
        set_up(|| {
            let (served, bad) = start(&ctx.dir.join("registry"), inputs(seed));
            warm_failed += bad;
            served
        })
    };
    let schedule = schedule(ctx.args.seconds, seed);

    let p = pass(&served, &schedule, None);
    let mut run = Run {
        setup_s,
        attempted: schedule.len() as u64,
        failed: p.failed + warm_failed,
        latency_ms: p.latency_ms.clone(),
        work: (schedule.len() as u64 - p.failed) as f64,
        work_s: p.wall_s,
        ..Run::default()
    };
    // Reference forecasts must not depend on the process: hash their bits.
    for (lane, refs) in served.references.iter().enumerate() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in refs.iter().flat_map(|t| t.data()) {
            h = (h ^ v.to_bits() as u64).wrapping_mul(0x0100_0000_01b3);
        }
        run.outputs.push(format!("lane {lane} references {h:016x}"));
    }
    let lat = stats::Latency::of(&run.latency_ms);
    let late = stats::Latency::of(&p.late_ms);
    run.notes.insert("requests", schedule.len().to_string());
    run.notes.insert("gen_late_p99_ms", format!("{:?}", late.p99_ms));
    eprintln!(
        "[serve] {} requests: p50 {:.3} ms p90 {:.3} ms p99 {:.3} ms, \
         generator late p99 {:.3} ms, setup {setup_s:.3} s",
        schedule.len(),
        lat.p50_ms,
        lat.p90_ms,
        lat.p99_ms,
        late.p99_ms
    );

    if ctx.args.trace {
        let probe = Probe::new();
        let traced = {
            let _scope = ObsScope::activate(&probe.recorder);
            pass(&served, &schedule, Some(&probe))
        };
        run.failed += traced.failed;
        let (capacity, capacity_failed) = capacity(&served, &schedule);
        run.failed += capacity_failed;
        eprintln!("[serve] one-client closed-loop capacity {capacity:.1} requests/s");
        let summary = probe.recorder.summary();
        let setup = setup_rec.summary();
        let hist = |name: &str| summary.histogram(name);
        let x = served.inputs[0][0].clone();
        let l = &mut run.layers;
        l.insert(
            "serve.queue_wait_p50_ms",
            hist("serve.queue_wait_us").map_or(0.0, |h| h.p50 / 1e3),
        );
        l.insert(
            "serve.queue_wait_p99_ms",
            hist("serve.queue_wait_us").map_or(0.0, |h| h.p99 / 1e3),
        );
        l.insert("serve.batch_size_mean", hist("serve.batch_size").map_or(0.0, |h| h.mean));
        l.insert("serve.batches", summary.counter("serve.batches") as f64);
        l.insert(
            "serve.registry_load_s",
            crate::span_s(&setup, "serve.registry.load") / crate::SETUPS as f64,
        );
        l.insert("serve.shed", summary.counter("serve.shed") as f64);
        l.insert("serve.deadline_expired", summary.counter("serve.deadline_expired") as f64);
        l.insert("serve.forward_failed", summary.counter("serve.forward_failed") as f64);
        l.insert("model.predict_b1_ms", predict_ms(&mut served.hot, &x, 1, 200));
        l.insert(
            "model.predict_bmax_ms",
            predict_ms(&mut served.hot, &x, BatchPolicy::default().max_batch, 40),
        );
        l.insert("bench.gen_late_p99_ms", late.p99_ms);
        l.insert("serve.capacity_rps", capacity);
        l.insert("bench.trace_overhead", traced.busy_s() / p.busy_s());
        probe.write(&ctx.dir.with_file_name("traces"), &format!("serve_steady-seed{seed}"));
    }
    run
}
