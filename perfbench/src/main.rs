//! The repository benchmark: one command, three workloads.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload search --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Each invocation runs one workload in its own process: it generates the
//! workload's inputs from `--seed`, sets the program up several times (the
//! median is `setup_s`), measures, checks every output, and prints as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
//! the same work untraced and then traced, and prints the per-layer metrics
//! read from the harness spans and the program's `octs-obs` recorder. The
//! line before it names the host. The exit code is non-zero when an output
//! check fails. See `perfbench/README.md` for what each workload and metric
//! is for.

mod pretrain;
mod search;
mod serve;
mod stats;
mod trace;

use octs_obs::{Recorder, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["search", "pretrain", "serve_steady"];

/// End-to-end metrics `(name, unit)`, printed by every workload with
/// `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] =
    [("work_per_s", "1/s"), ("p50_ms", "ms"), ("peak_rss_mib", "MiB"), ("setup_s", "s")];

/// Per-layer metrics `(name, unit)`, printed by every workload with
/// `--trace 1`. A layer a workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("search.screen_s", "s"),
    ("search.proxy_label_s", "s"),
    ("search.full_label_s", "s"),
    ("search.rank_s", "s"),
    ("search.label_epochs", "count"),
    ("search.coverage", "ratio"),
    ("search.self_s", "s"),
    ("search.winner_mae", "scaled"),
    ("comparator.train_s", "s"),
    ("comparator.encoder_s", "s"),
    ("comparator.label_s", "s"),
    ("comparator.tahc_epoch_s", "s"),
    ("comparator.label_unit_ms", "ms"),
    ("comparator.holdout_acc", "ratio"),
    ("model.final_train_s", "s"),
    ("model.train_epochs", "count"),
    ("model.epoch_ms", "ms"),
    ("model.predict_b1_ms", "ms"),
    ("model.predict_bmax_ms", "ms"),
    ("tensor.matmul_gin_gflops", "GFLOP/s"),
    ("tensor.pool_hit_ratio", "ratio"),
    ("data.bank_write_s", "s"),
    ("data.stream_tasks_per_s", "1/s"),
    ("core.journal_append_p50_ms", "ms"),
    ("core.journal_append_p99_ms", "ms"),
    ("core.run_dir_mib", "MiB"),
    ("core.pretrain_self_s", "s"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.batches", "count"),
    ("serve.registry_load_s", "s"),
    ("serve.capacity_rps", "1/s"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.forward_failed", "count"),
    ("bench.p90_ms", "ms"),
    ("bench.p99_ms", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// How many times every workload sets itself up; `setup_s` is the median.
pub const SETUPS: usize = 9;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Nominal measurement length; fixes how much work a run does.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = match flag.as_str() {
                "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
                other => return Err(format!("unknown argument {other:?}")),
            };
            let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            flags.insert(name, value.as_str());
        }
        let get = |name: &str| flags.get(name).copied().ok_or_else(|| format!("missing {name}"));
        let num = |name: &str| get(name)?.parse::<u64>().map_err(|e| format!("{name}: {e}"));
        let workload = get("--workload")?.to_string();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
        }
        let seconds = num("--seconds")?;
        if !(1..=60).contains(&seconds) {
            return Err(format!("--seconds {seconds} outside 1..=60"));
        }
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other:?}: expected 0 or 1")),
        };
        Ok(Self { workload, seed: num("--seed")?, seconds, trace })
    }
}

/// What a workload hands every run: its arguments and a private directory
/// inside the benchmark's own tree.
pub struct Ctx {
    /// The command line.
    pub args: Args,
    /// Scratch directory of this process, removed when the run ends.
    pub dir: PathBuf,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations whose output check failed (a failed request counts as a
    /// latency miss, too).
    pub failed: u64,
    /// Per-operation latency, measured from each operation's due time.
    pub latency_ms: Vec<f64>,
    /// Work the measured pass completed (searches, bank tasks, forecasts).
    pub work: f64,
    /// Wall seconds the measured pass took to complete `work`;
    /// `work_per_s` is `work / work_s`.
    pub work_s: f64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// One line per operation of deterministic output (winner fingerprints,
    /// report bits, reference hashes); equal seeds must give equal lines.
    pub outputs: Vec<String>,
    /// Names the record `outputs` are checked against: runs with equal keys
    /// must produce equal outputs. Empty means workload, length and seed.
    pub record_key: String,
    /// Free-form facts about the run, printed with the host line.
    pub notes: BTreeMap<&'static str, String>,
}

/// An `octs-obs` recorder together with the harness tracer of a traced pass.
pub struct Probe {
    /// The program's own spans, counters and histograms.
    pub recorder: Recorder,
    /// The harness spans.
    pub tracer: Tracer,
}

impl Probe {
    /// A fresh recorder and tracer sharing one clock.
    pub fn new() -> Self {
        let recorder = Recorder::new();
        // The recorder's clock starts inside `Recorder::new` and the
        // tracer's here, so a recorder time reads as a tracer time to well
        // under a microsecond.
        let tracer = Tracer::new(Instant::now());
        Self { recorder, tracer }
    }

    /// Copies the recorder's spans named `phase.*` into the tracer, each
    /// under the harness span named `parent_name` that contains its
    /// midpoint.
    pub fn graft_phases(&self, parent_name: &str) {
        let parents: Vec<trace::Span> =
            self.tracer.spans().into_iter().filter(|s| s.name == parent_name).collect();
        let lines = octs_obs::parse_ndjson(&self.recorder.ndjson())
            .expect("the recorder writes parseable NDJSON");
        for l in lines.iter().filter(|l| l.kind == "span" && l.name.starts_with("phase.")) {
            let start = l.t_us as f64;
            let end = start + l.dur_us as f64;
            let mid = (start + end) / 2.0;
            if let Some(p) = parents.iter().find(|p| p.start_us <= mid && mid <= p.end_us) {
                self.tracer.push(&l.name, Some(p.id), p.request, start, end);
            }
        }
    }

    /// Self time of every harness span named `name`, summed, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let spans = self.tracer.spans();
        spans.iter().filter(|s| s.name == name).map(|s| trace::self_time(&spans, s.id)).sum::<f64>()
            / 1e6
    }

    /// Wall time of every harness span named `name`, summed, in seconds.
    pub fn wall_s(&self, name: &str) -> f64 {
        self.tracer.spans().iter().filter(|s| s.name == name).map(|s| s.dur_us()).sum::<f64>() / 1e6
    }

    /// Writes the harness spans and the recorder trace under `dir`.
    pub fn write(&self, dir: &Path, stem: &str) {
        std::fs::create_dir_all(dir).expect("create the trace directory");
        std::fs::write(dir.join(format!("{stem}.spans.ndjson")), self.tracer.ndjson())
            .expect("write the harness spans");
        std::fs::write(dir.join(format!("{stem}.obs.ndjson")), self.recorder.ndjson())
            .expect("write the recorder trace");
    }
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

/// Total microseconds of recorder spans named `name`, in seconds.
pub fn span_s(summary: &Summary, name: &str) -> f64 {
    summary.span_total_us(name) as f64 / 1e6
}

/// Mean duration of recorder spans named `name`, in seconds (0 if none).
pub fn span_mean_s(summary: &Summary, name: &str) -> f64 {
    summary
        .spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.total_us as f64 / 1e6 / s.count.max(1) as f64)
}

/// Tensor buffer-pool hit ratio over every take the recorder counted.
pub fn pool_hit_ratio(summary: &Summary) -> f64 {
    let hits = summary.counter("tensor.pool.hits") as f64;
    let misses = summary.counter("tensor.pool.misses") as f64;
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

/// Times `f` `SETUPS` times and returns the median seconds with the last
/// result. Each earlier result is dropped before the next set-up starts,
/// outside the timing.
pub fn set_up<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    eprintln!("[setup] {SETUPS} set-ups: {times:.4?} s");
    (last.expect("at least one set-up"), stats::median(&times))
}

/// GFLOP/s of the public matmul kernel at 128×128×128 on this run's thread
/// count: median of 7 blocks of 40 products.
fn matmul_gflops() -> f64 {
    use octs_tensor::ops::matmul::matmul_kernel;
    const D: usize = 128;
    let a: Vec<f32> = (0..D * D).map(|i| ((i * 7919) % 1000) as f32 / 1000.0 - 0.5).collect();
    let b: Vec<f32> = (0..D * D).map(|i| ((i * 104_729) % 1000) as f32 / 1000.0 - 0.5).collect();
    let mut out = vec![0.0f32; D * D];
    let mut blocks = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..40 {
            out.iter_mut().for_each(|o| *o = 0.0);
            matmul_kernel(std::hint::black_box(&a), &b, &mut out, D, D, D);
            std::hint::black_box(&out);
        }
        let secs = t.elapsed().as_secs_f64();
        blocks.push(40.0 * 2.0 * (D * D * D) as f64 / secs / 1e9);
    }
    stats::median(&blocks)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The SIMD tier the matmul microkernel dispatches to on this CPU, by the
/// same feature tests `octs-tensor` makes.
fn isa_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2";
        }
    }
    "portable"
}

/// FNV-1a over every `.rs` and `.toml` file under `crates/`, in path
/// order: names the program under test when there is no git commit.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for byte in f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Output of a short command, or `unknown`.
fn command_line(program: &str, args: &[&str], cwd: &Path) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("a string serializes")
}

/// A metric value as JSON: finite numbers as measured, with all digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

/// The `metrics` object for `run`: end-to-end or per-layer.
fn metrics_json(run: &Run, trace: bool) -> String {
    let latency = if run.latency_ms.is_empty() {
        stats::Latency { p50_ms: 0.0, p90_ms: 0.0, p99_ms: 0.0 }
    } else {
        stats::Latency::of(&run.latency_ms)
    };
    let work_per_s = if run.work_s > 0.0 { run.work / run.work_s } else { 0.0 };
    let value = |name: &str| -> f64 {
        match name {
            "work_per_s" => work_per_s,
            "p50_ms" => latency.p50_ms,
            "peak_rss_mib" => peak_rss_mib(),
            "setup_s" => run.setup_s,
            layer => run.layers.get(layer).copied().unwrap_or(0.0),
        }
    };
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value(name)),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Compares `run.outputs` with what an earlier run of the same workload,
/// seed and length recorded; records them if this is the first. Every
/// line that differs counts as a failed operation.
fn check_against_record(run: &mut Run, record: &Path) {
    let now = run.outputs.join("\n");
    match std::fs::read_to_string(record) {
        Ok(before) => {
            let before: Vec<&str> = before.lines().collect();
            let differ = if before.len() == run.outputs.len() {
                before.iter().zip(&run.outputs).filter(|(a, b)| **a != b.as_str()).count()
            } else {
                run.outputs.len().max(1)
            };
            if differ > 0 {
                eprintln!(
                    "[perfbench] {differ} output(s) differ from {}:\n  before: {before:?}\n  now:    {:?}",
                    record.display(),
                    run.outputs
                );
            }
            run.failed += differ as u64;
        }
        Err(_) if run.failed == 0 => {
            std::fs::create_dir_all(record.parent().expect("record has a parent"))
                .expect("create the record directory");
            std::fs::write(record, now).expect("write the output record");
        }
        Err(_) => {}
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // One rayon thread per core, set before any parallel call reads it:
    // more threads than cores makes the figures move with the scheduler.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir.parent().expect("the benchmark sits in the repository").to_path_buf();
    let out_dir = bench_dir.join("out");
    let ctx = Ctx {
        dir: out_dir.join(format!("tmp-{}-{}", args.workload, std::process::id())),
        args: args.clone(),
    };
    std::fs::create_dir_all(&ctx.dir).expect("create the scratch directory");

    let started = Instant::now();
    let mut run = match args.workload.as_str() {
        "search" => search::run(&ctx),
        "pretrain" => pretrain::run(&ctx),
        "serve_steady" => serve::run(&ctx),
        other => unreachable!("workload {other} passed validation"),
    };
    std::fs::remove_dir_all(&ctx.dir).ok();
    // A tail percentile is only meaningful with ten samples beyond it.
    for (name, q) in [("p90_supported", 0.9), ("p99_supported", 0.99)] {
        let supported = stats::tail_is_supported(run.latency_ms.len(), q);
        run.notes.insert(name, supported.to_string());
    }
    if args.trace {
        let latency = stats::Latency::of(&run.latency_ms);
        run.layers.insert("bench.p90_ms", latency.p90_ms);
        run.layers.insert("bench.p99_ms", latency.p99_ms);
        run.layers.insert("tensor.matmul_gin_gflops", matmul_gflops());
    }
    if run.record_key.is_empty() {
        run.record_key = format!("{}-s{}-seed{}", args.workload, args.seconds, args.seed);
    }
    let record = out_dir.join("expect").join(format!("{}.txt", run.record_key));
    check_against_record(&mut run, &record);

    let host = format!(
        "{{\"host\": {{\"cores\": {threads}, \"rayon_num_threads\": {threads}, \"isa\": {}, \
         \"rustc\": {}, \"commit\": {}, \"source_hash\": {}}}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"latency_samples\": {}, \"wall_s\": {:?}, \"notes\": {{{}}}}}",
        json_str(isa_tier()),
        json_str(&command_line("rustc", &["--version"], &root)),
        json_str(&if root.join(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"], &root)
        } else {
            "unknown".to_string()
        }),
        json_str(&source_hash(&root)),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        run.latency_ms.len(),
        started.elapsed().as_secs_f64(),
        run.notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    println!("{host}");
    let correct = run.failed == 0 && run.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted.max(1),
        run.failed,
        metrics_json(&run, args.trace)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("{key}: not an object"),
        }
    }

    fn names(v: &Value, key: &str, with: &str) -> Vec<(String, String)> {
        match field(v, key) {
            Value::Arr(items) => items
                .iter()
                .map(|m| {
                    let s = |k| field(m, k).as_str().expect("a string").to_string();
                    (s("name"), s(with))
                })
                .collect(),
            _ => panic!("{key}: not an array"),
        }
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = serde::parse_value(text).expect("BENCHMARK.json parses");
        let workloads: Vec<String> =
            names(&spec, "workloads", "why").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names(&spec, "end_to_end", "unit"), own(&END_TO_END));
        assert_eq!(names(&spec, "per_layer", "unit"), own(&PER_LAYER));
    }

    #[test]
    fn the_result_line_carries_every_metric_once() {
        let run =
            Run { latency_ms: vec![1.0, 2.0, 3.0], work: 2.0, work_s: 0.005, ..Run::default() };
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let json = serde::parse_value(&metrics_json(&run, trace)).expect("metrics parse");
            let Value::Obj(fields) = &json else { panic!("metrics is not an object") };
            let printed: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            assert_eq!(printed, expected);
        }
    }

    #[test]
    fn work_per_s_is_total_work_over_total_time() {
        let value = |run: &Run| {
            let json = serde::parse_value(&metrics_json(run, false)).expect("metrics parse");
            match field(field(&json, "work_per_s"), "value") {
                Value::Num(text) => text.parse::<f64>().expect("a number"),
                other => panic!("work_per_s is {other:?}"),
            }
        };
        // Three searches taking 2, 3 and 7 s: 3 / 12 s, not one over the
        // median search.
        let latency_ms = vec![2000.0, 3000.0, 7000.0];
        let run = Run { latency_ms, work: 3.0, work_s: 12.0, ..Run::default() };
        assert_eq!(value(&run), 0.25);
        assert_eq!(value(&Run::default()), 0.0);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = Args::parse(&argv("--workload serve_steady --seed 7 --seconds 10 --trace 1"));
        assert_eq!(
            ok,
            Ok(Args { workload: "serve_steady".into(), seed: 7, seconds: 10, trace: true })
        );
        assert!(Args::parse(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload search --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload search --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(Args::parse(&argv("--workload search --seed 7 --seconds 10")).is_err());
        assert!(Args::parse(&argv("--workload search --seed x --seconds 10 --trace 0")).is_err());
    }
}
