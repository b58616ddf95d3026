//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile-heavy|sim-dense|sim-sparse|service-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets up the workload several times (reporting
//! the median set-up time), then repeats untraced passes for `--seconds` and
//! prints every end-to-end metric. With `--trace 1` it sets up once, runs
//! untraced passes for a third of the time and traced passes for the rest,
//! and prints every per-layer metric. Every output is checked; the last
//! stdout line is one JSON object, and any wrong output makes the exit code
//! 1. `LAYERS.md` maps each metric to the call it times.

mod jobs;
mod layers;
mod service;
mod sparse;
mod stats;
mod trace;

use jobs::Job;
use raw_benchmarks as rb;
use raw_testkit::Rng;
use service::{Class, ServicePass, Traffic};
use sparse::SparseProgram;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest measured passes of a compiled workload. With more than ten passes
/// the ten slowest job samples all come from the slowest job, so the tail
/// percentile of job latency does not jump between jobs as the pass count
/// varies with host speed.
const MIN_PASSES: usize = 12;
/// Fewest passes of each kind in a traced run.
const MIN_TRACED_PASSES: usize = 2;
/// Pass number of set-up spans and counts.
const SETUP_PASS: u32 = 1 << 30;
/// Pass number of the service probe in a traced run of a non-service
/// workload.
const PROBE_PASS: u32 = SETUP_PASS + 1;
/// `service-mix`: data variants per kernel×tiles pair, each unseen by the
/// pass's fresh daemon. A pass then holds 12 cold, 24 block-warm and 14
/// memo requests: its median request is a block-warm one (shard-cache
/// reads, link and encoding), and its 99th percentile falls mid-way through
/// the slowest pair's cold compiles rather than on the gap between two
/// pairs, which 100 requests per pass would do.
const WARM_PER_TARGET: usize = 2;
/// `service-mix`: byte-identical repeats per pass.
const MEMO_REQUESTS: usize = 14;
/// Stream of the per-pass request plans, apart from the set-up's draws.
const PLAN_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    CompileHeavy,
    SimDense,
    SimSparse,
    ServiceMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "compile-heavy" => Workload::CompileHeavy,
            "sim-dense" => Workload::SimDense,
            "sim-sparse" => Workload::SimSparse,
            "service-mix" => Workload::ServiceMix,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::CompileHeavy => "compile-heavy",
            Workload::SimDense => "sim-dense",
            Workload::SimSparse => "sim-sparse",
            Workload::ServiceMix => "service-mix",
        }
    }

    /// Compiled jobs: (kernel, tiles).
    fn jobs(self) -> Vec<(rb::Benchmark, u32)> {
        match self {
            Workload::CompileHeavy => vec![
                (rb::cholesky(3, 15), 16),
                (rb::mxm(32, 64, 8), 32),
                (rb::fpppp_kernel(rb::FppppShape::default()), 16),
            ],
            Workload::SimDense => vec![
                (rb::life(32, 4), 32),
                (rb::tomcatv(32, 2), 16),
                (rb::mxm(32, 64, 8), 16),
                (rb::jacobi(32, 2), 16),
            ],
            Workload::SimSparse => vec![
                (rb::pointer_chase(1024, 2048), 64),
                (rb::scatter(1024, 16), 64),
                (rb::gather(1024), 64),
            ],
            Workload::ServiceMix => {
                let kernels = [
                    rb::life(32, 4),
                    rb::vpenta(32),
                    rb::tomcatv(32, 2),
                    rb::fpppp_kernel(rb::FppppShape::default()),
                    rb::mxm(32, 64, 8),
                    rb::jacobi(32, 2),
                ];
                [4, 16]
                    .into_iter()
                    .flat_map(|t| kernels.iter().map(move |k| (k.clone(), t)))
                    .collect()
            }
        }
    }
}

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The set-up state of a workload.
struct Bench {
    /// Compiled jobs in seeded order (for `service-mix`, the kernel×tiles
    /// pairs, run once in set-up to verify them).
    jobs: Vec<Job>,
    /// Generated machine programs (`sim-sparse`).
    sparse: Vec<SparseProgram>,
    /// Service traffic (`service-mix`).
    traffic: Option<Traffic>,
}

/// Totals of one pass over a workload's compiled jobs and generated
/// programs.
#[derive(Default)]
struct Pass {
    e2e_ns: u64,
    compile_ns: u64,
    sim_ns: u64,
    latencies_ns: Vec<u64>,
    attempted: u64,
    failures: Vec<String>,
    /// Untraced passes: code facts per compiled job, cycles per generated
    /// program.
    facts: Vec<jobs::Expect>,
    sparse_cycles: Vec<u64>,
}

fn run_pass(bench: &Bench, tr: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    for (i, job) in bench.jobs.iter().enumerate() {
        pass.attempted += 1;
        let outcome = if tr.enabled() {
            job.run_traced(tr, i as u32).map(|()| None)
        } else {
            job.run(tr, i as u32).map(Some)
        };
        match outcome {
            Ok(Some(r)) => {
                pass.compile_ns += r.compile_ns;
                pass.sim_ns += r.sim_ns;
                pass.latencies_ns.push(r.total_ns);
                pass.facts.push(r.facts);
            }
            Ok(None) => {}
            Err(e) => pass.failures.push(e),
        }
    }
    for (k, program) in bench.sparse.iter().enumerate() {
        pass.attempted += 1;
        match program.run(tr, (bench.jobs.len() + k) as u32) {
            Ok(r) => {
                pass.sim_ns += r.sim_ns;
                pass.latencies_ns.push(r.total_ns);
                pass.sparse_cycles.push(r.cycles);
            }
            Err(e) => pass.failures.push(e),
        }
    }
    pass.e2e_ns = start.elapsed().as_nanos() as u64;
    pass
}

/// Builds a workload: inputs from the seed, baselines, reference programs
/// and hashes, and the discarded warm-up pass that fixes every job's exact
/// code facts. With an enabled tracer the warm-up pass is traced.
fn setup(workload: Workload, seed: u64, tr: &mut Tracer) -> Result<Bench, String> {
    tr.begin_pass(SETUP_PASS);
    let mut rng = Rng::new(seed);
    let mut baselines = std::collections::BTreeMap::new();
    let mut jobs = workload
        .jobs()
        .into_iter()
        .map(|(bench, tiles)| Job::new(bench, tiles, &mut baselines))
        .collect::<Result<Vec<_>, _>>()?;
    if workload != Workload::ServiceMix {
        rng.shuffle(&mut jobs);
    }
    for job in &jobs {
        job.check_frontend()?;
    }
    let sparse = if workload == Workload::SimSparse {
        sparse::generate(seed)
    } else {
        Vec::new()
    };
    let mut bench = Bench {
        jobs,
        sparse,
        traffic: None,
    };

    // Warm-up: fixes cycles, code size and program hash per job.
    let warm = run_pass(&bench, &mut Tracer::new(false, Instant::now()));
    if let Some(e) = warm.failures.first() {
        return Err(format!("warm-up pass: {e}"));
    }
    for (job, facts) in bench.jobs.iter_mut().zip(warm.facts) {
        job.expect = Some(facts);
    }
    for (program, cycles) in bench.sparse.iter_mut().zip(warm.sparse_cycles) {
        program.expect_cycles = Some(cycles);
    }
    if tr.enabled() {
        // The traced run's set-up pass: for service-mix the only pass that
        // reaches the frontend, compiler, simulator and interpreter.
        let traced = run_pass(&bench, tr);
        if let Some(e) = traced.failures.first() {
            return Err(format!("traced set-up pass: {e}"));
        }
    }

    if workload == Workload::ServiceMix {
        let traffic = Traffic::build(&bench.jobs, &mut rng, WARM_PER_TARGET, MEMO_REQUESTS)?;
        let warm = service::run_pass(
            &traffic,
            &traffic.plan(&mut rng),
            &mut Tracer::new(false, Instant::now()),
        )?;
        if let Some(e) = warm.failures.first() {
            return Err(format!("service warm-up pass: {e}"));
        }
        bench.traffic = Some(traffic);
    }
    Ok(bench)
}

/// Peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets VmHWM to the current resident set, so the peak covers only what
/// follows. Returns whether the kernel accepted the reset.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `nproc`, the compiler's version, the commit if the checkout is a git
/// repository, and a hash of the compiler and simulator sources.
fn fingerprint() -> Vec<(&'static str, String)> {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    // Only ask git inside a checkout of its own: it would otherwise report
    // whatever repository encloses the directory.
    let commit = if root.join(".git").exists() {
        run("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
    } else {
        "none".into()
    };
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", run("rustc", &["--version"])),
        ("commit", commit),
        ("source_hash", format!("{:016x}", source_hash())),
    ]
}

/// Hash over the paths and contents of every file under `crates/`.
fn source_hash() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = raw_testkit::hash64(b"");
    for f in files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        h = raw_testkit::hash64_with(h, rel.as_bytes());
        h = raw_testkit::hash64_with(h, &std::fs::read(&f).unwrap_or_default());
    }
    h
}

/// Metrics of a run, in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            stats::valid_name(name) && stats::valid_unit(unit),
            "metric {name} or unit {unit} breaks the name grammar"
        );
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median_u64(values: impl IntoIterator<Item = u64>) -> f64 {
    stats::median(&values.into_iter().map(|v| v as f64).collect::<Vec<_>>())
}

/// Total simulated cycles of one pass, as fixed by the warm-up pass; every
/// measured pass is checked against the per-job values.
fn expected_cycles(bench: &Bench) -> f64 {
    let jobs: u64 = bench
        .jobs
        .iter()
        .filter_map(|j| j.expect)
        .map(|e| e.cycles)
        .sum();
    let sparse: u64 = bench.sparse.iter().filter_map(|p| p.expect_cycles).sum();
    (jobs + sparse) as f64
}

/// Geometric mean over compiled jobs of baseline cycles ÷ RAWCC cycles.
fn speedup_geomean(jobs: &[Job]) -> f64 {
    let ratios: Vec<f64> = jobs
        .iter()
        .filter_map(|j| j.expect.map(|e| j.baseline_cycles as f64 / e.cycles as f64))
        .collect();
    stats::geomean(&ratios)
}

/// Everything a run reports besides the stdout line.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failures: Vec<String>,
    notes: Vec<(String, String)>,
}

fn run(args: &Args, out_dir: &std::path::Path) -> Result<Outcome, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    if args.trace {
        layers::traced_run(args, out_dir)
    } else {
        untraced_run(args)
    }
}

/// Sets up `SETUP_REPS` times, then measures untraced passes for the run
/// time and reports every end-to-end metric.
fn untraced_run(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut bench = None;
    let mut first_facts = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let start = Instant::now();
        let b = setup(args.workload, args.seed, &mut Tracer::new(false, start))?;
        setup_s.push(start.elapsed().as_secs_f64());
        let facts: Vec<_> = b.jobs.iter().map(|j| j.expect).collect();
        if *first_facts.get_or_insert_with(|| facts.clone()) != facts {
            return Err("set-up repetitions disagree on compiled code or cycles".into());
        }
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    let rss_reset = reset_peak_rss();

    let mut m = Metrics::default();
    let mut notes = vec![("rss_reset_after_setup".to_string(), rss_reset.to_string())];
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);

    if let Some(traffic) = &bench.traffic {
        let mut passes: Vec<ServicePass> = Vec::new();
        let mut plans = Rng::new(args.seed ^ PLAN_STREAM);
        let mut per_pass = 0;
        // After each service pass, one of the served programs runs from
        // source to verified result (round robin), so `sim_ms` is measured
        // alongside the traffic: per program the median of its runs.
        let mut sim_ns: Vec<Vec<u64>> = vec![Vec::new(); bench.jobs.len()];
        while passes.len() < MIN_PASSES || Instant::now() < deadline {
            let requests = traffic.plan(&mut plans);
            per_pass = requests.len();
            let pass =
                service::run_pass(traffic, &requests, &mut Tracer::new(false, Instant::now()))?;
            attempted += requests.len() as u64;
            failures.extend(pass.failures.iter().cloned());
            let k = passes.len() % bench.jobs.len();
            attempted += 1;
            match bench.jobs[k].run(&mut Tracer::new(false, Instant::now()), k as u32) {
                Ok(run) => sim_ns[k].push(run.sim_ns),
                Err(e) => failures.push(e),
            }
            passes.push(pass);
        }
        let latencies: Vec<Vec<f64>> = passes
            .iter()
            .map(|p| p.samples.iter().map(|s| ms(s.latency_ns)).collect())
            .collect();
        let e2e: Vec<u64> = passes.iter().map(|p| p.e2e_ns).collect();
        push_common(&mut m, &mut notes, &setup_s, &e2e, &latencies, per_pass);
        m.put(
            "compile_ms",
            median_u64(
                passes
                    .iter()
                    .map(|p| p.samples.iter().map(|s| s.server_wall_us).sum()),
            ) / 1e3,
            "ms",
        );
        m.put(
            "sim_ms",
            sim_ns
                .iter()
                .filter(|runs| !runs.is_empty())
                .map(|runs| median_u64(runs.iter().copied()))
                .sum::<f64>()
                / 1e6,
            "ms",
        );
        m.put("cycles", expected_cycles(&bench), "cycles");
        m.put("speedup_geomean", speedup_geomean(&bench.jobs), "ratio");
        let last = passes.last().expect("at least one pass");
        notes.push(("requests_per_pass".into(), per_pass.to_string()));
        for class in [Class::Cold, Class::BlockWarm, Class::Memo] {
            let n = last.samples.iter().filter(|s| s.class == class).count();
            notes.push((format!("class_{}", class.name()), n.to_string()));
        }
        notes.push((
            "shardcache_resident_bytes".into(),
            last.stats.cache.resident_bytes.to_string(),
        ));
        notes.push((
            "shardcache_evictions".into(),
            last.stats.cache.evictions.to_string(),
        ));
    } else {
        let mut passes: Vec<Pass> = Vec::new();
        while passes.len() < MIN_PASSES || Instant::now() < deadline {
            let pass = run_pass(&bench, &mut Tracer::new(false, Instant::now()));
            attempted += pass.attempted;
            failures.extend(pass.failures.iter().cloned());
            passes.push(pass);
        }
        let latencies: Vec<Vec<f64>> = passes
            .iter()
            .map(|p| p.latencies_ns.iter().map(|&n| ms(n)).collect())
            .collect();
        let e2e: Vec<u64> = passes.iter().map(|p| p.e2e_ns).collect();
        let per_pass = bench.jobs.len() + bench.sparse.len();
        push_common(&mut m, &mut notes, &setup_s, &e2e, &latencies, per_pass);
        m.put(
            "compile_ms",
            median_u64(passes.iter().map(|p| p.compile_ns)) / 1e6,
            "ms",
        );
        m.put(
            "sim_ms",
            median_u64(passes.iter().map(|p| p.sim_ns)) / 1e6,
            "ms",
        );
        m.put("cycles", expected_cycles(&bench), "cycles");
        m.put("speedup_geomean", speedup_geomean(&bench.jobs), "ratio");
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failures,
        notes,
    })
}

/// The metrics every workload computes the same way from its passes: the
/// median pass time, request (job) latency and rate, peak memory and set-up
/// time. `latencies_ms` holds each pass's request latencies.
///
/// The median latency is the median over passes of each pass's median: a
/// pass holds a few jobs of very different length, and the pooled median of
/// an even number of them would sit on the gap between two jobs. The tail
/// percentile pools every sample. The rate is requests per pass over the
/// median pass time, so one slow pass does not move it.
fn push_common(
    m: &mut Metrics,
    notes: &mut Vec<(String, String)>,
    setup_s: &[f64],
    e2e_ns: &[u64],
    latencies_ms: &[Vec<f64>],
    per_pass: usize,
) {
    let e2e_ms = median_u64(e2e_ns.iter().copied()) / 1e6;
    m.put("e2e_ms", e2e_ms, "ms");
    let pass_medians: Vec<f64> = latencies_ms
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| stats::median(l))
        .collect();
    m.put("req_ms_p50", stats::median(&pass_medians), "ms");
    let latencies_ms: Vec<f64> = latencies_ms.concat();
    let (pct, p99) =
        stats::tail_percentile(&latencies_ms).unwrap_or((100, stats::median(&latencies_ms)));
    m.put("req_ms_p99", p99, "ms");
    m.put("req_per_s", per_pass as f64 / (e2e_ms / 1e3), "req/s");
    m.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB");
    m.put("setup_s", stats::median(setup_s), "s");
    notes.push(("passes".into(), e2e_ns.len().to_string()));
    notes.push(("req_samples".into(), latencies_ms.len().to_string()));
    notes.push(("req_ms_p99_percentile".into(), pct.to_string()));
    notes.push((
        "setup_s_each".into(),
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(","),
    ));
    let e2e: Vec<f64> = e2e_ns.iter().map(|&n| ms(n)).collect();
    let (q1, q3) = stats::quartiles(&e2e);
    notes.push((
        "e2e_ms_each".into(),
        e2e.iter()
            .map(|v| format!("{v:.1}"))
            .collect::<Vec<_>>()
            .join(","),
    ));
    notes.push((
        "e2e_ms_iqr_over_median".into(),
        format!("{:.4}", (q3 - q1) / e2e_ms),
    ));
}

/// Writes the run's record (fingerprint, arguments, metrics, notes) next to
/// the benchmark, outside the repository's `BENCH_*.json` pattern.
fn write_record(
    args: &Args,
    outcome: &Outcome,
    out_dir: &std::path::Path,
) -> std::io::Result<PathBuf> {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": {},", quote(args.workload.name()));
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(s, "  \"trace\": {},", u8::from(args.trace));
    let host: Vec<String> = fingerprint()
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    let _ = writeln!(s, "  \"host\": {{{}}},", host.join(", "));
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    let _ = writeln!(s, "  \"notes\": {{{}}},", notes.join(", "));
    let fails: Vec<String> = outcome.failures.iter().map(|f| quote(f)).collect();
    let _ = writeln!(s, "  \"failures\": [{}],", fails.join(", "));
    let _ = writeln!(s, "  \"metrics\": {}", outcome.metrics.json());
    s.push_str("}\n");
    let path = out_dir.join(format!(
        "result-{}-trace{}.json",
        args.workload.name(),
        u8::from(args.trace)
    ));
    std::fs::write(&path, s)?;
    Ok(path)
}

fn main() {
    // Pin what is measured: these would let the environment warm the block
    // cache, change thread counts or add verification to any compile that
    // reads them.
    for var in ["RAWCC_THREADS", "RAWCC_CACHE_DIR", "RAWCC_CACHE_VERIFY"] {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let outcome = match run(&args, &out_dir) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    match write_record(&args, &outcome, &out_dir) {
        Ok(path) => eprintln!("perfbench: record written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write the record: {e}"),
    }
    for (k, v) in &outcome.notes {
        eprintln!("perfbench: {k} = {v}");
    }
    for f in &outcome.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let failed = outcome.failures.len() as u64;
    let attempted = outcome.attempted.max(1);
    eprintln!(
        "perfbench: fail_frac = {}",
        failed as f64 / attempted as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        outcome.metrics.json()
    );
    std::process::exit(i32::from(failed > 0));
}
