//! The traced run: per-layer metrics from spans recorded around the public
//! calls the benchmark makes, plus the tracing overhead and the self-time
//! shares the layer predictions are checked against.

use crate::service::{self, Class, Request, ServicePass, Traffic};
use crate::trace::Tracer;
use crate::{
    run_pass, setup, stats, Args, Metrics, Outcome, Workload, MIN_TRACED_PASSES, PLAN_STREAM,
    PROBE_PASS, SETUP_PASS,
};
use raw_testkit::Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Median of a per-pass series, or 0 when the layer did no work.
fn med(series: Option<&BTreeMap<u32, f64>>) -> f64 {
    match series {
        Some(s) if !s.is_empty() => stats::median(&s.values().copied().collect::<Vec<_>>()),
        _ => 0.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A traced service pass with the request plan it ran.
type ServiceRun = (ServicePass, Vec<Request>);

/// Self-time groups compared by the layer predictions.
const SHARE_GROUPS: &[(&str, &[&str])] = &[
    ("lang", &["lang.parse", "lang.unroll", "lang.lower"]),
    ("rawcc.layout", &["rawcc.layout"]),
    ("rawcc.taskgraph", &["rawcc.taskgraph"]),
    ("rawcc.partition", &["rawcc.partition"]),
    (
        "rawcc.schedule+codegen",
        &["rawcc.schedule", "rawcc.codegen"],
    ),
    ("rawcc.regalloc", &["rawcc.regalloc"]),
    ("rawcc.link", &["rawcc.link"]),
    ("machine.instantiate", &["machine.instantiate"]),
    ("machine.run", &["machine.run"]),
    ("machine.extract", &["machine.extract"]),
    ("interp", &["interp.run"]),
];

/// Sets up once (traced), runs untraced passes for a third of the time and
/// traced passes for the rest, probes the compile service with the
/// workload's own programs, and reports every per-layer metric.
pub fn traced_run(args: &Args, out_dir: &Path) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(true, epoch);
    let bench = setup(args.workload, args.seed, &mut tr)?;
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let start = Instant::now();

    // One pass of either kind; returns its end-to-end time and, for service
    // passes, the pass itself.
    let mut plans = Rng::new(args.seed ^ PLAN_STREAM);
    let mut one_pass = |tr: &mut Tracer,
                        failures: &mut Vec<String>,
                        attempted: &mut u64|
     -> Result<(u64, Option<ServiceRun>), String> {
        if let Some(traffic) = &bench.traffic {
            let requests = traffic.plan(&mut plans);
            let pass = service::run_pass(traffic, &requests, tr)?;
            *attempted += requests.len() as u64;
            failures.extend(pass.failures.iter().cloned());
            Ok((pass.e2e_ns, Some((pass, requests))))
        } else {
            let pass = run_pass(&bench, tr);
            *attempted += pass.attempted;
            failures.extend(pass.failures.iter().cloned());
            Ok((pass.e2e_ns, None))
        }
    };

    let mut untraced_ms = Vec::new();
    let mut off = Tracer::new(false, epoch);
    while untraced_ms.len() < MIN_TRACED_PASSES
        || start.elapsed().as_secs_f64() < args.seconds / 3.0
    {
        let (e2e_ns, _) = one_pass(&mut off, &mut failures, &mut attempted)?;
        untraced_ms.push(e2e_ns as f64 / 1e6);
    }

    let mut traced_wall_ms: Vec<(u32, f64)> = Vec::new();
    let mut class_samples: Vec<(Class, f64)> = Vec::new();
    while traced_wall_ms.len() < MIN_TRACED_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let k = traced_wall_ms.len() as u32;
        tr.begin_pass(k);
        let (e2e_ns, pass) = one_pass(&mut tr, &mut failures, &mut attempted)?;
        if let (Some((pass, requests)), Some(traffic)) = (&pass, &bench.traffic) {
            service::time_codec(traffic, requests, pass, &mut tr)?;
            class_samples.extend(
                pass.samples
                    .iter()
                    .map(|s| (s.class, s.latency_ns as f64 / 1e6)),
            );
        }
        traced_wall_ms.push((k, e2e_ns as f64 / 1e6));
    }

    if bench.traffic.is_none() {
        // The service layers see this workload's own programs: each once
        // cold, once as a new data variant, once repeated.
        tr.begin_pass(PROBE_PASS);
        let mut rng = Rng::new(args.seed ^ 0x9e37_79b9);
        let n = bench.jobs.len();
        let traffic = Traffic::build(&bench.jobs, &mut rng, 1, n)?;
        let requests = traffic.plan(&mut rng);
        let pass = service::run_pass(&traffic, &requests, &mut tr)?;
        attempted += requests.len() as u64;
        failures.extend(pass.failures.iter().cloned());
        service::time_codec(&traffic, &requests, &pass, &mut tr)?;
        class_samples.extend(
            pass.samples
                .iter()
                .map(|s| (s.class, s.latency_ns as f64 / 1e6)),
        );
    }

    // Traced end-to-end: a traced pass's wall time minus the cold compile
    // the fidelity check adds (the replay and the warm-cache link stand in
    // for the untraced pass's compile).
    let cold = tr.total_ms_by_pass("check.cold_compile");
    let traced_ms: Vec<f64> = traced_wall_ms
        .iter()
        .map(|(k, wall)| wall - cold.get(k).copied().unwrap_or(0.0))
        .collect();
    let untraced = stats::median(&untraced_ms);
    let overhead_pct = (stats::median(&traced_ms) - untraced) / untraced * 100.0;

    let mut m = per_layer(&tr, &class_samples);
    m.put("trace.overhead_pct", overhead_pct, "%");

    let mut notes = vec![
        ("untraced_passes".to_string(), untraced_ms.len().to_string()),
        ("traced_passes".to_string(), traced_ms.len().to_string()),
        ("spans".to_string(), tr.spans().len().to_string()),
    ];
    if args.workload != Workload::ServiceMix {
        notes.extend(shares(&tr, args.workload));
    }
    let spans_path = out_dir.join(format!("spans-{}.jsonl", args.workload.name()));
    tr.write_jsonl(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    notes.push(("spans_file".into(), spans_path.display().to_string()));
    Ok(Outcome {
        metrics: m,
        attempted,
        failures,
        notes,
    })
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
fn per_layer(tr: &Tracer, class_samples: &[(Class, f64)]) -> Metrics {
    let own = tr.self_ms_by_pass();
    let t = |name: &str| med(own.get(name));
    let c = |name: &str| med(Some(&tr.counts_by_pass(name)));
    let mut m = Metrics::default();

    m.put("lang.parse_ms", t("lang.parse"), "ms");
    m.put("lang.unroll_ms", t("lang.unroll"), "ms");
    m.put("lang.lower_ms", t("lang.lower"), "ms");
    m.put("lang.ir_insts", c("lang.ir_insts"), "count");

    for (metric, span) in [
        ("rawcc.layout_ms", "rawcc.layout"),
        ("rawcc.taskgraph_ms", "rawcc.taskgraph"),
        ("rawcc.partition_ms", "rawcc.partition"),
        ("rawcc.schedule_ms", "rawcc.schedule"),
        ("rawcc.codegen_ms", "rawcc.codegen"),
        ("rawcc.regalloc_ms", "rawcc.regalloc"),
    ] {
        m.put(metric, t(span), "ms");
    }
    for name in [
        "rawcc.nodes",
        "rawcc.max_block_nodes",
        "rawcc.clusters",
        "rawcc.comm_paths",
        "rawcc.codegen_insts",
        "rawcc.spills",
    ] {
        m.put(name, c(name), "count");
    }
    let nodes = c("rawcc.nodes");
    m.put(
        "rawcc.schedule_us_per_node",
        ratio(t("rawcc.schedule") * 1e3, nodes),
        "us",
    );
    m.put(
        "rawcc.codegen_us_per_node",
        ratio(t("rawcc.codegen") * 1e3, nodes),
        "us",
    );

    m.put("rawcc.link_ms", t("rawcc.link"), "ms");
    m.put("rawcc.code_words", c("rawcc.code_words"), "count");
    let (hits, misses) = (c("blockcache.hits"), c("blockcache.misses"));
    m.put("blockcache.hits", hits, "count");
    m.put("blockcache.misses", misses, "count");
    m.put("blockcache.hit_ratio", ratio(hits, hits + misses), "ratio");

    let run_ms = t("machine.run");
    let (cycles, tile_cycles) = (c("machine.cycles"), c("machine.tile_cycles"));
    m.put("machine.instantiate_ms", t("machine.instantiate"), "ms");
    m.put("machine.run_ms", run_ms, "ms");
    m.put("machine.cycles", cycles, "cycles");
    m.put("machine.tile_cycles", tile_cycles, "cycles");
    m.put("machine.ns_per_cycle", ratio(run_ms * 1e6, cycles), "ns");
    m.put(
        "machine.ns_per_tile_cycle",
        ratio(run_ms * 1e6, tile_cycles),
        "ns",
    );
    m.put("machine.proc_insts", c("machine.proc_insts"), "count");
    m.put(
        "machine.active_frac",
        ratio(c("machine.proc_insts"), tile_cycles),
        "ratio",
    );
    for name in [
        "machine.switch_routes",
        "machine.static_words",
        "machine.stall_reg",
        "machine.stall_port_in",
        "machine.stall_port_out",
        "machine.stall_dynamic",
    ] {
        m.put(name, c(name), "count");
    }
    m.put(
        "machine.dyn_active_cycles",
        c("machine.dyn_active_cycles"),
        "cycles",
    );

    m.put("interp.ms", t("interp.run"), "ms");
    m.put("interp.insts", c("interp.insts"), "count");

    let class_p50 = |class: Class| {
        let v: Vec<f64> = class_samples
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|&(_, ms)| ms)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    m.put("service.cold_ms_p50", class_p50(Class::Cold), "ms");
    m.put(
        "service.block_warm_ms_p50",
        class_p50(Class::BlockWarm),
        "ms",
    );
    m.put("service.memo_ms_p50", class_p50(Class::Memo), "ms");
    let mean_us = |name: &str| {
        let (sum, n) = tr
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| {
                (sum + (s.end_ns - s.start_ns), n + 1)
            });
        ratio(sum as f64 / 1e3, n as f64)
    };
    m.put("wire.encode_us", mean_us("wire.encode"), "us");
    m.put("wire.decode_us", mean_us("wire.decode"), "us");
    let (mem, disk, miss) = (
        c("shardcache.hits_mem"),
        c("shardcache.hits_disk"),
        c("shardcache.misses"),
    );
    m.put("shardcache.hits_mem", mem, "count");
    m.put("shardcache.hits_disk", disk, "count");
    m.put("shardcache.misses", miss, "count");
    m.put("shardcache.coalesced", c("shardcache.coalesced"), "count");
    m.put(
        "shardcache.hit_ratio",
        ratio(mem + disk, mem + disk + miss),
        "ratio",
    );
    m.put(
        "shardcache.resident_bytes",
        c("shardcache.resident_bytes"),
        "bytes",
    );
    m.put("service.memo_hits", c("service.memo_hits"), "count");
    m.put("service.resp_bytes", c("service.resp_bytes"), "bytes");
    m
}

/// Self-time share of each layer group over the traced passes, and the
/// verdict of this workload's layer prediction.
fn shares(tr: &Tracer, workload: Workload) -> Vec<(String, String)> {
    let own = tr.self_ms_by_pass();
    let group_ms: Vec<(&str, f64)> = SHARE_GROUPS
        .iter()
        .map(|(group, spans)| {
            let ms: f64 = spans
                .iter()
                .filter_map(|s| own.get(s))
                .flat_map(|by_pass| {
                    by_pass
                        .iter()
                        .filter(|(&p, _)| p < SETUP_PASS)
                        .map(|(_, ms)| ms)
                })
                .sum();
            (*group, ms)
        })
        .collect();
    let total: f64 = group_ms.iter().map(|(_, ms)| ms).sum();
    let mut notes: Vec<(String, String)> = group_ms
        .iter()
        .map(|(g, ms)| (format!("share.{g}"), format!("{:.4}", ratio(*ms, total))))
        .collect();
    let largest = group_ms
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("", |(g, _)| *g);
    let predicted = match workload {
        Workload::CompileHeavy => "rawcc.schedule+codegen",
        _ => "machine.run",
    };
    notes.push(("largest_self_time".into(), largest.to_string()));
    notes.push((
        "prediction".into(),
        format!(
            "{predicted} has the largest self-time share: {}",
            if largest == predicted {
                "holds"
            } else {
                "FAILS"
            }
        ),
    ));
    notes
}
