//! The compile-service traffic: an in-process daemon
//! (`rawcc::service::serve`, started fresh for every pass) and one
//! closed-loop client sending a seeded sequence of pre-encoded compile
//! requests in three classes.
//!
//! * `cold`: first sight of a kernel×tiles pair — the compile pipeline plus
//!   cache inserts.
//! * `block-warm`: a new seeded data variant of a pair already seen — a memo
//!   miss whose blocks all hit, so shard-cache reads, link and encoding.
//! * `memo`: a byte-identical repeat — framing and memo replay.
//!
//! Every response's machine-program bytes are hashed and compared with an
//! in-process compile of the same program made in set-up.
//!
//! The daemon runs without a disk layer and with one client. On a 2-vCPU
//! virtual machine, per-pass disk writes and a second concurrent client each
//! made the pass time drift by a factor of up to 1.8 within minutes (host
//! disk and CPU steal), which no bound of this benchmark could absorb; the
//! in-memory, single-client figures keep the spread of their ten-seed
//! medians within 0.17.

use crate::jobs::{self, Job};
use crate::trace::Tracer;
use raw_ir::{Imm, Program};
use raw_machine::MachineConfig;
use raw_testkit::Rng;
use rawcc::service::{serve, Client, ServeOptions};
use rawcc::wire::{self, CompileResponse, StatsResponse};
use std::time::Instant;

/// Request class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// First sight of a kernel×tiles pair.
    Cold,
    /// Unseen data variant of a seen pair.
    BlockWarm,
    /// Byte-identical repeat.
    Memo,
}

impl Class {
    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::BlockWarm => "block-warm",
            Class::Memo => "memo",
        }
    }
}

/// One kernel×tiles pair and its data variants (variant 0 is the
/// benchmark's own data).
pub struct Target {
    /// `name@tiles`.
    pub label: String,
    /// Machine shape.
    pub config: MachineConfig,
    /// Programs that differ only in their initial data.
    pub variants: Vec<Program>,
    /// Hash of the in-process compile's machine-program bytes, per variant.
    pub hashes: Vec<u64>,
}

/// One request of a pass.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Index into the targets.
    pub target: usize,
    /// Index into the target's variants.
    pub variant: usize,
    /// Class by construction.
    pub class: Class,
}

/// A copy of `program` with new initial data drawn from `rng`: float values
/// scaled by up to ±0.5%, integer arrays permuted (so index and 0/1 arrays
/// stay in range). Integer scalars are left alone: they may be loop bounds.
pub fn data_variant(program: &Program, rng: &mut Rng) -> Program {
    let mut p = program.clone();
    let jitter = |imm: &mut Imm, rng: &mut Rng| {
        if let Imm::F(x) = imm {
            *x *= 1.0 + (rng.gen_f32() - 0.5) * 0.01;
        }
    };
    for var in &mut p.vars {
        jitter(&mut var.init, rng);
    }
    for array in &mut p.arrays {
        if array.init.iter().any(|v| matches!(v, Imm::I(_))) {
            rng.shuffle(&mut array.init);
        } else {
            for v in &mut array.init {
                jitter(v, rng);
            }
        }
    }
    p
}

/// The seeded request sequence: every target once as `cold`, `warm_per_target`
/// unseen variants per target as `block-warm`, and `memo` repeats of requests
/// already sent. At each step the class is drawn in proportion to what is
/// left of it among the classes possible at that point, so the counts are
/// fixed and only the order depends on the seed.
pub fn plan(targets: usize, warm_per_target: usize, memo: usize, rng: &mut Rng) -> Vec<Request> {
    let mut next_variant = vec![0usize; targets];
    let mut unseen: Vec<usize> = (0..targets).collect();
    rng.shuffle(&mut unseen);
    let mut sent: Vec<(usize, usize)> = Vec::new();
    let (mut cold, mut warm, mut memo) = (targets, targets * warm_per_target, memo);
    let mut out = Vec::with_capacity(cold + warm + memo);
    while cold + warm + memo > 0 {
        let warm_ready: Vec<usize> = (0..targets)
            .filter(|&t| next_variant[t] > 0 && next_variant[t] <= warm_per_target)
            .collect();
        let weights = [
            cold,
            if warm_ready.is_empty() { 0 } else { warm },
            if sent.is_empty() { 0 } else { memo },
        ];
        let total: usize = weights.iter().sum();
        let mut pick = rng.gen_range(0..total);
        let class = weights
            .iter()
            .position(|&w| {
                if pick < w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .expect("pick lies within the total weight");
        let (target, variant, class) = match class {
            0 => {
                cold -= 1;
                (unseen.pop().expect("cold requests left"), 0, Class::Cold)
            }
            1 => {
                warm -= 1;
                let t = warm_ready[rng.gen_range(0..warm_ready.len())];
                (t, next_variant[t], Class::BlockWarm)
            }
            _ => {
                memo -= 1;
                let (t, v) = sent[rng.gen_range(0..sent.len())];
                (t, v, Class::Memo)
            }
        };
        if class != Class::Memo {
            next_variant[target] += 1;
            sent.push((target, variant));
        }
        out.push(Request {
            target,
            variant,
            class,
        });
    }
    out
}

/// The client's name in its requests and the daemon's stats rows.
const CLIENT: &str = "perfbench";

/// A workload's service traffic: the kernel×tiles pairs with their data
/// variants and reference hashes, every request payload encoded once
/// (`encoded[target][variant]`), and the class counts each pass's plan
/// draws.
pub struct Traffic {
    /// The pairs.
    pub targets: Vec<Target>,
    encoded: Vec<Vec<Vec<u8>>>,
    warm_per_target: usize,
    memo: usize,
}

impl Traffic {
    /// Builds the traffic over `jobs`: `warm_per_target` data variants per
    /// pair from `rng`, and in-process reference hashes (one shared
    /// in-memory block cache per pair, so a variant costs about a link).
    ///
    /// # Errors
    ///
    /// A reference compile that fails.
    pub fn build(
        jobs: &[Job],
        rng: &mut Rng,
        warm_per_target: usize,
        memo: usize,
    ) -> Result<Traffic, String> {
        let options = jobs::options();
        let mut targets = Vec::with_capacity(jobs.len());
        for job in jobs {
            let mut variants = vec![job.reference.clone()];
            for _ in 0..warm_per_target {
                variants.push(data_variant(&job.reference, rng));
            }
            let cache = rawcc::BlockCache::in_memory();
            let hashes = variants
                .iter()
                .map(|p| {
                    rawcc::compile_with_cache(p, &job.config, &options, &cache)
                        .map(|c| jobs::program_hash(&c))
                        .map_err(|e| format!("{}: reference compile: {e}", job.label))
                })
                .collect::<Result<Vec<_>, _>>()?;
            targets.push(Target {
                label: job.label.clone(),
                config: job.config.clone(),
                variants,
                hashes,
            });
        }
        let encoded = targets
            .iter()
            .map(|t| {
                t.variants
                    .iter()
                    .map(|p| wire::encode_compile_request(CLIENT, p, &t.config, &options))
                    .collect()
            })
            .collect();
        Ok(Traffic {
            targets,
            encoded,
            warm_per_target,
            memo,
        })
    }

    /// A new seeded request order for one pass (see [`plan`]).
    pub fn plan(&self, rng: &mut Rng) -> Vec<Request> {
        plan(self.targets.len(), self.warm_per_target, self.memo, rng)
    }
}

/// What one request measured.
pub struct Sample {
    /// Its class.
    pub class: Class,
    /// Client-side round trip.
    pub latency_ns: u64,
    /// Server-side compile wall time the response reports.
    pub server_wall_us: u64,
    /// Response payload bytes.
    pub resp_bytes: u64,
}

/// What one pass measured.
pub struct ServicePass {
    /// First request sent to last response received.
    pub e2e_ns: u64,
    /// One per successful request, in request order.
    pub samples: Vec<Sample>,
    /// One message per failed request.
    pub failures: Vec<String>,
    /// The daemon's counters after the pass.
    pub stats: StatsResponse,
    /// Response payloads of the successful requests, kept only for traced
    /// passes, whose codec timing decodes them after the pass.
    pub responses: Vec<Vec<u8>>,
}

/// Runs `requests` against a fresh daemon. With an enabled tracer, each
/// request gets a `service.request` span and the responses are kept.
///
/// # Errors
///
/// The daemon could not start or stop, or a client could not connect. A
/// request that fails is counted in [`ServicePass::failures`] instead.
pub fn run_pass(
    traffic: &Traffic,
    requests: &[Request],
    tr: &mut Tracer,
) -> Result<ServicePass, String> {
    let handle = serve(&ServeOptions::default()).map_err(|e| format!("serve: {e}"))?;
    let mut client = Client::connect(handle.addr(), CLIENT).map_err(|e| format!("connect: {e}"))?;
    let keep = tr.enabled();
    let mut samples = Vec::with_capacity(requests.len());
    let mut failures = Vec::new();
    let mut responses = Vec::new();

    let start = Instant::now();
    for (i, req) in requests.iter().enumerate() {
        let t0 = Instant::now();
        let s = tr.enter("service.request", i as u32);
        let reply = client.compile_payload(&traffic.encoded[req.target][req.variant]);
        tr.exit(s);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let s = tr.enter("check.verify", i as u32);
        let checked = check_response(&traffic.targets[req.target], req.variant, &reply);
        tr.exit(s);
        match checked {
            Ok(server_wall_us) => {
                let payload = reply.expect("a checked reply is a response");
                samples.push(Sample {
                    class: req.class,
                    latency_ns,
                    server_wall_us,
                    resp_bytes: payload.len() as u64,
                });
                if keep {
                    responses.push(payload);
                }
            }
            Err(msg) => failures.push(format!("request {i}: {msg}")),
        }
    }
    let e2e_ns = start.elapsed().as_nanos() as u64;

    let stats = client.stats().map_err(|e| format!("stats: {e}"));
    let shutdown = client.shutdown().map_err(|e| format!("shutdown: {e}"));
    drop(client);
    handle.join();
    let stats = stats?;
    shutdown?;
    Ok(ServicePass {
        e2e_ns,
        samples,
        failures,
        stats,
        responses,
    })
}

/// The server-side compile time a response reports, once its machine
/// program's bytes match the in-process compile of the same variant.
fn check_response(
    target: &Target,
    variant: usize,
    reply: &Result<Vec<u8>, rawcc::ServiceError>,
) -> Result<u64, String> {
    let payload = reply
        .as_ref()
        .map_err(|e| format!("{}: {e}", target.label))?;
    let (bytes, counters) = wire::split_compiled_payload(payload)
        .ok_or_else(|| format!("{}: short response", target.label))?;
    if raw_testkit::hash64(bytes) != target.hashes[variant] {
        return Err(format!(
            "{} variant {variant}: machine program differs from the in-process compile",
            target.label
        ));
    }
    Ok(counters.wall_us)
}

/// Times the public codec on a traced pass's own traffic: one
/// `encode_compile_request` per request and one `CompileResponse::decode`
/// per response, each in its own span, and books the daemon's counters.
///
/// # Errors
///
/// A response that does not decode.
pub fn time_codec(
    traffic: &Traffic,
    requests: &[Request],
    pass: &ServicePass,
    tr: &mut Tracer,
) -> Result<(), String> {
    let (targets, options) = (&traffic.targets, jobs::options());
    for (i, req) in requests.iter().enumerate() {
        let target = &targets[req.target];
        let s = tr.enter("wire.encode", i as u32);
        let bytes = wire::encode_compile_request(
            CLIENT,
            &target.variants[req.variant],
            &target.config,
            &options,
        );
        tr.exit(s);
        std::hint::black_box(bytes);
    }
    for (i, payload) in pass.responses.iter().enumerate() {
        let s = tr.enter("wire.decode", i as u32);
        let decoded = CompileResponse::decode(payload);
        tr.exit(s);
        decoded.map_err(|e| format!("request {i}: response does not decode: {e}"))?;
    }
    let c = &pass.stats.cache;
    tr.count("shardcache.hits_mem", c.hits_mem as f64);
    tr.count("shardcache.hits_disk", c.hits_disk as f64);
    tr.count("shardcache.misses", c.misses as f64);
    tr.count("shardcache.coalesced", c.coalesced as f64);
    tr.count("shardcache.resident_bytes", c.resident_bytes as f64);
    tr.count("service.memo_hits", pass.stats.memo_hits as f64);
    tr.count(
        "service.resp_bytes",
        pass.samples.iter().map(|s| s.resp_bytes).sum::<u64>() as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_has_fixed_counts_and_cold_first() {
        for seed in 0..20 {
            let reqs = plan(12, 2, 14, &mut Rng::new(seed));
            assert_eq!(reqs.len(), 50);
            let count = |c: Class| reqs.iter().filter(|r| r.class == c).count();
            assert_eq!(
                (
                    count(Class::Cold),
                    count(Class::BlockWarm),
                    count(Class::Memo)
                ),
                (12, 24, 14)
            );
            let mut seen = std::collections::HashSet::new();
            for r in &reqs {
                match r.class {
                    Class::Cold => {
                        assert_eq!(r.variant, 0);
                        assert!(seen.insert((r.target, 0)));
                    }
                    Class::BlockWarm => {
                        assert!(seen.contains(&(r.target, 0)), "warm before cold");
                        assert!(seen.insert((r.target, r.variant)), "variant sent twice");
                    }
                    Class::Memo => assert!(seen.contains(&(r.target, r.variant))),
                }
            }
        }
    }
}
