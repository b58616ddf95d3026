//! Compiled jobs: one paper or scenario kernel at one machine size, taken
//! from mini-C source through the frontend, `compile_with_cache` and the
//! simulator to a result checked against the IR interpreter.

use crate::trace::Tracer;
use raw_benchmarks::Benchmark;
use raw_ir::interp::{ExecResult, Interpreter};
use raw_ir::{Block, Program, Terminator};
use raw_lang::{lower, parser, unroll, UnrollOptions};
use raw_machine::{MachineConfig, RunReport};
use rawcc::taskgraph::TaskGraph;
use rawcc::{
    codegen, compile_baseline, compile_with_cache, partition, regalloc, schedule, BlockCache,
    CompileReport, CompiledProgram, CompilerOptions, DataLayout,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// The compiler options every measured compile uses: the paper's defaults on
/// one worker thread, set explicitly so `RAWCC_THREADS` cannot change them.
pub fn options() -> CompilerOptions {
    CompilerOptions {
        threads: 1,
        ..CompilerOptions::default()
    }
}

/// Exact facts of a job's compiled code and run, fixed by the warm-up pass;
/// every later pass must repeat them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expect {
    /// Simulated cycles.
    pub cycles: u64,
    /// Processor plus switch instructions of the machine program.
    pub code_words: u64,
    /// Hash of the machine program's wire encoding.
    pub program_hash: u64,
}

/// One kernel at one machine size.
pub struct Job {
    /// `name@tiles`.
    pub label: String,
    /// Source and data.
    pub bench: Benchmark,
    /// Machine size.
    pub tiles: u32,
    /// Machine shape.
    pub config: MachineConfig,
    /// `Benchmark::program(tiles)`: the reference the frontend's output must
    /// equal, and the holder of the job's input data.
    pub reference: Program,
    /// Cycles of the sequential baseline (`compile_baseline`, one tile).
    pub baseline_cycles: u64,
    /// Set by the warm-up pass.
    pub expect: Option<Expect>,
}

/// What one untraced job run measured.
pub struct JobRun {
    /// Compiled code facts, compared with [`Job::expect`].
    pub facts: Expect,
    /// Frontend plus `compile_with_cache`.
    pub compile_ns: u64,
    /// `instantiate` plus `Machine::run`.
    pub sim_ns: u64,
    /// Source to checked result.
    pub total_ns: u64,
}

impl Job {
    /// Builds a job: the reference program and the baseline's cycle count
    /// (itself checked against the interpreter). `baselines` holds the
    /// cycle counts already measured, by kernel name, since the baseline does
    /// not depend on the job's machine size.
    ///
    /// # Errors
    ///
    /// Any frontend, compile or simulation failure, or a baseline result
    /// that differs from the interpreter's.
    pub fn new(
        bench: Benchmark,
        tiles: u32,
        baselines: &mut BTreeMap<&'static str, u64>,
    ) -> Result<Job, String> {
        let label = format!("{}@{tiles}", bench.name);
        let reference = bench
            .program(tiles)
            .map_err(|e| format!("{label}: frontend: {e}"))?;
        let baseline_cycles = match baselines.get(bench.name) {
            Some(&cycles) => cycles,
            None => {
                let cycles = baseline_cycles(&bench)?;
                baselines.insert(bench.name, cycles);
                cycles
            }
        };
        Ok(Job {
            label,
            bench,
            tiles,
            config: MachineConfig::square(tiles),
            reference,
            baseline_cycles,
            expect: None,
        })
    }

    /// Parse, unroll and lower the job's source, then install its input data.
    fn frontend(&self, tr: &mut Tracer, id: u32) -> Result<Program, String> {
        let s = tr.enter("lang.parse", id);
        let kernel = parser::parse(self.bench.name, self.bench.source());
        tr.exit(s);
        let kernel = kernel.map_err(|e| format!("{}: parse: {e}", self.label))?;
        let s = tr.enter("lang.unroll", id);
        let kernel =
            unroll::unroll_kernel(&kernel, self.tiles, UnrollOptions::for_tiles(self.tiles));
        tr.exit(s);
        let s = tr.enter("lang.lower", id);
        let program = lower::lower_kernel(&kernel, self.tiles);
        tr.exit(s);
        let mut program = program.map_err(|e| format!("{}: lower: {e}", self.label))?;
        for (array, reference) in program.arrays.iter_mut().zip(&self.reference.arrays) {
            array.init.clone_from(&reference.init);
        }
        Ok(program)
    }

    /// Instantiates and runs the compiled program, returning the machine's
    /// report, its final state and the nanoseconds spent in `instantiate`
    /// plus `run`.
    fn simulate(
        &self,
        compiled: &CompiledProgram,
        program: &Program,
        tr: &mut Tracer,
        id: u32,
    ) -> Result<(RunReport, ExecResult, u64), String> {
        let start = Instant::now();
        let s = tr.enter("machine.instantiate", id);
        let mut machine = compiled.instantiate(program);
        tr.exit(s);
        let s = tr.enter("machine.run", id);
        let report = machine.run();
        tr.exit(s);
        let sim_ns = start.elapsed().as_nanos() as u64;
        let report = report.map_err(|e| format!("{}: simulation: {e}", self.label))?;
        let s = tr.enter("machine.extract", id);
        let result = compiled.extract_result(program, &machine);
        tr.exit(s);
        Ok((report, result, sim_ns))
    }

    /// Runs the interpreter and checks the machine's result and code facts.
    fn verify(
        &self,
        program: &Program,
        compiled: &CompiledProgram,
        report: &RunReport,
        result: &ExecResult,
        tr: &mut Tracer,
        id: u32,
    ) -> Result<Expect, String> {
        let s = tr.enter("interp.run", id);
        let golden = Interpreter::new(program).run();
        tr.exit(s);
        let golden = golden.map_err(|e| format!("{}: interpreter: {e:?}", self.label))?;
        tr.count("interp.insts", golden.insts_executed as f64);
        let s = tr.enter("check.verify", id);
        let facts = Expect {
            cycles: report.cycles,
            code_words: code_words(compiled),
            program_hash: program_hash(compiled),
        };
        let matches = result.state_eq(&golden);
        tr.exit(s);
        if !matches {
            return Err(format!(
                "{}: final state differs from the interpreter",
                self.label
            ));
        }
        if let Some(expect) = self.expect {
            if facts != expect {
                return Err(format!(
                    "{}: code or cycles changed between passes: {facts:?} vs {expect:?}",
                    self.label
                ));
            }
        }
        Ok(facts)
    }

    /// One untraced run: source to checked result.
    ///
    /// # Errors
    ///
    /// Any failure along the way, including a result that differs from the
    /// interpreter or code facts that differ from the warm-up pass.
    pub fn run(&self, tr: &mut Tracer, id: u32) -> Result<JobRun, String> {
        let start = Instant::now();
        let program = self.frontend(tr, id)?;
        let compiled =
            compile_with_cache(&program, &self.config, &options(), &BlockCache::in_memory());
        let compile_ns = start.elapsed().as_nanos() as u64;
        let compiled = compiled.map_err(|e| format!("{}: compile: {e}", self.label))?;
        let (report, result, sim_ns) = self.simulate(&compiled, &program, tr, id)?;
        let facts = self.verify(&program, &compiled, &report, &result, tr, id)?;
        Ok(JobRun {
            facts,
            compile_ns,
            sim_ns,
            total_ns: start.elapsed().as_nanos() as u64,
        })
    }

    /// Checks, once per set-up, that the frontend calls the benchmark makes
    /// reproduce `Benchmark::program`.
    ///
    /// # Errors
    ///
    /// A description of the first difference.
    pub fn check_frontend(&self) -> Result<(), String> {
        let program = self.frontend(&mut Tracer::new(false, Instant::now()), 0)?;
        if program != self.reference {
            return Err(format!(
                "{}: frontend output differs from Benchmark::program",
                self.label
            ));
        }
        Ok(())
    }

    /// One traced run. The compile is replayed block by block through the
    /// public calls `compile_block` makes, each in its own span; the replay is
    /// checked against a cold `compile_with_cache` (a check span), and the
    /// warm-cache `compile_with_cache` that follows is the link span.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), plus any block whose replayed node count,
    /// makespan or spill count differs from the compiler's report.
    pub fn run_traced(&self, tr: &mut Tracer, id: u32) -> Result<(), String> {
        let job = tr.enter("job", id);
        let outcome = self.traced_body(tr, id);
        tr.exit(job);
        outcome
    }

    fn traced_body(&self, tr: &mut Tracer, id: u32) -> Result<(), String> {
        let opts = options();
        let program = self.frontend(tr, id)?;
        tr.count("lang.ir_insts", program.num_insts() as f64);

        let s = tr.enter("rawcc.layout", id);
        let layout = DataLayout::build(&program, &self.config);
        tr.exit(s);
        let replayed: Vec<BlockFacts> = program
            .iter_blocks()
            .map(|(_, block)| replay_block(block, &layout, &self.config, &opts, tr, id))
            .collect();

        let cache = BlockCache::in_memory();
        let s = tr.enter("check.cold_compile", id);
        let cold = compile_with_cache(&program, &self.config, &opts, &cache);
        tr.exit(s);
        let cold = cold.map_err(|e| format!("{}: compile: {e}", self.label))?;
        check_fidelity(&self.label, &replayed, &cold.report)?;

        let s = tr.enter("rawcc.link", id);
        let compiled = compile_with_cache(&program, &self.config, &opts, &cache);
        tr.exit(s);
        let compiled = compiled.map_err(|e| format!("{}: compile: {e}", self.label))?;

        for f in &replayed {
            tr.count("rawcc.nodes", f.nodes as f64);
            tr.count_max("rawcc.max_block_nodes", f.nodes as f64);
            tr.count("rawcc.clusters", f.clusters as f64);
            tr.count("rawcc.comm_paths", f.comm_paths as f64);
            tr.count("rawcc.codegen_insts", f.codegen_insts as f64);
            tr.count("rawcc.spills", f.spills as f64);
        }
        tr.count("blockcache.hits", cold.report.cache.hits as f64);
        tr.count("blockcache.misses", cold.report.cache.misses as f64);

        let (report, result, _) = self.simulate(&compiled, &program, tr, id)?;
        count_machine(tr, &report, self.config.n_tiles());
        let facts = self.verify(&program, &compiled, &report, &result, tr, id)?;
        tr.count("rawcc.code_words", facts.code_words as f64);
        Ok(())
    }
}

/// Cycles of `bench`'s sequential baseline: `compile_baseline` at one tile,
/// its result checked against the interpreter.
fn baseline_cycles(bench: &Benchmark) -> Result<u64, String> {
    let name = bench.name;
    let base = bench
        .baseline_program()
        .map_err(|e| format!("{name}: baseline frontend: {e}"))?;
    let compiled = compile_baseline(&base, &MachineConfig::square(1))
        .map_err(|e| format!("{name}: baseline compile: {e}"))?;
    let (result, report) = compiled
        .run(&base)
        .map_err(|e| format!("{name}: baseline run: {e}"))?;
    let golden = Interpreter::new(&base)
        .run()
        .map_err(|e| format!("{name}: baseline interpreter: {e:?}"))?;
    if !result.state_eq(&golden) {
        return Err(format!(
            "{name}: baseline result differs from the interpreter"
        ));
    }
    Ok(report.cycles)
}

/// Books a run's machine statistics as per-pass counts.
pub fn count_machine(tr: &mut Tracer, report: &RunReport, n_tiles: u32) {
    let st = &report.stats;
    let sum =
        |f: fn(&raw_machine::stats::TileStats) -> u64| st.tiles.iter().map(f).sum::<u64>() as f64;
    tr.count("machine.cycles", report.cycles as f64);
    tr.count(
        "machine.tile_cycles",
        (report.cycles * u64::from(n_tiles)) as f64,
    );
    tr.count("machine.proc_insts", sum(|t| t.proc_insts));
    tr.count("machine.switch_routes", sum(|t| t.switch_routes));
    tr.count("machine.stall_reg", sum(|t| t.stall_reg));
    tr.count("machine.stall_port_in", sum(|t| t.stall_port_in));
    tr.count("machine.stall_port_out", sum(|t| t.stall_port_out));
    tr.count("machine.stall_dynamic", sum(|t| t.stall_dynamic));
    tr.count("machine.static_words", st.static_words as f64);
    tr.count("machine.dyn_active_cycles", st.dyn_active_cycles as f64);
}

/// Processor plus switch instructions across tiles.
pub fn code_words(compiled: &CompiledProgram) -> u64 {
    compiled
        .machine_program
        .tiles
        .iter()
        .map(|t| (t.proc.len() + t.switch.len()) as u64)
        .sum()
}

/// Hash of the machine program's wire encoding: the bytes the compile
/// service returns for it.
pub fn program_hash(compiled: &CompiledProgram) -> u64 {
    raw_testkit::hash64(&rawcc::wire::encode_machine_program(
        &compiled.machine_program,
    ))
}

/// What the replay of one block produced.
struct BlockFacts {
    nodes: usize,
    clusters: usize,
    comm_paths: usize,
    makespan: u64,
    spills: usize,
    codegen_insts: usize,
}

/// The public call sequence of `rawcc::compile_block` for the default
/// (heuristic, greedy-swap) strategy, one span per phase.
fn replay_block(
    block: &Block,
    layout: &DataLayout,
    config: &MachineConfig,
    opts: &CompilerOptions,
    tr: &mut Tracer,
    id: u32,
) -> BlockFacts {
    let outer = tr.enter("rawcc.block", id);
    let s = tr.enter("rawcc.taskgraph", id);
    let graph = TaskGraph::build(block, layout, config);
    tr.exit(s);
    let s = tr.enter("rawcc.partition", id);
    let part = partition::partition(&graph, config, opts);
    tr.exit(s);
    let s = tr.enter("rawcc.schedule", id);
    let sched = schedule::schedule(&graph, &part, config, opts);
    tr.exit(s);
    let branch_cond = match &block.term {
        Terminator::Branch { cond, .. } => Some((*cond, part.assignment[graph.def_of[cond]])),
        _ => None,
    };
    let s = tr.enter("rawcc.codegen", id);
    let vcode = codegen::generate(&graph, &sched, layout, branch_cond, opts.fold_communication);
    tr.exit(s);
    let codegen_insts = vcode.iter().map(|c| c.insts.len()).sum();
    let s = tr.enter("rawcc.regalloc", id);
    let spills = vcode
        .into_iter()
        .map(|c| {
            regalloc::allocate(
                c.insts,
                c.prov,
                c.n_vregs,
                c.cond_vreg,
                config.gprs,
                layout.spill_base,
            )
            .n_spilled
        })
        .sum();
    tr.exit(s);
    tr.exit(outer);
    BlockFacts {
        nodes: graph.len(),
        clusters: part.n_clusters,
        comm_paths: sched.n_comm_paths,
        makespan: sched.makespan,
        spills,
        codegen_insts,
    }
}

/// The replay must reproduce the compiler's per-block node count, makespan
/// and spill count, or its phase times describe some other compile.
fn check_fidelity(
    label: &str,
    replayed: &[BlockFacts],
    report: &CompileReport,
) -> Result<(), String> {
    if replayed.len() != report.blocks.len() {
        return Err(format!(
            "{label}: replay saw {} blocks, the compiler {}",
            replayed.len(),
            report.blocks.len()
        ));
    }
    for (b, (r, d)) in replayed.iter().zip(&report.blocks).enumerate() {
        if (r.nodes, r.makespan, r.spills) != (d.n_nodes, d.makespan, d.spills) {
            return Err(format!(
                "{label}: block {b}: replay (nodes, makespan, spills) = {:?}, compiler = {:?}",
                (r.nodes, r.makespan, r.spills),
                (d.n_nodes, d.makespan, d.spills)
            ));
        }
    }
    Ok(())
}
