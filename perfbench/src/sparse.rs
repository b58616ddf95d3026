//! Generated machine programs for the sparse regime: a few active tiles on a
//! 32×32 mesh, built with `raw_machine::asm`. The seed sets every data word
//! (start values, increments, the remote table) but no loop count or tile
//! position, so simulated cycles are the same for every seed while the final
//! memory is not. The expected final memory of every tile is computed on the
//! host with plain wrapping arithmetic.

use crate::jobs::count_machine;
use crate::trace::Tracer;
use raw_ir::{BinOp, Imm};
use raw_machine::asm::{ProcAsm, SwitchAsm};
use raw_machine::isa::{Dir, Dst, MachineProgram, PInst, SDst, SInst, SSrc, Src, TileCode};
use raw_machine::{Machine, MachineConfig, TileId};
use raw_testkit::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Mesh side: 32×32 = 1024 tiles.
const SIDE: u32 = 32;
/// Words of local memory per tile. The programs touch a few dozen words, so
/// a small memory keeps the full final-memory comparison cheap.
const MEM_WORDS: u32 = 1 << 12;
/// xorshift rounds of the spin program.
const SPIN_ITERS: i32 = 6000;
/// Round trips of the ping-pong program.
const PINGPONG_ITERS: i32 = 800;
/// Passes over the remote table; each pass makes `TABLE` dependent loads.
const REMOTE_ROUNDS: i32 = 24;
/// Words in the remote table on the far corner tile.
const TABLE: u32 = 16;
/// Local address of the remote table on the far tile.
const TABLE_BASE: u32 = 64;
/// Local address the remote program writes its sum back to on the far tile.
const REMOTE_RESULT: u32 = 128;

/// One generated program with its inputs and expected final memory.
pub struct SparseProgram {
    /// `spin`, `pingpong` or `remote`.
    pub label: &'static str,
    /// The 32×32 machine it runs on.
    pub config: MachineConfig,
    /// Per-tile code (halt-only on idle tiles).
    pub program: MachineProgram,
    /// Words poked into memory before the run: (tile, address, value).
    pub init: Vec<(TileId, u32, u32)>,
    /// Every nonzero word of every tile's final memory.
    pub expected: BTreeMap<(u32, u32), u32>,
    /// Cycles of the warm-up pass; later passes must repeat them.
    pub expect_cycles: Option<u64>,
}

/// Nonzero memory words of one tile: (address, word).
type Words = Vec<(u32, u32)>;

/// What one run of a generated program measured.
pub struct SparseRun {
    /// Simulated cycles.
    pub cycles: u64,
    /// Machine construction plus initial pokes, and `Machine::run`.
    pub sim_ns: u64,
    /// Construction to checked memory.
    pub total_ns: u64,
}

fn config() -> MachineConfig {
    let mut config = MachineConfig::grid(SIDE, SIDE);
    config.mem_words = MEM_WORDS;
    config
}

/// Pads `tiles` with halt-only code up to the mesh size.
fn pad(mut tiles: Vec<TileCode>, n: u32) -> MachineProgram {
    while tiles.len() < n as usize {
        tiles.push(TileCode {
            proc: vec![PInst::Halt],
            switch: vec![SInst::Halt],
        });
    }
    MachineProgram { tiles }
}

/// The three programs for `seed`.
pub fn generate(seed: u64) -> Vec<SparseProgram> {
    let mut rng = Rng::new(seed ^ 0x5ba7_5e00);
    vec![spin(&mut rng), pingpong(&mut rng), remote(&mut rng)]
}

/// One tile iterating a 32-bit xorshift from a seeded start value: the pure
/// events-versus-tiles case, no network traffic.
fn spin(rng: &mut Rng) -> SparseProgram {
    let config = config();
    let start = (rng.next_u64() as u32) | 1;
    let mut p = ProcAsm::new();
    p.li(Dst::Reg(1), Imm::I(SPIN_ITERS));
    p.li(Dst::Reg(2), Imm::I(start as i32));
    let top = p.new_label();
    p.bind(top);
    for (op, shift) in [(BinOp::Shl, 13), (BinOp::Shru, 17), (BinOp::Shl, 5)] {
        p.bin(op, Dst::Reg(3), Src::Reg(2), Src::Imm(Imm::I(shift)));
        p.bin(BinOp::Xor, Dst::Reg(2), Src::Reg(2), Src::Reg(3));
    }
    p.addi(Dst::Reg(1), Src::Reg(1), -1);
    p.bnez(Src::Reg(1), top);
    p.store_imm_addr(Src::Reg(2), 0);
    p.halt();

    let mut x = start;
    for _ in 0..SPIN_ITERS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
    }
    SparseProgram {
        label: "spin",
        program: pad(
            vec![TileCode {
                proc: p.finish(),
                switch: vec![SInst::Halt],
            }],
            config.n_tiles(),
        ),
        config,
        init: Vec::new(),
        expected: BTreeMap::from([((0, 0), x)]),
        expect_cycles: None,
    }
}

/// Two neighbouring tiles bouncing a word over the static network: tile 0
/// sends its value, tile 1 adds a seeded step and sends it back.
fn pingpong(rng: &mut Rng) -> SparseProgram {
    let config = config();
    let start = rng.next_u64() as u32;
    let step = rng.gen_range(1..1_000_000i32);
    let mut p0 = ProcAsm::new();
    p0.li(Dst::Reg(1), Imm::I(PINGPONG_ITERS));
    p0.li(Dst::Reg(2), Imm::I(start as i32));
    let top0 = p0.new_label();
    p0.bind(top0);
    p0.send(Src::Reg(2));
    p0.recv(Dst::Reg(2));
    p0.addi(Dst::Reg(1), Src::Reg(1), -1);
    p0.bnez(Src::Reg(1), top0);
    p0.store_imm_addr(Src::Reg(2), 0);
    p0.halt();
    let mut p1 = ProcAsm::new();
    p1.li(Dst::Reg(1), Imm::I(PINGPONG_ITERS));
    let top1 = p1.new_label();
    p1.bind(top1);
    p1.recv(Dst::Reg(2));
    p1.addi(Dst::PortOut, Src::Reg(2), step);
    p1.addi(Dst::Reg(1), Src::Reg(1), -1);
    p1.bnez(Src::Reg(1), top1);
    p1.halt();
    let mut s0 = SwitchAsm::new();
    let mut s1 = SwitchAsm::new();
    for _ in 0..PINGPONG_ITERS {
        s0.route(&[(SSrc::Proc, SDst::Dir(Dir::East))]);
        s0.route(&[(SSrc::Dir(Dir::East), SDst::Proc)]);
        s1.route(&[(SSrc::Dir(Dir::West), SDst::Proc)]);
        s1.route(&[(SSrc::Proc, SDst::Dir(Dir::West))]);
    }
    s0.halt();
    s1.halt();

    let end = start.wrapping_add((step as u32).wrapping_mul(PINGPONG_ITERS as u32));
    SparseProgram {
        label: "pingpong",
        program: pad(
            vec![
                TileCode {
                    proc: p0.finish(),
                    switch: s0.finish(),
                },
                TileCode {
                    proc: p1.finish(),
                    switch: s1.finish(),
                },
            ],
            config.n_tiles(),
        ),
        config,
        init: Vec::new(),
        expected: BTreeMap::from([((0, 0), end)]),
        expect_cycles: None,
    }
}

/// Tile 0 sums a seeded table homed on the far corner tile through dependent
/// dynamic-network loads, then stores the sum locally and, with a remote
/// store, back on the far tile.
fn remote(rng: &mut Rng) -> SparseProgram {
    let config = config();
    let far = TileId::from_raw(config.n_tiles() - 1);
    let table: Vec<u32> = (0..TABLE).map(|_| rng.next_u64() as u32).collect();
    let mut p = ProcAsm::new();
    p.li(Dst::Reg(1), Imm::I(REMOTE_ROUNDS));
    p.li(Dst::Reg(3), Imm::I(0));
    let top = p.new_label();
    p.bind(top);
    for k in 0..TABLE {
        let gaddr = config.make_gaddr(far, TABLE_BASE + k);
        p.dload(Dst::Reg(2), Src::Imm(Imm::I(gaddr as i32)));
        p.bin(BinOp::Add, Dst::Reg(3), Src::Reg(3), Src::Reg(2));
    }
    p.addi(Dst::Reg(1), Src::Reg(1), -1);
    p.bnez(Src::Reg(1), top);
    p.store_imm_addr(Src::Reg(3), 0);
    let back = config.make_gaddr(far, REMOTE_RESULT);
    p.dstore(Src::Imm(Imm::I(back as i32)), Src::Reg(3));
    p.halt();

    let round: u32 = table.iter().fold(0u32, |a, &w| a.wrapping_add(w));
    let sum = round.wrapping_mul(REMOTE_ROUNDS as u32);
    let init: Vec<(TileId, u32, u32)> = table
        .iter()
        .enumerate()
        .map(|(k, &w)| (far, TABLE_BASE + k as u32, w))
        .collect();
    let mut expected: BTreeMap<(u32, u32), u32> = init
        .iter()
        .filter(|&&(_, _, w)| w != 0)
        .map(|&(t, a, w)| ((t.0, a), w))
        .collect();
    expected.insert((0, 0), sum);
    expected.insert((far.0, REMOTE_RESULT), sum);
    expected.retain(|_, w| *w != 0);
    SparseProgram {
        label: "remote",
        program: pad(
            vec![TileCode {
                proc: p.finish(),
                switch: vec![SInst::Halt],
            }],
            config.n_tiles(),
        ),
        config,
        init,
        expected,
        expect_cycles: None,
    }
}

impl SparseProgram {
    /// Runs on the default stepper and compares every tile's final memory
    /// with the host-computed image.
    ///
    /// # Errors
    ///
    /// A simulation error, a memory word that differs, or a cycle count that
    /// differs from the warm-up pass.
    pub fn run(&self, tr: &mut Tracer, id: u32) -> Result<SparseRun, String> {
        let job = tr.enter("job", id);
        let outcome = self.run_body(tr, id);
        tr.exit(job);
        outcome
    }

    fn run_body(&self, tr: &mut Tracer, id: u32) -> Result<SparseRun, String> {
        let start = Instant::now();
        let s = tr.enter("machine.instantiate", id);
        let mut machine = Machine::new(self.config.clone(), &self.program);
        for &(tile, addr, value) in &self.init {
            machine.set_mem_word(tile, addr, value);
        }
        tr.exit(s);
        let s = tr.enter("machine.run", id);
        let report = machine.run();
        tr.exit(s);
        let sim_ns = start.elapsed().as_nanos() as u64;
        let report = report.map_err(|e| format!("{}: simulation: {e}", self.label))?;
        count_machine(tr, &report, self.config.n_tiles());

        let s = tr.enter("check.verify", id);
        let mismatch = self.first_mismatch(&machine);
        tr.exit(s);
        if let Some((tile, got, want)) = mismatch {
            return Err(format!(
                "{}: tile {tile} final memory (address, word) {got:?}, expected {want:?}",
                self.label
            ));
        }
        if let Some(expect) = self.expect_cycles {
            if report.cycles != expect {
                return Err(format!(
                    "{}: cycles changed between passes: {} vs {expect}",
                    self.label, report.cycles
                ));
            }
        }
        Ok(SparseRun {
            cycles: report.cycles,
            sim_ns,
            total_ns: start.elapsed().as_nanos() as u64,
        })
    }

    /// The first tile whose final memory differs from the expected image:
    /// (tile, nonzero words found, nonzero words expected).
    fn first_mismatch(&self, machine: &Machine) -> Option<(u32, Words, Words)> {
        for t in 0..self.config.n_tiles() {
            let got: Words = machine
                .memory(TileId(t))
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w != 0)
                .map(|(a, &w)| (a as u32, w))
                .collect();
            let want: Words = self
                .expected
                .range((t, 0)..(t + 1, 0))
                .map(|(&(_, a), &w)| (a, w))
                .collect();
            if got != want {
                return Some((t, got, want));
            }
        }
        None
    }
}
