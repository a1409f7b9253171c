//! Execution-tier throughput: interpreter vs. register-allocated bytecode.
//!
//! Bytecode is the production tier (the `DeviceConfig::exec_tier`
//! default); the interpreter is the reference it is measured and diffed
//! against. Each device here pins its tier with `Device::set_exec_tier`.
//!
//! Three single-worker workloads, once per tier:
//!
//! * **rsbench** — the compute proxy (float math + table lookups); shared
//!   backend costs (memory path, IEEE arithmetic) bound the tier gap from
//!   below, so this is the *conservative* end of the speedup range;
//! * **alu-loop** — a dispatch-bound integer loop: four independent
//!   LCG+xorshift accumulators (an unrolled-reduction shape), five
//!   loop-carried phis per back edge, one store per thread at the end.
//!   Per-op dispatch plus the interpreter's per-jump phi work — a linear
//!   incoming scan and a fresh move-buffer allocation per taken branch —
//!   dominate, and both are exactly what the bytecode tier pre-resolves,
//!   so this is the *kernel throughput* end of the range and the number
//!   the two-tier engine is sized against (≥5×);
//! * **branchy** — one accumulator with a data-dependent branch each
//!   round (a divergent-kernel shape): the interpreter's branch-target
//!   resolution cost, with short phi-less blocks in between.
//!
//! Each workload reports an [`ExecTierRow`] table (wall clock, instruction
//! and dispatch counters, speedup over the interpreter). While sweeping,
//! the harness re-checks the tier bit-identity contract: output bits, the
//! full [`KernelMetrics`] (including the per-step `dispatched` counter,
//! i.e. fuel), and the entire global-memory image must be identical across
//! tiers. Exits nonzero on any divergence.
//!
//! ```text
//! cargo run --release -p nzomp-bench --bin exec_tier [REPS]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use nzomp::report::{exec_tier_speedups, exec_tier_table, ExecTierRow};
use nzomp::BuildConfig;
use nzomp_bench::eval_device;
use nzomp_ir::inst::BinOp;
use nzomp_ir::{ExecMode, FuncBuilder, Module, Operand, Ty};
use nzomp_proxies::rsbench::RSBench;
use nzomp_proxies::{compile_for_config, Proxy};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, ExecTier, KernelMetrics, RtVal};

const TIERS: [(ExecTier, &str); 2] =
    [(ExecTier::Interp, "interp"), (ExecTier::Bytecode, "bytecode")];

const TEAMS: u32 = 64;
const THREADS: u32 = 32;
/// Iterations of the alu-loop body per thread (7 dispatched ops each).
const ALU_ITERS: i64 = 600;
/// Iterations of the branchy body per thread (~11 dispatched ops each).
const BRANCHY_ITERS: i64 = 400;

/// Compute-bound, 64 teams of 32 threads — the same instance the
/// parallel-scaling bench uses, so the two sweeps are comparable.
fn proxy() -> RSBench {
    RSBench {
        n_nuclides: 12,
        n_windows: 16,
        poles_per_window: 6,
        n_lookups: (TEAMS * THREADS) as usize,
        threads_per_team: THREADS,
        seed: 0x5eed_0002,
    }
}

/// The dispatch-bound workload: each thread mixes its global id through
/// `ALU_ITERS` rounds of an LCG + xorshift (integer ALU ops and a
/// conditional branch — no memory traffic inside the loop) and stores the
/// final value to its slot of the output buffer. Branch-dense on purpose
/// (one taken, phi-carrying branch per seven ops): the interpreter's
/// per-jump work — target lookup, a linear phi-incoming scan, and a fresh
/// move-buffer allocation — is its single largest per-step cost, and
/// precisely what bytecode's pre-resolved edges elide.
fn alu_module() -> Module {
    let mut m = Module::new("alu");
    let mut b = FuncBuilder::new("alu", vec![Ty::Ptr], None);
    let entry = b.current_block();
    let out = b.param(0);
    let tid = b.thread_id();
    let team = b.block_id();
    let bdim = b.block_dim();
    let scaled = b.mul(team, bdim);
    let gid = b.add(scaled, tid);
    let body = b.new_block();
    let exit = b.new_block();
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Ty::I64, vec![(entry, Operand::i64(0))]);
    let acc = b.phi(Ty::I64, vec![(entry, gid)]);
    let mixed = b.mul(acc, Operand::i64(6364136223846793005));
    let mixed = b.add(mixed, Operand::i64(1442695040888963407));
    let shifted = b.bin(BinOp::LShr, Ty::I64, mixed, Operand::i64(17));
    let acc2 = b.bin(BinOp::Xor, Ty::I64, mixed, shifted);
    let i2 = b.add(i, Operand::i64(1));
    b.phi_add_incoming(i, body, i2);
    b.phi_add_incoming(acc, body, acc2);
    let more = b.icmp_slt(i2, Operand::i64(ALU_ITERS));
    b.cond_br(more, body, exit);
    b.switch_to(exit);
    let slot = b.gep(out, gid, 8);
    b.store(Ty::I64, slot, acc2);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    if let Err(e) = nzomp_ir::verify_module(&m) {
        unreachable!("alu workload must verify: {e}");
    }
    m
}

/// The control-flow workload: the same LCG mixer, but each round takes a
/// data-dependent branch on the mixed value's parity — the two sides
/// xorshift by different amounts and re-merge through a phi. Three taken
/// branches per round (two of them phi-carrying), the shape where the
/// interpreter's per-jump work (target lookup, phi scan, a fresh move
/// buffer) dominates and bytecode's pre-resolved edges shine.
fn branchy_module() -> Module {
    let mut m = Module::new("branchy");
    let mut b = FuncBuilder::new("branchy", vec![Ty::Ptr], None);
    let entry = b.current_block();
    let out = b.param(0);
    let tid = b.thread_id();
    let team = b.block_id();
    let bdim = b.block_dim();
    let scaled = b.mul(team, bdim);
    let gid = b.add(scaled, tid);
    let head = b.new_block();
    let even = b.new_block();
    let odd = b.new_block();
    let join = b.new_block();
    let exit = b.new_block();
    b.br(head);
    b.switch_to(head);
    let i = b.phi(Ty::I64, vec![(entry, Operand::i64(0))]);
    let acc = b.phi(Ty::I64, vec![(entry, gid)]);
    let mixed = b.mul(acc, Operand::i64(6364136223846793005));
    let mixed = b.add(mixed, Operand::i64(1442695040888963407));
    let parity = b.bin(BinOp::And, Ty::I64, mixed, Operand::i64(1));
    let is_even = b.icmp_eq(parity, Operand::i64(0));
    b.cond_br(is_even, even, odd);
    b.switch_to(even);
    let es = b.bin(BinOp::LShr, Ty::I64, mixed, Operand::i64(17));
    let ev = b.bin(BinOp::Xor, Ty::I64, mixed, es);
    b.br(join);
    b.switch_to(odd);
    let os = b.bin(BinOp::LShr, Ty::I64, mixed, Operand::i64(13));
    let ov = b.bin(BinOp::Xor, Ty::I64, mixed, os);
    b.br(join);
    b.switch_to(join);
    let acc2 = b.phi(Ty::I64, vec![(even, ev), (odd, ov)]);
    let i2 = b.add(i, Operand::i64(1));
    b.phi_add_incoming(i, join, i2);
    b.phi_add_incoming(acc, join, acc2);
    let more = b.icmp_slt(i2, Operand::i64(BRANCHY_ITERS));
    b.cond_br(more, head, exit);
    b.switch_to(exit);
    let slot = b.gep(out, gid, 8);
    b.store(Ty::I64, slot, acc2);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    if let Err(e) = nzomp_ir::verify_module(&m) {
        unreachable!("branchy workload must verify: {e}");
    }
    m
}

/// One sweep point: median launch wall time plus the artifacts the
/// bit-identity check compares.
struct Point {
    wall_ns: u128,
    out_bits: Vec<u64>,
    metrics: KernelMetrics,
    global: Vec<u8>,
}

/// A workload instance pinned to one tier, ready to launch repeatedly.
struct Prepared {
    dev: Device,
    kernel: String,
    launch: Launch,
    args: Vec<RtVal>,
    out: nzomp_vgpu::DevPtr,
    out_len: usize,
}

/// Warm up each tier once (pages in code paths; on the bytecode tier
/// performs the one-time lowering), then time launches individually and
/// keep each tier's median. Reps are *interleaved* across tiers — one
/// interp launch, one bytecode launch, repeat — so both tiers sample the
/// same background-load profile; back-to-back sweeps on a shared host let
/// load drift between them bias the ratio.
fn time_tiers(mut benches: Vec<(&'static str, Prepared)>, reps: u32) -> Vec<(&'static str, Point)> {
    for (_, b) in benches.iter_mut() {
        b.dev
            .launch(&b.kernel, b.launch, &b.args)
            .expect("warm-up launch");
    }
    let mut laps: Vec<Vec<u128>> = benches
        .iter()
        .map(|_| Vec::with_capacity(reps as usize))
        .collect();
    let mut metrics: Vec<Option<KernelMetrics>> = benches.iter().map(|_| None).collect();
    for _ in 0..reps {
        for (bi, (_, b)) in benches.iter_mut().enumerate() {
            let start = Instant::now();
            metrics[bi] = Some(b.dev.launch(&b.kernel, b.launch, &b.args).expect("bench launch"));
            laps[bi].push(start.elapsed().as_nanos());
        }
    }
    benches
        .into_iter()
        .enumerate()
        .map(|(bi, (name, b))| {
            laps[bi].sort_unstable();
            let out_bits = b
                .dev
                .read_f64(b.out, b.out_len)
                .expect("readback")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let point = Point {
                wall_ns: laps[bi][laps[bi].len() / 2],
                out_bits,
                metrics: metrics[bi].take().expect("at least one rep"),
                global: b.dev.global_bytes().to_vec(),
            };
            (name, point)
        })
        .collect()
}

fn prepare_rsbench(module: &nzomp_ir::Module, p: &dyn Proxy, tier: ExecTier) -> Prepared {
    let mut dev = Device::load(module.clone(), eval_device());
    dev.set_worker_threads(1);
    dev.set_exec_tier(tier);
    let prep = p.prepare(&mut dev);
    Prepared {
        dev,
        kernel: p.kernel_name().to_string(),
        launch: prep.launch,
        args: prep.args,
        out: prep.out_ptr,
        out_len: prep.expected.len(),
    }
}

fn prepare_kernel(module: &Module, kernel: &str, tier: ExecTier) -> Prepared {
    let mut dev = Device::load(module.clone(), eval_device());
    dev.set_worker_threads(1);
    dev.set_exec_tier(tier);
    let n = (TEAMS * THREADS) as usize;
    let buf = dev.alloc(n as u64 * 8);
    Prepared {
        dev,
        kernel: kernel.to_string(),
        launch: Launch::new(TEAMS, THREADS),
        args: vec![RtVal::P(buf)],
        out: buf,
        out_len: n,
    }
}

/// Bit-identity cross-check plus the printed table; returns
/// `(identical, bytecode speedup)`.
fn report(label: &str, points: &[(&str, Point)]) -> (bool, f64) {
    let (_, base) = &points[0];
    let mut ok = true;
    for (name, pt) in &points[1..] {
        if pt.out_bits != base.out_bits {
            eprintln!("FAIL[{label}]: output bits diverge on the {name} tier");
            ok = false;
        }
        if pt.metrics != base.metrics {
            eprintln!("FAIL[{label}]: metrics diverge on the {name} tier");
            ok = false;
        }
        if pt.global != base.global {
            eprintln!("FAIL[{label}]: global memory diverges on the {name} tier");
            ok = false;
        }
    }

    println!("\n{label}: single-thread throughput by tier");
    let rows: Vec<ExecTierRow> = points
        .iter()
        .map(|(name, pt)| ExecTierRow {
            tier: (*name).to_string(),
            wall_ns: pt.wall_ns,
            instructions: pt.metrics.instructions,
            dispatched: pt.metrics.dispatched,
        })
        .collect();
    print!("{}", exec_tier_table(&rows));

    let speedup = exec_tier_speedups(&rows)
        .iter()
        .find(|(t, _)| t == "bytecode")
        .and_then(|(_, s)| *s)
        .unwrap_or(0.0);
    (ok, speedup)
}

fn main() -> ExitCode {
    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);
    let p = proxy();
    let cfg = BuildConfig::NewRtNoAssumptions;
    let module = compile_for_config(&p, cfg).expect("compile").module;
    let alu = alu_module();
    let branchy = branchy_module();

    println!(
        "exec_tier: {TEAMS} teams of {THREADS} threads, {reps} reps, 1 worker\n\
         workloads: rsbench x{} lookups ({cfg:?}), alu-loop x{ALU_ITERS} iters, \
         branchy x{BRANCHY_ITERS} iters",
        p.n_lookups,
    );

    let rs_points = time_tiers(
        TIERS
            .iter()
            .map(|&(tier, name)| (name, prepare_rsbench(&module, &p, tier)))
            .collect(),
        reps,
    );
    let alu_points = time_tiers(
        TIERS
            .iter()
            .map(|&(tier, name)| (name, prepare_kernel(&alu, "alu", tier)))
            .collect(),
        reps,
    );
    let br_points = time_tiers(
        TIERS
            .iter()
            .map(|&(tier, name)| (name, prepare_kernel(&branchy, "branchy", tier)))
            .collect(),
        reps,
    );

    let (rs_ok, rs_speedup) = report("rsbench", &rs_points);
    let (alu_ok, alu_speedup) = report("alu-loop", &alu_points);
    let (br_ok, br_speedup) = report("branchy", &br_points);

    if rs_ok && alu_ok && br_ok {
        println!(
            "\nOK: bit-identical across tiers; bytecode speedup {rs_speedup:.2}x (rsbench), \
             {alu_speedup:.2}x (alu-loop), {br_speedup:.2}x (branchy)"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
