//! Pieces every workload uses: the seeded generator and the direct
//! `Device` probes the traced runs time kernels with.

use std::time::Instant;

use nzomp_ir::Module;
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, ExecTier, RtVal};

use crate::stats::{median, us};

/// xorshift64*: the benchmark's only entropy source, so every input is
/// a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5e12_7e5d_0bad_cafe)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Median wall time in µs of `reps` launches of `kernel` on `tier`, after
/// one warm-up launch (which also lowers bytecode). Traps count too: the
/// time to reach the trap is the launch's cost.
pub fn launch_p50_us(
    dev: &mut Device,
    kernel: &str,
    launch: Launch,
    args: &[RtVal],
    tier: ExecTier,
    reps: usize,
) -> f64 {
    dev.set_exec_tier(tier);
    let _ = dev.launch(kernel, launch, args);
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let _ = std::hint::black_box(dev.launch(kernel, launch, args));
        t.push(us(t0.elapsed()));
    }
    median(&t)
}

/// Bytecode lowering cost in µs: the first bytecode launch after a
/// `Device::load` minus a steady bytecode launch, median over `trials`.
pub fn lower_us(
    module: &Module,
    cfg: &DeviceConfig,
    kernel: &str,
    launch: Launch,
    prep: impl Fn(&mut Device) -> Vec<RtVal>,
    trials: usize,
) -> f64 {
    let mut deltas = Vec::with_capacity(trials);
    for _ in 0..trials {
        let mut dev = Device::load(module.clone(), cfg.clone());
        dev.set_exec_tier(ExecTier::Bytecode);
        let args = prep(&mut dev);
        let t0 = Instant::now();
        let _ = std::hint::black_box(dev.launch(kernel, launch, &args));
        let first = us(t0.elapsed());
        let steady = launch_p50_us(&mut dev, kernel, launch, &args, ExecTier::Bytecode, 3);
        deltas.push(first - steady);
    }
    median(&deltas)
}
