//! Shared fixtures of the host-runtime test suites: a tiny application
//! module (`out[i] = a[i] * 2 + i`) and its host reference.

use nzomp_front::{spmd_kernel_for, RuntimeFlavor};
use nzomp_ir::{Module, Operand, Ty};
use nzomp_vgpu::DeviceConfig;

/// An unlinked application module with one combined-directive kernel
/// `@k(ptr a, ptr out, i64 n)` — what `Host::load_image` compiles.
pub fn scale_add_app() -> Module {
    let mut m = Module::new("host_test_app");
    spmd_kernel_for(
        &mut m,
        RuntimeFlavor::Modern,
        "k",
        &[Ty::Ptr, Ty::Ptr, Ty::I64],
        |_b, p| p[2],
        |_m, b, iv, p| {
            let pa = b.gep(p[0], iv, 8);
            let x = b.load(Ty::F64, pa);
            let two = b.fmul(x, Operand::f64(2.0));
            let i_f = b.si_to_fp(iv);
            let v = b.fadd(two, i_f);
            let po = b.gep(p[1], iv, 8);
            b.store(Ty::F64, po, v);
        },
    );
    m
}

/// Host reference of [`scale_add_app`].
pub fn scale_add_expected(input: &[f64]) -> Vec<f64> {
    input
        .iter()
        .enumerate()
        .map(|(i, x)| x * 2.0 + i as f64)
        .collect()
}

/// Deterministic non-trivial input.
pub fn input(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64) * 0.5 - 3.0).collect()
}

pub fn quick() -> DeviceConfig {
    DeviceConfig {
        check_assumes: false,
        ..DeviceConfig::default()
    }
}

/// [`quick`] on the sequential engine, whatever `NZOMP_VGPU_THREADS` says.
pub fn quick_seq() -> DeviceConfig {
    DeviceConfig {
        worker_threads: 1,
        ..quick()
    }
}
