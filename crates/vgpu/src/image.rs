//! The device image: everything about a loaded module that is a pure
//! function of the module itself, prepared once and shared by every
//! [`crate::Device`] that runs it.
//!
//! A real driver loads a cubin once and launches it many times; register
//! count and static shared memory are properties of the compiled image
//! (paper Fig. 11), fixed by the back end. Likewise here: the global
//! layout, the sanitizer's static ranges, the lowered bytecode and the
//! per-kernel register estimate are computed at most once per image, no
//! matter how many devices bind it, how often a slot rebinds it, or how
//! many failover replacements replay onto it.

use std::sync::{Arc, OnceLock};

use nzomp_ir::analysis::callgraph::CallGraph;
use nzomp_ir::analysis::liveness;
use nzomp_ir::module::FuncRef;
use nzomp_ir::{Module, Space};

use crate::bytecode::{lower_module, BcModule};
use crate::interp::GlobalLayout;
use crate::memory::{DevPtr, Segment};
use crate::sanitize::{self, COND_WRITE_SINK};

/// A module prepared for execution. `Send + Sync`: devices on any thread
/// share one `Arc<DeviceImage>`.
pub struct DeviceImage {
    module: Arc<Module>,
    layout: GlobalLayout,
    /// Shared-space ranges the sanitizer must not check: the cond-write
    /// sink (`__omp_rtl_dummy`), whose concurrent plain stores are the
    /// deliberate Fig. 7b idiom, and the benign team-state flag.
    suppress_shared: Vec<(u64, u64)>,
    /// Function indices of the allocator release entry points
    /// ([`sanitize::REGION_RELEASE_FNS`]) — the sanitizer retires the
    /// shadow of released ranges.
    release_fns: Vec<u32>,
    /// Bytecode, lowered on the first bytecode launch of any device.
    bc: OnceLock<Arc<BcModule>>,
    /// Registers per thread of each function when launched as a kernel,
    /// estimated on its first launch.
    regs: Vec<OnceLock<u32>>,
}

impl DeviceImage {
    /// Lay out the globals of `module` and collect its static sanitizer
    /// ranges. Bytecode and register estimates are left for first use.
    pub fn new(module: impl Into<Arc<Module>>) -> DeviceImage {
        let module = module.into();
        let mut layout = GlobalLayout {
            addr_of: Vec::with_capacity(module.globals.len()),
            ..GlobalLayout::default()
        };
        let mut global_top: u64 = 0;
        let mut shared_top: u64 = 0;
        let mut const_top: u64 = 0;
        for g in &module.globals {
            let align = 8u64;
            match g.space {
                Space::Global => {
                    global_top = (global_top + align - 1) & !(align - 1);
                    layout.addr_of.push(DevPtr::global(global_top as u32));
                    global_top += g.size;
                }
                Space::Shared => {
                    shared_top = (shared_top + align - 1) & !(align - 1);
                    layout.addr_of.push(DevPtr::shared(shared_top as u32));
                    shared_top += g.size;
                }
                Space::Constant => {
                    const_top = (const_top + align - 1) & !(align - 1);
                    layout.addr_of.push(DevPtr::constant(const_top as u32));
                    const_top += g.size;
                }
                Space::Local => {
                    // Local-space globals make no sense; treat as shared so
                    // they at least have storage.
                    shared_top = (shared_top + align - 1) & !(align - 1);
                    layout.addr_of.push(DevPtr::shared(shared_top as u32));
                    shared_top += g.size;
                }
            }
        }
        layout.shared_size = shared_top;
        layout.global_static_size = global_top;
        layout.const_size = const_top;

        let suppress_shared = module
            .globals
            .iter()
            .zip(&layout.addr_of)
            .filter(|(_, addr)| addr.segment() == Segment::Shared)
            .filter_map(|(g, addr)| match g.name.as_str() {
                // The cond-write sink (Fig. 7b): every byte is benign.
                COND_WRITE_SINK => Some((addr.offset(), g.size)),
                // Team state: only the idempotent `HasThreadState` flag.
                sanitize::TEAM_STATE => {
                    let (field_off, len) = sanitize::TEAM_STATE_BENIGN_FIELD;
                    Some((addr.offset() + field_off, len))
                }
                _ => None,
            })
            .collect();
        let release_fns = sanitize::release_fn_ids(&module);
        let regs = module.funcs.iter().map(|_| OnceLock::new()).collect();
        DeviceImage {
            module,
            layout,
            suppress_shared,
            release_fns,
            bc: OnceLock::new(),
            regs,
        }
    }

    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    pub(crate) fn layout(&self) -> &GlobalLayout {
        &self.layout
    }

    pub(crate) fn suppress_shared(&self) -> &[(u64, u64)] {
        &self.suppress_shared
    }

    pub(crate) fn release_fns(&self) -> &[u32] {
        &self.release_fns
    }

    /// The bytecode image, lowering it on first use.
    pub(crate) fn bytecode(&self) -> &Arc<BcModule> {
        self.bc
            .get_or_init(|| Arc::new(lower_module(&self.module, &self.layout)))
    }

    /// Whether both images hold one and the same lowered bytecode. False
    /// while either has not been lowered yet.
    pub fn shares_bytecode(&self, other: &DeviceImage) -> bool {
        match (self.bc.get(), other.bc.get()) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Registers per thread of `kernel`. Registers are allocated for the
    /// whole call tree on a GPU (no real call stack): the maximum
    /// estimate over every defined function reachable from the kernel.
    pub(crate) fn kernel_regs(&self, kernel: FuncRef) -> u32 {
        let estimate = || {
            let m = &*self.module;
            CallGraph::build(m)
                .reachable_from(m, &[kernel])
                .into_iter()
                .map(|fr| m.func(fr))
                .filter(|f| !f.is_declaration())
                .map(liveness::register_estimate)
                .max()
                .unwrap_or_else(|| liveness::register_estimate(m.func(kernel)))
        };
        match self.regs.get(kernel.0 as usize) {
            Some(cell) => *cell.get_or_init(estimate),
            None => estimate(),
        }
    }
}

// Devices on worker threads share one image.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<DeviceImage>();
};
