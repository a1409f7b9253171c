//! The compile pipeline: application module → runtime link → optimization.
//!
//! Mirrors §II-B: "the GPU runtime library is first linked into the user
//! code as an LLVM bytecode library and then optimized together with the
//! user application", followed by loading the result onto the (virtual)
//! device.
//!
//! Every stage reports failure as a typed [`CompileError`] rather than a
//! process abort, so hosts (and the differential harness) can treat a bad
//! module the same way they treat a device trap: inspect, log, continue.

use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use nzomp_ir::link::LinkError;
use nzomp_ir::verify::VerifyError;
use nzomp_ir::Module;
use nzomp_opt::{optimize_module_timed, PassOptions, PassTimings, Remarks};
use nzomp_rt::{build_runtime, RtConfig};

use crate::config::BuildConfig;

/// Result of compiling an application module under a configuration.
pub struct CompileOutput {
    /// The linked, optimized device image. Shared (not copied) with every
    /// device prepared from it.
    pub module: Arc<Module>,
    /// Optimization remarks (`-Rpass[-missed]=openmp-opt`).
    pub remarks: Remarks,
    /// Per-pass profile and analysis-cache counters from the optimizer
    /// (the `-ftime-report` analogue; render with
    /// [`crate::report::compile_stats_table`]).
    pub timings: PassTimings,
}

/// Why the pipeline refused to produce a device image.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Linking the runtime library into the application failed
    /// (duplicate symbols, signature mismatches).
    Link(LinkError),
    /// The module failed verification — either straight after the link
    /// (malformed input) or after optimization (a broken pass). The stage
    /// name distinguishes the two.
    Verify { stage: &'static str, err: VerifyError },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Link(e) => write!(f, "runtime link failed: {e}"),
            CompileError::Verify { stage, err } => {
                write!(f, "module failed verification after {stage}: {err}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LinkError> for CompileError {
    fn from(e: LinkError) -> CompileError {
        CompileError::Link(e)
    }
}

/// Compile `app` under `config` (release mode, no debug features).
pub fn compile(app: Module, config: BuildConfig) -> Result<CompileOutput, CompileError> {
    compile_with(app, config, config.rt_config(), config.pass_options())
}

/// The front half of [`compile_with`]: link the runtime library into `app`
/// and verify the result, without optimizing. Used by the `compile_profile`
/// harness to obtain the optimizer's true input.
pub fn link_only(
    mut app: Module,
    config: BuildConfig,
    rt_cfg: &RtConfig,
) -> Result<Module, CompileError> {
    if let Some(flavor) = config.runtime() {
        // Kernels that globalize variables under the legacy runtime get the
        // data-sharing stack reserved (the Old-RT SMem delta of Fig. 11).
        let needs_ds = app
            .find_func(nzomp_rt::abi::OLD_DATA_SHARING_PUSH)
            .is_some();
        let rt = build_runtime(flavor, rt_cfg, needs_ds);
        nzomp_ir::link::link(&mut app, rt)?;
    }
    // Link-time verification: catch malformed input (e.g. a phi missing an
    // incoming for one of its predecessors) before it reaches the
    // optimizer or the device.
    nzomp_ir::verify_module(&app).map_err(|err| CompileError::Verify { stage: "link", err })?;
    Ok(app)
}

/// Compile with explicit runtime configuration and pass options (used for
/// debug builds and the Fig. 13 ablations).
pub fn compile_with(
    app: Module,
    config: BuildConfig,
    rt_cfg: RtConfig,
    mut opts: PassOptions,
) -> Result<CompileOutput, CompileError> {
    let mut app = link_only(app, config, &rt_cfg)?;
    // Debug builds must keep assumptions (they are runtime-checked, §III-G).
    if rt_cfg.debug_kind != 0 {
        opts.drop_assumes = false;
    }
    let (remarks, timings) = optimize_module_timed(&mut app, &opts);
    // With NZOMP_VERIFY_EACH_PASS=1 the optimizer verified after every
    // pass; a failure there names the offending pass instead of the
    // generic "optimization" stage below.
    if let Some(vf) = &timings.verify_failure {
        return Err(CompileError::Verify {
            stage: vf.pass,
            err: vf.err.clone(),
        });
    }
    nzomp_ir::verify_module(&app)
        .map_err(|err| CompileError::Verify { stage: "optimization", err })?;
    Ok(CompileOutput {
        module: Arc::new(app),
        remarks,
        timings,
    })
}

/// Structural fingerprint of a module: FNV-1a over its printed IR. Two
/// modules with the same print are the same compilation input, so the
/// fingerprint buckets the [`CompileCache`]; equal printed IR decides a
/// match within the bucket.
pub fn module_fingerprint(m: &Module) -> u64 {
    fnv1a(nzomp_ir::printer::print_module(m).as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One compiled image and the application module it was compiled from.
struct CacheEntry {
    /// The caller's `Rc`, kept when the caller still held a handle to it
    /// — only then can the same `Rc` be presented again. Holding it keeps
    /// its address from being reused by another module. A module the
    /// caller gave away is compiled in place and not kept.
    shared: Option<Rc<Module>>,
    /// The printed IR of the source: what the fingerprint hashes, and
    /// what a fingerprint match must equal.
    text: String,
    fingerprint: u64,
    config: BuildConfig,
    out: Rc<CompileOutput>,
}

/// Memoized compile pipeline: repeated compilations of the same
/// application module under the same [`BuildConfig`] skip the link +
/// optimization pipeline entirely and share one [`CompileOutput`].
///
/// This is the host runtime's recompile eliminator: every launch of an
/// already-registered kernel image must cost a table lookup, not an
/// optimizer run (the `offload_overhead` bench asserts the hit counter).
/// A lookup first matches the very same `Rc<Module>` (a pointer compare,
/// no print, no clone); only a module it has not seen by identity is
/// printed, fingerprinted and compared by its printed IR.
#[derive(Default)]
pub struct CompileCache {
    entries: Vec<CacheEntry>,
    /// Compilations served from the cache.
    pub hits: u64,
    /// Compilations that ran the real pipeline.
    pub misses: u64,
}

impl CompileCache {
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// Compile `app` under `config`, reusing a previous output when the
    /// same module — by identity, or else by fingerprint and equal
    /// printed IR — was compiled under `config` before.
    pub fn compile(
        &mut self,
        app: impl Into<Rc<Module>>,
        config: BuildConfig,
    ) -> Result<Rc<CompileOutput>, CompileError> {
        let app = app.into();
        let by_identity = self.entries.iter().find(|e| {
            e.config == config && e.shared.as_ref().is_some_and(|s| Rc::ptr_eq(s, &app))
        });
        if let Some(e) = by_identity {
            self.hits += 1;
            return Ok(Rc::clone(&e.out));
        }
        let mut text = nzomp_ir::printer::print_module(&app);
        let fingerprint = fnv1a(text.as_bytes());
        let by_content = self
            .entries
            .iter()
            .find(|e| e.fingerprint == fingerprint && e.config == config && e.text == text);
        if let Some(e) = by_content {
            self.hits += 1;
            return Ok(Rc::clone(&e.out));
        }
        self.misses += 1;
        let (module, shared) = match Rc::try_unwrap(app) {
            Ok(m) => (m, None),
            Err(shared) => ((*shared).clone(), Some(shared)),
        };
        let out = Rc::new(compile(module, config)?);
        text.shrink_to_fit();
        self.entries.push(CacheEntry {
            shared,
            text,
            fingerprint,
            config,
            out: Rc::clone(&out),
        });
        Ok(out)
    }

    /// Number of distinct compiled images held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nzomp_ir::{ExecMode, FuncBuilder, Operand, Ty};

    /// A one-kernel application module whose kernel stores `value`.
    fn app(name: &str, value: i64) -> Module {
        let mut m = Module::new(name);
        let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
        let p = b.param(0);
        b.store(Ty::I64, p, Operand::i64(value));
        b.ret(None);
        let f = m.add_function(b.finish());
        m.add_kernel(f, ExecMode::Spmd);
        m
    }

    #[test]
    fn fingerprint_collision_misses_and_compiles_the_new_module() {
        let config = BuildConfig::Cuda;
        let (a, b) = (app("a", 1), app("b", 2));
        assert_ne!(a, b);
        let mut cache = CompileCache::new();
        let planted = cache.compile(a.clone(), config).unwrap();
        // Plant A's output under B's fingerprint: a 64-bit collision.
        cache.entries.push(CacheEntry {
            shared: None,
            text: nzomp_ir::printer::print_module(&a),
            fingerprint: module_fingerprint(&b),
            config,
            out: Rc::clone(&planted),
        });
        let (hits, misses) = (cache.hits, cache.misses);
        let out = cache.compile(b.clone(), config).unwrap();
        assert!(!Rc::ptr_eq(&out, &planted), "collision returned the planted image");
        assert_eq!((cache.hits, cache.misses), (hits, misses + 1));
        let expected = compile(b, config).unwrap();
        assert_eq!(*out.module, *expected.module);
    }

    #[test]
    fn identity_and_content_lookups_hit() {
        let config = BuildConfig::Cuda;
        let mut cache = CompileCache::new();
        let src = Rc::new(app("a", 1));
        let first = cache.compile(Rc::clone(&src), config).unwrap();
        let again = cache.compile(Rc::clone(&src), config).unwrap();
        let by_content = cache.compile((*src).clone(), config).unwrap();
        assert!(Rc::ptr_eq(&first, &again) && Rc::ptr_eq(&first, &by_content));
        assert_eq!((cache.hits, cache.misses, cache.len()), (2, 1, 1));
    }
}
