//! `serve_mixed`: a seeded multi-tenant request stream through
//! `nzomp_serve::Serve`, 8 tenants on 4 devices.
//!
//! Arrivals are open loop in modeled time (gaps drawn from the seed,
//! independent of completions, so bursts queue up in the modeled fleet);
//! in wall time one caller submits in a closed loop. Tenants 0 and 1
//! update a persistent session buffer in place, so image switches force
//! evictions and placement forces migrations. No request is meant to
//! fail: there is no admission window or quota to reject one and no
//! kernel that traps, so a rejection or fault is a wrong outcome.
//!
//! Every kernel launch is tiny (one team of 16 threads), so the wall
//! time goes to admission, a compile-cache hit per dispatch, rebinds,
//! mapping, stream drain and the fixed per-launch cost.
//!
//! A pass is one fresh `Serve` fed the whole stream of [`REQUESTS`]
//! requests, generated lazily from the seed. Passes repeat until the
//! time is up; every pass must reproduce the first one's modeled
//! results exactly.

use std::rc::Rc;
use std::time::{Duration, Instant};

use nzomp::{compile, module_fingerprint, BuildConfig};
use nzomp_front::cuda::grid_stride_kernel;
use nzomp_front::{spmd_kernel_for, RuntimeFlavor};
use nzomp_host::{f64_bytes, i64_bytes, BufId, Host, ImageId, KArg, MapKind, MapSpec, StreamId};
use nzomp_ir::{print_module, FuncBuilder, Module, Operand, Ty};
use nzomp_serve::{
    Outcome, ReqArg, RequestSpec, SBuf, Serve, ServeConfig, ServeMetrics, TenantConfig, TenantId,
};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, ExecTier, RtVal};

use crate::pin::Pinner;
use crate::probe::{launch_p50_us, lower_us, Rng};
use crate::report::{EndToEnd, OpSample, Outcome as Tally};
use crate::stats::{median, peak_rss_mb, percentile, timed, us, Rollup};
use crate::RunResult;

/// Elements per request buffer.
const N: usize = 16;
const TENANTS: u32 = 8;
const DEVICES: usize = 4;
/// Requests per pass: enough completions for a p99 with a real tail.
pub const REQUESTS: usize = 8192;
/// Tenants holding a persistent session buffer.
const SESSION_TENANTS: [u32; 2] = [0, 1];
/// Distinct scale-kernel inputs a request can name.
const INPUTS: usize = 8;
const CONFIG: BuildConfig = BuildConfig::NewRtNoAssumptions;
/// Arrival gaps are drawn from `0..GAP` modeled cycles. The fleet
/// serves about one request per 32 cycles, so the mean gap of 40 keeps
/// it at about 80% load: the modeled queue stays bounded without an
/// admission window, bursts still queue (p99 latency twice the p50), and
/// about three quarters of the submits dispatch exactly one request, so
/// the median submit is always a one-dispatch submit.
const GAP: u64 = 80;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Scale,
    Session,
}

/// One generated request: when it arrives, whose it is, and its inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    pub at: u64,
    pub tenant: u32,
    pub kind: Kind,
    pub input: usize,
    pub delta: i64,
}

/// The request stream of one pass, generated one request at a time.
pub struct Stream {
    rng: Rng,
    at: u64,
    left: usize,
}

impl Stream {
    pub fn new(seed: u64, n: usize) -> Stream {
        Stream {
            rng: Rng::new(seed),
            at: 0,
            left: n,
        }
    }
}

impl Iterator for Stream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        self.left = self.left.checked_sub(1)?;
        self.at += self.rng.next() % GAP;
        let tenant = (self.rng.next() % u64::from(TENANTS)) as u32;
        let roll = self.rng.next() % 10;
        let kind = if SESSION_TENANTS.contains(&tenant) && roll < 6 {
            Kind::Session
        } else {
            Kind::Scale
        };
        let input = (self.rng.next() % INPUTS as u64) as usize;
        let delta = (self.rng.next() % 1000) as i64 - 500;
        Some(Req {
            at: self.at,
            tenant,
            kind,
            input,
            delta,
        })
    }
}

/// The scale kernel's inputs: quarter-integers, so `2*x+i` is exact.
fn inputs(seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed ^ 0x1_0000);
    (0..INPUTS)
        .map(|_| {
            (0..N)
                .map(|_| ((rng.next() % 2001) as f64 - 1000.0) * 0.25)
                .collect()
        })
        .collect()
}

fn session_init(tenant: u32) -> Vec<i64> {
    (0..N as i64).map(|i| i * i64::from(tenant + 1)).collect()
}

type Body = fn(&mut Module, &mut FuncBuilder, Operand, &[Operand]);

/// One kernel `kernel` over `p[2]` iterations: the OpenMP SPMD form, or
/// the native CUDA grid-stride form of the same body.
fn build(module: &str, kernel: &str, params: &[Ty], cuda: bool, body: Body) -> Module {
    let mut m = Module::new(module);
    let trip = |_: &mut FuncBuilder, p: &[Operand]| p[2];
    if cuda {
        grid_stride_kernel(&mut m, kernel, params, trip, body);
    } else {
        spmd_kernel_for(&mut m, RuntimeFlavor::Modern, kernel, params, trip, body);
    }
    m
}

fn scale_body(_: &mut Module, b: &mut FuncBuilder, iv: Operand, p: &[Operand]) {
    let x = b.gep(p[0], iv, 8);
    let x = b.load(Ty::F64, x);
    let two = b.fmul(x, Operand::f64(2.0));
    let i = b.si_to_fp(iv);
    let v = b.fadd(two, i);
    let out = b.gep(p[1], iv, 8);
    b.store(Ty::F64, out, v);
}

/// `s[i] = 3*s[i] + delta + i`: order-sensitive, so the host model
/// checks that updates landed in dispatch order.
fn session_body(_: &mut Module, b: &mut FuncBuilder, iv: Operand, p: &[Operand]) {
    let at = b.gep(p[0], iv, 8);
    let s = b.load(Ty::I64, at);
    let s3 = b.mul(s, Operand::i64(3));
    let v = b.add(s3, p[1]);
    let v = b.add(v, iv);
    b.store(Ty::I64, at, v);
}

fn session_model(s: &mut [i64], delta: i64) {
    for (i, x) in s.iter_mut().enumerate() {
        *x = x.wrapping_mul(3).wrapping_add(delta).wrapping_add(i as i64);
    }
}

fn launch() -> Launch {
    Launch::new(1, N as u32)
}

fn dev_cfg() -> DeviceConfig {
    DeviceConfig {
        check_assumes: false,
        ..DeviceConfig::default()
    }
}

/// Per-kind module, kernel name and the arguments of a direct launch on
/// a device of its own.
struct KernelSet {
    modules: [Rc<Module>; 2],
    names: [&'static str; 2],
}

impl KernelSet {
    fn new() -> KernelSet {
        KernelSet {
            modules: [
                Rc::new(build(
                    "serve_scale",
                    "scale",
                    &[Ty::Ptr, Ty::Ptr, Ty::I64],
                    false,
                    scale_body,
                )),
                Rc::new(build(
                    "serve_session",
                    "session",
                    &[Ty::Ptr, Ty::I64, Ty::I64],
                    false,
                    session_body,
                )),
            ],
            names: ["scale", "session"],
        }
    }

    fn idx(kind: Kind) -> usize {
        match kind {
            Kind::Scale => 0,
            Kind::Session => 1,
        }
    }

    /// Allocate a direct launch's buffers on `dev` and return its args.
    fn direct_args(kind: Kind, dev: &mut Device, x: &[f64]) -> Vec<RtVal> {
        match kind {
            Kind::Scale => vec![
                RtVal::P(dev.alloc_f64(x)),
                RtVal::P(dev.alloc(8 * N as u64)),
                RtVal::I(N as i64),
            ],
            Kind::Session => vec![
                RtVal::P(dev.alloc_i64(&session_init(0))),
                RtVal::I(7),
                RtVal::I(N as i64),
            ],
        }
    }
}

/// What set-up computes once: inputs, reference instruction counts and
/// the modeled comparison against the CUDA form.
struct Setup {
    kernels: KernelSet,
    inputs: Vec<Rc<Vec<u8>>>,
    x: Vec<Vec<f64>>,
    /// Simulated instructions of one completed launch, per kind.
    insts: [u64; 2],
    overhead_vs_cuda: f64,
    code_insts: f64,
}

fn direct_metrics(
    m: Module,
    cfg: BuildConfig,
    kind: Kind,
    x: &[f64],
) -> Result<nzomp_vgpu::KernelMetrics, String> {
    let out = compile(m, cfg).map_err(|e| e.to_string())?;
    let mut dev = Device::load(out.module, dev_cfg());
    let args = KernelSet::direct_args(kind, &mut dev, x);
    let name = KernelSet::new().names[KernelSet::idx(kind)];
    dev.launch(name, launch(), &args).map_err(|e| e.to_string())
}

fn setup(seed: u64) -> Result<Setup, String> {
    let kernels = KernelSet::new();
    let x = inputs(seed);
    let mut insts = [0u64; 2];
    let mut ratios = Vec::new();
    let mut code = 0usize;
    for (kind, body) in [
        (Kind::Scale, scale_body as Body),
        (Kind::Session, session_body as Body),
    ] {
        let i = KernelSet::idx(kind);
        code += compile((*kernels.modules[i]).clone(), CONFIG)
            .map_err(|e| e.to_string())?
            .module
            .live_inst_count();
        let omp = direct_metrics((*kernels.modules[i]).clone(), CONFIG, kind, &x[0])?;
        let params = [
            Ty::Ptr,
            if kind == Kind::Scale {
                Ty::Ptr
            } else {
                Ty::I64
            },
            Ty::I64,
        ];
        let cuda = direct_metrics(
            build("cuda", kernels.names[i], &params, true, body),
            BuildConfig::Cuda,
            kind,
            &x[0],
        )?;
        insts[i] = omp.instructions;
        ratios.push(omp.cycles as f64 / cuda.cycles as f64);
    }
    Ok(Setup {
        inputs: x.iter().map(|v| Rc::new(f64_bytes(v))).collect(),
        x,
        kernels,
        insts,
        overhead_vs_cuda: crate::stats::geomean(&ratios),
        code_insts: code as f64,
    })
}

fn serve_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(DEVICES);
    cfg.dev_cfg = dev_cfg();
    cfg.global_max_in_flight = usize::MAX;
    cfg.seed = seed;
    cfg
}

fn spec(s: &Setup, r: &Req, session: Option<SBuf>) -> RequestSpec {
    let k = KernelSet::idx(r.kind);
    let args = match (r.kind, session) {
        (Kind::Session, Some(sb)) => {
            vec![
                ReqArg::Session(sb),
                ReqArg::Scalar(RtVal::I(r.delta)),
                ReqArg::Scalar(RtVal::I(N as i64)),
            ]
        }
        _ => vec![
            ReqArg::In(s.inputs[r.input].clone()),
            ReqArg::Out(8 * N as u64),
            ReqArg::Scalar(RtVal::I(N as i64)),
        ],
    };
    RequestSpec {
        module: s.kernels.modules[k].clone(),
        config: CONFIG,
        kernel: s.kernels.names[k].to_string(),
        launch: launch(),
        args,
    }
}

/// The modeled results of a pass: must repeat bit for bit.
#[derive(Debug, PartialEq)]
struct Modeled {
    metrics: ServeMetrics,
    compile: (u64, u64),
    latency: Vec<u64>,
    queue_wait: Vec<u64>,
}

struct Pass {
    /// Slice of the run the pass ran in.
    slice: usize,
    submit_us: Vec<f64>,
    /// Wall µs from the previous submit's end to this one's; the pass's
    /// set-up lands on the first, the final drain on the last.
    cycle_us: Vec<f64>,
    /// Dispatches each submit (then the final drain) made.
    dispatches: Vec<u64>,
    drain_us: f64,
    modeled: Modeled,
    tally: Tally,
    sim_insts: u64,
    /// `(started, request index, device)` of every dispatched request.
    dispatched: Vec<(u64, usize, usize)>,
}

fn run_pass(s: &Setup, seed: u64) -> Result<Pass, String> {
    let t_loop = Instant::now();
    let mut serve = Serve::new(serve_config(seed));
    let mut sessions = Vec::new();
    for t in 0..TENANTS {
        let id = serve.add_tenant(&format!("t{t}"), TenantConfig::default());
        if SESSION_TENANTS.contains(&t) {
            sessions.push(
                serve
                    .session_map(id, i64_bytes(&session_init(t)))
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    let mut submit_us = Vec::with_capacity(REQUESTS);
    let mut cycle_us = Vec::with_capacity(REQUESTS);
    let mut last = t_loop;
    let mut dispatches = Vec::with_capacity(REQUESTS + 1);
    let mut seen = 0u64;
    for r in Stream::new(seed, REQUESTS) {
        let session = SESSION_TENANTS
            .iter()
            .position(|&t| t == r.tenant)
            .map(|i| sessions[i]);
        let spec = spec(s, &r, session);
        let t0 = Instant::now();
        serve
            .submit_at(r.at, TenantId(r.tenant), spec)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        submit_us.push(us(t1 - t0));
        cycle_us.push(us(t1 - last));
        last = t1;
        let (h, m) = serve.compile_stats();
        dispatches.push(h + m - seen);
        seen = h + m;
    }
    let (_, drain) = timed(|| serve.drain());
    let (h, m) = serve.compile_stats();
    dispatches.push(h + m - seen);
    if let Some(c) = cycle_us.last_mut() {
        *c += us(drain);
    }

    // ---- checks, outside the timed loop ---------------------------------
    let mut tally = Tally {
        attempted: REQUESTS as u64,
        ..Tally::default()
    };
    let mut model: Vec<Vec<i64>> = SESSION_TENANTS.iter().map(|&t| session_init(t)).collect();
    let mut latency = Vec::new();
    let mut queue_wait = Vec::new();
    let mut dispatched = Vec::new();
    let mut sim_insts = 0u64;
    for (i, r) in Stream::new(seed, REQUESTS).enumerate() {
        // Whether the request completed with the output the host
        // computes; a rejection or fault is a wrong outcome too.
        let ok = match (serve.outcomes().get(i).and_then(|o| o.as_ref()), r.kind) {
            (
                Some(Outcome::Completed {
                    device,
                    started,
                    finished,
                    outputs,
                    ..
                }),
                kind,
            ) => {
                latency.push(finished - r.at);
                queue_wait.push(started - r.at);
                dispatched.push((*started, i, *device));
                sim_insts += s.insts[KernelSet::idx(kind)];
                let ok = match kind {
                    Kind::Scale => {
                        let want: Vec<f64> = s.x[r.input]
                            .iter()
                            .enumerate()
                            .map(|(j, x)| 2.0 * x + j as f64)
                            .collect();
                        outputs.len() == 1 && outputs[0] == (1, f64_bytes(&want))
                    }
                    Kind::Session => {
                        let t = SESSION_TENANTS
                            .iter()
                            .position(|&t| t == r.tenant)
                            .unwrap_or(0);
                        session_model(&mut model[t], r.delta);
                        outputs.is_empty()
                    }
                };
                ok
            }
            _ => false,
        };
        tally.failed += u64::from(!ok);
        tally.wrong += u64::from(!ok);
    }
    for (k, &t) in SESSION_TENANTS.iter().enumerate() {
        let image = serve
            .session_image(TenantId(t))
            .map_err(|e| e.to_string())?;
        if image != vec![(0, i64_bytes(&model[k]))] {
            tally.wrong += 1;
        }
    }
    latency.sort_unstable();
    queue_wait.sort_unstable();
    dispatched.sort_unstable();
    Ok(Pass {
        slice: 0,
        submit_us,
        cycle_us,
        dispatches,
        drain_us: us(drain),
        modeled: Modeled {
            metrics: serve.metrics().clone(),
            compile: serve.compile_stats(),
            latency,
            queue_wait,
        },
        tally,
        sim_insts,
        dispatched,
    })
}

/// Passes until `budget` is spent (at least one). Each pass's modeled
/// results must equal the first's; a mismatch counts as a wrong output.
/// Also returns the peak RSS after the first pass: passes are
/// independent, so later ones only add the benchmark's own samples.
fn passes(
    s: &Setup,
    seed: u64,
    budget: Duration,
    mut pin: Option<&mut Pinner>,
    mut each: impl FnMut(&Pass) -> Result<(), String>,
) -> Result<(Vec<Pass>, Tally, f64), String> {
    let t0 = Instant::now();
    let mut out: Vec<Pass> = Vec::new();
    let mut tally = Tally::default();
    let mut rss = 0.0;
    while out.is_empty() || t0.elapsed() < budget {
        let slice = match pin.as_mut() {
            Some(p) => p.tick()?,
            None => 0,
        };
        let mut p = run_pass(s, seed)?;
        p.slice = slice;
        if out.is_empty() {
            rss = peak_rss_mb();
        }
        each(&p)?;
        if out.first().is_some_and(|f| f.modeled != p.modeled) {
            p.tally.wrong += 1;
        }
        tally.attempted += p.tally.attempted;
        tally.failed += p.tally.failed;
        tally.wrong += p.tally.wrong;
        // Keep the first pass whole and only the timings of the rest.
        if !out.is_empty() {
            p.modeled.latency = Vec::new();
            p.modeled.queue_wait = Vec::new();
            p.dispatched = Vec::new();
        }
        out.push(p);
    }
    Ok((out, tally, rss))
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<RunResult, String> {
    let s = setup(seed)?;
    let mut pin = Pinner::new(move || setup(seed).map(drop));
    let probe = Device::load(Module::new("probe"), dev_cfg());
    let (tier, workers) = (format!("{:?}", probe.exec_tier()), probe.worker_threads());

    if trace {
        pin.release();
        return traced(&s, seed, budget, tier, workers);
    }
    let (ps, tally, peak_rss_mb) = passes(&s, seed, budget, Some(&mut pin), |_| Ok(()))?;
    let first = &ps[0].modeled;
    let makespan = first.metrics.makespan_cycles as f64;
    // The simulated instructions of a pass, spread evenly over its
    // submits: a pass's launches run inside its submits and drain.
    let ops = ps
        .iter()
        .flat_map(|p| {
            let insts = p.sim_insts as f64 / p.submit_us.len() as f64;
            p.submit_us
                .iter()
                .zip(&p.cycle_us)
                .map(move |(&op_us, &cycle_us)| OpSample {
                    slice: p.slice,
                    op_us,
                    cycle_us,
                    insts,
                    sim_us: cycle_us,
                })
        })
        .collect();
    let e2e = EndToEnd {
        setup_s: pin.setup_s,
        peak_rss_mb,
        ops,
        lat_cyc: first.latency.iter().map(|&c| c as f64).collect(),
        completed_per_mcycle: first.metrics.completed as f64 * 1e6 / makespan,
        overhead_vs_cuda: s.overhead_vs_cuda,
        kernel_mcycles: makespan / 1e6,
        code_insts: s.code_insts,
    };
    let m = &first.metrics;
    Ok(RunResult {
        outcome: tally,
        end_to_end: Some(e2e),
        per_layer: Default::default(),
        rollup: None,
        tier,
        workers,
        notes: vec![format!(
            "serve_mixed: {} passes x {REQUESTS} requests; per pass {} completed, {} faulted, {} rejected ({} quota, {} saturated), {} evictions, {} migrations, compile {:?} (hits, misses)",
            ps.len(),
            m.completed,
            m.faulted,
            m.rejected(),
            m.rejected_quota,
            m.rejected_saturated,
            m.evictions,
            m.migrations,
            first.compile
        )],
    })
}

// ---- traced run -----------------------------------------------------------

/// Per-call samples of the replay, in µs.
#[derive(Default)]
struct Samples {
    hit: Vec<f64>,
    miss: Vec<f64>,
    fingerprint: Vec<f64>,
    print: Vec<f64>,
    bind: Vec<f64>,
    load: Vec<f64>,
    map: Vec<f64>,
    enqueue: Vec<f64>,
    sync_self: Vec<f64>,
    serve_self: Vec<f64>,
    binds: u64,
    xfer_bytes: u64,
    host_ops: u64,
}

/// Replays dispatched requests through the public `Host` API, timing
/// every call, plus a direct `Device::launch` of each launch for the
/// vgpu share of `sync`.
struct Replay<'a> {
    s: &'a Setup,
    host: Host,
    stream: StreamId,
    dev_image: Vec<Option<ImageId>>,
    /// Session buffer and residency, per session tenant.
    session: Vec<(BufId, Option<usize>)>,
    side: Vec<(Device, Vec<RtVal>)>,
}

impl<'a> Replay<'a> {
    fn new(s: &'a Setup) -> Result<Replay<'a>, String> {
        let mut host = Host::new(dev_cfg(), DEVICES);
        let stream = host.stream();
        let session = SESSION_TENANTS
            .iter()
            .map(|&t| (host.register_bytes(i64_bytes(&session_init(t))), None))
            .collect();
        let mut side = Vec::new();
        for kind in [Kind::Scale, Kind::Session] {
            let out = compile((*s.kernels.modules[KernelSet::idx(kind)]).clone(), CONFIG)
                .map_err(|e| e.to_string())?;
            let mut dev = Device::load(out.module, dev_cfg());
            let args = KernelSet::direct_args(kind, &mut dev, &s.x[0]);
            side.push((dev, args));
        }
        Ok(Replay {
            s,
            host,
            stream,
            dev_image: vec![None; DEVICES],
            session,
            side,
        })
    }

    /// Write a resident session buffer back and unmap it.
    fn evict(&mut self, dev: usize, k: usize, smp: &mut Samples) -> Result<f64, String> {
        let buf = self.session[k].0;
        let t0 = Instant::now();
        self.host
            .data_exit(
                self.stream,
                dev,
                &[MapSpec::whole(buf, 8 * N as u64, MapKind::ToFrom)],
            )
            .and_then(|()| self.host.sync())
            .map_err(|e| e.to_string())?;
        smp.xfer_bytes += 8 * N as u64;
        self.session[k].1 = None;
        Ok(us(t0.elapsed()))
    }

    /// Replay one request on `dev`; returns `(cache, ir, host, vgpu)` µs.
    fn request(&mut self, r: &Req, dev: usize, smp: &mut Samples) -> Result<[f64; 4], String> {
        let k = KernelSet::idx(r.kind);
        let module = self.s.kernels.modules[k].clone();
        let (fp, t_fp) = timed(|| module_fingerprint(&module));
        std::hint::black_box(fp);
        let (text, t_print) = timed(|| print_module(&module));
        drop(std::hint::black_box(text));
        smp.fingerprint.push(us(t_fp));
        smp.print.push(us(t_print));
        let app = (*module).clone();
        let misses = self.host.compile_stats().1;
        let (img, t_load_image) = timed(|| self.host.load_image(app, CONFIG));
        let img = img.map_err(|e| e.to_string())?;
        if self.host.compile_stats().1 > misses {
            smp.miss.push(us(t_load_image) / 1e3);
        } else {
            smp.hit.push(us(t_load_image));
        }
        let cache = us(t_load_image) - us(t_print);
        let ir = us(t_print);
        let mut host = 0.0;
        let mut vgpu = 0.0;

        let session = SESSION_TENANTS
            .iter()
            .position(|&t| t == r.tenant)
            .filter(|_| r.kind == Kind::Session);
        if self.dev_image[dev] != Some(img) {
            for sk in 0..self.session.len() {
                if self.session[sk].1 == Some(dev) {
                    host += self.evict(dev, sk, smp)?;
                }
            }
            let (b, t_bind) = timed(|| self.host.bind_image(dev, img));
            b.map_err(|e| e.to_string())?;
            let image = self.host.image(img).ok_or("image vanished")?.module.clone();
            let (d, t_dev) = timed(|| Device::load(image, dev_cfg()));
            drop(d);
            smp.bind.push(us(t_bind));
            smp.load.push(us(t_dev));
            smp.binds += 1;
            host += us(t_bind) - us(t_dev);
            vgpu += us(t_dev);
            self.dev_image[dev] = Some(img);
        }
        if let Some(sk) = session {
            if let Some(other) = self.session[sk].1.filter(|&d| d != dev) {
                host += self.evict(other, sk, smp)?;
            }
        }

        let t_map = Instant::now();
        let mut kargs = Vec::with_capacity(3);
        let mut exits = Vec::new();
        let mut out = None;
        let len = 8 * N as u64;
        let map = |host: &mut Host, b: BufId, kind: MapKind| {
            host.data_enter(self.stream, dev, &[MapSpec::whole(b, len, kind)])
                .map_err(|e| e.to_string())
        };
        match r.kind {
            Kind::Scale => {
                let b = self.host.register_bytes((*self.s.inputs[r.input]).clone());
                map(&mut self.host, b, MapKind::To)?;
                let o = self.host.register_zeros(len);
                map(&mut self.host, o, MapKind::From)?;
                exits.push(MapSpec::whole(b, len, MapKind::Release));
                exits.push(MapSpec::whole(o, len, MapKind::From));
                kargs.extend([KArg::Buf(b), KArg::Buf(o), KArg::Val(RtVal::I(N as i64))]);
                out = Some(o);
                smp.xfer_bytes += 2 * len;
            }
            Kind::Session => {
                let sk = session.ok_or("session request from a tenant without a session")?;
                let b = self.session[sk].0;
                if self.session[sk].1 != Some(dev) {
                    map(&mut self.host, b, MapKind::ToFrom)?;
                    self.session[sk].1 = Some(dev);
                    smp.xfer_bytes += len;
                }
                kargs.extend([
                    KArg::Buf(b),
                    KArg::Val(RtVal::I(r.delta)),
                    KArg::Val(RtVal::I(N as i64)),
                ]);
            }
        }
        let mut t_maps = us(t_map.elapsed());

        let (ticket, t_enq) = timed(|| {
            self.host
                .enqueue_launch(self.stream, dev, self.s.kernels.names[k], launch(), &kargs)
        });
        let ticket = ticket.map_err(|e| e.to_string())?;
        let (x, t_exit) = timed(|| self.host.data_exit(self.stream, dev, &exits));
        x.map_err(|e| e.to_string())?;
        t_maps += us(t_exit);

        let (synced, t_sync) = timed(|| self.host.sync());
        synced.map_err(|e| e.to_string())?;
        let t_sync = us(t_sync);
        let (side_dev, side_args) = &mut self.side[k];
        let (res, t_direct) =
            timed(|| side_dev.launch(self.s.kernels.names[k], launch(), side_args));
        std::hint::black_box(res.is_ok());
        let t_read = Instant::now();
        let _ = std::hint::black_box(self.host.take_metrics(ticket));
        if let Some(o) = out {
            let bytes = self
                .host
                .buf_bytes(o)
                .map(<[u8]>::to_vec)
                .map_err(|e| e.to_string())?;
            std::hint::black_box(bytes);
        }
        let t_read = us(t_read.elapsed());

        smp.map.push(t_maps);
        smp.enqueue.push(us(t_enq));
        smp.sync_self.push(t_sync - us(t_direct));
        host += t_maps + us(t_enq) + (t_sync - us(t_direct)) + t_read;
        vgpu += us(t_direct);
        Ok([cache, ir, host, vgpu])
    }
}

fn traced(
    s: &Setup,
    seed: u64,
    budget: Duration,
    tier: String,
    workers: usize,
) -> Result<RunResult, String> {
    // Even passes run untraced: the per-submit wall the layers must
    // explain. Odd passes are replayed call by call right after they ran,
    // so both kinds share the host's changing speed.
    let (mut plain_ops, mut plain_wall) = (0.0, 0.0);
    let mut roll = Rollup::new(&["serve", "cache", "ir", "host", "vgpu"]);
    let mut smp = Samples::default();
    let mut vgpu_insts = 0.0;
    let mut traced_wall = 0.0;
    let mut traced_passes = 0.0;
    let mut k = 0usize;
    let (ps, tally, _) = passes(s, seed, budget, None, |p| {
        k += 1;
        if k % 2 == 1 {
            plain_ops += p.submit_us.len() as f64;
            plain_wall += p.submit_us.iter().sum::<f64>() + p.drain_us;
            return Ok(());
        }
        traced_passes += 1.0;
        let t0 = Instant::now();
        let mut rp = Replay::new(s)?;
        let reqs: Vec<Req> = Stream::new(seed, REQUESTS).collect();
        // Requests replay in modeled start order; each submit (and the
        // final drain) is charged as many of them as it dispatched.
        let mut next = p.dispatched.iter();
        let walls = p
            .submit_us
            .iter()
            .copied()
            .chain(std::iter::once(p.drain_us));
        for (j, (wall, &n)) in walls.zip(&p.dispatches).enumerate() {
            let mut replayed = 0.0;
            for &(_, i, dev) in next.by_ref().take(n as usize) {
                let [cache, ir, host, vgpu] = rp.request(&reqs[i], dev, &mut smp)?;
                roll.add("cache", cache * 1e3);
                roll.add("ir", ir * 1e3);
                roll.add("host", host * 1e3);
                roll.add("vgpu", vgpu * 1e3);
                replayed += cache + ir + host + vgpu;
            }
            if j < p.submit_us.len() {
                smp.serve_self.push(wall - replayed);
            }
            roll.add("serve", (wall - replayed) * 1e3);
        }
        roll.ops += p.submit_us.len() as u64;
        smp.host_ops += rp.host.ops_executed();
        vgpu_insts += p.sim_insts as f64;
        traced_wall += p.submit_us.iter().sum::<f64>() + p.drain_us + us(t0.elapsed());
        Ok(())
    })?;
    if traced_passes == 0.0 {
        return Err("the run was too short for a traced pass".into());
    }
    roll.untraced_op_ns = plain_wall * 1e3 / plain_ops;
    roll.traced_op_ns = traced_wall * 1e3 / roll.ops as f64;
    let n = traced_passes;
    let first = &ps[0].modeled;
    let m = &first.metrics;
    let (hits, misses) = first.compile;
    let x0: Vec<f64> = s.x[0].clone();
    let scale = compile((*s.kernels.modules[0]).clone(), CONFIG)
        .map_err(|e| e.to_string())?
        .module;
    let mut dev = Device::load(scale.clone(), dev_cfg());
    let args = KernelSet::direct_args(Kind::Scale, &mut dev, &x0);
    let per_q = |v: &[u64], p: f64| percentile(&v.iter().map(|&c| c as f64).collect::<Vec<_>>(), p);
    let mut pl = vec![
        ("serve.self_us_p50".to_string(), median(&smp.serve_self)),
        (
            "serve.queue_wait_cyc_p50".into(),
            per_q(&first.queue_wait, 50.0)?,
        ),
        (
            "serve.queue_wait_cyc_p99".into(),
            per_q(&first.queue_wait, 99.0)?,
        ),
        ("serve.evictions".into(), m.evictions as f64),
        ("serve.migrations".into(), m.migrations as f64),
        ("cache.lookups".into(), (hits + misses) as f64),
        (
            "cache.hit_ratio".into(),
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("cache.hit_us_p50".into(), median(&smp.hit)),
        ("cache.fingerprint_us_p50".into(), median(&smp.fingerprint)),
        ("cache.miss_ms_p50".into(), median(&smp.miss)),
        ("ir.print_us_p50".into(), median(&smp.print)),
        ("host.binds".into(), smp.binds as f64 / n),
        ("host.bind_us_p50".into(), median(&smp.bind)),
        ("host.map_us_p50".into(), median(&smp.map)),
        ("host.enqueue_us_p50".into(), median(&smp.enqueue)),
        ("host.sync_self_us_p50".into(), median(&smp.sync_self)),
        ("host.ops".into(), smp.host_ops as f64 / n),
        ("host.xfer_bytes".into(), smp.xfer_bytes as f64 / n),
        ("vgpu.load_us_p50".into(), median(&smp.load)),
        ("vgpu.insts".into(), vgpu_insts / roll.ops.max(1) as f64),
        (
            "vgpu.lower_us".into(),
            lower_us(
                &scale,
                &dev_cfg(),
                "scale",
                launch(),
                |d| KernelSet::direct_args(Kind::Scale, d, &x0),
                20,
            ),
        ),
    ];
    for t in [ExecTier::Interp, ExecTier::Bytecode] {
        let name = if t == ExecTier::Interp {
            "interp"
        } else {
            "bytecode"
        };
        pl.push((
            format!("vgpu.launch_us_p50.scale.{name}"),
            launch_p50_us(&mut dev, "scale", launch(), &args, t, 200),
        ));
    }
    Ok(RunResult {
        outcome: tally,
        end_to_end: None,
        per_layer: pl.into_iter().collect(),
        rollup: Some(roll),
        tier,
        workers,
        notes: vec![format!(
            "serve_mixed traced: {} passes, every other one replayed; {} rebinds per pass in the replay",
            ps.len(),
            smp.binds as f64 / n
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_modeled_results() {
        let a: Vec<Req> = Stream::new(3, 500).collect();
        let b: Vec<Req> = Stream::new(3, 500).collect();
        assert_eq!(a, b);
        assert_ne!(a, Stream::new(4, 500).collect::<Vec<_>>());
        assert_eq!(inputs(3), inputs(3));
        let s = setup(3).expect("set-up");
        let p1 = run_pass(&s, 3).expect("pass");
        let p2 = run_pass(&s, 3).expect("pass");
        assert_eq!(p1.modeled, p2.modeled);
        assert_eq!(p1.tally, p2.tally);
        assert_eq!(p1.tally.wrong, 0, "every output check passes");
        let m = &p1.modeled.metrics;
        assert_eq!((m.faulted, m.rejected()), (0, 0), "{m:?}");
        assert!(m.evictions > 0 && m.migrations > 0, "{m:?}");
    }
}
