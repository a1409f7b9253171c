//! `proxy_offload`: the five paper proxies at `small()` size, each
//! compiled under New RT (New RT w/o Assumptions where the paper marks
//! New RT n/a) and under CUDA, launched round after round through the
//! host runtime.
//!
//! Execution dominates: team execution and the tier. The serve layer and
//! cache lookups are bypassed, and the modeled cycles are the paper's
//! Fig. 10/11 numbers. The loop runs the library's default worker count:
//! at 2 workers on a 2-core host the op tail spread 0.3–0.4 between runs,
//! above any bound the benchmark can hold. The traced run probes the
//! parallel engine at 2 workers instead (`par.*`).
//!
//! All ten images are compiled and bound in set-up, one device slot
//! each, and their host buffers are registered once. An op maps the
//! region's buffers, enqueues the launch, unmaps, and drains the stream:
//! the body of `Host::enqueue_region` + `sync` minus the buffer
//! registration, because the host keeps every registered buffer for its
//! lifetime and fresh ones per launch would make peak RSS grow with the
//! number of rounds a run completes.

use std::time::{Duration, Instant};

use nzomp::BuildConfig;
use nzomp_host::{BufId, Host, KArg, MapKind, MapSpec, RegionArg, StreamId};
use nzomp_proxies::{all_proxies, build_for_config, quick_device, verify_values, Proxy};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, ExecTier, KernelMetrics, RtVal};

use crate::pin::Pinner;
use crate::probe::{launch_p50_us, lower_us, Rng};
use crate::report::{EndToEnd, OpSample, Outcome as Tally, PROXIES};
use crate::stats::{geomean, median, peak_rss_mb, timed, us, Rollup};
use crate::RunResult;

/// One compiled, bound proxy image and its registered host buffers.
struct Image {
    proxy: usize,
    cfg: BuildConfig,
    kernel: &'static str,
    launch: Launch,
    kargs: Vec<KArg>,
    enters: Vec<MapSpec>,
    exits: Vec<MapSpec>,
    out: BufId,
    expected: Vec<f64>,
    tol: f64,
    xfer_bytes: u64,
}

struct Setup {
    proxies: Vec<Box<dyn Proxy>>,
    host: Host,
    stream: StreamId,
    images: Vec<Image>,
    code_insts: f64,
}

/// The OpenMP configuration of a proxy: New RT where its assumptions
/// hold, otherwise New RT without them.
pub(crate) fn omp_config(p: &dyn Proxy) -> BuildConfig {
    if p.supports_oversubscription() {
        BuildConfig::NewRt
    } else {
        BuildConfig::NewRtNoAssumptions
    }
}

fn setup() -> Result<Setup, String> {
    let proxies = all_proxies();
    let mut host = Host::new(quick_device(), 2 * proxies.len());
    let stream = host.stream();
    let mut images = Vec::new();
    let mut code = 0usize;
    for (pi, p) in proxies.iter().enumerate() {
        for cfg in [omp_config(p.as_ref()), BuildConfig::Cuda] {
            let img = host
                .load_image(build_for_config(p.as_ref(), cfg), cfg)
                .map_err(|e| e.to_string())?;
            let slot = images.len();
            host.bind_image(slot, img).map_err(|e| e.to_string())?;
            code += host
                .image(img)
                .ok_or("image vanished")?
                .module
                .live_inst_count();
            let hp = p.host_prepare();
            let mut img = Image {
                proxy: pi,
                cfg,
                kernel: p.kernel_name(),
                launch: hp.launch,
                kargs: Vec::new(),
                enters: Vec::new(),
                exits: Vec::new(),
                out: BufId(0),
                expected: hp.expected,
                tol: hp.tol,
                xfer_bytes: 0,
            };
            for (i, arg) in hp.args.into_iter().enumerate() {
                let (b, enter, exit) = match arg {
                    RegionArg::To(bytes) => {
                        let len = bytes.len() as u64;
                        img.xfer_bytes += len;
                        (
                            host.register_bytes(bytes),
                            (len, MapKind::To),
                            MapKind::Release,
                        )
                    }
                    RegionArg::From(len) => {
                        img.xfer_bytes += len;
                        (
                            host.register_zeros(len),
                            (len, MapKind::From),
                            MapKind::From,
                        )
                    }
                    RegionArg::Alloc(len) => (
                        host.register_zeros(len),
                        (len, MapKind::Alloc),
                        MapKind::Release,
                    ),
                    RegionArg::Scalar(v) => {
                        img.kargs.push(KArg::Val(v));
                        continue;
                    }
                };
                img.enters.push(MapSpec::whole(b, enter.0, enter.1));
                img.exits.push(MapSpec::whole(b, enter.0, exit));
                img.kargs.push(KArg::Buf(b));
                if i == hp.out_arg {
                    img.out = b;
                }
            }
            images.push(img);
        }
    }
    Ok(Setup {
        proxies,
        host,
        stream,
        images,
        code_insts: code as f64,
    })
}

/// Per-call wall times of one op, in µs.
struct OpTimes {
    map: f64,
    enqueue: f64,
    sync: f64,
}

/// Run image `i` once on its own slot: enter, launch, exit, drain.
fn op(s: &mut Setup, i: usize) -> Result<(Result<KernelMetrics, String>, OpTimes), String> {
    let img = &s.images[i];
    let t0 = Instant::now();
    for e in &img.enters {
        s.host
            .data_enter(s.stream, i, std::slice::from_ref(e))
            .map_err(|e| e.to_string())?;
    }
    let t1 = Instant::now();
    let ticket = s
        .host
        .enqueue_launch(s.stream, i, img.kernel, img.launch, &img.kargs)
        .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    s.host
        .data_exit(s.stream, i, &img.exits)
        .map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let drained = s.host.sync();
    let t4 = Instant::now();
    let times = OpTimes {
        map: us(t1 - t0) + us(t3 - t2),
        enqueue: us(t2 - t1),
        sync: us(t4 - t3),
    };
    let res = drained
        .and_then(|()| s.host.take_metrics(ticket))
        .map_err(|e| e.to_string());
    Ok((res, times))
}

/// Check image `i`'s output against its proxy's host reference.
fn check(s: &Setup, i: usize) -> bool {
    let img = &s.images[i];
    s.host
        .buf_f64(img.out)
        .is_ok_and(|got| verify_values(&got, &img.expected, img.tol).is_ok())
}

/// What the measured rounds gathered.
#[derive(Default)]
struct Loop {
    ops: Vec<OpSample>,
    tally: Tally,
    /// Cycles of each launch; every round must repeat round one.
    cycles: Vec<f64>,
    first_round: Vec<KernelMetrics>,
    rounds: u64,
    peak_rss_mb: f64,
}

/// Rounds until `budget` is spent, each launching the ten images in an
/// order drawn from the seed; `each(setup, image, times, round)` sees
/// every op's call times.
fn rounds(
    s: &mut Setup,
    rng: &mut Rng,
    budget: Duration,
    mut pin: Option<&mut Pinner>,
    mut each: impl FnMut(&mut Setup, usize, &OpTimes, u64),
) -> Result<Loop, String> {
    let mut l = Loop::default();
    let t0 = Instant::now();
    let n = s.images.len();
    while l.rounds == 0 || t0.elapsed() < budget {
        let mut order: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            order.swap(k, (rng.next() % (k as u64 + 1)) as usize);
        }
        let slice = match pin.as_mut() {
            Some(p) => p.tick()?,
            None => 0,
        };
        let mut round: Vec<Option<KernelMetrics>> = vec![None; n];
        for i in order {
            let (res, times) = op(s, i)?;
            let op_us = times.map + times.enqueue + times.sync;
            let insts = res.as_ref().map_or(0.0, |m| m.instructions as f64);
            l.ops.push(OpSample {
                slice,
                op_us,
                cycle_us: op_us,
                insts,
                sim_us: op_us,
            });
            each(s, i, &times, l.rounds);
            l.tally.attempted += 1;
            let ok = res.is_ok() && check(s, i);
            round[i] = res.ok();
            if !ok {
                l.tally.failed += 1;
                l.tally.wrong += 1;
            }
        }
        let round: Vec<KernelMetrics> = round.into_iter().flatten().collect();
        if l.rounds == 0 {
            l.first_round = round;
            l.peak_rss_mb = peak_rss_mb();
        } else if round.len() != l.first_round.len()
            || round
                .iter()
                .zip(&l.first_round)
                .any(|(a, b)| a.cycles != b.cycles || a.instructions != b.instructions)
        {
            l.tally.wrong += 1;
        }
        l.cycles
            .extend(l.first_round.iter().map(|m| m.cycles as f64));
        l.rounds += 1;
    }
    Ok(l)
}

/// Geomean over the proxies of OpenMP cycles / CUDA cycles.
fn overhead_vs_cuda(s: &Setup, round: &[KernelMetrics]) -> f64 {
    let cyc = |p: usize, cuda: bool| {
        s.images
            .iter()
            .zip(round)
            .find(|(img, _)| img.proxy == p && (img.cfg == BuildConfig::Cuda) == cuda)
            .map_or(0.0, |(_, m)| m.cycles as f64)
    };
    geomean(
        &(0..s.proxies.len())
            .map(|p| cyc(p, false) / cyc(p, true))
            .collect::<Vec<_>>(),
    )
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<RunResult, String> {
    let mut s = setup()?;
    let mut pin = Pinner::new(|| setup().map(drop));
    let dev0 = s.host.device(0).ok_or("slot 0 unbound")?;
    let (tier, workers) = (format!("{:?}", dev0.exec_tier()), dev0.worker_threads());
    let mut rng = Rng::new(seed);
    if trace {
        pin.release();
        return traced(&mut s, &mut rng, budget, tier, workers);
    }
    let l = rounds(&mut s, &mut rng, budget, Some(&mut pin), |_, _, _, _| ())?;
    let round_cycles: f64 = l.first_round.iter().map(|m| m.cycles as f64).sum();
    let e2e = EndToEnd {
        setup_s: pin.setup_s,
        peak_rss_mb: l.peak_rss_mb,
        ops: l.ops,
        lat_cyc: l.cycles,
        completed_per_mcycle: s.images.len() as f64 * 1e6 / round_cycles,
        overhead_vs_cuda: overhead_vs_cuda(&s, &l.first_round),
        kernel_mcycles: round_cycles / 1e6,
        code_insts: s.code_insts,
    };
    let mut notes = vec![format!(
        "proxy_offload: {} rounds x {} launches",
        l.rounds,
        s.images.len()
    )];
    for (img, m) in s.images.iter().zip(&l.first_round) {
        notes.push(format!(
            "  {:<9} {:<26} {:>8} cycles {:>9} insts",
            PROXIES[img.proxy],
            img.cfg.label(),
            m.cycles,
            m.instructions
        ));
    }
    Ok(RunResult {
        outcome: l.tally,
        end_to_end: Some(e2e),
        per_layer: Default::default(),
        rollup: None,
        tier,
        workers,
        notes,
    })
}

// ---- traced run -----------------------------------------------------------

/// The image loaded on a device of its own, with the proxy's inputs
/// uploaded directly: the reference a host `sync` is compared against.
fn side_device(s: &Setup, i: usize, workers: usize) -> Result<(Device, Vec<RtVal>), String> {
    let img = &s.images[i];
    let module = s.host.device(i).ok_or("slot unbound")?.module().clone();
    let mut dev = Device::load(module, quick_device());
    dev.set_worker_threads(workers);
    let prep = s.proxies[img.proxy].prepare(&mut dev);
    Ok((dev, prep.args))
}

/// Team-cycle list schedule onto `w` workers in team order: the modeled
/// speedup the parallel engine could reach on this launch.
fn model_speedup(team_cycles: &[u64], w: usize) -> f64 {
    let mut free = vec![0u64; w.max(1)];
    for &c in team_cycles {
        if let Some(f) = free.iter_mut().min() {
            *f += c;
        }
    }
    let span = free.iter().copied().max().unwrap_or(0);
    if span == 0 {
        return 1.0;
    }
    team_cycles.iter().sum::<u64>() as f64 / span as f64
}

fn traced(
    s: &mut Setup,
    rng: &mut Rng,
    budget: Duration,
    tier: String,
    workers: usize,
) -> Result<RunResult, String> {
    let mut sides = Vec::new();
    for i in 0..s.images.len() {
        sides.push(side_device(s, i, workers)?);
    }
    let mut roll = Rollup::new(&["host", "vgpu"]);
    let (mut map, mut enq, mut sync_self) = (Vec::new(), Vec::new(), Vec::new());
    let ops0 = s.host.ops_executed();
    // Even rounds run untraced, odd rounds add a direct launch after each
    // op, so both kinds share the host's changing speed.
    let (mut plain_us, mut plain_n, mut traced_us) = (0.0, 0usize, 0.0);
    let l = rounds(s, rng, budget, None, |s, i, t, round| {
        let op = t.map + t.enqueue + t.sync;
        if round % 2 == 0 {
            plain_us += op;
            plain_n += 1;
            return;
        }
        let img = &s.images[i];
        let (dev, args) = &mut sides[i];
        let (_, direct) =
            timed(|| std::hint::black_box(dev.launch(img.kernel, img.launch, args)).is_ok());
        let direct = us(direct);
        map.push(t.map);
        enq.push(t.enqueue);
        sync_self.push(t.sync - direct);
        roll.add("host", (op - direct) * 1e3);
        roll.add("vgpu", direct * 1e3);
        roll.ops += 1;
        traced_us += op + direct;
    })?;
    if roll.ops == 0 {
        return Err("the run was too short for a traced round".into());
    }
    roll.untraced_op_ns = plain_us * 1e3 / plain_n as f64;
    roll.traced_op_ns = traced_us * 1e3 / roll.ops as f64;
    let rounds_n = l.rounds as f64;

    let mut pl: Vec<(String, f64)> = vec![
        ("host.map_us_p50".into(), median(&map)),
        ("host.enqueue_us_p50".into(), median(&enq)),
        ("host.sync_self_us_p50".into(), median(&sync_self)),
        (
            "host.ops".into(),
            (s.host.ops_executed() - ops0) as f64 / rounds_n,
        ),
        (
            "host.xfer_bytes".into(),
            s.images.iter().map(|i| i.xfer_bytes as f64).sum(),
        ),
        (
            "vgpu.insts".into(),
            l.ops.iter().map(|o| o.insts).sum::<f64>() / l.ops.len().max(1) as f64,
        ),
    ];
    // The parallel engine is probed at 2 workers (never more than the
    // cores), apart from the measured loop.
    let par = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let mut loads = Vec::new();
    let mut lowers = Vec::new();
    for (pi, name) in PROXIES.iter().enumerate() {
        let Some(i) = s
            .images
            .iter()
            .position(|img| img.proxy == pi && img.cfg != BuildConfig::Cuda)
        else {
            continue;
        };
        let img = &s.images[i];
        let m = &l.first_round[i];
        let module = s.host.device(i).ok_or("slot unbound")?.module().clone();
        for _ in 0..3 {
            let (d, t) = timed(|| Device::load(module.clone(), quick_device()));
            drop(d);
            loads.push(us(t));
        }
        let proxy = &s.proxies[img.proxy];
        lowers.push(lower_us(
            &module,
            &quick_device(),
            img.kernel,
            img.launch,
            |d| proxy.prepare(d).args,
            3,
        ));
        let (dev, args) = &mut sides[i];
        for (t, tn) in [
            (ExecTier::Interp, "interp"),
            (ExecTier::Bytecode, "bytecode"),
        ] {
            pl.push((
                format!("vgpu.launch_us_p50.{name}.{tn}"),
                launch_p50_us(dev, img.kernel, img.launch, args, t, 5),
            ));
        }
        dev.set_worker_threads(1);
        let one = launch_p50_us(dev, img.kernel, img.launch, args, ExecTier::Interp, 5);
        dev.set_worker_threads(par);
        let many = launch_p50_us(dev, img.kernel, img.launch, args, ExecTier::Interp, 5);
        dev.set_worker_threads(workers);
        pl.push((format!("par.wall_speedup.{name}"), one / many));
        pl.push((
            format!("par.model_speedup.{name}"),
            model_speedup(&m.team_cycles, par),
        ));
        pl.push((format!("rt.calls.{name}"), m.runtime_calls as f64));
        pl.push((
            format!("rt.smem_bytes.{name}"),
            (m.smem_bytes + m.dyn_smem_bytes) as f64,
        ));
        pl.push((format!("rt.regs.{name}"), f64::from(m.regs_per_thread)));
    }
    pl.push(("vgpu.load_us_p50".into(), median(&loads)));
    pl.push(("vgpu.lower_us".into(), median(&lowers)));
    Ok(RunResult {
        outcome: l.tally,
        end_to_end: None,
        per_layer: pl.into_iter().collect(),
        rollup: Some(roll),
        tier,
        workers,
        notes: vec![format!(
            "proxy_offload traced: {} rounds, every other one traced",
            l.rounds
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order_and_modeled_results() {
        let mut a = setup().expect("set-up");
        let mut b = setup().expect("set-up");
        let la = rounds(
            &mut a,
            &mut Rng::new(5),
            Duration::ZERO,
            None,
            |_, _, _, _| (),
        )
        .expect("round");
        let lb = rounds(
            &mut b,
            &mut Rng::new(5),
            Duration::ZERO,
            None,
            |_, _, _, _| (),
        )
        .expect("round");
        assert_eq!(la.first_round, lb.first_round);
        assert_eq!(la.tally, lb.tally);
        assert_eq!(la.tally.wrong, 0, "every proxy matches its host reference");
        assert_eq!(
            overhead_vs_cuda(&a, &la.first_round),
            overhead_vs_cuda(&b, &lb.first_round)
        );
    }

    #[test]
    fn list_schedule_speedup() {
        assert_eq!(model_speedup(&[10, 10, 10, 10], 2), 2.0);
        assert_eq!(model_speedup(&[30, 10], 2), 40.0 / 30.0);
        assert_eq!(model_speedup(&[5], 2), 1.0);
    }
}
