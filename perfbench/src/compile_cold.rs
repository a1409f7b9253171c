//! `compile_cold`: every distinct module compiled once per pass on a
//! fresh host, so every compile-cache lookup misses: the five proxies
//! under each of the five `BuildConfig`s, plus the twenty generated
//! `tests/corpus/gen-*.nzir` kernels under the full §IV pipeline.
//!
//! An op is `Host::load_image` followed by `Host::bind_image`. Building
//! or parsing the input module happens before the op, and running the
//! output after it: the compiler dominates the op, and the cache is used
//! the opposite way from `serve_mixed`.
//!
//! Checks, outside the op: every optimized module passes
//! `verify_module`, and every corpus kernel, launched once per pass
//! through the host, writes the same output bytes as its unoptimized
//! form run directly on a device.

use std::time::{Duration, Instant};

use nzomp::pipeline::link_only;
use nzomp::{module_fingerprint, BuildConfig};
use nzomp_host::{Host, KArg, MapKind, MapSpec};
use nzomp_ir::{parse_module, print_module, verify_module, Module};
use nzomp_proxies::{all_proxies, build_for_config, quick_device, Proxy};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{DevPtr, Device, RtVal};

use crate::pin::Pinner;
use crate::probe::{lower_us, Rng};
use crate::report::{EndToEnd, OpSample, Outcome as Tally, PASSES};
use crate::stats::{geomean, median, peak_rss_mb, timed, us, Rollup};
use crate::RunResult;

const CORPUS_CONFIG: BuildConfig = BuildConfig::NewRtNoAssumptions;

/// The `; launch teams=.. threads=.. buf=.. out_off=.. out_slots=..`
/// comment of a generated corpus kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Meta {
    teams: u32,
    threads: u32,
    buf: u64,
    out_off: u64,
    out_slots: u64,
}

fn parse_meta(text: &str) -> Option<Meta> {
    let line = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("; launch "))?;
    let field = |k: &str| {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(k)?.strip_prefix('=')?.parse::<u64>().ok())
    };
    Some(Meta {
        teams: u32::try_from(field("teams")?).ok()?,
        threads: u32::try_from(field("threads")?).ok()?,
        buf: field("buf")?,
        out_off: field("out_off")?,
        out_slots: field("out_slots")?,
    })
}

/// A corpus kernel: its text, launch shape, and the output bytes of its
/// unoptimized form.
struct Corpus {
    name: String,
    text: String,
    meta: Meta,
    reference: Vec<u8>,
}

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/corpus")
}

/// Launch `m`'s kernel `k` directly on a fresh device and return the
/// bytes of its output region.
fn direct_output(m: Module, meta: Meta) -> Result<Vec<u8>, String> {
    let mut dev = Device::load(m, quick_device());
    let buf = dev.alloc(meta.buf);
    dev.launch("k", Launch::new(meta.teams, meta.threads), &[RtVal::P(buf)])
        .map_err(|e| e.to_string())?;
    dev.read_bytes(DevPtr(buf.0 + meta.out_off), (meta.out_slots * 8) as usize)
        .map_err(|e| e.to_string())
}

struct Setup {
    proxies: Vec<Box<dyn Proxy>>,
    corpus: Vec<Corpus>,
}

fn setup() -> Result<Setup, String> {
    let dir = corpus_dir();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("gen-") && n.ends_with(".nzir"))
        .collect();
    names.sort();
    if names.len() != 20 {
        return Err(format!(
            "expected 20 generated corpus kernels, found {}",
            names.len()
        ));
    }
    let mut corpus = Vec::new();
    for name in names {
        let text = std::fs::read_to_string(dir.join(&name)).map_err(|e| format!("{name}: {e}"))?;
        let meta = parse_meta(&text).ok_or_else(|| format!("{name}: no launch comment"))?;
        let m = parse_module(&text).map_err(|e| format!("{name}: {e}"))?;
        let reference = direct_output(m, meta).map_err(|e| format!("{name}: {e}"))?;
        corpus.push(Corpus {
            name,
            text,
            meta,
            reference,
        });
    }
    Ok(Setup {
        proxies: all_proxies(),
        corpus,
    })
}

/// One unit of a pass: a proxy under a config, or a corpus kernel.
#[derive(Clone, Copy, Debug)]
enum Unit {
    Proxy(usize, BuildConfig),
    Corpus(usize),
}

fn units(s: &Setup) -> Vec<Unit> {
    let mut v: Vec<Unit> = (0..s.proxies.len())
        .flat_map(|p| BuildConfig::ALL.iter().map(move |&c| Unit::Proxy(p, c)))
        .collect();
    v.extend((0..s.corpus.len()).map(Unit::Corpus));
    v
}

/// Per-unit results of a pass that must repeat exactly.
#[derive(Debug, Default, PartialEq)]
struct Modeled {
    insts: Vec<usize>,
    cycles: Vec<u64>,
    /// Optimized instruction count of each proxy's OpenMP (New RT) and
    /// CUDA builds.
    omp_cuda: Vec<(usize, usize)>,
}

/// Layer timings of one traced unit, in µs.
#[derive(Default)]
struct Traced {
    front: f64,
    parse: f64,
    fingerprint: f64,
    print: f64,
    link: f64,
    verify: f64,
    load: f64,
    insts_in: usize,
}

#[derive(Default)]
struct Pass {
    ops: Vec<OpSample>,
    modeled: Modeled,
    tally: Tally,
    /// Wall seconds of the whole pass, checks and tracing included.
    wall_s: f64,
}

/// Compile every unit once on a fresh host, in an order drawn from the
/// seed. `trace` receives each unit's op wall, its load_image and bind
/// walls, the image's pass timings and the extra layer timings.
fn run_pass(
    s: &Setup,
    rng: &mut Rng,
    slice: usize,
    mut trace: Option<&mut Tracer>,
) -> Result<Pass, String> {
    let mut order = units(s);
    for k in (1..order.len()).rev() {
        order.swap(k, (rng.next() % (k as u64 + 1)) as usize);
    }
    // End of the previous unit's checks: the next op's cycle starts here.
    let mut last = Instant::now();
    let start = last;
    let mut host = Host::new(quick_device(), 1);
    let stream = host.stream();
    let mut p = Pass::default();
    let n_units = order.len();
    p.modeled.insts = vec![0; n_units];
    p.modeled.cycles = vec![0; s.corpus.len()];
    p.modeled.omp_cuda = vec![(0, 0); s.proxies.len()];
    for unit in order {
        let mut tr = Traced::default();
        let (module, cfg) = match unit {
            Unit::Proxy(pi, cfg) => {
                let p = s.proxies[pi].as_ref();
                if cfg == BuildConfig::NewRt && !p.supports_oversubscription() {
                    continue;
                }
                let (m, t) = timed(|| build_for_config(p, cfg));
                tr.front = us(t);
                (m, cfg)
            }
            Unit::Corpus(ci) => {
                let (m, t) = timed(|| parse_module(&s.corpus[ci].text));
                tr.parse = us(t);
                (
                    m.map_err(|e| format!("{}: {e}", s.corpus[ci].name))?,
                    CORPUS_CONFIG,
                )
            }
        };
        if trace.is_some() {
            tr.fingerprint = us(timed(|| std::hint::black_box(module_fingerprint(&module))).1);
            tr.print = us(timed(|| std::hint::black_box(print_module(&module)).len()).1);
            let (linked, t) = timed(|| link_only(module.clone(), cfg, &cfg.rt_config()));
            tr.link = us(t);
            tr.insts_in = linked.map_err(|e| e.to_string())?.live_inst_count();
        }
        // ---- the op --------------------------------------------------------
        let t0 = Instant::now();
        let img = host.load_image(module, cfg).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        host.bind_image(0, img).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let mut sample = OpSample {
            slice,
            op_us: us(t2 - t0),
            cycle_us: us(t2 - last),
            ..OpSample::default()
        };

        // ---- checks --------------------------------------------------------
        let out = host.image(img).ok_or("image vanished")?;
        let insts = out.module.live_inst_count();
        let slot = match unit {
            Unit::Proxy(pi, c) => {
                pi * BuildConfig::ALL.len()
                    + BuildConfig::ALL.iter().position(|&x| x == c).unwrap_or(0)
            }
            Unit::Corpus(ci) => s.proxies.len() * BuildConfig::ALL.len() + ci,
        };
        p.modeled.insts[slot] = insts;
        p.tally.attempted += 1;
        let mut ok = verify_module(&out.module).is_ok();
        if let Some(f) = trace.as_mut() {
            tr.verify = us(timed(|| verify_module(&out.module)).1);
            let m = out.module.clone();
            tr.load = us(timed(|| drop(Device::load(m, quick_device()))).1);
            f.record(&unit, us(t2 - t0), us(t1 - t0), &out.timings, &tr);
        }
        match unit {
            Unit::Proxy(pi, c) => {
                let oc = &mut p.modeled.omp_cuda[pi];
                if c == BuildConfig::Cuda {
                    oc.1 = insts;
                } else if c == crate::proxy_offload::omp_config(s.proxies[pi].as_ref()) {
                    oc.0 = insts;
                }
            }
            Unit::Corpus(ci) => {
                let c = &s.corpus[ci];
                let meta = c.meta;
                let b = host.register_zeros(meta.buf);
                let spec = [MapSpec::whole(b, meta.buf, MapKind::ToFrom)];
                let t = Instant::now();
                let launched = host
                    .data_enter(stream, 0, &spec)
                    .and_then(|()| {
                        host.enqueue_launch(
                            stream,
                            0,
                            "k",
                            Launch::new(meta.teams, meta.threads),
                            &[KArg::Buf(b)],
                        )
                    })
                    .and_then(|ticket| host.data_exit(stream, 0, &spec).map(|()| ticket))
                    .and_then(|ticket| host.sync().and_then(|()| host.take_metrics(ticket)));
                sample.sim_us = us(t.elapsed());
                match launched {
                    Ok(m) => {
                        sample.insts = m.instructions as f64;
                        p.modeled.cycles[ci] = m.cycles;
                        let lo = meta.out_off as usize;
                        let got = host
                            .buf_bytes(b)
                            .map(|b| b.get(lo..lo + c.reference.len()).map(<[u8]>::to_vec));
                        ok &= matches!(got, Ok(Some(g)) if g == c.reference);
                    }
                    Err(_) => ok = false,
                }
            }
        }
        if !ok {
            p.tally.failed += 1;
            p.tally.wrong += 1;
        }
        p.ops.push(sample);
        last = Instant::now();
    }
    p.wall_s = start.elapsed().as_secs_f64();
    Ok(p)
}

/// Passes until `budget` is spent (at least one); each must reproduce
/// the first pass's modeled results.
fn passes(
    s: &Setup,
    rng: &mut Rng,
    budget: Duration,
    mut pin: Option<&mut Pinner>,
    mut trace: Option<&mut Tracer>,
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
        // Traced runs trace every other pass; the rest give the untraced
        // wall under the same host conditions.
        let tr = if out.len() % 2 == 1 {
            trace.as_deref_mut()
        } else {
            None
        };
        let mut p = run_pass(s, rng, slice, tr)?;
        if let Some(first) = out.first() {
            if first.modeled != p.modeled {
                p.tally.wrong += 1;
            }
        } else {
            rss = peak_rss_mb();
        }
        tally.attempted += p.tally.attempted;
        tally.failed += p.tally.failed;
        tally.wrong += p.tally.wrong;
        out.push(p);
    }
    Ok((out, tally, rss))
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<RunResult, String> {
    let s = setup()?;
    let mut pin = Pinner::new(|| setup().map(drop));
    let probe = Device::load(Module::new("probe"), quick_device());
    let (tier, workers) = (format!("{:?}", probe.exec_tier()), probe.worker_threads());
    let mut rng = Rng::new(seed);
    if trace {
        pin.release();
        return traced(&s, &mut rng, budget, tier, workers);
    }
    let (ps, tally, peak_rss_mb) = passes(&s, &mut rng, budget, Some(&mut pin), None)?;
    let first = &ps[0].modeled;
    let mcycles = first.cycles.iter().sum::<u64>() as f64 / 1e6;
    let e2e = EndToEnd {
        setup_s: pin.setup_s,
        peak_rss_mb,
        ops: ps.iter().flat_map(|p| p.ops.iter().copied()).collect(),
        lat_cyc: ps
            .iter()
            .flat_map(|_| first.cycles.iter().map(|&c| c as f64))
            .collect(),
        completed_per_mcycle: first.cycles.len() as f64 / mcycles,
        overhead_vs_cuda: geomean(
            &first
                .omp_cuda
                .iter()
                .map(|&(o, c)| o as f64 / c as f64)
                .collect::<Vec<_>>(),
        ),
        kernel_mcycles: mcycles,
        code_insts: first.insts.iter().sum::<usize>() as f64,
    };
    Ok(RunResult {
        outcome: tally,
        end_to_end: Some(e2e),
        per_layer: Default::default(),
        rollup: None,
        tier,
        workers,
        notes: vec![format!(
            "compile_cold: {} passes x {} compiles",
            ps.len(),
            ps[0].ops.len()
        )],
    })
}

// ---- traced run -----------------------------------------------------------

/// Per-call samples of the traced passes.
struct Tracer {
    roll: Rollup,
    front: Vec<f64>,
    parse: Vec<f64>,
    fingerprint: Vec<f64>,
    print: Vec<f64>,
    link: Vec<f64>,
    opt: Vec<f64>,
    verify: Vec<f64>,
    miss: Vec<f64>,
    bind: Vec<f64>,
    load: Vec<f64>,
    insts_in: usize,
    pass_ms: [f64; PASSES.len()],
    runs: [u64; PASSES.len()],
    changed: [u64; PASSES.len()],
    analysis_hits: u64,
    analysis_lookups: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            roll: Rollup::new(&["cache", "ir", "link", "opt", "host", "vgpu"]),
            front: Vec::new(),
            parse: Vec::new(),
            fingerprint: Vec::new(),
            print: Vec::new(),
            link: Vec::new(),
            opt: Vec::new(),
            verify: Vec::new(),
            miss: Vec::new(),
            bind: Vec::new(),
            load: Vec::new(),
            insts_in: 0,
            pass_ms: [0.0; PASSES.len()],
            runs: [0; PASSES.len()],
            changed: [0; PASSES.len()],
            analysis_hits: 0,
            analysis_lookups: 0,
        }
    }

    /// One unit's op wall, its `load_image` wall, the optimizer's own
    /// profile, and the layer calls timed around the op (all µs).
    fn record(
        &mut self,
        unit: &Unit,
        op: f64,
        load_image: f64,
        t: &nzomp_opt::PassTimings,
        tr: &Traced,
    ) {
        match unit {
            Unit::Proxy(..) => self.front.push(tr.front / 1e3),
            Unit::Corpus(_) => self.parse.push(tr.parse),
        }
        let opt = t.total.as_secs_f64() * 1e6;
        self.fingerprint.push(tr.fingerprint);
        self.print.push(tr.print);
        self.link.push(tr.link / 1e3);
        self.opt.push(opt / 1e3);
        self.verify.push(tr.verify);
        self.miss.push(load_image / 1e3);
        self.bind.push(op - load_image);
        self.load.push(tr.load);
        self.insts_in += tr.insts_in;
        for st in &t.passes {
            if let Some(k) = PASSES.iter().position(|&p| p == st.name) {
                self.pass_ms[k] += st.wall.as_secs_f64() * 1e3;
                self.runs[k] += st.runs;
                self.changed[k] += st.changed_runs;
            }
        }
        self.analysis_hits += t.cache.total_hits();
        self.analysis_lookups += t.cache.total_hits() + t.cache.misses.iter().sum::<u64>();
        // `load_image` = fingerprint (print + hash) + link + optimize +
        // verify + cache bookkeeping; `bind_image` = `Device::load` +
        // host slot reset.
        self.roll.add("ir", (tr.print + tr.verify) * 1e3);
        self.roll.add("link", tr.link * 1e3);
        self.roll.add("opt", opt * 1e3);
        self.roll.add(
            "cache",
            (load_image - tr.print - tr.verify - tr.link - opt) * 1e3,
        );
        self.roll.add("vgpu", tr.load * 1e3);
        self.roll.add("host", (op - load_image - tr.load) * 1e3);
    }
}

fn traced(
    s: &Setup,
    rng: &mut Rng,
    budget: Duration,
    tier: String,
    workers: usize,
) -> Result<RunResult, String> {
    let mut tc = Tracer::new();
    let (ps, tally, _) = passes(s, rng, budget, None, Some(&mut tc))?;
    let plain: Vec<&Pass> = ps.iter().step_by(2).collect();
    let traced: Vec<&Pass> = ps.iter().skip(1).step_by(2).collect();
    if traced.is_empty() {
        return Err("the run was too short for a traced pass".into());
    }
    let n = traced.len() as f64;
    let op_ns = |ps: &[&Pass]| {
        ps.iter()
            .flat_map(|p| p.ops.iter().map(|o| o.op_us))
            .sum::<f64>()
            * 1e3
            / ps.iter().map(|p| p.ops.len()).sum::<usize>() as f64
    };
    let insts_out: usize = traced
        .iter()
        .map(|p| p.modeled.insts.iter().sum::<usize>())
        .sum();
    let mut roll = std::mem::take(&mut tc.roll);
    roll.ops = traced.iter().map(|p| p.ops.len() as u64).sum();
    roll.untraced_op_ns = op_ns(&plain);
    roll.traced_op_ns = traced.iter().map(|p| p.wall_s).sum::<f64>() * 1e9 / roll.ops as f64;

    let c0 = &s.corpus[0];
    let m0 = parse_module(&c0.text).map_err(|e| e.to_string())?;
    let ops_per_pass = ps[0].ops.len() as f64;
    let mut pl: Vec<(String, f64)> = vec![
        ("cache.lookups".into(), ops_per_pass),
        ("cache.fingerprint_us_p50".into(), median(&tc.fingerprint)),
        ("cache.miss_ms_p50".into(), median(&tc.miss)),
        ("front.ms_p50".into(), median(&tc.front)),
        ("link.ms_p50".into(), median(&tc.link)),
        ("opt.ms_p50".into(), median(&tc.opt)),
        ("ir.verify_us_p50".into(), median(&tc.verify)),
        ("ir.parse_us_p50".into(), median(&tc.parse)),
        ("ir.print_us_p50".into(), median(&tc.print)),
        (
            "opt.analysis_hit_ratio".into(),
            tc.analysis_hits as f64 / tc.analysis_lookups.max(1) as f64,
        ),
        ("opt.insts_in".into(), tc.insts_in as f64 / n),
        ("opt.insts_out".into(), insts_out as f64 / n),
        ("host.binds".into(), ops_per_pass),
        ("host.bind_us_p50".into(), median(&tc.bind)),
        ("vgpu.load_us_p50".into(), median(&tc.load)),
        (
            "vgpu.lower_us".into(),
            lower_us(
                &m0,
                &quick_device(),
                "k",
                Launch::new(c0.meta.teams, c0.meta.threads),
                |d| vec![RtVal::P(d.alloc(c0.meta.buf))],
                9,
            ),
        ),
    ];
    for (k, p) in PASSES.iter().enumerate() {
        pl.push((format!("opt.{p}.ms"), tc.pass_ms[k] / n));
        pl.push((
            format!("opt.{p}.changed_frac"),
            tc.changed[k] as f64 / tc.runs[k].max(1) as f64,
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
            "compile_cold traced: {} untraced + {} traced passes",
            plain.len(),
            traced.len()
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_comment_parses() {
        let m = parse_meta(
            "; nzomp-ir v1\n; launch teams=1 threads=8 buf=224 out_off=96 out_slots=16\n",
        );
        assert_eq!(
            m,
            Some(Meta {
                teams: 1,
                threads: 8,
                buf: 224,
                out_off: 96,
                out_slots: 16
            })
        );
        assert_eq!(parse_meta("; launch teams=1"), None);
    }

    #[test]
    fn same_seed_same_order_and_modeled_results() {
        let s = setup().expect("set-up");
        let a = run_pass(&s, &mut Rng::new(9), 0, None).expect("pass");
        let b = run_pass(&s, &mut Rng::new(9), 0, None).expect("pass");
        assert_eq!(a.modeled, b.modeled);
        assert_eq!(a.tally, b.tally);
        assert_eq!(
            a.tally.wrong, 0,
            "every compile verifies and every corpus output matches"
        );
    }
}
