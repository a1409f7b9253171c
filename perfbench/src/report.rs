//! The metric catalogue and the one result line.
//!
//! Every workload prints the same metric names: the end-to-end set with
//! tracing off, the per-layer set with tracing on. A per-layer metric of
//! a layer the workload never crosses reads 0. The catalogue here must
//! equal the one in `BENCHMARK.json` (a unit test checks it), and the
//! emitter refuses to print a name outside it.

use std::collections::BTreeMap;

use crate::stats::{median, percentile};

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("peak_rss_mb", "MB"),
    ("sim_minst_per_s", "Minst/s"),
    ("lat_p50_cyc", "cycles"),
    ("lat_p99_cyc", "cycles"),
    ("completed_per_mcycle", "1/Mcycle"),
    ("overhead_vs_cuda", "ratio"),
    ("kernel_mcycles", "Mcycles"),
    ("code_insts", "count"),
];

/// Kernels whose single launch is timed on both execution tiers.
pub const KERNELS: [&str; 6] = [
    "scale", "xsbench", "rsbench", "testsnap", "minifmm", "gridmini",
];
/// The five paper proxies, in `all_proxies()` order.
pub const PROXIES: [&str; 5] = ["xsbench", "rsbench", "testsnap", "minifmm", "gridmini"];
/// Every optimizer pass the pipeline can run.
pub const PASSES: [&str; 10] = [
    "internalize",
    "spmdize",
    "global-dce",
    "inline",
    "simplify",
    "globalize-elim",
    "fold",
    "barrier-elim",
    "drop-assumes",
    "prune-globals",
];
/// Layers of the rollup, each named after the crate it times.
pub const LAYERS: [&str; 8] = [
    "serve", "cache", "ir", "front", "link", "opt", "host", "vgpu",
];

/// `(name, unit)` of every per-layer metric.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("serve.self_us_p50", "us"),
        ("serve.queue_wait_cyc_p50", "cycles"),
        ("serve.queue_wait_cyc_p99", "cycles"),
        ("serve.evictions", "count"),
        ("serve.migrations", "count"),
        ("cache.lookups", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.hit_us_p50", "us"),
        ("cache.fingerprint_us_p50", "us"),
        ("cache.miss_ms_p50", "ms"),
        ("front.ms_p50", "ms"),
        ("link.ms_p50", "ms"),
        ("opt.ms_p50", "ms"),
        ("ir.verify_us_p50", "us"),
        ("ir.parse_us_p50", "us"),
        ("ir.print_us_p50", "us"),
        ("opt.analysis_hit_ratio", "ratio"),
        ("opt.insts_in", "count"),
        ("opt.insts_out", "count"),
        ("host.binds", "count"),
        ("host.bind_us_p50", "us"),
        ("host.map_us_p50", "us"),
        ("host.enqueue_us_p50", "us"),
        ("host.sync_self_us_p50", "us"),
        ("host.ops", "count"),
        ("host.xfer_bytes", "bytes"),
        ("vgpu.load_us_p50", "us"),
        ("vgpu.lower_us", "us"),
        ("vgpu.insts", "count"),
        ("trace.unexplained_frac", "frac"),
        ("trace.overhead_frac", "frac"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for p in PASSES {
        v.push((format!("opt.{p}.ms"), "ms"));
        v.push((format!("opt.{p}.changed_frac"), "frac"));
    }
    for k in KERNELS {
        for tier in ["interp", "bytecode"] {
            v.push((format!("vgpu.launch_us_p50.{k}.{tier}"), "us"));
        }
    }
    for p in PROXIES {
        v.push((format!("par.wall_speedup.{p}"), "ratio"));
        v.push((format!("par.model_speedup.{p}"), "ratio"));
        v.push((format!("rt.calls.{p}"), "count"));
        v.push((format!("rt.smem_bytes.{p}"), "bytes"));
        v.push((format!("rt.regs.{p}"), "count"));
    }
    for l in LAYERS {
        v.push((format!("{l}.share"), "frac"));
    }
    v
}

/// One op of the measured loop, in the order the ops ran.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpSample {
    /// Slice of the run the op ran in (see [`crate::pin`]).
    pub slice: usize,
    /// Wall µs of the op itself.
    pub op_us: f64,
    /// Wall µs since the previous op ended, output checks excluded: the
    /// op plus the loop's own work around it.
    pub cycle_us: f64,
    /// Simulated instructions this op accounts for, and the host µs
    /// they took.
    pub insts: f64,
    pub sim_us: f64,
}

/// What a workload measured with tracing off. Timings are raw samples;
/// [`EndToEnd::metrics`] reduces them.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Peak resident set in MB once the workload reached steady state.
    pub peak_rss_mb: f64,
    pub ops: Vec<OpSample>,
    /// Modeled latency samples in cycles.
    pub lat_cyc: Vec<f64>,
    pub completed_per_mcycle: f64,
    pub overhead_vs_cuda: f64,
    pub kernel_mcycles: f64,
    pub code_insts: f64,
}

impl EndToEnd {
    /// Reduce the samples to the end-to-end metrics. The wall figures
    /// are medians, tails and rates over the ops of the quietest eighth
    /// of the run's slices, those whose own median op was lowest (see
    /// [`crate::pin`]); `setup_s` is the median of every set-up.
    ///
    /// The tail is p90, not p99: `proxy_offload` and `compile_cold` repeat
    /// a fixed set of op kinds, so their p99 is the slowest kind plus
    /// whatever the host's other tenants did to it, and moved by 0.3–0.5
    /// of its median between runs; their p90 is the slow kinds' own time.
    pub fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let ops = quiet_ops(&self.ops);
        let op_us: Vec<f64> = ops.iter().map(|o| o.op_us).collect();
        let p50 = percentile(&op_us, 50.0)?;
        let p90 = percentile(&op_us, 90.0)?;
        let sum = |f: fn(&OpSample) -> f64| ops.iter().map(|o| f(o)).sum::<f64>();
        let ops_per_s = ops.len() as f64 * 1e6 / sum(|o| o.cycle_us);
        let sim_us = sum(|o| o.sim_us);
        let sim = if sim_us > 0.0 {
            sum(|o| o.insts) / sim_us
        } else {
            0.0
        };
        let setup = median(&self.setup_s);
        let m = [
            ("setup_s", setup),
            ("ops_per_s", ops_per_s),
            ("op_p50_us", p50),
            ("op_p90_us", p90),
            ("peak_rss_mb", self.peak_rss_mb),
            ("sim_minst_per_s", sim),
            ("lat_p50_cyc", percentile(&self.lat_cyc, 50.0)?),
            ("lat_p99_cyc", percentile(&self.lat_cyc, 99.0)?),
            ("completed_per_mcycle", self.completed_per_mcycle),
            ("overhead_vs_cuda", self.overhead_vs_cuda),
            ("kernel_mcycles", self.kernel_mcycles),
            ("code_insts", self.code_insts),
        ];
        Ok(m.iter().map(|&(n, v)| (n.to_string(), v)).collect())
    }
}

/// Fewest ops the quiet slices must hold, so a short run still has a
/// p90 with enough samples beyond it.
const MIN_QUIET_OPS: usize = 200;

/// The ops of the quietest eighth of the slices (more if they hold fewer
/// than [`MIN_QUIET_OPS`] ops), ranked by their median op. Every slice holds whole passes or rounds,
/// so each has the same mix of op kinds. Over five seeds on a 2-core
/// shared host the eighth gave `proxy_offload` op spreads of 0.065 (p50)
/// and 0.078 (p90), the quarter 0.072 and 0.098, the half 0.16 and 0.088.
fn quiet_ops(ops: &[OpSample]) -> Vec<&OpSample> {
    let mut slices: BTreeMap<usize, Vec<&OpSample>> = BTreeMap::new();
    for o in ops {
        slices.entry(o.slice).or_default().push(o);
    }
    let mut ranked: Vec<(f64, Vec<&OpSample>)> = slices
        .into_values()
        .map(|v| (median(&v.iter().map(|o| o.op_us).collect::<Vec<_>>()), v))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = ranked.len().div_ceil(8);
    let mut out = Vec::new();
    for (k, (_, v)) in ranked.into_iter().enumerate() {
        if k >= keep && out.len() >= MIN_QUIET_OPS {
            break;
        }
        out.extend(v);
    }
    out
}

/// Correctness tally of a run. No workload is meant to fail an op, so
/// every failure is also a wrong outcome and makes the run incorrect.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub attempted: u64,
    /// Ops that did not complete (rejected, faulted, compile error) or
    /// completed with a wrong output.
    pub failed: u64,
    /// Outputs that disagree with the independent check, and
    /// determinism breaks. Any one makes the run incorrect.
    pub wrong: u64,
}

/// Render the result line. Fails when `metrics` is not exactly the
/// declared set for the mode.
pub fn result_line(
    outcome: &Outcome,
    metrics: &BTreeMap<String, f64>,
    trace: bool,
) -> Result<String, String> {
    let declared: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    if let Some(extra) = metrics
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut body = Vec::with_capacity(declared.len());
    for (name, unit) in &declared {
        let v = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.wrong == 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one list in `BENCHMARK.json`, read with a
    /// plain scan so the test needs no JSON parser.
    fn declared_in_json(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{list}\"")).expect("list present");
        let rest = &text[start..];
        let end = rest.find(']').expect("list closes");
        rest[..end]
            .split('{')
            .skip(1)
            .map(|obj| {
                let field = |key: &str| {
                    let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
                    let v = &obj[at..];
                    let v = &v[v.find('"').expect("value opens") + 1..];
                    v[..v.find('"').expect("value closes")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metrics_are_declared_in_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared_in_json("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared_in_json("per_layer"), layer);
    }

    #[test]
    fn result_line_refuses_undeclared_or_missing_metrics() {
        let o = Outcome {
            attempted: 1,
            failed: 0,
            wrong: 0,
        };
        let mut m: BTreeMap<String, f64> = END_TO_END
            .iter()
            .map(|&(n, _)| (n.to_string(), 1.5))
            .collect();
        assert!(result_line(&o, &m, false).is_ok());
        m.insert("bogus".into(), 1.0);
        assert!(result_line(&o, &m, false).is_err());
        m.remove("bogus");
        m.remove("setup_s");
        assert!(result_line(&o, &m, false).is_err());
    }
}
