//! The repository benchmark: three seeded workloads over the nzomp
//! offload stack, each run as its own process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` every other pass also times the calls into each layer, and
//! the run prints the per-layer metrics plus a rollup table against the
//! untraced passes in between. The last line of standard output is the
//! one JSON result. See `perfbench/README.md` for what each workload is
//! for and which layer each metric belongs to.

mod compile_cold;
mod pin;
mod probe;
mod proxy_offload;
mod report;
mod serve_mixed;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use report::{EndToEnd, Outcome};

/// Seed reserved for confirming a claimed gain after it was tuned on
/// other seeds; tuning runs must not use it.
pub const HELD_OUT_SEED: u64 = 7919;

/// Everything one run hands back to `main`.
pub struct RunResult {
    pub outcome: Outcome,
    /// Set with tracing off.
    pub end_to_end: Option<EndToEnd>,
    /// Set with tracing on: per-layer values plus the rollup.
    pub per_layer: BTreeMap<String, f64>,
    pub rollup: Option<stats::Rollup>,
    /// Resolved execution tier and worker count of the measured devices.
    pub tier: String,
    pub workers: usize,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit the checkout came from, read from `.git` without spawning
/// git; `unknown` outside a git work tree.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

fn run(args: &Args) -> Result<RunResult, String> {
    let budget = Duration::from_secs(args.seconds);
    match args.workload.as_str() {
        "serve_mixed" => serve_mixed::run(args.seed, budget, args.trace),
        "proxy_offload" => proxy_offload::run(args.seed, budget, args.trace),
        "compile_cold" => compile_cold::run(args.seed, budget, args.trace),
        w => Err(format!(
            "unknown workload {w} (serve_mixed, proxy_offload, compile_cold)"
        )),
    }
}

fn main() -> ExitCode {
    // The library reads these to pick tier, workers, sanitizer and
    // per-pass verification; any of them would change what is measured.
    let env: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("NZOMP_"))
        .collect();
    if !env.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", env.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Read before the run: the measured loops pin the process to one core.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let r = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "manifest: rev={} nproc={} tier={} workers={} workload={} seed={} held_out_seed={} seconds={} trace={}",
        git_rev(),
        nproc,
        r.tier,
        r.workers,
        args.workload,
        args.seed,
        HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace)
    );
    for n in &r.notes {
        println!("{n}");
    }
    let metrics = if args.trace {
        let mut m: BTreeMap<String, f64> = report::per_layer()
            .into_iter()
            .map(|(n, _)| (n, 0.0))
            .collect();
        for (k, v) in r.per_layer {
            if !m.contains_key(&k) {
                eprintln!("perfbench: metric {k} is not declared");
                return ExitCode::FAILURE;
            }
            m.insert(k, v);
        }
        if let Some(roll) = &r.rollup {
            print!("{}", roll.table(&args.workload));
            m.insert("trace.unexplained_frac".into(), roll.unexplained_frac());
            m.insert("trace.overhead_frac".into(), roll.overhead_frac());
            for l in report::LAYERS {
                m.insert(format!("{l}.share"), roll.share(l));
            }
        }
        m
    } else {
        let Some(e2e) = &r.end_to_end else {
            eprintln!("perfbench: untraced run measured nothing");
            return ExitCode::FAILURE;
        };
        println!(
            "samples: {} set-ups, {} ops, {} modeled latencies",
            e2e.setup_s.len(),
            e2e.ops.len(),
            e2e.lat_cyc.len()
        );
        match e2e.metrics() {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    match report::result_line(&r.outcome, &metrics, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
