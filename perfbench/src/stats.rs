//! Sample statistics shared by every workload: the refusing percentile,
//! medians, geometric means, and the per-layer rollup accumulator.

use std::time::{Duration, Instant};

/// Samples a tail percentile must leave beyond it before the benchmark
/// reports it. Fewer means the figure is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order), or an error when
/// fewer than [`MIN_BEYOND`] samples lie beyond the chosen rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 {
        return Err(format!("p{p}: no samples"));
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank.min(n);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples leaves {beyond} beyond it (need {MIN_BEYOND})"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median (the lower middle for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Run `f` and return its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Self time and call count of one named layer in a traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub self_ns: f64,
    pub count: u64,
}

/// The traced run's layer split: self time per layer in the fixed
/// layer order, plus the traced and untraced wall per op.
#[derive(Debug, Default)]
pub struct Rollup {
    pub layers: Vec<(&'static str, LayerTime)>,
    /// Ops the traced passes ran.
    pub ops: u64,
    /// Untraced wall per op, from the untraced passes of the same run.
    pub untraced_op_ns: f64,
    /// Traced wall per op, including the replay and extra timing calls.
    pub traced_op_ns: f64,
}

impl Rollup {
    pub fn new(layers: &[&'static str]) -> Rollup {
        Rollup {
            layers: layers.iter().map(|&l| (l, LayerTime::default())).collect(),
            ..Rollup::default()
        }
    }

    /// Charge `d` ns of self time to `layer`. A residue is negative where
    /// the timed stand-in call (a replay, a direct launch) ran slower than
    /// the call it stands for; it is kept, so the rollup does not
    /// over-count.
    pub fn add(&mut self, layer: &str, d: f64) {
        if let Some((_, t)) = self.layers.iter_mut().find(|(l, _)| *l == layer) {
            t.self_ns += d;
            t.count += 1;
        }
    }

    pub fn self_ns(&self, layer: &str) -> f64 {
        self.layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, t)| t.self_ns)
    }

    fn named_ns_per_op(&self) -> f64 {
        self.layers.iter().map(|(_, t)| t.self_ns).sum::<f64>() / self.ops.max(1) as f64
    }

    /// Share of the untraced per-op wall that no named layer explains.
    pub fn unexplained_frac(&self) -> f64 {
        if self.untraced_op_ns <= 0.0 {
            return 0.0;
        }
        1.0 - self.named_ns_per_op() / self.untraced_op_ns
    }

    /// Traced wall per op over untraced wall per op, minus one.
    pub fn overhead_frac(&self) -> f64 {
        if self.untraced_op_ns <= 0.0 {
            return 0.0;
        }
        self.traced_op_ns / self.untraced_op_ns - 1.0
    }

    /// Self-time share of `layer` in the untraced per-op wall.
    pub fn share(&self, layer: &str) -> f64 {
        if self.untraced_op_ns <= 0.0 || self.ops == 0 {
            return 0.0;
        }
        self.self_ns(layer) / self.ops as f64 / self.untraced_op_ns
    }

    /// The human-readable rollup table printed before the result line.
    pub fn table(&self, workload: &str) -> String {
        let mut s = format!(
            "per-layer rollup ({workload}, {} ops, untraced {:.2} us/op, traced {:.2} us/op)\n",
            self.ops,
            self.untraced_op_ns / 1e3,
            self.traced_op_ns / 1e3
        );
        s += &format!(
            "  {:<8} {:>12} {:>10} {:>8}\n",
            "layer", "self us/op", "calls", "share"
        );
        for (l, t) in &self.layers {
            s += &format!(
                "  {:<8} {:>12.3} {:>10} {:>7.1}%\n",
                l,
                t.self_ns / self.ops.max(1) as f64 / 1e3,
                t.count,
                100.0 * self.share(l)
            );
        }
        s += &format!(
            "  unexplained {:.1}% of the untraced op; tracing overhead {:.1}%\n",
            100.0 * self.unexplained_frac(),
            100.0 * self.overhead_frac()
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 beyond: accepted.
        assert_eq!(percentile(&xs, 90.0), Ok(90.0));
        // p99 of 100 leaves 1 beyond: refused.
        assert!(percentile(&xs, 99.0).is_err());
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 99.0), Ok(990.0));
        assert!(percentile(&many[..999], 99.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
