//! Measurement helpers: summary statistics, timing, peak memory, digests,
//! and the result line the benchmark prints.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The median of `values` (which must not be empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`values` must not be empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of the p99.9 / p99 / p90 percentiles that has at least ten
/// samples beyond it, as `(percentile, value)`; `None` for fewer than 100
/// samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| values.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, quantile(values, p / 100.0)))
}

/// "median X ms, p99 Y ms (n=N)" for a latency sample in seconds.
pub fn describe_ms(values: &[f64]) -> String {
    if values.is_empty() {
        return "no samples".into();
    }
    let mut s = format!("median {:.3} ms", median(values) * 1e3);
    if let Some((p, v)) = tail(values) {
        let _ = write!(s, ", p{p} {:.3} ms", v * 1e3);
    }
    let _ = write!(s, " (n={})", values.len());
    s
}

/// Peak resident set size (`VmHWM`) in MiB of this process (`None`) or of
/// process `pid`.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// 64-bit FNV-1a digest, used to pin report bytes against the goldens.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Burns roughly `iters` loop iterations of CPU time; the planted cost.
#[inline(never)]
pub fn spin(iters: u64) {
    let mut x = 0u64;
    for i in 0..iters {
        x = black_box(x.wrapping_add(i));
    }
    black_box(x);
}

/// Nanoseconds one [`spin`] iteration costs on this machine right now.
pub fn spin_ns_per_iter() -> f64 {
    const ITERS: u64 = 20_000_000;
    let samples: Vec<f64> = (0..5)
        .map(|_| timed(|| spin(ITERS)).1 * 1e9 / ITERS as f64)
        .collect();
    median(&samples)
}

/// One emitted metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one benchmark run: the operation tally and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric and echoes it (with `detail`: sample count, base,
    /// percentile) to the human-readable report on stderr.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, detail: &str) {
        eprintln!("  {name:<36} {value:>16.4} {unit:<6} {detail}");
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Counts one checked operation, failing it (with a reason on stderr)
    /// when `ok` is false.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {what}");
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy_linear() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail(&v).is_none());
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(99.0));
    }
}
