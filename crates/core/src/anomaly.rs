//! Sweep analytics: anomaly detection over [`SweepResults`].
//!
//! A 10k-point sweep is an opaque dump; this pass scores every eDRAM point
//! against its *parameter neighbourhood* — the runs that differ from it
//! along exactly one axis (same workload and retention, varying policy;
//! same workload and policy, varying retention; same retention and policy,
//! varying workload) — using the robust (median/MAD) z-scores from
//! `refrint_obs::anomaly`. Flagged points surface in `sweep --format json`
//! and the `refrint-serve` sweep response as the `anomalies` array.
//!
//! Two metrics are scored: total system energy and execution cycles — the
//! two quantities the paper's argument rests on. Refresh policies
//! legitimately differ a lot (Periodic All refreshes every line every
//! period), which is why the scoring is median/MAD based with a
//! conservative threshold: a point is only flagged when it does not fit
//! neighbours that share everything but one parameter.

use std::collections::BTreeMap;

use refrint_obs::anomaly::{flag_outliers_with, AnomalyTuning};

use crate::experiment::SweepResults;
use crate::report::SimReport;

/// Extracts one scored metric from a point's [`PointMetrics`].
type MetricFn = fn(&PointMetrics) -> f64;

/// Builds, from a point's `(workload, retention, policy)` key, the slice
/// key shared by the points that agree on everything except one axis.
type SliceKeyFn = fn(&(String, u64, String)) -> (String, String);

/// The metrics the analytics pass scores, as `(name, extractor)` pairs.
const METRICS: [(&str, MetricFn); 2] = [
    ("system_energy_j", |m| m.system_energy_j),
    ("execution_cycles", |m| m.execution_cycles as f64),
];

/// The two quantities anomaly scoring reads from a sweep point. Callers
/// that hold full [`SimReport`]s go through [`detect_tuned`]; callers that
/// only hold rendered report JSON (the serve coordinator) parse these two
/// fields back out and call [`detect_points`] directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointMetrics {
    /// `energy_j.system_total` of the run.
    pub system_energy_j: f64,
    /// `execution_cycles` of the run.
    pub execution_cycles: u64,
}

impl PointMetrics {
    /// Extracts the scored metrics from a full report.
    #[must_use]
    pub fn of(report: &SimReport) -> Self {
        Self {
            system_energy_j: report.breakdown.total_system(),
            execution_cycles: report.execution_cycles,
        }
    }
}

/// One flagged sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAnomaly {
    /// Workload of the flagged run.
    pub workload: String,
    /// Retention time of the flagged run, in microseconds.
    pub retention_us: u64,
    /// Policy label of the flagged run.
    pub policy: String,
    /// Which metric did not fit (`system_energy_j` or `execution_cycles`).
    pub metric: &'static str,
    /// The axis whose neighbourhood flagged it (`policy`, `retention_us`
    /// or `workload`). When several axes agree, the one with the largest
    /// score wins.
    pub axis: &'static str,
    /// The point's metric value.
    pub value: f64,
    /// The neighbourhood median it was judged against.
    pub median: f64,
    /// The modified z-score (signed).
    pub robust_z: f64,
}

/// Scores `results` with the default tuning
/// ([`refrint_obs::anomaly::DEFAULT_THRESHOLD`] over slices of at least
/// [`refrint_obs::anomaly::MIN_SLICE`]).
#[must_use]
pub fn detect(results: &SweepResults) -> Vec<SweepAnomaly> {
    detect_tuned(results, AnomalyTuning::default())
}

/// [`detect_tuned`] with only the threshold overridden.
#[must_use]
pub fn detect_with(results: &SweepResults, threshold: f64) -> Vec<SweepAnomaly> {
    detect_tuned(
        results,
        AnomalyTuning {
            threshold,
            ..AnomalyTuning::default()
        },
    )
}

/// Scores every eDRAM point in `results` against its three axis
/// neighbourhoods and returns the points whose modified z-score magnitude
/// reaches the tuning's threshold for some metric (in slices of at least
/// the tuning's minimum size). Each `(point, metric)` pair is reported at
/// most once — the axis with the largest score. Output order follows the
/// sweep's own (workload, retention, policy) order, so the report is
/// deterministic.
#[must_use]
pub fn detect_tuned(results: &SweepResults, tuning: AnomalyTuning) -> Vec<SweepAnomaly> {
    // The points in map order; indices below refer into this list.
    let points: Vec<((String, u64, String), PointMetrics)> = results
        .edram
        .iter()
        .map(|(key, r)| (key.clone(), PointMetrics::of(r)))
        .collect();
    detect_points(&points, tuning)
}

/// [`detect_tuned`] over bare `(key, metrics)` pairs instead of full
/// [`SweepResults`]. `points` must be sorted ascending by key — the order
/// a `BTreeMap` iterates in — or the output order (and the slice grouping
/// tie-breaks) will not match the local sweep path byte for byte.
#[must_use]
pub fn detect_points(
    points: &[((String, u64, String), PointMetrics)],
    tuning: AnomalyTuning,
) -> Vec<SweepAnomaly> {
    debug_assert!(
        points.windows(2).all(|w| w[0].0 < w[1].0),
        "points must be strictly sorted by (workload, retention, policy)"
    );
    let mut best: BTreeMap<(usize, &'static str), SweepAnomaly> = BTreeMap::new();
    for (metric, extract) in METRICS {
        let values: Vec<f64> = points.iter().map(|(_, m)| extract(m)).collect();
        // axis name -> slice key builder: the slice holds the points that
        // agree on everything *except* that axis.
        let axes: [(&'static str, SliceKeyFn); 3] = [
            ("policy", |k| (k.0.clone(), k.1.to_string())),
            ("retention_us", |k| (k.0.clone(), k.2.clone())),
            ("workload", |k| (k.1.to_string(), k.2.clone())),
        ];
        for (axis, slice_key) in axes {
            let mut slices: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
            for (i, (key, _)) in points.iter().enumerate() {
                slices.entry(slice_key(key)).or_default().push(i);
            }
            for indices in slices.values() {
                let slice: Vec<f64> = indices.iter().map(|&i| values[i]).collect();
                for flag in flag_outliers_with(&slice, tuning.threshold, tuning.min_slice) {
                    let i = indices[flag.index];
                    let (workload, retention_us, policy) = &points[i].0;
                    let entry = SweepAnomaly {
                        workload: workload.clone(),
                        retention_us: *retention_us,
                        policy: policy.clone(),
                        metric,
                        axis,
                        value: flag.value,
                        median: flag.median,
                        robust_z: flag.robust_z,
                    };
                    best.entry((i, metric))
                        .and_modify(|prev| {
                            if flag.robust_z.abs() > prev.robust_z.abs() {
                                *prev = entry.clone();
                            }
                        })
                        .or_insert(entry);
                }
            }
        }
    }
    best.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::sweep::SweepRunner;
    use refrint_edram::policy::RefreshPolicy;
    use refrint_workloads::apps::AppPreset;

    fn small_sweep() -> SweepResults {
        let config = ExperimentConfig {
            apps: vec![AppPreset::Lu],
            retentions_us: vec![50],
            policies: RefreshPolicy::paper_sweep(),
            refs_per_thread: 400,
            cores: 2,
            ..ExperimentConfig::default()
        };
        SweepRunner::new(config)
            .workers(1)
            .run()
            .expect("small sweep runs")
    }

    #[test]
    fn a_real_sweep_is_clean_at_the_default_threshold() {
        let results = small_sweep();
        let flagged = detect(&results);
        assert!(
            flagged.is_empty(),
            "legitimate policy spread must not be flagged: {flagged:?}"
        );
    }

    #[test]
    fn a_perturbed_point_is_flagged_and_only_it() {
        let mut results = small_sweep();
        let victim = results
            .edram
            .keys()
            .find(|(_, _, p)| p == "R.WB(32,32)")
            .cloned()
            .expect("the recommended policy is in the paper sweep");
        // Simulate a corrupted run: its energy is wildly off while its
        // neighbours (same workload and retention, other policies) agree.
        let report = results.edram.get_mut(&victim).unwrap();
        report.breakdown.dram *= 400.0;

        let flagged = detect(&results);
        assert!(!flagged.is_empty(), "the perturbed point must be flagged");
        for a in &flagged {
            assert_eq!(
                (a.workload.as_str(), a.retention_us, a.policy.as_str()),
                (victim.0.as_str(), victim.1, victim.2.as_str()),
                "only the perturbed point may be flagged: {flagged:?}"
            );
            assert_eq!(a.metric, "system_energy_j");
            assert_eq!(a.axis, "policy");
            assert!(a.robust_z > 0.0);
            assert!(a.robust_z.is_finite());
        }
    }

    #[test]
    fn tuned_detection_responds_to_threshold_and_min_slice() {
        let mut results = small_sweep();
        let victim = results
            .edram
            .keys()
            .find(|(_, _, p)| p == "R.WB(32,32)")
            .cloned()
            .unwrap();
        results.edram.get_mut(&victim).unwrap().breakdown.dram *= 400.0;

        let default_flags = detect(&results);
        assert!(!default_flags.is_empty());
        assert_eq!(
            default_flags,
            detect_tuned(&results, AnomalyTuning::default()),
            "default tuning must reproduce detect() exactly"
        );
        // A minimum slice larger than any neighbourhood silences the pass.
        let silenced = detect_tuned(&results, AnomalyTuning::new(8.0, 10_000).unwrap());
        assert!(silenced.is_empty(), "min_slice gates scoring: {silenced:?}");
        // A looser threshold flags at least as much as the default.
        let loose = detect_tuned(&results, AnomalyTuning::new(1.0, 4).unwrap());
        assert!(loose.len() >= default_flags.len());
    }
}
