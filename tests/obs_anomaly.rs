//! End-to-end self-test of the sweep anomaly report.
//!
//! The analytics pass (`refrint::anomaly` over the robust scoring in
//! `refrint_obs::anomaly`) is wired into the shared sweep emitter, so the
//! CLI's `sweep --format json` and the `refrint-serve` sweep response both
//! carry an `anomalies` array. These tests plant one deliberately corrupted
//! point in an otherwise legitimate sweep and assert that the *document* a
//! client reads flags exactly that point — and that a clean sweep stays
//! clean.

use refrint::experiment::{ExperimentConfig, SweepResults};
use refrint::sweep::SweepRunner;
use refrint_edram::policy::RefreshPolicy;
use refrint_engine::json::{parse, Value};
use refrint_workloads::apps::AppPreset;

/// One workload × the full 14-policy paper sweep at 50 us.
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

fn anomalies_of(doc: &str) -> Vec<Value> {
    let parsed = parse(doc).expect("sweep JSON parses");
    parsed
        .get("anomalies")
        .and_then(Value::as_arr)
        .expect("sweep documents carry an anomalies array")
        .to_vec()
}

#[test]
fn a_clean_sweep_reports_no_anomalies_in_the_cli_json() {
    let results = small_sweep();
    let doc = refrint::json::sweep(&results);
    assert!(
        anomalies_of(&doc).is_empty(),
        "legitimate policy spread must not be flagged: {doc}"
    );
}

#[test]
fn a_planted_outlier_reaches_the_cli_json_and_only_it() {
    let mut results = small_sweep();
    let victim = results
        .edram
        .keys()
        .find(|(_, _, p)| p == "R.WB(32,32)")
        .cloned()
        .expect("the recommended policy is in the paper sweep");
    results.edram.get_mut(&victim).unwrap().breakdown.dram *= 400.0;

    let doc = refrint::json::sweep(&results);
    let flagged = anomalies_of(&doc);
    assert!(!flagged.is_empty(), "the planted outlier must be reported");
    for a in &flagged {
        assert_eq!(a.get("workload").and_then(Value::as_str), Some("lu"));
        assert_eq!(a.get("retention_us").and_then(Value::as_u64), Some(50));
        assert_eq!(
            a.get("policy").and_then(Value::as_str),
            Some("R.WB(32,32)"),
            "only the planted point may be flagged: {doc}"
        );
        assert_eq!(
            a.get("metric").and_then(Value::as_str),
            Some("system_energy_j")
        );
        let z = a.get("robust_z").and_then(Value::as_num).unwrap();
        assert!(z.is_finite() && z > 0.0, "score must be finite: {z}");
    }
}
