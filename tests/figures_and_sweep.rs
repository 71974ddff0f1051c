//! Integration tests for the experiment sweep and figure generators: every
//! paper artefact must be producible end to end on a reduced sweep, with
//! well-formed, internally consistent output.

use refrint::experiment::ExperimentConfig;
use refrint::figures::{
    figure_6_1, figure_6_2, figure_6_3, figure_6_4, headline_summary, table_6_1, AppSelection,
};
use refrint::prelude::*;

fn reduced_sweep() -> refrint::SweepResults {
    let cfg = ExperimentConfig {
        apps: vec![AppPreset::Fft, AppPreset::Lu, AppPreset::Blackscholes],
        retentions_us: vec![50, 200],
        policies: vec![
            RefreshPolicy::edram_baseline(),
            RefreshPolicy::new(TimePolicy::Periodic, DataPolicy::Valid),
            RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Valid),
            RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Dirty),
            RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::write_back(4, 4)),
            RefreshPolicy::recommended(),
        ],
        refs_per_thread: 2_500,
        seed: 9,
        cores: 8,
        ..ExperimentConfig::default()
    };
    SweepRunner::new(cfg)
        .workers(1)
        .run()
        .expect("reduced sweep must run")
}

#[test]
fn sweep_produces_every_report() {
    let results = reduced_sweep();
    assert_eq!(results.sram.len(), 3);
    assert_eq!(results.edram.len(), 3 * 2 * 6);
    for report in results.edram.values() {
        assert!(report.execution_cycles > 0);
        assert!(report.breakdown.is_physical());
    }
}

#[test]
fn table_6_1_bins_match_the_paper() {
    let results = reduced_sweep();
    let table = table_6_1(&results);
    assert_eq!(table.len(), 3);
    for row in &table {
        let app: AppPreset = row.name.parse().unwrap();
        assert_eq!(row.class, app.paper_class(), "{}", row.name);
    }
}

#[test]
fn figure_6_1_and_6_2_are_consistent_stacks() {
    let results = reduced_sweep();
    let by_level = figure_6_1(&results);
    let by_component = figure_6_2(&results, AppSelection::All);
    assert_eq!(by_level.len(), 2, "one series per retention time");
    assert_eq!(by_level[0].bars.len(), 6, "one bar per policy");
    for (level_series, comp_series) in by_level.iter().zip(by_component.iter()) {
        for (a, b) in level_series.bars.iter().zip(comp_series.bars.iter()) {
            assert_eq!(a.label, b.label);
            assert!((a.total() - b.total()).abs() < 1e-9, "{}", a.label);
            assert!(a.components.iter().all(|(_, v)| *v >= 0.0));
            assert!(
                a.total() > 0.0 && a.total() < 3.0,
                "{}: {}",
                a.label,
                a.total()
            );
        }
    }
    // CSV rendering works for every series.
    for series in by_level {
        let csv = series.to_csv();
        assert!(csv.lines().count() >= 2);
        assert!(csv.contains("L3"));
    }
}

#[test]
fn figure_6_3_and_6_4_cover_class1_and_all() {
    let results = reduced_sweep();
    for selection in [AppSelection::Class(AppClass::Class1), AppSelection::All] {
        let energy = figure_6_3(&results, selection);
        let time = figure_6_4(&results, selection);
        assert_eq!(energy.len(), 2);
        assert_eq!(time.len(), 2);
        for series in energy.iter().chain(time.iter()) {
            assert_eq!(series.bars.len(), 6);
            for bar in &series.bars {
                assert!(bar.total() > 0.0, "{}", bar.label);
            }
        }
    }
}

#[test]
fn headline_orderings_hold_on_the_reduced_sweep() {
    let results = reduced_sweep();
    let h = headline_summary(&results, 50).expect("50 us is part of the sweep");
    assert!(
        h.baseline_memory_energy < 1.05,
        "naive eDRAM should not exceed SRAM by much"
    );
    assert!(h.refrint_memory_energy < h.baseline_memory_energy);
    assert!(h.refrint_system_energy < h.baseline_system_energy);
    assert!(h.baseline_slowdown > 1.0);
    assert!(h.refrint_slowdown < h.baseline_slowdown);

    // The refresh component must shrink when retention grows (Figure 6.2's
    // main retention trend), for the naive baseline where it is largest.
    let refresh_at = |retention: u64| {
        let series = figure_6_2(&results, AppSelection::All);
        let idx = results
            .retentions_us
            .iter()
            .position(|&r| r == retention)
            .unwrap();
        let bar = series[idx]
            .bars
            .iter()
            .find(|b| b.label == "P.all")
            .unwrap()
            .clone();
        bar.components
            .iter()
            .find(|(n, _)| n == "Refresh")
            .map(|(_, v)| *v)
            .unwrap()
    };
    assert!(
        refresh_at(200) < refresh_at(50),
        "refresh fraction must shrink with retention ({} vs {})",
        refresh_at(200),
        refresh_at(50)
    );
}

#[test]
fn quick_experiment_config_is_consistent() {
    let quick = ExperimentConfig::quick();
    assert!(quick.total_runs() < ExperimentConfig::paper_full().total_runs());
    assert!(!quick.apps.is_empty());
    assert_eq!(quick.policies.len(), 14);
}
