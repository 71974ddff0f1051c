//! The simulator workloads: `paper_apps` (one long run of each paper
//! class through `Simulation::run`) and `policy_sweep` (the paper's
//! 43-point grid replaying one captured trace through `SweepRunner`).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use refrint::json;
use refrint::prelude::*;
use refrint::report::SimReport;
use refrint::simulation::SimulationBuilder;

use crate::layers::{self, LayerCosts, PlantedResult, Source};
use crate::measure::{describe_ms, digest, median, peak_rss_mb, timed, Outcome};
use crate::Args;

/// The seed the goldens were recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// No simulator run may be shorter than this many 50 µs retention periods:
/// below it the refresh policies barely act.
const MIN_PERIODS: f64 = 64.0;

/// The cost the self-test plants per reference.
pub const PLANTED_NS: f64 = 1000.0;

/// `paper_apps`: one app per class, refs per thread sized for ~70 periods.
const PAPER_APPS: [(AppPreset, u64); 3] = [
    (AppPreset::Fft, 90_000),
    (AppPreset::Lu, 100_000),
    (AppPreset::Blackscholes, 130_000),
];

/// `policy_sweep`: the captured 4-core lu trace, ~68 periods long.
const SWEEP_CORES: usize = 4;
const SWEEP_REFS: u64 = 180_000;

/// Cycles in one 50 µs retention period.
fn period_cycles() -> f64 {
    RetentionConfig::microseconds_50()
        .line_retention_cycles()
        .raw() as f64
}

/// Retention periods a run spans.
pub fn horizon_periods(report: &SimReport) -> f64 {
    report.execution_cycles as f64 / period_cycles()
}

/// Refuses a workload whose shortest run is under [`MIN_PERIODS`].
fn guard_horizon(what: &str, periods: f64) -> Result<(), String> {
    if periods < MIN_PERIODS {
        return Err(format!(
            "{what} spans {periods:.1} retention periods of 50 us; \
             the benchmark refuses runs shorter than {MIN_PERIODS}"
        ));
    }
    Ok(())
}

/// The committed `(execution_cycles, report digest)` per run, for
/// [`DEFAULT_SEED`].
struct Goldens(BTreeMap<String, (u64, u64)>);

impl Goldens {
    fn load() -> Self {
        let map = include_str!("../goldens.txt")
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                let key = f.next()?.to_owned();
                let cycles = f.next()?.parse().ok()?;
                let digest = u64::from_str_radix(f.next()?, 16).ok()?;
                Some((key, (cycles, digest)))
            })
            .collect();
        Goldens(map)
    }

    /// Whether `(cycles, bytes)` matches the golden for `key`; prints the
    /// observed line in the goldens' format either way.
    fn matches(&self, key: &str, cycles: u64, bytes: &str) -> bool {
        let d = digest(bytes.as_bytes());
        eprintln!("golden {key} {cycles} {d:016x}");
        self.0.get(key) == Some(&(cycles, d))
    }
}

/// Whether to start another repetition: only if it would end closer to
/// `seconds` than stopping now, so each run measures about `seconds`.
fn another(started: Instant, done: &[f64], seconds: f64) -> bool {
    let last = done.last().copied().unwrap_or(0.0);
    started.elapsed().as_secs_f64() + last / 2.0 < seconds
}

fn paper_builder(seed: u64, refs: u64) -> SimulationBuilder {
    Simulation::builder()
        .edram_recommended()
        .cores(16)
        .l3_banks(16)
        .retention_us(50)
        .policy_label("R.WB(32,32)")
        .seed(seed)
        .refs_per_thread(refs)
}

/// One app run through the public entry point: (report, JSON, build s, run s).
fn run_app(
    builder: &SimulationBuilder,
    app: AppPreset,
) -> Result<(SimReport, String, f64, f64), String> {
    let (sim, build_s) = timed(|| builder.build());
    let mut sim = sim.map_err(|e| e.to_string())?;
    let (outcome, run_s) = timed(|| sim.run(app));
    let json = json::report(&outcome.report);
    Ok((outcome.report, json, build_s, run_s))
}

pub fn paper_apps(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let started = Instant::now();
    let goldens = Goldens::load();
    let mut out = Outcome::default();
    let builders: Vec<_> = PAPER_APPS
        .iter()
        .map(|&(app, refs)| (app, paper_builder(args.seed, refs)))
        .collect();

    let mut build_s = Vec::new();
    let mut round_s = Vec::new();
    let mut app_rate: Vec<Vec<f64>> = vec![Vec::new(); PAPER_APPS.len()];
    let (mut refs, mut run_total) = (0u64, 0.0);
    let mut first: Vec<(SimReport, String)> = Vec::new();
    // The traced run needs only one untraced round as its baseline.
    while round_s.is_empty() || (!args.trace && another(started, &round_s, args.seconds)) {
        let mut round = 0.0;
        for (i, (app, builder)) in builders.iter().enumerate() {
            let (report, json, b, r) = run_app(builder, *app)?;
            build_s.push(b);
            round += r;
            refs += report.counts.dl1_accesses;
            run_total += r;
            app_rate[i].push(report.counts.dl1_accesses as f64 / r);
            let key = format!("paper_apps/{}", app.name());
            if first.len() <= i {
                guard_horizon(&key, horizon_periods(&report))?;
                let ok = args.seed != DEFAULT_SEED
                    || goldens.matches(&key, report.execution_cycles, &json);
                out.check(ok, &format!("{key}: report differs from the golden"));
                first.push((report, json));
            } else {
                out.check(
                    json == first[i].1,
                    &format!("{key}: rerun changed the report"),
                );
            }
        }
        round_s.push(round);
    }
    let untraced_s = started.elapsed().as_secs_f64();

    eprintln!("paper_apps (seed {}, {} rounds of fft+lu+blackscholes, 16 cores, eDRAM 50 us R.WB(32,32)):", args.seed, round_s.len());
    let horizon = first
        .iter()
        .map(|f| horizon_periods(&f.0))
        .fold(f64::INFINITY, f64::min);
    eprintln!("  rounds (s): {round_s:.3?}");
    for (i, (app, _)) in PAPER_APPS.iter().enumerate() {
        eprintln!(
            "  refs_per_s.{:<25} {:>16.0} 1/s    median of {} runs; {} refs/run, {:.1} periods",
            app.name(),
            median(&app_rate[i]),
            app_rate[i].len(),
            first[i].0.counts.dl1_accesses,
            horizon_periods(&first[i].0)
        );
    }
    if !args.trace {
        out.metric(
            "setup_s",
            median(&build_s),
            "s",
            &format!("median of {} builds", build_s.len()),
        );
        out.metric(
            "throughput",
            refs as f64 / run_total,
            "1/s",
            &format!("simulated refs per host s, {refs} refs in {run_total:.3} s"),
        );
        out.metric(
            "latency_p50_ms",
            median(&round_s) * 1e3,
            "ms",
            &format!("one round: {}", describe_ms(&round_s)),
        );
        out.metric("peak_rss_mb", peak_rss_mb(None)?, "MB", "this process");
        return Ok(out);
    }

    let mut costs = Vec::new();
    for (i, (app, builder)) in builders.iter().enumerate() {
        let c = layers::trace_layers(builder, *app, Source::Generated, &first[i].0, scratch, 3)?;
        out.check(
            c.identical,
            &format!(
                "{}: a traced or run_streams run differs from the untraced report",
                app.name()
            ),
        );
        costs.push(c);
    }
    let lu = builders
        .iter()
        .position(|(a, _)| *a == AppPreset::Lu)
        .expect("lu is a paper app");
    let planted = layers::planted_selftest(&builders[lu].1, AppPreset::Lu, PLANTED_NS, 3)?;
    out.check(
        planted.report_identical,
        "lu: the planted run's report differs from the plain run's",
    );
    let sum_error_pct = layers::layer_sum_error_pct(&costs, false);
    let overhead = started.elapsed().as_secs_f64() / untraced_s;
    emit_layers(&mut out, &costs, horizon, overhead, &planted, sum_error_pct)?;
    Ok(out)
}

fn sweep_config(seed: u64, trace: &Path) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_full();
    config.apps = Vec::new();
    config.traces = vec![TraceSpec::named("lu", trace)];
    config.cores = SWEEP_CORES;
    config.seed = seed;
    config.refs_per_thread = SWEEP_REFS;
    config
}

/// The builder for one sweep point (`None` = the SRAM baseline), matching
/// the configuration `SweepRunner` builds for it.
fn point_builder(
    seed: u64,
    trace: &Path,
    point: Option<(u64, RefreshPolicy)>,
) -> SimulationBuilder {
    let builder = match point {
        None => Simulation::builder().sram_baseline(),
        Some((us, policy)) => Simulation::builder()
            .edram_baseline()
            .retention_us(us)
            .policy(policy),
    };
    builder
        .cores(SWEEP_CORES)
        .seed(seed)
        .refs_per_thread(SWEEP_REFS)
        .trace(trace)
}

/// A sweep point: its golden key, its eDRAM (retention, policy) or `None`
/// for the SRAM baseline, and its report.
type Point<'a> = (String, Option<(u64, RefreshPolicy)>, &'a SimReport);

/// Every point of a sweep result in job order.
fn sweep_points(results: &SweepResults) -> Vec<Point<'_>> {
    let mut points = Vec::new();
    if let Some(r) = results.sram_report_named("lu") {
        points.push(("policy_sweep/lu/sram".to_owned(), None, r));
    }
    for &us in &results.retentions_us {
        for &policy in &results.policies {
            if let Some(r) = results.edram_report_named("lu", us, &policy.label()) {
                points.push((
                    format!("policy_sweep/lu/{us}us/{}", policy.label()),
                    Some((us, policy)),
                    r,
                ));
            }
        }
    }
    points
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn policy_sweep(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let goldens = Goldens::load();
    let mut out = Outcome::default();
    let trace = scratch.join("lu4.trace");
    Simulation::builder()
        .edram_recommended()
        .cores(SWEEP_CORES)
        .seed(args.seed)
        .refs_per_thread(SWEEP_REFS)
        .build()
        .map_err(|e| e.to_string())?
        .capture(AppPreset::Lu, &trace)
        .map_err(|e| e.to_string())?;

    // Set-up: open the trace and build a system around it.
    let setup: Vec<f64> = (0..25)
        .map(|_| {
            timed(|| {
                point_builder(args.seed, &trace, Some((50, RefreshPolicy::recommended()))).build()
            })
            .1
        })
        .collect();

    let config = sweep_config(args.seed, &trace);
    let workers = workers();
    let started = Instant::now();
    let mut wall = Vec::new();
    let mut first: Option<(SweepResults, String)> = None;
    let mut refs = 0u64;
    while wall.is_empty() || (!args.trace && another(started, &wall, args.seconds)) {
        let (done, secs) = timed(|| -> Result<_, String> {
            let results = SweepRunner::new(config.clone())
                .workers(workers)
                .run()
                .map_err(|e| e.to_string())?;
            let doc = json::sweep(&results);
            Ok((results, doc))
        });
        let (results, doc) = done?;
        wall.push(secs);
        let points = sweep_points(&results);
        if points.len() != 43 {
            return Err(format!(
                "the sweep produced {} points, expected 43",
                points.len()
            ));
        }
        refs += points.iter().map(|p| p.2.counts.dl1_accesses).sum::<u64>();
        match &first {
            None => {
                let shortest = points
                    .iter()
                    .map(|p| horizon_periods(p.2))
                    .fold(f64::INFINITY, f64::min);
                guard_horizon("the shortest sweep point", shortest)?;
                for (key, _, report) in &points {
                    let ok = args.seed != DEFAULT_SEED
                        || goldens.matches(key, report.execution_cycles, &json::report(report));
                    out.check(ok, &format!("{key}: report differs from the golden"));
                }
                let ok =
                    args.seed != DEFAULT_SEED || goldens.matches("policy_sweep/document", 0, &doc);
                out.check(ok, "policy_sweep: sweep document differs from the golden");
                drop(points);
                first = Some((results, doc));
            }
            Some((first_results, first_doc)) => {
                let before = sweep_points(first_results);
                for ((key, _, report), (_, _, was)) in points.iter().zip(&before) {
                    out.check(
                        json::report(report) == json::report(was),
                        &format!("{key}: a rerun changed the report"),
                    );
                }
                out.check(
                    &doc == first_doc,
                    "policy_sweep: a rerun changed the sweep document",
                );
            }
        }
    }
    let untraced_s = started.elapsed().as_secs_f64();
    let (results, doc) = first.expect("at least one sweep");
    let points = sweep_points(&results);
    let ratio_of = |label: &str| {
        results
            .edram_report_named("lu", 50, label)
            .map(|r| r.counts.l3_refreshes)
            .unwrap_or(0)
    };
    let (wb32, valid) = (ratio_of("R.WB(32,32)"), ratio_of("R.valid"));
    let shortest = points
        .iter()
        .map(|p| horizon_periods(p.2))
        .fold(f64::INFINITY, f64::min);

    eprintln!(
        "policy_sweep (seed {}, {} sweep(s) of 43 points, 4-core lu trace, {workers} workers):",
        args.seed,
        wall.len()
    );
    eprintln!(
        "  wall_s{:<30} {:>16.4} s      {}",
        "",
        median(&wall),
        describe_ms(&wall)
    );
    eprintln!(
        "  edram.wb32_over_valid_l3_refreshes   {:>16.4} ratio  R.WB(32,32) {wb32} / R.valid {valid} L3 refreshes at 50 us",
        wb32 as f64 / valid.max(1) as f64
    );
    if !args.trace {
        out.metric(
            "setup_s",
            median(&setup),
            "s",
            &format!("median of {} trace opens + builds", setup.len()),
        );
        out.metric(
            "throughput",
            refs as f64 / wall.iter().sum::<f64>(),
            "1/s",
            &format!("simulated refs per host s over {} sweep(s)", wall.len()),
        );
        out.metric(
            "latency_p50_ms",
            median(&wall) * 1e3,
            "ms",
            &format!("sweep to JSON document: {}", describe_ms(&wall)),
        );
        out.metric("peak_rss_mb", peak_rss_mb(None)?, "MB", "this process");
        return Ok(out);
    }

    // Replay every point on our own threads: each point's build + run
    // time, and its report against the sweep's.
    let timings = replay_points(args.seed, &trace, &points, workers)?;
    let mut busy = 0.0;
    for (key, secs, same) in &timings {
        busy += secs;
        out.check(
            *same,
            &format!("{key}: point replay differs from the sweep's report"),
        );
    }
    let idle = 1.0 - busy / (workers as f64 * median(&wall));
    eprintln!("  core.sweep.idle_ratio{:<15} {:>16.4} ratio  1 - {busy:.3} s busy / ({workers} workers x {:.3} s)", "", idle, median(&wall));
    let sweep_json_ms = layers::per_call_us(1, 3, || {
        std::hint::black_box(json::sweep(&results));
    }) / 1e3;
    eprintln!(
        "  core.sweep_json_ms{:<18} {:>16.4} ms     {} bytes",
        "",
        sweep_json_ms,
        doc.len()
    );

    let recommended = Some((50, RefreshPolicy::recommended()));
    let live = results
        .edram_report_named("lu", 50, &RefreshPolicy::recommended().label())
        .ok_or("the sweep has no 50 us R.WB(32,32) point")?;
    let builder = point_builder(args.seed, &trace, recommended);
    let costs = layers::trace_layers(
        &builder,
        AppPreset::Lu,
        Source::Trace(&trace),
        live,
        scratch,
        3,
    )?;
    out.check(
        costs.identical,
        "policy_sweep: a traced or run_streams replay differs from the sweep's report",
    );
    let capture = Simulation::builder()
        .edram_recommended()
        .cores(SWEEP_CORES)
        .seed(args.seed)
        .refs_per_thread(SWEEP_REFS);
    let planted = layers::planted_selftest(&capture, AppPreset::Lu, PLANTED_NS, 2)?;
    out.check(
        planted.report_identical,
        "lu: the planted run's report differs from the plain run's",
    );
    let costs = [costs];
    let sum_error_pct = layers::layer_sum_error_pct(&costs, true);
    let overhead = started.elapsed().as_secs_f64() / untraced_s;
    emit_layers(
        &mut out,
        &costs,
        shortest,
        overhead,
        &planted,
        sum_error_pct,
    )?;
    Ok(out)
}

/// Builds and replays every sweep point on `workers` threads; returns
/// (key, build + run seconds, report identical to the sweep's).
fn replay_points(
    seed: u64,
    trace: &Path,
    points: &[Point<'_>],
    workers: usize,
) -> Result<Vec<(String, f64, bool)>, String> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some((key, point, report)) = points.get(i) else {
                            return Ok(());
                        };
                        let (outcome, secs) = timed(|| -> Result<RunOutcome, String> {
                            let mut sim = point_builder(seed, trace, *point)
                                .build()
                                .map_err(|e| e.to_string())?;
                            sim.replay().map_err(|e| e.to_string())
                        });
                        let same = json::report(&outcome?.report) == json::report(report);
                        results
                            .lock()
                            .expect("no replay thread panics while holding the lock")
                            .push((key.clone(), secs, same));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect::<Result<Vec<()>, String>>()
    })?;
    Ok(results.into_inner().expect("replay threads are joined"))
}

/// Emits the per-layer metrics (the `per_layer` list of BENCHMARK.json)
/// pooled over `costs`: per-op costs weighted by op counts, per-ref values
/// by references.
pub fn emit_layers(
    out: &mut Outcome,
    costs: &[LayerCosts],
    horizon: f64,
    overhead: f64,
    planted: &PlantedResult,
    sum_error_pct: f64,
) -> Result<(), String> {
    let refs: u64 = costs.iter().map(|c| c.refs).sum();
    let per_ref = |f: &dyn Fn(&LayerCosts) -> f64| {
        costs.iter().map(|c| f(c) * c.refs as f64).sum::<f64>() / refs as f64
    };
    let mean =
        |f: &dyn Fn(&LayerCosts) -> f64| costs.iter().map(f).sum::<f64>() / costs.len() as f64;
    let count = |f: &dyn Fn(&SimReport) -> u64| costs.iter().map(|c| f(&c.report)).sum::<u64>();
    let apps = costs.len();
    eprintln!("per-layer (traced run, {apps} simulation(s), {refs} refs):");
    out.metric(
        "workloads.gen_ns_per_ref",
        per_ref(&|c| c.gen_ns_per_ref),
        "ns",
        "ThreadStream drain",
    );
    out.metric(
        "trace.open_ms",
        mean(&|c| c.trace_open_ms),
        "ms",
        "TraceFile::open",
    );
    out.metric(
        "trace.decode_ns_per_ref",
        per_ref(&|c| c.trace_decode_ns_per_ref),
        "ns",
        "TraceFile::thread drain",
    );
    out.metric(
        "core.build_ms",
        mean(&|c| c.build_ms),
        "ms",
        "SimulationBuilder::build",
    );
    out.metric(
        "core.run_ns_per_ref",
        per_ref(&|c| c.run_ns_per_ref),
        "ns",
        "run_streams over materialised refs",
    );
    for (i, (name, _)) in costs[0].layers().iter().enumerate() {
        let ops: u64 = costs.iter().map(|c| c.layers()[i].1.ops).sum();
        let ns: f64 = costs
            .iter()
            .map(|c| c.layers()[i].1.ns_per_op * c.layers()[i].1.ops as f64)
            .sum();
        out.metric(
            name,
            ns / ops.max(1) as f64,
            "ns",
            &format!("per call; {ops} calls in the run(s)"),
        );
    }
    out.metric(
        "core.unattributed_ns_per_ref",
        per_ref(&|c| c.unattributed_ns_per_ref()),
        "ns",
        "run minus sum of layer ns x op count, per ref",
    );
    out.metric(
        "energy.breakdown_us",
        mean(&|c| c.breakdown_us),
        "us",
        "EnergyBreakdown::compute_for_chip",
    );
    out.metric(
        "core.report_json_us",
        mean(&|c| c.report_json_us),
        "us",
        "refrint::json::report",
    );
    let ratio = |num: u64, base: u64, unit| (num as f64 / base.max(1) as f64, unit);
    let l3 = count(&|r| r.counts.l3_accesses);
    let rows = [
        (
            "mem.l2_per_ref",
            ratio(count(&|r| r.counts.l2_accesses), refs, "1/ref"),
            format!("base {refs} refs"),
        ),
        (
            "mem.l3_per_ref",
            ratio(l3, refs, "1/ref"),
            format!("base {refs} refs"),
        ),
        (
            "mem.dram_per_ref",
            ratio(count(&|r| r.counts.dram_accesses()), refs, "1/ref"),
            format!("base {refs} refs"),
        ),
        (
            "mem.l3_hit_ratio",
            (
                1.0 - count(&|r| r.counts.dram_reads) as f64 / l3.max(1) as f64,
                "ratio",
            ),
            format!("base {l3} l3_accesses"),
        ),
        (
            "coherence.messages_per_ref",
            ratio(count(&|r| r.stats.get("coherence.messages")), refs, "1/ref"),
            format!("base {refs} refs"),
        ),
        (
            "noc.flit_hops_per_ref",
            ratio(count(&|r| r.counts.noc_flit_hops), refs, "1/ref"),
            format!("base {refs} refs"),
        ),
    ];
    for (name, (value, unit), base) in rows {
        out.metric(name, value, unit, &base);
    }
    let cycles = count(&|r| r.execution_cycles);
    out.metric(
        "edram.refreshes_per_kcycle",
        count(&|r| r.counts.total_refreshes()) as f64 * 1e3 / cycles as f64,
        "1/kcycle",
        &format!("base {cycles} simulated cycles"),
    );
    out.metric(
        "edram.horizon_periods",
        horizon,
        "periods",
        "shortest run, 50 us periods",
    );
    out.metric(
        "tracing.overhead_ratio",
        overhead,
        "ratio",
        "traced run time / untraced run time",
    );
    eprintln!(
        "  planted {:.1} ns/ref: generation rose {:.1} ns, unattributed moved {:.1} ns",
        planted.planted_ns, planted.gen_rise_ns, planted.unattributed_shift_ns
    );
    let pct = |x: f64| (x / planted.planted_ns * 100.0).abs();
    out.metric(
        "selftest.gen_rise_error_pct",
        pct(planted.gen_rise_ns - planted.planted_ns),
        "%",
        "|rise - planted| / planted",
    );
    out.metric(
        "selftest.unattributed_shift_pct",
        pct(planted.unattributed_shift_ns),
        "%",
        "|shift| / planted",
    );
    out.metric(
        "selftest.layer_sum_error_pct",
        sum_error_pct.abs(),
        "%",
        "|layer rows + unattributed - measured run| / measured",
    );
    // Instrument checks, reported rather than counted as failed
    // operations: they judge this benchmark's timing, not the program's
    // output, and move with the host's noise.
    let verdict = |ok: bool| if ok { "pass" } else { "FAIL" };
    eprintln!(
        "  self-test: planted cost within 25%: {}; layer rows within 5% of the measured run \
         ({sum_error_pct:+.2}%): {}",
        verdict(planted.within_tolerance()),
        verdict(sum_error_pct.abs() <= 5.0)
    );
    Ok(())
}
