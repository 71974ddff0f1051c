//! `refrint-cli`: command-line front end for the Refrint reproduction.
//!
//! Subcommands:
//!
//! * `show-config` — print the paper's architecture configuration (Table 5.1).
//! * `classify` — classify the 11 applications into Class 1/2/3 (Table 6.1).
//! * `run` — run one application on one configuration and print the report.
//! * `sweep` — run a (reduced) policy sweep in parallel and print the
//!   headline numbers.
//! * `trace record` / `trace replay` / `trace info` — capture a workload to
//!   a trace file, replay it bit-for-bit, or summarize its contents.
//! * `check` — differential conformance: run seeded random scenarios
//!   through both the optimized simulator and the independent
//!   `refrint-oracle` reference model, diff the reports field by field,
//!   and shrink any divergence to a minimal repro.
//! * `serve` — run the `refrint-serve` HTTP service (job queue, worker
//!   pool, result cache) on a listen address.

use std::process::ExitCode;

use refrint::config::SystemConfig;
use refrint::figures::headline_summary;
use refrint::json;
use refrint::sweep::{SweepProgress, SweepRunner};
use refrint_cli::{
    ObsOptions, OutputFormat, RunOptions, ServeOptions, SweepOptions, TraceInfoOptions,
    TraceRecordOptions, TraceReplayOptions,
};
use refrint_trace::{TraceFile, TraceSummary};
use refrint_workloads::apps::AppPreset;
use refrint_workloads::classify::{classify, ClassifierConfig};

const USAGE: &str = "\
refrint-cli <command> [options]

Commands:
  show-config                      print the simulated architecture (paper Table 5.1)
  classify                         classify applications into Class 1/2/3 (paper Table 6.1)
  run --app <name> [--sram] [--policy P.all|R.WB(32,32)|...] [--retention 50|100|200]
      [--protocol mesi|dragon] [--retention-profile uniform|normal(S)|bimodal(W,R)]
      [--refs <n>] [--seed <n>] [--timing] [--format text|json]
                                   run one application and print the report
                                   (--timing adds the cycle/host-time table on stderr)
  obs --app <name> [--sram] [--policy <label>] [--retention <us>]
      [--protocol mesi|dragon] [--retention-profile <label>] [--refs <n>]
      [--seed <n>] [--cores <n>] [--sample <n>] [--critical-path]
      [--anomaly-threshold <z>] [--min-slice <n>] [--format json|text]
                                   run with full-sampling observability and print the
                                   OTLP-shaped span export (docs/observability.md);
                                   --critical-path prints the bounding-subsystem report
  sweep [--refs <n>] [--apps a,b] [--trace <file>]... [--cores <n>] [--jobs <n>]
        [--protocol mesi|dragon]... [--retention-profile <label>]...
        [--anomaly-threshold <z>] [--min-slice <n>] [--progress] [--format text|json]
                                   run the policy sweep across worker threads
                                   (repeat --protocol / --retention-profile to add
                                   coherence and per-bank retention axes)
  trace record --app <name> --out <file> [--cores <n>] [--refs <n>] [--seed <n>] [--text]
                                   capture a workload's reference streams to a trace
  trace replay --trace <file> [--sram] [--policy <label>] [--retention <us>]
               [--format text|json]
                                   replay a recorded trace through a configuration
  trace info --trace <file> [--format text|json]
                                   summarize a trace (threads, gaps, strides)
  check [--seed <n>] [--scenarios <n>] [--scenario \"<spec>\"] [--protocol mesi|dragon]
        [--self-test] [--progress]
                                   run the oracle conformance harness (docs/testing.md;
                                   --protocol pins every scenario's coherence protocol,
                                   which is how CI runs one conformance leg per protocol)
  serve --addr HOST:PORT [--workers <n>] [--queue <n>] [--cache <n>]
        [--max-body <bytes>] [--trace-dir <dir>] [--latency-buckets 1ms,10ms,...]
        [--log-format text|json] [--cache-dir <dir>]
        [--coordinator] [--backend HOST:PORT]...
                                   run the HTTP simulation service (see docs/serve.md);
                                   REFRINT_LOG=error|warn|info|debug sets log verbosity;
                                   --coordinator dispatches jobs to --backend servers
                                   instead of simulating locally (docs/coordinator.md);
                                   --cache-dir persists results across restarts
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "show-config" => show_config(),
        "classify" => classify_apps(),
        "run" => run_one(rest),
        "obs" => obs(rest),
        "sweep" => sweep(rest),
        "trace" => trace(rest),
        "check" => check(rest),
        "serve" => serve(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("refrint-cli: {e}");
            ExitCode::FAILURE
        }
    }
}

fn show_config() -> Result<(), String> {
    println!("== Full-SRAM baseline ==");
    println!("{}", SystemConfig::sram_baseline());
    println!();
    println!("== Recommended full-eDRAM configuration ==");
    println!("{}", SystemConfig::edram_recommended());
    Ok(())
}

fn classify_apps() -> Result<(), String> {
    println!("== Table 6.1: application binning ==");
    let config = ClassifierConfig::default();
    for app in AppPreset::ALL {
        let report = classify(&app.model(), &config);
        let marker = if report.class == app.paper_class() {
            ""
        } else {
            "  (differs from paper!)"
        };
        println!("{report}{marker}");
    }
    Ok(())
}

/// Prints a run report in the requested format.
fn print_report(report: &refrint::report::SimReport, format: OutputFormat) {
    match format {
        OutputFormat::Json => println!("{}", json::report(report)),
        OutputFormat::Text => {
            println!("{report}");
            println!();
            println!(
                "l3 miss rate    : {:.2} per 1000 data refs",
                report.l3_miss_rate_per_mille()
            );
            println!(
                "refresh rate    : {:.2} refreshes per kilo-cycle",
                report.refreshes_per_kilocycle()
            );
        }
    }
}

fn run_one(args: &[String]) -> Result<(), String> {
    let options = RunOptions::parse(args)?;
    let mut simulation = options.builder().build().map_err(|e| e.to_string())?;
    let outcome = simulation.run(options.app);
    print_report(&outcome.report, options.format);
    if options.timing {
        // Stderr, so stdout stays byte-identical with and without --timing.
        eprintln!("{}", simulation.obs_summary());
    }
    Ok(())
}

/// One fully-instrumented run whose product is the span export itself.
fn obs(args: &[String]) -> Result<(), String> {
    let options = ObsOptions::parse(args)?;
    let mut simulation = options.builder().build().map_err(|e| e.to_string())?;
    let outcome = simulation.run(options.app);
    let summary = simulation.obs_summary();
    anomaly_scan(&summary, options.anomaly);
    if options.critical_path {
        println!(
            "{}",
            refrint_obs::critical_path::subsystem_critical_path(&summary)
        );
        return Ok(());
    }
    match options.format {
        OutputFormat::Json => println!(
            "{}",
            refrint_obs::otlp::render(&summary, outcome.config_label(), outcome.workload())
        ),
        OutputFormat::Text => println!("{summary}"),
    }
    Ok(())
}

/// Scores the sampled span durations per (subsystem, kind) slice and
/// reports outliers on stderr, keeping stdout byte-identical whether or
/// not anything is flagged.
fn anomaly_scan(summary: &refrint_obs::ObsSummary, tuning: refrint_obs::anomaly::AnomalyTuning) {
    use std::collections::BTreeMap;
    let mut slices: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
    for span in &summary.sampled {
        slices
            .entry((span.subsystem.name(), span.kind))
            .or_default()
            .push(span.dur as f64);
    }
    // Cap the per-outlier lines so a jittery slice cannot flood stderr;
    // the closing summary always carries the full count.
    const MAX_LINES: usize = 8;
    let mut flagged = 0usize;
    for ((subsystem, kind), values) in &slices {
        let flags =
            refrint_obs::anomaly::flag_outliers_with(values, tuning.threshold, tuning.min_slice);
        for f in &flags {
            flagged += 1;
            if flagged <= MAX_LINES {
                eprintln!(
                    "anomaly: {subsystem}/{kind} sample #{} dur {:.0} cycles (median {:.0}, robust z {:+.1})",
                    f.index, f.value, f.median, f.robust_z
                );
            }
        }
    }
    if flagged > MAX_LINES {
        eprintln!("anomaly: ... and {} more", flagged - MAX_LINES);
    }
    eprintln!(
        "anomaly scan: {flagged} outlier(s) in {} sampled span(s) across {} slice(s) (threshold {}, min slice {})",
        summary.sampled.len(),
        slices.len(),
        tuning.threshold,
        tuning.min_slice
    );
}

fn sweep(args: &[String]) -> Result<(), String> {
    let options = SweepOptions::parse(args)?;
    let cfg = options.experiment()?;
    let mut runner = SweepRunner::new(cfg);
    if let Some(jobs) = options.jobs {
        runner = runner.workers(jobs);
    }
    if options.progress {
        runner = runner.observer(|p: &SweepProgress| {
            eprintln!(
                "[{}/{}] {} on {}",
                p.completed, p.total, p.app, p.config_label
            );
        });
    }
    eprintln!(
        "running {} simulations ({} refs per thread)...",
        runner.config().total_runs(),
        runner.config().refs_per_thread
    );
    let results = runner.run().map_err(|e| e.to_string())?;
    if options.format == OutputFormat::Json {
        println!("{}", json::sweep_tuned(&results, options.anomaly));
        return Ok(());
    }
    for &retention in &results.retentions_us {
        if let Some(h) = headline_summary(&results, retention) {
            println!("== {retention} us ==");
            println!(
                "Periodic All     : memory {:.2}  system {:.2}  slowdown {:.2}",
                h.baseline_memory_energy, h.baseline_system_energy, h.baseline_slowdown
            );
            println!(
                "Refrint WB(32,32): memory {:.2}  system {:.2}  slowdown {:.2}",
                h.refrint_memory_energy, h.refrint_system_energy, h.refrint_slowdown
            );
        }
    }
    Ok(())
}

fn trace(args: &[String]) -> Result<(), String> {
    let Some(sub) = args.first() else {
        return Err(format!("trace requires a subcommand\n{USAGE}"));
    };
    let rest = &args[1..];
    match sub.as_str() {
        "record" => trace_record(rest),
        "replay" => trace_replay(rest),
        "info" => trace_info(rest),
        other => Err(format!("unknown trace subcommand `{other}`\n{USAGE}")),
    }
}

fn trace_record(args: &[String]) -> Result<(), String> {
    let options = TraceRecordOptions::parse(args)?;
    let simulation = options.builder().build().map_err(|e| e.to_string())?;
    let meta = simulation
        .capture_model_as(&options.app.model(), &options.out, options.format)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "recorded {} ({} threads, seed {:#x}) to {}",
        meta.workload,
        meta.threads,
        meta.seed,
        options.out.display()
    );
    Ok(())
}

fn trace_replay(args: &[String]) -> Result<(), String> {
    let options = TraceReplayOptions::parse(args)?;
    let mut simulation = options.builder().build().map_err(|e| e.to_string())?;
    let outcome = simulation.replay().map_err(|e| e.to_string())?;
    print_report(&outcome.report, options.format);
    Ok(())
}

fn trace_info(args: &[String]) -> Result<(), String> {
    let options = TraceInfoOptions::parse(args)?;
    let trace = TraceFile::open(&options.trace).map_err(|e| e.to_string())?;
    let summary = TraceSummary::collect(&trace).map_err(|e| e.to_string())?;
    match options.format {
        OutputFormat::Json => println!("{}", json::trace_summary(&summary)),
        OutputFormat::Text => {
            println!("trace           : {}", options.trace.display());
            println!("{summary}");
        }
    }
    Ok(())
}

/// Differential conformance against the independent oracle.
fn check(args: &[String]) -> Result<(), String> {
    use refrint_cli::CheckOptions;
    use refrint_oracle::harness::{run_check_pinned, run_scenario_with};
    use refrint_oracle::scenario::Scenario;
    use refrint_oracle::system::Fault;

    let options = CheckOptions::parse(args)?;
    let fault = options.self_test.then_some(Fault::DecayCleanBudgetOffByOne);

    // Repro mode: one explicit scenario, no shrinking needed (the spec is
    // already a minimal repro, or the user is bisecting by hand). The
    // --self-test fault applies here too, so a self-test divergence's
    // printed repro command stays reproducible.
    if let Some(spec) = &options.scenario {
        let scenario = Scenario::from_spec(spec)?;
        eprintln!("checking scenario: {scenario}");
        let diffs = run_scenario_with(&scenario, fault).map_err(|e| e.to_string())?;
        if diffs.is_empty() {
            println!("ok: oracle and simulator agree on `{scenario}`");
            return Ok(());
        }
        let mut out = format!("oracle and simulator disagree on `{scenario}`:\n");
        for d in &diffs {
            out.push_str(&format!("  {d}\n"));
        }
        return Err(out);
    }

    if options.self_test {
        eprintln!(
            "self-test: off-by-one injected into the oracle's decay settlement; \
             the harness must catch it"
        );
    }
    match options.protocol {
        Some(protocol) => eprintln!(
            "running {} scenarios (seed {:#x}, protocol pinned to {})...",
            options.scenarios,
            options.seed,
            protocol.label()
        ),
        None => eprintln!(
            "running {} scenarios (seed {:#x})...",
            options.scenarios, options.seed
        ),
    }
    let outcome = run_check_pinned(
        options.seed,
        options.scenarios,
        options.protocol,
        fault,
        |index, scenario| {
            if options.progress {
                eprintln!("[{}/{}] {scenario}", index + 1, options.scenarios);
            }
        },
    )
    .map_err(|e| e.to_string())?;

    match (outcome.divergence, options.self_test) {
        (None, false) => {
            println!(
                "ok: oracle and simulator agree field-for-field on {} scenarios",
                outcome.scenarios_run
            );
            Ok(())
        }
        (None, true) => Err(format!(
            "self-test FAILED: the injected fault survived {} scenarios undetected",
            outcome.scenarios_run
        )),
        (Some(divergence), true) => {
            println!(
                "self-test ok: injected fault caught after {} scenarios and shrunk in {} steps",
                outcome.scenarios_run, divergence.shrink_steps
            );
            println!("{divergence}");
            Ok(())
        }
        (Some(divergence), false) => Err(divergence.to_string()),
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let options = ServeOptions::parse(args)?;
    refrint_serve::install_sigterm_handler();
    let mut server_options = options.server_options();
    // The library default is quiet (errors only); the CLI serves humans, so
    // default to info and let REFRINT_LOG override in either direction.
    server_options.log_level =
        refrint_obs::log::Level::from_env("REFRINT_LOG", refrint_obs::log::Level::Info);
    let server = refrint_serve::Server::bind(options.addr.as_str(), server_options)
        .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    if options.coordinator {
        eprintln!(
            "refrint-serve: coordinating {} backend(s) on http://{addr} \
             (POST /run, POST /sweep, POST /backends)",
            options.backends.len()
        );
    } else {
        eprintln!(
            "refrint-serve: listening on http://{addr} (POST /run, POST /sweep, GET /healthz)"
        );
    }
    server.run().map_err(|e| e.to_string())
}
