//! The Refrint benchmark program.
//!
//! ```text
//! perfbench --workload <paper_apps|policy_sweep|serve_fleet> --seed <n>
//!           --seconds <s> --trace <0|1> [--cli <refrint-cli>] [--scratch <dir>]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it runs the workload once untraced and then times each layer's public
//! functions from here (see `layers`). A human-readable report goes to
//! stderr; the last stdout line is the JSON result. `perfbench/run.py`
//! builds the program and passes `--cli` and `--scratch`.

mod layers;
mod measure;
mod serve;
mod sim;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::Outcome;

/// The `(name, unit)` pairs BENCHMARK.json (in the working directory, the
/// repository root) declares under `section`; every workload reports all
/// of them.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = refrint_engine::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let field = |m: &refrint_engine::json::Value, key: &str| {
        m.get(key)
            .and_then(|v| v.as_str())
            .map(str::to_owned)
            .ok_or_else(|| format!("BENCHMARK.json: a `{section}` entry has no {key}"))
    };
    doc.get(section)
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("BENCHMARK.json: no `{section}` list"))?
        .iter()
        .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
        .collect()
}

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub cli: Option<PathBuf>,
    pub scratch: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = sim::DEFAULT_SEED;
        let mut seconds = 30.0;
        let mut trace = false;
        let mut cli = None;
        let mut scratch = PathBuf::from(".bench_build/perfbench-scratch");
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--cli" => cli = Some(PathBuf::from(value)),
                "--scratch" => scratch = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            cli,
            scratch,
        })
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let scratch = args
        .scratch
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let outcome = match args.workload.as_str() {
        "paper_apps" => sim::paper_apps(args, &scratch),
        "policy_sweep" => sim::policy_sweep(args, &scratch),
        "serve_fleet" => serve::serve_fleet(args, &scratch),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;
    let mut expected = declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    })?;
    let mut emitted: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect();
    emitted.sort_unstable();
    expected.sort_unstable();
    if emitted != expected {
        return Err(format!(
            "emitted metrics {emitted:?} differ from the declared {expected:?}"
        ));
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&argv).and_then(|args| run(&args));
    match result {
        Ok(outcome) => {
            eprintln!(
                "checks: {} failed of {} attempted",
                outcome.failed, outcome.attempted
            );
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
