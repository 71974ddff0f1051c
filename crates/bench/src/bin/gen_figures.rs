//! `gen-figures`: regenerate every table and figure of the paper's
//! evaluation section from the configuration sweep.
//!
//! Usage:
//!
//! ```text
//! gen-figures [--scale smoke|default|long] [--apps fft,lu,...] \
//!             [--figure 6.1|6.2|6.3|6.4] [--table 6.1] [--csv]
//! ```
//!
//! With no `--figure`/`--table` argument every artefact is produced. Ids
//! outside the paper's evaluation section are rejected before any simulation
//! runs. The output is plain text (or CSV with `--csv`), so it can be diffed
//! against a golden file.

use std::process::ExitCode;

use refrint_bench::{
    experiment, headline, render_figure_6_1, render_figure_6_2, render_figure_6_3,
    render_figure_6_4, render_table_6_1, sweep, Scale,
};
use refrint_energy::report::NormalizedSeries;
use refrint_workloads::apps::AppPreset;

/// One table or figure of the paper's evaluation section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Artefact {
    Table6_1,
    Figure6_1,
    Figure6_2,
    Figure6_3,
    Figure6_4,
}

impl Artefact {
    /// Parses the id given to `--table` (`table == true`) or `--figure`.
    fn parse(table: bool, id: &str) -> Result<Self, String> {
        match (table, id) {
            (true, "6.1") => Ok(Artefact::Table6_1),
            (true, other) => Err(format!("unknown table `{other}` (expected 6.1)")),
            (false, "6.1") => Ok(Artefact::Figure6_1),
            (false, "6.2") => Ok(Artefact::Figure6_2),
            (false, "6.3") => Ok(Artefact::Figure6_3),
            (false, "6.4") => Ok(Artefact::Figure6_4),
            (false, other) => Err(format!(
                "unknown figure `{other}` (expected 6.1, 6.2, 6.3 or 6.4)"
            )),
        }
    }
}

#[derive(Debug)]
struct Options {
    scale: Scale,
    apps: Option<Vec<AppPreset>>,
    artefacts: Vec<Artefact>,
    csv: bool,
}

impl Options {
    fn wants(&self, artefact: Artefact) -> bool {
        self.artefacts.is_empty() || self.artefacts.contains(&artefact)
    }

    fn print_series(&self, series: &[NormalizedSeries]) {
        for s in series {
            print!("{}", if self.csv { s.to_csv() } else { s.to_table() });
        }
    }

    fn print_groups(&self, groups: &[(String, Vec<NormalizedSeries>)]) {
        for (label, group) in groups {
            println!("-- {label} --");
            self.print_series(group);
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        scale: Scale::Default,
        apps: None,
        artefacts: Vec::new(),
        csv: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                opts.scale = match v.as_str() {
                    "smoke" => Scale::Smoke,
                    "default" => Scale::Default,
                    "long" => Scale::Long,
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "--apps" => {
                let v = args.next().ok_or("--apps needs a value")?;
                let mut apps = Vec::new();
                for name in v.split(',') {
                    apps.push(name.parse::<AppPreset>().map_err(|e| format!("{e}"))?);
                }
                opts.apps = Some(apps);
            }
            flag @ ("--figure" | "--table") => {
                let v = args.next().ok_or(format!("{flag} needs a value"))?;
                opts.artefacts.push(Artefact::parse(flag == "--table", &v)?);
            }
            "--csv" => opts.csv = true,
            "--help" | "-h" => {
                println!(
                    "gen-figures [--scale smoke|default|long] [--apps a,b,c] \
                     [--figure 6.1|6.2|6.3|6.4] [--table 6.1] [--csv]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gen-figures: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cfg = experiment(opts.scale, opts.apps.clone());
    eprintln!(
        "gen-figures: running {} simulations ({} refs/thread) ...",
        cfg.total_runs(),
        cfg.refs_per_thread
    );
    let results = sweep(&cfg);

    if opts.wants(Artefact::Table6_1) {
        println!("== Table 6.1: application binning ==");
        for line in render_table_6_1(&results) {
            println!("{line}");
        }
        println!();
    }

    if opts.wants(Artefact::Figure6_1) {
        println!(
            "== Figure 6.1: L1, L2, L3 & DRAM energy (normalised to full-SRAM memory energy) =="
        );
        opts.print_series(&render_figure_6_1(&results));
        println!();
    }

    if opts.wants(Artefact::Figure6_2) {
        println!("== Figure 6.2: dynamic, leakage, refresh & DRAM energy (normalised) ==");
        opts.print_groups(&render_figure_6_2(&results));
        println!();
    }

    if opts.wants(Artefact::Figure6_3) {
        println!("== Figure 6.3: total energy (normalised to full-SRAM system energy) ==");
        opts.print_groups(&render_figure_6_3(&results));
        println!();
    }

    if opts.wants(Artefact::Figure6_4) {
        println!("== Figure 6.4: execution time (normalised to full-SRAM execution time) ==");
        opts.print_groups(&render_figure_6_4(&results));
        println!();
    }

    if let Some(h) = headline(&results) {
        println!("== Headline (50 us, averaged over all applications) ==");
        println!(
            "Periodic All     : memory {:.2}, system {:.2}, slowdown {:.2}",
            h.baseline_memory_energy, h.baseline_system_energy, h.baseline_slowdown
        );
        println!(
            "Refrint WB(32,32): memory {:.2}, system {:.2}, slowdown {:.2}",
            h.refrint_memory_energy, h.refrint_system_energy, h.refrint_slowdown
        );
        println!(
            "(paper: 0.50 / 0.72 / 1.18 for Periodic All; 0.36 / 0.61 / 1.02 for Refrint WB(32,32))"
        );
    }
    ExitCode::SUCCESS
}
