//! End-to-end pins for the `gen-figures` binary: its smoke-scale output is
//! byte-identical to a committed golden file, and `--figure` / `--table`
//! select exactly the artefacts they name.

use std::process::{Command, Output};

/// `gen-figures --scale smoke --apps lu --csv` stdout, captured from the
/// single-worker sweep. The parallel sweep must reproduce it byte for byte.
const GOLDEN: &str = include_str!("gen_figures_smoke_lu.golden");

fn gen_figures(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gen-figures"))
        .args(["--scale", "smoke", "--apps", "lu"])
        .args(extra)
        .output()
        .expect("gen-figures runs")
}

fn stdout_of(extra: &[&str]) -> String {
    let out = gen_figures(extra);
    assert!(
        out.status.success(),
        "gen-figures {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn smoke_csv_output_matches_the_golden_file() {
    let stdout = stdout_of(&["--csv"]);
    if let Some((n, (got, want))) = stdout
        .lines()
        .zip(GOLDEN.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!("line {}: got `{got}`, golden `{want}`", n + 1);
    }
    assert_eq!(stdout, GOLDEN, "output length differs from the golden file");
}

#[test]
fn table_flag_prints_only_the_table() {
    let stdout = stdout_of(&["--table", "6.1"]);
    assert!(stdout.contains("== Table 6.1"), "{stdout}");
    assert!(!stdout.contains("== Figure"), "{stdout}");
}

#[test]
fn figure_flag_prints_no_table() {
    let stdout = stdout_of(&["--figure", "6.1"]);
    assert!(stdout.contains("== Figure 6.1"), "{stdout}");
    assert!(!stdout.contains("== Table"), "{stdout}");
    assert!(!stdout.contains("== Figure 6.2"), "{stdout}");
}

#[test]
fn unknown_artefact_ids_fail_before_any_simulation() {
    for args in [["--figure", "7.3"], ["--table", "6.2"]] {
        let out = gen_figures(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
        assert!(stderr.contains(args[1]), "{stderr}");
        assert!(!stderr.contains("running"), "{args:?} ran the sweep");
    }
}
