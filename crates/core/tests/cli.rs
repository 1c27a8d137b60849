//! End-to-end tests of the `edgetune` CLI binary.

use std::process::Command;

fn edgetune() -> Command {
    Command::new(env!("CARGO_BIN_EXE_edgetune"))
}

#[test]
fn default_run_prints_both_outputs() {
    let out = edgetune()
        .args(["--workload", "ic", "--trials", "4", "--max-iter", "4"])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("winning trial"), "{stdout}");
    assert!(stdout.contains("deployment recommendation"), "{stdout}");
    assert!(stdout.contains("Raspberry Pi 3B+"), "{stdout}");
}

#[test]
fn json_flag_writes_a_loadable_report() {
    let path = std::env::temp_dir().join("edgetune-cli-test-report.json");
    std::fs::remove_file(&path).ok();
    let out = edgetune()
        .args([
            "--workload",
            "sr",
            "--trials",
            "4",
            "--max-iter",
            "4",
            "--json",
            path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("report written");
    let report = edgetune::TuningReport::from_json(&json).expect("report parses");
    assert!(report.best_accuracy() > 0.0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_flags_fail_with_guidance() {
    let out = edgetune()
        .args(["--workload", "bogus"])
        .output()
        .expect("cli runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown workload"), "{stderr}");

    let out = edgetune()
        .args(["--device", "tpu"])
        .output()
        .expect("cli runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown device"), "{stderr}");
    assert!(
        stderr.contains("Titan RTX node"),
        "catalog listed: {stderr}"
    );
}

#[test]
fn trace_summary_profiles_a_recorded_trace() {
    let path = std::env::temp_dir().join("edgetune-cli-test-summary.trace.json");
    std::fs::remove_file(&path).ok();
    let out = edgetune()
        .args([
            "--workload",
            "ic",
            "--trials",
            "4",
            "--max-iter",
            "4",
            "--trace",
            path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = edgetune()
        .args([
            "trace-summary",
            path.to_str().expect("utf8 path"),
            "--top",
            "5",
        ])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("spans"), "{stdout}");
    assert!(stdout.contains("self(ms)"), "{stdout}");
    assert!(stdout.contains("bracket-0"), "{stdout}");
    // `--top 5` caps the table at a header line, a summary line and
    // five rows.
    assert!(stdout.lines().count() <= 7, "{stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_summary_rejects_missing_or_bad_input() {
    let out = edgetune().arg("trace-summary").output().expect("cli runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("usage"), "{stderr}");

    let out = edgetune()
        .args(["trace-summary", "/nonexistent/trace.json"])
        .output()
        .expect("cli runs");
    assert!(!out.status.success());
}

#[test]
fn help_lists_the_flags() {
    let out = edgetune().arg("--help").output().expect("cli runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    for flag in [
        "--workload",
        "--metric",
        "--budget",
        "--study-shards",
        "--json",
    ] {
        assert!(stdout.contains(flag), "missing {flag} in help: {stdout}");
    }
}
