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
    assert!(!stdout.contains("fault report"), "{stdout}");
}

#[test]
fn fault_rate_adds_the_fault_report() {
    let out = edgetune()
        .args([
            "--workload",
            "ic",
            "--trials",
            "4",
            "--max-iter",
            "4",
            "--fault-rate",
            "0.3",
        ])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("winning trial"), "{stdout}");
    assert!(stdout.contains("== fault report =="), "{stdout}");
    assert!(stdout.contains("trial faults     :"), "{stdout}");
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
fn halting_after_zero_rungs_is_rejected_before_any_trial_runs() {
    let dir = std::env::temp_dir().join("edgetune-cli-test-halt-zero");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (checkpoint, report) = (dir.join("ck.json"), dir.join("report.json"));
    let out = edgetune()
        .args([
            "--trials",
            "4",
            "--max-iter",
            "4",
            "--fault-rate",
            "0.1",
            "--halt-after-rungs",
            "0",
        ])
        .arg("--checkpoint")
        .arg(&checkpoint)
        .arg("--json")
        .arg(&report)
        .output()
        .expect("cli runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("invalid configuration: halt_after_rungs must be ≥ 1"),
        "{stderr}"
    );
    assert!(
        !checkpoint.exists(),
        "no rung ran, so none was checkpointed"
    );
    assert!(!report.exists());
    std::fs::remove_dir_all(&dir).ok();
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
        "--fault-rate",
        "--halt-after-rungs",
    ] {
        assert!(stdout.contains(flag), "missing {flag} in help: {stdout}");
    }
}

/// Runs the CLI once per argument list and asserts a clean rejection of
/// each: exit code 1 (not a panic's 101) and `error: <message>` on
/// stderr. Every case runs before the assertion, so a failure lists them
/// all.
fn assert_all_rejected(cases: &[(Vec<String>, String)]) {
    let mut failures = Vec::new();
    for (args, message) in cases {
        let out = edgetune().args(args).output().expect("cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        if out.status.code() != Some(1) || !stderr.contains(&format!("error: {message}")) {
            failures.push(format!("{args:?}: {:?}, stderr {stderr:?}", out.status));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(ToString::to_string).collect()
}

#[test]
fn non_finite_serving_numbers_are_rejected() {
    let mut cases = Vec::new();
    for value in ["nan", "inf"] {
        for flag in ["--rate", "--horizon", "--slo"] {
            cases.push((
                args(&["serve", "--workload", "ic", flag, value]),
                format!("{flag} must be > 0"),
            ));
        }
    }
    assert_all_rejected(&cases);
}

#[test]
fn zero_counts_are_rejected() {
    let mut cases = Vec::new();
    for flag in ["--trials", "--max-iter", "--trial-slots", "--study-shards"] {
        cases.push((
            args(&["--workload", "ic", flag, "0"]),
            format!("{flag} must be >= 1"),
        ));
    }
    for flag in ["--trials", "--max-iter"] {
        cases.push((
            args(&["--workload", "ic", "--fault-rate", "0.1", flag, "0"]),
            format!("{flag} must be >= 1"),
        ));
    }
    assert_all_rejected(&cases);
}

#[test]
fn non_finite_scenario_numbers_are_rejected() {
    let mut cases = Vec::new();
    for value in ["nan", "inf"] {
        cases.push((
            args(&[
                "--workload",
                "ic",
                "--scenario",
                &format!("multistream:{value}"),
            ]),
            "--scenario multistream needs rate > 0".to_string(),
        ));
        cases.push((
            args(&[
                "--workload",
                "ic",
                "--scenario",
                &format!("server:4:{value}"),
            ]),
            "--scenario server needs samples >= 1 and period > 0".to_string(),
        ));
    }
    assert_all_rejected(&cases);
}

#[test]
fn unwritable_checkpoint_paths_are_rejected() {
    let dir = std::env::temp_dir().display().to_string();
    let orphan = "/nonexistent/dir/ck.json";
    let study = ["--trials", "2", "--max-iter", "2", "--checkpoint"];
    let cases = [
        (
            args(&[&study[..], &[orphan]].concat()),
            format!(
                "storage error: checkpoint path {orphan} is in a directory that does not exist"
            ),
        ),
        (
            args(&[&study[..], &[&dir]].concat()),
            format!("storage error: checkpoint path {dir} is a directory"),
        ),
        (
            args(&[&study[..], &[&dir, "--resume"]].concat()),
            format!("storage error: checkpoint path {dir} is a directory"),
        ),
    ];
    assert_all_rejected(&cases);
}

#[test]
fn bad_fault_rates_and_orphan_flags_are_rejected() {
    let mut cases = Vec::new();
    for value in ["nan", "-0.1", "1.5"] {
        cases.push((
            args(&["--workload", "ic", "--fault-rate", value]),
            "--fault-rate must be within [0, 1]".to_string(),
        ));
    }
    cases.push((
        args(&["--trials", "4", "--max-iter", "4", "--resume"]),
        "--resume needs --checkpoint FILE".to_string(),
    ));
    cases.push((
        args(&["--shard-hosts", "127.0.0.1:9"]),
        "--shard-hosts needs --shard-exec remote".to_string(),
    ));
    // The fault-injected study is the tune command's `--fault-rate`, not
    // a subcommand of its own.
    cases.push((
        args(&["chaos", "--rate", "0.1"]),
        "unknown flag 'chaos' (try --help)".to_string(),
    ));
    assert_all_rejected(&cases);
}

/// Runs a small study with `flag value` and returns its stdout and JSON
/// report, failing on a non-zero exit.
fn study_with(flag: &str, value: &str) -> (Vec<u8>, Vec<u8>) {
    let path = std::env::temp_dir().join(format!("edgetune-cli-{}-{value}.json", &flag[2..]));
    let out = edgetune()
        .args(["--max-iter", "4", flag, value, "--json"])
        .arg(&path)
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{flag} {value}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read(&path).expect("report written");
    std::fs::remove_file(&path).ok();
    (out.stdout, report)
}

#[test]
fn a_huge_slot_count_runs_like_one_slot_per_trial() {
    // Slots past a rung's size are never used, so none is allocated.
    assert_eq!(
        study_with("--trial-slots", "100000000000"),
        study_with("--trial-slots", "64")
    );
}

#[test]
fn a_huge_shard_count_runs_like_a_few_shards() {
    // A rung never has more shard plans than trials, so no shard slot is
    // allocated beyond them.
    assert_eq!(
        study_with("--study-shards", "100000000000"),
        study_with("--study-shards", "4")
    );
}
