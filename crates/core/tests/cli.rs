//! End-to-end tests of the `edgetune` CLI binary.

mod common;

use std::process::Command;

use edgetune_trace::ChromeTrace;

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

    for device in ["tpu", ""] {
        let out = edgetune()
            .args(["--device", device])
            .output()
            .expect("cli runs");
        assert!(!out.status.success());
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(stderr.contains("unknown device"), "{device:?}: {stderr}");
        assert!(
            stderr.contains("Titan RTX node"),
            "catalog listed: {stderr}"
        );
    }
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

    let trace = r#"{"traceEvents": [{"name": "trial", "ph": "X", "ts": 1.5, "dur": 2.0, "pid": 1, "tid": 1}], "displayTimeUnit": "ms", "otherData": {}}"#;
    let dir = std::env::temp_dir().join("edgetune-cli-bad-trace");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let intact = dir.join("intact.json");
    std::fs::write(&intact, trace).expect("write trace");
    let out = edgetune()
        .args(["trace-summary", intact.to_str().expect("utf8 path")])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bad = [
        ("truncated", &trace[..trace.len() / 2], "parsing"),
        (
            "huge-ts",
            &trace.replace("1.5", "1e400")[..],
            "ts: number out of range",
        ),
    ];
    for (name, text, message) in bad {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, text).expect("write trace");
        let out = edgetune()
            .args(["trace-summary", path.to_str().expect("utf8 path")])
            .output()
            .expect("cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with("error: "), "{name}: {stderr}");
        assert!(stderr.contains(message), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
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

/// Serves a short run with `--workers value` and returns its stdout and
/// trace, failing on a non-zero exit.
fn served_with_workers(value: &str) -> (Vec<u8>, Vec<u8>) {
    let path = std::env::temp_dir().join(format!("edgetune-cli-workers-{value}.trace.json"));
    let out = edgetune()
        .args(["serve", "--horizon", "5", "--workers", value, "--trace"])
        .arg(&path)
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "--workers {value}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read(&path).expect("trace written");
    std::fs::remove_file(&path).ok();
    (out.stdout, trace)
}

#[test]
fn a_huge_worker_count_serves_like_a_few_workers() {
    // A run never has more batches than requests, so no worker is
    // allocated beyond them.
    assert_eq!(served_with_workers("4294967295"), served_with_workers("64"));
}

#[test]
fn a_trial_count_past_memory_is_rejected() {
    let trials = usize::MAX.to_string();
    assert_all_rejected(&[(
        args(&["--trials", &trials, "--max-iter", "2"]),
        format!("invalid configuration: a rung of {trials} trials cannot be held in memory"),
    )]);
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    use std::process::Stdio;
    for command in [&["--max-iter", "2"][..], &["serve", "--horizon", "5"]] {
        let path = std::env::temp_dir().join(format!("edgetune-cli-closed-{}.json", command[0]));
        let mut child = edgetune()
            .args(command)
            .arg("--json")
            .arg(&path)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("cli runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("cli exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{command:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command:?}: {stderr}");
        assert!(path.exists(), "{command:?}: --json still written");
        std::fs::remove_file(&path).ok();
    }
}

/// An empty scratch directory for one test, as a string that joins
/// into a command line.
fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("edgetune-cli-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let dir = dir.to_str().expect("utf8 path").to_string();
    assert!(!dir.contains(char::is_whitespace), "{dir:?} splits");
    dir
}

/// Runs the CLI on the whitespace-separated `command`, fails on a
/// non-zero exit, and returns its stdout.
fn succeed(command: &str) -> Vec<u8> {
    let out = edgetune()
        .args(command.split_whitespace())
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{command}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn read(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The `spawn` spans of a `--fabric-trace` file: one per link opened.
fn spawn_spans(path: &str) -> usize {
    let json = String::from_utf8(read(path)).expect("utf8 trace");
    let trace = ChromeTrace::from_json(&json).expect("fabric trace parses");
    trace
        .trace_events
        .iter()
        .filter(|e| e.name == "spawn")
        .count()
}

#[test]
fn process_and_remote_placement_write_thread_bytes() {
    let dir = scratch("placement");
    // A 4-shard study placed by `--shard-exec {exec} {hosts}`: its
    // stdout, `--json` and `--trace` bytes, and the spans of its
    // `--fabric-trace`.
    let study = |exec: &str, hosts: &str| {
        let [json, trace, fabric] =
            ["json", "trace", "fabric"].map(|f| format!("{dir}/{exec}.{f}"));
        let stdout = succeed(&format!(
            "--workload ic --trials 4 --max-iter 4 --seed 1234 --study-shards 4 --json {json} \
             --trace {trace} --fabric-trace {fabric} --shard-exec {exec} {hosts}"
        ));
        ([stdout, read(&json), read(&trace)], spawn_spans(&fabric))
    };
    let (thread, _) = study("thread", "");
    let daemon = common::child_host();
    for (exec, hosts) in [
        ("process", String::new()),
        ("remote", format!("--shard-hosts {}", daemon.addr)),
    ] {
        let (bytes, spawns) = study(exec, &hosts);
        for (output, (want, got)) in ["stdout", "--json", "--trace"]
            .iter()
            .zip(thread.iter().zip(&bytes))
        {
            assert!(want == got, "{exec} placement changed the {output} bytes");
        }
        // Byte identity alone would pass a CLI that ignored the flag and
        // ran threads: the fabric's own trace shows one link per shard.
        assert_eq!(spawns, 4, "{exec} placement");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_interrupted_chaos_resume_reproduces_the_uninterrupted_report() {
    let dir = scratch("resume");
    let [full, resumed, trace, ck] =
        ["full.json", "resumed.json", "resumed.trace", "ck.json"].map(|f| format!("{dir}/{f}"));
    let chaos = |flags: &str| {
        succeed(&format!(
            "--workload ic --max-iter 8 --fault-rate 0.2 --seed 7 {flags}"
        ))
    };
    chaos(&format!("--json {full}"));
    chaos(&format!("--checkpoint {ck} --halt-after-rungs 5"));
    let halted = read(&ck);
    // Resume restores, it does not re-enact: stopping inside the
    // checkpointed prefix writes nothing new.
    chaos(&format!("--checkpoint {ck} --resume --halt-after-rungs 2"));
    assert!(
        read(&ck) == halted,
        "a resume inside the prefix rewrote the checkpoint"
    );
    chaos(&format!(
        "--checkpoint {ck} --resume --json {resumed} --trace {trace}"
    ));
    assert!(
        read(&resumed) == read(&full),
        "the resumed report differs from the uninterrupted one"
    );
    let trace = String::from_utf8(read(&trace)).expect("utf8 trace");
    assert!(trace.contains("\"restored\""), "no restored tracks");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_with_raw_bits_scores_resumes_as_a_fresh_start() {
    let dir = scratch("raw-bits");
    let [full, resumed, ck] =
        ["full.json", "resumed.json", "ck.json"].map(|f| format!("{dir}/{f}"));
    let study = |flags: &str| {
        succeed(&format!(
            "--workload ic --trials 2 --max-iter 2 --fault-rate 0.5 --seed 3 {flags}"
        ))
    };
    // This study's checkpoint after its first rung, as `save` wrote it
    // while trial scores travelled as raw bits (`checkpoint::tests`
    // reads the same file).
    std::fs::write(&ck, include_str!("fixtures/raw-bits-checkpoint.json")).expect("fixture");
    let stdout = study(&format!("--json {full}"));
    let resumed_stdout = study(&format!("--checkpoint {ck} --resume --json {resumed}"));
    assert!(
        read(&resumed) == read(&full),
        "the resumed report differs from the uninterrupted one"
    );
    assert!(resumed_stdout == stdout, "the resumed stdout differs");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_with_an_out_of_range_score_resumes_as_a_fresh_start() {
    let dir = scratch("out-of-range");
    let [full, resumed, ck] =
        ["full.json", "resumed.json", "ck.json"].map(|f| format!("{dir}/{f}"));
    let study = |flags: &str| {
        succeed(&format!(
            "--workload ic --trials 9 --max-iter 9 --seed 5 {flags}"
        ))
    };
    let stdout = study(&format!("--json {full}"));
    study(&format!("--checkpoint {ck} --halt-after-rungs 1"));
    let halted = String::from_utf8(read(&ck)).expect("utf8 checkpoint");
    // `-1e400` reads as -∞ to a JSON parser: a score no trial can have,
    // which would rank first and steer the sampler. A cache entry on 99
    // of the Pi's 4 cores is a deployment no sweep can recommend.
    for (key, value) in [("score", "-1e400"), ("cores", "99")] {
        let label = format!("\"{key}\": ");
        let at = halted.find(&label).expect("the key is in the checkpoint") + label.len();
        let end = at + halted[at..].find(',').expect("more fields");
        std::fs::write(&ck, format!("{}{value}{}", &halted[..at], &halted[end..])).expect("tamper");
        let resumed_stdout = study(&format!("--checkpoint {ck} --resume --json {resumed}"));
        assert!(
            read(&resumed) == read(&full),
            "with {key} {value}, the resumed report differs from the uninterrupted one"
        );
        assert!(
            resumed_stdout == stdout,
            "with {key} {value}, the resumed stdout differs"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cache_entry_no_deployment_could_have_is_skipped_not_served() {
    let dir = scratch("impossible-cache");
    let study = |cache: &str| {
        let json = format!("{dir}/{cache}.report");
        let out = edgetune()
            .args("--workload ic --trials 9 --max-iter 9 --seed 5".split_whitespace())
            .args(["--cache", &format!("{dir}/{cache}"), "--json", &json])
            .output()
            .expect("cli runs");
        let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
        assert!(out.status.success(), "{stderr}");
        (
            out.stdout,
            read(&json),
            read(&format!("{dir}/{cache}")),
            stderr,
        )
    };
    study("saved.json");
    let saved = String::from_utf8(read(&format!("{dir}/saved.json"))).expect("utf8 cache");
    let mut cache: serde_json::Value = serde_json::from_str(&saved).expect("the cache parses");
    let entries = cache["entries"].as_object_mut().expect("entries");
    let key = "Raspberry Pi 3B+|ResNet/layers=50|runtime";
    let entry = entries.get_mut(key).expect("the layers=50 entry");
    // Batch 0 on 99 of the Pi's 4 cores at -1 Hz, spending -5 J an item:
    // served, it would rank ResNet-50 first.
    entry["batch"] = serde_json::json!(0);
    entry["cores"] = serde_json::json!(99);
    entry["freq"] = serde_json::json!(-1.0);
    entry["energy_per_item"] = serde_json::json!(-5.0);
    let write = |name: &str, cache: &serde_json::Value| {
        let text = serde_json::to_string_pretty(cache).expect("a cache serialises");
        std::fs::write(format!("{dir}/{name}"), text).expect("cache file");
    };
    write("tampered.json", &cache);
    cache["entries"]
        .as_object_mut()
        .expect("entries")
        .remove(key);
    write("without.json", &cache);

    let tampered = study("tampered.json");
    let without = study("without.json");
    for (output, want, got) in [
        ("stdout", &without.0, &tampered.0),
        ("--json", &without.1, &tampered.1),
        ("rewritten --cache", &without.2, &tampered.2),
    ] {
        assert!(want == got, "the tampered entry changed the {output} bytes");
    }
    assert!(
        tampered.3.contains("cache: skipped 1 unreadable item(s)"),
        "{}",
        tampered.3
    );
    assert!(!without.3.contains("cache: skipped"), "{}", without.3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_cache_file_is_reported_not_silently_emptied() {
    let dir = scratch("torn-cache");
    let cache = format!("{dir}/cache.json");
    let study = || {
        let out = edgetune()
            .args("--workload ic --trials 4 --max-iter 4 --seed 5".split_whitespace())
            .args(["--cache", &cache])
            .output()
            .expect("cli runs");
        let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
        assert!(out.status.success(), "{stderr}");
        stderr
    };
    let fresh = study();
    assert!(!fresh.contains("cache: skipped"), "{fresh}");
    let saved = read(&cache);
    assert!(saved.len() > 300, "{} bytes saved", saved.len());
    let line = format!("cache: skipped 1 unreadable item(s) of {cache}");
    // A torn file, and a JSON document that is no cache.
    for bad in [&saved[..300], b"{}"] {
        std::fs::write(&cache, bad).expect("spoil the cache");
        let spoiled = study();
        assert!(spoiled.contains(&line), "{spoiled}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_rate_shift_is_answered_from_the_frontier_only_with_one() {
    let dir = scratch("frontier");
    let serve = |flags: &str| {
        let json = format!("{dir}/serving.json");
        succeed(&format!(
            "serve --workload ic --traffic shift --rate 5 --slo 4 --seed 42 --json {json} {flags}"
        ));
        String::from_utf8(read(&json)).expect("utf8 report")
    };
    let frontier = serve("--frontier 6");
    assert!(frontier.contains("\"source\": \"Frontier\""), "{frontier}");
    let retune = serve("");
    assert!(!retune.contains("Frontier"), "{retune}");
    std::fs::remove_dir_all(&dir).ok();
}
