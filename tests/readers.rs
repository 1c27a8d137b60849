//! The census of readers: every type of `crates/*/src` that can be read
//! back from JSON is held by a round-trip oracle test.
//!
//! A reader is a `#[derive(Deserialize)]` or a hand-written `impl
//! Deserialize for`, found in a file's text before its test module. The
//! census compares that set with [`ORACLES`], which names, for each
//! reader, the test of `crates/core/src/round_trip.rs` or
//! `crates/service/src/submission.rs` whose values reach it. A reader
//! missing from the table, a row whose reader is gone, and a row naming
//! no such test all fail. A type no program reads back derives no
//! reader, so an unlisted reader is one that no program calls or one
//! that no oracle holds.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const REPORTS: &str = "tuning_reports_round_trip";
const CHECKPOINTS: &str = "study_checkpoints_round_trip";
const CACHES: &str = "cache_files_round_trip";
const TRANSFERS: &str = "transfer_indexes_round_trip";
const TRACES: &str = "chrome_traces_round_trip";
const SPECS: &str = "backend_specs_round_trip";
const HELLOS: &str = "hellos_and_their_acks_round_trip_through_the_frame_codec";
const FABRIC: &str = "fabric_messages_round_trip_through_the_frame_codec";
const SUBMISSIONS: &str = "submission_files_round_trip";

/// The files the oracle tests live in.
const ORACLE_FILES: [&str; 2] = [
    "crates/core/src/round_trip.rs",
    "crates/service/src/submission.rs",
];

/// Each reader, and the oracle test whose values reach it. `$name` is
/// the `unit!` newtype of `edgetune_util::units` (`Seconds`, `Joules`,
/// ...).
const ORACLES: [(&str, &str); 44] = [
    ("$name", REPORTS),
    ("BackendSpec", SPECS),
    ("CacheStats", REPORTS),
    ("ChaosAction", FABRIC),
    ("ChromeEvent", TRACES),
    ("ChromeTrace", TRACES),
    ("Config", REPORTS),
    ("DegradationStats", CHECKPOINTS),
    ("FaultReport", REPORTS),
    ("FrontPoint", REPORTS),
    ("HandshakeReject", HELLOS),
    ("Hello", HELLOS),
    ("HelloAck", HELLOS),
    ("HistoricalCache", CACHES),
    ("History", REPORTS),
    ("InferenceRecommendation", REPORTS),
    ("Lane", REPORTS),
    ("Metric", TRANSFERS),
    ("ObjectiveVector", REPORTS),
    ("RungKey", FABRIC),
    ("ShardHeartbeat", FABRIC),
    ("ShardPlan", FABRIC),
    ("ShardResultMsg", FABRIC),
    ("ShardTask", FABRIC),
    ("Span", REPORTS),
    ("StudyCheckpoint", CHECKPOINTS),
    ("StudyGlobals", CHECKPOINTS),
    ("StudySubmission", SUBMISSIONS),
    ("SubmissionFile", SUBMISSIONS),
    ("TaskTrial", FABRIC),
    ("TenantSpec", SUBMISSIONS),
    ("Timeline", REPORTS),
    ("TransferIndex", TRANSFERS),
    ("TransferKey", TRANSFERS),
    ("TransferRecord", TRANSFERS),
    ("TrialBudget", REPORTS),
    ("TrialFailure", REPORTS),
    ("TrialFault", FABRIC),
    ("TrialMeasurement", FABRIC),
    ("TrialOutcome", REPORTS),
    ("TrialRecord", REPORTS),
    ("TuningReport", REPORTS),
    ("WorkerFailure", FABRIC),
    ("WorkloadId", SPECS),
];

/// Every `.rs` file under `dir`, in order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("a directory entry").path())
        .collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `text` up to its first inline test module.
fn program_part(text: &str) -> &str {
    let end = text
        .match_indices("#[cfg(test)]\nmod ")
        .map(|(at, _)| at)
        .find(|&at| {
            text[at..]
                .lines()
                .nth(1)
                .is_some_and(|line| line.ends_with('{'))
        });
    end.map_or(text, |end| &text[..end])
}

/// The identifier (or `$` macro metavariable) at the start of `text`.
fn ident(text: &str) -> &str {
    let end = text
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '$'))
        .unwrap_or(text.len());
    &text[..end]
}

/// The readers `text` defines.
fn readers_in(text: &str, out: &mut BTreeSet<String>) {
    let mut rest = text;
    while let Some(at) = rest.find("#[derive(") {
        rest = &rest[at + "#[derive(".len()..];
        let list = &rest[..rest.find(")]").expect("a derive list ends")];
        let reads = list
            .split(',')
            .any(|name| name.trim().trim_start_matches("serde::") == "Deserialize");
        if reads {
            let item = ["struct ", "enum "]
                .iter()
                .filter_map(|kind| rest.find(kind).map(|i| i + kind.len()))
                .min()
                .expect("a derive precedes a struct or an enum");
            out.insert(ident(&rest[item..]).to_string());
        }
    }
    for header in ["impl Deserialize for ", "impl serde::Deserialize for "] {
        for (at, _) in text.match_indices(header) {
            out.insert(ident(&text[at + header.len()..]).to_string());
        }
    }
}

/// Whether `text` has a `#[test]` function called `name`.
fn has_test(text: &str, name: &str) -> bool {
    text.match_indices(&format!("fn {name}()"))
        .any(|(at, _)| text[..at].trim_end().ends_with("#[test]"))
}

#[test]
fn every_reader_is_held_by_a_round_trip_oracle() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("a crate").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut readers = BTreeSet::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("a UTF-8 source");
        readers_in(program_part(&text), &mut readers);
    }
    let oracles: Vec<String> = ORACLE_FILES
        .iter()
        .map(|file| fs::read_to_string(root.join(file)).expect("an oracle file"))
        .collect();

    let listed: BTreeSet<String> = ORACLES.iter().map(|(ty, _)| ty.to_string()).collect();
    assert_eq!(listed.len(), ORACLES.len(), "a type is listed twice");
    let mut faults = Vec::new();
    for reader in readers.difference(&listed) {
        faults.push(format!(
            "`{reader}` has a reader but no row: name the oracle test that reaches it, \
             or drop the reader if no program reads the type back"
        ));
    }
    for stale in listed.difference(&readers) {
        faults.push(format!("`{stale}` has a row but no reader: delete the row"));
    }
    for (ty, test) in ORACLES {
        if !oracles.iter().any(|text| has_test(text, test)) {
            faults.push(format!(
                "`{ty}`'s oracle `{test}` is no test in {ORACLE_FILES:?}"
            ));
        }
    }
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}
