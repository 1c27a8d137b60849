//! What tenants hand the service: named studies under per-tenant
//! admission queues.
//!
//! A [`SubmissionFile`] is the deterministic, script-driven front door
//! of the service (`edgetune serve-studies --file subs.json`): the file
//! declares the tenants (name, fair-share weight, queue bound) and the
//! studies they submit, in admission order. Everything the engine needs
//! to reproduce a study byte-for-byte — workload, metric, seed,
//! scheduler shape — lives in the [`StudySubmission`]; the service adds
//! nothing non-deterministic on top.

// Decoding untrusted bytes must not panic: a malformed input is an error.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::collections::HashSet;

use edgetune_tuner::Metric;
use edgetune_util::{Error, Result};
use edgetune_workloads::catalog::WorkloadId;
use serde::{Deserialize, Serialize};

/// A named tenant and its admission-control knobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(check = "Self::admits")]
pub struct TenantSpec {
    /// Tenant name — the fair-share identity and the deterministic
    /// tie-break (lexicographic) between equally credited tenants.
    pub name: String,
    /// Fair-share weight: a tenant with weight 2 receives twice the
    /// rung-granular scheduling grants of a weight-1 tenant under
    /// contention.
    #[serde(default = "default_weight")]
    pub weight: u32,
    /// Bound on the tenant's admission queue: submissions beyond it are
    /// rejected at admission, not silently queued.
    #[serde(default = "default_queue_limit")]
    pub queue_limit: usize,
}

impl TenantSpec {
    /// The reader's domain: a weight of at least 1.
    fn admits(&self) -> std::result::Result<(), serde::Refusal> {
        if self.weight == 0 {
            return Err((
                "weight",
                format!("tenant {}: weight must be >= 1", self.name),
            ));
        }
        Ok(())
    }
}

fn default_weight() -> u32 {
    1
}

fn default_queue_limit() -> usize {
    8
}

/// One tenant-submitted study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(check = "Self::admits")]
pub struct StudySubmission {
    /// Owning tenant (must be declared in the file's `tenants`).
    pub tenant: String,
    /// Study name, unique per tenant.
    pub name: String,
    /// Workload to tune: `"ic"`, `"sr"`, `"nlp"`, or `"od"`.
    pub workload: String,
    /// Objective metric: `"runtime"` (default) or `"energy"`.
    #[serde(default = "default_metric")]
    pub metric: String,
    /// Root randomness seed — the study's reproducibility handle.
    pub seed: u64,
    /// Configurations sampled into the first rung (the CLI's
    /// `--trials`).
    #[serde(default = "default_trials")]
    pub trials: usize,
    /// Highest budget level (the CLI's `--max-iter`).
    #[serde(default = "default_max_iter")]
    pub max_iter: u32,
    /// Rungs executed per scheduling grant before the scheduler picks
    /// again; the study stays resident until its next grant.
    #[serde(default = "default_rung_quantum")]
    pub rung_quantum: u32,
    /// Opt into cross-study warm start: seed the sampler with the
    /// top-k configurations transferred from similar completed studies
    /// and shrink the exploration cohort accordingly. Off by default —
    /// a cold study's report is byte-identical to a solo run.
    #[serde(default)]
    pub warm_start: bool,
    /// Uniform fault-injection rate in `[0, 1]`; zero (default) keeps
    /// the study fault-free.
    #[serde(default)]
    pub chaos_rate: f64,
    /// Emit a per-study Chrome trace into the service work directory,
    /// written once the study finishes: byte-identical to the trace of
    /// a solo `edgetune --trace` run of the same study.
    #[serde(default)]
    pub trace: bool,
    /// Serving-scenario label carried into the study's
    /// [`TransferKey`](edgetune::transfer::TransferKey) (e.g.
    /// `"batch"`, `"multistream:10"`); a transfer axis only — it does
    /// not change what the engine runs.
    #[serde(default = "default_scenario")]
    pub scenario: String,
}

fn default_metric() -> String {
    "runtime".to_string()
}

fn default_trials() -> usize {
    8
}

fn default_max_iter() -> u32 {
    10
}

fn default_rung_quantum() -> u32 {
    2
}

fn default_scenario() -> String {
    "batch".to_string()
}

impl StudySubmission {
    /// The parsed workload id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an unknown workload name.
    pub fn workload_id(&self) -> Result<WorkloadId> {
        self.workload.parse().map_err(|e| self.invalid(e))
    }

    /// The parsed objective metric.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an unknown metric name.
    pub fn metric_id(&self) -> Result<Metric> {
        self.metric.parse().map_err(|e| self.invalid(e))
    }

    /// A configuration error about this study.
    fn invalid(&self, message: String) -> Error {
        Error::invalid_config(self.about(message))
    }

    fn about(&self, message: impl std::fmt::Display) -> String {
        format!("study {}/{}: {message}", self.tenant, self.name)
    }

    /// The reader's domain: a chaos rate in `[0, 1]`, and at least one
    /// trial, budget level and rung per grant. Unknown workload and
    /// metric names are deliberately *not* refused: one tenant's typo
    /// must not sink every other tenant's studies, so the service
    /// rejects such a study alone, at admission.
    fn admits(&self) -> std::result::Result<(), serde::Refusal> {
        if !(0.0..=1.0).contains(&self.chaos_rate) {
            return Err(("chaos_rate", self.about("chaos_rate must be within [0, 1]")));
        }
        let zero = [
            ("trials", self.trials == 0),
            ("max_iter", self.max_iter == 0),
            ("rung_quantum", self.rung_quantum == 0),
        ];
        if let Some((key, _)) = zero.into_iter().find(|(_, zero)| *zero) {
            return Err((
                key,
                self.about("trials, max_iter, and rung_quantum must be >= 1"),
            ));
        }
        Ok(())
    }
}

/// The script-driven submission file: tenants plus their studies in
/// admission order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(check = "Self::admits")]
pub struct SubmissionFile {
    /// Declared tenants.
    pub tenants: Vec<TenantSpec>,
    /// Studies in admission order.
    pub studies: Vec<StudySubmission>,
}

impl SubmissionFile {
    /// Parses a submission file from JSON. Its reader admits only a file
    /// the service can run: tenant names unique, every study owned by a
    /// declared tenant, study names unique per tenant, each tenant and
    /// study in its own domain. Per-study workload/metric names are
    /// *not* checked here — the service rejects studies with unknown
    /// names at admission, so one bad study never invalidates the whole
    /// file.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] for text that is not JSON and
    /// [`Error::InvalidConfig`] for a document the reader refuses: a
    /// missing or mistyped field, or inconsistent contents.
    pub fn from_json(json: &str) -> Result<Self> {
        let document: serde_json::Value = serde_json::from_str(json)
            .map_err(|e| Error::storage(format!("parsing submission file: {e}")))?;
        Self::from_json_value(&document)
            .map_err(|e| Error::invalid_config(format!("submission file: {e}")))
    }

    /// Reads and parses a submission file from disk.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`SubmissionFile::from_json`], plus
    /// [`Error::Storage`] when the file cannot be read.
    pub fn load(path: &std::path::Path) -> Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json)
    }

    /// The reader's domain: the file's references are consistent.
    fn admits(&self) -> std::result::Result<(), serde::Refusal> {
        if self.tenants.is_empty() {
            return Err(("tenants", "submission file declares no tenants".into()));
        }
        let mut names = HashSet::new();
        for tenant in &self.tenants {
            if !names.insert(tenant.name.as_str()) {
                return Err(("tenants", format!("tenant {} declared twice", tenant.name)));
            }
        }
        let mut study_names = HashSet::new();
        for study in &self.studies {
            if !names.contains(study.tenant.as_str()) {
                return Err(("studies", study.about("tenant not declared")));
            }
            if !study_names.insert((study.tenant.as_str(), study.name.as_str())) {
                return Err((
                    "studies",
                    format!("study {}/{} submitted twice", study.tenant, study.name),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        r#"{
            "tenants": [{"name": "acme"}],
            "studies": [{"tenant": "acme", "name": "s1", "workload": "ic", "seed": 7}]
        }"#
        .to_string()
    }

    #[test]
    fn minimal_file_parses_with_defaults() {
        let file = SubmissionFile::from_json(&minimal()).unwrap();
        assert_eq!(file.tenants[0].weight, 1);
        assert_eq!(file.tenants[0].queue_limit, 8);
        let study = &file.studies[0];
        assert_eq!(study.trials, 8);
        assert_eq!(study.max_iter, 10);
        assert_eq!(study.rung_quantum, 2);
        assert!(!study.warm_start);
        assert_eq!(study.chaos_rate, 0.0);
        assert_eq!(study.scenario, "batch");
        assert_eq!(study.workload_id().unwrap(), WorkloadId::Ic);
        assert_eq!(study.metric_id().unwrap(), Metric::Runtime);
    }

    #[test]
    fn unknown_tenant_is_rejected() {
        let json = r#"{
            "tenants": [{"name": "acme"}],
            "studies": [{"tenant": "ghost", "name": "s1", "workload": "ic", "seed": 7}]
        }"#;
        let err = SubmissionFile::from_json(json).unwrap_err();
        assert!(err.to_string().contains("tenant not declared"), "{err}");
    }

    #[test]
    fn duplicate_study_names_are_rejected_per_tenant() {
        let json = r#"{
            "tenants": [{"name": "a"}, {"name": "b"}],
            "studies": [
                {"tenant": "a", "name": "s", "workload": "ic", "seed": 1},
                {"tenant": "b", "name": "s", "workload": "ic", "seed": 2},
                {"tenant": "a", "name": "s", "workload": "ic", "seed": 3}
            ]
        }"#;
        let err = SubmissionFile::from_json(json).unwrap_err();
        assert!(err.to_string().contains("submitted twice"), "{err}");
    }

    #[test]
    fn out_of_range_chaos_rate_is_rejected() {
        let json = r#"{"tenants": [{"name": "a"}], "studies": [{"tenant": "a", "name": "s", "workload": "ic", "chaos_rate": 1.5, "seed": 1}]}"#;
        assert!(SubmissionFile::from_json(json).is_err());
    }

    #[test]
    fn unknown_workload_or_metric_parses_but_fails_resolution() {
        // File-level parsing tolerates unknown names (the service
        // rejects the study at admission instead); the resolvers still
        // report them.
        let json = r#"{
            "tenants": [{"name": "a"}],
            "studies": [
                {"tenant": "a", "name": "s1", "workload": "vision", "seed": 1},
                {"tenant": "a", "name": "s2", "workload": "ic", "metric": "latency", "seed": 2}
            ]
        }"#;
        let file = SubmissionFile::from_json(json).expect("file-level checks pass");
        assert!(file.studies[0].workload_id().is_err());
        assert!(file.studies[1].metric_id().is_err());
    }

    #[test]
    fn zero_weight_tenants_are_rejected() {
        let json = r#"{"tenants": [{"name": "a", "weight": 0}], "studies": []}"#;
        assert!(SubmissionFile::from_json(json).is_err());
    }

    /// A seeded source of awkward values (splitmix64), for the one
    /// persisted type the `edgetune` crate's round-trip oracle cannot
    /// reach.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// At least 1, reaching for the type's maximum.
        fn positive(&mut self, max: u64) -> u64 {
            [1, max, 1 + self.below(max)][self.below(3) as usize]
        }

        fn string(&mut self) -> String {
            const PIECES: [&str; 11] = [
                "a", "\"", "\\", "\n", "\u{0}", "\u{1f}", "\u{7f}", "é", "\u{2028}", "😀", "/",
            ];
            (0..self.below(4))
                .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
                .collect()
        }

        /// A rate in `[0, 1]`, edges included.
        fn rate(&mut self) -> f64 {
            let edges = [0.0, -0.0, 5e-324, 1.0, 0.1 + 0.2];
            match self.below(2) {
                0 => edges[self.below(edges.len() as u64) as usize],
                _ => (self.next() >> 11) as f64 / (1u64 << 53) as f64,
            }
        }

        fn file(&mut self) -> SubmissionFile {
            let tenants: Vec<TenantSpec> = (0..1 + self.below(3))
                .map(|i| TenantSpec {
                    name: format!("{i}{}", self.string()),
                    weight: self.positive(u64::from(u32::MAX)) as u32,
                    queue_limit: self.positive(u64::MAX) as usize,
                })
                .collect();
            let studies = (0..self.below(4))
                .map(|i| StudySubmission {
                    tenant: tenants[self.below(tenants.len() as u64) as usize]
                        .name
                        .clone(),
                    name: format!("{i}{}", self.string()),
                    workload: self.string(),
                    metric: self.string(),
                    seed: [0, u64::MAX, self.next()][self.below(3) as usize],
                    trials: self.positive(u64::MAX) as usize,
                    max_iter: self.positive(u64::from(u32::MAX)) as u32,
                    rung_quantum: self.positive(u64::from(u32::MAX)) as u32,
                    warm_start: self.below(2) == 0,
                    chaos_rate: self.rate(),
                    trace: self.below(2) == 0,
                    scenario: self.string(),
                })
                .collect();
            SubmissionFile { tenants, studies }
        }
    }

    /// Law 4's values: a key path into a written file, what to put
    /// there (`None` appends a copy of the first study), and the keys
    /// and phrase its refusal names.
    const REFUSED: [(&str, &str, Option<&str>, &str, &str); 5] = [
        (
            "tenants",
            "weight",
            Some("0"),
            "tenants: weight: ",
            "weight must be >= 1",
        ),
        (
            "studies",
            "chaos_rate",
            Some("1.5"),
            "studies: chaos_rate: ",
            "within [0, 1]",
        ),
        (
            "studies",
            "trials",
            Some("0"),
            "studies: trials: ",
            "must be >= 1",
        ),
        (
            "studies",
            "tenant",
            Some("\"undeclared\""),
            "studies: ",
            "tenant not declared",
        ),
        ("studies", "name", None, "studies: ", "submitted twice"),
    ];

    /// The round-trip laws of `edgetune`'s oracle: the file reads back
    /// to itself, floats compared by their bits; writing is idempotent;
    /// `chaos_rate`, its one float, refuses `1e400`, `-1e400` and
    /// `null`, naming the field; and each of [`REFUSED`] spliced into
    /// the first tenant or study is refused as a configuration error
    /// naming its keys (tenant names start with a digit, so none is
    /// `undeclared`).
    #[test]
    fn submission_files_round_trip() {
        let write = |file: &SubmissionFile| serde_json::to_string_pretty(file).unwrap();
        for seed in 0..24 {
            let file = Gen(seed).file();
            let text = write(&file);
            let back = SubmissionFile::from_json(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            assert_eq!(format!("{back:?}"), format!("{file:?}"), "{text}");
            assert_eq!(write(&back), text);
            for study in 0..file.studies.len() {
                for spelling in ["1e400", "-1e400", "null"] {
                    let mut document: serde_json::Value = serde_json::from_str(&text).unwrap();
                    document["studies"].as_array_mut().unwrap()[study]["chaos_rate"] =
                        serde_json::Value::Null;
                    let spliced = serde_json::to_string(&document)
                        .unwrap()
                        .replace("\"chaos_rate\":null", &format!("\"chaos_rate\":{spelling}"));
                    let err = SubmissionFile::from_json(&spliced).unwrap_err();
                    assert!(err.to_string().contains("studies: chaos_rate: "), "{err}");
                }
            }
            for (list, key, value, keys, phrase) in REFUSED {
                let mut document: serde_json::Value = serde_json::from_str(&text).unwrap();
                let items = document[list].as_array_mut().unwrap();
                if items.is_empty() {
                    continue;
                }
                match value {
                    Some(value) => items[0][key] = serde_json::from_str(value).unwrap(),
                    None => items.push(items[0].clone()),
                }
                let spliced = serde_json::to_string(&document).unwrap();
                let err = SubmissionFile::from_json(&spliced).unwrap_err();
                assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
                let err = err.to_string();
                assert!(
                    err.contains(keys) && err.contains(phrase),
                    "{err}: {spliced}"
                );
            }
        }
    }
}
