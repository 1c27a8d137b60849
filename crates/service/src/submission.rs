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

use edgetune_tuner::Metric;
use edgetune_util::{Error, Result};
use edgetune_workloads::catalog::WorkloadId;
use serde::{Deserialize, Serialize};

/// A named tenant and its admission-control knobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

fn default_weight() -> u32 {
    1
}

fn default_queue_limit() -> usize {
    8
}

/// One tenant-submitted study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Rungs executed per scheduling grant before the study is parked
    /// at a checkpoint and the next study runs.
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
    /// Emit a per-study Chrome trace into the service work directory.
    /// Every grant rewrites the file, so for a study that took several
    /// it holds the final grant's events (rung, bracket, cache and
    /// fault events included) plus the trials of all earlier grants as
    /// plain spans on the `restored` tracks.
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
        match self.workload.to_lowercase().as_str() {
            "ic" => Ok(WorkloadId::Ic),
            "sr" => Ok(WorkloadId::Sr),
            "nlp" => Ok(WorkloadId::Nlp),
            "od" => Ok(WorkloadId::Od),
            other => Err(Error::invalid_config(format!(
                "study {}/{}: unknown workload '{other}' (ic|sr|nlp|od)",
                self.tenant, self.name
            ))),
        }
    }

    /// The parsed objective metric.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an unknown metric name.
    pub fn metric_id(&self) -> Result<Metric> {
        match self.metric.to_lowercase().as_str() {
            "runtime" => Ok(Metric::Runtime),
            "energy" => Ok(Metric::Energy),
            other => Err(Error::invalid_config(format!(
                "study {}/{}: unknown metric '{other}' (runtime|energy)",
                self.tenant, self.name
            ))),
        }
    }
}

/// The script-driven submission file: tenants plus their studies in
/// admission order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmissionFile {
    /// Declared tenants.
    pub tenants: Vec<TenantSpec>,
    /// Studies in admission order.
    pub studies: Vec<StudySubmission>,
}

impl SubmissionFile {
    /// Parses a submission file from JSON and validates its internal
    /// references: tenant names unique, every study owned by a declared
    /// tenant, study names unique per tenant, chaos rates in range.
    /// Per-study workload/metric names are *not* checked here — the
    /// service rejects studies with unknown names at admission, so one
    /// bad study never invalidates the whole file.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] for unparseable JSON and
    /// [`Error::InvalidConfig`] for inconsistent contents.
    pub fn from_json(json: &str) -> Result<Self> {
        let file: SubmissionFile = serde_json::from_str(json)
            .map_err(|e| Error::storage(format!("parsing submission file: {e}")))?;
        file.validate()?;
        Ok(file)
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

    fn validate(&self) -> Result<()> {
        if self.tenants.is_empty() {
            return Err(Error::invalid_config("submission file declares no tenants"));
        }
        let mut names = std::collections::HashSet::new();
        for tenant in &self.tenants {
            if tenant.weight == 0 {
                return Err(Error::invalid_config(format!(
                    "tenant {}: weight must be >= 1",
                    tenant.name
                )));
            }
            if !names.insert(tenant.name.as_str()) {
                return Err(Error::invalid_config(format!(
                    "tenant {} declared twice",
                    tenant.name
                )));
            }
        }
        let mut study_names = std::collections::HashSet::new();
        for study in &self.studies {
            if !names.contains(study.tenant.as_str()) {
                return Err(Error::invalid_config(format!(
                    "study {}/{}: tenant not declared",
                    study.tenant, study.name
                )));
            }
            if !study_names.insert((study.tenant.as_str(), study.name.as_str())) {
                return Err(Error::invalid_config(format!(
                    "study {}/{} submitted twice",
                    study.tenant, study.name
                )));
            }
            if !(0.0..=1.0).contains(&study.chaos_rate) {
                return Err(Error::invalid_config(format!(
                    "study {}/{}: chaos_rate must be within [0, 1]",
                    study.tenant, study.name
                )));
            }
            if study.trials == 0 || study.max_iter == 0 || study.rung_quantum == 0 {
                return Err(Error::invalid_config(format!(
                    "study {}/{}: trials, max_iter, and rung_quantum must be >= 1",
                    study.tenant, study.name
                )));
            }
            // Unknown workload/metric names are deliberately *not* a
            // file-level error: one tenant's typo must not sink every
            // other tenant's studies. The service rejects such studies
            // individually at admission.
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
}
