//! What the service hands back: per-study outcomes, admission
//! rejections, and the full scheduling audit log.

use edgetune::TuningReport;
use edgetune_util::{Error, Result};
use serde::Serialize;

/// One study's fate.
#[derive(Debug, Clone, Serialize)]
pub struct StudyOutcome {
    /// Owning tenant.
    pub tenant: String,
    /// Study name.
    pub study: String,
    /// The study's seed (its reproducibility handle).
    pub seed: u64,
    /// Scheduling grants (rung-quantum slices) the study consumed.
    pub slices: u32,
    /// Transferred configurations seeded into the sampler (0 for cold
    /// studies).
    pub warm_hits: u64,
    /// Planned trials the warm start saved against the cold twin's
    /// schedule (0 for cold studies).
    pub trials_saved: u64,
    /// Trials actually evaluated.
    pub evaluated_trials: u64,
    /// The engine's report — byte-identical to a solo run of the same
    /// submission for cold studies. `None` when the study failed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub report: Option<TuningReport>,
    /// Why the study failed, when it did.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
}

/// A submission turned away at admission.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RejectedStudy {
    /// Owning tenant.
    pub tenant: String,
    /// Study name.
    pub study: String,
    /// Why admission refused it.
    pub reason: String,
}

/// One scheduler grant, in execution order — the audit trail that makes
/// fairness inspectable and interleaving regressions diffable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ScheduleGrant {
    /// Tenant granted this slice.
    pub tenant: String,
    /// Study that ran.
    pub study: String,
}

/// The outcome of one `serve-studies` run.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceReport {
    /// Per-study outcomes, in submission order.
    pub outcomes: Vec<StudyOutcome>,
    /// Submissions rejected at admission, in submission order.
    pub rejected: Vec<RejectedStudy>,
    /// Every scheduling grant, in execution order.
    pub schedule: Vec<ScheduleGrant>,
}

impl ServiceReport {
    /// The outcome of a named study, if it was admitted.
    #[must_use]
    pub fn outcome(&self, tenant: &str, study: &str) -> Option<&StudyOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.tenant == tenant && o.study == study)
    }

    /// Serialises the report to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if serialisation fails.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| Error::storage(format!("serialising service report: {e}")))
    }

    /// A compact human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let completed = self.outcomes.iter().filter(|o| o.report.is_some()).count();
        let failed = self.outcomes.len() - completed;
        let warm = self.outcomes.iter().filter(|o| o.warm_hits > 0).count();
        let saved: u64 = self.outcomes.iter().map(|o| o.trials_saved).sum();
        let mut out = format!(
            "{completed} studies completed, {failed} failed, {} rejected \
             ({} scheduling grants; {warm} warm-started, {saved} trials saved)",
            self.rejected.len(),
            self.schedule.len(),
        );
        for o in &self.outcomes {
            let status = match (&o.report, &o.error) {
                (Some(_), _) => "done".to_string(),
                (None, Some(e)) => format!("FAILED: {e}"),
                (None, None) => "FAILED".to_string(),
            };
            out.push_str(&format!(
                "\n  {}/{} (seed {}): {} trials in {} slices, {} warm hits — {status}",
                o.tenant, o.study, o.seed, o.evaluated_trials, o.slices, o.warm_hits
            ));
        }
        out
    }
}
