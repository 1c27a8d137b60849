//! Cross-study warm-start transfer (§3.4 generalised to a service).
//!
//! The historical cache answers "have I tuned *this exact* architecture
//! before?". A long-lived tuning service can do better: a finished study
//! over ResNet/layers=50 is evidence about where good configurations
//! live for a *new* ResNet study, even on another device or serving
//! scenario. The [`TransferIndex`] generalises
//! [`CacheKey`](crate::cache::CacheKey) (device × arch × metric) into a
//! [`TransferKey`] that also carries the workload family and serving
//! scenario, ranks completed studies by signature similarity against an
//! incoming study, and hands back the top-k configurations to seed the
//! new study's sampler (see
//! [`WarmStartSampler`](edgetune_tuner::sampler::WarmStartSampler)).

// Decoding untrusted bytes must not panic: a malformed input is an error.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::path::Path;

use edgetune_tuner::space::Config;
use edgetune_tuner::Metric;
use edgetune_util::{Error, Result};
use serde::{Deserialize, Serialize};

/// Identity of a completed (or incoming) study for transfer purposes:
/// the [`CacheKey`](crate::cache::CacheKey) axes plus the workload
/// family and serving scenario.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TransferKey {
    /// Target device name.
    pub device: String,
    /// Workload model family (e.g. `"ResNet"`): the coarsest axis —
    /// transfer across families is meaningless, so a family mismatch
    /// disqualifies a donor entirely.
    pub family: String,
    /// Full architecture signature (e.g. `"ResNet/layers=18"`).
    pub arch: String,
    /// Which metric the study optimised.
    pub metric: Metric,
    /// Serving-scenario label (e.g. `"batch"`, `"multistream:10"`).
    pub scenario: String,
}

impl TransferKey {
    /// Creates a key.
    #[must_use]
    pub fn new(
        device: impl Into<String>,
        family: impl Into<String>,
        arch: impl Into<String>,
        metric: Metric,
        scenario: impl Into<String>,
    ) -> Self {
        TransferKey {
            device: device.into(),
            family: family.into(),
            arch: arch.into(),
            metric,
            scenario: scenario.into(),
        }
    }

    /// Similarity of two keys, higher = closer. Zero means "do not
    /// transfer": the family or metric differs, so the donor's
    /// configurations say nothing about the query. Above zero the tiers
    /// are strict — an exact architecture match (8) outranks any
    /// combination of device (4) and scenario (2) agreement without it,
    /// and a bare family match still scores 1 (warm beats cold).
    #[must_use]
    pub fn similarity(&self, other: &TransferKey) -> u32 {
        if self.family != other.family || self.metric != other.metric {
            return 0;
        }
        let mut score = 1;
        if self.arch == other.arch {
            score += 8;
        }
        if self.device == other.device {
            score += 4;
        }
        if self.scenario == other.scenario {
            score += 2;
        }
        score
    }
}

impl std::fmt::Display for TransferKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}|{}|{}|{}|{}",
            self.device, self.family, self.arch, self.metric, self.scenario
        )
    }
}

/// One completed study's contribution to the index: its identity and
/// its best configurations, best-first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferRecord {
    /// The donor study's identity.
    pub key: TransferKey,
    /// The donor's top configurations, best-first.
    pub configs: Vec<Config>,
    /// The donor's winning ratio score (lower = better) — the
    /// tie-break between equally similar donors.
    pub best_score: f64,
}

/// The service-wide index of completed studies, queried at admission to
/// warm-start new ones.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TransferIndex {
    records: Vec<TransferRecord>,
}

impl TransferIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        TransferIndex::default()
    }

    /// Number of donor studies recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no study has completed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records a completed study. Configurations must be best-first;
    /// empty donations are dropped (nothing to transfer).
    pub fn record(&mut self, key: TransferKey, configs: Vec<Config>, best_score: f64) {
        if configs.is_empty() {
            return;
        }
        self.records.push(TransferRecord {
            key,
            configs,
            best_score,
        });
    }

    /// Donor studies ranked against `query`: similarity descending,
    /// ties broken by best score (lower first) then insertion order —
    /// fully deterministic for a fixed submission sequence. Donors with
    /// zero similarity are excluded.
    #[must_use]
    pub fn rank(&self, query: &TransferKey) -> Vec<(&TransferRecord, u32)> {
        let mut ranked: Vec<(&TransferRecord, u32)> = self
            .records
            .iter()
            .map(|r| (r, query.similarity(&r.key)))
            .filter(|(_, score)| *score > 0)
            .collect();
        // A stable sort on the score alone would ignore the quality
        // tie-break; sorting on (score desc, best_score asc) and relying
        // on stability for the final insertion-order tie keeps the whole
        // ordering deterministic.
        ranked.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(a.0.best_score.total_cmp(&b.0.best_score))
        });
        ranked
    }

    /// The top-`k` transferred configurations for an incoming study:
    /// walks the ranked donors best-first, skipping configurations
    /// already taken from a closer donor. Empty when nothing relevant
    /// has completed — the study starts cold.
    #[must_use]
    pub fn suggest(&self, query: &TransferKey, k: usize) -> Vec<Config> {
        let mut seeds: Vec<Config> = Vec::new();
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        for (record, _) in self.rank(query) {
            for config in &record.configs {
                if seeds.len() >= k {
                    return seeds;
                }
                if seen.insert(config.key()) {
                    seeds.push(config.clone());
                }
            }
        }
        seeds
    }

    /// Serialises the index to a JSON file, atomically (`.tmp` sibling
    /// renamed into place), mirroring
    /// [`HistoricalCache::save`](crate::cache::HistoricalCache::save).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] on I/O or serialisation failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| Error::storage(format!("serialising transfer index: {e}")))?;
        edgetune_util::fs::write_atomic(path, json)
    }

    /// Loads an index previously written by [`TransferIndex::save`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if the file cannot be read or parsed.
    pub fn load(path: &Path) -> Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json)
            .map_err(|e| Error::storage(format!("parsing transfer index: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(device: &str, arch: &str, scenario: &str) -> TransferKey {
        let family = arch.split('/').next().unwrap();
        TransferKey::new(device, family, arch, Metric::Runtime, scenario)
    }

    fn config(x: f64) -> Config {
        Config::new().with("lr", x).with("layers", 18.0)
    }

    #[test]
    fn exact_match_beats_family_match_beats_cold_start() {
        let mut index = TransferIndex::new();
        index.record(
            key("pi", "ResNet/layers=50", "batch"),
            vec![config(0.1)],
            2.0,
        );
        index.record(
            key("pi", "ResNet/layers=18", "batch"),
            vec![config(0.2)],
            3.0,
        );
        let query = key("pi", "ResNet/layers=18", "batch");
        let ranked = index.rank(&query);
        assert_eq!(ranked.len(), 2);
        assert_eq!(
            ranked[0].0.key.arch, "ResNet/layers=18",
            "exact architecture outranks a family cousin"
        );
        assert!(ranked[0].1 > ranked[1].1);
        // Cold start: a family nobody has tuned yet transfers nothing.
        let cold = key("pi", "YOLO/version=3", "batch");
        assert!(index.rank(&cold).is_empty());
        assert!(index.suggest(&cold, 4).is_empty());
    }

    #[test]
    fn family_match_still_transfers_across_device_and_scenario() {
        let mut index = TransferIndex::new();
        index.record(
            key("jetson", "ResNet/layers=50", "server"),
            vec![config(0.1)],
            2.0,
        );
        let query = key("pi", "ResNet/layers=18", "batch");
        let ranked = index.rank(&query);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].1, 1, "bare family match scores the floor");
        assert_eq!(index.suggest(&query, 2), vec![config(0.1)]);
    }

    #[test]
    fn metric_mismatch_disqualifies_a_donor() {
        let mut index = TransferIndex::new();
        index.record(
            key("pi", "ResNet/layers=18", "batch"),
            vec![config(0.1)],
            2.0,
        );
        let query = TransferKey::new("pi", "ResNet", "ResNet/layers=18", Metric::Energy, "batch");
        assert!(index.rank(&query).is_empty());
    }

    #[test]
    fn arch_match_outranks_device_plus_scenario() {
        // arch(8) alone must beat device(4)+scenario(2) combined.
        let mut index = TransferIndex::new();
        index.record(
            key("pi", "ResNet/layers=18", "batch"),
            vec![config(0.1)],
            2.0,
        );
        index.record(
            key("jetson", "ResNet/layers=50", "server"),
            vec![config(0.2)],
            1.0,
        );
        let query = key("pi", "ResNet/layers=50", "server");
        let ranked = index.rank(&query);
        assert_eq!(ranked[0].0.key.arch, "ResNet/layers=50");
    }

    #[test]
    fn ties_break_on_best_score_then_insertion_order() {
        let mut index = TransferIndex::new();
        index.record(
            key("pi", "ResNet/layers=18", "batch"),
            vec![config(0.1)],
            3.0,
        );
        index.record(
            key("pi", "ResNet/layers=18", "batch"),
            vec![config(0.2)],
            1.0,
        );
        index.record(
            key("pi", "ResNet/layers=18", "batch"),
            vec![config(0.3)],
            1.0,
        );
        let query = key("pi", "ResNet/layers=18", "batch");
        let ranked = index.rank(&query);
        assert_eq!(ranked[0].0.configs[0], config(0.2), "better donor first");
        assert_eq!(
            ranked[1].0.configs[0],
            config(0.3),
            "stable within equal scores"
        );
        assert_eq!(ranked[2].0.configs[0], config(0.1));
    }

    #[test]
    fn suggest_dedupes_across_donors_and_respects_k() {
        let mut index = TransferIndex::new();
        index.record(
            key("pi", "ResNet/layers=18", "batch"),
            vec![config(0.1), config(0.2)],
            1.0,
        );
        index.record(
            key("pi", "ResNet/layers=50", "batch"),
            vec![config(0.1), config(0.3), config(0.4)],
            2.0,
        );
        let query = key("pi", "ResNet/layers=18", "batch");
        let seeds = index.suggest(&query, 3);
        assert_eq!(seeds, vec![config(0.1), config(0.2), config(0.3)]);
    }

    #[test]
    fn empty_donations_are_dropped() {
        let mut index = TransferIndex::new();
        index.record(key("pi", "ResNet/layers=18", "batch"), vec![], 1.0);
        assert!(index.is_empty());
    }

    #[test]
    fn save_load_round_trip() {
        let mut index = TransferIndex::new();
        index.record(
            key("pi", "ResNet/layers=18", "batch"),
            vec![config(0.1)],
            2.0,
        );
        let dir = std::env::temp_dir().join("edgetune-transfer-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("transfer.json");
        index.save(&path).unwrap();
        let loaded = TransferIndex::load(&path).unwrap();
        assert_eq!(loaded, index);
        assert!(!dir.join("transfer.json.tmp").exists());
        std::fs::remove_file(&path).ok();
    }
}
