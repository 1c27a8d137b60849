//! The persistent historical database of inference-tuning results
//! (§3.4).
//!
//! Before searching, the Inference Tuning Server "verifies whether the
//! optimal configurations are already known for the given model structure
//! based on historical data"; hits avoid re-tuning an architecture at the
//! cost of a small storage overhead. The cache key is the *architecture
//! signature* — training-only hyperparameters never enter it, which is
//! what lets results be reused across trials (§3.1 "Objective").

use std::collections::HashMap;
use std::path::Path;

use edgetune_tuner::Metric;
use edgetune_util::{Error, Result};
use serde::{Deserialize, Serialize};

use crate::inference::InferenceRecommendation;

/// A cache key: device × architecture signature × inference metric.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheKey {
    /// Target device name.
    pub device: String,
    /// Architecture signature (see
    /// `edgetune_workloads::Workload::arch_signature`).
    pub arch: String,
    /// Which metric the stored recommendation optimises.
    pub metric: Metric,
}

impl CacheKey {
    /// Creates a key.
    #[must_use]
    pub fn new(device: impl Into<String>, arch: impl Into<String>, metric: Metric) -> Self {
        CacheKey {
            device: device.into(),
            arch: arch.into(),
            metric,
        }
    }
}

/// Hit/miss statistics of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters as stable (name, value) pairs — the shape trace
    /// counter events consume.
    #[must_use]
    pub fn as_counters(&self) -> Vec<(String, f64)> {
        vec![
            ("hits".to_string(), self.hits as f64),
            ("misses".to_string(), self.misses as f64),
        ]
    }
}

/// The historical results store.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistoricalCache {
    entries: HashMap<String, InferenceRecommendation>,
    /// Hit/miss counters are per-process observability, not durable
    /// state: a freshly-loaded cache starts counting from zero.
    #[serde(skip)]
    stats: CacheStats,
}

impl HistoricalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        HistoricalCache::default()
    }

    fn key_string(key: &CacheKey) -> String {
        format!("{}|{}|{}", key.device, key.arch, key.metric)
    }

    /// Looks up a recommendation, recording hit/miss.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<InferenceRecommendation> {
        match self.entries.get(&Self::key_string(key)) {
            Some(rec) => {
                self.stats.hits += 1;
                Some(rec.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records a miss without a lookup — used when caching is disabled
    /// so the statistics still reflect how many sweeps were computed.
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Peeks without touching statistics.
    #[must_use]
    pub fn peek(&self, key: &CacheKey) -> Option<&InferenceRecommendation> {
        self.entries.get(&Self::key_string(key))
    }

    /// Stores a recommendation, returning any previous entry.
    pub fn store(
        &mut self,
        key: &CacheKey,
        recommendation: InferenceRecommendation,
    ) -> Option<InferenceRecommendation> {
        self.entries.insert(Self::key_string(key), recommendation)
    }

    /// Hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reinstates hit/miss counters saved out-of-band. The counters are
    /// `#[serde(skip)]` — per-process observability — so a resumed study
    /// that wants its final statistics to match the uninterrupted run's
    /// must carry them separately (the study checkpoint does) and put them
    /// back before handing the cache to the inference server.
    pub fn restore_stats(&mut self, stats: CacheStats) {
        self.stats = stats;
    }

    /// Serialises the cache to a JSON file, atomically: the bytes go to a
    /// `.tmp` sibling first and are renamed into place, so a crash
    /// mid-save can never leave a half-written cache behind.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] on I/O or serialisation failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| Error::storage(format!("serialising cache: {e}")))?;
        edgetune_util::fs::write_atomic(path, json)
    }

    /// Loads a cache previously written by [`HistoricalCache::save`].
    ///
    /// Tolerates corruption: a file torn by a non-atomic writer (or
    /// hand-edited into invalid shape) does not fail the run. Entries
    /// that still parse are salvaged; the rest are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] only when the file cannot be *read*
    /// (missing file, permissions) — never for unparseable content.
    pub fn load(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path)?;
        // Bytes torn into invalid UTF-8 are not JSON either: the empty
        // document fails both parses below, a whole-file tear.
        let json = std::str::from_utf8(&bytes).unwrap_or_default();
        match serde_json::from_str(json) {
            Ok(cache) => Ok(cache),
            Err(_) => Ok(Self::load_lenient(json)),
        }
    }

    /// Salvages whatever entries still parse from a corrupt cache file.
    fn load_lenient(json: &str) -> Self {
        let mut cache = HistoricalCache::new();
        // Torn mid-write, the document itself is not JSON.
        let Ok(value) = serde_json::from_str::<serde_json::Value>(json) else {
            return cache;
        };
        let entries = value.get("entries").and_then(serde_json::Value::as_object);
        for (key, entry) in entries.into_iter().flatten() {
            if let Ok(rec) = serde_json::from_value::<InferenceRecommendation>(entry.clone()) {
                cache.entries.insert(key.clone(), rec);
            }
        }
        cache
    }
}

#[cfg(test)]
impl HistoricalCache {
    /// Number of stored recommendations.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgetune_util::units::{Hertz, ItemsPerSecond, JoulesPerItem, Seconds};

    fn rec(batch: u32) -> InferenceRecommendation {
        InferenceRecommendation {
            device: "Raspberry Pi 3B+".to_string(),
            batch,
            cores: 2,
            freq: Hertz::from_ghz(1.4),
            latency_per_item: Seconds::new(0.05),
            energy_per_item: JoulesPerItem::new(0.3),
            throughput: ItemsPerSecond::new(20.0),
        }
    }

    fn key(arch: &str) -> CacheKey {
        CacheKey::new("Raspberry Pi 3B+", arch, Metric::Runtime)
    }

    #[test]
    fn store_then_lookup_hits() {
        let mut cache = HistoricalCache::new();
        assert!(cache.lookup(&key("ResNet/layers=18")).is_none());
        cache.store(&key("ResNet/layers=18"), rec(8));
        let hit = cache.lookup(&key("ResNet/layers=18")).unwrap();
        assert_eq!(hit.batch, 8);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert!((cache.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_metric_is_a_different_entry() {
        let mut cache = HistoricalCache::new();
        cache.store(&key("a"), rec(8));
        let energy_key = CacheKey::new("Raspberry Pi 3B+", "a", Metric::Energy);
        assert!(cache.lookup(&energy_key).is_none());
    }

    #[test]
    fn different_device_is_a_different_entry() {
        let mut cache = HistoricalCache::new();
        cache.store(&key("a"), rec(8));
        let other = CacheKey::new("ARMv7 rev 4 board", "a", Metric::Runtime);
        assert!(cache.peek(&other).is_none());
        assert!(cache.peek(&key("a")).is_some());
    }

    #[test]
    fn store_returns_previous_entry() {
        let mut cache = HistoricalCache::new();
        assert!(cache.store(&key("a"), rec(8)).is_none());
        let prev = cache.store(&key("a"), rec(16)).unwrap();
        assert_eq!(prev.batch, 8);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn peek_does_not_touch_stats() {
        let mut cache = HistoricalCache::new();
        cache.store(&key("a"), rec(8));
        let _ = cache.peek(&key("a"));
        let _ = cache.peek(&key("b"));
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn save_load_round_trip() {
        let mut cache = HistoricalCache::new();
        cache.store(&key("ResNet/layers=18"), rec(8));
        cache.store(&key("ResNet/layers=50"), rec(4));
        let dir = std::env::temp_dir().join("edgetune-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        cache.save(&path).unwrap();
        let mut loaded = HistoricalCache::load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.lookup(&key("ResNet/layers=50")).unwrap().batch, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let err = HistoricalCache::load(Path::new("/nonexistent/cache.json")).unwrap_err();
        assert!(matches!(err, Error::Storage(_)));
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let mut cache = HistoricalCache::new();
        cache.store(&key("a"), rec(8));
        let dir = std::env::temp_dir().join("edgetune-cache-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        cache.save(&path).unwrap();
        assert!(path.exists());
        assert!(
            !dir.join("cache.json.tmp").exists(),
            "the temp sibling must be renamed away"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_salvages_good_entries() {
        let mut cache = HistoricalCache::new();
        cache.store(&key("good"), rec(8));
        let mut json: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&cache).expect("cache serialises"))
                .unwrap();
        json["entries"]["Raspberry Pi 3B+|bad|runtime"] = serde_json::json!({"batch": "oops"});
        let dir = std::env::temp_dir().join("edgetune-cache-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::fs::write(&path, serde_json::to_string(&json).unwrap()).unwrap();
        let loaded = HistoricalCache::load(&path).unwrap();
        assert_eq!(loaded.len(), 1, "the good entry survives");
        assert!(loaded.peek(&key("good")).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_tolerates_a_fully_torn_file() {
        let dir = std::env::temp_dir().join("edgetune-cache-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let torn: [&[u8]; 2] = [b"{\"entries\": {\"a|b|runtime\": {\"dev", &[0xff, 0xfe]];
        for bytes in torn {
            std::fs::write(&path, bytes).unwrap();
            let loaded = HistoricalCache::load(&path).unwrap();
            assert_eq!(loaded.len(), 0, "nothing salvageable from {bytes:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interleaved_studies_share_one_cache_file_without_losing_entries() {
        // Two studies park and resume against the same cache file, the
        // way the study service interleaves tenants: A stores and saves
        // mid-study, B picks the file up, adds its own results and
        // saves, then A resumes from the file again. Nobody's entries
        // are lost and late writers see earlier writers' work.
        let dir = std::env::temp_dir().join("edgetune-cache-interleaved-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");

        let mut study_a = HistoricalCache::new();
        study_a.store(&key("ResNet/layers=18"), rec(8));
        study_a.save(&path).unwrap();

        let mut study_b = HistoricalCache::load(&path).unwrap();
        assert_eq!(
            study_b.lookup(&key("ResNet/layers=18")).unwrap().batch,
            8,
            "B warm-hits A's mid-study save"
        );
        study_b.store(&key("M5/width=64"), rec(4));
        study_b.save(&path).unwrap();

        let mut resumed_a = HistoricalCache::load(&path).unwrap();
        assert_eq!(resumed_a.len(), 2);
        assert_eq!(resumed_a.lookup(&key("ResNet/layers=18")).unwrap().batch, 8);
        assert_eq!(resumed_a.lookup(&key("M5/width=64")).unwrap().batch, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_study_round_trip_preserves_the_stats_tally_via_restore() {
        // Hit/miss counters are #[serde(skip)] by design; a parked
        // study carries them out-of-band (the study checkpoint does) and
        // reinstates them on resume so the final report's tally equals
        // the uninterrupted run's.
        let dir = std::env::temp_dir().join("edgetune-cache-stats-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");

        let mut cache = HistoricalCache::new();
        let _ = cache.lookup(&key("a")); // miss
        cache.store(&key("a"), rec(8));
        let _ = cache.lookup(&key("a")); // hit
        let parked_stats = cache.stats();
        cache.save(&path).unwrap();

        let mut resumed = HistoricalCache::load(&path).unwrap();
        assert_eq!(
            resumed.stats(),
            CacheStats::default(),
            "a freshly-loaded cache counts from zero"
        );
        resumed.restore_stats(parked_stats);
        let _ = resumed.lookup(&key("a")); // hit
        assert_eq!(resumed.stats(), CacheStats { hits: 2, misses: 1 });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_cache_ratio_is_zero() {
        let cache = HistoricalCache::new();
        assert_eq!(cache.stats().hit_ratio(), 0.0);
        assert_eq!(cache.len(), 0);
    }
}
