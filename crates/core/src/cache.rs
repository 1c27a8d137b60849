//! The persistent historical database of inference-tuning results
//! (§3.4).
//!
//! Before searching, the Inference Tuning Server "verifies whether the
//! optimal configurations are already known for the given model structure
//! based on historical data"; hits avoid re-tuning an architecture at the
//! cost of a small storage overhead. The cache key is the *architecture
//! signature* — training-only hyperparameters never enter it, which is
//! what lets results be reused across trials (§3.1 "Objective").

use std::collections::BTreeMap;
use std::path::Path;

use edgetune_tuner::Metric;
use edgetune_util::{Error, Result};
use serde::{Deserialize, Refusal, Serialize};

use crate::inference::InferenceRecommendation;

/// A cache key: device × architecture signature × inference metric.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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

/// The hit/miss tally of a study's inference requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that ran a sweep instead.
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

/// The historical results store: entries, saved and loaded. A study
/// tallies its hits and misses itself (`StudyGlobals::cache_stats`).
/// Entries are kept in key order, the order they are saved in. Its
/// reader refuses an entry stored under another device's key, so a hit
/// is only ever served to the device it was tuned for.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(check = "Self::admits")]
pub struct HistoricalCache {
    entries: BTreeMap<String, InferenceRecommendation>,
}

impl HistoricalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        HistoricalCache::default()
    }

    /// Calls `f` with `key`'s entry key, `"<device>|<arch>|<metric>"`,
    /// spelled in a stack buffer so that looking a key up allocates
    /// nothing; a key too long for the buffer is spelled on the heap.
    fn with_entry_key<R>(key: &CacheKey, f: impl FnOnce(&str) -> R) -> R {
        let pieces = [&key.device, "|", &key.arch, "|", key.metric.name()];
        let mut buf = [0u8; 128];
        let mut len = 0;
        for piece in pieces {
            let Some(slot) = buf.get_mut(len..len + piece.len()) else {
                return f(&pieces.concat());
            };
            slot.copy_from_slice(piece.as_bytes());
            len += piece.len();
        }
        f(std::str::from_utf8(&buf[..len]).expect("joined from whole strings"))
    }

    /// Looks up a recommendation. A hit lends the stored entry; the
    /// caller copies what it reads.
    #[must_use]
    pub fn lookup(&self, key: &CacheKey) -> Option<&InferenceRecommendation> {
        Self::with_entry_key(key, |k| self.entries.get(k))
    }

    /// Stores a recommendation, returning any previous entry.
    pub fn store(
        &mut self,
        key: &CacheKey,
        recommendation: InferenceRecommendation,
    ) -> Option<InferenceRecommendation> {
        Self::with_entry_key(key, |k| match self.entries.get_mut(k) {
            Some(entry) => Some(std::mem::replace(entry, recommendation)),
            None => self.entries.insert(k.to_owned(), recommendation),
        })
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

    /// Loads a cache previously written by [`HistoricalCache::save`],
    /// with the number of items it skipped.
    ///
    /// Tolerates corruption: a file torn by a non-atomic writer (or
    /// hand-edited) does not fail the run. An entry is kept when its
    /// recommendation reads and names its key's device; any other is
    /// skipped, so a hit is always a deployment the server could have
    /// recommended. A document that does not parse (torn, or not UTF-8),
    /// or parses but is not a cache (no `entries` object: `{}`, `[]`,
    /// `{"entries": []}`), loads empty and counts as one skipped item, so
    /// the loss is reported, not silent.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] only when the file cannot be *read*
    /// (missing file, permissions) — never for unparseable content.
    pub fn load(path: &Path) -> Result<(Self, usize)> {
        let bytes = std::fs::read(path)?;
        // Bytes torn into invalid UTF-8 are not JSON either: the empty
        // document fails the parse below, a whole-file tear.
        let json = std::str::from_utf8(&bytes).unwrap_or_default();
        let (mut cache, mut skipped) = (HistoricalCache::new(), 0);
        let Ok(value) = serde_json::from_str::<serde_json::Value>(json) else {
            return Ok((cache, 1));
        };
        let Some(entries) = value.get("entries").and_then(serde_json::Value::as_object) else {
            return Ok((cache, 1));
        };
        for (key, entry) in entries {
            match InferenceRecommendation::from_json_value(entry) {
                Ok(rec) if keyed_by(key, &rec) => {
                    cache.entries.insert(key.clone(), rec);
                }
                _ => skipped += 1,
            }
        }
        Ok((cache, skipped))
    }

    /// The reader's check: every entry is stored under its own device.
    fn admits(&self) -> std::result::Result<(), Refusal> {
        let stray = self.entries.iter().find(|(key, rec)| !keyed_by(key, rec));
        stray.map_or(Ok(()), |(key, rec)| {
            let why = format!("{key}: device: {:?} is not its key's", rec.device);
            Err(("entries", why))
        })
    }
}

/// Whether entry key `key`, `"<device>|<arch>|<metric>"`, names `rec`'s
/// device (a catalogue device name holds no `|`).
fn keyed_by(key: &str, rec: &InferenceRecommendation) -> bool {
    key.split('|').next() == Some(rec.device.as_str())
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
    use edgetune_util::units::{Hertz, JoulesPerItem, Seconds};

    fn rec(batch: u32) -> InferenceRecommendation {
        InferenceRecommendation {
            device: "Raspberry Pi 3B+".to_string(),
            batch,
            cores: 2,
            freq: Hertz::from_ghz(1.4),
            latency_per_item: Seconds::new(0.05),
            energy_per_item: JoulesPerItem::new(0.3),
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
        assert!(cache.lookup(&other).is_none());
        assert!(cache.lookup(&key("a")).is_some());
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
    fn save_load_round_trip() {
        let mut cache = HistoricalCache::new();
        cache.store(&key("ResNet/layers=18"), rec(8));
        cache.store(&key("ResNet/layers=50"), rec(4));
        let dir = std::env::temp_dir().join("edgetune-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        cache.save(&path).unwrap();
        let loaded = HistoricalCache::load(&path).unwrap().0;
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.lookup(&key("ResNet/layers=50")).unwrap().batch, 4);
        std::fs::remove_file(&path).ok();
    }

    /// A cache file exactly as `save` wrote it while entry keys were
    /// still formatted per call and a recommendation stored its
    /// throughput.
    const SAVED: &str = r#"{
  "entries": {
    "Raspberry Pi 3B+|ResNet/layers=18|runtime": {
      "device": "Raspberry Pi 3B+",
      "batch": 8,
      "cores": 2,
      "freq": 1400000000.0,
      "latency_per_item": 0.05,
      "energy_per_item": 0.3,
      "throughput": 20.0
    }
  }
}"#;

    #[test]
    fn save_writes_device_arch_metric_entry_keys() {
        let mut cache = HistoricalCache::new();
        cache.store(&key("ResNet/layers=18"), rec(8));
        let dir = std::env::temp_dir().join("edgetune-cache-bytes-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        cache.save(&path).unwrap();
        let without_throughput = SAVED.replace(",\n      \"throughput\": 20.0", "");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), without_throughput);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_saved_file_loads_and_hits() {
        let dir = std::env::temp_dir().join("edgetune-cache-saved-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::fs::write(&path, SAVED).unwrap();
        let loaded = HistoricalCache::load(&path).unwrap().0;
        assert_eq!(loaded.lookup(&key("ResNet/layers=18")), Some(&rec(8)));
        let energy = CacheKey::new("Raspberry Pi 3B+", "ResNet/layers=18", Metric::Energy);
        assert!(loaded.lookup(&energy).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn keys_at_and_past_the_stack_buffer_work_alike() {
        // Entry keys of 128 bytes (the buffer's size) and of 129.
        for arch_len in [34, 35] {
            let mut cache = HistoricalCache::new();
            let device = "d".repeat(85);
            let arch = format!("é{}", "a".repeat(arch_len - 2));
            let key = CacheKey::new(device.as_str(), arch.as_str(), Metric::Runtime);
            assert!(cache.store(&key, rec(8)).is_none());
            assert_eq!(cache.store(&key, rec(16)), Some(rec(8)));
            assert_eq!(cache.lookup(&key), Some(&rec(16)));
            let entry_key = format!("{device}|{arch}|runtime");
            assert_eq!(entry_key.len(), 94 + arch_len);
            assert_eq!(cache.entries.keys().collect::<Vec<_>>(), [&entry_key]);
        }
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
        let (loaded, skipped) = HistoricalCache::load(&path).unwrap();
        assert_eq!(loaded.len(), 1, "the good entry survives");
        assert_eq!(skipped, 1);
        assert!(loaded.lookup(&key("good")).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_entry_no_deployment_could_have_is_skipped_not_served() {
        let mut cache = HistoricalCache::new();
        cache.store(&key("good"), rec(8));
        let bad: [(&str, &str); 10] = [
            ("\"batch\": 8", "\"batch\": 0"),
            ("\"batch\": 8", "\"batch\": 1000000000"),
            ("\"cores\": 2", "\"cores\": 0"),
            ("\"cores\": 2", "\"cores\": 3"),
            ("\"cores\": 2", "\"cores\": 99"),
            ("1400000000.0", "-1000000000.0"),
            // Inside the Pi's DVFS range, but not one of its three points.
            ("1400000000.0", "1200000000.0"),
            ("1400000000.0", "1500000000.0"),
            ("\"energy_per_item\": 0.3", "\"energy_per_item\": -5"),
            (
                "\"device\": \"Raspberry Pi 3B+\"",
                "\"device\": \"ARMv7 rev 4 board\"",
            ),
        ];
        let dir = std::env::temp_dir().join("edgetune-cache-impossible-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        for (from, to) in bad {
            let json = serde_json::to_string_pretty(&cache).unwrap();
            let tampered = json.replacen(from, to, 1);
            assert_ne!(tampered, json, "{from}");
            assert!(serde_json::from_str::<HistoricalCache>(&tampered).is_err());
            std::fs::write(&path, tampered).unwrap();
            let (loaded, skipped) = HistoricalCache::load(&path).unwrap();
            assert_eq!((loaded.len(), skipped), (0, 1), "{to}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_entry_whose_latency_is_out_of_range_is_skipped_not_served() {
        let mut cache = HistoricalCache::new();
        cache.store(&key("good"), rec(8));
        cache.store(&key("huge"), rec(4));
        let json = serde_json::to_string_pretty(&cache).unwrap().replacen(
            "\"latency_per_item\": 0.05",
            "\"latency_per_item\": 1e400",
            1,
        );
        // Entries are written in key order: "…|good|…" before "…|huge|…".
        let err = serde_json::from_str::<HistoricalCache>(&json).unwrap_err();
        assert_eq!(
            err.to_string(),
            "entries: Raspberry Pi 3B+|good|runtime: latency_per_item: number out of range for f64"
        );
        let dir = std::env::temp_dir().join("edgetune-cache-out-of-range-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::fs::write(&path, json).unwrap();
        let loaded = HistoricalCache::load(&path).unwrap().0;
        // A miss: the study re-tunes the architecture.
        assert!(loaded.lookup(&key("good")).is_none());
        assert_eq!(loaded.lookup(&key("huge")), Some(&rec(4)));
        assert_eq!(loaded.len(), 1);
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
            let (loaded, skipped) = HistoricalCache::load(&path).unwrap();
            assert_eq!(loaded.len(), 0, "nothing salvageable from {bytes:?}");
            assert_eq!(skipped, 1, "the torn document is reported");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_document_that_is_not_a_cache_is_reported() {
        let dir = std::env::temp_dir().join("edgetune-cache-not-a-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        for (document, skipped) in [
            ("{\"entries\": []}", 1),
            ("[]", 1),
            ("{}", 1),
            ("{\"entries\": {}}", 0),
        ] {
            std::fs::write(&path, document).unwrap();
            let (loaded, n) = HistoricalCache::load(&path).unwrap();
            assert_eq!((loaded.len(), n), (0, skipped), "{document}");
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

        let mut study_b = HistoricalCache::load(&path).unwrap().0;
        assert_eq!(
            study_b.lookup(&key("ResNet/layers=18")).unwrap().batch,
            8,
            "B warm-hits A's mid-study save"
        );
        study_b.store(&key("M5/width=64"), rec(4));
        study_b.save(&path).unwrap();

        let resumed_a = HistoricalCache::load(&path).unwrap().0;
        assert_eq!(resumed_a.len(), 2);
        assert_eq!(resumed_a.lookup(&key("ResNet/layers=18")).unwrap().batch, 8);
        assert_eq!(resumed_a.lookup(&key("M5/width=64")).unwrap().batch, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_cache_ratio_is_zero() {
        assert_eq!(HistoricalCache::new().len(), 0);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
        assert_eq!(CacheStats { hits: 1, misses: 3 }.hit_ratio(), 0.25);
    }
}
