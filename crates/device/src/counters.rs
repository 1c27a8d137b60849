//! Synthetic hardware performance counters (Fig. 1).
//!
//! §2.1 of the paper motivates the dedicated inference emulation by showing
//! that the *forward phase of training* is not a faithful proxy for
//! *inference*: CPU-bound counter events (`cpu.*`, `context.switches`) are
//! consistent between the two phases, while memory-bound events (`cache-*`,
//! `L1-*`, `LLC-*`, branch misses) are not — training keeps weights hot and
//! mutable and saves activations, inflating its memory-system activity.
//!
//! This module synthesises per-time-unit event rates from the device spec
//! and a [`WorkProfile`], with exactly that asymmetry: every rate is a
//! deterministic function of the modelled instruction/byte streams, and
//! only the memory-bound events inherit the phase's memory factor.

use crate::profile::{Phase, WorkProfile};
use crate::spec::DeviceSpec;

/// The hardware events of the paper's Fig. 1, in its display order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names mirror Linux `perf` event identifiers
pub enum CounterEvent {
    L1DcacheLoadMisses,
    L1DcacheLoads,
    L1DcacheStores,
    L1IcacheLoadMisses,
    LlcLoadMisses,
    LlcLoads,
    LlcStoreMisses,
    LlcStores,
    BrInstRetiredAllBranches,
    BrInstRetiredFarBranch,
    BranchInstructions,
    BranchLoadMisses,
    BranchLoads,
    BranchMisses,
    Branches,
    BusCycles,
    CacheMisses,
    CacheReferences,
    ContextSwitches,
    CpuClock,
    CpuCycles,
    CpuMigrations,
}

impl CounterEvent {
    /// All events in Fig. 1's order.
    #[must_use]
    pub fn all() -> &'static [CounterEvent] {
        use CounterEvent::*;
        &[
            L1DcacheLoadMisses,
            L1DcacheLoads,
            L1DcacheStores,
            L1IcacheLoadMisses,
            LlcLoadMisses,
            LlcLoads,
            LlcStoreMisses,
            LlcStores,
            BrInstRetiredAllBranches,
            BrInstRetiredFarBranch,
            BranchInstructions,
            BranchLoadMisses,
            BranchLoads,
            BranchMisses,
            Branches,
            BusCycles,
            CacheMisses,
            CacheReferences,
            ContextSwitches,
            CpuClock,
            CpuCycles,
            CpuMigrations,
        ]
    }

    /// The `perf`-style event name.
    #[must_use]
    pub fn name(self) -> &'static str {
        use CounterEvent::*;
        match self {
            L1DcacheLoadMisses => "L1.dcache.load.misses",
            L1DcacheLoads => "L1.dcache.loads",
            L1DcacheStores => "L1.dcache.stores",
            L1IcacheLoadMisses => "L1.icache.load.misses",
            LlcLoadMisses => "LLC.load.misses",
            LlcLoads => "LLC.loads",
            LlcStoreMisses => "LLC.store.misses",
            LlcStores => "LLC.stores",
            BrInstRetiredAllBranches => "br_inst_retired.all_branches",
            BrInstRetiredFarBranch => "br_inst_retired.far_branch",
            BranchInstructions => "branch.instructions",
            BranchLoadMisses => "branch.load.misses",
            BranchLoads => "branch.loads",
            BranchMisses => "branch.misses",
            Branches => "branches",
            BusCycles => "bus.cycles",
            CacheMisses => "cache.misses",
            CacheReferences => "cache.references",
            ContextSwitches => "context.switches",
            CpuClock => "cpu.clock",
            CpuCycles => "cpu.cycles",
            CpuMigrations => "cpu.migrations",
        }
    }

    /// Whether the event reflects memory-system behaviour (the class
    /// whose rates diverge between forward-training and inference) as
    /// opposed to CPU-bound behaviour (the class that stays consistent).
    #[must_use]
    pub fn is_memory_bound(self) -> bool {
        use CounterEvent::*;
        !matches!(
            self,
            ContextSwitches | CpuClock | CpuCycles | CpuMigrations | BusCycles
        )
    }
}

impl std::fmt::Display for CounterEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One sampled event with its synthesised rate (events per second).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSample {
    /// Which event.
    pub event: CounterEvent,
    /// Events per second of wall-clock time.
    pub rate: f64,
}

/// Magnitude bucket used by Fig. 1's legend (events per time unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateBucket {
    /// More than 1e8 events per time unit.
    Over1e8,
    /// 1e6 ..= 1e8.
    From1e6To1e8,
    /// 1e4 ..= 1e6.
    From1e4To1e6,
    /// 1e2 ..= 1e4.
    From1e2To1e4,
    /// Fewer than 1e2.
    Under1e2,
}

impl RateBucket {
    /// Buckets a raw rate the way the paper's heat map legend does.
    #[must_use]
    pub fn of(rate: f64) -> Self {
        if rate > 1e8 {
            RateBucket::Over1e8
        } else if rate >= 1e6 {
            RateBucket::From1e6To1e8
        } else if rate >= 1e4 {
            RateBucket::From1e4To1e6
        } else if rate >= 1e2 {
            RateBucket::From1e2To1e4
        } else {
            RateBucket::Under1e2
        }
    }
}

impl std::fmt::Display for RateBucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RateBucket::Over1e8 => write!(f, ">1e8"),
            RateBucket::From1e6To1e8 => write!(f, "1e6-1e8"),
            RateBucket::From1e4To1e6 => write!(f, "1e4-1e6"),
            RateBucket::From1e2To1e4 => write!(f, "1e2-1e4"),
            RateBucket::Under1e2 => write!(f, "<1e2"),
        }
    }
}

/// Synthesises the per-second rate of every Fig. 1 event for running
/// `profile` in `phase` on `device`.
///
/// The instruction stream is derived from the FLOP rate (with a fixed
/// instruction mix), the memory-event stream from the byte traffic, and
/// cache-miss rates from the fraction of the working set that spills each
/// cache level. Only the memory-side events scale with the phase's memory
/// factor — the mechanism behind the paper's observation.
#[must_use]
pub fn counter_rates(
    device: &DeviceSpec,
    profile: &WorkProfile,
    phase: Phase,
    batch: u32,
) -> Vec<CounterSample> {
    use CounterEvent::*;

    // Sustained instruction throughput: assume the kernel runs at a fixed
    // fraction of peak with ~1 FLOP per vector instruction slot and a
    // 1:0.25 compute:branch mix.
    let ips = device.peak_flops(device.cores, device.max_freq) * 0.35 / 4.0;
    let flops_rate = ips * 4.0;

    // Memory traffic per second follows from arithmetic intensity.
    let ai = profile.arithmetic_intensity(batch, phase).max(1e-9);
    let bytes_rate = flops_rate / ai;
    let line = 64.0;
    let l1_accesses = bytes_rate / 8.0; // one access per 8-byte word
    let llc_accesses = bytes_rate / line;

    // Spill fractions: how much of the working set misses each level.
    let ws = profile.working_set(batch, phase);
    let l1_bytes = 32e3;
    let l1_miss_frac = (1.0 - l1_bytes / ws).clamp(0.02, 0.98);
    let llc_miss_frac = (1.0 - device.llc_bytes / ws).clamp(0.01, 0.95);

    // Training executes extra bookkeeping branches over the mutable
    // weight/gradient buffers, so the branch stream scales (sub-linearly)
    // with the phase's memory activity; its mispredict rate is also worse
    // because inference branches over constant weights are trivially
    // predictable.
    let branch_rate = ips * 0.25 * phase.memory_factor().powf(0.8);
    let branch_miss_frac = match phase {
        Phase::Inference => 0.004,
        Phase::ForwardTraining => 0.012,
        Phase::Backward => 0.016,
    };
    let icache_miss_rate = ips * 2.0e-5 * phase.memory_factor().powf(0.5);

    let freq = device.max_freq.value();

    CounterEvent::all()
        .iter()
        .map(|&event| {
            let rate = match event {
                L1DcacheLoads => l1_accesses * 0.7,
                L1DcacheStores => l1_accesses * 0.3,
                L1DcacheLoadMisses => l1_accesses * 0.7 * l1_miss_frac,
                L1IcacheLoadMisses => icache_miss_rate,
                LlcLoads => llc_accesses * 0.7,
                LlcStores => llc_accesses * 0.3,
                LlcLoadMisses => llc_accesses * 0.7 * llc_miss_frac,
                LlcStoreMisses => llc_accesses * 0.3 * llc_miss_frac,
                CacheReferences => llc_accesses,
                CacheMisses => llc_accesses * llc_miss_frac,
                Branches | BranchInstructions | BrInstRetiredAllBranches => branch_rate,
                BranchLoads => branch_rate * 0.98,
                BranchMisses | BranchLoadMisses => branch_rate * branch_miss_frac,
                BrInstRetiredFarBranch => branch_rate * 1.0e-4,
                BusCycles => freq * 0.1 * f64::from(device.cores),
                CpuCycles => freq * f64::from(device.cores) * 0.9,
                CpuClock => freq * f64::from(device.cores),
                ContextSwitches => 120.0,
                CpuMigrations => 6.0,
            };
            CounterSample { event, rate }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alexnet_cifar10() -> WorkProfile {
        // AlexNet on CIFAR10, the Fig. 1 workload.
        WorkProfile::new(0.3e9, 2.0e6, 61.0e6 * 4.0)
    }

    fn rates(phase: Phase) -> Vec<CounterSample> {
        counter_rates(&DeviceSpec::intel_i7_7567u(), &alexnet_cifar10(), phase, 1)
    }

    #[test]
    fn covers_every_event_exactly_once() {
        let r = rates(Phase::Inference);
        assert_eq!(r.len(), CounterEvent::all().len());
        let mut names: Vec<&str> = r.iter().map(|s| s.event.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CounterEvent::all().len());
    }

    // The core claim of Fig. 1: CPU-bound events are consistent across
    // phases, memory-bound events are not.
    #[test]
    fn cpu_events_consistent_memory_events_divergent() {
        let fwd = rates(Phase::ForwardTraining);
        let inf = rates(Phase::Inference);
        for (f, i) in fwd.iter().zip(inf.iter()) {
            assert_eq!(f.event, i.event);
            let ratio = f.rate / i.rate;
            if f.event.is_memory_bound() {
                assert!(
                    ratio > 1.1,
                    "{} should be inflated during forward-training: ratio={ratio}",
                    f.event
                );
            } else {
                assert!(
                    (ratio - 1.0).abs() < 0.05,
                    "{} should be phase-consistent: ratio={ratio}",
                    f.event
                );
            }
        }
    }

    #[test]
    fn rates_are_positive_and_finite() {
        for phase in [Phase::ForwardTraining, Phase::Backward, Phase::Inference] {
            for s in rates(phase) {
                assert!(
                    s.rate.is_finite() && s.rate > 0.0,
                    "{}: {}",
                    s.event,
                    s.rate
                );
            }
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(RateBucket::of(2e8), RateBucket::Over1e8);
        assert_eq!(RateBucket::of(5e6), RateBucket::From1e6To1e8);
        assert_eq!(RateBucket::of(5e4), RateBucket::From1e4To1e6);
        assert_eq!(RateBucket::of(5e2), RateBucket::From1e2To1e4);
        assert_eq!(RateBucket::of(10.0), RateBucket::Under1e2);
    }

    #[test]
    fn bucket_display() {
        assert_eq!(RateBucket::Over1e8.to_string(), ">1e8");
        assert_eq!(RateBucket::Under1e2.to_string(), "<1e2");
    }

    #[test]
    fn cycles_span_many_buckets() {
        let r = rates(Phase::Inference);
        let cycles = r
            .iter()
            .find(|s| s.event == CounterEvent::CpuCycles)
            .unwrap();
        let switches = r
            .iter()
            .find(|s| s.event == CounterEvent::ContextSwitches)
            .unwrap();
        assert_eq!(RateBucket::of(cycles.rate), RateBucket::Over1e8);
        assert_eq!(RateBucket::of(switches.rate), RateBucket::From1e2To1e4);
    }

    #[test]
    fn event_names_match_perf_style() {
        assert_eq!(CounterEvent::LlcLoadMisses.name(), "LLC.load.misses");
        assert_eq!(CounterEvent::CpuClock.to_string(), "cpu.clock");
    }
}
