//! The device catalog.
//!
//! §5.1 of the paper lists the testbed: a Titan RTX training node plus
//! three edge platforms used for validating the inference emulation — an
//! ARMv7 rev 4 board (4 cores, 4 GB), a Raspberry Pi 3 Model B+ (4 cores,
//! 1 GB) and an Intel i7-7567U laptop CPU (16 GB). Each entry here captures
//! the first-order architectural parameters the roofline and power models
//! need. Numbers are public datasheet figures rounded to modelling
//! precision; they set *scale*, while the emergent trade-offs come from the
//! model structure.

use edgetune_util::units::{Hertz, Watts};

/// Whether a device is a CPU platform (edge targets, laptop) or a GPU node
/// (the tuning server's trainer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A (multi-core) CPU platform; the only kind edge devices come in —
    /// the paper notes edge targets "typically do not contain any GPU
    /// card" (§3.2).
    Cpu,
    /// A GPU training node (used by the Model Tuning Server).
    Gpu,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::Cpu => write!(f, "cpu"),
            DeviceKind::Gpu => write!(f, "gpu"),
        }
    }
}

/// First-order architectural description of a device.
///
/// All fields are public: this is a passive, C-struct-spirit description
/// consumed by the latency/energy models.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable platform name.
    pub name: String,
    /// CPU platform or GPU node.
    pub kind: DeviceKind,
    /// Physical cores (CPU) or devices installable (GPU node: max GPUs).
    pub cores: u32,
    /// Minimum sustainable clock (DVFS floor).
    pub min_freq: Hertz,
    /// Maximum clock.
    pub max_freq: Hertz,
    /// Peak FLOPs retired per cycle per core (SIMD width × FMA).
    /// For GPU nodes this encodes per-device peak instead (see
    /// [`DeviceSpec::peak_flops`]).
    pub flops_per_cycle: f64,
    /// Sustained DRAM bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Last-level cache (or GPU L2) size in bytes; working sets beyond it
    /// pay the DRAM-bandwidth price.
    pub llc_bytes: f64,
    /// Installed DRAM in bytes; working sets beyond it thrash.
    pub dram_bytes: f64,
    /// Board/package power when idle.
    pub idle_power: Watts,
    /// Additional power of one fully-busy core at max clock (or of one GPU
    /// at full utilisation).
    pub core_power: Watts,
    /// Fixed per-invocation software overhead (framework dispatch, graph
    /// setup) in seconds.
    pub dispatch_overhead_s: f64,
    /// Interconnect bandwidth between GPUs in bytes/s (only meaningful for
    /// GPU nodes; all-reduce cost in Fig. 4 depends on it).
    pub interconnect_bw: f64,
}

impl DeviceSpec {
    /// Peak FLOP/s of `units` cores (or GPUs) at frequency `freq`.
    ///
    /// # Examples
    ///
    /// ```
    /// use edgetune_device::spec::DeviceSpec;
    ///
    /// let pi = DeviceSpec::raspberry_pi_3b();
    /// let peak = pi.peak_flops(4, pi.max_freq);
    /// assert!(peak > 1e9);
    /// ```
    #[must_use]
    pub fn peak_flops(&self, units: u32, freq: Hertz) -> f64 {
        f64::from(units) * self.flops_per_cycle * freq.value()
    }

    /// Clamps a requested frequency into this device's DVFS range.
    #[must_use]
    pub fn clamp_freq(&self, freq: Hertz) -> Hertz {
        freq.max(self.min_freq).min(self.max_freq)
    }

    /// True when `cores` is a valid allocation on this device.
    #[must_use]
    pub fn supports_cores(&self, cores: u32) -> bool {
        cores >= 1 && cores <= self.cores
    }

    /// The ARMv7 Processor rev 4 (v7l) board: 4 cores, 4 GB RAM (§2.1).
    #[must_use]
    pub fn armv7_board() -> Self {
        DeviceSpec {
            name: "ARMv7 rev 4 board".to_string(),
            kind: DeviceKind::Cpu,
            cores: 4,
            min_freq: Hertz::from_ghz(0.6),
            max_freq: Hertz::from_ghz(1.5),
            flops_per_cycle: 8.0, // NEON 128-bit FMA
            mem_bw: 4.0e9,
            llc_bytes: 1.0e6,
            dram_bytes: 4.0e9,
            idle_power: Watts::new(1.9),
            core_power: Watts::new(1.1),
            dispatch_overhead_s: 6.0e-3,
            interconnect_bw: 0.0,
        }
    }

    /// The Raspberry Pi 3 Model B+ (v1.3): 4 cores, 1 GB RAM (§2.1).
    #[must_use]
    pub fn raspberry_pi_3b() -> Self {
        DeviceSpec {
            name: "Raspberry Pi 3B+".to_string(),
            kind: DeviceKind::Cpu,
            cores: 4,
            min_freq: Hertz::from_ghz(0.6),
            max_freq: Hertz::from_ghz(1.4),
            flops_per_cycle: 8.0,
            mem_bw: 3.2e9,
            llc_bytes: 0.5e6,
            dram_bytes: 1.0e9,
            idle_power: Watts::new(1.9),
            core_power: Watts::new(1.3),
            dispatch_overhead_s: 8.0e-3,
            interconnect_bw: 0.0,
        }
    }

    /// The Intel Core i7-7567U: 2 cores / 4 threads, 16 GB RAM (§2.1).
    /// Modelled as 4 logical cores with SMT-discounted width.
    #[must_use]
    pub fn intel_i7_7567u() -> Self {
        DeviceSpec {
            name: "Intel i7-7567U".to_string(),
            kind: DeviceKind::Cpu,
            cores: 4,
            min_freq: Hertz::from_ghz(1.2),
            max_freq: Hertz::from_ghz(3.5),
            flops_per_cycle: 16.0, // AVX2 FMA, SMT-discounted
            mem_bw: 30.0e9,
            llc_bytes: 4.0e6,
            dram_bytes: 16.0e9,
            idle_power: Watts::new(5.0),
            core_power: Watts::new(7.0),
            dispatch_overhead_s: 1.5e-3,
            interconnect_bw: 0.0,
        }
    }

    /// The Titan RTX training node (Turing, 24 GB, §5.1): modelled as a
    /// node that can allocate 1–8 GPUs to a trial, matching the system
    /// parameter range of the evaluation.
    #[must_use]
    pub fn titan_rtx_node() -> Self {
        DeviceSpec {
            name: "Titan RTX node".to_string(),
            kind: DeviceKind::Gpu,
            cores: 8, // up to 8 GPUs per trial (§5.1 system parameters)
            min_freq: Hertz::from_ghz(1.35),
            max_freq: Hertz::from_ghz(1.77),
            // Encodes ~16.3 TFLOP/s fp32 peak per GPU at max clock:
            // 16.3e12 / 1.77e9 cycles/s ≈ 9209 flops/cycle/device.
            flops_per_cycle: 9209.0,
            mem_bw: 672.0e9,
            llc_bytes: 6.0e6,
            dram_bytes: 24.0e9,
            idle_power: Watts::new(60.0),
            core_power: Watts::new(220.0), // per busy GPU
            dispatch_overhead_s: 0.3e-3,
            interconnect_bw: 4.0e9, // PCIe-class all-reduce path
        }
    }

    /// All devices in the catalog, in a stable order.
    #[must_use]
    pub fn catalog() -> Vec<DeviceSpec> {
        vec![
            DeviceSpec::armv7_board(),
            DeviceSpec::raspberry_pi_3b(),
            DeviceSpec::intel_i7_7567u(),
            DeviceSpec::titan_rtx_node(),
        ]
    }

    /// Looks a device up by name, case-insensitively: the device named
    /// exactly `name`, or else the one device whose name starts with it.
    /// An empty name, or a prefix of several names, finds none.
    ///
    /// # Examples
    ///
    /// ```
    /// use edgetune_device::spec::DeviceSpec;
    ///
    /// let dev = DeviceSpec::by_name("raspberry").expect("known device");
    /// assert_eq!(dev.cores, 4);
    /// ```
    #[must_use]
    pub fn by_name(name: &str) -> Option<DeviceSpec> {
        // Every name starts with the empty name, so it is never unique.
        let needle = name.to_lowercase();
        let mut matches: Vec<DeviceSpec> = DeviceSpec::catalog()
            .into_iter()
            .filter(|d| d.name.to_lowercase().starts_with(&needle))
            .collect();
        if let Some(exact) = matches.iter().position(|d| d.name.to_lowercase() == needle) {
            return Some(matches.swap_remove(exact));
        }
        (matches.len() == 1).then(|| matches.swap_remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_contains_the_paper_testbed() {
        let names: Vec<String> = DeviceSpec::catalog().into_iter().map(|d| d.name).collect();
        assert_eq!(names.len(), 4);
        assert!(names.iter().any(|n| n.contains("ARMv7")));
        assert!(names.iter().any(|n| n.contains("Raspberry")));
        assert!(names.iter().any(|n| n.contains("i7-7567U")));
        assert!(names.iter().any(|n| n.contains("Titan")));
    }

    #[test]
    fn peak_flops_scales_with_units_and_freq() {
        let d = DeviceSpec::raspberry_pi_3b();
        let one = d.peak_flops(1, d.max_freq);
        let four = d.peak_flops(4, d.max_freq);
        assert!((four / one - 4.0).abs() < 1e-9);
        let slow = d.peak_flops(1, d.min_freq);
        assert!(slow < one);
    }

    #[test]
    fn titan_peak_is_about_16_tflops() {
        let d = DeviceSpec::titan_rtx_node();
        let peak = d.peak_flops(1, d.max_freq);
        assert!((peak / 1e12 - 16.3).abs() < 0.2, "peak={peak:e}");
    }

    #[test]
    fn clamp_freq_respects_dvfs_range() {
        let d = DeviceSpec::armv7_board();
        assert_eq!(d.clamp_freq(Hertz::from_ghz(9.0)), d.max_freq);
        assert_eq!(d.clamp_freq(Hertz::from_ghz(0.1)), d.min_freq);
        let mid = Hertz::from_ghz(1.0);
        assert_eq!(d.clamp_freq(mid), mid);
    }

    #[test]
    fn supports_cores_bounds() {
        let d = DeviceSpec::raspberry_pi_3b();
        assert!(!d.supports_cores(0));
        assert!(d.supports_cores(1));
        assert!(d.supports_cores(4));
        assert!(!d.supports_cores(5));
    }

    #[test]
    fn by_name_is_case_insensitive_prefix() {
        assert!(DeviceSpec::by_name("TITAN").is_some());
        assert!(DeviceSpec::by_name("intel").is_some());
        assert!(DeviceSpec::by_name("tpu").is_none());
        assert!(DeviceSpec::by_name("").is_none());
    }

    #[test]
    fn edge_devices_are_cpus_and_trainer_is_gpu() {
        for d in DeviceSpec::catalog() {
            match d.kind {
                DeviceKind::Cpu => assert!(d.interconnect_bw == 0.0),
                DeviceKind::Gpu => assert!(d.interconnect_bw > 0.0),
            }
        }
    }

    #[test]
    fn display_of_kind() {
        assert_eq!(DeviceKind::Cpu.to_string(), "cpu");
        assert_eq!(DeviceKind::Gpu.to_string(), "gpu");
    }
}
