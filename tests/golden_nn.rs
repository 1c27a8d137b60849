//! Golden bytes of real-training studies: the CRC-32 of the report JSON
//! of an MLP and a convnet study on `NnTrainingBackend`, two seeds each.
//!
//! The other golden suites run `SimTrainingBackend`, which calls no
//! `edgetune-nn` kernel, and the shard-invariance test in
//! `end_to_end.rs` compares runs with each other. These values are fixed
//! bytes, so a matmul, convolution or backward-pass rewrite that moves a
//! single bit of any trial's accuracy fails here. The expected values
//! were captured before the kernels were specialised by shape and must
//! never be edited to make a kernel change pass. They were re-pinned
//! once, when the report's recommendation stopped storing `throughput`:
//! each new report is the old one without that key.
//!
//! The grid sampler makes the trained configurations independent of the
//! seed; the seed still decides the data, the initial weights and with
//! them which configurations are promoted. HyperBand's brackets train at
//! several epoch and data budgets, and the MLP's hidden widths (8–64)
//! and the convnet's head (32–128 inputs) put both narrow and wide
//! matmul outputs on the path.
//!
//! CI runs this file in `--release` as well, where the vectorised
//! routines are the ones that execute.

use edgetune::backend::NnTrainingBackend;
use edgetune::config::SamplerKind;
use edgetune::prelude::*;
use edgetune_nn::data::Dataset;
use edgetune_runtime::frame::crc32;
use edgetune_util::rng::SeedStream;

/// The MLP backend on blobs whose classes overlap: validation accuracy
/// hangs on single predictions, so it moves with almost any bit of any
/// weight. (The default blobs are separable, and their accuracy
/// saturates.)
fn overlapping_mlp(seed: SeedStream) -> NnTrainingBackend {
    let blobs = Dataset::gaussian_blobs(600, 8, 4, 2.5, seed.child("data"));
    let (train, val) = blobs.split(0.8);
    NnTrainingBackend::with_dataset(train, val, seed)
}

fn report_crc(backend: fn(SeedStream) -> NnTrainingBackend, seed: u64) -> u32 {
    let config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(8, 2.0, 4))
        .with_sampler(SamplerKind::Grid(4))
        .with_seed(seed);
    let json = EdgeTune::new(config)
        .run_with_backend(&mut backend(SeedStream::new(seed).child("nn")))
        .expect("real-training study completes")
        .to_json()
        .expect("report serialises");
    crc32(json.as_bytes())
}

#[test]
fn mlp_study_reports_are_pinned() {
    for (seed, want) in [(42, 1_604_986_055), (7, 1_284_438_747)] {
        let got = report_crc(NnTrainingBackend::new, seed);
        assert_eq!(got, want, "MLP study, seed {seed}: report CRC moved");
    }
}

#[test]
fn overlapping_mlp_study_reports_are_pinned() {
    for (seed, want) in [(42, 4_233_010_067), (7, 2_453_657_338)] {
        let got = report_crc(overlapping_mlp, seed);
        assert_eq!(
            got, want,
            "MLP study on overlapping classes, seed {seed}: report CRC moved"
        );
    }
}

#[test]
fn convnet_study_reports_are_pinned() {
    for (seed, want) in [(42, 889_421_397), (7, 3_509_442_351)] {
        let got = report_crc(NnTrainingBackend::convnet, seed);
        assert_eq!(got, want, "convnet study, seed {seed}: report CRC moved");
    }
}
