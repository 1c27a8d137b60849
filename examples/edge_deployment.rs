//! Edge deployment across heterogeneous devices: the paper's common case
//! where "the tuned model might be deployed across different edge
//! devices" (§1). One tuning job per target device shows how the optimal
//! inference configuration — and therefore the recommendation EdgeTune
//! hands the user — shifts with the hardware.
//!
//! Run with: `cargo run --release --example edge_deployment`

use edgetune::inference::{InferenceSpace, InferenceTuningServer};
use edgetune::prelude::*;
use edgetune_device::spec::DeviceSpec;
use edgetune_tuner::objective::InferenceObjective;
use edgetune_workloads::catalog::Workload;

fn main() -> Result<(), edgetune_util::Error> {
    // The trained architecture whose deployment we are planning — take
    // the tuning winner for the speech-recognition workload.
    let report = EdgeTune::new(
        EdgeTuneConfig::for_workload(WorkloadId::Sr)
            .with_scheduler(SchedulerConfig::new(8, 2.0, 10))
            .with_seed(7),
    )
    .run()?;
    let workload = Workload::by_id(WorkloadId::Sr);
    let model_hp = report
        .best_config()
        .get("model_hp")
        .expect("model hyperparameter is part of the space");
    let profile = workload.profile(model_hp);
    println!(
        "tuned {} (embed_dim = {model_hp}) to {:.1}% accuracy\n",
        workload.model,
        report.best_accuracy() * 100.0
    );

    println!(
        "{:<22} {:>6} {:>6} {:>9} {:>12} {:>12}",
        "edge device", "batch", "cores", "freq", "throughput", "energy"
    );
    for device in [
        DeviceSpec::armv7_board(),
        DeviceSpec::raspberry_pi_3b(),
        DeviceSpec::intel_i7_7567u(),
    ] {
        let server = InferenceTuningServer::new(
            device.clone(),
            InferenceSpace::for_device(&device),
            InferenceObjective::new(Metric::Runtime),
        )?;
        let (rec, cost) = server.tune(&profile);
        println!(
            "{:<22} {:>6} {:>6} {:>6.2}GHz {:>7.1} it/s {:>9.3} J/it   (tuned in {:.1}s)",
            device.name,
            rec.batch,
            rec.cores,
            rec.freq.as_ghz(),
            rec.throughput().value(),
            rec.energy_per_item.value(),
            cost.runtime.value(),
        );
    }

    println!("\nsame model, three devices, three different optimal configurations —");
    println!("exactly the guidance a conventional tuning service never produces.");
    Ok(())
}
