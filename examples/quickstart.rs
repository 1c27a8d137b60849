//! Quickstart: tune the image-classification workload with EdgeTune and
//! print both outputs — the winning training configuration *and* the
//! inference deployment recommendation.
//!
//! Run with: `cargo run --release --example quickstart`

use edgetune::prelude::*;

fn main() -> Result<(), edgetune_util::Error> {
    // ResNet/CIFAR10 with the paper's defaults: BOHB (TPE + HyperBand),
    // multi-budget trials, Raspberry Pi 3B+ as the edge target.
    let config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(8, 2.0, 10))
        .with_seed(42);

    println!("tuning {:?} ...", config.workload);
    let report = EdgeTune::new(config).run()?;

    println!("\n== winning trial ==");
    println!("configuration : {}", report.best_config());
    println!("accuracy      : {:.1}%", report.best_accuracy() * 100.0);
    println!("trials run    : {}", report.history().len());
    println!(
        "tuning cost   : {:.1} min, {:.1} kJ",
        report.tuning_runtime().as_minutes(),
        report.tuning_energy().as_kilojoules()
    );

    let rec = report.recommendation();
    println!("\n== deploy for inference ==");
    println!("device        : {}", rec.device);
    println!("batch size    : {}", rec.batch);
    println!("CPU cores     : {}", rec.cores);
    println!("frequency     : {:.2} GHz", rec.freq.as_ghz());
    println!("throughput    : {:.1} img/s", rec.throughput().value());
    println!("energy        : {:.3} J/img", rec.energy_per_item.value());

    println!("\n== pipelining ==");
    println!(
        "inference tuning fully overlapped: {} (stall: {:.3} s)",
        report.timeline().overlap_fraction() >= 1.0 - 1e-9,
        report.stall_time().value()
    );
    println!(
        "historical cache: {} hits / {} misses",
        report.cache_stats().hits,
        report.cache_stats().misses
    );
    Ok(())
}
