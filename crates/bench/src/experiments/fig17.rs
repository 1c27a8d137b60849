//! Figure 17: EdgeTune vs. HyperPower — tuning efficiency and inference
//! performance.
//!
//! HyperPower tunes cheaper (it explores no system/inference space) but,
//! being inference-unaware, selects architectures that deploy worse. For
//! fairness both systems' winning models are deployed with the inference
//! parameters EdgeTune recommends (§5.5: "we use the same parameters
//! outputted by our approach in both cases").

use edgetune_baselines::deploy::deploy_with;
use edgetune_baselines::HyperPower;
use edgetune_tuner::budget::BudgetPolicy;
use edgetune_workloads::WorkloadId;

use crate::helpers::{edge_device, edgetune_run};
use crate::table::{num, Table};
use edgetune::prelude::Metric;

/// One workload's comparison row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// HyperPower tuning duration (minutes).
    pub hp_min: f64,
    /// EdgeTune tuning duration (minutes).
    pub et_min: f64,
    /// HyperPower tuning energy (kJ).
    pub hp_kj: f64,
    /// EdgeTune tuning energy (kJ).
    pub et_kj: f64,
    /// HyperPower deployment throughput (items/s).
    pub hp_thpt: f64,
    /// EdgeTune deployment throughput (items/s).
    pub et_thpt: f64,
    /// HyperPower deployment energy (J/item).
    pub hp_j: f64,
    /// EdgeTune deployment energy (J/item).
    pub et_j: f64,
}

/// Measures one workload.
#[must_use]
pub fn compare(workload: WorkloadId, seed: u64) -> Row {
    let hyperpower = HyperPower::new(workload).with_seed(seed);
    let hp_report = hyperpower.run();
    let et_report = edgetune_run(
        workload,
        BudgetPolicy::multi_default(),
        Metric::Runtime,
        seed,
    );

    let device = edge_device();
    let rec = et_report.recommendation();
    let (_, hp_profile) = hyperpower.winning_architecture(&hp_report);
    let hp_deploy =
        deploy_with(&device, &hp_profile, rec).expect("recommendation valid for the device");

    Row {
        hp_min: hp_report.tuning_runtime().as_minutes(),
        et_min: et_report.tuning_runtime().as_minutes(),
        hp_kj: hp_report.tuning_energy().as_kilojoules(),
        et_kj: et_report.tuning_energy().as_kilojoules(),
        hp_thpt: hp_deploy.throughput.value(),
        et_thpt: rec.throughput().value(),
        hp_j: hp_deploy.energy_per_item.value(),
        et_j: rec.energy_per_item.value(),
    }
}

/// Renders Fig. 17.
#[must_use]
pub fn run(seed: u64) -> String {
    let mut out = String::new();
    let mut rows = Vec::new();
    for workload in WorkloadId::all() {
        rows.push((workload, compare(workload, seed)));
    }
    type Extract = fn(&Row) -> (f64, f64);
    let subplots: [(&str, Extract); 4] = [
        ("Figure 17a: tuning duration [m]", |r| (r.hp_min, r.et_min)),
        ("Figure 17b: tuning energy [kJ]", |r| (r.hp_kj, r.et_kj)),
        ("Figure 17c: inference throughput [items/s]", |r| {
            (r.hp_thpt, r.et_thpt)
        }),
        ("Figure 17d: inference energy [J/item]", |r| {
            (r.hp_j, r.et_j)
        }),
    ];
    for (title, extract) in subplots {
        let mut t = Table::new(title).headers(["system", "IC", "SR", "NLP", "OD"]);
        let mut hp_cells = vec!["HyperPower".to_string()];
        let mut et_cells = vec!["EdgeTune".to_string()];
        for (_, row) in &rows {
            let (hp, et) = extract(row);
            hp_cells.push(num(hp, 2));
            et_cells.push(num(et, 2));
        }
        t.row(hp_cells);
        t.row(et_cells);
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "note: HyperPower tunes cheaper (no inference/system exploration) but its \
         inference-unaware model choice deploys worse (§5.5)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyperpower_tunes_cheaper_but_deploys_worse() {
        // IC: the depth choice is where inference-awareness matters most.
        let row = compare(WorkloadId::Ic, 42);
        assert!(
            row.hp_min < row.et_min,
            "HyperPower tuning should be cheaper: {} vs {}",
            row.hp_min,
            row.et_min
        );
        assert!(
            row.et_thpt >= row.hp_thpt,
            "EdgeTune deployment throughput should win: {} vs {}",
            row.et_thpt,
            row.hp_thpt
        );
        assert!(
            row.et_j <= row.hp_j * 1.001,
            "EdgeTune deployment energy should win: {} vs {}",
            row.et_j,
            row.hp_j
        );
    }

    #[test]
    fn all_workloads_produce_rows() {
        for workload in WorkloadId::all() {
            let row = compare(workload, 42);
            assert!(row.hp_thpt > 0.0 && row.et_thpt > 0.0, "{workload}");
        }
    }
}
