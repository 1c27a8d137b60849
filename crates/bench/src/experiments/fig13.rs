//! Figure 13: the three budget approaches across all four workloads —
//! tuning duration, tuning energy, inference throughput and inference
//! energy of the resulting deployment.

use edgetune_tuner::budget::BudgetPolicy;
use edgetune_workloads::WorkloadId;

use crate::helpers::edgetune_run;
use crate::table::{num, Table};
use edgetune::prelude::Metric;

/// One measured cell of the figure.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Tuning duration in minutes.
    pub tuning_min: f64,
    /// Tuning energy in kJ.
    pub tuning_kj: f64,
    /// Deployed inference throughput (items/s).
    pub throughput: f64,
    /// Deployed inference energy (J/item).
    pub j_per_item: f64,
}

/// Measures one (policy, workload) cell.
#[must_use]
pub fn cell(policy: BudgetPolicy, workload: WorkloadId, seed: u64) -> Cell {
    let report = edgetune_run(workload, policy, Metric::Runtime, seed);
    let rec = report.recommendation();
    Cell {
        tuning_min: report.tuning_runtime().as_minutes(),
        tuning_kj: report.tuning_energy().as_kilojoules(),
        throughput: rec.throughput().value(),
        j_per_item: rec.energy_per_item.value(),
    }
}

/// Renders all four subplots.
#[must_use]
pub fn run(seed: u64) -> String {
    let policies = [
        BudgetPolicy::epoch_default(),
        BudgetPolicy::dataset_default(),
        BudgetPolicy::multi_default(),
    ];
    let workloads = WorkloadId::all();

    let mut grid: Vec<Vec<Cell>> = Vec::new();
    for &policy in &policies {
        grid.push(workloads.iter().map(|&w| cell(policy, w, seed)).collect());
    }

    let mut out = String::new();
    type Extract = fn(&Cell) -> f64;
    let subplots: [(&str, Extract); 4] = [
        ("Figure 13a: tuning duration [m]", |c| c.tuning_min),
        ("Figure 13b: tuning energy [kJ]", |c| c.tuning_kj),
        ("Figure 13c: inference throughput [items/s]", |c| {
            c.throughput
        }),
        ("Figure 13d: inference energy [J/item]", |c| c.j_per_item),
    ];
    for (title, extract) in subplots {
        let mut t = Table::new(title).headers(["budget", "IC", "SR", "NLP", "OD"]);
        for (policy, row) in policies.iter().zip(&grid) {
            let mut cells = vec![policy.name().to_string()];
            cells.extend(row.iter().map(|c| num(extract(c), 2)));
            t.row(cells);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_budget_is_cheapest_overall() {
        let seed = 42;
        for workload in [WorkloadId::Ic, WorkloadId::Od] {
            let epoch = cell(BudgetPolicy::epoch_default(), workload, seed);
            let multi = cell(BudgetPolicy::multi_default(), workload, seed);
            assert!(
                multi.tuning_min < epoch.tuning_min,
                "{workload}: multi-budget should tune faster: {} vs {}",
                multi.tuning_min,
                epoch.tuning_min
            );
            assert!(
                multi.tuning_kj < epoch.tuning_kj,
                "{workload}: multi-budget should tune cheaper: {} vs {}",
                multi.tuning_kj,
                epoch.tuning_kj
            );
        }
    }

    #[test]
    fn inference_outcomes_are_comparable_across_budgets() {
        // Fig. 13: "the inference configuration of these 3 approaches are
        // very similar" — all converge to one of the optima.
        let seed = 42;
        let epoch = cell(BudgetPolicy::epoch_default(), WorkloadId::Ic, seed);
        let multi = cell(BudgetPolicy::multi_default(), WorkloadId::Ic, seed);
        let ratio = multi.throughput / epoch.throughput;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "deployment quality should be in the same ballpark: {ratio}"
        );
    }

    #[test]
    fn od_is_the_heaviest_workload() {
        let seed = 42;
        let ic = cell(BudgetPolicy::multi_default(), WorkloadId::Ic, seed);
        let od = cell(BudgetPolicy::multi_default(), WorkloadId::Od, seed);
        assert!(
            od.tuning_min > ic.tuning_min,
            "COCO/YOLO tuning dwarfs CIFAR10"
        );
        assert!(
            od.throughput < ic.throughput,
            "YOLO inference is far slower at the edge"
        );
    }
}
