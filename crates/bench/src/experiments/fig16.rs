//! Figure 16: runtime- vs. energy-based objective functions — impact on
//! tuning efficiency and on the resulting inference deployment.

use edgetune_tuner::budget::BudgetPolicy;
use edgetune_workloads::WorkloadId;

use crate::helpers::edgetune_run;
use crate::table::{num, Table};
use edgetune::prelude::Metric;

/// One measured cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Tuning duration in minutes.
    pub tuning_min: f64,
    /// Tuning energy in kJ.
    pub tuning_kj: f64,
    /// Deployed throughput (items/s).
    pub throughput: f64,
    /// Deployed inference energy (J/item).
    pub j_per_item: f64,
}

/// Measures one (metric, workload) cell.
#[must_use]
pub fn cell(metric: Metric, workload: WorkloadId, seed: u64) -> Cell {
    let report = edgetune_run(workload, BudgetPolicy::multi_default(), metric, seed);
    let rec = report.recommendation();
    Cell {
        tuning_min: report.tuning_runtime().as_minutes(),
        tuning_kj: report.tuning_energy().as_kilojoules(),
        throughput: rec.throughput().value(),
        j_per_item: rec.energy_per_item.value(),
    }
}

/// Renders Fig. 16.
#[must_use]
pub fn run(seed: u64) -> String {
    let metrics = [
        (Metric::Runtime, "obj1:runtime"),
        (Metric::Energy, "obj2:energy"),
    ];
    let workloads = WorkloadId::all();
    let grid: Vec<Vec<Cell>> = metrics
        .iter()
        .map(|&(m, _)| workloads.iter().map(|&w| cell(m, w, seed)).collect())
        .collect();

    let mut out = String::new();
    type Extract = fn(&Cell) -> f64;
    let subplots: [(&str, Extract); 4] = [
        ("Figure 16a: tuning duration [m]", |c| c.tuning_min),
        ("Figure 16b: tuning energy [kJ]", |c| c.tuning_kj),
        ("Figure 16c: inference throughput [items/s]", |c| {
            c.throughput
        }),
        ("Figure 16d: inference energy [J/item]", |c| c.j_per_item),
    ];
    for (title, extract) in subplots {
        let mut t = Table::new(title).headers(["objective", "IC", "SR", "NLP", "OD"]);
        for ((_, label), row) in metrics.iter().zip(&grid) {
            let mut cells = vec![(*label).to_string()];
            cells.extend(row.iter().map(|c| num(extract(c), 2)));
            t.row(cells);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "note: the runtime objective leans toward throughput, the energy objective toward \
         J/item; differences stay moderate because energy correlates with runtime (§5.4)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_objectives_complete_on_all_workloads() {
        for workload in WorkloadId::all() {
            for metric in [Metric::Runtime, Metric::Energy] {
                let c = cell(metric, workload, 42);
                assert!(
                    c.tuning_min > 0.0 && c.throughput > 0.0,
                    "{workload}/{metric}"
                );
            }
        }
    }

    #[test]
    fn energy_objective_never_deploys_hungrier_than_runtime_objective() {
        let rt = cell(Metric::Runtime, WorkloadId::Ic, 42);
        let en = cell(Metric::Energy, WorkloadId::Ic, 42);
        assert!(
            en.j_per_item <= rt.j_per_item * 1.05,
            "energy objective should not lose on its own metric: {en:?} vs {rt:?}"
        );
        assert!(
            rt.throughput >= en.throughput * 0.95,
            "runtime objective should not lose on throughput: {rt:?} vs {en:?}"
        );
    }
}
