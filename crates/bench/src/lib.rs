//! Experiment harness regenerating every table and figure of the
//! EdgeTune paper.
//!
//! Each submodule of [`experiments`] reproduces one table or figure from
//! the evaluation and returns its data as a rendered text table (the
//! `repro` binary prints them; EXPERIMENTS.md archives paper-vs-measured).
//! The middleware's own performance is measured by `benchmark/`.

pub mod experiments;
pub mod helpers;
pub mod table;

/// All experiment names accepted by the `repro` binary, in paper order.
#[must_use]
pub fn experiment_names() -> Vec<&'static str> {
    vec![
        "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig9", "fig10",
        "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "ablation", "frontier",
        "chaos",
    ]
}

/// Runs one experiment by name with the given seed.
///
/// # Errors
///
/// Returns an error string for unknown experiment names.
pub fn run_experiment(name: &str, seed: u64) -> Result<String, String> {
    use experiments::*;
    match name {
        "table1" => Ok(table1::run()),
        "table2" => Ok(table2::run()),
        "fig1" => Ok(fig01::run()),
        "fig2" => Ok(fig02::run()),
        "fig3" => Ok(fig03::run()),
        "fig4" => Ok(fig04::run()),
        "fig5" => Ok(fig05::run()),
        "fig6" => Ok(fig06::run(seed)),
        "fig9" => Ok(fig09::run(seed)),
        "fig10" => Ok(fig10::run(seed)),
        "fig11" => Ok(fig11::run()),
        "fig12" => Ok(fig12::run(seed)),
        "fig13" => Ok(fig13::run(seed)),
        "fig14" => Ok(fig14::run(seed)),
        "fig15" => Ok(fig15::run(seed)),
        "fig16" => Ok(fig16::run(seed)),
        "fig17" => Ok(fig17::run(seed)),
        "ablation" => Ok(ablation::run(seed)),
        "frontier" => Ok(frontier::run(seed)),
        "chaos" => Ok(chaos::run(seed)),
        other => Err(format!(
            "unknown experiment '{other}'; known: {}",
            experiment_names().join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_runs() {
        for name in experiment_names() {
            let out = run_experiment(name, 42).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!out.is_empty(), "{name} produced no output");
        }
    }

    #[test]
    fn unknown_experiment_errors() {
        assert!(run_experiment("fig99", 1).is_err());
    }
}
