//! Scenario runners.
//!
//! [`run_cost_comparison`] reproduces the methodology behind Figs. 14 and 16
//! and the §IV-D/§IV-E numbers: run the workload under every static provider
//! set of Fig. 13, under Scalia, and under the per-period ideal oracle, then
//! report each policy's total cost as a percentage over the ideal.

use crate::accounting::{run_policy, PolicyRun};
use crate::policy::{IdealPolicy, ScaliaPolicy, StaticSetPolicy};
use crate::static_sets::paper_static_sets;
use crate::workload::Workload;
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_types::money::Money;

/// The cost of one policy relative to the ideal placement.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Set number (1–26 for the static sets, 27 for Scalia, as in Fig. 13).
    pub index: usize,
    /// Display label (e.g. `"S3(h)-S3(l)-Azu"` or `"Scalia"`).
    pub name: String,
    /// Total cost over the whole scenario.
    pub total_cost: Money,
    /// Percentage over the ideal cost ("% over cost").
    pub over_cost_pct: f64,
}

/// The complete result of a cost-comparison experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Scenario name.
    pub scenario: String,
    /// The ideal (oracle) run.
    pub ideal: PolicyRun,
    /// The Scalia run.
    pub scalia: PolicyRun,
    /// Every static-set run (feasible or not).
    pub static_runs: Vec<PolicyRun>,
    /// The Fig. 14/16-style table: every *feasible* static set plus Scalia,
    /// with their % over the ideal cost.
    pub outcomes: Vec<PolicyOutcome>,
}

impl ExperimentResult {
    /// Scalia's % over the ideal cost.
    pub fn scalia_over_cost(&self) -> f64 {
        self.scalia.total_cost.percent_over(self.ideal.total_cost)
    }

    /// The cheapest feasible static set's % over the ideal cost.
    pub fn best_static_over_cost(&self) -> Option<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.name != "Scalia")
            .map(|o| o.over_cost_pct)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// The most expensive feasible static set's % over the ideal cost.
    pub fn worst_static_over_cost(&self) -> Option<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.name != "Scalia")
            .map(|o| o.over_cost_pct)
            .max_by(|a, b| a.partial_cmp(b).unwrap())
    }
}

/// Runs the full Fig. 14/16-style comparison for a workload.
pub fn run_cost_comparison(
    workload: &Workload,
    catalog: &[ProviderDescriptor],
) -> ExperimentResult {
    run_cost_comparison_with(
        workload,
        catalog,
        ScaliaPolicy::new(workload.sampling_period.as_hours()),
    )
}

/// Same as [`run_cost_comparison`] but with a custom (e.g. ablated) Scalia
/// policy.
pub(crate) fn run_cost_comparison_with(
    workload: &Workload,
    catalog: &[ProviderDescriptor],
    mut scalia_policy: ScaliaPolicy,
) -> ExperimentResult {
    let mut ideal_policy = IdealPolicy::new();
    let ideal = run_policy(workload, catalog, &mut ideal_policy);
    let scalia = run_policy(workload, catalog, &mut scalia_policy);

    let mut static_runs = Vec::new();
    let mut outcomes = Vec::new();
    for set in paper_static_sets(catalog) {
        let mut policy = StaticSetPolicy::new(set.label(), &set.providers);
        let run = run_policy(workload, catalog, &mut policy);
        if run.feasible {
            outcomes.push(PolicyOutcome {
                index: set.index,
                name: run.name.clone(),
                total_cost: run.total_cost,
                over_cost_pct: run.total_cost.percent_over(ideal.total_cost),
            });
        }
        static_runs.push(run);
    }
    outcomes.push(PolicyOutcome {
        index: static_runs.len() + 1,
        name: "Scalia".to_string(),
        total_cost: scalia.total_cost,
        over_cost_pct: scalia.total_cost.percent_over(ideal.total_cost),
    });

    ExperimentResult {
        scenario: workload.name.clone(),
        ideal,
        scalia,
        static_runs,
        outcomes,
    }
}

/// Formats the outcomes as the rows of the paper's over-cost figures:
/// `set-number  label  %-over-cost`.
pub fn format_over_cost_table(result: &ExperimentResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# {} — % over ideal cost (ideal = {})\n",
        result.scenario, result.ideal.total_cost
    ));
    out.push_str("# set\tlabel\tover_cost_%\ttotal_cost\n");
    for o in &result.outcomes {
        out.push_str(&format!(
            "{}\t{}\t{:.2}\t{}\n",
            o.index, o.name, o.over_cost_pct, o.total_cost
        ));
    }
    out
}

/// Formats a resource series (Figs. 12, 15, 17): one row per sampling period
/// with the total storage and bandwidth used by the given run.
pub fn format_resource_series(run: &PolicyRun) -> String {
    let mut out = String::new();
    out.push_str("# hour\tstorage_gb\tbw_in_gb\tbw_out_gb\n");
    for sample in &run.resources {
        out.push_str(&format!(
            "{}\t{:.6}\t{:.6}\t{:.6}\n",
            sample.period, sample.storage_gb, sample.bw_in_gb, sample.bw_out_gb
        ));
    }
    out
}

/// Formats a cumulative-cost comparison (Fig. 18): one row per period with
/// the cumulative cost of each run.
pub fn format_cumulative_costs(runs: &[&PolicyRun]) -> String {
    let mut out = String::new();
    out.push_str("# hour");
    for run in runs {
        out.push_str(&format!("\t{}", run.name));
    }
    out.push('\n');
    let periods = runs
        .iter()
        .map(|r| r.cumulative_cost.len())
        .max()
        .unwrap_or(0);
    for period in 0..periods {
        out.push_str(&format!("{period}"));
        for run in runs {
            let cost = run
                .cumulative_cost
                .get(period)
                .copied()
                .unwrap_or(Money::ZERO);
            out.push_str(&format!("\t{:.6}", cost.dollars()));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use scalia_providers::catalog::ProviderCatalog;

    #[test]
    fn slashdot_comparison_has_expected_shape() {
        let catalog = ProviderCatalog::paper_catalog().all();
        let workload = scenarios::slashdot();
        let result = run_cost_comparison(&workload, &catalog);

        // Scalia and every feasible static set cost at least as much as the
        // ideal oracle.
        assert!(result.scalia_over_cost() >= -1e-9);
        for o in &result.outcomes {
            assert!(o.over_cost_pct >= -1e-9, "{} under the ideal?", o.name);
        }
        // Scalia is close to the ideal and beats the worst static set by a
        // wide margin (the paper: 0.12 % vs 16 %).
        let worst = result.worst_static_over_cost().unwrap();
        assert!(
            result.scalia_over_cost() < worst,
            "Scalia {}% must beat the worst static {}%",
            result.scalia_over_cost(),
            worst
        );
        assert!(result.scalia_over_cost() < 10.0);
        assert!(
            worst > 5.0,
            "the worst static placement should be clearly bad"
        );
        // The table contains Scalia as its last row.
        assert_eq!(result.outcomes.last().unwrap().name, "Scalia");
        // Formatting produces one line per outcome plus two header lines.
        let table = format_over_cost_table(&result);
        assert_eq!(table.lines().count(), result.outcomes.len() + 2);
    }

    #[test]
    fn formatting_helpers_cover_all_periods() {
        let catalog = ProviderCatalog::paper_catalog().all();
        let workload = scenarios::slashdot();
        let result = run_cost_comparison(&workload, &catalog);
        let series = format_resource_series(&result.scalia);
        assert_eq!(series.lines().count() as u64, workload.periods + 1);
        let costs = format_cumulative_costs(&[&result.scalia, &result.ideal]);
        assert_eq!(costs.lines().count() as u64, workload.periods + 1);
        assert!(costs.lines().next().unwrap().contains("Scalia"));
    }
}
