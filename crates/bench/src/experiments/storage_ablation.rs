//! **§4.4 ablation** — the storage-minimizing BF/DF marking vs forcing
//! all-breadth-first or all-depth-first traversals, measured as the peak
//! temp-table bytes during actual execution. Not a paper figure; it
//! quantifies the design choice §4.4.1 argues for.

use crate::harness::{
    optimize_timed, run_plan_scheduled, sampled_optimizer_model, session_for, Report, Scale,
};
use gbmqo_core::prelude::*;
use gbmqo_core::schedule::{plan_min_storage, schedule_plan, simulate_peak, PlanEdge, Step};
use gbmqo_cost::{CostModel, IndexSnapshot};
use gbmqo_datagen::{lineitem, LINEITEM_SC_COLUMNS};

/// Measured outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Peak bytes (model units) with the optimal marking.
    pub marked_peak: f64,
    /// Peak with every node forced breadth-first.
    pub all_bf_peak: f64,
    /// Peak with every node forced depth-first.
    pub all_df_peak: f64,
    /// Peak bytes actually observed executing the marked schedule.
    pub executed_peak_bytes: usize,
}

/// Simulate the peak of a schedule where the traversal of every node is
/// forced, by rebuilding the plan's step list manually.
fn forced_peak(plan: &LogicalPlan, breadth: bool, d: &mut dyn FnMut(ColSet) -> f64) -> f64 {
    fn query(node: &gbmqo_core::SubNode, source: Option<ColSet>) -> Step {
        Step::Query(PlanEdge {
            source,
            target: node.cols,
            materialize: !node.children.is_empty(),
            required: node.required,
            kind: gbmqo_core::NodeKind::GroupBy,
        })
    }
    /// `node` is computed; schedule its children.
    fn emit_body(node: &gbmqo_core::SubNode, breadth: bool, steps: &mut Vec<Step>) {
        if node.children.is_empty() {
            return;
        }
        if breadth {
            for c in &node.children {
                steps.push(query(c, Some(node.cols)));
            }
            steps.push(Step::Drop(node.cols));
            for c in &node.children {
                emit_body(c, breadth, steps);
            }
        } else {
            for c in &node.children {
                steps.push(query(c, Some(node.cols)));
                emit_body(c, breadth, steps);
            }
            steps.push(Step::Drop(node.cols));
        }
    }
    let mut steps = Vec::new();
    for sp in &plan.subplans {
        steps.push(query(sp, None));
        emit_body(sp, breadth, &mut steps);
    }
    simulate_peak(&steps, d)
}

/// Run the ablation; returns (report, outcome).
pub fn run(scale: &Scale) -> (Report, Outcome) {
    let table = lineitem(scale.base_rows, 0.0, 44);
    // A TC workload produces deeper trees with real storage tension.
    let w = Workload::two_columns("lineitem", &table, &LINEITEM_SC_COLUMNS[3..11]).unwrap();
    let mut model = sampled_optimizer_model(&table, IndexSnapshot::none());
    let (plan, _, _) = optimize_timed(&w, &mut model, SearchConfig::pruned());

    let mut d = {
        let mut m = crate::harness::exact_cardinality_model(&table);
        move |s: ColSet| {
            let cols: Vec<usize> = s.iter().collect();
            m.result_bytes(&cols)
        }
    };
    let marked_peak = plan_min_storage(&plan, &mut d);
    let marked_sim = simulate_peak(&schedule_plan(&plan, &mut d), &mut d);
    let all_bf_peak = forced_peak(&plan, true, &mut d);
    let all_df_peak = forced_peak(&plan, false, &mut d);
    assert!(marked_sim <= marked_peak + 1e-6);

    let mut session = session_for(table.clone(), "lineitem");
    let mut d2 = {
        let mut m = crate::harness::exact_cardinality_model(&table);
        move |s: ColSet| {
            let cols: Vec<usize> = s.iter().collect();
            m.result_bytes(&cols)
        }
    };
    let exec = run_plan_scheduled(&plan, &w, &mut session, &mut d2);

    let outcome = Outcome {
        marked_peak,
        all_bf_peak,
        all_df_peak,
        executed_peak_bytes: exec.peak_temp_bytes,
    };
    let mut report = Report::new("§4.4 ablation — BF/DF marking vs forced traversals");
    report.line(format!(
        "peak temp storage (model bytes): marked {:.0} | all-BF {:.0} | all-DF {:.0}",
        outcome.marked_peak, outcome.all_bf_peak, outcome.all_df_peak
    ));
    report.line(format!(
        "executed peak (actual bytes, marked schedule): {}",
        outcome.executed_peak_bytes
    ));
    report.line("(the marked schedule never exceeds either forced traversal)".to_string());
    (report, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing-sensitive shape test; run with `cargo test --release`"
    )]
    fn marking_is_never_worse_than_forced_traversals() {
        let _guard = crate::harness::timing_lock();
        let scale = Scale::small();
        let (_, o) = run(&scale);
        assert!(o.marked_peak <= o.all_bf_peak + 1e-6);
        assert!(o.marked_peak <= o.all_df_peak + 1e-6);
        assert!(o.executed_peak_bytes > 0);
    }
}
