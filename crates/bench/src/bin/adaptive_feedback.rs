//! The adaptive feedback loop end to end: observed cardinalities
//! correcting a deliberately under-sampled optimizer on repeat
//! workloads, sketch-maintained estimates under append churn, and
//! benefit-greedy search quality at scale.
//!
//! Three scenarios:
//!
//! 1. **Convergence** — a dashboard repeats the same grouping sets on a
//!    Zipf-skewed table while the optimizer plans from a tiny sample.
//!    Adaptive mode feeds each execution's true per-node group counts
//!    back into the estimates, so round over round the q-error shrinks
//!    and the *true* scan cost of the chosen plan never increases. A
//!    static session keeps replanning from the same bad sample.
//! 2. **Churn** — appends land between rounds. The per-table HLL
//!    sketches fold in just the delta rows (no full re-sample), keeping
//!    corrected estimates fresh.
//! 3. **Benefit-greedy** — 16 disjoint 3-column queries over a
//!    48-column table: estimated-benefit ordering must land within 10%
//!    of the exhaustive optimum while spending fewer cost-model calls
//!    than the standard greedy search.
//!
//! ```sh
//! cargo run --release -p gbmqo-bench --bin adaptive_feedback
//! GBMQO_ROWS=200000 cargo run --release -p gbmqo-bench --bin adaptive_feedback
//! cargo run --release -p gbmqo-bench --bin adaptive_feedback -- --smoke  # CI: assert floors
//! ```

use gbmqo_core::optimal_plan;
use gbmqo_core::prelude::*;
use gbmqo_cost::CardinalityCostModel;
use gbmqo_datagen::{lineitem, widened_lineitem};
use gbmqo_stats::{DistinctEstimator, ExactSource};
use gbmqo_storage::Table;

const SKEW: f64 = 1.0;
const SEED: u64 = 42;
const ROUNDS: usize = 6;
const CHURN_ROUNDS: usize = 4;
const APPEND_ROWS: usize = 2_000;
/// Deliberately tiny reservoir: joint estimates collapse under skew,
/// which is exactly what the feedback loop has to repair.
const SAMPLE: usize = 128;

/// The dashboard's repeated grouping sets: singles plus the skewed
/// joints a small sample gets wrong.
const QUERIES: &[&[&str]] = &[
    &["l_returnflag"],
    &["l_linestatus"],
    &["l_shipmode"],
    &["l_linenumber"],
    &["l_partkey", "l_linenumber"],
    &["l_suppkey", "l_shipmode"],
    &["l_partkey", "l_shipinstruct"],
    &["l_returnflag", "l_linestatus"],
];

fn rows() -> usize {
    std::env::var("GBMQO_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300_000)
}

fn workload(table: &Table) -> Workload {
    let universe: Vec<&str> = table
        .schema()
        .names()
        .iter()
        .copied()
        .filter(|n| QUERIES.iter().any(|q| q.contains(n)))
        .collect();
    let requests: Vec<Vec<&str>> = QUERIES.iter().map(|q| q.to_vec()).collect();
    Workload::new("lineitem", table, &universe, &requests).unwrap()
}

fn session(table: Table, adaptive: bool) -> Session {
    Session::builder()
        .table("lineitem", table)
        .cost_model(CostModelSpec::Cardinality(Stats::Sampled {
            sample_size: SAMPLE,
            estimator: DistinctEstimator::Hybrid,
            seed: 7,
        }))
        .search(SearchConfig::pruned())
        .plan_cache(32)
        .adaptive(adaptive)
        .build()
        .unwrap()
}

/// Cost of `plan` under the session's own cost model evaluated with
/// *exact* statistics — the ground truth the adaptive loop converges to.
fn true_cost(plan: &LogicalPlan, w: &Workload, table: &Table) -> f64 {
    let mut model = CardinalityCostModel::new(ExactSource::new(table));
    gbmqo_core::explain(plan, w, &mut model).1
}

struct Round {
    avg_qerror: f64,
    max_qerror: f64,
    true_cost: f64,
    reopts: u64,
}

fn round(s: &mut Session, w: &Workload, table: &Table) -> Round {
    let out = s.run_workload(w, CacheControl::Default).unwrap();
    let m = &out.report.metrics;
    Round {
        avg_qerror: m.qerror_sum_x100 as f64 / 100.0 / (m.qerror_nodes.max(1)) as f64,
        max_qerror: m.qerror_max_x100 as f64 / 100.0,
        true_cost: true_cost(&out.plan, w, table),
        reopts: m.plan_reopts,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rows = if smoke { 40_000 } else { rows() };

    // ---- scenario 1: repeat-workload convergence --------------------
    eprintln!("generating {rows}-row lineitem (zipf z={SKEW}) ...");
    let table = lineitem(rows, SKEW, SEED);
    let w = workload(&table);

    let mut adaptive = session(table.clone(), true);
    let mut fixed = session(table.clone(), false);
    println!(
        "adaptive_feedback: {rows} rows, {} queries x {ROUNDS} rounds, sample={SAMPLE}",
        QUERIES.len()
    );
    println!(
        "  {:<6} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "round", "adaptive avg-q", "adaptive max-q", "static avg-q", "true cost", "reopts"
    );
    let mut history = Vec::new();
    for i in 0..ROUNDS {
        let a = round(&mut adaptive, &w, &table);
        let f = round(&mut fixed, &w, &table);
        println!(
            "  {:<6} {:>14.2} {:>14.2} {:>14.2} {:>14.0} {:>8}",
            i, a.avg_qerror, a.max_qerror, f.avg_qerror, a.true_cost, a.reopts
        );
        history.push(a);
    }
    let (first, last) = (&history[0], &history[ROUNDS - 1]);

    // ---- scenario 2: sketch freshness under append churn ------------
    let delta = table.slice_rows(0, APPEND_ROWS.min(rows)).unwrap();
    let mut sketch_refreshes = 0;
    let mut churn_qerror = 0.0f64;
    for _ in 0..CHURN_ROUNDS {
        adaptive.append("lineitem", delta.clone()).unwrap();
        let out = adaptive.run_workload(&w, CacheControl::Default).unwrap();
        let m = &out.report.metrics;
        sketch_refreshes += m.sketch_refreshes;
        churn_qerror = m.qerror_sum_x100 as f64 / 100.0 / (m.qerror_nodes.max(1)) as f64;
    }
    println!(
        "  churn : {CHURN_ROUNDS} x {APPEND_ROWS}-row appends, {sketch_refreshes} sketch delta-refreshes, avg q-error {churn_qerror:.2}"
    );

    // ---- scenario 3: benefit-greedy vs exhaustive and greedy --------
    // The exhaustive DP enumerates 3^n subset partitions and prices
    // every input union with an exact distinct count, so both the query
    // count and the rows stay small — quality ratios, not throughput,
    // are what this scenario measures. Smoke drops to 12 queries
    // because 3^16 alone costs minutes of CI time.
    let (n_queries, wide_cols, wide_rows) = if smoke {
        (12, 36, 1_000)
    } else {
        (16, 48, 8_000)
    };
    eprintln!("generating {wide_rows}-row {wide_cols}-column lineitem ...");
    let wide = widened_lineitem(wide_rows, wide_cols, 7);
    let names: Vec<&str> = wide.schema().names().to_vec();
    let requests: Vec<Vec<&str>> = (0..n_queries)
        .map(|i| names[3 * i..3 * i + 3].to_vec())
        .collect();
    let ww = Workload::new("wide", &wide, &names, &requests).unwrap();

    let mut model = CardinalityCostModel::new(ExactSource::new(&wide));
    let (_, optimal_cost) = optimal_plan(&ww, &mut model).unwrap();

    let mut model = CardinalityCostModel::new(ExactSource::new(&wide));
    let (_, greedy) = GbMqo::with_config(SearchConfig::pruned())
        .plan(&ww, &mut model)
        .unwrap();

    let mut model = CardinalityCostModel::new(ExactSource::new(&wide));
    let benefit_config = SearchConfig {
        benefit_greedy: true,
        ..SearchConfig::pruned()
    };
    let (_, benefit) = GbMqo::with_config(benefit_config)
        .plan(&ww, &mut model)
        .unwrap();

    println!(
        "  search: {n_queries} x 3-column queries over {wide_cols} columns ({wide_rows} rows)"
    );
    println!(
        "    exhaustive: cost {optimal_cost:>12.0}\n    greedy    : cost {:>12.0}  ({} cost-model calls)\n    benefit   : cost {:>12.0}  ({} cost-model calls, {} pruned by benefit order)",
        greedy.final_cost,
        greedy.optimizer_calls,
        benefit.final_cost,
        benefit.optimizer_calls,
        benefit.pruned_benefit
    );

    if smoke {
        // CI floors for the three acceptance criteria.
        assert!(
            last.avg_qerror <= first.avg_qerror,
            "smoke: repeat-workload q-error grew: {:.2} -> {:.2}",
            first.avg_qerror,
            last.avg_qerror
        );
        // Cost may bounce while only part of the plan's column sets have
        // been observed; what must hold is convergence — the final plan
        // is no worse than the initial one and the loop has settled.
        assert!(
            last.true_cost <= first.true_cost * 1.01,
            "smoke: repeat-workload true plan cost ended higher than it started: {:.0} -> {:.0}",
            first.true_cost,
            last.true_cost
        );
        assert!(
            (history[ROUNDS - 2].true_cost - last.true_cost).abs() <= last.true_cost * 0.01,
            "smoke: plan cost still moving in the final rounds: {:.0} -> {:.0}",
            history[ROUNDS - 2].true_cost,
            last.true_cost
        );
        assert_eq!(
            last.reopts, 0,
            "smoke: the loop is still re-optimizing in the final round"
        );
        assert!(
            sketch_refreshes >= CHURN_ROUNDS as u64,
            "smoke: {sketch_refreshes} sketch refreshes over {CHURN_ROUNDS} appends — deltas are not folding in"
        );
        assert!(
            benefit.final_cost <= optimal_cost * 1.10,
            "smoke: benefit-greedy cost {:.0} is over 110% of the exhaustive optimum {:.0}",
            benefit.final_cost,
            optimal_cost
        );
        assert!(
            benefit.optimizer_calls < greedy.optimizer_calls,
            "smoke: benefit-greedy spent {} cost-model calls vs greedy's {}",
            benefit.optimizer_calls,
            greedy.optimizer_calls
        );
        println!("smoke: OK");
    }
}
