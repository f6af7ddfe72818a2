//! **First contact (§3.2.2, §6.7 on the served path)** — what a fresh
//! session's first plan pays for its statistics under the served default
//! (a sample, [`Stats::default`]) and under exact statistics, and how
//! fast the plan each one chooses executes.
//!
//! The request is `cold_mqo`'s shape: eight single and pair grouping sets
//! over the nine `lineitem` columns that workload draws from, on zipf-1
//! data. Exact statistics scan the table once per column set the search
//! meets; the sample reads its rows once per column set, plus one draw of
//! row ids.

use crate::harness::{time_plans_interleaved, Report, Scale};
use gbmqo_core::prelude::*;
use gbmqo_datagen::lineitem;
use gbmqo_storage::Table;

/// The request: four singles and four pairs covering `cold_mqo`'s nine
/// columns.
pub const SETS: [&[&str]; 8] = [
    &["l_returnflag"],
    &["l_linestatus"],
    &["l_shipmode"],
    &["l_shipinstruct"],
    &["l_suppkey", "l_linenumber"],
    &["l_shipdate", "l_returnflag"],
    &["l_commitdate", "l_shipmode"],
    &["l_receiptdate", "l_linestatus"],
];

/// Fresh sessions timed per statistics spec; the fastest counts.
const REPS: usize = 5;

/// Sessions that time the two chosen plans, each over 15 interleaved
/// rounds. The plans run in about 10 ms and differ by a few percent, and
/// one session's ratio of fastest runs strayed by as much as 17% on a
/// shared machine, so the ratio reported is the median of the sessions'.
const EXEC_SESSIONS: usize = 5;

/// One data seed's measurement, each pair ordered `[default, exact]`.
#[derive(Debug, Clone)]
pub struct Row {
    /// Data seed.
    pub seed: u64,
    /// Statistics-creation time of the first plan, in µs (fastest of
    /// five fresh sessions).
    pub stats_us: [u64; 2],
    /// Statistics the first plan created.
    pub stats_created: [u64; 2],
    /// Execution seconds of the chosen plan (fastest of every session's
    /// interleaved runs).
    pub exec_secs: [f64; 2],
    /// The default plan's execution time over the exact plan's: the
    /// median over `EXEC_SESSIONS` sessions of their fastest runs' ratio.
    pub exec_ratio: f64,
    /// Whether both specs chose the same plan.
    pub same_plan: bool,
}

impl Row {
    /// Exact statistics time over the default's.
    pub fn stats_ratio(&self) -> f64 {
        self.stats_us[1] as f64 / self.stats_us[0].max(1) as f64
    }
}

fn workload(table: &Table) -> Workload {
    let mut universe: Vec<&str> = SETS.concat();
    universe.sort_unstable();
    universe.dedup();
    let requests: Vec<Vec<&str>> = SETS.iter().map(|s| s.to_vec()).collect();
    Workload::new("lineitem", table, &universe, &requests).expect("lineitem has the columns")
}

/// The first plan a fresh session under `stats` chooses for `w`, and the
/// fastest of [`REPS`] first contacts' search statistics.
fn first_plan(table: &Table, w: &Workload, stats: Stats) -> (LogicalPlan, SearchStats) {
    let mut best: Option<(LogicalPlan, SearchStats)> = None;
    for _ in 0..REPS {
        let mut session = Session::builder()
            .table("lineitem", table.clone())
            .cost_model(CostModelSpec::Optimizer(stats.clone()))
            .search(SearchConfig::pruned())
            .build()
            .expect("fresh session");
        let (plan, s) = session.plan(w).expect("plan");
        if best
            .as_ref()
            .is_none_or(|(_, b)| s.stats_create_us < b.stats_create_us)
        {
            best = Some((plan, s));
        }
    }
    best.expect("at least one rep")
}

/// Measure one `rows`-row table generated with `seed`.
pub fn measure(rows: usize, seed: u64) -> Row {
    let table = lineitem(rows, 1.0, seed);
    let w = workload(&table);
    let (sampled, s) = first_plan(&table, &w, Stats::default());
    let (exact, e) = first_plan(&table, &w, Stats::Exact);
    let mut exec_secs = [f64::INFINITY; 2];
    let mut ratios: Vec<f64> = (0..EXEC_SESSIONS)
        .map(|_| {
            let mut session = Session::builder()
                .table("lineitem", table.clone())
                .mode(ExecutionMode::ClientSide)
                .build()
                .expect("fresh session");
            let times = time_plans_interleaved(&[&sampled, &exact], &w, &mut session, 15);
            exec_secs = [exec_secs[0].min(times[0]), exec_secs[1].min(times[1])];
            times[0] / times[1]
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    Row {
        seed,
        stats_us: [s.stats_create_us, e.stats_create_us],
        stats_created: [s.stats_created, e.stats_created],
        exec_secs,
        exec_ratio: ratios[EXEC_SESSIONS / 2],
        same_plan: sampled.render(&w.column_names) == exact.render(&w.column_names),
    }
}

/// Run the experiment at 2.5× the base scale (300,000 rows by default,
/// where the default rule samples 15,000) over three seeds.
pub fn run(scale: &Scale) -> (Report, Vec<Row>) {
    let rows_n = scale.base_rows * 5 / 2;
    let rows: Vec<Row> = [11, 12, 13].iter().map(|&s| measure(rows_n, s)).collect();
    let mut report = Report::new(format!(
        "First contact — statistics of a fresh session's first plan ({rows_n} rows, zipf 1)"
    ));
    report.line(format!(
        "{:<5} {:>12} {:>12} {:>7} {:>9} {:>13} {:>7}  same plan",
        "seed", "sample (µs)", "exact (µs)", "ratio", "exec s/e", "exec (ms)", "stats"
    ));
    for r in &rows {
        report.line(format!(
            "{:<5} {:>12} {:>12} {:>6.1}× {:>9.3} {:>6.2},{:>6.2} {:>3}/{:<3}  {}",
            r.seed,
            r.stats_us[0],
            r.stats_us[1],
            r.stats_ratio(),
            r.exec_ratio,
            r.exec_secs[0] * 1e3,
            r.exec_secs[1] * 1e3,
            r.stats_created[0],
            r.stats_created[1],
            r.same_plan
        ));
    }
    (report, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A regression floor, not the target: at 300,000 rows the served
    /// sample must keep costing at most a fifth of the exact statistics,
    /// and the plan it chooses must execute within 10% of the exact
    /// plan. ROADMAP item 12 sets the target at 20× cheaper; it is not
    /// met (6.6–11.9× over the recorded runs on a shared 2-core box), and
    /// this test does not check it.
    ///
    /// The default rule samples 15,000 rows here, one in twenty, and an
    /// estimate hashes its sampled rows about as fast per row as an exact
    /// count hashes the table's; the draw adds one pass over the row ids,
    /// and the sampled search estimates each pair's singles as well. So
    /// the ratio sits below twenty by construction until the draw and the
    /// estimate get cheaper (ROADMAP 12 (a), (b)).
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing-sensitive shape test; run with `cargo test --release`"
    )]
    fn first_contact_statistics_stay_above_their_regression_floor() {
        let _guard = crate::harness::timing_lock();
        let rows: Vec<Row> = [11, 12, 13].iter().map(|&s| measure(300_000, s)).collect();
        for r in &rows {
            assert!(
                r.stats_ratio() >= 5.0,
                "seed {}: statistics {:?} µs (default, exact)",
                r.seed,
                r.stats_us
            );
            assert!(
                r.exec_ratio <= 1.10,
                "seed {}: plan execution ratio {:.3}, fastest {:?} s (default, exact)",
                r.seed,
                r.exec_ratio,
                r.exec_secs
            );
        }
    }
}
