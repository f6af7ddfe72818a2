//! Shared infrastructure for the experiment suite.

use gbmqo_core::prelude::*;
use gbmqo_storage::Table;
use std::fmt::Write as _;
use std::time::Instant;

/// Serializes timing-sensitive tests: wall-clock assertions are
/// meaningless when several experiments share the CPU, so every
/// shape test takes this lock for its duration.
pub fn timing_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Scale knobs for the experiment suite.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows standing in for the paper's "1 GB" datasets.
    pub base_rows: usize,
    /// Rows standing in for the paper's "10 GB" dataset
    /// (a fixed multiple of `base_rows`).
    pub big_rows: usize,
}

impl Scale {
    /// The default experiment scale; `GBMQO_ROWS` overrides `base_rows`.
    pub fn from_env() -> Self {
        let base_rows = std::env::var("GBMQO_ROWS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(120_000);
        Scale {
            base_rows,
            big_rows: base_rows * 4,
        }
    }

    /// A small scale for the release shape tests.
    pub fn small() -> Self {
        Scale {
            base_rows: 20_000,
            big_rows: 60_000,
        }
    }
}

/// A rendered experiment report: a title plus preformatted lines, so the
/// `experiments` binary and EXPERIMENTS.md generation share one source.
#[derive(Debug, Clone)]
pub struct Report {
    /// e.g. "Table 2 — Speedup over GROUPING SETS".
    pub title: String,
    /// Preformatted lines.
    pub lines: Vec<String>,
}

impl Report {
    /// Create an empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            lines: Vec::new(),
        }
    }

    /// Append a formatted line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Render with the title as a header.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let _ = writeln!(out);
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        out
    }
}

/// A serial [`Session`] over `table`, registered as `name`, with
/// row-store scan emulation enabled — the experiment suite reproduces the
/// paper's disk-based row-store environment (see `gbmqo_exec::rowstore`),
/// and the session's cost model prices the I/O it emulates. The session
/// is pinned to `ClientSide` mode: the paper's numbers are for sequential
/// execution, so the timing helpers below must stay serial. Each
/// experiment sets its search configuration, and its cost model where it
/// is not the served one, then builds.
pub fn session_for(table: &Table, name: &str) -> SessionBuilder {
    Session::builder()
        .table(name, table.clone())
        .mode(ExecutionMode::ClientSide)
        .io_ns_per_byte(IO_NS_PER_BYTE)
}

/// Simulated disk transfer cost: 4 ns/byte ≈ a 250 MB/s scan — a mild
/// stand-in for the paper's 2005 disk subsystem that still makes scans,
/// not hashing, the dominant per-query cost (as in the paper).
pub const IO_NS_PER_BYTE: f64 = 4.0;

/// Wall-clock seconds to execute `plan` through the serial §5.2
/// client-side driver (a [`session_for`] session is pinned to
/// `ClientSide` mode): the minimum of `reps` runs — the standard
/// noise-robust statistic for CPU-bound benchmarks.
pub fn time_plan(
    plan: &LogicalPlan,
    workload: &Workload,
    session: &mut Session,
    reps: usize,
) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            let report = session.run_plan(plan, workload).expect("plan executes");
            std::hint::black_box(&report);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time several plans for the same workload with interleaved rounds
/// (A,B,…,A,B,… rather than A,A,…,B,B,…), so machine-load drift affects
/// all plans equally. Returns the per-plan minimum seconds.
pub fn time_plans_interleaved(
    plans: &[&LogicalPlan],
    workload: &Workload,
    session: &mut Session,
    rounds: usize,
) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; plans.len()];
    // one unrecorded warm-up of the first plan
    if let Some(p) = plans.first() {
        let _ = time_plan(p, workload, session, 1);
    }
    for _ in 0..rounds.max(1) {
        for (i, p) in plans.iter().enumerate() {
            best[i] = best[i].min(time_plan(p, workload, session, 1));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbmqo_datagen::lineitem;

    #[test]
    fn report_renders() {
        let mut r = Report::new("Table X");
        r.line("a | b");
        let s = r.render();
        assert!(s.starts_with("## Table X"));
        assert!(s.contains("a | b"));
    }

    #[test]
    fn scale_from_env_defaults() {
        let s = Scale::small();
        assert!(s.big_rows > s.base_rows);
    }

    #[test]
    fn timing_and_models_work_end_to_end() {
        let t = lineitem(2_000, 0.0, 1);
        let w = Workload::single_columns("lineitem", &t, &["l_returnflag", "l_shipmode"]).unwrap();
        let mut session = session_for(&t, "lineitem")
            .search(SearchConfig::pruned())
            .build()
            .unwrap();
        let (plan, stats) = session.plan(&w).unwrap();
        assert!(stats.naive_cost > 0.0);
        let secs = time_plan(&plan, &w, &mut session, 3);
        assert!(secs > 0.0);
    }

    /// An append costs its delta, not the table: 1,000-row appends onto
    /// a 50k-row and onto an 800k-row fact table take about the same
    /// time each. A whole-table copy per append reads ≈ 16× here.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing-sensitive shape test; run with `cargo test --release`"
    )]
    fn append_cost_does_not_grow_with_the_table() {
        let _guard = timing_lock();
        // generated apart from the fact table, as a wire `Append`
        // arrives: same strings, dictionaries of its own
        let delta = gbmqo_datagen::star(1_000, 8).sales;
        let mut sessions = [50_000, 800_000].map(|rows| {
            let sales = gbmqo_datagen::star(rows, 7).sales;
            session_for(&sales, "sales").build().unwrap()
        });
        // One append on each table per round, so load that comes and goes
        // during the run lands on both sides alike.
        let mut secs = [vec![], vec![]];
        for _ in 0..50 {
            for (session, secs) in sessions.iter_mut().zip(&mut secs) {
                let rows = delta.clone();
                let start = Instant::now();
                session.append("sales", rows).unwrap();
                secs.push(start.elapsed().as_secs_f64());
            }
        }
        let [small, big] = secs.map(|mut secs| {
            secs.sort_by(f64::total_cmp);
            secs[secs.len() / 2]
        });
        assert!(
            big < small * 4.0,
            "append onto 800k rows {big:.6}s vs onto 50k rows {small:.6}s"
        );
    }
}
