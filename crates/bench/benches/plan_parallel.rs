//! Dependency-parallel plan execution vs the serial §5.2 driver, plus
//! the Session plan cache on repeated workloads.
//!
//! The first group times the same logical plan (≥4 independent edges
//! over a 150k-row lineitem) through a `ClientSide` session (one query
//! at a time) and through `Parallel` sessions (dependency waves on 2 and
//! 4 threads) — the same scheduler both times. The second group times
//! `Session::plan` with a cold cache (cleared every iteration) against a
//! warm one, where the merge search is skipped entirely.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gbmqo_bench::harness::{run_plan_serial, session_for, IO_NS_PER_BYTE};
use gbmqo_core::prelude::*;
use gbmqo_datagen::{lineitem, LINEITEM_SC_COLUMNS};

const ROWS: usize = 150_000;

fn bench_parallel_execution(c: &mut Criterion) {
    let table = lineitem(ROWS, 0.0, 21);
    let cols = &LINEITEM_SC_COLUMNS[..6.min(LINEITEM_SC_COLUMNS.len())];
    let workload = Workload::single_columns("lineitem", &table, cols).unwrap();
    // The naive plan: every requested Group By reads the base relation
    // directly, so all its edges are independent — the best case for the
    // wave scheduler and a floor for what optimized plans see.
    let plan = LogicalPlan::naive(&workload);
    assert!(
        workload.len() >= 4,
        "the bench needs at least 4 independent edges"
    );

    let mut session = session_for(table.clone(), "lineitem");
    let mut group = c.benchmark_group("plan_parallel_naive6");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("serial", |b| {
        b.iter(|| run_plan_serial(&plan, &workload, &mut session))
    });
    for threads in [2usize, 4] {
        let mut parallel = Session::builder()
            .table("lineitem", table.clone())
            .mode(ExecutionMode::Parallel)
            .parallelism(threads)
            .io_ns_per_byte(IO_NS_PER_BYTE)
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, _| {
            b.iter(|| parallel.run_plan(&plan, &workload).unwrap())
        });
    }
    group.finish();
}

fn bench_plan_cache(c: &mut Criterion) {
    let table = lineitem(ROWS, 0.0, 21);
    let cols = &LINEITEM_SC_COLUMNS[..8.min(LINEITEM_SC_COLUMNS.len())];
    let workload = Workload::single_columns("lineitem", &table, cols).unwrap();
    let mut session = Session::builder()
        .table("lineitem", table)
        .search(SearchConfig::pruned())
        .plan_cache(4)
        .build()
        .unwrap();

    let mut group = c.benchmark_group("plan_cache_repeat");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("optimize_cold", |b| {
        b.iter(|| {
            session.clear_plan_cache();
            session.plan(&workload).unwrap()
        })
    });
    group.bench_function("optimize_cached", |b| {
        b.iter(|| {
            let (plan, stats) = session.plan(&workload).unwrap();
            assert!(stats.cache_hit && stats.optimizer_calls == 0);
            plan
        })
    });
    group.finish();
}

criterion_group!(benches, bench_parallel_execution, bench_plan_cache);
criterion_main!(benches);
