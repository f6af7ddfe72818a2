//! Execution metrics collected by operators and the engine.

use std::fmt::Write;
use std::ops::AddAssign;
use std::time::Duration;

/// Declares [`ExecMetrics`] from one table of `name: Sum | Max` counters
/// and their docs. The struct, [`ExecMetrics::fields`] (hence the JSON),
/// [`ExecMetrics::from_json`] and `+=` all derive from that table, in its
/// order: a `Sum` counter adds under `+=`, a `Max` counter is a gauge and
/// keeps the larger side.
macro_rules! exec_metrics {
    (@merge Sum, $a:expr, $b:expr) => {
        $a + $b
    };
    (@merge Max, $a:expr, $b:expr) => {
        $a.max($b)
    };
    ($($(#[doc = $doc:literal])* $name:ident: $merge:ident,)*) => {
        /// Counters describing the work one or more operators performed.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ExecMetrics {
            $($(#[doc = $doc])* pub $name: u64,)*
        }

        impl ExecMetrics {
            /// Number of counters.
            pub const COUNTERS: usize = [$(stringify!($name)),*].len();

            /// Every counter as `(name, value)` pairs, in declaration order.
            /// The single source of truth for machine-readable output: both
            /// [`ExecMetrics::to_json`] and the server's Stats response are
            /// built from this list, so the two stay field-for-field identical.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name)),*]
            }

            /// Set the counter called `key`; unknown keys are ignored.
            fn set(&mut self, key: &str, value: u64) {
                match key {
                    $(stringify!($name) => self.$name = value,)*
                    _ => {}
                }
            }
        }

        impl AddAssign for ExecMetrics {
            fn add_assign(&mut self, rhs: Self) {
                $(self.$name = exec_metrics!(@merge $merge, self.$name, rhs.$name);)*
            }
        }
    };
}

exec_metrics! {
    /// Input rows read by scans.
    rows_scanned: Sum,
    /// Rows produced.
    rows_output: Sum,
    /// Approximate bytes read. This aggregates heterogeneous layers
    /// (key-column bytes in operators, full-width bytes under row-store
    /// emulation), so treat it as an order-of-magnitude indicator rather
    /// than an exact byte count.
    bytes_scanned: Sum,
    /// Queries (operator pipelines) executed.
    queries_executed: Sum,
    /// Intermediate tables materialized.
    tables_materialized: Sum,
    /// Wall time spent in operators, nanoseconds.
    elapsed_nanos: Sum,
    /// Radix partitions aggregated by the partitioned group-by kernel
    /// (cumulative across kernel invocations; 0 when only scalar paths ran).
    radix_partitions: Sum,
    /// Rows whose group key took the packed `u64`/`u128` fast path.
    packed_key_rows: Sum,
    /// Rows whose group key fell back to the byte `RowKey` encoding
    /// (wide, too-many-distinct or `Float64` group columns).
    fallback_key_rows: Sum,
    /// Group hash-table growths (rehash + move) observed by kernels.
    hash_resizes: Sum,
    /// Workload requests answered from the materialized aggregate
    /// cache (a covering superset already held, no base-table scan).
    matcache_hits: Sum,
    /// Bytes currently resident in the materialized aggregate cache
    /// (a gauge snapshot, not cumulative — `+=` keeps the larger side).
    matcache_bytes: Max,
    /// Cached aggregates evicted to stay under the cache byte budget.
    matcache_evictions: Sum,
    /// Estimated base-table rows whose scan was avoided by cache hits.
    matcache_rows_saved: Sum,
    /// Shards the executed plan fanned out across (a gauge: `+=` keeps
    /// the larger side; 0 when the base table is unsharded).
    shards: Max,
    /// Base rows read through per-shard scans (summed across shards).
    shard_rows: Sum,
    /// Rows fed through final cross-shard re-aggregation merges. Stays 0
    /// for merge-elided deliveries (grouping covers the shard key) and
    /// for concatenation-only merges.
    merge_rows: Sum,
    /// Shard skew: largest shard's row share as a percentage of the
    /// mean shard size (100 = perfectly even; a gauge, `+=` keeps max).
    shard_skew: Max,
    /// Appended rows aggregated through delta scans (ingest pipeline): a
    /// refresh reads the rows appended to a table, or to one of its
    /// shards, as a selection of the table.
    delta_rows: Sum,
    /// Stale cached aggregates brought current by merging a delta
    /// aggregate instead of recomputing from the base table.
    delta_refreshes: Sum,
    /// Stale cached aggregates dropped instead of refreshed (delta chain
    /// compacted away, chain too large a fraction of the base, or the
    /// refresh policy disabled).
    delta_fallbacks: Sum,
    /// Base rows a delta refresh did *not* rescan: the rows already
    /// summarized by the stale entry (base size minus delta size).
    refresh_rows_saved: Sum,
    /// Appends whose delta pushed shard skew past the resharding
    /// threshold — the signal that `Session::reshard` is worth calling.
    reshard_hints: Sum,
    /// Plan nodes whose estimated and observed group counts were both
    /// available, i.e. nodes contributing to the q-error fields below.
    qerror_nodes: Sum,
    /// Sum of per-node q-errors ×100 (q-error = max(est/obs, obs/est),
    /// so 100 per node means exact). Divide by `qerror_nodes` for the
    /// mean q-error of the run.
    qerror_sum_x100: Sum,
    /// Worst per-node q-error ×100 seen (a gauge: `+=` keeps max).
    qerror_max_x100: Max,
    /// Per-plan-node group counts recorded to correct sampled
    /// statistics (0 under exact statistics, which need no correcting).
    feedback_observations: Sum,
    /// Cached plans invalidated for re-optimization because observed
    /// group counts shifted their cost past the re-plan threshold.
    plan_reopts: Sum,
}

impl ExecMetrics {
    /// Zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Elapsed wall time as a [`Duration`].
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.elapsed_nanos)
    }

    /// Record elapsed time.
    pub fn add_elapsed(&mut self, d: Duration) {
        self.elapsed_nanos += d.as_nanos() as u64;
    }

    /// Scanned rows per second of operator wall time (0 if no time was
    /// recorded). A kernel-level throughput figure for profiling output.
    pub fn rows_per_sec(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            0.0
        } else {
            self.rows_scanned as f64 / (self.elapsed_nanos as f64 / 1e9)
        }
    }

    /// One flat JSON object of all counters (no trailing newline).
    /// All values are unsigned integers, so no escaping is needed.
    pub fn to_json(&self) -> String {
        let mut json = String::with_capacity(32 * Self::COUNTERS);
        json.push('{');
        for (i, (k, v)) in self.fields().into_iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            write!(json, "\"{k}\":{v}").expect("writing to a String cannot fail");
        }
        json.push('}');
        json
    }

    /// Parse a JSON object produced by [`ExecMetrics::to_json`] (or any
    /// superset object — unknown keys are ignored). Used by the wire
    /// protocol's Stats decoding so client and server share one format.
    pub fn from_json(json: &str) -> Option<Self> {
        let inner = json.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut m = ExecMetrics::new();
        for pair in inner.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair.split_once(':')?;
            let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
            m.set(key, value.trim().parse().ok()?);
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = ExecMetrics {
            rows_scanned: 10,
            rows_output: 2,
            bytes_scanned: 80,
            queries_executed: 1,
            tables_materialized: 1,
            elapsed_nanos: 100,
            radix_partitions: 4,
            packed_key_rows: 8,
            fallback_key_rows: 2,
            hash_resizes: 1,
            matcache_hits: 1,
            matcache_bytes: 100,
            matcache_evictions: 1,
            matcache_rows_saved: 50,
            shards: 4,
            shard_rows: 40,
            merge_rows: 10,
            shard_skew: 110,
            delta_rows: 20,
            delta_refreshes: 2,
            delta_fallbacks: 1,
            refresh_rows_saved: 200,
            reshard_hints: 1,
            qerror_nodes: 3,
            qerror_sum_x100: 450,
            qerror_max_x100: 220,
            feedback_observations: 3,
            plan_reopts: 1,
        };
        let b = ExecMetrics {
            rows_scanned: 5,
            rows_output: 1,
            bytes_scanned: 40,
            queries_executed: 1,
            tables_materialized: 0,
            elapsed_nanos: 50,
            radix_partitions: 2,
            packed_key_rows: 5,
            fallback_key_rows: 0,
            hash_resizes: 3,
            matcache_hits: 2,
            matcache_bytes: 60,
            matcache_evictions: 0,
            matcache_rows_saved: 25,
            shards: 2,
            shard_rows: 15,
            merge_rows: 5,
            shard_skew: 130,
            delta_rows: 5,
            delta_refreshes: 1,
            delta_fallbacks: 2,
            refresh_rows_saved: 100,
            reshard_hints: 0,
            qerror_nodes: 2,
            qerror_sum_x100: 210,
            qerror_max_x100: 110,
            feedback_observations: 2,
            plan_reopts: 0,
        };
        a += b;
        assert_eq!(a.rows_scanned, 15);
        assert_eq!(a.rows_output, 3);
        assert_eq!(a.bytes_scanned, 120);
        assert_eq!(a.queries_executed, 2);
        assert_eq!(a.tables_materialized, 1);
        assert_eq!(a.elapsed(), Duration::from_nanos(150));
        assert_eq!(a.radix_partitions, 6);
        assert_eq!(a.packed_key_rows, 13);
        assert_eq!(a.fallback_key_rows, 2);
        assert_eq!(a.hash_resizes, 4);
        assert_eq!(a.matcache_hits, 3);
        assert_eq!(a.matcache_bytes, 100, "bytes is a gauge: max, not sum");
        assert_eq!(a.matcache_evictions, 1);
        assert_eq!(a.matcache_rows_saved, 75);
        assert_eq!(a.shards, 4, "shards is a gauge: max, not sum");
        assert_eq!(a.shard_rows, 55);
        assert_eq!(a.merge_rows, 15);
        assert_eq!(a.shard_skew, 130, "skew is a gauge: max, not sum");
        assert_eq!(a.delta_rows, 25);
        assert_eq!(a.delta_refreshes, 3);
        assert_eq!(a.delta_fallbacks, 3);
        assert_eq!(a.refresh_rows_saved, 300);
        assert_eq!(a.reshard_hints, 1);
        assert_eq!(a.qerror_nodes, 5);
        assert_eq!(a.qerror_sum_x100, 660);
        assert_eq!(a.qerror_max_x100, 220, "worst q-error is a gauge: max");
        assert_eq!(a.feedback_observations, 5);
        assert_eq!(a.plan_reopts, 1);
    }

    #[test]
    fn rows_per_sec() {
        let mut m = ExecMetrics::new();
        assert_eq!(m.rows_per_sec(), 0.0);
        m.rows_scanned = 1_000;
        m.elapsed_nanos = 500_000_000; // 0.5 s
        assert!((m.rows_per_sec() - 2_000.0).abs() < 1e-6);
    }

    #[test]
    fn json_roundtrip_covers_every_field() {
        let m = ExecMetrics {
            rows_scanned: 1,
            rows_output: 2,
            bytes_scanned: 3,
            queries_executed: 4,
            tables_materialized: 5,
            elapsed_nanos: 6,
            radix_partitions: 7,
            packed_key_rows: 8,
            fallback_key_rows: 9,
            hash_resizes: 10,
            matcache_hits: 11,
            matcache_bytes: 12,
            matcache_evictions: 13,
            matcache_rows_saved: 14,
            shards: 15,
            shard_rows: 16,
            merge_rows: 17,
            shard_skew: 18,
            delta_rows: 19,
            delta_refreshes: 20,
            delta_fallbacks: 21,
            refresh_rows_saved: 22,
            reshard_hints: 23,
            qerror_nodes: 24,
            qerror_sum_x100: 25,
            qerror_max_x100: 26,
            feedback_observations: 27,
            plan_reopts: 28,
        };
        let json = m.to_json();
        let joined: Vec<String> = m
            .fields()
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        assert_eq!(json, format!("{{{}}}", joined.join(",")));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"radix_partitions\":7"));
        // fields() enumerates every counter exactly once
        assert_eq!(m.fields().len(), ExecMetrics::COUNTERS);
        assert!(json.contains("\"qerror_max_x100\":26"));
        assert!(json.contains("\"delta_refreshes\":20"));
        assert!(json.contains("\"shard_rows\":16"));
        assert!(json.contains("\"matcache_hits\":11"));
        let back = ExecMetrics::from_json(&json).unwrap();
        assert_eq!(back, m);
        // unknown keys are tolerated, garbage is not
        assert!(ExecMetrics::from_json("{\"rows_scanned\":1,\"new_counter\":9}").is_some());
        assert!(ExecMetrics::from_json("not json").is_none());
    }

    #[test]
    fn add_elapsed() {
        let mut m = ExecMetrics::new();
        m.add_elapsed(Duration::from_micros(3));
        m.add_elapsed(Duration::from_micros(2));
        assert_eq!(m.elapsed(), Duration::from_micros(5));
    }
}
