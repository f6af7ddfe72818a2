//! Set-up: seeded data, the session `gbmqo serve` would build, the server.

use crate::script::{mix, Kind, Scale, Script, CLIENTS};
use gbmqo_core::prelude::*;
use gbmqo_datagen::{lineitem, star};
use gbmqo_server::{Client, ClientOptions, Server, ServerConfig, ServerHandle, ServerResult};
use gbmqo_storage::Table;
use std::time::Instant;

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Data {
    /// The table the server starts with.
    pub base: Table,
    /// The append pool (`ingest_refresh` only).
    pub deltas: Vec<Table>,
}

impl Data {
    /// Generate `kind`'s inputs; the data-generator seed derives from
    /// `seed`, so a run is a function of its seed alone.
    pub fn generate(kind: Kind, seed: u64, scale: Scale) -> Data {
        let rows = scale.rows(kind);
        let data_seed = mix(seed, 0xda7a, kind as u64);
        match kind {
            // Zipf-1 skew: grouping-set cardinalities far below the row
            // count, the regime where merging sub-plans pays.
            Kind::ColdMqo => Data {
                base: lineitem(rows, 1.0, data_seed),
                deltas: Vec::new(),
            },
            // Uniform: pair groupings reach about one group per row.
            Kind::ShardedWideResult => Data {
                base: lineitem(rows, 0.0, data_seed),
                deltas: Vec::new(),
            },
            Kind::WarmDashboard => Data {
                base: star(rows, data_seed).sales,
                deltas: Vec::new(),
            },
            Kind::IngestRefresh => {
                // The appended rows are the tail of one larger fact table,
                // so they share the base rows' key domains.
                let append = scale.append_rows();
                let all = star(rows + Script::DELTA_POOL * append, data_seed).sales;
                let slice = |start, len| all.slice_rows(start, len).expect("slice within table");
                Data {
                    base: slice(0, rows),
                    deltas: (0..Script::DELTA_POOL)
                        .map(|i| slice(rows + i * append, append))
                        .collect(),
                }
            }
        }
    }
}

/// The session `crates/cli/src/serve.rs` builds — pruned search, a
/// 64-entry plan cache, the default (exact-cardinality) cost model and
/// execution mode — varying only what `gbmqo serve` exposes as flags:
/// the aggregate-cache budget, the shard count and the refresh policy.
pub fn build_session(kind: Kind, base: &Table) -> Session {
    Session::builder()
        .search(SearchConfig::pruned())
        .plan_cache(64)
        .mat_cache_budget_bytes(kind.cache_mb() << 20)
        .shards(kind.shards())
        .refresh_policy(RefreshPolicy::Lazy)
        .max_delta_fraction(DEFAULT_MAX_DELTA_FRACTION)
        .table(kind.table(), base.clone())
        .build()
        .expect("benchmark session builds")
}

/// `ServerConfig::default()` — batching off — with one worker per core.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: CLIENTS,
        ..ServerConfig::default()
    }
}

/// Connect one client the way `kind`'s clients connect.
pub fn connect(kind: Kind, addr: std::net::SocketAddr) -> ServerResult<Client> {
    Client::connect_with(
        addr,
        ClientOptions {
            compress: kind.compress(),
        },
    )
}

/// A bound server with its generated inputs.
pub struct Bench {
    /// The script the clients walk.
    pub script: Script,
    /// The generated inputs.
    pub data: Data,
    /// The running server.
    pub server: ServerHandle,
    /// Seconds from the first generated row to a listening server.
    pub build_s: f64,
}

impl Bench {
    /// Generate the data, build the session (sharding included) and bind
    /// the server on a loopback port the kernel picks.
    pub fn start(script: Script) -> Bench {
        let started = Instant::now();
        let data = Data::generate(script.kind, script.seed, script.scale);
        let session = build_session(script.kind, &data.base);
        let server =
            Server::bind("127.0.0.1:0", session, server_config()).expect("bind a loopback port");
        Bench {
            script,
            data,
            server,
            build_s: started.elapsed().as_secs_f64(),
        }
    }

    /// Drain and stop the server, joining its threads; the inputs
    /// outlive it for the checks and the replay.
    pub fn shutdown(self) -> Data {
        self.server.shutdown();
        self.data
    }
}

/// Confine this thread, and every thread spawned after the call, to one
/// CPU: the highest-numbered one the process may use. Returns that CPU, or
/// `None` where the calls are unavailable or refused (the run then goes on
/// unpinned).
///
/// The box has two cores of a shared host, and a run has five busy threads
/// (two clients, two workers, the reactor). Left to the scheduler, a run
/// settles into one of a few thread placements and keeps it: the same seed
/// then reads 123, 131 or 140 requests/s from run to run. On one CPU there
/// is one placement, and only one core the host's other tenants can disturb.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // The package has no `libc` crate to take these from.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // 1024 CPUs, the size of glibc's `cpu_set_t`.
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is `bytes` long and outlives the call.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut only = [0u64; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is `bytes` long and outlives the call.
    (unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } == 0).then_some(cpu)
}

/// Pinning is Linux-only; elsewhere the run goes on unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
