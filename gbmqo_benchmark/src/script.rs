//! The four workloads and their seeded request scripts.
//!
//! A script is a pure function of `(workload, seed, scale)`: client `c`'s
//! `i`-th request is [`Script::op`]`(c, i)`, so the measured window (which
//! ends on a clock) and the traced replay (which ends on a count) walk the
//! same sequence, and two processes given the same seed send byte-identical
//! frames. The server only ever sees the generated requests.
//!
//! Why these four — each stresses layers the others bypass:
//!
//! * `cold_mqo`: every request is a new set of grouping sets with the
//!   aggregate cache off, so the merge search, its cost-model calls and
//!   the executor do the work; SQL, caches, shards and compression do none.
//! * `warm_dashboard`: a fixed rotation of SQL statements whose plans and
//!   results fit both caches, so a request is SQL compile + cache cover +
//!   the server's framing, locking and socket work; search and kernels idle.
//! * `ingest_refresh`: the same statements with appends beside the reads,
//!   so the catalog append, the delta log and the cache's *refresh* path
//!   (not its hit path) carry the cost.
//! * `sharded_wide_result`: one-set queries with wide results over a
//!   sharded table, cache bypassed, LZ4 on — shard fan-out and merge, the
//!   high-cardinality kernel, the columnar codec, compression and credit
//!   backpressure dominate; the search is trivial.

use gbmqo_core::CacheControl;
use gbmqo_exec::AggSpec;
use gbmqo_server::protocol::{encode_request, Request};
use gbmqo_storage::Table;

/// Client connections (= client threads). The box has two cores and
/// callers wait for replies, so the load is a closed loop of two clients
/// with one request in flight each.
pub const CLIENTS: usize = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Distinct multi-set workloads, caches off: the paper's core path.
    ColdMqo,
    /// Rotating SQL statements answered from warm caches.
    WarmDashboard,
    /// The dashboard statements with appends beside the reads.
    IngestRefresh,
    /// Wide one-set results over a sharded table, compressed.
    ShardedWideResult,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::ColdMqo,
        Kind::WarmDashboard,
        Kind::IngestRefresh,
        Kind::ShardedWideResult,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdMqo => "cold_mqo",
            Kind::WarmDashboard => "warm_dashboard",
            Kind::IngestRefresh => "ingest_refresh",
            Kind::ShardedWideResult => "sharded_wide_result",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Catalog name of the table the workload queries.
    pub fn table(self) -> &'static str {
        match self {
            Kind::ColdMqo | Kind::ShardedWideResult => "lineitem",
            Kind::WarmDashboard | Kind::IngestRefresh => "sales",
        }
    }

    /// Whether the clients negotiate LZ4 frame compression.
    pub fn compress(self) -> bool {
        self == Kind::ShardedWideResult
    }

    /// The server's aggregate-cache budget in MiB (`--cache-budget-mb`).
    pub fn cache_mb(self) -> usize {
        match self {
            Kind::WarmDashboard | Kind::IngestRefresh => 32,
            Kind::ColdMqo | Kind::ShardedWideResult => 0,
        }
    }

    /// The server's shard count (`--shards`; 0 = unsharded).
    pub fn shards(self) -> u32 {
        match self {
            Kind::ShardedWideResult => 4,
            _ => 0,
        }
    }
}

/// Row and request counts. `smoke` is a CI-only scale that finishes the
/// whole suite in seconds; its numbers are not comparable with anything.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// True for the CI-only scale.
    pub smoke: bool,
}

impl Scale {
    /// Base-table rows of `kind`.
    pub fn rows(self, kind: Kind) -> usize {
        let full = match kind {
            Kind::ColdMqo => 20_000,
            Kind::WarmDashboard | Kind::IngestRefresh => 300_000,
            Kind::ShardedWideResult => 100_000,
        };
        if self.smoke {
            full / 10
        } else {
            full
        }
    }

    /// Rows per `Append`.
    pub fn append_rows(self) -> usize {
        if self.smoke {
            100
        } else {
            1_000
        }
    }

    /// Requests each client sends before the measured window.
    pub fn warmup_ops(self, kind: Kind) -> u64 {
        match kind {
            Kind::ColdMqo => 4,
            // Twice round the rotation: the first pass fills the plan and
            // aggregate caches, the second confirms the hit path.
            Kind::WarmDashboard | Kind::IngestRefresh => 2 * STATEMENTS.len() as u64,
            Kind::ShardedWideResult => WIDE_PAIRS.len() as u64,
        }
    }

    /// Most requests the traced replay walks: sized so the replay and
    /// its plan/execute split fit the traced run's time share.
    pub fn replay_requests(self, kind: Kind) -> usize {
        let full = match kind {
            Kind::ColdMqo => 60,
            Kind::WarmDashboard => 400,
            Kind::IngestRefresh => 8 * (READS_PER_APPEND as usize + 1),
            Kind::ShardedWideResult => 36,
        };
        if self.smoke {
            full / 4
        } else {
            full
        }
    }
}

/// The nine `lineitem` columns `cold_mqo` draws grouping sets from: the
/// non-float columns minus the two near-unique ones, whose results would
/// make result transfer, not planning, the cost.
pub const COLD_COLUMNS: [&str; 9] = [
    "l_suppkey",
    "l_linenumber",
    "l_returnflag",
    "l_linestatus",
    "l_shipdate",
    "l_commitdate",
    "l_receiptdate",
    "l_shipinstruct",
    "l_shipmode",
];

/// `sharded_wide_result`'s rotation: pair groupings with about as many
/// groups as rows, none containing the shard key (the near-unique
/// `l_comment`), so every request fans out to all shards and merges.
pub const WIDE_PAIRS: [[&str; 2]; 6] = [
    ["l_partkey", "l_suppkey"],
    ["l_partkey", "l_shipdate"],
    ["l_suppkey", "l_shipdate"],
    ["l_partkey", "l_commitdate"],
    ["l_suppkey", "l_receiptdate"],
    ["l_partkey", "l_receiptdate"],
];

/// Reads between two appends of one `ingest_refresh` client.
pub const READS_PER_APPEND: u64 = 64;

/// A dashboard statement with the grouping sets and aggregates it must
/// compute, spelled out by hand so the correctness check does not lean on
/// the SQL front end it is checking.
#[derive(Debug)]
pub struct Statement {
    /// The statement text sent over the wire.
    pub sql: &'static str,
    /// The grouping sets it expands to.
    pub sets: &'static [&'static [&'static str]],
    /// `SUM(qty) AS units` beside `COUNT(*) AS cnt`.
    pub sum_units: bool,
}

impl Statement {
    /// The aggregates every set of the statement computes.
    pub fn aggregates(&self) -> Vec<AggSpec> {
        let mut aggs = vec![AggSpec::count()];
        if self.sum_units {
            aggs.push(AggSpec::sum("qty", "units"));
        }
        aggs
    }
}

/// The dashboard's rotation over the star schema's fact table: CUBE,
/// ROLLUP, GROUPING SETS and plain GROUP BY, results of a few to a few
/// thousand rows. Integer aggregates only, so merged partial aggregates
/// equal the reference bit for bit.
pub const STATEMENTS: [Statement; 8] = [
    Statement {
        sql: "SELECT channel, promo, COUNT(*) AS cnt FROM sales GROUP BY CUBE (channel, promo)",
        sets: &[&["channel"], &["promo"], &["channel", "promo"]],
        sum_units: false,
    },
    Statement {
        sql: "SELECT channel, promo, qty, COUNT(*) AS cnt FROM sales \
              GROUP BY ROLLUP (channel, promo, qty)",
        sets: &[
            &["channel", "promo", "qty"],
            &["channel", "promo"],
            &["channel"],
        ],
        sum_units: false,
    },
    Statement {
        sql: "SELECT store_key, channel, COUNT(*) AS cnt, SUM(qty) AS units FROM sales \
              GROUP BY GROUPING SETS ((store_key), (store_key, channel))",
        sets: &[&["store_key"], &["store_key", "channel"]],
        sum_units: true,
    },
    Statement {
        sql: "SELECT sale_date, COUNT(*) AS cnt FROM sales GROUP BY sale_date",
        sets: &[&["sale_date"]],
        sum_units: false,
    },
    Statement {
        sql: "SELECT sale_date, channel, COUNT(*) AS cnt FROM sales \
              GROUP BY GROUPING SETS ((sale_date, channel), (channel))",
        sets: &[&["sale_date", "channel"], &["channel"]],
        sum_units: false,
    },
    Statement {
        sql: "SELECT promo, qty, COUNT(*) AS cnt FROM sales GROUP BY CUBE (promo, qty)",
        sets: &[&["promo"], &["qty"], &["promo", "qty"]],
        sum_units: false,
    },
    Statement {
        sql: "SELECT promo, channel, COUNT(*) AS cnt, SUM(qty) AS units FROM sales \
              GROUP BY ROLLUP (promo, channel)",
        sets: &[&["promo", "channel"], &["promo"]],
        sum_units: true,
    },
    Statement {
        sql: "SELECT store_key, promo, COUNT(*) AS cnt FROM sales \
              GROUP BY GROUPING SETS ((store_key, promo), (promo), (store_key))",
        sets: &[&["store_key", "promo"], &["promo"], &["store_key"]],
        sum_units: false,
    },
];

/// splitmix64: the script's only randomness, so scripts repeat exactly
/// across runs and toolchains.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derive an independent stream from `seed` and two indices.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    Rng::new(seed ^ a.wrapping_mul(0xa076_1d64_78bd_642f) ^ b.wrapping_mul(0xe703_7ed1_a0b4_28db))
        .next_u64()
}

/// One scripted request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// `SubmitWorkload`: grouping sets over a universe of columns.
    Workload {
        /// Union of the sets' columns, in table order.
        universe: Vec<&'static str>,
        /// The requested grouping sets.
        sets: Vec<Vec<&'static str>>,
    },
    /// `SqlQuery`: statement `STATEMENTS[i]`.
    Sql(usize),
    /// `Query`: one grouping set, `WIDE_PAIRS[i]`.
    Query(usize),
    /// `Append`: delta `i` of the pre-generated pool.
    Append(usize),
}

impl Op {
    /// True for the write request.
    pub fn is_append(&self) -> bool {
        matches!(self, Op::Append(_))
    }

    /// How many grouping sets a read asks for (0 for an append).
    pub fn set_count(&self) -> usize {
        match self {
            Op::Workload { sets, .. } => sets.len(),
            Op::Sql(i) => STATEMENTS[*i].sets.len(),
            Op::Query(_) => 1,
            Op::Append(_) => 0,
        }
    }

    /// The grouping sets a read asks for (empty for an append).
    pub fn sets(&self) -> Vec<Vec<&'static str>> {
        match self {
            Op::Workload { sets, .. } => sets.clone(),
            Op::Sql(i) => STATEMENTS[*i].sets.iter().map(|s| s.to_vec()).collect(),
            Op::Query(i) => vec![WIDE_PAIRS[*i].to_vec()],
            Op::Append(_) => Vec::new(),
        }
    }
}

/// A workload's request generator.
#[derive(Debug, Clone, Copy)]
pub struct Script {
    /// Which workload.
    pub kind: Kind,
    /// The `--seed` the script (and the data) derive from.
    pub seed: u64,
    /// Row and request counts.
    pub scale: Scale,
}

impl Script {
    /// Appends in the delta pool; clients cycle through it.
    pub const DELTA_POOL: usize = 16;

    /// Client `client`'s `index`-th request, warm-up included: indices
    /// below [`Scale::warmup_ops`] are the warm-up.
    pub fn op(&self, client: usize, index: u64) -> Op {
        match self.kind {
            Kind::ColdMqo => self.cold_op(client, index),
            Kind::WarmDashboard => Op::Sql(self.pick(STATEMENTS.len(), client, index)),
            Kind::ShardedWideResult => Op::Query(self.pick(WIDE_PAIRS.len(), client, index)),
            Kind::IngestRefresh => {
                let cycle = READS_PER_APPEND + 1;
                let measured = index.checked_sub(self.scale.warmup_ops(self.kind));
                match measured {
                    Some(i) if i % cycle == 0 => {
                        Op::Append(((i / cycle) as usize * CLIENTS + client) % Self::DELTA_POOL)
                    }
                    _ => Op::Sql(self.pick(STATEMENTS.len(), client, index)),
                }
            }
        }
    }

    /// Which of a rotation's `len` requests client `client` sends at
    /// `index`. The warm-up walks the rotation in order, so it covers every
    /// request; after it each request is drawn independently. A fixed
    /// cycle per client lets the two closed loops lock into a phase that
    /// depends on the seed — throughput then differed by 14% between seeds.
    fn pick(&self, len: usize, client: usize, index: u64) -> usize {
        if index < self.scale.warmup_ops(self.kind) {
            (index as usize + client * (len / 2)) % len
        } else {
            Rng::new(mix(self.seed, client as u64, index)).below(len as u64) as usize
        }
    }

    /// A `cold_mqo` request: 4–8 distinct single or pair grouping sets
    /// over [`COLD_COLUMNS`]. Every block of five consecutive requests has
    /// one request of each size in a seeded order: every seed sends the
    /// same mix of request sizes, and no fixed cycle for the two closed
    /// loops to lock phase on.
    fn cold_op(&self, client: usize, index: u64) -> Op {
        let mut sizes = [4usize, 5, 6, 7, 8];
        let mut block = Rng::new(mix(self.seed, client as u64 + 0x10, index / 5));
        for i in (1..sizes.len()).rev() {
            sizes.swap(i, block.below(i as u64 + 1) as usize);
        }
        let count = sizes[(index % 5) as usize];
        let mut rng = Rng::new(mix(self.seed, client as u64, index));
        let mut picked: Vec<u16> = Vec::with_capacity(count);
        while picked.len() < count {
            let a = rng.below(COLD_COLUMNS.len() as u64) as u16;
            let mut mask = 1u16 << a;
            if rng.below(2) == 1 {
                let b = rng.below(COLD_COLUMNS.len() as u64 - 1) as u16;
                mask |= 1 << (if b >= a { b + 1 } else { b });
            }
            if !picked.contains(&mask) {
                picked.push(mask);
            }
        }
        let cols_of = |mask: u16| -> Vec<&'static str> {
            (0..COLD_COLUMNS.len())
                .filter(|c| mask & (1 << c) != 0)
                .map(|c| COLD_COLUMNS[c])
                .collect()
        };
        Op::Workload {
            universe: cols_of(picked.iter().fold(0, |u, m| u | m)),
            sets: picked.into_iter().map(cols_of).collect(),
        }
    }

    /// The wire request for `op`; `deltas` is the append pool.
    pub fn request(&self, op: &Op, deltas: &[Table]) -> Request {
        let table = self.kind.table().to_string();
        let strings = |cols: &[&str]| cols.iter().map(|c| c.to_string()).collect::<Vec<_>>();
        match op {
            Op::Workload { universe, sets } => Request::SubmitWorkload {
                table,
                universe: strings(universe),
                requests: sets.iter().map(|s| strings(s)).collect(),
                deadline_ms: 0,
                cache: CacheControl::Default,
            },
            Op::Sql(i) => Request::SqlQuery {
                sql: STATEMENTS[*i].sql.to_string(),
                deadline_ms: 0,
                cache: CacheControl::Default,
            },
            Op::Query(i) => Request::Query {
                table,
                group_cols: strings(&WIDE_PAIRS[*i]),
                deadline_ms: 0,
                cache: CacheControl::Bypass,
            },
            Op::Append(i) => Request::Append {
                name: table,
                rows: deltas[*i].clone(),
            },
        }
    }

    /// The script as the bytes it puts on the wire: the first `per_client`
    /// request frames of every client, warm-up included.
    pub fn bytes(&self, deltas: &[Table], per_client: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for client in 0..CLIENTS {
            for index in 0..per_client {
                let op = self.op(client, index);
                out.extend(encode_request(index + 1, &self.request(&op, deltas), 0));
            }
        }
        out
    }

    /// FNV-1a of [`Script::bytes`], printed with every run so two reports
    /// can be told to have measured the same requests.
    pub fn hash(&self, deltas: &[Table]) -> u64 {
        let per_client = self.scale.warmup_ops(self.kind) + 64;
        self.bytes(deltas, per_client)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }
}
