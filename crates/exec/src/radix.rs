//! The hash-aggregation kernel: radix-partitioned, morsel-driven, and
//! parallel once the input is large enough to pay for it.
//!
//! The partitioned-aggregation design (Partitioned-Cube \[16\] and the
//! modern radix-partitioning literature) applied to the hot loop of
//! every GB-MQO plan edge. Two passes over an input of `2^k > 1`
//! partitions:
//!
//! 1. **Partition** — the input is split into contiguous per-worker
//!    chunks, processed in cache-sized morsels. Each morsel's group keys
//!    are encoded by the grouping's `KeyRepr` (packed `u64`/`u128`
//!    codes when [`PackedKeySpec`] applies, byte [`RowKey`]s otherwise)
//!    and every `(key, row id)` pair is scattered into one of the `2^k`
//!    disjoint partitions by the top bits of the key's hash.
//! 2. **Aggregate** — each partition is aggregated independently (worker
//!    threads own disjoint partition sets): a private `GroupTable`
//!    maps key → dense gid, producing the partition's gid vector, and
//!    every accumulator then folds the whole partition in one tight
//!    columnar loop (`Accumulator::update_batch`) — no per-row dispatch.
//!
//! Because rows are routed by key hash, partitions hold disjoint group
//! sets; the final result is pure concatenation in partition order
//! (`Accumulator::merge_disjoint`) — there is no merge/re-aggregation
//! phase.
//!
//! Input size is not a second implementation but a value of `k`:
//! `Fanout::plan` is the one place that decides how many workers and
//! partitions an input gets, from its row count, the thread budget and
//! the optimizer's cardinality estimate for the grouping (the same
//! number `gbmqo-cost` prices plan edges with). An input of one
//! partition has nothing to scatter, so it is pass 2 alone: the shared
//! scan's fused morsel loop ([`crate::shared`]) over one grouping, each
//! morsel encoded, probed and folded on the calling thread.
//!
//! A small key domain is not hashed at all. When a packed `u64` layout
//! has at most `max(rows, 1024)` codes, and at most 2^16, its gids come
//! from a slot array indexed by the code (`SlotTable`; `dense_slots`
//! is the rule). Clearing the array then never costs more than the scan.
//! Such an input runs as that one pass whenever `Fanout::plan` gives it
//! one aggregate worker, however many partitions a hash table would
//! have wanted; only a multi-worker fan-out partitions it.
//!
//! Small inputs are mostly re-aggregations — of a materialized
//! intermediate, a cached aggregate, a shard merge, a delta refresh —
//! and their callers know a bound on the groups that the `rows / 16`
//! guess does not: re-aggregating a table of `n` rows yields at most `n`
//! groups. Handed inputs get that bound as `estimated_groups` where they
//! are built: the plan interpreter (`execute_plan` in `gbmqo-core`)
//! passes a cached root's, an intermediate's or a shard merge's rows
//! where the plan has no estimate; the aggregate cache's delta refresh
//! (`MatCache::refresh_stale_entry` in `gbmqo-matcache`) passes the
//! delta's rows for its scan of the appended rows and stale + delta
//! rows for its merge. Their hash tables are sized once and do not
//! grow.

use crate::agg::{Accumulator, AggSpec};
use crate::cancel::CancelToken;
use crate::engine::Rows;
use crate::error::Result;
use crate::group_by::{output_table, record, stream_group_by};
use crate::metrics::ExecMetrics;
use crate::shared::{fused_pass, grouping};
use gbmqo_storage::packed::KeyCode;
use gbmqo_storage::{Column, KeyEncoder, PackedKeySpec, RowKey, Table};
use rustc_hash::{FxBuildHasher, FxHashMap};
use std::hash::{BuildHasher, Hash};
use std::time::Instant;

/// The strategy argument of [`group_by_with_strategy`]. There is one
/// hash kernel, so there is one value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GroupByStrategy {
    /// The kernel sizes itself from the input ([`radix_group_by`]).
    #[default]
    Auto,
}

/// Rows per morsel (key buffer reuse + cache locality), in pass 1 and in
/// the fused loop ([`crate::shared`]).
pub(crate) const MORSEL_ROWS: usize = 16 * 1024;

/// Inputs below this many rows run on the calling thread: spawning
/// workers costs more than partitioning them saves.
const PARALLEL_MIN_ROWS: usize = 16 * 1024;

/// Groups one partition's hash table should stay around for it to
/// remain cache-resident; drives partition-count selection.
const GROUPS_PER_PARTITION: u64 = 4 * 1024;

/// Hard cap on partition count (scatter state is per-worker × per-partition).
const MAX_PARTITIONS: usize = 512;

/// Largest direct-address table: 2^16 `u32` slots, 256 KiB.
const MAX_DENSE_SLOTS: usize = 1 << 16;

/// Slots a direct-address table may hold whatever the input's rows.
const MIN_DENSE_SLOTS: usize = 1024;

/// The slots of a direct-address table for `spec` over `rows` rows — one
/// per code of its domain — or `None` when the domain is too large to
/// address directly and the keys are hashed.
pub(crate) fn dense_slots(spec: &PackedKeySpec, rows: usize) -> Option<usize> {
    let slots = 1usize.checked_shl(spec.total_bits())?;
    (slots <= rows.clamp(MIN_DENSE_SLOTS, MAX_DENSE_SLOTS)).then_some(slots)
}

/// Distinct groups to plan for: the optimizer's estimate for this
/// grouping when the plan executor threaded one through from
/// `gbmqo-cost`, otherwise a rows-based guess.
fn planned_groups(rows: usize, estimated_groups: Option<u64>) -> u64 {
    estimated_groups
        .filter(|&g| g > 0)
        .unwrap_or(rows as u64 / 16)
        .max(1)
}

/// Pick the radix partition count `2^k` for an input of `rows` rows.
///
/// The count is at least `threads` (so pass 2 can use every worker),
/// scales with [`planned_groups`] so per-partition tables stay
/// ~cache-sized, and is capped both by `rows` (tiny inputs don't want
/// 512 vecs — under 8,192 rows there is one partition) and
/// [`MAX_PARTITIONS`].
fn partition_count(threads: usize, rows: usize, estimated_groups: Option<u64>) -> usize {
    if rows == 0 {
        return 1;
    }
    let by_groups = (planned_groups(rows, estimated_groups) / GROUPS_PER_PARTITION).max(1) as usize;
    let by_rows = (rows / 4096).max(1);
    by_groups
        .max(threads)
        .min(by_rows)
        .min(MAX_PARTITIONS)
        .next_power_of_two()
}

/// How one input is spread over workers and partitions — every
/// size-dependent decision the kernel makes but one: whether a packed
/// domain is addressed directly ([`dense_slots`]).
struct Fanout {
    /// Workers scattering in pass 1.
    scatter_workers: usize,
    /// Workers aggregating partitions in pass 2 (never more than
    /// `partitions`).
    aggregate_workers: usize,
    /// Radix partitions, a power of two.
    partitions: usize,
    /// Groups each partition's [`GroupTable`] makes room for up front
    /// (capped, where the table is built, by the partition's rows).
    groups_per_partition: usize,
}

impl Fanout {
    /// Size the kernel for `rows` rows given a budget of `threads`
    /// (callers pass their whole share; whether it is worth using is
    /// decided here) and the optimizer's estimate, if any.
    fn plan(threads: usize, rows: usize, estimated_groups: Option<u64>) -> Self {
        let threads = if rows >= PARALLEL_MIN_ROWS {
            threads.max(1)
        } else {
            1
        };
        let partitions = partition_count(threads, rows, estimated_groups);
        let groups = planned_groups(rows, estimated_groups).div_ceil(partitions as u64);
        Fanout {
            scatter_workers: if rows >= 2 * MORSEL_ROWS { threads } else { 1 },
            aggregate_workers: threads.min(partitions),
            partitions,
            groups_per_partition: groups as usize,
        }
    }
}

/// Run `workers` copies of `f` (worker id as argument) on scoped
/// threads, or inline when only one worker is asked for.
fn scoped_map<T, F>(workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 {
        return vec![f(0)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || f(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("radix worker panicked"))
            .collect()
    })
}

/// A key representation: how a run of rows becomes hashable keys of
/// type `K`. The kernel and the shared scan are generic over it, so a
/// key format is written once, here: bit-packed `u64`/`u128` codes
/// ([`PackedKeySpec`]) and the byte-[`RowKey`] fallback ([`ByteKeys`]).
pub(crate) trait KeyRepr<K>: Sync {
    /// Replace `out` with the keys of rows `start .. start + len`, or
    /// with `ids` of the rows it lists (ascending, `len` of them).
    fn encode(
        &self,
        key_cols: &[&Column],
        start: usize,
        ids: Option<&[u32]>,
        len: usize,
        out: &mut Vec<K>,
    );

    /// A 64-bit hash whose *top* bits pick the key's radix partition.
    fn partition_hash(key: &K) -> u64;

    /// The gid `map` holds for `key`, registering `key` as group `next`
    /// first if it is new.
    fn gid(map: &mut FxHashMap<K, u32>, key: &K, next: u32) -> u32;
}

impl<K: KeyCode> KeyRepr<K> for PackedKeySpec {
    fn encode(
        &self,
        key_cols: &[&Column],
        start: usize,
        ids: Option<&[u32]>,
        len: usize,
        out: &mut Vec<K>,
    ) {
        out.clear();
        out.resize(len, K::default());
        self.encode_into(key_cols, start, ids, out);
    }

    fn partition_hash(key: &K) -> u64 {
        key.partition_hash()
    }

    /// One hash and one probe: a packed key is a copy, so the map's
    /// entry can own it whether or not it is new.
    fn gid(map: &mut FxHashMap<K, u32>, key: &K, next: u32) -> u32 {
        *map.entry(*key).or_insert(next)
    }
}

/// Byte row keys, for what does not pack: `Float64` columns and layouts
/// wider than 128 bits.
pub(crate) struct ByteKeys;

impl KeyRepr<RowKey> for ByteKeys {
    fn encode(
        &self,
        key_cols: &[&Column],
        start: usize,
        ids: Option<&[u32]>,
        len: usize,
        out: &mut Vec<RowKey>,
    ) {
        let mut enc = KeyEncoder::new();
        out.clear();
        match ids {
            Some(ids) => out.extend(ids.iter().map(|&row| enc.encode(key_cols, row as usize))),
            None => out.extend((start..start + len).map(|row| enc.encode(key_cols, row))),
        }
    }

    fn partition_hash(key: &RowKey) -> u64 {
        FxBuildHasher.hash_one(key)
    }

    /// Look up before inserting, so a hit never clones a heap key.
    fn gid(map: &mut FxHashMap<RowKey, u32>, key: &RowKey, next: u32) -> u32 {
        if let Some(&g) = map.get(key) {
            return g;
        }
        map.insert(key.clone(), next);
        next
    }
}

/// Build the packing layout for `key_cols` over the rows `input` reads
/// if they pack, counting those rows as packed or fallback in `metrics`.
/// `None` means [`ByteKeys`]; otherwise `fits_u64` picks the code width.
pub(crate) fn packed_spec(
    key_cols: &[&Column],
    input: Rows<'_>,
    metrics: &mut ExecMetrics,
) -> Option<PackedKeySpec> {
    let spec = PackedKeySpec::build(key_cols, input.selection);
    let rows = input.len() as u64;
    match spec {
        Some(_) => metrics.packed_key_rows += rows,
        None => metrics.fallback_key_rows += rows,
    }
    spec
}

/// Key → dense group id, the one hash table of hash aggregation. Pass 2
/// probes one per partition; the shared scan probes one per hashed
/// grouping per morsel.
pub(crate) struct GroupTable<K> {
    map: FxHashMap<K, u32>,
    /// First row seen of each group, indexed by gid.
    representatives: Vec<u32>,
    resizes: u64,
}

impl<K: Eq + Hash> GroupTable<K> {
    /// A table with room for `groups` groups before its first resize.
    pub(crate) fn with_capacity(groups: usize) -> Self {
        GroupTable {
            map: FxHashMap::with_capacity_and_hasher(groups, FxBuildHasher),
            representatives: Vec::with_capacity(groups),
            resizes: 0,
        }
    }

    /// Append the gid of every `(key, row)` to `gids`. A key not seen
    /// before becomes the next group, with `row` as its representative;
    /// `R` decides how a key is looked up ([`KeyRepr::gid`]).
    pub(crate) fn probe<'k, R: KeyRepr<K>>(
        &mut self,
        keys: impl Iterator<Item = (&'k K, u32)>,
        gids: &mut Vec<u32>,
    ) where
        K: 'k,
    {
        let mut capacity = self.map.capacity();
        for (key, row) in keys {
            let next = self.representatives.len() as u32;
            let gid = R::gid(&mut self.map, key, next);
            if gid == next {
                self.representatives.push(row);
                if self.map.capacity() != capacity {
                    self.resizes += 1;
                    capacity = self.map.capacity();
                }
            }
            gids.push(gid);
        }
    }
}

/// Packed `u64` code → dense group id by direct address: one slot per
/// code of a small domain ([`dense_slots`]), `u32::MAX` while no row has
/// had that code. Gids are handed out in first-seen order, as
/// [`GroupTable`] does, and the array is allocated whole, so it never
/// resizes.
pub(crate) struct SlotTable {
    slots: Vec<u32>,
    /// First row seen of each group, indexed by gid.
    representatives: Vec<u32>,
}

impl SlotTable {
    /// A table of `slots` empty slots, with room for `groups` groups.
    pub(crate) fn new(slots: usize, groups: usize) -> Self {
        SlotTable {
            slots: vec![u32::MAX; slots],
            representatives: Vec::with_capacity(groups.min(slots)),
        }
    }
}

/// Key → dense group id in first-seen order: what a fused-pass grouping
/// asks of its table, hashed ([`GroupTable`]) or direct ([`SlotTable`]).
pub(crate) trait GidMap<K> {
    /// Append the gid of each of `keys` (row ids `rows`) to `gids`,
    /// registering new keys as the next groups; `R` is how the keys were
    /// encoded.
    fn assign<R: KeyRepr<K>>(&mut self, keys: &[K], rows: &[u32], gids: &mut Vec<u32>);

    /// Groups registered so far.
    fn num_groups(&self) -> usize;

    /// Hand over the groups with the `accumulators` folded against them.
    fn finish(self, accumulators: Vec<Accumulator>) -> Aggregated;
}

impl<K: Eq + Hash> GidMap<K> for GroupTable<K> {
    fn assign<R: KeyRepr<K>>(&mut self, keys: &[K], rows: &[u32], gids: &mut Vec<u32>) {
        self.probe::<R>(keys.iter().zip(rows.iter().copied()), gids);
    }

    fn num_groups(&self) -> usize {
        self.representatives.len()
    }

    fn finish(self, accumulators: Vec<Accumulator>) -> Aggregated {
        (self.representatives, accumulators, self.resizes)
    }
}

impl GidMap<u64> for SlotTable {
    fn assign<R: KeyRepr<u64>>(&mut self, codes: &[u64], rows: &[u32], gids: &mut Vec<u32>) {
        for (&code, &row) in codes.iter().zip(rows) {
            let slot = &mut self.slots[code as usize];
            if *slot == u32::MAX {
                *slot = self.representatives.len() as u32;
                self.representatives.push(row);
            }
            gids.push(*slot);
        }
    }

    fn num_groups(&self) -> usize {
        self.representatives.len()
    }

    fn finish(self, accumulators: Vec<Accumulator>) -> Aggregated {
        (self.representatives, accumulators, 0)
    }
}

/// Per-worker scatter output of pass 1: one `(key, row)` vector per
/// partition. Ordered worker-major so pass 2 can replay rows in a
/// deterministic order regardless of thread scheduling.
type Scatter<K> = Vec<Vec<(K, u32)>>;

/// What aggregation produces: representatives, accumulators (both
/// indexed by gid) and the hash-table resize count.
pub(crate) type Aggregated = (Vec<u32>, Vec<Accumulator>, u64);

/// One invocation of the kernel over more than one partition: what both
/// passes read.
struct Job<'a> {
    input: Rows<'a>,
    key_cols: &'a [&'a Column],
    aggs: &'a [AggSpec],
    fanout: Fanout,
    cancel: Option<&'a CancelToken>,
}

impl Job<'_> {
    /// Pass 1: encode morsels into keys and scatter them by partition.
    ///
    /// Cancellation is polled once per morsel; a tripped token makes
    /// every worker bail out early (the partial scatter is discarded by
    /// the caller's [`crate::cancel::check`]).
    fn scatter<K: Send, R: KeyRepr<K>>(&self, repr: &R) -> Vec<Scatter<K>> {
        let rows = self.input.len();
        let partitions = self.fanout.partitions;
        let chunk = rows.div_ceil(self.fanout.scatter_workers);
        scoped_map(self.fanout.scatter_workers, |w| {
            let lo = (w * chunk).min(rows);
            let hi = ((w + 1) * chunk).min(rows);
            let mut parts: Scatter<K> = (0..partitions)
                .map(|_| Vec::with_capacity((hi - lo) / partitions + 8))
                .collect();
            let mut keys: Vec<K> = Vec::new();
            let shift = 64 - partitions.trailing_zeros();
            let mut scatter = |(key, row): (K, u32)| {
                let j = (R::partition_hash(&key) >> shift) as usize;
                parts[j].push((key, row));
            };
            let mut pos = lo;
            while pos < hi {
                if crate::cancel::tripped(self.cancel) {
                    break;
                }
                let len = MORSEL_ROWS.min(hi - pos);
                let ids = self.input.selection.map(|rows| &rows[pos..pos + len]);
                repr.encode(self.key_cols, pos, ids, len, &mut keys);
                match ids {
                    Some(ids) => (keys.drain(..).zip(ids.iter().copied())).for_each(&mut scatter),
                    None => (keys.drain(..).zip(pos as u32..)).for_each(&mut scatter),
                }
                pos += len;
            }
            parts
        })
    }

    /// Pass 2 for one partition: build its key → gid table, compute the
    /// (row, gid) vectors, and fold every accumulator over them in one
    /// columnar sweep. `scatters[w][partition]` are replayed in worker
    /// order, keeping group numbering deterministic.
    fn aggregate_partition<K: Eq + Hash, R: KeyRepr<K>>(
        &self,
        scatters: &[Scatter<K>],
        partition: usize,
    ) -> Result<Aggregated> {
        let total: usize = scatters.iter().map(|s| s[partition].len()).sum();
        let mut table = GroupTable::with_capacity(self.fanout.groups_per_partition.min(total));
        let mut rows: Vec<u32> = Vec::with_capacity(total);
        let mut gids: Vec<u32> = Vec::with_capacity(total);
        for scatter in scatters {
            let part = &scatter[partition];
            rows.extend(part.iter().map(|(_, row)| *row));
            table.probe::<R>(part.iter().map(|(key, row)| (key, *row)), &mut gids);
        }
        let mut accumulators: Vec<Accumulator> = self
            .aggs
            .iter()
            .map(|a| Accumulator::build(a, self.input.table))
            .collect::<Result<_>>()?;
        for acc in &mut accumulators {
            acc.resize_groups(table.num_groups());
            acc.update_batch(self.input.table, &rows, &gids);
        }
        Ok(table.finish(accumulators))
    }

    /// Pass 2 over all partitions (strided across the fan-out's
    /// workers), then concatenate the per-partition results in partition
    /// order.
    fn aggregate_all<K: Eq + Hash + Sync, R: KeyRepr<K>>(
        &self,
        scatters: &[Scatter<K>],
    ) -> Result<Aggregated> {
        let partitions = self.fanout.partitions;
        let workers = self.fanout.aggregate_workers;
        let per_worker: Vec<Vec<(usize, Result<Aggregated>)>> = scoped_map(workers, |w| {
            let mut out = Vec::new();
            let mut j = w;
            while j < partitions {
                // Cancellation boundary between partitions: a tripped token
                // surfaces as a per-partition error and stops this worker.
                if let Err(e) = crate::cancel::check(self.cancel) {
                    out.push((j, Err(e)));
                    break;
                }
                out.push((j, self.aggregate_partition::<K, R>(scatters, j)));
                j += workers;
            }
            out
        });

        let mut slots: Vec<Option<Aggregated>> = (0..partitions).map(|_| None).collect();
        let mut first_err: Option<(usize, crate::error::ExecError)> = None;
        for worker_out in per_worker {
            for (j, r) in worker_out {
                match r {
                    Ok(agg) => slots[j] = Some(agg),
                    // Keep the earliest partition's error for determinism.
                    Err(e) => match first_err {
                        Some((i, _)) if i < j => {}
                        _ => first_err = Some((j, e)),
                    },
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }

        let mut representatives: Vec<u32> = Vec::new();
        let mut accumulators: Option<Vec<Accumulator>> = None;
        let mut resizes = 0u64;
        for slot in slots {
            let (reps, accs, rz) = slot.expect("no error, so every partition aggregated");
            representatives.extend(reps);
            resizes += rz;
            match &mut accumulators {
                None => accumulators = Some(accs),
                Some(base) => {
                    for (b, a) in base.iter_mut().zip(accs) {
                        b.merge_disjoint(a);
                    }
                }
            }
        }
        Ok((
            representatives,
            accumulators.expect("at least one partition"),
            resizes,
        ))
    }

    /// Both passes under one key representation.
    fn run<K: Eq + Hash + Send + Sync, R: KeyRepr<K>>(&self, repr: &R) -> Result<Aggregated> {
        let scatters = self.scatter(repr);
        crate::cancel::check(self.cancel)?;
        self.aggregate_all::<K, R>(&scatters)
    }
}

/// Hash Group By over `input` — a table, or the rows a selection keeps
/// of it ([`Rows`]) — on the columns at `group_cols`: one row per
/// distinct combination of the group columns (NULL is a value; an empty
/// input has no groups, an empty `group_cols` has one).
///
/// `threads` bounds the workers used by *both* passes, so a plan
/// executor running several edges at once can hand each edge a slice of
/// one shared thread budget. `estimated_groups` (the optimizer's
/// cardinality estimate for this grouping, or a caller's bound on it)
/// sizes the partition fan-out and the hash tables; `None` falls back
/// to a rows-based guess (`Fanout::plan`).
pub fn radix_group_by<'a>(
    input: impl Into<Rows<'a>>,
    group_cols: &[usize],
    aggs: &[AggSpec],
    threads: usize,
    estimated_groups: Option<u64>,
    cancel: Option<&CancelToken>,
    metrics: &mut ExecMetrics,
) -> Result<Table> {
    crate::cancel::check(cancel)?;
    let start = Instant::now();
    let input = input.into();
    let rows = input.len();
    let fanout = Fanout::plan(threads, rows, estimated_groups);
    let key_cols: Vec<&Column> = group_cols.iter().map(|&c| input.table.column(c)).collect();
    let spec = packed_spec(&key_cols, input, metrics);
    let dense = spec.as_ref().and_then(|s| dense_slots(s, rows)).is_some();
    // Nothing to scatter — one partition, or a directly addressed domain
    // on one worker: pass 2 alone, morsel by morsel.
    let one_pass = fanout.partitions == 1 || (dense && fanout.aggregate_workers == 1);
    let partitions = if one_pass { 1 } else { fanout.partitions };
    let (representatives, accumulators, resizes) = if one_pass {
        let groups = planned_groups(rows, estimated_groups);
        let one = grouping(input, key_cols, spec, aggs, groups)?;
        let mut aggregated = fused_pass(input, vec![one], cancel)?;
        aggregated.pop().expect("one grouping, one result")
    } else {
        let job = Job {
            input,
            key_cols: &key_cols,
            aggs,
            fanout,
            cancel,
        };
        match spec {
            Some(spec) if spec.fits_u64() => job.run::<u64, _>(&spec),
            Some(spec) => job.run::<u128, _>(&spec),
            None => job.run(&ByteKeys),
        }?
    };
    metrics.radix_partitions += partitions as u64;
    metrics.hash_resizes += resizes;

    let result = output_table(input.table, group_cols, aggs, representatives, accumulators)?;
    record(metrics, input, group_cols, &result, start);
    Ok(result)
}

/// The engine's Group By dispatch (`exec::driver`) — an index `order`
/// streams, everything else is [`radix_group_by`] — under the signature
/// external callers (the benchmark's kernel probes) were built against;
/// `_strategy` has one value and is ignored.
#[allow(clippy::too_many_arguments)]
pub fn group_by_with_strategy(
    input: &Table,
    group_cols: &[usize],
    aggs: &[AggSpec],
    order: Option<&[u32]>,
    _strategy: GroupByStrategy,
    threads: usize,
    estimated_groups: Option<u64>,
    cancel: Option<&CancelToken>,
    metrics: &mut ExecMetrics,
) -> Result<Table> {
    match order {
        Some(order) => {
            crate::cancel::check(cancel)?;
            stream_group_by(input, group_cols, aggs, order, metrics)
        }
        None => radix_group_by(
            input,
            group_cols,
            aggs,
            threads,
            estimated_groups,
            cancel,
            metrics,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort_agg::sort_group_by;
    use gbmqo_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn table(rows: usize, cardinality: i64) -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Utf8),
            Field::new("v", DataType::Int64),
            Field::new("f", DataType::Float64),
        ])
        .unwrap();
        let mut tb = TableBuilder::new(schema);
        for i in 0..rows as i64 {
            let row = [
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % cardinality)
                },
                Value::str(if i % 3 == 0 { "x" } else { "y" }),
                Value::Int(i),
                Value::Float((i % 5) as f64),
            ];
            tb.push_row(&row).unwrap();
        }
        tb.finish().unwrap()
    }

    fn norm(t: &Table) -> Vec<Vec<Value>> {
        let mut v: Vec<Vec<Value>> = (0..t.num_rows())
            .map(|r| (0..t.num_columns()).map(|c| t.value(r, c)).collect())
            .collect();
        v.sort();
        v
    }

    fn aggs() -> Vec<AggSpec> {
        vec![
            AggSpec::count(),
            AggSpec::sum("v", "sv"),
            AggSpec::min("v", "mn"),
            AggSpec::max("s", "mx"),
        ]
    }

    #[test]
    fn radix_matches_hash_across_threads_and_partitions() {
        let t = table(10_000, 97);
        let mut m = ExecMetrics::new();
        let expected = sort_group_by(&t, &[0, 1], &aggs(), &mut m).unwrap();
        for threads in [1, 2, 4] {
            for est in [None, Some(4), Some(1_000_000)] {
                let got = radix_group_by(&t, &[0, 1], &aggs(), threads, est, None, &mut m).unwrap();
                assert_eq!(norm(&got), norm(&expected), "threads={threads} est={est:?}");
            }
        }
        assert!(m.packed_key_rows > 0);
        assert!(m.radix_partitions > 0);
    }

    #[test]
    fn float_group_key_takes_fallback_and_matches() {
        let t = table(5_000, 41);
        let mut m = ExecMetrics::new();
        let expected = sort_group_by(&t, &[3, 1], &[AggSpec::count()], &mut m).unwrap();
        let got = radix_group_by(&t, &[3, 1], &[AggSpec::count()], 4, None, None, &mut m).unwrap();
        assert_eq!(norm(&got), norm(&expected));
        assert_eq!(m.packed_key_rows, 0);
        assert_eq!(m.fallback_key_rows, 5_000);
    }

    #[test]
    fn empty_input_and_empty_grouping() {
        let t = table(0, 1);
        let mut m = ExecMetrics::new();
        let r = radix_group_by(&t, &[0], &[AggSpec::count()], 4, None, None, &mut m).unwrap();
        assert_eq!(r.num_rows(), 0);

        let t = table(100, 7);
        let r = radix_group_by(&t, &[], &[AggSpec::count()], 4, None, None, &mut m).unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.value(0, 0), Value::Int(100));
    }

    #[test]
    fn groups_are_not_duplicated_across_partitions() {
        let t = table(20_000, 256);
        let mut m = ExecMetrics::new();
        let r = radix_group_by(&t, &[0], &[AggSpec::count()], 4, Some(256), None, &mut m).unwrap();
        let mut keys: Vec<Value> = (0..r.num_rows()).map(|i| r.value(i, 0)).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "a group appeared in two partitions");
    }

    #[test]
    fn partition_count_policy() {
        // at least `threads`, power of two
        assert!(partition_count(4, 1 << 20, Some(256)) >= 4);
        assert!(partition_count(3, 1 << 20, Some(1 << 20)).is_power_of_two());
        // scales with estimated groups, capped
        assert!(partition_count(1, 10_000_000, Some(10_000_000)) <= MAX_PARTITIONS);
        // tiny input stays small even with many threads
        assert!(partition_count(16, 4_000, None) <= 16);
        assert_eq!(partition_count(1, 0, None), 1);

        // Workers: an input under 16,384 rows stays on the calling thread
        // whatever the budget, pass 1 fans out from two morsels on, and
        // pass 2 never has more workers than partitions.
        let small = Fanout::plan(8, PARALLEL_MIN_ROWS - 1, Some(1 << 20));
        assert_eq!((small.scatter_workers, small.aggregate_workers), (1, 1));
        let mid = Fanout::plan(8, PARALLEL_MIN_ROWS, Some(256));
        assert_eq!((mid.scatter_workers, mid.aggregate_workers), (1, 4));
        assert_eq!(mid.partitions, 4, "capped by rows / 4096");
        let large = Fanout::plan(8, 2 * MORSEL_ROWS, Some(256));
        assert_eq!((large.scatter_workers, large.aggregate_workers), (8, 8));
        assert_eq!(Fanout::plan(0, 1 << 20, None).aggregate_workers, 1);

        // Tables reserve their share of the planned groups: the estimate
        // when there is one, rows / 16 otherwise.
        assert_eq!(Fanout::plan(1, 4_000, Some(97)).groups_per_partition, 97);
        assert_eq!(Fanout::plan(1, 4_000, None).groups_per_partition, 250);
        let wide = Fanout::plan(1, 1 << 20, Some(1 << 16));
        assert_eq!(wide.partitions, 16);
        assert_eq!(wide.groups_per_partition, 1 << 12);

        // Direct address: a domain of at most max(rows, 1,024) codes,
        // and never more than 2^16.
        let bits = |b: u32| {
            let col = gbmqo_storage::Column::from_i64(vec![0, (1 << b) - 2]);
            PackedKeySpec::build(&[&col], None).unwrap()
        };
        assert_eq!(dense_slots(&bits(10), 0), Some(1_024));
        assert_eq!(dense_slots(&bits(11), 2_047), None);
        assert_eq!(dense_slots(&bits(11), 2_048), Some(2_048));
        assert_eq!(dense_slots(&bits(16), usize::MAX), Some(1 << 16));
        assert_eq!(dense_slots(&bits(17), usize::MAX), None);
    }

    #[test]
    fn small_and_large_inputs_take_the_packed_path() {
        // Both sides of 8,192 rows, under which there is one partition.
        for rows in [0, 100, 500, 8_191, 8_192, 9_000, 20_000] {
            let t = table(rows, 50);
            let mut m = ExecMetrics::new();
            let base = sort_group_by(&t, &[0], &aggs(), &mut m).unwrap();
            for threads in [1, 4] {
                let mut m = ExecMetrics::new();
                let r = radix_group_by(&t, &[0], &aggs(), threads, None, None, &mut m).unwrap();
                assert_eq!(norm(&r), norm(&base), "{rows} rows, {threads} threads");
                assert_eq!(m.packed_key_rows, rows as u64);
                assert_eq!(m.fallback_key_rows, 0);
                if rows < 8_192 || (threads == 1 && rows < 16_384) {
                    assert_eq!(m.radix_partitions, 1, "{rows} rows, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn reserved_tables_do_not_resize() {
        let t = table(5_000, 97);
        let mut m = ExecMetrics::new();
        // `v` is distinct per row, 5,000 keys in a domain of 8,192 codes:
        // hashed, into a table reserved for them.
        radix_group_by(&t, &[2], &aggs(), 1, Some(5_000), None, &mut m).unwrap();
        assert_eq!(m.hash_resizes, 0);
        // 97 keys + NULL by two strings fill a domain of 512 codes, which
        // is addressed directly: an under-estimate grows nothing.
        radix_group_by(&t, &[0, 1], &aggs(), 1, Some(2), None, &mut m).unwrap();
        assert_eq!(m.hash_resizes, 0);
        radix_group_by(&t, &[2], &aggs(), 1, Some(2), None, &mut m).unwrap();
        assert!(m.hash_resizes > 0, "an under-estimate grows and is counted");
    }

    #[test]
    fn tripped_token_aborts_radix_kernel() {
        let t = table(50_000, 997);
        let mut m = ExecMetrics::new();
        let token = CancelToken::new();
        token.cancel();
        let err = radix_group_by(&t, &[0, 1], &aggs(), 4, None, Some(&token), &mut m).unwrap_err();
        assert_eq!(err, crate::error::ExecError::Cancelled { timed_out: false });

        // An expired deadline reports as a timeout.
        let token = CancelToken::with_deadline(std::time::Duration::from_millis(0));
        std::thread::sleep(std::time::Duration::from_millis(1));
        let err = radix_group_by(&t, &[0, 1], &aggs(), 4, None, Some(&token), &mut m).unwrap_err();
        assert_eq!(err, crate::error::ExecError::Cancelled { timed_out: true });

        // An untripped token changes nothing.
        let token = CancelToken::new();
        let ok = radix_group_by(&t, &[0], &[AggSpec::count()], 4, None, Some(&token), &mut m);
        assert!(ok.is_ok());

        // Small inputs are polled like any other.
        let t = table(100, 7);
        token.cancel();
        let err = radix_group_by(&t, &[0], &[AggSpec::count()], 1, None, Some(&token), &mut m)
            .unwrap_err();
        assert_eq!(err, crate::error::ExecError::Cancelled { timed_out: false });
    }
}
