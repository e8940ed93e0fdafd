//! Layered, content-addressed compilation caching.
//!
//! Re-running the Fig. 2 pipeline over a benchmark sweep repeats an
//! enormous amount of identical work: every CNOT reroute re-runs the same
//! BFS/Dijkstra against the same handful of coupling maps, every wide
//! Toffoli re-derives the same Barenco cascade, and a repeated
//! (circuit, device, options) pair rebuilds the same QMDDs just to reach
//! the same verdict. This module memoizes all three layers behind global,
//! LRU-bounded registries keyed by *content* — structural hashes and
//! device fingerprints — never by identity:
//!
//! 1. **[`RoutingTable`]** — per `(Device, RoutingObjective)`, the full
//!    [`CtrRoute`] for every ordered qubit pair plus all-pairs hop-count
//!    and negative-log-fidelity distance/next-hop matrices, built once by
//!    running the *legacy* CTR search per pair, so table-driven routing is
//!    byte-identical to per-gate search by construction.
//! 2. **Decomposition memo** — Barenco MCT cascades are purely positional,
//!    so one template per (arity, usable-spare-count, strategy) is
//!    synthesized on canonical line indices and instantiated by qubit
//!    substitution.
//! 3. **Compile cache** — whole [`CompileResult`]s keyed by a 128-bit
//!    structural hash of (circuit, device, cost model, budget, options);
//!    a hit replays the recorded pass events with a `cache_hit` marker.
//!
//! Which layers are active is the compiler's [`CacheMode`]; per-layer
//! hit/miss/insert/evict totals are process-global (see [`stats`]) and
//! surface through `--cache-stats`.

use crate::decompose::DecomposeStrategy;
use crate::error::CompileError;
use crate::route::{ctr_route_with, CtrRoute, RoutingObjective};
use crate::CompileResult;
use qsyn_arch::Device;
use qsyn_gate::Gate;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Which caching layers a [`Compiler`](crate::Compiler) uses. The shared
/// routing lookup and the decomposition memo are always on: both are
/// byte-identical to the per-gate searches they replace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// The transparent layers only: shared routing tables and the
    /// decomposition memo.
    #[default]
    Tables,
    /// [`CacheMode::Tables`] plus the whole-compile memo: a repeated
    /// (circuit, device, cost model, budget, options) tuple returns the
    /// memoized [`CompileResult`] with `cache_hit` markers instead of
    /// re-running the pipeline.
    Mem,
}

impl CacheMode {
    /// Every selectable mode, in `--cache` listing order.
    pub const ALL: [CacheMode; 2] = [CacheMode::Tables, CacheMode::Mem];

    /// Parses the `--cache=MODE` CLI value.
    pub fn parse(s: &str) -> Option<CacheMode> {
        Self::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Stable lowercase identifier (the `--cache` value that selects it).
    pub fn name(self) -> &'static str {
        match self {
            CacheMode::Tables => "tables",
            CacheMode::Mem => "mem",
        }
    }

    /// The accepted values as prose (`tables or mem`), for "unknown cache
    /// mode" errors.
    pub fn choices() -> String {
        crate::one_of(&Self::ALL.map(Self::name))
    }
}

/// Registry bounds: devices seen concurrently in practice are the built-in
/// library plus per-width simulators, and compile results are bounded so a
/// long-running service cannot grow without limit (the PR-3 budget story).
const ROUTING_TABLE_CAP: usize = 32;
const MCT_TEMPLATE_CAP: usize = 256;
const COMPILE_CACHE_CAP: usize = 64;

/// Approximate byte budget shared by each routing registry (tables and
/// oracles separately). Entry *count* alone is not enough once generated
/// devices reach thousands of qubits: a single dense 4096-qubit table is
/// ~1 GiB of routes, so the LRU also accounts approximate bytes per entry
/// and evicts until the total fits.
const ROUTING_BYTE_BUDGET: usize = 256 << 20;

// ---------------------------------------------------------------------------
// A minimal weight-aware LRU map. Eviction scans for the stalest stamp —
// O(len) per eviction, which is irrelevant at these capacities and keeps
// the structure dependency-free. Entries carry an approximate byte weight;
// inserts evict until both the entry-count cap and the optional byte
// budget hold.
// ---------------------------------------------------------------------------

struct LruMap<K, V> {
    cap: usize,
    byte_budget: Option<usize>,
    tick: u64,
    total_bytes: usize,
    map: HashMap<K, (V, u64, usize)>,
}

impl<K: Eq + Hash + Clone, V: Clone> LruMap<K, V> {
    fn new(cap: usize) -> Self {
        assert!(cap > 0, "LRU capacity must be positive");
        LruMap {
            cap,
            byte_budget: None,
            tick: 0,
            total_bytes: 0,
            map: HashMap::new(),
        }
    }

    /// Additionally bounds the sum of entry weights (approximate bytes).
    fn with_byte_budget(cap: usize, bytes: usize) -> Self {
        let mut map = Self::new(cap);
        map.byte_budget = Some(bytes);
        map
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, stamp, _)| {
            *stamp = tick;
            v.clone()
        })
    }

    /// Inserts an entry of negligible weight. Returns the eviction count.
    fn insert(&mut self, key: K, value: V) -> u64 {
        self.insert_weighted(key, value, 0)
    }

    /// Inserts an entry of approximately `bytes` weight, evicting
    /// least-recently-used entries until both the count cap and the byte
    /// budget hold. A single entry heavier than the whole budget is still
    /// admitted (after evicting everything else) — refusing it would just
    /// rebuild it on every use. Returns the number of entries evicted.
    ///
    /// Reinserting a present key never evicts other entries: the old entry
    /// is charged off first, so the count cannot grow, and a same-or-lighter
    /// replacement always fits the budget the old entry satisfied. All byte
    /// accounting is saturating — a drifted weight can never underflow the
    /// total and wedge the budget check.
    fn insert_weighted(&mut self, key: K, value: V, bytes: usize) -> u64 {
        self.tick += 1;
        let replacing = if let Some((_, _, old_bytes)) = self.map.remove(&key) {
            self.total_bytes = self.total_bytes.saturating_sub(old_bytes);
            true
        } else {
            false
        };
        let mut evicted = 0;
        let over = |m: &Self| {
            // `>= cap` only when the key is new: a replacement holds the
            // count constant, so it must not evict a victim on a full map.
            (!replacing && m.map.len() >= m.cap)
                || m.map.len() > m.cap
                || m.byte_budget
                    .is_some_and(|budget| m.total_bytes.saturating_add(bytes) > budget)
        };
        while !self.map.is_empty() && over(self) {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty map has a stalest entry");
            let (_, _, freed) = self.map.remove(&oldest).expect("stalest key resides in map");
            self.total_bytes = self.total_bytes.saturating_sub(freed);
            evicted += 1;
        }
        self.total_bytes = self.total_bytes.saturating_add(bytes);
        self.map.insert(key, (value, self.tick, bytes));
        evicted
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    #[cfg(test)]
    fn total_bytes(&self) -> usize {
        self.total_bytes
    }
}

// ---------------------------------------------------------------------------
// Process-global cache statistics.
// ---------------------------------------------------------------------------

// Every per-layer counter is a named metric in the process-wide
// [`qsyn_trace::metrics`] registry, so cache activity shows up live in
// metrics snapshots (serve `--metrics-file`, `{"cmd":"metrics"}` polls)
// rather than only in end-of-run `--cache-stats` renders.
qsyn_trace::metric_handles! {
    fn m_routing_builds() -> Counter = "cache.routing_table.builds";
    fn m_routing_hits() -> Counter = "cache.routing_table.hits";
    fn m_routing_evictions() -> Counter = "cache.routing_table.evictions";
    fn m_oracle_builds() -> Counter = "cache.oracle.builds";
    fn m_oracle_hits() -> Counter = "cache.oracle.hits";
    fn m_oracle_evictions() -> Counter = "cache.oracle.evictions";
    fn m_decompose_lookups() -> Counter = "cache.decompose.lookups";
    fn m_decompose_hits() -> Counter = "cache.decompose.hits";
    fn m_decompose_misses() -> Counter = "cache.decompose.misses";
    fn m_decompose_evictions() -> Counter = "cache.decompose.evictions";
    fn m_compile_lookups() -> Counter = "cache.compile.lookups";
    fn m_compile_hits() -> Counter = "cache.compile.hits";
    fn m_compile_misses() -> Counter = "cache.compile.misses";
    fn m_compile_inserts() -> Counter = "cache.compile.inserts";
    fn m_compile_evictions() -> Counter = "cache.compile.evictions";
    fn m_disk_lookups() -> Counter = "cache.disk.lookups";
    fn m_disk_hits() -> Counter = "cache.disk.hits";
    fn m_disk_misses() -> Counter = "cache.disk.misses";
    fn m_disk_writes() -> Counter = "cache.disk.writes";
    fn m_disk_quarantines() -> Counter = "cache.disk.quarantines";
    fn m_disk_evicted_entries() -> Counter = "cache.disk.evicted_entries";
    fn m_disk_evicted_bytes() -> Counter = "cache.disk.evicted_bytes";
}

/// Counter bumps for the on-disk persistence tier (`crate::persist`).
/// Every load outcome — hit, miss, or quarantine — also counts one disk
/// lookup, so `hits + misses + quarantines == lookups` holds by
/// construction (`qsyn check-metrics` cross-checks it).
pub(crate) fn note_disk_hit() {
    m_disk_lookups().inc();
    m_disk_hits().inc();
}
pub(crate) fn note_disk_miss() {
    m_disk_lookups().inc();
    m_disk_misses().inc();
}
pub(crate) fn note_disk_write() {
    m_disk_writes().inc();
}
pub(crate) fn note_disk_quarantine() {
    m_disk_lookups().inc();
    m_disk_quarantines().inc();
}
pub(crate) fn note_disk_eviction(entries: u64, bytes: u64) {
    m_disk_evicted_entries().add(entries);
    m_disk_evicted_bytes().add(bytes);
}

/// A point-in-time copy of the process-global per-layer cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsSnapshot {
    /// Routing tables built from scratch (one legacy search per pair).
    pub routing_tables_built: u64,
    /// Routing-table registry hits (a table was reused).
    pub routing_table_hits: u64,
    /// Routing tables evicted by the LRU bound.
    pub routing_table_evictions: u64,
    /// Sparse distance oracles built from scratch.
    pub routing_oracles_built: u64,
    /// Oracle registry hits (an oracle was reused).
    pub routing_oracle_hits: u64,
    /// Oracles evicted by the LRU bound.
    pub routing_oracle_evictions: u64,
    /// MCT decomposition templates served from the memo.
    pub decompose_memo_hits: u64,
    /// MCT decomposition templates synthesized on a miss.
    pub decompose_memo_misses: u64,
    /// Templates evicted by the LRU bound.
    pub decompose_memo_evictions: u64,
    /// Whole-compile cache hits.
    pub compile_hits: u64,
    /// Whole-compile cache misses (lookups that ran the pipeline).
    pub compile_misses: u64,
    /// Compile results inserted after a miss.
    pub compile_inserts: u64,
    /// Compile results evicted by the LRU bound.
    pub compile_evictions: u64,
    /// Disk-tier hits: compile results loaded and validated from the
    /// on-disk persistence layer (see `qsyn_core::persist`).
    pub disk_hits: u64,
    /// Disk-tier misses: keys with no readable entry on disk.
    pub disk_misses: u64,
    /// Compile results written to the disk tier.
    pub disk_writes: u64,
    /// Corrupted, truncated, stale or mismatched disk entries quarantined
    /// instead of trusted.
    pub disk_quarantines: u64,
    /// Disk entries deleted by directory eviction (`--cache-max-bytes` /
    /// `--cache-max-age`).
    pub disk_evicted_entries: u64,
    /// Bytes reclaimed by directory eviction.
    pub disk_evicted_bytes: u64,
}

impl CacheStatsSnapshot {
    /// Hit rate of a (hits, misses) pair; 0 when nothing was looked up.
    fn rate(hits: u64, misses: u64) -> f64 {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Decomposition-memo hit rate in `[0, 1]`.
    pub fn decompose_hit_rate(&self) -> f64 {
        Self::rate(self.decompose_memo_hits, self.decompose_memo_misses)
    }

    /// Compile-cache hit rate in `[0, 1]`.
    pub fn compile_hit_rate(&self) -> f64 {
        Self::rate(self.compile_hits, self.compile_misses)
    }

    /// One-line-per-layer human-readable rendering (the `--cache-stats`
    /// output). Every layer's full counter set — including all four disk
    /// counters and the eviction totals — is printed unconditionally,
    /// even when the counters are all zero (a cold directory), so log
    /// consumers can grep for a stable shape.
    pub fn render(&self) -> String {
        format!(
            "cache stats:\n  routing tables: {} built, {} reused, {} evicted\n  \
             sparse oracles: {} built, {} reused, {} evicted\n  \
             decompose memo: {} hits, {} misses ({:.0}% hit rate), {} evicted\n  \
             compile cache : {} hits, {} misses ({:.0}% hit rate), {} inserted, {} evicted\n  \
             disk tier     : {} hits, {} misses, {} written, {} quarantined, \
             {} evicted ({} bytes reclaimed)",
            self.routing_tables_built,
            self.routing_table_hits,
            self.routing_table_evictions,
            self.routing_oracles_built,
            self.routing_oracle_hits,
            self.routing_oracle_evictions,
            self.decompose_memo_hits,
            self.decompose_memo_misses,
            self.decompose_hit_rate() * 100.0,
            self.decompose_memo_evictions,
            self.compile_hits,
            self.compile_misses,
            self.compile_hit_rate() * 100.0,
            self.compile_inserts,
            self.compile_evictions,
            self.disk_hits,
            self.disk_misses,
            self.disk_writes,
            self.disk_quarantines,
            self.disk_evicted_entries,
            self.disk_evicted_bytes,
        )
    }
}

/// Reads the process-global per-layer cache counters (a typed view over
/// the `cache.*` metrics in [`qsyn_trace::metrics::global`]).
pub fn stats() -> CacheStatsSnapshot {
    CacheStatsSnapshot {
        routing_tables_built: m_routing_builds().get(),
        routing_table_hits: m_routing_hits().get(),
        routing_table_evictions: m_routing_evictions().get(),
        routing_oracles_built: m_oracle_builds().get(),
        routing_oracle_hits: m_oracle_hits().get(),
        routing_oracle_evictions: m_oracle_evictions().get(),
        decompose_memo_hits: m_decompose_hits().get(),
        decompose_memo_misses: m_decompose_misses().get(),
        decompose_memo_evictions: m_decompose_evictions().get(),
        compile_hits: m_compile_hits().get(),
        compile_misses: m_compile_misses().get(),
        compile_inserts: m_compile_inserts().get(),
        compile_evictions: m_compile_evictions().get(),
        disk_hits: m_disk_hits().get(),
        disk_misses: m_disk_misses().get(),
        disk_writes: m_disk_writes().get(),
        disk_quarantines: m_disk_quarantines().get(),
        disk_evicted_entries: m_disk_evicted_entries().get(),
        disk_evicted_bytes: m_disk_evicted_bytes().get(),
    }
}

// ---------------------------------------------------------------------------
// Layer 1: per-device routing tables.
// ---------------------------------------------------------------------------

/// Sentinel for "no next hop" in [`RoutingTable::next_hop`].
const NO_HOP: usize = usize::MAX;

/// Precomputed routing structure for one `(Device, RoutingObjective)` pair.
///
/// Holds the full [`CtrRoute`] (or the exact [`CompileError`] the legacy
/// search would report) for every ordered `(control, target)` pair, plus
/// the all-pairs distance and next-hop matrices in both metrics:
/// undirected hop count, and the negative-log-fidelity SWAP metric the
/// Dijkstra objective minimizes (uncharacterized couplings price at
/// [`DEFAULT_CNOT_ERROR`](crate::route::DEFAULT_CNOT_ERROR)).
///
/// Because every per-pair answer is produced by the *same* search the
/// per-gate router would run, routing through a table is byte-identical to
/// the legacy path — a property the differential tests in
/// `crates/core/tests/cache.rs` check gate-for-gate on every built-in
/// device.
pub struct RoutingTable {
    n: usize,
    objective: RoutingObjective,
    routes: Vec<Result<CtrRoute, CompileError>>,
    dist_hops: Vec<u32>,
    dist_neglog: Vec<f64>,
    next_hop: Vec<usize>,
}

impl RoutingTable {
    /// Builds the table by running the legacy CTR search once per ordered
    /// pair, plus one BFS and one Dijkstra per source for the distance /
    /// next-hop matrices.
    pub fn build(device: &Device, objective: RoutingObjective) -> RoutingTable {
        let n = device.n_qubits();
        let mut routes = Vec::with_capacity(n * n);
        for control in 0..n {
            for target in 0..n {
                routes.push(ctr_route_with(device, control, target, objective));
            }
        }
        let mut dist_hops = Vec::with_capacity(n * n);
        let mut next_hop = Vec::with_capacity(n * n);
        for src in 0..n {
            // `distances_from` marks unreachable qubits with u32::MAX / 2;
            // normalize to u32::MAX for an unambiguous sentinel. The
            // per-source rows are shared with the sparse oracle, so both
            // paths answer identically.
            let hops = hop_row(device, src);
            next_hop.extend(next_hop_row(device, src, &hops));
            dist_hops.extend(hops);
        }
        let dist_neglog = neglog_distances(device, n);
        RoutingTable {
            n,
            objective,
            routes,
            dist_hops,
            dist_neglog,
            next_hop,
        }
    }

    /// Register width the table was built for.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// The objective the per-pair routes minimize.
    pub fn objective(&self) -> RoutingObjective {
        self.objective
    }

    /// The precomputed CTR route for an ordered pair — exactly what
    /// [`ctr_route_with`] returns, including its error cases (degenerate
    /// pair, disconnected map).
    ///
    /// # Errors
    ///
    /// The stored [`CompileError`] of the legacy search, cloned.
    pub fn route(&self, control: usize, target: usize) -> Result<&CtrRoute, CompileError> {
        match &self.routes[control * self.n + target] {
            Ok(route) => Ok(route),
            Err(e) => Err(e.clone()),
        }
    }

    /// Undirected hop-count distance, or `None` when disconnected.
    pub fn hop_distance(&self, a: usize, b: usize) -> Option<u32> {
        match self.dist_hops[a * self.n + b] {
            u32::MAX => None,
            d => Some(d),
        }
    }

    /// Negative-log-fidelity SWAP-path distance, or `None` when
    /// disconnected.
    pub fn neglog_distance(&self, a: usize, b: usize) -> Option<f64> {
        let d = self.dist_neglog[a * self.n + b];
        if d.is_finite() {
            Some(d)
        } else {
            None
        }
    }

    /// First step of a shortest hop path `a -> b` (ascending-neighbor
    /// tie-break), or `None` for `a == b` and disconnected pairs.
    pub fn next_hop(&self, a: usize, b: usize) -> Option<usize> {
        match self.next_hop[a * self.n + b] {
            NO_HOP => None,
            q => Some(q),
        }
    }

    /// Approximate resident bytes of this table: the three dense matrices
    /// plus every stored route's path. This is what the registry's byte
    /// budget accounts and what the scaling bench reports.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let route_heap: usize = self
            .routes
            .iter()
            .map(|r| match r {
                Ok(route) => route.path.capacity() * size_of::<usize>(),
                Err(_) => 0,
            })
            .sum();
        size_of::<Self>()
            + self.routes.capacity() * size_of::<Result<CtrRoute, CompileError>>()
            + route_heap
            + self.dist_hops.capacity() * size_of::<u32>()
            + self.dist_neglog.capacity() * size_of::<f64>()
            + self.next_hop.capacity() * size_of::<usize>()
    }
}

/// All-pairs negative-log-fidelity distances over the SWAP metric
/// (Dijkstra per source; deterministic ascending-index tie-break).
pub(crate) fn neglog_distances(device: &Device, n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n * n);
    for src in 0..n {
        out.extend(neglog_row(device, src));
    }
    out
}

/// One source's negative-log-fidelity distance row (the exact Dijkstra the
/// dense table runs per source — the sparse oracle memoizes these rows on
/// demand, so both paths see bit-identical values by construction).
fn neglog_row(device: &Device, src: usize) -> Vec<f64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = device.n_qubits();
    let mut dist = vec![f64::INFINITY; n];
    dist[src] = 0.0;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let key = |d: f64, q: usize| ((d * 1e9) as u64, q);
    heap.push(Reverse(key(0.0, src)));
    let mut settled = vec![false; n];
    while let Some(Reverse((_, q))) = heap.pop() {
        if settled[q] {
            continue;
        }
        settled[q] = true;
        for &nb in device.neighbors(q) {
            let nd = dist[q] + crate::route::swap_log_cost(device, q, nb);
            if nd < dist[nb] {
                dist[nb] = nd;
                heap.push(Reverse(key(nd, nb)));
            }
        }
    }
    dist
}

/// One source's normalized hop-distance row (BFS, `u32::MAX` sentinel —
/// the same normalization [`RoutingTable::build`] applies).
fn hop_row(device: &Device, src: usize) -> Vec<u32> {
    device
        .distances_from(src)
        .into_iter()
        .map(|d| if d >= u32::MAX / 2 { u32::MAX } else { d })
        .collect()
}

/// One source's next-hop row derived from its hop row: the first step of a
/// shortest path `src -> q` under the ascending-neighbor tie-break (the
/// same descent [`RoutingTable::build`] runs).
fn next_hop_row(device: &Device, src: usize, hops: &[u32]) -> Vec<usize> {
    let mut row = vec![NO_HOP; hops.len()];
    for (q, slot) in row.iter_mut().enumerate() {
        if q == src || hops[q] == u32::MAX {
            continue;
        }
        let mut cur = q;
        while hops[cur] > 1 {
            cur = *device
                .neighbors(cur)
                .iter()
                .find(|&&nb| hops[nb] == hops[cur] - 1)
                .expect("BFS distances admit a descending neighbor");
        }
        *slot = cur;
    }
    row
}

type RoutingKey = (u128, u8);

/// The registry maps keys to per-key build cells rather than finished
/// tables: the mutex only guards the (cheap) map operations, while the
/// O(n²)-search build runs inside the cell's own `OnceLock`, so the
/// first-touch build of one device never blocks workers that need a
/// different device's table.
type RoutingCell = Arc<OnceLock<Arc<RoutingTable>>>;

static ROUTING_TABLES: OnceLock<Mutex<LruMap<RoutingKey, RoutingCell>>> = OnceLock::new();

fn objective_tag(objective: RoutingObjective) -> u8 {
    match objective {
        RoutingObjective::FewestSwaps => 0,
        RoutingObjective::HighestFidelity => 1,
    }
}

/// Approximate bytes a dense table for an `n`-qubit device will occupy,
/// used as the LRU weight at registration time (before the build runs):
/// three `n x n` matrices plus a short route per pair average out to
/// roughly 64 bytes per ordered pair on the devices we generate.
fn dense_bytes_estimate(n: usize) -> usize {
    n * n * 64
}

/// The shared routing table for a device and objective, building it on
/// first use. Returns the table and whether it came from the registry
/// (`true`) or was built by this call (`false`).
pub fn routing_table(device: &Device, objective: RoutingObjective) -> (Arc<RoutingTable>, bool) {
    let key = (device.fingerprint(), objective_tag(objective));
    let registry = ROUTING_TABLES
        .get_or_init(|| Mutex::new(LruMap::with_byte_budget(ROUTING_TABLE_CAP, ROUTING_BYTE_BUDGET)));
    let cell = {
        let mut map = registry.lock().expect("routing-table registry poisoned");
        match map.get(&key) {
            Some(cell) => cell,
            None => {
                let cell: RoutingCell = Arc::new(OnceLock::new());
                let evicted =
                    map.insert_weighted(key, cell.clone(), dense_bytes_estimate(device.n_qubits()));
                m_routing_evictions().add(evicted);
                cell
            }
        }
    };
    // Same-key racers block on this cell until the winner finishes; other
    // keys are untouched. An evicted cell stays alive for builders still
    // holding its Arc.
    let mut built = false;
    let table = cell
        .get_or_init(|| {
            built = true;
            m_routing_builds().inc();
            Arc::new(RoutingTable::build(device, objective))
        })
        .clone();
    if !built {
        m_routing_hits().inc();
    }
    (table, !built)
}

// ---------------------------------------------------------------------------
// Layer 1b: sparse distance oracles.
// ---------------------------------------------------------------------------

/// Number of landmark qubits a [`DistanceOracle`] precomputes (farthest-
/// point sampling; capped at the register width).
const ORACLE_LANDMARKS: usize = 8;

/// Devices at or above this width route through the sparse
/// [`DistanceOracle`] instead of a dense [`RoutingTable`] (see
/// [`routing_lookup`]). Every built-in device is below the threshold, so
/// the paper pipeline's dense fast path is unchanged.
pub const SPARSE_ORACLE_MIN_QUBITS: usize = 128;

/// Per-source memoization state of a [`DistanceOracle`].
#[derive(Default)]
struct OracleState {
    hop_rows: HashMap<usize, Arc<Vec<u32>>>,
    next_hop_rows: HashMap<usize, Arc<Vec<usize>>>,
    neglog_rows: HashMap<usize, Arc<Vec<f64>>>,
    routes: HashMap<(usize, usize), Result<Arc<CtrRoute>, CompileError>>,
}

/// Sparse replacement for the dense [`RoutingTable`]: answers the same
/// `route` / `hop_distance` / `neglog_distance` / `next_hop` queries
/// without ever materializing `n²` state.
///
/// Per-source shortest-path rows (BFS hops, Dijkstra negative-log-fidelity,
/// and the derived next-hop row) are computed on first touch and memoized,
/// and per-pair [`CtrRoute`]s run the *same* legacy search the dense table
/// stores — so every answer is bit-identical to the table's by
/// construction, a property the differential suite checks on every
/// built-in device. On top of that, a handful of landmark rows
/// (farthest-point sampled) provide ALT-style triangle-inequality lower
/// bounds that let lookahead scoring reject candidate SWAPs without
/// touching a fresh source row.
///
/// Memory is `O(landmarks · n + touched_sources · n)` instead of `O(n²)`:
/// routing a circuit that touches `k` distinct qubits costs `O(k · n)`.
pub struct DistanceOracle {
    device: Device,
    objective: RoutingObjective,
    n: usize,
    landmarks: Vec<usize>,
    landmark_hops: Vec<Vec<u32>>,
    landmark_neglog: Vec<Vec<f64>>,
    state: Mutex<OracleState>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DistanceOracle {
    /// Builds the oracle: landmark selection plus one BFS (and, under the
    /// fidelity objective with characterization data, one Dijkstra) per
    /// landmark — `O(landmarks · (V + E))`, never `O(n²)`.
    pub fn build(device: &Device, objective: RoutingObjective) -> DistanceOracle {
        let n = device.n_qubits();
        // Farthest-point sampling from qubit 0: each landmark maximizes
        // its hop distance to the chosen set (smallest index on ties),
        // spreading the landmarks toward the graph periphery where ALT
        // bounds are tightest.
        let mut landmarks: Vec<usize> = Vec::new();
        if n > 0 {
            landmarks.push(0);
            while landmarks.len() < ORACLE_LANDMARKS.min(n) {
                let dist = device.distances_from_set(&landmarks);
                let next = (0..n)
                    .filter(|q| !landmarks.contains(q))
                    .max_by_key(|&q| (dist[q].min(u32::MAX / 2 - 1), std::cmp::Reverse(q)));
                match next {
                    Some(q) if dist[q] > 0 => landmarks.push(q),
                    _ => break,
                }
            }
        }
        let landmark_hops: Vec<Vec<u32>> =
            landmarks.iter().map(|&l| device.distances_from(l)).collect();
        let landmark_neglog: Vec<Vec<f64>> =
            if objective == RoutingObjective::HighestFidelity && device.has_error_data() {
                landmarks.iter().map(|&l| neglog_row(device, l)).collect()
            } else {
                Vec::new()
            };
        DistanceOracle {
            device: device.clone(),
            objective,
            n,
            landmarks,
            landmark_hops,
            landmark_neglog,
            state: Mutex::new(OracleState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Register width the oracle serves.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// The objective per-pair routes minimize.
    pub fn objective(&self) -> RoutingObjective {
        self.objective
    }

    /// The landmark qubits backing the ALT lower bounds.
    pub fn landmarks(&self) -> &[usize] {
        &self.landmarks
    }

    /// Memoized-answer reuses since construction.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Fresh computations (rows or routes) since construction.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn hop_row_for(&self, src: usize) -> Arc<Vec<u32>> {
        let mut state = self.state.lock().expect("oracle state poisoned");
        if let Some(row) = state.hop_rows.get(&src) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return row.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let row = Arc::new(hop_row(&self.device, src));
        state.hop_rows.insert(src, row.clone());
        row
    }

    fn neglog_row_for(&self, src: usize) -> Arc<Vec<f64>> {
        let mut state = self.state.lock().expect("oracle state poisoned");
        if let Some(row) = state.neglog_rows.get(&src) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return row.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let row = Arc::new(neglog_row(&self.device, src));
        state.neglog_rows.insert(src, row.clone());
        row
    }

    /// The exact CTR route the legacy per-gate search (and hence the dense
    /// table) produces for this ordered pair, memoized per pair.
    ///
    /// # Errors
    ///
    /// The [`CompileError`] of the legacy search, cloned.
    pub fn route(&self, control: usize, target: usize) -> Result<Arc<CtrRoute>, CompileError> {
        {
            let state = self.state.lock().expect("oracle state poisoned");
            if let Some(cached) = state.routes.get(&(control, target)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return cached.clone();
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        // The search runs outside the lock (it can be O(V) on big maps).
        let result = ctr_route_with(&self.device, control, target, self.objective).map(Arc::new);
        let mut state = self.state.lock().expect("oracle state poisoned");
        state.routes.insert((control, target), result.clone());
        result
    }

    /// Undirected hop-count distance, or `None` when disconnected —
    /// identical to [`RoutingTable::hop_distance`].
    pub fn hop_distance(&self, a: usize, b: usize) -> Option<u32> {
        match self.hop_row_for(a)[b] {
            u32::MAX => None,
            d => Some(d),
        }
    }

    /// Negative-log-fidelity SWAP-path distance, or `None` when
    /// disconnected — identical to [`RoutingTable::neglog_distance`].
    pub fn neglog_distance(&self, a: usize, b: usize) -> Option<f64> {
        let d = self.neglog_row_for(a)[b];
        d.is_finite().then_some(d)
    }

    /// First step of a shortest hop path `a -> b` (ascending-neighbor
    /// tie-break) — identical to [`RoutingTable::next_hop`].
    pub fn next_hop(&self, a: usize, b: usize) -> Option<usize> {
        let row = {
            let state = self.state.lock().expect("oracle state poisoned");
            match state.next_hop_rows.get(&a) {
                Some(row) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    row.clone()
                }
                None => {
                    drop(state);
                    let hops = self.hop_row_for(a);
                    let row = Arc::new(next_hop_row(&self.device, a, &hops));
                    let mut state = self.state.lock().expect("oracle state poisoned");
                    state.next_hop_rows.insert(a, row.clone());
                    row
                }
            }
        };
        match row[b] {
            NO_HOP => None,
            q => Some(q),
        }
    }

    /// ALT triangle-inequality lower bound on the hop distance `a -> b`:
    /// `max_L |d(L, a) - d(L, b)|`. Always `<=` the true distance, so a
    /// candidate whose bound already exceeds a known score can be rejected
    /// without materializing a fresh BFS row.
    pub fn hop_lower_bound(&self, a: usize, b: usize) -> u32 {
        self.landmark_hops
            .iter()
            .map(|row| {
                let (da, db) = (row[a], row[b]);
                match (da < u32::MAX / 2, db < u32::MAX / 2) {
                    (true, true) => da.abs_diff(db),
                    (false, false) => 0,
                    _ => u32::MAX, // one side unreachable: truly infinite
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// ALT lower bound in the negative-log-fidelity metric, or `None` when
    /// the oracle carries no fidelity landmark rows (swap metric unused).
    ///
    /// The SWAP metric is a *quasi*-metric (orientation surcharges make
    /// `cost(a, b) != cost(b, a)`), so only the one-sided triangle bound
    /// `d(a, b) >= d(L, b) - d(L, a)` is valid — never the absolute
    /// difference the symmetric hop bound uses.
    pub fn neglog_lower_bound(&self, a: usize, b: usize) -> Option<f64> {
        if self.landmark_neglog.is_empty() {
            return None;
        }
        let mut best = 0.0f64;
        for row in &self.landmark_neglog {
            let (da, db) = (row[a], row[b]);
            let bound = match (da.is_finite(), db.is_finite()) {
                (true, true) => (db - da).max(0.0),
                // b unreachable from L while a is: a -> b is disconnected.
                (true, false) => f64::INFINITY,
                _ => 0.0,
            };
            best = best.max(bound);
        }
        Some(best)
    }

    /// Approximate resident bytes: landmark rows plus every memoized
    /// per-source row and per-pair route currently held.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let state = self.state.lock().expect("oracle state poisoned");
        size_of::<Self>()
            + self.landmark_hops.len() * self.n * size_of::<u32>()
            + self.landmark_neglog.len() * self.n * size_of::<f64>()
            + state.hop_rows.len() * self.n * size_of::<u32>()
            + state.next_hop_rows.len() * self.n * size_of::<usize>()
            + state.neglog_rows.len() * self.n * size_of::<f64>()
            + state
                .routes
                .values()
                .map(|r| match r {
                    Ok(route) => size_of::<CtrRoute>() + route.path.capacity() * size_of::<usize>(),
                    Err(_) => size_of::<CompileError>(),
                })
                .sum::<usize>()
    }
}

type OracleCell = Arc<OnceLock<Arc<DistanceOracle>>>;

static ROUTING_ORACLES: OnceLock<Mutex<LruMap<RoutingKey, OracleCell>>> = OnceLock::new();

/// Approximate LRU weight of an oracle at registration time: the landmark
/// rows it builds eagerly (memoized rows grow it later; the estimate is
/// deliberately the floor, not the ceiling).
fn oracle_bytes_estimate(n: usize) -> usize {
    ORACLE_LANDMARKS * n * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>()) + 4096
}

/// The shared sparse oracle for a device and objective, building it on
/// first use. Returns the oracle and whether it was reused from the
/// registry (`true`) or built by this call (`false`).
pub fn routing_oracle(device: &Device, objective: RoutingObjective) -> (Arc<DistanceOracle>, bool) {
    let key = (device.fingerprint(), objective_tag(objective));
    let registry = ROUTING_ORACLES
        .get_or_init(|| Mutex::new(LruMap::with_byte_budget(ROUTING_TABLE_CAP, ROUTING_BYTE_BUDGET)));
    let cell = {
        let mut map = registry.lock().expect("oracle registry poisoned");
        match map.get(&key) {
            Some(cell) => cell,
            None => {
                let cell: OracleCell = Arc::new(OnceLock::new());
                let evicted =
                    map.insert_weighted(key, cell.clone(), oracle_bytes_estimate(device.n_qubits()));
                m_oracle_evictions().add(evicted);
                cell
            }
        }
    };
    let mut built = false;
    let oracle = cell
        .get_or_init(|| {
            built = true;
            m_oracle_builds().inc();
            Arc::new(DistanceOracle::build(device, objective))
        })
        .clone();
    if !built {
        m_oracle_hits().inc();
    }
    (oracle, !built)
}

/// Either routing backend behind one handle: the dense table (small
/// devices) or the sparse oracle (large ones). Both answer identically;
/// only build cost and memory differ.
#[derive(Clone)]
pub enum RoutingLookup {
    /// Dense all-pairs table — `O(n²)` build, `O(1)` queries.
    Dense(Arc<RoutingTable>),
    /// Sparse per-source oracle — `O(landmarks · n)` build, memoized rows.
    Sparse(Arc<DistanceOracle>),
}

/// The routing backend for a device: dense below
/// [`SPARSE_ORACLE_MIN_QUBITS`], sparse at or above it. Returns the
/// backend and whether it was reused from its registry.
pub fn routing_lookup(device: &Device, objective: RoutingObjective) -> (RoutingLookup, bool) {
    if device.n_qubits() < SPARSE_ORACLE_MIN_QUBITS {
        let (table, reused) = routing_table(device, objective);
        (RoutingLookup::Dense(table), reused)
    } else {
        let (oracle, reused) = routing_oracle(device, objective);
        (RoutingLookup::Sparse(oracle), reused)
    }
}

// ---------------------------------------------------------------------------
// Layer 2: the decomposition memo.
// ---------------------------------------------------------------------------

type MctKey = (usize, usize, u8);

static MCT_TEMPLATES: OnceLock<Mutex<LruMap<MctKey, Arc<Vec<Gate>>>>> = OnceLock::new();

fn strategy_tag(strategy: DecomposeStrategy) -> u8 {
    match strategy {
        DecomposeStrategy::Exact => 0,
        DecomposeStrategy::RelativePhase => 1,
    }
}

/// The Barenco cascade for an `m`-control MCT with `spare_len` usable
/// spare lines, synthesized on canonical indices (controls `0..m`, target
/// `m`, spares `m+1..`): [`mct_decompose`](crate::decompose::mct_decompose)
/// is purely positional, so the cascade depends only on this shape.
/// Returns the template and whether it was served from the memo.
///
/// `spare_len` must already be clamped to the count the decomposition
/// uses (`min(spare.len(), m - 2)` — the V-chain never borrows more).
///
/// # Errors
///
/// [`CompileError::NoAncilla`] when `spare_len` is zero and `m >= 3`
/// (errors are not memoized; they are cheap to rediscover).
pub fn mct_template(
    m: usize,
    spare_len: usize,
    strategy: DecomposeStrategy,
) -> Result<(Arc<Vec<Gate>>, bool), CompileError> {
    let key = (m, spare_len, strategy_tag(strategy));
    let registry = MCT_TEMPLATES.get_or_init(|| Mutex::new(LruMap::new(MCT_TEMPLATE_CAP)));
    let mut map = registry.lock().expect("MCT template registry poisoned");
    m_decompose_lookups().inc();
    if let Some(template) = map.get(&key) {
        m_decompose_hits().inc();
        return Ok((template, true));
    }
    let controls: Vec<usize> = (0..m).collect();
    let spare: Vec<usize> = (m + 1..m + 1 + spare_len).collect();
    let gates = crate::decompose::mct_decompose(&controls, m, &spare, strategy)?;
    let template = Arc::new(gates);
    m_decompose_misses().inc();
    let evicted = map.insert(key, template.clone());
    m_decompose_evictions().add(evicted);
    Ok((template, false))
}

/// Instantiates a canonical MCT template onto concrete lines: canonical
/// index `i < controls.len()` maps to `controls[i]`, `controls.len()` to
/// `target`, and higher indices to `spare` in order. `Gate` constructors
/// re-normalize control order, so the result is identical to decomposing
/// on the concrete lines directly.
pub fn instantiate_mct_template(
    template: &[Gate],
    controls: &[usize],
    target: usize,
    spare: &[usize],
) -> Vec<Gate> {
    let m = controls.len();
    let map = |q: usize| -> usize {
        if q < m {
            controls[q]
        } else if q == m {
            target
        } else {
            spare[q - m - 1]
        }
    };
    template
        .iter()
        .map(|g| match g {
            Gate::Single { op, qubit } => Gate::single(*op, map(*qubit)),
            Gate::Cx { control, target } => Gate::cx(map(*control), map(*target)),
            Gate::Cz { control, target } => Gate::cz(map(*control), map(*target)),
            Gate::Swap { a, b } => Gate::swap(map(*a), map(*b)),
            Gate::Mct { controls, target } => {
                Gate::mct(controls.iter().map(|&c| map(c)).collect(), map(*target))
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Layer 3: the whole-compile cache.
// ---------------------------------------------------------------------------

static COMPILE_CACHE: OnceLock<Mutex<LruMap<u128, Arc<CompileResult>>>> = OnceLock::new();

fn compile_cache() -> &'static Mutex<LruMap<u128, Arc<CompileResult>>> {
    COMPILE_CACHE.get_or_init(|| Mutex::new(LruMap::new(COMPILE_CACHE_CAP)))
}

/// Looks up a memoized compile by its 128-bit content key, recording a
/// hit or miss in the global stats.
pub(crate) fn compile_cache_get(key: u128) -> Option<Arc<CompileResult>> {
    let mut map = compile_cache().lock().expect("compile cache poisoned");
    m_compile_lookups().inc();
    match map.get(&key) {
        Some(hit) => {
            m_compile_hits().inc();
            Some(hit)
        }
        None => {
            m_compile_misses().inc();
            None
        }
    }
}

/// Memoizes a successful compile under its content key.
pub(crate) fn compile_cache_insert(key: u128, result: Arc<CompileResult>) {
    let mut map = compile_cache().lock().expect("compile cache poisoned");
    m_compile_inserts().inc();
    let evicted = map.insert(key, result);
    m_compile_evictions().add(evicted);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_arch::devices;

    #[test]
    fn cache_mode_parses_and_names_round_trip() {
        for mode in CacheMode::ALL {
            assert_eq!(CacheMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(CacheMode::parse("disk"), None);
        assert_eq!(CacheMode::parse("off"), None, "retired");
        assert_eq!(CacheMode::choices(), "tables or mem");
        assert_eq!(CacheMode::default(), CacheMode::Tables);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let mut lru: LruMap<u8, u8> = LruMap::new(2);
        assert_eq!(lru.insert(1, 10), 0);
        assert_eq!(lru.insert(2, 20), 0);
        assert_eq!(lru.get(&1), Some(10)); // refresh 1; 2 is now stalest
        assert_eq!(lru.insert(3, 30), 1);
        assert_eq!(lru.get(&2), None, "2 was evicted");
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        // Overwriting an existing key never evicts.
        assert_eq!(lru.insert(1, 11), 0);
        assert_eq!(lru.get(&1), Some(11));
    }

    #[test]
    fn weighted_lru_evicts_until_the_byte_budget_holds() {
        // Count cap 8 but only 100 "bytes": three 40-byte entries never
        // coexist, and one oversized entry flushes everything else.
        let mut lru: LruMap<u8, u8> = LruMap::with_byte_budget(8, 100);
        assert_eq!(lru.insert_weighted(1, 10, 40), 0);
        assert_eq!(lru.insert_weighted(2, 20, 40), 0);
        assert_eq!(lru.insert_weighted(3, 30, 40), 1, "120 > 100 evicts one");
        assert_eq!(lru.get(&1), None, "1 was the stalest");
        assert_eq!(lru.get(&2), Some(20));
        // A single entry heavier than the whole budget is still admitted,
        // after evicting everything resident.
        assert_eq!(lru.insert_weighted(4, 40, 500), 2);
        assert_eq!(lru.get(&4), Some(40));
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&3), None);
        // Re-inserting an existing key replaces its weight, no eviction.
        assert_eq!(lru.insert_weighted(4, 41, 90), 0);
        assert_eq!(lru.insert_weighted(5, 50, 5), 0, "90 + 5 fits");
        assert_eq!(lru.get(&4), Some(41));
    }

    #[test]
    fn zero_weight_flood_still_respects_the_count_cap() {
        // Zero-weight entries never trip the byte budget; the count cap is
        // the only thing bounding them, and it must hold exactly.
        let mut lru: LruMap<u32, u32> = LruMap::with_byte_budget(16, 100);
        for k in 0..1000 {
            lru.insert_weighted(k, k, 0);
        }
        assert_eq!(lru.len(), 16);
        assert_eq!(lru.total_bytes(), 0);
        // The 16 most recent survive.
        for k in 984..1000 {
            assert_eq!(lru.get(&k), Some(k));
        }
    }

    #[test]
    fn duplicate_key_reinsert_never_evicts_and_keeps_bytes_consistent() {
        let mut lru: LruMap<u8, u8> = LruMap::with_byte_budget(4, 100);
        lru.insert_weighted(1, 10, 30);
        lru.insert_weighted(2, 20, 30);
        lru.insert_weighted(3, 30, 30);
        assert_eq!(lru.total_bytes(), 90);
        // Reinsert key 2 at the same weight, many times: the map is at
        // neither cap, totals must not drift, and nothing may be evicted.
        for _ in 0..100 {
            assert_eq!(lru.insert_weighted(2, 21, 30), 0);
        }
        assert_eq!(lru.total_bytes(), 90);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        // Reinsert at exactly the budget remainder: old weight is charged
        // off first, so 30 -> 40 fits (90 - 30 + 40 = 100) without eviction.
        assert_eq!(lru.insert_weighted(2, 22, 40), 0);
        assert_eq!(lru.total_bytes(), 100);
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn reinsert_on_a_count_full_map_does_not_evict() {
        let mut lru: LruMap<u8, u8> = LruMap::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        // Map is at cap; replacing a resident key holds the count constant
        // and must not pick a victim.
        assert_eq!(lru.insert(1, 11), 0);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&2), Some(20));
    }

    #[test]
    fn weight_shrink_on_reinsert_frees_budget_for_others() {
        let mut lru: LruMap<u8, u8> = LruMap::with_byte_budget(8, 100);
        lru.insert_weighted(1, 10, 90);
        // Shrink key 1 from 90 to 10 bytes; the freed 80 admit key 2.
        assert_eq!(lru.insert_weighted(1, 11, 10), 0);
        assert_eq!(lru.total_bytes(), 10);
        assert_eq!(lru.insert_weighted(2, 20, 80), 0);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.total_bytes(), 90);
    }

    #[test]
    fn oversized_reinsert_evicts_others_but_admits_the_entry() {
        let mut lru: LruMap<u8, u8> = LruMap::with_byte_budget(8, 100);
        lru.insert_weighted(1, 10, 40);
        lru.insert_weighted(2, 20, 40);
        // Growing key 1 past the whole budget evicts key 2 but still
        // admits the heavy replacement (same policy as fresh inserts).
        assert_eq!(lru.insert_weighted(1, 11, 500), 1);
        assert_eq!(lru.get(&1), Some(11));
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.total_bytes(), 500);
    }

    #[test]
    fn oracle_answers_match_the_dense_table_on_every_builtin() {
        for d in devices::all_devices() {
            for objective in [RoutingObjective::FewestSwaps, RoutingObjective::HighestFidelity] {
                let table = RoutingTable::build(&d, objective);
                let oracle = DistanceOracle::build(&d, objective);
                let n = d.n_qubits();
                // Sample every pair on small machines, a stride on qc96.
                let stride = if n <= 16 { 1 } else { 7 };
                for a in (0..n).step_by(stride) {
                    for b in (0..n).step_by(stride) {
                        assert_eq!(
                            table.hop_distance(a, b),
                            oracle.hop_distance(a, b),
                            "{}: hop {a}->{b}",
                            d.name()
                        );
                        assert_eq!(
                            table.next_hop(a, b),
                            oracle.next_hop(a, b),
                            "{}: next_hop {a}->{b}",
                            d.name()
                        );
                        assert_eq!(
                            table.neglog_distance(a, b),
                            oracle.neglog_distance(a, b),
                            "{}: neglog {a}->{b}",
                            d.name()
                        );
                        match (table.route(a, b), oracle.route(a, b)) {
                            (Ok(x), Ok(y)) => assert_eq!(*x, *y, "{}: route {a}->{b}", d.name()),
                            (Err(x), Err(y)) => assert_eq!(x, y, "{}: route {a}->{b}", d.name()),
                            (x, y) => panic!("{}: {a}->{b}: {x:?} vs {y:?}", d.name()),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_landmark_bounds_are_admissible() {
        for d in [devices::qc96(), devices::ibmqx3()] {
            let oracle = DistanceOracle::build(&d, RoutingObjective::HighestFidelity);
            assert!(!oracle.landmarks().is_empty());
            let n = d.n_qubits();
            for a in 0..n {
                for b in 0..n {
                    let lb = oracle.hop_lower_bound(a, b);
                    let exact = oracle.hop_distance(a, b).unwrap();
                    assert!(lb <= exact, "{}: hop lb {lb} > {exact} for {a}->{b}", d.name());
                }
            }
        }
        // Fidelity landmark rows exist only with characterization data.
        let plain = DistanceOracle::build(&devices::qc96(), RoutingObjective::HighestFidelity);
        assert_eq!(plain.neglog_lower_bound(0, 5), None);
        let calibrated = qsyn_arch::devices::lnn(64);
        let o = DistanceOracle::build(&calibrated, RoutingObjective::HighestFidelity);
        for a in 0..64 {
            let lb = o.neglog_lower_bound(a, 63 - a).unwrap();
            let exact = o.neglog_distance(a, 63 - a).unwrap_or(f64::INFINITY);
            assert!(lb <= exact + 1e-12, "neglog lb {lb} > {exact}");
        }
    }

    #[test]
    fn oracle_memoizes_rows_and_counts_hits() {
        let d = devices::ibmqx5();
        let oracle = DistanceOracle::build(&d, RoutingObjective::FewestSwaps);
        assert_eq!(oracle.hit_count(), 0);
        let _ = oracle.hop_distance(3, 9);
        let misses = oracle.miss_count();
        assert!(misses >= 1);
        let _ = oracle.hop_distance(3, 12); // same source row
        assert_eq!(oracle.miss_count(), misses, "row was memoized");
        assert!(oracle.hit_count() >= 1);
        assert!(oracle.approx_bytes() > 0);
    }

    #[test]
    fn routing_lookup_picks_dense_below_the_threshold_and_sparse_above() {
        let small = devices::qc96();
        assert!(small.n_qubits() < SPARSE_ORACLE_MIN_QUBITS);
        match routing_lookup(&small, RoutingObjective::FewestSwaps).0 {
            RoutingLookup::Dense(t) => assert_eq!(t.n_qubits(), 96),
            RoutingLookup::Sparse(_) => panic!("qc96 must stay on the dense fast path"),
        }
        let big = qsyn_arch::devices::lnn(SPARSE_ORACLE_MIN_QUBITS);
        match routing_lookup(&big, RoutingObjective::FewestSwaps).0 {
            RoutingLookup::Sparse(o) => assert_eq!(o.n_qubits(), SPARSE_ORACLE_MIN_QUBITS),
            RoutingLookup::Dense(_) => panic!("128-qubit device must route sparsely"),
        }
        // Second lookup reuses the registry entry.
        let (_, reused) = routing_lookup(&big, RoutingObjective::FewestSwaps);
        assert!(reused);
    }

    #[test]
    fn routing_table_matches_the_legacy_search_per_pair() {
        let d = devices::ibmqx4();
        let table = RoutingTable::build(&d, RoutingObjective::FewestSwaps);
        for c in 0..d.n_qubits() {
            for t in 0..d.n_qubits() {
                let legacy = ctr_route_with(&d, c, t, RoutingObjective::FewestSwaps);
                match (table.route(c, t), legacy) {
                    (Ok(a), Ok(b)) => assert_eq!(*a, b, "{c}->{t}"),
                    (Err(a), Err(b)) => assert_eq!(a, b, "{c}->{t}"),
                    (a, b) => panic!("{c}->{t}: table {a:?} vs legacy {b:?}"),
                }
            }
        }
    }

    #[test]
    fn routing_table_distance_matrices_are_consistent() {
        let d = devices::ibmqx3();
        let table = RoutingTable::build(&d, RoutingObjective::FewestSwaps);
        let n = d.n_qubits();
        for a in 0..n {
            assert_eq!(table.hop_distance(a, a), Some(0));
            assert_eq!(table.next_hop(a, a), None);
            assert_eq!(table.neglog_distance(a, a), Some(0.0));
            for b in 0..n {
                if a == b {
                    continue;
                }
                let hops = table.hop_distance(a, b).expect("ibmqx3 is connected");
                assert_eq!(hops, d.distance(a, b).unwrap());
                let step = table.next_hop(a, b).expect("connected pair has a hop");
                assert!(d.are_adjacent(a, step), "{a}->{b} via {step}");
                assert_eq!(table.hop_distance(step, b), Some(hops - 1));
                assert!(table.neglog_distance(a, b).unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn disconnected_pairs_have_no_distance() {
        let d = Device::from_coupling_map("disc", 4, &[(0, &[1]), (2, &[3])]);
        let table = RoutingTable::build(&d, RoutingObjective::FewestSwaps);
        assert_eq!(table.hop_distance(0, 3), None);
        assert_eq!(table.next_hop(0, 3), None);
        assert_eq!(table.neglog_distance(0, 3), None);
        assert_eq!(
            table.route(0, 3).unwrap_err(),
            CompileError::RouteNotFound {
                control: 0,
                target: 3
            }
        );
    }

    #[test]
    fn routing_registry_shares_one_table_per_device_and_objective() {
        let d = devices::ibmqx2();
        let (a, _) = routing_table(&d, RoutingObjective::FewestSwaps);
        let (b, reused) = routing_table(&d, RoutingObjective::FewestSwaps);
        assert!(Arc::ptr_eq(&a, &b), "same device, same table");
        assert!(reused, "second lookup is a registry hit");
        let (c, _) = routing_table(&d, RoutingObjective::HighestFidelity);
        assert!(!Arc::ptr_eq(&a, &c), "objectives get distinct tables");
    }

    #[test]
    fn mct_template_instantiation_equals_direct_decomposition() {
        // Scattered, unsorted operand layouts across both strategies and
        // both the V-chain and the split (scarce-ancilla) branch.
        let cases: [(&[usize], usize, &[usize]); 4] = [
            (&[7, 2, 5], 0, &[4]),            // m=3, split path
            (&[9, 1, 4, 6], 2, &[8, 0]),      // m=4, full V-chain
            (&[3, 8, 0, 5, 1], 9, &[2]),      // m=5, scarce
            (&[6, 0, 3, 9, 2], 4, &[8, 7, 1]) // m=5, full chain
        ];
        for strategy in [DecomposeStrategy::Exact, DecomposeStrategy::RelativePhase] {
            for (controls, target, spare) in cases {
                let m = controls.len();
                let eff = spare.len().min(m - 2);
                let direct =
                    crate::decompose::mct_decompose(controls, target, &spare[..eff], strategy)
                        .unwrap();
                let (template, _) = mct_template(m, eff, strategy).unwrap();
                let inst = instantiate_mct_template(&template, controls, target, &spare[..eff]);
                assert_eq!(inst, direct, "{controls:?} -> {target} ({strategy:?})");
            }
        }
    }

    #[test]
    fn mct_template_memo_hits_on_repeat() {
        // A deliberately unusual shape so parallel tests cannot have
        // pre-populated the key.
        let (_, hit_first) = mct_template(11, 2, DecomposeStrategy::Exact).unwrap();
        assert!(!hit_first, "first synthesis is a miss");
        let (_, hit_second) = mct_template(11, 2, DecomposeStrategy::Exact).unwrap();
        assert!(hit_second, "repeat shape is served from the memo");
    }

    #[test]
    fn mct_template_propagates_no_ancilla() {
        assert_eq!(
            mct_template(5, 0, DecomposeStrategy::Exact).unwrap_err(),
            CompileError::NoAncilla { controls: 5 }
        );
    }
}
