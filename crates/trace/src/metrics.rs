//! Process-wide live metrics: named atomic counters, gauges, and
//! log-bucketed histograms behind a [`MetricsRegistry`].
//!
//! Trace events ([`crate::PassEvent`]) describe single compiles after the
//! fact; this module answers aggregate questions about a *running*
//! process — p99 request latency, queue depth, cache hit fractions —
//! without replaying a JSONL stream.
//!
//! Design constraints, in order:
//!
//! * **Zero-allocation hot path.** Recording into a [`Counter`],
//!   [`Gauge`], or [`Histogram`] is a handful of relaxed atomic adds on
//!   pre-registered handles. Registration (the only allocating step)
//!   happens once per metric name and is amortized behind `OnceLock`s:
//!   call sites declare their handles with [`crate::metric_handles!`], and the
//!   pass histograms are cached inside the registry itself.
//! * **One event→metric mapping.** [`MetricsRegistry::record_pass`] is
//!   the only code that turns a [`PassEvent`] into metrics. The compiler
//!   feeds it every event it builds and `qsyn report` feeds it every
//!   event of a replayed trace, so live metrics and trace replays cannot
//!   disagree.
//! * **Deterministic, mergeable snapshots.** Histogram bucket bounds are
//!   a fixed log-linear base-2 grid ([`bucket_index`] / [`bucket_bounds`]),
//!   so two snapshots taken on different machines — or the same machine at
//!   different times — share bucket boundaries and can be merged or
//!   differenced bucket-wise ([`HistogramSnapshot::merge`],
//!   [`HistogramSnapshot::since`]).
//! * **Two exposition formats.** A stable JSON document
//!   ([`MetricsSnapshot::to_json`], schema [`SCHEMA`]) for files and the
//!   serve protocol, and a Prometheus-style text page
//!   ([`MetricsSnapshot::render_prometheus`]) for scrape-shaped consumers.
//!
//! The registry is available process-wide via [`global`]; library code
//! records into it unconditionally (the cost of an unobserved metric is
//! a few atomic adds), and surfaces — `qsyn serve --metrics-file`, the
//! `{"cmd":"metrics"}` protocol row, `qsyn report` — snapshot it on
//! demand.

use crate::event::route_strategy_index;
use crate::json::Value;
use crate::{Pass, PassEvent, ROUTE_STRATEGY_NAMES};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Schema tag stamped into every JSON snapshot.
pub const SCHEMA: &str = "qsyn-metrics/1";

/// Number of histogram buckets: indexes `0..=3` hold the exact values
/// 0–3; above that each power-of-two octave is split into 4 sub-buckets
/// (`SUB_BITS` = 2), up to the top octave of `u64`.
pub const BUCKETS: usize = 252;

/// Maps a recorded value to its bucket index.
///
/// Values below 4 get exact buckets; a value with most-significant bit
/// `m` lands in octave `m`, sub-bucket = the next two bits below the
/// MSB. Bucket bounds are therefore fixed for all time: the relative
/// width of any bucket is at most 25% of its lower bound, which bounds
/// the error of any percentile estimate read back from the histogram.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    (msb - 1) * 4 + ((v >> (msb - 2)) & 3) as usize
}

/// Inclusive `(lower, upper)` value bounds of bucket `i`.
///
/// Inverse of [`bucket_index`]: every `v` satisfies
/// `bounds.0 <= v <= bounds.1` for `i = bucket_index(v)`, and
/// consecutive buckets tile `0..=u64::MAX` without gaps or overlap.
#[inline]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i < 4 {
        return (i as u64, i as u64);
    }
    let msb = i / 4 + 1;
    let sub = (i % 4) as u64;
    let width = 1u64 << (msb - 2);
    let lower = (1u64 << msb) + sub * width;
    (lower, lower + (width - 1))
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a level that can move both ways (queue depth,
/// in-flight jobs, busy workers).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts 1.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, n: i64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log-bucketed histogram of `u64` samples (latencies in
/// microseconds, sizes in bytes, …).
///
/// Recording is two relaxed `fetch_add`s; there is no per-sample
/// allocation and no lock. The bucket grid is fixed (see
/// [`bucket_index`]), so snapshots are deterministic and mergeable.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a wall-clock duration in microseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records a duration given in (fractional) seconds, as microseconds.
    #[inline]
    pub fn record_seconds(&self, seconds: f64) {
        self.record((seconds * 1e6).max(0.0) as u64);
    }

    /// A point-in-time copy. The reported `count` is derived from the
    /// bucket reads themselves, so `count == Σ bucket counts` holds by
    /// construction even when sampled concurrently with writers.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                count += c;
                buckets.push((i as u32, c));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A frozen histogram: total count, value sum, and the sparse non-empty
/// buckets as `(bucket index, count)` pairs sorted by index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total recorded samples (equals the sum of bucket counts).
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper bound (inclusive) of the bucket holding the `q`-quantile
    /// sample, or `None` when empty.
    ///
    /// The true quantile lies inside that bucket, so the estimate is off
    /// by at most the bucket width — ≤ 25% of the value (see
    /// [`bucket_index`]).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Some(bucket_bounds(i as usize).1);
            }
        }
        // Unreachable when count == Σ bucket counts; fall back to the
        // last bucket's bound for defensively tolerated inconsistency.
        self.buckets
            .last()
            .map(|&(i, _)| bucket_bounds(i as usize).1)
    }

    /// Sums `other` into `self` bucket-wise. Because bucket bounds are
    /// fixed, merging snapshots is exact: the result equals a histogram
    /// that recorded both sample streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        let mut merged: Vec<(u32, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }

    /// The bucket-wise delta `self - earlier` (counts saturate at zero),
    /// for differencing two snapshots of the same cumulative histogram.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for &(i, c) in &self.buckets {
            let before = earlier
                .buckets
                .binary_search_by_key(&i, |&(bi, _)| bi)
                .map(|k| earlier.buckets[k].1)
                .unwrap_or(0);
            let d = c.saturating_sub(before);
            if d > 0 {
                count += d;
                buckets.push((i, d));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            buckets,
        }
    }

    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("count".to_string(), Value::Num(self.count as f64)),
            ("sum".to_string(), Value::Num(self.sum as f64)),
            (
                "buckets".to_string(),
                Value::Arr(
                    self.buckets
                        .iter()
                        .map(|&(i, c)| Value::Arr(vec![Value::Num(i as f64), Value::Num(c as f64)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let count = num_field(v, "count")? as u64;
        let sum = num_field(v, "sum")? as u64;
        let Some(Value::Arr(items)) = v.get("buckets") else {
            return Err("histogram is missing its buckets array".to_string());
        };
        let mut buckets = Vec::with_capacity(items.len());
        for item in items {
            let Value::Arr(pair) = item else {
                return Err("histogram bucket is not an [index, count] pair".to_string());
            };
            match pair.as_slice() {
                [Value::Num(i), Value::Num(c)] => buckets.push((*i as u32, *c as u64)),
                _ => return Err("histogram bucket is not an [index, count] pair".to_string()),
            }
        }
        Ok(HistogramSnapshot {
            count,
            sum,
            buckets,
        })
    }
}

fn num_field(v: &Value, name: &str) -> Result<f64, String> {
    match v.get(name) {
        Some(Value::Num(n)) => Ok(*n),
        _ => Err(format!("missing or non-numeric field `{name}`")),
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// Handles are `Arc`-shared: the first `counter("x")` call registers the
/// metric, later calls return the same instance, so independent modules
/// can safely record into the same name.
pub struct MetricsRegistry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
    /// `pass.<name>_us` handles, in [`Pass::FIG2_ORDER`].
    pass_us: [OnceLock<Arc<Histogram>>; PASSES],
    /// `route.<strategy>_us` handles, in [`ROUTE_STRATEGY_NAMES`] order.
    route_us: [OnceLock<Arc<Histogram>>; STRATEGIES],
}

const PASSES: usize = Pass::FIG2_ORDER.len();
const STRATEGIES: usize = ROUTE_STRATEGY_NAMES.len();

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub const fn new() -> Self {
        MetricsRegistry {
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
            pass_us: [const { OnceLock::new() }; PASSES],
            route_us: [const { OnceLock::new() }; STRATEGIES],
        }
    }

    fn get_or_insert<T: Default>(list: &Mutex<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
        let mut list = list.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, v)) = list.iter().find(|(n, _)| n == name) {
            return Arc::clone(v);
        }
        let v = Arc::new(T::default());
        list.push((name.to_string(), Arc::clone(&v)));
        v
    }

    /// The counter registered under `name` (registering it on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, name)
    }

    /// The gauge registered under `name` (registering it on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::get_or_insert(&self.gauges, name)
    }

    /// The histogram registered under `name` (registering it on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::get_or_insert(&self.histograms, name)
    }

    /// Records one pass event: its seconds go into `pass.<name>_us`, and
    /// a route event's also into `route.<strategy>_us` when it carries a
    /// known `strategy` tag. Compile-cache replays (`cache_hit = 1`) did
    /// no work and are skipped.
    ///
    /// This is the only place pass events become metrics: the compiler
    /// calls it on [`global`] for every event it builds, traced or not,
    /// and `qsyn report` calls it on a fresh registry for every event of a
    /// trace file.
    pub fn record_pass(&self, e: &PassEvent) {
        if e.counter("cache_hit") == Some(1.0) {
            return;
        }
        let i = Pass::FIG2_ORDER
            .iter()
            .position(|p| *p == e.pass)
            .expect("FIG2_ORDER lists every pass");
        self.pass_us[i]
            .get_or_init(|| self.histogram(&format!("pass.{}_us", e.pass.name())))
            .record_seconds(e.seconds);
        if e.pass != Pass::Route {
            return;
        }
        if let Some(i) = e.counter("strategy").and_then(route_strategy_index) {
            self.route_us[i]
                .get_or_init(|| self.histogram(&format!("route.{}_us", ROUTE_STRATEGY_NAMES[i])))
                .record_seconds(e.seconds);
        }
    }

    /// A deterministic point-in-time snapshot: every registered metric,
    /// sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = {
            let list = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            list.iter().map(|(n, c)| (n.clone(), c.get())).collect()
        };
        let mut gauges: Vec<(String, i64)> = {
            let list = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
            list.iter().map(|(n, g)| (n.clone(), g.get())).collect()
        };
        let mut histograms: Vec<(String, HistogramSnapshot)> = {
            let list = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
            list.iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect()
        };
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The process-wide registry every `qsyn` layer records into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: MetricsRegistry = MetricsRegistry::new();
    &GLOBAL
}

/// Declares cached accessors for metrics in the [`global`] registry.
///
/// Each `fn name() -> Kind = "metric.name";` item expands to a function
/// returning `&'static Kind`, where `Kind` is [`Counter`], [`Gauge`] or
/// [`Histogram`]. The first call registers the metric and caches the
/// handle in a `OnceLock`, so every later bump is a few relaxed atomic
/// ops. This is the one way code outside this crate holds a metric
/// handle.
///
/// ```
/// qsyn_trace::metric_handles! {
///     fn m_requests() -> Counter = "doc.requests";
///     pub(crate) fn m_latency() -> Histogram = "doc.latency_us";
/// }
///
/// m_requests().inc();
/// m_latency().record(42);
/// let snap = qsyn_trace::metrics::global().snapshot();
/// assert_eq!(snap.counter("doc.requests"), Some(1));
/// assert_eq!(snap.histogram("doc.latency_us").unwrap().count, 1);
/// ```
#[macro_export]
macro_rules! metric_handles {
    (@register Counter, $metric:literal) => {
        $crate::metrics::global().counter($metric)
    };
    (@register Gauge, $metric:literal) => {
        $crate::metrics::global().gauge($metric)
    };
    (@register Histogram, $metric:literal) => {
        $crate::metrics::global().histogram($metric)
    };
    ($($(#[$attr:meta])* $vis:vis fn $name:ident() -> $kind:ident = $metric:literal;)*) => {
        $(
            $(#[$attr])*
            $vis fn $name() -> &'static $crate::metrics::$kind {
                static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::$kind>> =
                    ::std::sync::OnceLock::new();
                CELL.get_or_init(|| $crate::metric_handles!(@register $kind, $metric))
            }
        )*
    };
}

/// A frozen view of a registry: all metrics, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every gauge, ascending by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, ascending by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// The gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// The delta `self - earlier`: counters and histogram buckets are
    /// differenced (saturating), gauges keep their current level.
    /// Metrics absent from `earlier` pass through unchanged; zero deltas
    /// are dropped.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(n, v)| {
                let d = v.saturating_sub(earlier.counter(n).unwrap_or(0));
                (d > 0).then(|| (n.clone(), d))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(n, h)| {
                let d = match earlier.histogram(n) {
                    Some(e) => h.since(e),
                    None => h.clone(),
                };
                (d.count > 0).then(|| (n.clone(), d))
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Sums `other` into `self` (counters and gauges add, histograms
    /// merge bucket-wise), for aggregating snapshots from several
    /// processes or runs.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (n, v) in &other.counters {
            match self.counters.binary_search_by(|(sn, _)| sn.as_str().cmp(n)) {
                Ok(i) => self.counters[i].1 += v,
                Err(i) => self.counters.insert(i, (n.clone(), *v)),
            }
        }
        for (n, v) in &other.gauges {
            match self.gauges.binary_search_by(|(sn, _)| sn.as_str().cmp(n)) {
                Ok(i) => self.gauges[i].1 += v,
                Err(i) => self.gauges.insert(i, (n.clone(), *v)),
            }
        }
        for (n, h) in &other.histograms {
            match self
                .histograms
                .binary_search_by(|(sn, _)| sn.as_str().cmp(n))
            {
                Ok(i) => self.histograms[i].1.merge(h),
                Err(i) => self.histograms.insert(i, (n.clone(), h.clone())),
            }
        }
    }

    /// The stable JSON document (schema [`SCHEMA`]).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(SCHEMA.to_string())),
            (
                "counters".to_string(),
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Value::Obj(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Value::Obj(
                    self.histograms
                        .iter()
                        .map(|(n, h)| (n.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a snapshot back from its JSON document, rejecting schema
    /// mismatches and malformed sections.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        match v.get("schema") {
            Some(Value::Str(s)) if s == SCHEMA => {}
            Some(Value::Str(s)) => {
                return Err(format!("snapshot schema is `{s}`, expected `{SCHEMA}`"))
            }
            _ => return Err("snapshot has no `schema` string".to_string()),
        }
        let section = |name: &str| -> Result<Vec<(String, Value)>, String> {
            match v.get(name) {
                Some(Value::Obj(entries)) => Ok(entries.clone()),
                None => Err(format!("snapshot has no `{name}` object")),
                Some(_) => Err(format!("snapshot `{name}` is not an object")),
            }
        };
        let mut counters = Vec::new();
        for (n, val) in section("counters")? {
            match val {
                Value::Num(x) if x >= 0.0 && x.fract() == 0.0 => counters.push((n, x as u64)),
                _ => return Err(format!("counter `{n}` is not a non-negative integer")),
            }
        }
        let mut gauges = Vec::new();
        for (n, val) in section("gauges")? {
            match val {
                Value::Num(x) if x.fract() == 0.0 => gauges.push((n, x as i64)),
                _ => return Err(format!("gauge `{n}` is not an integer")),
            }
        }
        let mut histograms = Vec::new();
        for (n, val) in section("histograms")? {
            let h =
                HistogramSnapshot::from_json(&val).map_err(|e| format!("histogram `{n}`: {e}"))?;
            histograms.push((n, h));
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }

    /// Renders the snapshot as a Prometheus-style text exposition page:
    /// `qsyn_`-prefixed underscored names, cumulative `le` buckets, and
    /// `_sum`/`_count` series per histogram.
    pub fn render_prometheus(&self) -> String {
        fn mangle(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 5);
            out.push_str("qsyn_");
            for ch in name.chars() {
                out.push(if ch.is_ascii_alphanumeric() { ch } else { '_' });
            }
            out
        }
        let mut page = String::new();
        for (n, v) in &self.counters {
            let m = mangle(n);
            page.push_str(&format!("# TYPE {m} counter\n{m} {v}\n"));
        }
        for (n, v) in &self.gauges {
            let m = mangle(n);
            page.push_str(&format!("# TYPE {m} gauge\n{m} {v}\n"));
        }
        for (n, h) in &self.histograms {
            let m = mangle(n);
            page.push_str(&format!("# TYPE {m} histogram\n"));
            let mut cumulative = 0u64;
            for &(i, c) in &h.buckets {
                cumulative += c;
                let le = bucket_bounds(i as usize).1;
                page.push_str(&format!("{m}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            page.push_str(&format!(
                "{m}_bucket{{le=\"+Inf\"}} {count}\n{m}_sum {sum}\n{m}_count {count}\n",
                count = h.count,
                sum = h.sum,
            ));
        }
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn buckets_tile_the_value_range_without_gaps() {
        // Every bucket's upper bound + 1 is the next bucket's lower bound.
        for i in 0..BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (next_lo, _) = bucket_bounds(i + 1);
            assert_eq!(hi + 1, next_lo, "gap or overlap after bucket {i}");
        }
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn bounds_invert_index() {
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lower bound of {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of {i}");
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for i in 4..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            // width / lower ≤ 1/4 ⇒ percentile error ≤ 25%.
            assert!((hi - lo) as f64 / lo as f64 <= 0.25, "bucket {i} too wide");
        }
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::default();
        for v in [1u64, 10, 100, 1000, 1000, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.count, s.buckets.iter().map(|&(_, c)| c).sum::<u64>());
        assert_eq!(s.sum, 12_111);
        // p50 is the 3rd sample (100); the estimate is the bucket's upper
        // bound, within 25% above the true value.
        let p50 = s.quantile(0.5).unwrap();
        assert!((100..=125).contains(&p50), "p50 = {p50}");
        let p100 = s.quantile(1.0).unwrap();
        assert!((10_000..=12_500).contains(&p100), "p100 = {p100}");
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (a, b, both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in [3u64, 7, 1_000_000] {
            a.record(v);
            both.record(v);
        }
        for v in [7u64, 8, 9] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn since_recovers_the_delta() {
        let h = Histogram::default();
        h.record(5);
        h.record(500);
        let before = h.snapshot();
        h.record(500);
        h.record(50_000);
        let delta = h.snapshot().since(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 50_500);
    }

    #[test]
    fn registry_snapshot_is_sorted_and_shared() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(2);
        reg.counter("a.first").inc();
        reg.counter("z.last").inc(); // same handle by name
        reg.gauge("depth").set(4);
        reg.histogram("lat").record(10);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".to_string(), 1), ("z.last".to_string(), 3)]
        );
        assert_eq!(snap.gauge("depth"), Some(4));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.requests").add(12);
        reg.gauge("serve.queue_depth").set(-1);
        let h = reg.histogram("serve.latency_us");
        for v in [1u64, 2, 4, 1024, 1_048_576] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let text = snap.to_json().to_string();
        let parsed = crate::json::parse(&text).expect("snapshot renders valid JSON");
        let back = MetricsSnapshot::from_json(&parsed).expect("snapshot parses back");
        assert_eq!(back, snap);
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_bad_counters() {
        let bad_schema = crate::json::parse(r#"{"schema":"other/9"}"#).unwrap();
        assert!(MetricsSnapshot::from_json(&bad_schema)
            .unwrap_err()
            .contains("schema"));
        let bad_counter = crate::json::parse(
            r#"{"schema":"qsyn-metrics/1","counters":{"x":-1},"gauges":{},"histograms":{}}"#,
        )
        .unwrap();
        assert!(MetricsSnapshot::from_json(&bad_counter)
            .unwrap_err()
            .contains("non-negative"));
    }

    #[test]
    fn prometheus_page_has_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.requests").add(3);
        let h = reg.histogram("pass.route_us");
        h.record(10);
        h.record(20);
        let page = reg.snapshot().render_prometheus();
        assert!(
            page.contains("# TYPE qsyn_serve_requests counter"),
            "{page}"
        );
        assert!(page.contains("qsyn_serve_requests 3"), "{page}");
        assert!(
            page.contains("qsyn_pass_route_us_bucket{le=\"+Inf\"} 2"),
            "{page}"
        );
        assert!(page.contains("qsyn_pass_route_us_count 2"), "{page}");
        assert!(page.contains("qsyn_pass_route_us_sum 30"), "{page}");
    }

    #[test]
    fn record_pass_maps_events_and_skips_replays() {
        use crate::{route_strategy_tag, Span, StageSnapshot};
        let event = |pass, counters: &[(&str, f64)]| {
            let mut span = Span::new(pass);
            for &(k, v) in counters {
                span.counter(k, v);
            }
            let snap = StageSnapshot::default();
            span.finish(0.002, snap, snap, 0.0, 0.0)
        };
        let lookahead = route_strategy_tag("lookahead").unwrap();
        let reg = MetricsRegistry::new();
        reg.record_pass(&event(Pass::Place, &[]));
        reg.record_pass(&event(Pass::Route, &[("strategy", lookahead)]));
        reg.record_pass(&event(Pass::Route, &[("strategy", 99.0)]));
        // A compile-cache replay did no work: no sample anywhere.
        let replay = [("strategy", lookahead), ("cache_hit", 1.0)];
        reg.record_pass(&event(Pass::Route, &replay));
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("pass.place_us").unwrap().count, 1);
        assert_eq!(snap.histogram("pass.route_us").unwrap().count, 2);
        let per_strategy = snap.histogram("route.lookahead_us").unwrap();
        assert_eq!((per_strategy.count, per_strategy.sum), (1, 2000));
        // Unknown tags add no per-strategy histogram; unseen passes none.
        let names: Vec<&str> = snap.histograms.iter().map(|(n, _)| n.as_str()).collect();
        let expected = ["pass.place_us", "pass.route_us", "route.lookahead_us"];
        assert_eq!(names, expected);
    }

    #[test]
    fn snapshot_since_drops_zero_deltas() {
        let reg = MetricsRegistry::new();
        reg.counter("stable").add(5);
        reg.counter("moving").add(1);
        let before = reg.snapshot();
        reg.counter("moving").add(2);
        let delta = reg.snapshot().since(&before);
        assert_eq!(delta.counter("moving"), Some(2));
        assert_eq!(delta.counter("stable"), None);
    }
}
