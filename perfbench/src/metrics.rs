//! The metric tables: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same names (a self-test keeps them in step);
//! README.md says what each one means and which layer should move it.

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("output_cost_eqn2", "cost"),
    ("verified_fraction", "fraction"),
];

/// Per-layer metrics, reported by every traced run (0 where a layer does
/// not run on the workload).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parse.busy_s", "s"),
    ("esop.busy_s", "s"),
    ("esop.cubes", "count"),
    ("place.busy_s", "s"),
    ("decompose.busy_s", "s"),
    ("decompose.gates_out", "count"),
    ("decompose.memo_hit_rate", "fraction"),
    ("route.busy_s", "s"),
    ("route.swaps", "count"),
    ("route.table_builds", "count"),
    ("route.oracle_hit_rate", "fraction"),
    ("optimize.busy_s", "s"),
    ("optimize.rounds", "count"),
    ("optimize.gates_removed", "count"),
    ("verify.busy_s", "s"),
    ("verify.share", "fraction"),
    ("verify.peak_nodes", "count"),
    ("verify.unique_nodes", "count"),
    ("verify.cache_lookups", "count"),
    ("verify.cache_hit_rate", "fraction"),
    ("verify.cache_evictions", "count"),
    ("verify.gc_runs", "count"),
    ("verify.max_support", "count"),
    ("verify.windows", "count"),
    ("emit.busy_s", "s"),
    ("emit.bytes", "bytes"),
    ("cache.compile_hit_rate", "fraction"),
    ("persist.writes", "count"),
    ("persist.hits", "count"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.gate_wait_ms_p50", "ms"),
    ("serve.compile_ms_p50", "ms"),
    ("serve.daemon_latency_ms_p50", "ms"),
    ("serve.delivery_wait_ms_p50", "ms"),
    ("stream.window_ms_p50", "ms"),
    ("traced_total_s", "s"),
    ("unattributed_s", "s"),
    ("attributed_share", "fraction"),
    ("trace.overhead_s", "s"),
    ("program.place_s", "s"),
    ("program.decompose_s", "s"),
    ("program.route_s", "s"),
    ("program.optimize_s", "s"),
    ("program.verify_s", "s"),
    ("process.sys_s", "s"),
];

/// The unit of a metric in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Self-time and counts of each layer, filled by the traced pipeline
/// (or, for serve, from the daemon's metrics). Layers that do not run
/// stay 0.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub parse_s: f64,
    pub esop_s: f64,
    pub esop_cubes: u64,
    pub place_s: f64,
    pub decompose_s: f64,
    pub decompose_gates_out: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub route_s: f64,
    pub route_swaps: u64,
    pub table_builds: u64,
    pub oracle_hits: u64,
    pub oracle_misses: u64,
    pub optimize_s: f64,
    pub optimize_rounds: u64,
    pub gates_removed: u64,
    pub verify_s: f64,
    pub verify_peak_nodes: u64,
    pub verify_unique_nodes: u64,
    pub verify_cache_lookups: u64,
    pub verify_cache_hits: u64,
    pub verify_cache_evictions: u64,
    pub verify_gc_runs: u64,
    pub verify_max_support: u64,
    pub verify_windows: u64,
    pub emit_s: f64,
    pub emit_bytes: u64,
    pub compile_hit_rate: f64,
    pub persist_writes: u64,
    pub persist_hits: u64,
    pub serve_queue_wait_ms: f64,
    pub serve_gate_wait_ms: f64,
    pub serve_compile_ms: f64,
    pub serve_daemon_latency_ms: f64,
    pub serve_delivery_wait_ms: f64,
    pub stream_window_ms: f64,
    /// Serve-closed client latency seconds attributed to the daemon's
    /// queue wait, compile and delivery wait (serve has no spans of its
    /// own; see README.md).
    pub serve_attributed_s: f64,
    /// Wall seconds of the traced work the layer times are shares of.
    pub traced_total_s: f64,
    /// Traced wall seconds minus the same work's untraced wall seconds.
    pub trace_overhead_s: f64,
    /// The program's own per-pass seconds (its `PassEvent`s or metrics
    /// histograms), printed beside the outside-in numbers.
    pub program_place_s: f64,
    pub program_decompose_s: f64,
    pub program_route_s: f64,
    pub program_optimize_s: f64,
    pub program_verify_s: f64,
    /// Kernel CPU seconds of the process doing the work over the whole
    /// run (page faults from allocation churn show here).
    pub process_sys_s: f64,
}

impl Layers {
    /// Seconds covered by layer spans.
    pub fn attributed_s(&self) -> f64 {
        self.parse_s
            + self.esop_s
            + self.place_s
            + self.decompose_s
            + self.route_s
            + self.optimize_s
            + self.verify_s
            + self.emit_s
            + self.serve_attributed_s
    }

    /// Folds one QMDD check's report into the verify counters.
    pub fn note_verify(&mut self, r: &qsyn_qmdd::EquivReport) {
        self.verify_peak_nodes = self.verify_peak_nodes.max(r.peak_nodes as u64);
        self.verify_unique_nodes = self.verify_unique_nodes.max(r.unique_nodes as u64);
        self.verify_cache_lookups += r.cache_lookups;
        self.verify_cache_hits += r.cache_hits;
        self.verify_cache_evictions += r.cache_evictions;
        self.verify_gc_runs += r.gc_runs;
    }

    /// Writes every per-layer metric into the report.
    pub fn report(&self, out: &mut crate::common::Report) {
        let ratio = |a: u64, b: u64| {
            if a + b == 0 {
                0.0
            } else {
                a as f64 / (a + b) as f64
            }
        };
        let share = |s: f64| {
            if self.traced_total_s > 0.0 {
                s / self.traced_total_s
            } else {
                0.0
            }
        };
        let attributed = self.attributed_s();
        let values = [
            ("parse.busy_s", self.parse_s),
            ("esop.busy_s", self.esop_s),
            ("esop.cubes", self.esop_cubes as f64),
            ("place.busy_s", self.place_s),
            ("decompose.busy_s", self.decompose_s),
            ("decompose.gates_out", self.decompose_gates_out as f64),
            (
                "decompose.memo_hit_rate",
                ratio(self.memo_hits, self.memo_misses),
            ),
            ("route.busy_s", self.route_s),
            ("route.swaps", self.route_swaps as f64),
            ("route.table_builds", self.table_builds as f64),
            (
                "route.oracle_hit_rate",
                ratio(self.oracle_hits, self.oracle_misses),
            ),
            ("optimize.busy_s", self.optimize_s),
            ("optimize.rounds", self.optimize_rounds as f64),
            ("optimize.gates_removed", self.gates_removed as f64),
            ("verify.busy_s", self.verify_s),
            ("verify.share", share(self.verify_s)),
            ("verify.peak_nodes", self.verify_peak_nodes as f64),
            ("verify.unique_nodes", self.verify_unique_nodes as f64),
            ("verify.cache_lookups", self.verify_cache_lookups as f64),
            (
                "verify.cache_hit_rate",
                ratio(
                    self.verify_cache_hits,
                    self.verify_cache_lookups - self.verify_cache_hits,
                ),
            ),
            ("verify.cache_evictions", self.verify_cache_evictions as f64),
            ("verify.gc_runs", self.verify_gc_runs as f64),
            ("verify.max_support", self.verify_max_support as f64),
            ("verify.windows", self.verify_windows as f64),
            ("emit.busy_s", self.emit_s),
            ("emit.bytes", self.emit_bytes as f64),
            ("cache.compile_hit_rate", self.compile_hit_rate),
            ("persist.writes", self.persist_writes as f64),
            ("persist.hits", self.persist_hits as f64),
            ("serve.queue_wait_ms_p50", self.serve_queue_wait_ms),
            ("serve.gate_wait_ms_p50", self.serve_gate_wait_ms),
            ("serve.compile_ms_p50", self.serve_compile_ms),
            ("serve.daemon_latency_ms_p50", self.serve_daemon_latency_ms),
            ("serve.delivery_wait_ms_p50", self.serve_delivery_wait_ms),
            ("stream.window_ms_p50", self.stream_window_ms),
            ("traced_total_s", self.traced_total_s),
            ("unattributed_s", self.traced_total_s - attributed),
            ("attributed_share", share(attributed)),
            ("trace.overhead_s", self.trace_overhead_s),
            ("program.place_s", self.program_place_s),
            ("program.decompose_s", self.program_decompose_s),
            ("program.route_s", self.program_route_s),
            ("program.optimize_s", self.program_optimize_s),
            ("program.verify_s", self.program_verify_s),
            ("process.sys_s", self.process_sys_s),
        ];
        for (name, value) in values {
            out.metric(name, value);
        }
    }
}
