//! The end-to-end technology-dependent synthesis pipeline (paper Fig. 2,
//! back-end).
//!
//! ```text
//! input circuit (technology-independent)
//!   -> placement onto device qubits          (identity, as in the paper,
//!                                             or greedy — future-work ext.)
//!   -> generalized-Toffoli decomposition     (Barenco)
//!   -> Toffoli/CZ/SWAP -> Clifford+T + CNOT  (Nielsen & Chuang)
//!   -> CNOT legalization                     (Fig. 6 reversal, CTR reroute)
//!   -> local optimization                    (until the cost function
//!                                             stops improving)
//!   -> QMDD formal verification              (output == specification)
//! ```

use crate::budget::{BudgetResource, CompileBudget, VerifyMode};
use crate::cache::{CacheMode, RoutingLookup};
use crate::decompose::{decompose_circuit_memo, DecomposeCounters, DecomposeStrategy};
use crate::error::CompileError;
use crate::optimize::{optimize_bounded, OptimizeConfig, OptimizeCounters};
use crate::place::{place, Placement, PlacementStrategy};
use crate::route::RoutingObjective;
use crate::strategy::{RouteOutcome, RouteRequest, RouteStrategyKind};
use qsyn_arch::{CostModel, Device, TransmonCost};
use qsyn_circuit::{Circuit, CircuitStats};
use qsyn_qmdd::{
    miter_support, try_equivalent, try_equivalent_miter, try_equivalent_miter_on_batched,
    EquivBudget, EquivBudgetError, DEFAULT_MITER_BATCH,
};
use qsyn_trace::{CompileMetrics, Pass, PassEvent, Span, StageSnapshot, TraceSink, Verdict};
use std::sync::{Arc, Condvar, Mutex};

/// Which formal equivalence check to run on the compiled output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verification {
    /// Skip verification (for benchmarking the synthesis stages alone).
    None,
    /// Build both QMDDs and compare canonical root edges (the paper's
    /// method).
    Canonical,
    /// Interleaved miter `U_out * U_spec^dagger = I`; scales to very wide
    /// registers.
    Miter,
    /// Canonical up to 16 device qubits, miter beyond.
    #[default]
    Auto,
}

/// Whether (and how) the local optimization stage runs.
///
/// Converts from the values callers already have: `bool` (on/off with the
/// default families), an [`OptimizeConfig`] (ablation experiments), or an
/// `Option<OptimizeConfig>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Optimization {
    /// Skip the optimization stage entirely.
    Disabled,
    /// Run the configured optimization families until cost stops improving.
    Enabled(OptimizeConfig),
}

impl Optimization {
    fn default_enabled() -> Self {
        Optimization::Enabled(OptimizeConfig::default())
    }

    fn config(self) -> Option<OptimizeConfig> {
        match self {
            Optimization::Disabled => None,
            Optimization::Enabled(cfg) => Some(cfg),
        }
    }
}

impl Default for Optimization {
    fn default() -> Self {
        Optimization::default_enabled()
    }
}

impl From<bool> for Optimization {
    fn from(on: bool) -> Self {
        if on {
            Optimization::default_enabled()
        } else {
            Optimization::Disabled
        }
    }
}

impl From<OptimizeConfig> for Optimization {
    fn from(cfg: OptimizeConfig) -> Self {
        Optimization::Enabled(cfg)
    }
}

impl From<Option<OptimizeConfig>> for Optimization {
    fn from(cfg: Option<OptimizeConfig>) -> Self {
        cfg.map_or(Optimization::Disabled, Optimization::Enabled)
    }
}

/// The technology-dependent quantum logic synthesis tool.
///
/// # Examples
///
/// ```
/// use qsyn_arch::devices;
/// use qsyn_circuit::Circuit;
/// use qsyn_core::Compiler;
/// use qsyn_gate::Gate;
///
/// let mut spec = Circuit::new(3);
/// spec.push(Gate::toffoli(0, 1, 2));
///
/// let compiler = Compiler::new(devices::ibmqx2());
/// let result = compiler.compile(&spec)?;
/// assert!(result.optimized.is_technology_ready());
/// assert_eq!(result.verified, Some(true));
/// # Ok::<(), qsyn_core::CompileError>(())
/// ```
pub struct Compiler {
    device: Device,
    cost: Box<dyn CostModel>,
    placement: PlacementStrategy,
    routing: RoutingObjective,
    strategy: RouteStrategyKind,
    decompose: DecomposeStrategy,
    verification: Verification,
    optimization: Optimization,
    budget: CompileBudget,
    cache: CacheMode,
    disk: Option<Arc<crate::persist::DiskCache>>,
    trace: Option<Arc<dyn TraceSink>>,
    job: Option<u64>,
    stream_verify_jobs: usize,
    #[cfg(feature = "fault-injection")]
    inject: Option<crate::budget::FaultSpec>,
}

impl std::fmt::Debug for Compiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compiler")
            .field("device", &self.device.name())
            .field("cost", &self.cost.name())
            .field("placement", &self.placement)
            .field("strategy", &self.strategy)
            .field("verification", &self.verification)
            .field("optimize", &self.optimization)
            .field("cache", &self.cache)
            .field("traced", &self.trace.is_some())
            .finish()
    }
}

impl Compiler {
    /// Creates a compiler for a device with the paper's defaults: Eqn. 2
    /// cost model, identity placement, optimization on, automatic
    /// verification.
    pub fn new(device: Device) -> Self {
        Compiler {
            device,
            cost: Box::new(TransmonCost::default()),
            placement: PlacementStrategy::Identity,
            routing: RoutingObjective::FewestSwaps,
            strategy: RouteStrategyKind::Ctr,
            decompose: DecomposeStrategy::Exact,
            verification: Verification::Auto,
            optimization: Optimization::default_enabled(),
            budget: CompileBudget::default(),
            cache: CacheMode::default(),
            disk: None,
            trace: None,
            job: None,
            stream_verify_jobs: 1,
            #[cfg(feature = "fault-injection")]
            inject: None,
        }
    }

    /// Verifies [`Compiler::compile_stream`]'s completed windows on a
    /// pool of `jobs` workers, pipelined behind the following windows'
    /// stages (`<= 1`, the default, verifies inline). The pool engages
    /// only under [`VerifyMode::Degrade`]; Strict mode always verifies
    /// inline so it can abort before a failing window is emitted.
    pub fn with_stream_verify_jobs(mut self, jobs: usize) -> Self {
        self.stream_verify_jobs = jobs;
        self
    }

    /// Bounds this compiler's resource usage (wall clock, QMDD nodes,
    /// optimizer rounds, routing SWAPs) — see [`CompileBudget`]. The
    /// default is unlimited.
    pub fn with_budget(mut self, budget: CompileBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The active resource budget.
    pub fn budget(&self) -> &CompileBudget {
        &self.budget
    }

    /// Selects the caching layers (see [`CacheMode`]). The shared routing
    /// tables and decomposition memo — both transparent, byte-identical
    /// accelerations — are always on; `Mem` adds whole-result compile
    /// memoization keyed by the structural hash of
    /// `(circuit, device, cost model, options, budget)`.
    pub fn with_cache(mut self, cache: CacheMode) -> Self {
        self.cache = cache;
        self
    }

    /// The active cache mode.
    pub fn cache(&self) -> CacheMode {
        self.cache
    }

    /// Attaches the on-disk compile-cache tier (see [`crate::persist`]).
    /// Active only under [`CacheMode::Mem`]: on an in-memory miss the
    /// directory is consulted (a validated entry replays exactly like a
    /// memory hit and repopulates the in-memory cache), and every
    /// memoizable fresh result is written back atomically. Corrupted
    /// entries are quarantined and recomputed, never trusted.
    pub fn with_disk_cache(mut self, disk: Arc<crate::persist::DiskCache>) -> Self {
        self.disk = Some(disk);
        self
    }

    /// The attached disk cache, if any.
    pub fn disk_cache(&self) -> Option<&Arc<crate::persist::DiskCache>> {
        self.disk.as_ref()
    }

    /// Arms a deliberate fault that fires at the start of one pass —
    /// exercises sweep fault isolation and budget recovery paths in tests
    /// and CI. Requires the `fault-injection` cargo feature.
    #[cfg(feature = "fault-injection")]
    pub fn with_fault_injection(mut self, spec: crate::budget::FaultSpec) -> Self {
        self.inject = Some(spec);
        self
    }

    /// Selects how generalized Toffolis are lowered (exact Clifford+T
    /// chains, as in the paper, or paired relative-phase chains with about
    /// half the T-count).
    pub fn with_decompose_strategy(mut self, strategy: DecomposeStrategy) -> Self {
        self.decompose = strategy;
        self
    }

    /// Selects the CTR routing objective (fewest swaps, as in the paper,
    /// or highest fidelity using device characterization data).
    pub fn with_routing(mut self, routing: RoutingObjective) -> Self {
        self.routing = routing;
        self
    }

    /// Selects the routing strategy (`--route-strategy` on the CLI): the
    /// paper's CTR (the default), the SABRE-style lookahead router, the
    /// persistent-layout router, or `Auto`, which resolves per compile
    /// from the cost model's
    /// [`route_hint`](qsyn_arch::CostModel::route_hint).
    pub fn with_route_strategy(mut self, strategy: RouteStrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// The configured routing strategy (possibly `Auto`; resolution against
    /// the cost model happens per compile).
    pub fn route_strategy(&self) -> RouteStrategyKind {
        self.strategy
    }

    /// Replaces the cost model (the tool accepts "any arbitrary quantum
    /// cost function").
    pub fn with_cost_model(mut self, cost: Box<dyn CostModel>) -> Self {
        self.cost = cost;
        self
    }

    /// Selects the placement strategy.
    pub fn with_placement(mut self, placement: PlacementStrategy) -> Self {
        self.placement = placement;
        self
    }

    /// Selects the verification mode.
    pub fn with_verification(mut self, verification: Verification) -> Self {
        self.verification = verification;
        self
    }

    /// Configures the optimization stage. Accepts a `bool` (on/off with
    /// the default families), an [`OptimizeConfig`] (ablation experiments),
    /// an `Option<OptimizeConfig>`, or an [`Optimization`] directly.
    pub fn with_optimization(mut self, optimization: impl Into<Optimization>) -> Self {
        self.optimization = optimization.into();
        self
    }

    /// Streams every pass event of [`Compiler::compile`] to a sink as it
    /// completes (per-pass metrics are always collected either way — see
    /// [`CompileResult::metrics`]; the sink only adds live output).
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Stamps every [`PassEvent`] this compiler emits with a job id.
    ///
    /// Parallel sweep drivers give each (circuit, device) job a distinct id
    /// so that events from concurrently running compilations, interleaved
    /// in one JSONL stream, can be grouped back into per-job Fig. 2 pass
    /// sequences (see `qsyn check-trace`).
    pub fn with_job_id(mut self, job: u64) -> Self {
        self.job = Some(job);
        self
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The active cost model.
    pub fn cost_model(&self) -> &dyn CostModel {
        self.cost.as_ref()
    }

    /// Runs the full back-end pipeline on a technology-independent circuit.
    ///
    /// # Errors
    ///
    /// * [`CompileError::TooWide`] — more lines than device qubits (the
    ///   paper's `N/A` case);
    /// * [`CompileError::NoAncilla`] — a generalized Toffoli cannot borrow
    ///   a line (also reported `N/A` in the paper);
    /// * [`CompileError::RouteNotFound`] — disconnected coupling map;
    /// * [`CompileError::VerificationFailed`] — the built-in QMDD check
    ///   rejected the output (never expected; would indicate a compiler
    ///   defect);
    /// * [`CompileError::BudgetExceeded`] — a [`CompileBudget`] cap was
    ///   hit (deadline, QMDD nodes under [`VerifyMode::Strict`], or
    ///   routing SWAPs).
    pub fn compile(&self, input: &Circuit) -> Result<CompileResult, CompileError> {
        check_width(input.n_qubits(), self.device.n_qubits())?;
        let started = std::time::Instant::now();
        // Whole-result memoization (Mem mode only). Armed fault injection
        // bypasses the cache: injected failures must actually fire.
        let cache_key = if self.cache == CacheMode::Mem && !self.fault_injection_armed() {
            self.check_deadline(started, Pass::Place)?;
            let key = self.compile_key(input);
            if let Some(key) = key {
                if let Some(hit) = crate::cache::compile_cache_get(key) {
                    return Ok(self.replay_cached(&hit, started));
                }
                // Memory miss: lazily consult the disk tier. A validated
                // entry repopulates the in-memory cache and replays like
                // any other hit; an invalid one has already been
                // quarantined and we recompute below.
                if let Some(disk) = &self.disk {
                    if let crate::persist::DiskLoad::Hit(hit) = disk.load(key) {
                        crate::cache::compile_cache_insert(key, Arc::new((*hit).clone()));
                        return Ok(self.replay_cached(&hit, started));
                    }
                }
            }
            key
        } else {
            None
        };
        let mut events: Vec<PassEvent> = Vec::new();
        let mut record = |e: PassEvent| {
            if let Some(sink) = &self.trace {
                sink.record(&e);
            }
            events.push(e);
        };

        // Placement.
        self.check_deadline(started, Pass::Place)?;
        self.maybe_inject(Pass::Place)?;
        let place_started = std::time::Instant::now();
        let placement = place(input, &self.device, self.placement);
        let mut placed = placement.apply(input, &self.device);
        let base_name = input.name().unwrap_or("circuit").to_string();
        placed.set_name(base_name.clone());
        let seconds = place_started.elapsed().as_secs_f64();
        let (snap_input, mut snap) = (StageSnapshot::of(input), StageSnapshot::of(&placed));
        record(self.event(Pass::Place, seconds, snap_input, snap, |s| {
            s.counter(
                "identity_placement",
                f64::from(u8::from(placement.is_identity())),
            );
        }));

        // Decompose, route and optimize: the whole placed circuit is one
        // window. Each stage's event is recorded the moment the stage
        // finishes, so a later failure still leaves the earlier events.
        // Routing runs over the shared state for this (device,
        // objective): the dense all-pairs table on small devices, the
        // sparse distance oracle at scale.
        let (lookup, table_reused) = crate::cache::routing_lookup(&self.device, self.routing);
        let window = self.run_window(&placed, started, &lookup, &mut |done, seconds| {
            let out = StageSnapshot::of(done.output());
            record(self.event(done.pass(), seconds, snap, out, |s| match done {
                StageDone::Decompose(_, memo) => {
                    s.counter("mct_memo_hits", memo.memo_hits as f64);
                    s.counter("mct_memo_misses", memo.memo_misses as f64);
                }
                StageDone::Route(routed, oracle) => {
                    if let Some(tag) = self.strategy.resolve(self.cost.route_hint()).tag() {
                        s.counter("strategy", tag);
                    }
                    s.counter("swaps_inserted", routed.swaps_inserted as f64);
                    s.counter("gates_rerouted", routed.gates_rerouted as f64);
                    if routed.restoration_swaps > 0 {
                        s.counter("restoration_swaps", routed.restoration_swaps as f64);
                    }
                    if let Some(cap) = self.budget.max_route_swaps {
                        s.counter("swap_cap", cap as f64);
                    }
                    s.counter("routing_table_reused", f64::from(u8::from(table_reused)));
                    if let Some((hits, misses)) = oracle {
                        s.counter("oracle_hits", hits as f64);
                        s.counter("oracle_misses", misses as f64);
                    }
                }
                // Emitted even when optimization is disabled, so the Fig. 2
                // event order is stable; `enabled` disambiguates.
                StageDone::Optimize(_, counters) => {
                    s.counter(
                        "enabled",
                        f64::from(u8::from(self.optimization != Optimization::Disabled)),
                    );
                    s.counter("rounds", counters.rounds as f64);
                    s.counter("gates_removed", counters.gates_removed as f64);
                    s.counter("capped", f64::from(u8::from(counters.capped)));
                }
            }));
            snap = out;
        })?;
        let mut unoptimized = window.routed.circuit;
        let mut optimized = window.optimized.unwrap_or_else(|| unoptimized.clone());
        let mapped_name = format!("{base_name}@{}", self.device.name());
        unoptimized.set_name(mapped_name.clone());
        optimized.set_name(mapped_name);

        // QMDD formal verification (degradation ladder under the budget).
        // The injection hook fires at the pass boundary even when
        // verification is disabled, so `--inject-fault verify:*` exercises
        // the recovery path in `--no-verify` sweeps too.
        self.maybe_inject(Pass::Verify)?;
        let verdict = match self.effective_verification() {
            Verification::None => Verdict::Skipped,
            mode => {
                self.run_verify_ladder(mode, started, &placed, &optimized, snap, &mut record)?
            }
        };
        let verified = verdict.as_verified();

        let metrics = CompileMetrics {
            circuit: base_name,
            device: self.device.name().to_string(),
            cost_model: self.cost.name().to_string(),
            events,
            verified,
            verdict,
            total_seconds: started.elapsed().as_secs_f64(),
            cache_hit: false,
        };
        if let Some(sink) = &self.trace {
            sink.flush();
        }
        if verified == Some(false) {
            return Err(CompileError::VerificationFailed);
        }

        let result = CompileResult {
            placement,
            placed,
            unoptimized,
            optimized,
            verified,
            metrics,
        };
        // Unverified verdicts are transient — a deadline expired mid-verify
        // or a degraded budget, both of which a fresh run may not repeat —
        // so, like errors, they are never memoized.
        if let Some(key) = cache_key {
            if !result.metrics.verdict.is_unverified() {
                crate::cache::compile_cache_insert(key, Arc::new(result.clone()));
                // Persist best-effort: a full disk or unwritable directory
                // costs the warm restart, not the compile.
                if let Some(disk) = &self.disk {
                    let _ = disk.store(key, &result);
                }
            }
        }
        Ok(result)
    }

    /// Streaming compilation: maps a gate stream window by window, keeping
    /// only one bounded window of the circuit resident at a time, so a
    /// million-gate input on a thousand-qubit device compiles in
    /// near-constant memory.
    ///
    /// Gates are buffered into windows of at most `window` input gates.
    /// Each window runs through the same window driver as
    /// [`Compiler::compile`] — decompose → route → optimize, with the
    /// wall-clock deadline checked before each stage — is verified, and
    /// is handed to `emit` gate by gate. Every built-in strategy returns
    /// the layout to identity at its window boundary (CTR restores per
    /// gate, the lookahead family appends one restoration network), so
    /// the emitted windows concatenate into a circuit equivalent to the
    /// input stream, and a stream that fits in one window emits exactly
    /// the gates `compile` outputs under identity placement. Placement is
    /// always identity — a streaming compile never sees the whole
    /// circuit, so there is nothing to place against.
    ///
    /// Verification is windowed: each window's output is checked against
    /// its own specification with the interleaved miter under the
    /// compiler's [`CompileBudget`] node budget (window equivalence
    /// composes to whole-stream equivalence). The miter is built on a
    /// compacted register holding only the qubits the window touches
    /// ([`qsyn_qmdd::miter_support`]), which on sparse windows of a wide
    /// device shrinks the QMDD walks by an order of magnitude, and it
    /// multiplies gates in fused blocks of [`DEFAULT_MITER_BATCH`]; both
    /// are verdict-identical to the full-register miter. With
    /// [`Compiler::with_stream_verify_jobs`] above 1, completed windows
    /// are verified as jobs on a [`crate::pool::WorkerPool`], pipelined
    /// behind the stages of subsequent windows; at most `2 × jobs` windows
    /// are in flight, so pipelining cannot grow memory with stream
    /// length. Under [`VerifyMode::Degrade`] an exhausted window is
    /// counted in [`StreamSummary::unverified_windows`] instead of
    /// aborting; under [`VerifyMode::Strict`] it is a hard
    /// [`CompileError::BudgetExceeded`] — and because Strict must abort
    /// *before* the offending window is emitted, Strict verification
    /// always runs inline regardless of `jobs`. The per-window SWAP cap
    /// is [`CompileBudget::max_route_swaps`].
    ///
    /// One aggregate route event is built at the end of the stream,
    /// recorded into the live `pass.route_us` histogram, and handed to the
    /// trace sink when one is configured. Its `seconds` is the routing
    /// time summed over all windows, and it carries the streaming counters
    /// (`windows`, `window_gates_cap`, `max_window_swaps`,
    /// `oracle_hits`/`oracle_misses`, `verified_windows`,
    /// `unverified_windows`, `peak_resident_gates`,
    /// `max_window_support`, `verify_seconds_total`, `verify_jobs`) that
    /// `qsyn check-trace` validates.
    ///
    /// # Errors
    ///
    /// The same pipeline errors as [`Compiler::compile`], surfaced at the
    /// window that triggers them; [`CompileError::TooWide`] also for a
    /// streamed gate outside the declared `n_qubits` register; and
    /// [`CompileError::VerificationFailed`] if any window's miter check
    /// rejects (a compiler defect, never expected).
    pub fn compile_stream<I>(
        &self,
        n_qubits: usize,
        window: usize,
        gates: I,
        mut emit: impl FnMut(&qsyn_gate::Gate),
    ) -> Result<StreamSummary, CompileError>
    where
        I: IntoIterator<Item = qsyn_gate::Gate>,
    {
        check_width(n_qubits, self.device.n_qubits())?;
        let started = std::time::Instant::now();
        let window = window.max(1);
        let lookup = crate::cache::routing_lookup(&self.device, self.routing).0;
        let verifier =
            (self.effective_verification() != Verification::None).then(|| self.stream_verifier());
        let mut acc = StreamSummary {
            window_gates: window,
            ..StreamSummary::default()
        };
        // Summed per-window routing time: the aggregate route event's
        // duration (the event is only built after every window has run).
        let mut route_seconds = 0.0;
        let mut gates = gates.into_iter().peekable();
        while gates.peek().is_some() {
            let mut spec = Circuit::new(self.device.n_qubits());
            for g in gates.by_ref().take(window) {
                check_width(g.max_qubit() + 1, n_qubits)?;
                spec.push(g);
            }
            acc.windows += 1;
            acc.gates_in += spec.len();
            let out = self.run_window(&spec, started, &lookup, &mut |done, seconds| {
                if let StageDone::Route(..) = done {
                    route_seconds += seconds;
                }
            })?;
            if let Some((hits, misses)) = out.oracle {
                acc.oracle_hits += hits;
                acc.oracle_misses += misses;
            }
            let window_swaps = out.routed.total_swaps();
            acc.swaps_inserted += window_swaps;
            acc.max_window_swaps = acc.max_window_swaps.max(window_swaps);
            acc.peak_resident_gates = acc.peak_resident_gates.max(out.peak_gates);
            let optimized = out.optimized.unwrap_or(out.routed.circuit);
            if let Some(v) = &verifier {
                v.verify(spec, &optimized)?;
            }
            acc.gates_out += optimized.len();
            for g in optimized.gates() {
                emit(g);
            }
        }
        if let Some(v) = &verifier {
            v.finish(&mut acc)?;
        }
        acc.total_seconds = started.elapsed().as_secs_f64();

        let empty = StageSnapshot::of(&Circuit::new(self.device.n_qubits()));
        // Counter names come from `qsyn_trace::streaming` so the emitter
        // and `check-trace`'s validator cannot drift apart.
        use qsyn_trace::streaming as sc;
        let e = self.event(Pass::Route, route_seconds, empty, empty, |s| {
            s.counter(sc::STREAMING, 1.0);
            s.counter(sc::WINDOWS, acc.windows as f64);
            s.counter(sc::WINDOW_GATES_CAP, acc.window_gates as f64);
            s.counter(sc::SWAPS_INSERTED, acc.swaps_inserted as f64);
            s.counter(sc::MAX_WINDOW_SWAPS, acc.max_window_swaps as f64);
            if let Some(cap) = self.budget.max_route_swaps {
                s.counter(sc::WINDOW_SWAP_CAP, cap as f64);
            }
            if matches!(lookup, RoutingLookup::Sparse(_)) {
                s.counter(sc::ORACLE_HITS, acc.oracle_hits as f64);
                s.counter(sc::ORACLE_MISSES, acc.oracle_misses as f64);
            }
            s.counter(sc::VERIFIED_WINDOWS, acc.verified_windows as f64);
            s.counter(sc::UNVERIFIED_WINDOWS, acc.unverified_windows as f64);
            s.counter(sc::PEAK_RESIDENT_GATES, acc.peak_resident_gates as f64);
            s.counter(sc::MAX_WINDOW_SUPPORT, acc.max_window_support as f64);
            s.counter(sc::VERIFY_SECONDS_TOTAL, acc.verify_seconds_total);
            s.counter(sc::VERIFY_JOBS, acc.verify_jobs as f64);
        });
        if let Some(sink) = &self.trace {
            sink.record(&e);
            sink.flush();
        }
        Ok(acc)
    }

    /// The one window driver, shared by [`Compiler::compile`] (a single
    /// window: the whole placed circuit) and [`Compiler::compile_stream`]
    /// (one call per window). Runs decompose → route → optimize; before
    /// each stage it checks the deadline, naming the stage, and fires the
    /// fault-injection hook, and as each stage finishes it hands the
    /// stage's output and wall seconds to `on_stage`.
    fn run_window(
        &self,
        window: &Circuit,
        started: std::time::Instant,
        lookup: &RoutingLookup,
        on_stage: &mut dyn FnMut(StageDone<'_>, f64),
    ) -> Result<WindowOutput, CompileError> {
        let ((decomposed, memo), seconds) =
            self.run_stage(started, Pass::Decompose, || self.decompose_stage(window))?;
        on_stage(StageDone::Decompose(&decomposed, memo), seconds);
        let ((routed, oracle), seconds) = self.run_stage(started, Pass::Route, || {
            self.route_stage(&decomposed, lookup)
        })?;
        on_stage(StageDone::Route(&routed, oracle), seconds);
        let (optimized, seconds) = self.run_stage(started, Pass::Optimize, || {
            Ok(self.optimize_stage(&routed.circuit))
        })?;
        let (output, counters) = match &optimized {
            Some((circuit, counters)) => (circuit, *counters),
            None => (&routed.circuit, OptimizeCounters::default()),
        };
        on_stage(StageDone::Optimize(output, counters), seconds);
        let peak_gates = window
            .len()
            .max(decomposed.len())
            .max(routed.circuit.len())
            .max(output.len());
        Ok(WindowOutput {
            routed,
            oracle,
            optimized: optimized.map(|(circuit, _)| circuit),
            peak_gates,
        })
    }

    /// One stage of [`Compiler::run_window`]: the deadline check naming
    /// `pass`, the fault-injection hook, then `stage`, timed.
    fn run_stage<T>(
        &self,
        started: std::time::Instant,
        pass: Pass,
        stage: impl FnOnce() -> Result<T, CompileError>,
    ) -> Result<(T, f64), CompileError> {
        self.check_deadline(started, pass)?;
        self.maybe_inject(pass)?;
        let stage_started = std::time::Instant::now();
        let out = stage()?;
        Ok((out, stage_started.elapsed().as_secs_f64()))
    }

    /// Builds the per-stream verification state for `compile_stream`:
    /// the equivalence budget, the window-outcome tally, and — for
    /// parallel runs — the worker pool whose jobs fold into that tally.
    ///
    /// Parallel verification requires [`VerifyMode::Degrade`]: Strict
    /// mode must abort before the failing window is emitted, which only
    /// an inline check can guarantee, so Strict (or `jobs <= 1`) runs
    /// serial regardless of the configured job count.
    fn stream_verifier(&self) -> StreamVerifier {
        let jobs = self.stream_verify_jobs.max(1);
        // Jump straight to the ladder's forced-GC rung: under a node
        // budget the default watermark (far above any sane window
        // budget) would let the arena latch the budget before a single
        // collection ran, even when the live set is tiny.
        let equiv_budget = EquivBudget {
            gc_threshold: self.budget.qmdd_node_budget.map(|n| (n / 2).max(2)),
            node_budget: self.budget.qmdd_node_budget,
        };
        let par = (jobs > 1 && self.budget.verify_mode == VerifyMode::Degrade).then(|| {
            StreamVerifyPool {
                pool: crate::pool::WorkerPool::new(jobs),
                jobs,
            }
        });
        StreamVerifier {
            mode: self.budget.verify_mode,
            equiv_budget,
            shared: Arc::new(StreamVerifyShared {
                state: Mutex::new(StreamVerifyState::default()),
                done: Condvar::new(),
            }),
            par,
        }
    }

    /// The decompose stage: generalized Toffolis (Barenco) and the
    /// Toffoli/CZ/SWAP → Clifford+T + CNOT lowering, through the shared
    /// decomposition memo.
    fn decompose_stage(
        &self,
        circuit: &Circuit,
    ) -> Result<(Circuit, DecomposeCounters), CompileError> {
        decompose_circuit_memo(circuit, Some(&self.device), self.decompose)
    }

    /// The route stage, and the compiler's one routing dispatch: the
    /// configured strategy, resolved against the cost model, legalizes
    /// `circuit` over the shared table or oracle of `lookup` under the
    /// budget's SWAP cap. Also returns the oracle's `(hits, misses)`
    /// during this call when `lookup` is sparse.
    fn route_stage(
        &self,
        circuit: &Circuit,
        lookup: &RoutingLookup,
    ) -> Result<(RouteOutcome, Option<(u64, u64)>), CompileError> {
        let strategy = self.strategy.resolve(self.cost.route_hint());
        let mut req = RouteRequest::new(circuit, &self.device)
            .with_objective(self.routing)
            .with_max_swaps(self.budget.max_route_swaps);
        let oracle = match lookup {
            RoutingLookup::Dense(table) => {
                req = req.with_table(table.clone());
                None
            }
            RoutingLookup::Sparse(oracle) => {
                req = req.with_oracle(oracle.clone());
                Some((oracle, oracle.hit_count(), oracle.miss_count()))
            }
        };
        let outcome = strategy.instance().route(&req)?;
        let delta = oracle.map(|(o, h0, m0)| (o.hit_count() - h0, o.miss_count() - m0));
        Ok((outcome, delta))
    }

    /// The optimize stage; `None` when optimization is disabled.
    fn optimize_stage(&self, routed: &Circuit) -> Option<(Circuit, OptimizeCounters)> {
        let cfg = self.optimization.config()?;
        Some(optimize_bounded(
            routed,
            Some(&self.device),
            self.cost.as_ref(),
            cfg,
            self.budget.max_optimize_rounds,
        ))
    }

    /// Structural key of one compile request: every input the pipeline's
    /// output depends on. Two requests with equal keys are guaranteed to
    /// produce identical results, so the memoized result can be replayed.
    ///
    /// `None` when the cost model is not content-addressable
    /// ([`CostModel::cache_params`] returns `None`): its name alone cannot
    /// distinguish it from a same-named model with different pricing, so
    /// memoization is skipped rather than risking a key collision.
    ///
    /// Options are hashed field by field, with a fixed tag byte per enum
    /// variant, so renaming a variant or reordering a field cannot move a
    /// persisted key (golden keys are pinned by a unit test).
    pub(crate) fn compile_key(&self, input: &Circuit) -> Option<u128> {
        let params = self.cost.cache_params()?;
        let mut h = qsyn_circuit::Fnv128::new();
        h.write_u128(input.structural_hash());
        h.write_u128(self.device.fingerprint());
        h.write_str(self.cost.name());
        h.write_usize(params.len());
        for p in params {
            h.write_f64(p);
        }
        h.write_u8(match self.placement {
            PlacementStrategy::Identity => 0,
            PlacementStrategy::Greedy => 1,
            PlacementStrategy::Annealed => 2,
        });
        h.write_u8(match self.routing {
            RoutingObjective::FewestSwaps => 0,
            RoutingObjective::HighestFidelity => 1,
        });
        h.write_u8(match self.strategy {
            RouteStrategyKind::Ctr => 0,
            RouteStrategyKind::Lookahead => 1,
            RouteStrategyKind::Persistent => 2,
            RouteStrategyKind::Auto => 3,
        });
        h.write_u8(match self.decompose {
            DecomposeStrategy::Exact => 0,
            DecomposeStrategy::RelativePhase => 1,
        });
        h.write_u8(match self.verification {
            Verification::None => 0,
            Verification::Canonical => 1,
            Verification::Miter => 2,
            Verification::Auto => 3,
        });
        match self.optimization {
            Optimization::Disabled => h.write_u8(0),
            Optimization::Enabled(OptimizeConfig {
                cancel_identities,
                rewrite_identities,
            }) => {
                h.write_u8(1);
                h.write_u8(u8::from(cancel_identities));
                h.write_u8(u8::from(rewrite_identities));
            }
        }
        // Destructured without `..`: a new budget field fails to compile
        // until it is hashed here.
        let CompileBudget {
            deadline,
            qmdd_node_budget,
            max_optimize_rounds,
            max_route_swaps,
            verify_mode,
        } = self.budget;
        let mut write_opt = |v: Option<u128>| match v {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                h.write_u128(v);
            }
        };
        write_opt(deadline.map(|d| d.as_nanos()));
        write_opt(qmdd_node_budget.map(|n| n as u128));
        write_opt(max_optimize_rounds.map(|n| n as u128));
        write_opt(max_route_swaps.map(|n| n as u128));
        h.write_u8(match verify_mode {
            VerifyMode::Strict => 0,
            VerifyMode::Degrade => 1,
        });
        Some(h.finish())
    }

    /// Replays a compile-cache hit: clones the memoized result, restamps
    /// the per-pass events for this compiler's job, marks every event with
    /// a `cache_hit` counter, and re-emits the stream to the trace sink so
    /// cached compiles stay fully observable.
    fn replay_cached(&self, cached: &CompileResult, started: std::time::Instant) -> CompileResult {
        let mut result = cached.clone();
        for e in &mut result.metrics.events {
            e.job = self.job;
            e.counters.push(("cache_hit".to_string(), 1.0));
            if let Some(sink) = &self.trace {
                sink.record(e);
            }
        }
        result.metrics.cache_hit = true;
        result.metrics.total_seconds = started.elapsed().as_secs_f64();
        if let Some(sink) = &self.trace {
            sink.flush();
        }
        result
    }

    #[cfg(feature = "fault-injection")]
    fn fault_injection_armed(&self) -> bool {
        self.inject.is_some()
    }

    #[cfg(not(feature = "fault-injection"))]
    #[inline]
    fn fault_injection_armed(&self) -> bool {
        false
    }

    /// Builds one pass event: attaches the counters, prices the in/out
    /// snapshots under the active cost model, stamps the job id, and
    /// records it into the live metrics registry.
    fn event(
        &self,
        pass: Pass,
        seconds: f64,
        input: StageSnapshot,
        output: StageSnapshot,
        counters: impl FnOnce(&mut Span),
    ) -> PassEvent {
        let mut span = Span::new(pass);
        counters(&mut span);
        let mut event = span.finish(
            seconds,
            input,
            output,
            self.cost.cost(&input.stats),
            self.cost.cost(&output.stats),
        );
        event.job = self.job;
        qsyn_trace::metrics::global().record_pass(&event);
        event
    }

    /// Fails with a wall-clock [`CompileError::BudgetExceeded`] when the
    /// budget deadline has passed (checked at every pass boundary).
    fn check_deadline(
        &self,
        started: std::time::Instant,
        pass: Pass,
    ) -> Result<(), CompileError> {
        match self.budget.deadline {
            Some(deadline) if started.elapsed() > deadline => {
                Err(CompileError::BudgetExceeded {
                    pass,
                    resource: BudgetResource::WallClock,
                    limit: deadline.as_millis() as u64,
                    used: started.elapsed().as_millis() as u64,
                })
            }
            _ => Ok(()),
        }
    }

    #[cfg(feature = "fault-injection")]
    fn maybe_inject(&self, pass: Pass) -> Result<(), CompileError> {
        use crate::budget::FaultKind;
        match self.inject {
            Some(spec) if spec.pass == pass => match spec.kind {
                FaultKind::Panic => panic!("injected fault: panic in {pass} pass"),
                FaultKind::Budget => Err(CompileError::BudgetExceeded {
                    pass,
                    resource: BudgetResource::QmddNodes,
                    limit: 0,
                    used: 0,
                }),
                FaultKind::VerifyFail => Err(CompileError::VerificationFailed),
            },
            _ => Ok(()),
        }
    }

    #[cfg(not(feature = "fault-injection"))]
    #[inline]
    fn maybe_inject(&self, _pass: Pass) -> Result<(), CompileError> {
        Ok(())
    }

    /// Walks the verification degradation ladder and emits the verify
    /// [`PassEvent`].
    ///
    /// Rungs, in order (later rungs only exist under a node budget, where
    /// exhaustion is possible):
    ///
    /// 1. the requested check (`canonical` or `miter`) with no forced GC;
    /// 2. the same check with an aggressive GC watermark (half the budget),
    ///    trading time for arena headroom;
    /// 3. for canonical mode, the interleaved `miter` check, whose working
    ///    set is typically far smaller.
    ///
    /// A rung that completes yields [`Verdict::Verified`] or
    /// [`Verdict::Failed`] naming the method. A rung that exhausts the
    /// node budget falls through to the next; when every rung exhausts,
    /// [`VerifyMode::Degrade`] records an explicit
    /// [`Verdict::Unverified`] (with an `unverified` counter on the event
    /// so traces flag it loudly) while [`VerifyMode::Strict`] aborts the
    /// compile with [`CompileError::BudgetExceeded`].
    fn run_verify_ladder(
        &self,
        mode: Verification,
        started: std::time::Instant,
        spec: &Circuit,
        output: &Circuit,
        snap: StageSnapshot,
        record: &mut dyn FnMut(PassEvent),
    ) -> Result<Verdict, CompileError> {
        if let Err(e) = self.check_deadline(started, Pass::Verify) {
            match self.budget.verify_mode {
                VerifyMode::Strict => return Err(e),
                VerifyMode::Degrade => {
                    record(self.event(Pass::Verify, 0.0, snap, snap, |s| {
                        s.counter("unverified", 1.0);
                        s.counter("ladder_rungs_tried", 0.0);
                    }));
                    return Ok(Verdict::Unverified {
                        reason: "wall-clock deadline reached before verification".to_string(),
                    });
                }
            }
        }

        let nb = self.budget.qmdd_node_budget;
        let mut rungs: Vec<(&'static str, EquivBudget, bool)> = Vec::new();
        let base = EquivBudget {
            gc_threshold: None,
            node_budget: nb,
        };
        let is_miter = !matches!(mode, Verification::Canonical);
        rungs.push((if is_miter { "miter" } else { "canonical" }, base, is_miter));
        if let Some(n) = nb {
            // Only a finite budget can exhaust; add the fallback rungs.
            let gc = EquivBudget {
                gc_threshold: Some((n / 2).max(2)),
                node_budget: nb,
            };
            if is_miter {
                rungs.push(("miter+gc", gc, true));
            } else {
                rungs.push(("canonical+gc", gc, false));
                rungs.push(("miter", gc, true));
            }
        }

        let verify_started = std::time::Instant::now();
        let seconds = || verify_started.elapsed().as_secs_f64();
        let mut tried = 0usize;
        let mut last_err: Option<EquivBudgetError> = None;
        for (rung, (method, budget, miter)) in rungs.into_iter().enumerate() {
            if rung > 0 && self.check_deadline(started, Pass::Verify).is_err() {
                break; // deadline mid-ladder: stop retrying, degrade below
            }
            tried += 1;
            let result = if miter {
                try_equivalent_miter(spec, output, budget)
            } else {
                try_equivalent(spec, output, budget)
            };
            match result {
                Ok(report) => {
                    record(self.event(Pass::Verify, seconds(), snap, snap, |s| {
                        s.counter("peak_nodes", report.peak_nodes as f64);
                        s.counter("unique_nodes", report.unique_nodes as f64);
                        s.counter("cache_lookups", report.cache_lookups as f64);
                        s.counter("cache_hit_rate", report.cache_hit_rate());
                        s.counter("cache_evictions", report.cache_evictions as f64);
                        s.counter("gc_runs", report.gc_runs as f64);
                        s.counter("nodes_reclaimed", report.nodes_reclaimed as f64);
                        s.counter("ladder_rung", (rung + 1) as f64);
                        s.counter("unverified", 0.0);
                    }));
                    let method = method.to_string();
                    return Ok(if report.equivalent {
                        Verdict::Verified { method }
                    } else {
                        Verdict::Failed { method }
                    });
                }
                Err(e) => {
                    if self.budget.verify_mode == VerifyMode::Strict {
                        return Err(CompileError::BudgetExceeded {
                            pass: Pass::Verify,
                            resource: BudgetResource::QmddNodes,
                            limit: e.limit as u64,
                            used: e.used as u64,
                        });
                    }
                    last_err = Some(e);
                }
            }
        }

        // Every rung exhausted (or the deadline cut the ladder short):
        // an explicit, loud "unverified" — never a silent pass.
        let reason = match last_err {
            Some(e) => format!("verification ladder exhausted after {tried} rung(s): {e}"),
            None => "wall-clock deadline cut the verification ladder short".to_string(),
        };
        record(self.event(Pass::Verify, seconds(), snap, snap, |s| {
            s.counter("unverified", 1.0);
            s.counter("ladder_rungs_tried", tried as f64);
        }));
        Ok(Verdict::Unverified { reason })
    }

    fn effective_verification(&self) -> Verification {
        match self.verification {
            Verification::Auto => {
                if self.device.n_qubits() <= 16 {
                    Verification::Canonical
                } else {
                    Verification::Miter
                }
            }
            other => other,
        }
    }
}

/// [`CompileError::TooWide`] unless `needed` lines fit in `available`.
fn check_width(needed: usize, available: usize) -> Result<(), CompileError> {
    if needed > available {
        Err(CompileError::TooWide { needed, available })
    } else {
        Ok(())
    }
}

/// A stage the window driver has just finished, as handed to its
/// per-stage callback: the stage's output and what the stage counted.
#[derive(Clone, Copy)]
enum StageDone<'a> {
    Decompose(&'a Circuit, DecomposeCounters),
    /// The route outcome and the sparse oracle's `(hits, misses)`.
    Route(&'a RouteOutcome, Option<(u64, u64)>),
    /// The optimized circuit (the routed one when optimization is off).
    Optimize(&'a Circuit, OptimizeCounters),
}

impl<'a> StageDone<'a> {
    fn pass(self) -> Pass {
        match self {
            StageDone::Decompose(..) => Pass::Decompose,
            StageDone::Route(..) => Pass::Route,
            StageDone::Optimize(..) => Pass::Optimize,
        }
    }

    fn output(self) -> &'a Circuit {
        match self {
            StageDone::Decompose(circuit, _) | StageDone::Optimize(circuit, _) => circuit,
            StageDone::Route(routed, _) => &routed.circuit,
        }
    }
}

/// What one window brings out of [`Compiler::run_window`].
struct WindowOutput {
    /// The route stage's outcome: the unoptimized circuit and its SWAPs.
    routed: RouteOutcome,
    /// The sparse oracle's `(hits, misses)` while routing the window.
    oracle: Option<(u64, u64)>,
    /// The optimize stage's output; `None` when optimization is disabled.
    optimized: Option<Circuit>,
    /// The most gates any stage held at once: the window's footprint.
    peak_gates: usize,
}

/// Aggregate counters of one [`Compiler::compile_stream`] run — the
/// streaming counterpart of [`CompileResult`], sized O(1) regardless of
/// stream length.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamSummary {
    /// Windows processed (the last one may be short).
    pub windows: usize,
    /// The configured per-window input-gate cap.
    pub window_gates: usize,
    /// Input gates consumed from the stream.
    pub gates_in: usize,
    /// Output gates handed to the emit callback.
    pub gates_out: usize,
    /// Adjacent SWAPs inserted across all windows (including per-window
    /// restoration networks).
    pub swaps_inserted: usize,
    /// The most SWAPs any single window needed — compare against the
    /// per-window [`CompileBudget::max_route_swaps`] cap.
    pub max_window_swaps: usize,
    /// Windows whose miter check completed and passed.
    pub verified_windows: usize,
    /// Windows whose miter check exhausted the node budget under
    /// [`VerifyMode::Degrade`].
    pub unverified_windows: usize,
    /// The largest number of gates resident at once in any pipeline stage
    /// — the streaming memory bound, independent of stream length.
    pub peak_resident_gates: usize,
    /// The widest miter support any window needed: how many device lines
    /// its spec and routed output actually touched (restoration SWAPs
    /// included). Support-restricted verification builds each window's
    /// miter on this many qubits instead of the full register; zero when
    /// verification is disabled.
    pub max_window_support: usize,
    /// Sparse-oracle memoized-answer hits during routing (zero on dense
    /// small-device compiles).
    pub oracle_hits: u64,
    /// Sparse-oracle misses (rows or routes computed fresh).
    pub oracle_misses: u64,
    /// The aggregate verdict: `Verified { "windowed-miter" }` when every
    /// window checked out, `Unverified` when any window degraded,
    /// `Skipped` under [`Verification::None`].
    pub verdict: Verdict,
    /// Wall-clock seconds for the whole stream.
    pub total_seconds: f64,
    /// CPU seconds spent inside window miter checks, summed across all
    /// verify workers (can exceed wall clock when `verify_jobs > 1`).
    pub verify_seconds_total: f64,
    /// 95th-percentile per-window verify latency in seconds (bucket upper
    /// bound of the run's local histogram); zero when no window was
    /// verified.
    pub verify_p95_seconds: f64,
    /// Verify workers actually used: the configured job count when the
    /// pool ran, `1` for inline (serial or Strict-mode) verification,
    /// `0` when verification was disabled.
    pub verify_jobs: usize,
}

/// The window-outcome tally of one stream: every verified window, inline
/// or on the pool, folds into it through [`StreamVerifyState::tally`],
/// and [`StreamVerifier::finish`] reads the summary's counters from it.
#[derive(Default)]
struct StreamVerifyState {
    /// Windows submitted to the pool and not yet finished.
    in_flight: usize,
    /// Windows whose miter check completed and passed.
    verified: usize,
    /// Windows that exhausted the node budget.
    unverified: usize,
    /// A miter check rejected, or a verify job panicked: the stream must
    /// end in [`CompileError::VerificationFailed`].
    failed: bool,
    /// Sum of per-window verify seconds across workers.
    seconds_total: f64,
    /// Widest per-window miter support seen.
    max_support: usize,
    /// Per-window latency (µs buckets) feeding
    /// [`StreamSummary::verify_p95_seconds`]; kept apart from the
    /// process-wide `stream.verify_us` metric so concurrent streams do
    /// not pollute each other's p95.
    hist: qsyn_trace::metrics::Histogram,
}

impl StreamVerifyState {
    /// Folds one window's check — its verdict, support size and seconds,
    /// as [`verify_one_window`] returns them — into the tally.
    fn tally(&mut self, res: &Result<bool, EquivBudgetError>, support: usize, seconds: f64) {
        self.hist.record_seconds(seconds);
        self.seconds_total += seconds;
        self.max_support = self.max_support.max(support);
        match res {
            Ok(true) => self.verified += 1,
            Ok(false) => self.failed = true,
            Err(_) => self.unverified += 1,
        }
    }
}

struct StreamVerifyShared {
    state: Mutex<StreamVerifyState>,
    /// Signaled whenever a job releases its in-flight slot (the
    /// coordinator waits here when the in-flight cap is reached).
    done: Condvar,
}

/// Releases one in-flight slot when a verify job ends — **however** it
/// ends. Constructed first thing inside the job so a panic anywhere in
/// the miter check still decrements `in_flight` (otherwise the
/// coordinator would deadlock at the cap) and, because a panicked job
/// produced no verdict, fails the stream rather than silently passing
/// an unchecked window.
struct StreamSlotGuard(Arc<StreamVerifyShared>);

impl Drop for StreamSlotGuard {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().expect("stream verify poisoned");
        st.in_flight -= 1;
        if std::thread::panicking() {
            st.failed = true;
        }
        drop(st);
        self.0.done.notify_all();
    }
}

/// The worker-pool half of a [`StreamVerifier`], present only for
/// parallel (Degrade-mode, `jobs > 1`) runs.
struct StreamVerifyPool {
    pool: crate::pool::WorkerPool,
    /// Worker count. At most `2 × jobs` windows are admitted but not yet
    /// verified: each holds its spec and routed output, so the cap — two
    /// windows per worker, enough to keep every worker fed while the
    /// coordinator routes ahead — keeps streaming memory independent of
    /// stream length.
    jobs: usize,
}

/// Per-stream verification state built by `Compiler::stream_verifier`.
struct StreamVerifier {
    mode: VerifyMode,
    equiv_budget: EquivBudget,
    /// The window-outcome tally, shared with the pool's jobs.
    shared: Arc<StreamVerifyShared>,
    par: Option<StreamVerifyPool>,
}

impl StreamVerifier {
    /// Verifies one window's output against its spec: inline, or — on a
    /// parallel run — as a job on the pool, after blocking until the
    /// bounded in-flight queue has a free slot. Inline checks fail the
    /// stream here, before the window is emitted: a rejected window, or
    /// an exhausted one under [`VerifyMode::Strict`].
    fn verify(&self, spec: Circuit, out: &Circuit) -> Result<(), CompileError> {
        let Some(par) = &self.par else {
            let (res, support, seconds) = verify_one_window(&spec, out, self.equiv_budget);
            let mut st = self.shared.state.lock().expect("stream verify poisoned");
            st.tally(&res, support, seconds);
            if st.failed {
                return Err(CompileError::VerificationFailed);
            }
            return match res {
                Err(e) if self.mode == VerifyMode::Strict => Err(CompileError::BudgetExceeded {
                    pass: Pass::Verify,
                    resource: BudgetResource::QmddNodes,
                    limit: e.limit as u64,
                    used: e.used as u64,
                }),
                _ => Ok(()),
            };
        };
        {
            let mut st = self.shared.state.lock().expect("stream verify poisoned");
            while st.in_flight >= 2 * par.jobs && !st.failed {
                st = self.shared.done.wait(st).expect("stream verify poisoned");
            }
            if st.failed {
                return Err(CompileError::VerificationFailed);
            }
            st.in_flight += 1;
        }
        let out = out.clone();
        let shared = Arc::clone(&self.shared);
        let budget = self.equiv_budget;
        par.pool.submit(move || {
            let _slot = StreamSlotGuard(Arc::clone(&shared));
            let (res, support, seconds) = verify_one_window(&spec, &out, budget);
            let mut st = shared.state.lock().expect("stream verify poisoned");
            st.tally(&res, support, seconds);
        });
        Ok(())
    }

    /// Drains the pool (if any), then copies the tally into the summary
    /// and sets the p95 and the aggregate verdict. Called once after the
    /// last window.
    fn finish(&self, acc: &mut StreamSummary) -> Result<(), CompileError> {
        if let Some(par) = &self.par {
            par.pool.drain();
        }
        let st = self.shared.state.lock().expect("stream verify poisoned");
        if st.failed {
            return Err(CompileError::VerificationFailed);
        }
        acc.verified_windows = st.verified;
        acc.unverified_windows = st.unverified;
        acc.verify_seconds_total = st.seconds_total;
        acc.max_window_support = st.max_support;
        if let Some(p95_us) = st.hist.snapshot().quantile(0.95) {
            acc.verify_p95_seconds = p95_us as f64 / 1e6;
        }
        acc.verify_jobs = self.par.as_ref().map_or(1, |par| par.jobs);
        acc.verdict = if acc.unverified_windows == 0 {
            Verdict::Verified {
                method: "windowed-miter".to_string(),
            }
        } else {
            Verdict::Unverified {
                reason: format!(
                    "{} of {} window(s) exhausted the QMDD node budget",
                    acc.unverified_windows, acc.windows
                ),
            }
        };
        Ok(())
    }
}

/// Runs one window's support-restricted, batched miter check and returns
/// the verdict (`Ok(equivalent)` or the budget error), the window's
/// support size, and the seconds spent. Also feeds the process-wide
/// streaming-verify metrics: one `stream.verify_us` sample per window and
/// an outcome counter (`stream.windows_verified` +
/// `stream.windows_unverified` equals the histogram count in steady state;
/// a rejected window aborts the stream and is counted by neither).
fn verify_one_window(
    spec: &Circuit,
    out: &Circuit,
    budget: EquivBudget,
) -> (Result<bool, EquivBudgetError>, usize, f64) {
    qsyn_trace::metric_handles! {
        fn m_verify_us() -> Histogram = "stream.verify_us";
        fn m_windows_verified() -> Counter = "stream.windows_verified";
        fn m_windows_unverified() -> Counter = "stream.windows_unverified";
    }
    let started = std::time::Instant::now();
    let support = miter_support(spec, out);
    let res = try_equivalent_miter_on_batched(&support, spec, out, budget, DEFAULT_MITER_BATCH)
        .map(|report| report.equivalent);
    let seconds = started.elapsed().as_secs_f64();
    m_verify_us().record_seconds(seconds);
    match res {
        Ok(true) => m_windows_verified().inc(),
        Ok(false) => {}
        Err(_) => m_windows_unverified().inc(),
    }
    (res, support.len(), seconds)
}

/// Everything the pipeline produced for one input circuit.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// Logical-to-physical assignment used.
    pub placement: Placement,
    /// The specification relabeled onto device lines (what verification
    /// compares against).
    pub placed: Circuit,
    /// The mapped circuit before local optimization (the paper's
    /// "unoptimized mapping" table columns).
    pub unoptimized: Circuit,
    /// The final technology-dependent circuit (the "optimized mapping"
    /// columns; emit with [`qsyn_circuit::to_qasm`]).
    pub optimized: Circuit,
    /// `Some(true)` when a QMDD equivalence check ran and passed; `None`
    /// when verification was disabled or ended
    /// [`Verdict::Unverified`] under a degraded budget (see
    /// [`CompileResult::verdict`] for the distinction).
    pub verified: Option<bool>,
    pub(crate) metrics: CompileMetrics,
}

impl CompileResult {
    /// Structured per-pass metrics of this compilation: one
    /// [`qsyn_trace::PassEvent`] per pipeline stage with wall-clock time,
    /// input/output statistics, cost movement under the compiler's cost
    /// model, and backend counters. Serializable via
    /// [`CompileMetrics::to_json`].
    pub fn metrics(&self) -> &CompileMetrics {
        &self.metrics
    }

    /// The verification verdict: which ladder rung decided (canonical,
    /// forced-GC retry, miter), or why the output is explicitly
    /// unverified. Richer than the boolean [`CompileResult::verified`].
    pub fn verdict(&self) -> &Verdict {
        &self.metrics.verdict
    }

    /// Statistics of the pre-optimization mapping.
    pub fn unoptimized_stats(&self) -> CircuitStats {
        self.unoptimized.stats()
    }

    /// Statistics of the final output.
    pub fn optimized_stats(&self) -> CircuitStats {
        self.optimized.stats()
    }

    /// Percent cost decrease achieved by optimization under a cost model
    /// (the quantity reported in the paper's Tables 4, 6 and 8).
    pub fn percent_cost_decrease(&self, cost: &dyn CostModel) -> f64 {
        let pre = cost.circuit_cost(&self.unoptimized);
        let post = cost.circuit_cost(&self.optimized);
        if pre == 0.0 {
            0.0
        } else {
            (pre - post) / pre * 100.0
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_arch::devices;
    use qsyn_gate::Gate;

    fn toffoli_spec() -> Circuit {
        let mut c = Circuit::new(3).with_name("tof");
        c.push(Gate::toffoli(0, 1, 2));
        c
    }

    #[test]
    fn compiles_toffoli_to_every_ibm_device() {
        for d in devices::ibm_devices() {
            let r = Compiler::new(d.clone()).compile(&toffoli_spec()).unwrap();
            assert!(r.optimized.is_technology_ready(), "{}", d.name());
            assert_eq!(r.verified, Some(true));
            // Every CNOT in the output is a legal placement.
            for g in r.optimized.gates() {
                if let Gate::Cx { control, target } = g {
                    assert!(d.has_coupling(*control, *target), "{} {g}", d.name());
                }
            }
        }
    }

    #[test]
    fn optimization_never_hurts_cost() {
        let cost = TransmonCost::default();
        for d in devices::ibm_devices() {
            let with = Compiler::new(d.clone()).compile(&toffoli_spec()).unwrap();
            let without = Compiler::new(d)
                .with_optimization(false)
                .compile(&toffoli_spec())
                .unwrap();
            assert!(
                cost.circuit_cost(&with.optimized) <= cost.circuit_cost(&without.optimized)
            );
        }
    }

    #[test]
    fn too_wide_reports_na() {
        let mut c = Circuit::new(6);
        c.push(Gate::x(5));
        let err = Compiler::new(devices::ibmqx2()).compile(&c).unwrap_err();
        assert_eq!(
            err,
            CompileError::TooWide {
                needed: 6,
                available: 5
            }
        );
    }

    #[test]
    fn t5_on_five_qubit_device_is_na() {
        // Table 5: 4gt12-v0_88 (largest gate T5) is N/A on ibmqx2/ibmqx4
        // even though widths match, because the decomposition needs an
        // ancilla line.
        let mut c = Circuit::new(5);
        c.push(Gate::mct(vec![0, 1, 2, 3], 4));
        let err = Compiler::new(devices::ibmqx2()).compile(&c).unwrap_err();
        assert_eq!(err, CompileError::NoAncilla { controls: 4 });
        // The same gate compiles fine on a 16-qubit device.
        let r = Compiler::new(devices::ibmqx5()).compile(&c).unwrap();
        assert_eq!(r.verified, Some(true));
    }

    #[test]
    fn simulator_mapping_leaves_clifford_t_unchanged() {
        // Paper Section 5: benchmarks mapped to the simulator match their
        // technology-independent form; optimization finds nothing to cut.
        let mut c = Circuit::new(3);
        c.push(Gate::h(2));
        c.push(Gate::cx(0, 2));
        c.push(Gate::tdg(2));
        c.push(Gate::cx(1, 2));
        c.push(Gate::t(2));
        let r = Compiler::new(Device::simulator(3)).compile(&c).unwrap();
        assert_eq!(r.optimized.gates(), c.gates());
    }

    #[test]
    fn greedy_placement_compiles_and_verifies() {
        let mut c = Circuit::new(4);
        c.push(Gate::toffoli(0, 1, 3));
        c.push(Gate::cx(0, 3));
        let r = Compiler::new(devices::ibmqx5())
            .with_placement(PlacementStrategy::Greedy)
            .compile(&c)
            .unwrap();
        assert_eq!(r.verified, Some(true));
        assert!(!r.placement.is_identity() || r.placement.is_identity());
    }

    #[test]
    fn annealed_placement_compiles_and_verifies() {
        let mut c = Circuit::new(4);
        c.push(Gate::toffoli(0, 1, 3));
        c.push(Gate::cx(0, 3));
        c.push(Gate::cx(3, 2));
        let r = Compiler::new(devices::ibmqx5())
            .with_placement(PlacementStrategy::Annealed)
            .compile(&c)
            .unwrap();
        assert_eq!(r.verified, Some(true));
    }

    #[test]
    fn verification_modes_agree() {
        let spec = toffoli_spec();
        for v in [Verification::Canonical, Verification::Miter, Verification::Auto] {
            let r = Compiler::new(devices::ibmqx4())
                .with_verification(v)
                .compile(&spec)
                .unwrap();
            assert_eq!(r.verified, Some(true));
        }
        let r = Compiler::new(devices::ibmqx4())
            .with_verification(Verification::None)
            .compile(&spec)
            .unwrap();
        assert_eq!(r.verified, None);
    }

    #[test]
    fn percent_cost_decrease_is_consistent() {
        let cost = TransmonCost::default();
        let r = Compiler::new(devices::ibmqx3()).compile(&toffoli_spec()).unwrap();
        let pct = r.percent_cost_decrease(&cost);
        assert!((0.0..=100.0).contains(&pct));
        let pre = cost.circuit_cost(&r.unoptimized);
        let post = cost.circuit_cost(&r.optimized);
        assert!(((pre - post) / pre * 100.0 - pct).abs() < 1e-12);
    }

    #[test]
    fn output_qasm_is_parseable_and_equivalent() {
        let r = Compiler::new(devices::ibmqx2()).compile(&toffoli_spec()).unwrap();
        let qasm = r.optimized.to_qasm().unwrap();
        let parsed = Circuit::from_qasm(&qasm).unwrap();
        assert!(qsyn_qmdd::circuits_equal(&r.optimized, &parsed));
    }

    #[test]
    fn custom_cost_model_is_used() {
        let r = Compiler::new(devices::ibmqx2())
            .with_cost_model(Box::new(qsyn_arch::VolumeCost))
            .compile(&toffoli_spec())
            .unwrap();
        assert_eq!(r.verified, Some(true));
    }

    #[test]
    fn metrics_table_summarizes_all_stages() {
        let r = Compiler::new(devices::ibmqx3()).compile(&toffoli_spec()).unwrap();
        let text = r.metrics().render_table();
        for pass in Pass::FIG2_ORDER {
            assert!(text.contains(&pass.to_string()), "missing {pass} in:\n{text}");
        }
        assert!(r.metrics().verified == Some(true));
    }

    #[test]
    fn metrics_cover_fig2_pipeline_in_order() {
        let r = Compiler::new(devices::ibmqx4()).compile(&toffoli_spec()).unwrap();
        let m = r.metrics();
        let order: Vec<Pass> = m.events.iter().map(|e| e.pass).collect();
        assert_eq!(order, Pass::FIG2_ORDER);
        assert_eq!(m.circuit, "tof");
        assert_eq!(m.device, "ibmqx4");
        assert_eq!(m.cost_model, "transmon-eqn2");
        assert_eq!(m.verified, Some(true));
        assert!(m.total_seconds > 0.0);
        // Events chain: each pass's input is the previous pass's output.
        for w in m.events.windows(2) {
            assert_eq!(w[0].output, w[1].input, "{} -> {}", w[0].pass, w[1].pass);
        }
        // The verify pass reports the QMDD package counters.
        let verify = m.pass(Pass::Verify).unwrap();
        assert!(verify.counter("peak_nodes").unwrap() > 0.0);
        assert!(verify.counter("unique_nodes").unwrap() > 0.0);
        assert!(verify.counter("cache_hit_rate").is_some());
        assert!(verify.counter("cache_evictions").is_some());
        assert!(verify.counter("gc_runs").is_some());
        assert!(verify.counter("nodes_reclaimed").is_some());
    }

    #[test]
    fn job_id_stamps_every_event() {
        let r = Compiler::new(devices::ibmqx4())
            .with_job_id(7)
            .compile(&toffoli_spec())
            .unwrap();
        assert!(!r.metrics().events.is_empty());
        assert!(r.metrics().events.iter().all(|e| e.job == Some(7)));
        let plain = Compiler::new(devices::ibmqx4()).compile(&toffoli_spec()).unwrap();
        assert!(plain.metrics().events.iter().all(|e| e.job.is_none()));
    }

    #[test]
    fn metrics_pct_matches_result_pct() {
        let cost = TransmonCost::default();
        let r = Compiler::new(devices::ibmqx3()).compile(&toffoli_spec()).unwrap();
        let pct = r.metrics().percent_cost_decrease();
        assert!((pct - r.percent_cost_decrease(&cost)).abs() < 1e-9);
    }

    #[test]
    fn disabled_optimization_still_emits_its_event() {
        let r = Compiler::new(devices::ibmqx4())
            .with_optimization(false)
            .compile(&toffoli_spec())
            .unwrap();
        let opt = r.metrics().pass(Pass::Optimize).unwrap();
        assert_eq!(opt.counter("enabled"), Some(0.0));
        assert_eq!(opt.input, opt.output);
        assert_eq!(r.metrics().percent_cost_decrease(), 0.0);
    }

    #[test]
    fn disabled_verification_omits_the_verify_event() {
        let r = Compiler::new(devices::ibmqx4())
            .with_verification(Verification::None)
            .compile(&toffoli_spec())
            .unwrap();
        assert!(r.metrics().pass(Pass::Verify).is_none());
        assert_eq!(r.metrics().events.len(), 4);
        assert_eq!(r.metrics().verified, None);
    }

    #[test]
    fn optimization_enum_accepts_all_call_styles() {
        let spec = toffoli_spec();
        let cfg = OptimizeConfig {
            cancel_identities: true,
            rewrite_identities: false,
        };
        let a = Compiler::new(devices::ibmqx4())
            .with_optimization(cfg)
            .compile(&spec)
            .unwrap();
        let b = Compiler::new(devices::ibmqx4())
            .with_optimization(Optimization::Enabled(cfg))
            .compile(&spec)
            .unwrap();
        let c = Compiler::new(devices::ibmqx4())
            .with_optimization(Some(cfg))
            .compile(&spec)
            .unwrap();
        assert_eq!(a.optimized, b.optimized);
        assert_eq!(a.optimized, c.optimized);
        let off = Compiler::new(devices::ibmqx4())
            .with_optimization(Optimization::Disabled)
            .compile(&spec)
            .unwrap();
        assert_eq!(off.optimized, off.unoptimized);
    }

    #[test]
    fn trace_sink_receives_the_same_events_as_metrics() {
        let sink = Arc::new(qsyn_trace::TableSink::new());
        let r = Compiler::new(devices::ibmqx4())
            .with_trace(sink.clone())
            .compile(&toffoli_spec())
            .unwrap();
        assert_eq!(sink.events(), r.metrics().events);
    }

    #[test]
    fn null_sink_results_match_untraced_results() {
        let traced = Compiler::new(devices::ibmqx4())
            .with_trace(Arc::new(qsyn_trace::NullSink))
            .compile(&toffoli_spec())
            .unwrap();
        let plain = Compiler::new(devices::ibmqx4()).compile(&toffoli_spec()).unwrap();
        assert_eq!(traced.optimized, plain.optimized);
        assert_eq!(traced.unoptimized, plain.unoptimized);
        assert_eq!(traced.placed, plain.placed);
        assert_eq!(traced.verified, plain.verified);
    }

    /// The pipeline `compile` runs, rebuilt from public stage functions
    /// with no shared state: identity placement, uncached decomposition,
    /// a table-less route request, then the optimizer. Returns the
    /// (unoptimized, optimized) circuits.
    fn reference_pipeline(
        spec: &Circuit,
        device: &qsyn_arch::Device,
        kind: RouteStrategyKind,
        objective: RoutingObjective,
        optimize: bool,
    ) -> (Circuit, Circuit) {
        let placed = Placement::identity(spec.n_qubits()).apply(spec, device);
        let decomposed =
            crate::decompose::decompose_circuit_with(&placed, Some(device), DecomposeStrategy::Exact)
                .unwrap();
        let req = RouteRequest::new(&decomposed, device).with_objective(objective);
        let routed = kind.instance().route(&req).unwrap().circuit;
        let optimized = if optimize {
            let cost = TransmonCost::default();
            optimize_bounded(&routed, Some(device), &cost, OptimizeConfig::default(), None).0
        } else {
            routed.clone()
        };
        (routed, optimized)
    }

    #[test]
    fn persistent_layout_strategy_compiles_and_verifies() {
        let mut spec = Circuit::new(5);
        spec.push(Gate::toffoli(0, 2, 4));
        spec.push(Gate::cx(4, 0));
        spec.push(Gate::cx(0, 4));
        for device in devices::ibm_devices() {
            let r = Compiler::new(device.clone())
                .with_route_strategy(RouteStrategyKind::Persistent)
                .compile(&spec)
                .unwrap();
            assert_eq!(r.verified, Some(true), "{}", device.name());
            for g in r.optimized.gates() {
                if let Gate::Cx { control, target } = g {
                    assert!(device.has_coupling(*control, *target));
                }
            }
        }
    }

    #[test]
    fn relative_phase_strategy_compiles_verified_with_fewer_t() {
        let mut spec = Circuit::new(5);
        spec.push(Gate::mct(vec![0, 1, 2, 3], 4));
        let exact = Compiler::new(devices::ibmqx5()).compile(&spec).unwrap();
        let rp = Compiler::new(devices::ibmqx5())
            .with_decompose_strategy(DecomposeStrategy::RelativePhase)
            .compile(&spec)
            .unwrap();
        assert_eq!(exact.verified, Some(true));
        assert_eq!(rp.verified, Some(true), "relative phases must cancel");
        assert!(
            rp.optimized.stats().t_count < exact.optimized.stats().t_count,
            "{} vs {}",
            rp.optimized.stats().t_count,
            exact.optimized.stats().t_count
        );
    }

    #[test]
    fn compiles_to_cz_native_library() {
        // The paper's modularity claim: add a library with a different
        // native two-qubit gate and the same pipeline targets it.
        use qsyn_arch::TwoQubitNative;
        let d = qsyn_arch::devices::ring(5).with_native(TwoQubitNative::Cz);
        let r = Compiler::new(d.clone()).compile(&toffoli_spec()).unwrap();
        assert_eq!(r.verified, Some(true));
        assert!(d.can_execute(&r.optimized));
        assert!(
            r.optimized
                .gates()
                .iter()
                .any(|g| matches!(g, Gate::Cz { .. })),
            "CZ library output uses CZ"
        );
        assert!(
            !r.optimized
                .gates()
                .iter()
                .any(|g| matches!(g, Gate::Cx { .. })),
            "no CNOT on a CZ device"
        );
    }

    #[test]
    fn persistent_strategy_matches_the_persistent_router() {
        // Selecting `Persistent` routes exactly as the persistent-layout
        // router does, and enforces the SWAP cap on the completed total
        // (drifting plus restoration SWAPs).
        let mut spec = Circuit::new(5).with_name("persistent-ref");
        spec.push(Gate::toffoli(0, 2, 4));
        spec.push(Gate::cx(4, 0));
        spec.push(Gate::cx(0, 4));
        spec.push(Gate::cx(1, 4));
        for device in devices::ibm_devices() {
            let decomposed = crate::decompose::decompose_circuit_with(
                &Placement::identity(5).apply(&spec, &device),
                Some(&device),
                DecomposeStrategy::Exact,
            )
            .unwrap();
            let (reference, k) = crate::remap::route_circuit_persistent_traced(
                &decomposed,
                &device,
                RoutingObjective::FewestSwaps,
            )
            .unwrap();
            let compiler = Compiler::new(device.clone())
                .with_route_strategy(RouteStrategyKind::Persistent);
            let r = compiler.compile(&spec).unwrap();
            assert_eq!(r.unoptimized.gates(), reference.gates(), "{}", device.name());
            let route = r.metrics().pass(Pass::Route).unwrap();
            assert_eq!(route.counter("strategy"), Some(3.0));
            assert_eq!(route.counter("swaps_inserted"), Some(k.swaps_inserted as f64));
            let restoration = route.counter("restoration_swaps").unwrap_or(0.0);
            assert_eq!(restoration, k.restoration_swaps as f64);
            let total = k.swaps_inserted + k.restoration_swaps;
            if total == 0 {
                continue;
            }
            let capped = |cap: usize| {
                Compiler::new(device.clone())
                    .with_route_strategy(RouteStrategyKind::Persistent)
                    .with_budget(CompileBudget::default().with_max_route_swaps(cap))
                    .compile(&spec)
            };
            assert_eq!(capped(total).unwrap().unoptimized, r.unoptimized);
            match capped(total - 1) {
                Err(CompileError::BudgetExceeded {
                    pass: Pass::Route,
                    resource: BudgetResource::RouteSwaps,
                    limit,
                    used,
                }) => assert_eq!((limit, used), ((total - 1) as u64, total as u64)),
                other => panic!("{}: expected the cap error, got {other:?}", device.name()),
            }
        }
    }

    #[test]
    fn compiles_match_the_uncached_reference_pipeline() {
        // The shared routing tables and decomposition memo must be a
        // transparent acceleration: same bytes out as the per-gate
        // searches, for every strategy.
        let mut spec = Circuit::new(5).with_name("cache-modes");
        spec.push(Gate::mct(vec![0, 1, 2], 4));
        spec.push(Gate::cx(0, 4));
        for d in devices::ibm_devices() {
            for kind in RouteStrategyKind::CONCRETE {
                let (routed, optimized) =
                    reference_pipeline(&spec, &d, kind, RoutingObjective::FewestSwaps, true);
                let tables = Compiler::new(d.clone())
                    .with_route_strategy(kind)
                    .compile(&spec)
                    .unwrap();
                assert_eq!(optimized.gates(), tables.optimized.gates(), "{}", d.name());
                assert_eq!(routed.gates(), tables.unoptimized.gates(), "{}", d.name());
            }
        }
    }

    #[test]
    fn compile_cache_replays_identical_results() {
        // A circuit shape unique to this test, so the shared global cache
        // cannot be pre-populated by another test in this process.
        let mut spec = Circuit::new(5).with_name("memoized");
        spec.push(Gate::h(3));
        spec.push(Gate::toffoli(2, 3, 0));
        spec.push(Gate::cx(0, 1));
        spec.push(Gate::tdg(4));
        let compiler = Compiler::new(devices::ibmqx5()).with_cache(CacheMode::Mem);
        let cold = compiler.compile(&spec).unwrap();
        assert!(!cold.metrics().cache_hit);
        let warm = compiler.compile(&spec).unwrap();
        assert!(warm.metrics().cache_hit);
        assert_eq!(cold.optimized, warm.optimized);
        assert_eq!(cold.unoptimized, warm.unoptimized);
        assert_eq!(cold.placed, warm.placed);
        assert_eq!(cold.verified, warm.verified);
        assert_eq!(cold.metrics().verdict, warm.metrics().verdict);
        // Every replayed event carries the cache-hit marker; fresh ones
        // don't.
        assert!(warm
            .metrics()
            .events
            .iter()
            .all(|e| e.counter("cache_hit") == Some(1.0)));
        assert!(cold
            .metrics()
            .events
            .iter()
            .all(|e| e.counter("cache_hit").is_none()));
    }

    #[test]
    fn compile_cache_replays_through_the_trace_sink() {
        let mut spec = Circuit::new(4).with_name("traced-replay");
        spec.push(Gate::toffoli(1, 3, 2));
        spec.push(Gate::t(0));
        let sink = Arc::new(qsyn_trace::TableSink::new());
        let compiler = Compiler::new(devices::ibmqx4())
            .with_cache(CacheMode::Mem)
            .with_trace(sink.clone())
            .with_job_id(3);
        let _ = compiler.compile(&spec).unwrap();
        let warm = compiler.compile(&spec).unwrap();
        // Both runs streamed their events (fresh + replayed).
        assert_eq!(sink.events().len(), 2 * warm.metrics().events.len());
        assert!(sink.events().iter().all(|e| e.job == Some(3)));
    }

    #[test]
    fn debug_format_names_parts() {
        let c = Compiler::new(devices::ibmqx2());
        let text = format!("{c:?}");
        assert!(text.contains("ibmqx2"));
        assert!(text.contains("transmon-eqn2"));
    }

    #[test]
    fn generous_budget_matches_unbudgeted_compile() {
        let budget = CompileBudget::default()
            .with_deadline(std::time::Duration::from_secs(600))
            .with_node_budget(1 << 22)
            .with_max_optimize_rounds(10_000)
            .with_max_route_swaps(1_000_000);
        let bounded = Compiler::new(devices::ibmqx4())
            .with_budget(budget)
            .compile(&toffoli_spec())
            .unwrap();
        let free = Compiler::new(devices::ibmqx4()).compile(&toffoli_spec()).unwrap();
        assert_eq!(bounded.optimized, free.optimized);
        assert_eq!(bounded.verified, Some(true));
        assert_eq!(
            *bounded.verdict(),
            qsyn_trace::Verdict::Verified {
                method: "canonical".into()
            }
        );
        let verify = bounded.metrics().pass(Pass::Verify).unwrap();
        assert_eq!(verify.counter("ladder_rung"), Some(1.0));
        assert_eq!(verify.counter("unverified"), Some(0.0));
    }

    #[test]
    fn tiny_node_budget_degrades_to_explicit_unverified() {
        // A budget too small even for the identity QMDD: every ladder rung
        // exhausts, and the compile still succeeds with a loud verdict.
        let r = Compiler::new(devices::ibmqx4())
            .with_budget(CompileBudget::default().with_node_budget(2))
            .compile(&toffoli_spec())
            .unwrap();
        assert_eq!(r.verified, None);
        assert!(r.verdict().is_unverified(), "{:?}", r.verdict());
        let verify = r.metrics().pass(Pass::Verify).unwrap();
        assert_eq!(verify.counter("unverified"), Some(1.0));
        assert_eq!(verify.counter("ladder_rungs_tried"), Some(3.0));
        assert_eq!(r.metrics().verdict, *r.verdict());
    }

    #[test]
    fn tiny_node_budget_in_strict_mode_is_a_hard_error() {
        let budget = CompileBudget::default()
            .with_node_budget(2)
            .with_verify_mode(VerifyMode::Strict);
        let err = Compiler::new(devices::ibmqx4())
            .with_budget(budget)
            .compile(&toffoli_spec())
            .unwrap_err();
        match err {
            CompileError::BudgetExceeded {
                pass,
                resource,
                limit,
                used,
            } => {
                assert_eq!(pass, Pass::Verify);
                assert_eq!(resource, BudgetResource::QmddNodes);
                assert_eq!(limit, 2);
                assert!(used > 2);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn zero_deadline_trips_before_the_first_pass() {
        let err = Compiler::new(devices::ibmqx4())
            .with_budget(CompileBudget::default().with_deadline(std::time::Duration::ZERO))
            .compile(&toffoli_spec())
            .unwrap_err();
        assert!(
            matches!(
                err,
                CompileError::BudgetExceeded {
                    pass: Pass::Place,
                    resource: BudgetResource::WallClock,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn optimize_round_cap_degrades_gracefully() {
        let r = Compiler::new(devices::ibmqx3())
            .with_budget(CompileBudget::default().with_max_optimize_rounds(0))
            .compile(&toffoli_spec())
            .unwrap();
        // Zero rounds: nothing optimized, but the compile still verifies.
        assert_eq!(r.optimized, r.unoptimized);
        assert_eq!(r.verified, Some(true));
        let opt = r.metrics().pass(Pass::Optimize).unwrap();
        assert_eq!(opt.counter("capped"), Some(1.0));
        assert_eq!(opt.counter("rounds"), Some(0.0));
    }

    #[test]
    fn route_swap_cap_surfaces_through_compile() {
        let mut c = Circuit::new(16);
        c.push(Gate::cx(5, 10));
        let err = Compiler::new(devices::ibmqx3())
            .with_budget(CompileBudget::default().with_max_route_swaps(1))
            .compile(&c)
            .unwrap_err();
        assert!(
            matches!(
                err,
                CompileError::BudgetExceeded {
                    pass: Pass::Route,
                    resource: BudgetResource::RouteSwaps,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn disconnected_device_surfaces_route_not_found() {
        // Regression: a coupling map with two components (0-1 and 2-3) has
        // no SWAP chain joining them. A CNOT across the cut must come back
        // as a structured `RouteNotFound`, not a panic or a hang.
        let device = qsyn_arch::Device::from_coupling_map(
            "split",
            4,
            &[(0, &[1][..]), (2, &[3][..])],
        );
        let mut c = Circuit::new(4);
        c.push(Gate::cx(0, 2));
        let err = Compiler::new(device)
            .with_verification(Verification::None)
            .compile(&c)
            .unwrap_err();
        assert!(
            matches!(err, CompileError::RouteNotFound { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn miter_mode_ladder_names_its_method() {
        // Wide device forces Verification::Miter under Auto.
        let mut spec = Circuit::new(20);
        spec.push(Gate::toffoli(0, 1, 2));
        let r = Compiler::new(devices::qc96()).compile(&spec).unwrap();
        assert_eq!(
            *r.verdict(),
            qsyn_trace::Verdict::Verified {
                method: "miter".into()
            }
        );
    }

    #[test]
    fn streaming_matches_the_batch_routed_circuit() {
        // With optimization off, CTR routes every gate independently, so
        // window boundaries cannot change the output: the streamed windows
        // concatenate to exactly the batch compiler's unoptimized mapping.
        let mut spec = Circuit::new(5).with_name("stream");
        spec.push(Gate::toffoli(0, 2, 4));
        spec.push(Gate::cx(4, 0));
        spec.push(Gate::h(1));
        spec.push(Gate::cx(0, 4));
        spec.push(Gate::t(2));
        let compiler = Compiler::new(devices::ibmqx4()).with_optimization(false);
        let batch = compiler.compile(&spec).unwrap();
        for window in [1, 2, 3, 100] {
            let mut streamed = Circuit::new(5);
            let summary = compiler
                .compile_stream(5, window, spec.gates().iter().cloned(), |g| {
                    streamed.push(g.clone())
                })
                .unwrap();
            assert_eq!(
                streamed.gates(),
                batch.unoptimized.gates(),
                "window={window}"
            );
            assert_eq!(summary.gates_in, spec.gates().len());
            assert_eq!(summary.gates_out, streamed.gates().len());
            assert_eq!(summary.windows, spec.gates().len().div_ceil(window));
            assert_eq!(summary.verified_windows, summary.windows);
            assert_eq!(summary.unverified_windows, 0);
            assert_eq!(
                summary.verdict,
                Verdict::Verified {
                    method: "windowed-miter".into()
                }
            );
            assert!(summary.peak_resident_gates <= streamed.gates().len());
            if window == 1 {
                // Bounded residency: a one-gate window never holds the
                // whole output.
                assert!(summary.peak_resident_gates < streamed.gates().len());
            }
            assert!(qsyn_qmdd::circuits_equal(&spec, &streamed), "window={window}");
        }

        // A batch compile is one window: with the whole input in a single
        // window, the stream emits exactly the batch compiler's output for
        // every router, with optimization on and off, on dense and sparse
        // devices.
        for device in [devices::ibmqx4(), devices::ibmqx5(), devices::grid_calibrated(8, 8)] {
            for strategy in RouteStrategyKind::ALL {
                for optimize in [false, true] {
                    let compiler = Compiler::new(device.clone())
                        .with_route_strategy(strategy)
                        .with_optimization(optimize);
                    let batch = compiler.compile(&spec).unwrap();
                    let mut streamed = Vec::new();
                    compiler
                        .compile_stream(5, spec.len(), spec.gates().iter().cloned(), |g| {
                            streamed.push(g.clone())
                        })
                        .unwrap();
                    assert_eq!(
                        streamed,
                        batch.optimized.gates(),
                        "{} {strategy:?} optimize={optimize}",
                        device.name()
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_stays_equivalent_with_optimization_on() {
        let mut spec = Circuit::new(4).with_name("stream-opt");
        spec.push(Gate::toffoli(0, 1, 3));
        spec.push(Gate::cx(3, 0));
        spec.push(Gate::cx(3, 0));
        spec.push(Gate::h(2));
        let mut streamed = Circuit::new(4);
        let summary = Compiler::new(devices::ibmqx5())
            .compile_stream(4, 2, spec.gates().iter().cloned(), |g| {
                streamed.push(g.clone())
            })
            .unwrap();
        assert!(qsyn_qmdd::circuits_equal(&spec, &streamed));
        assert_eq!(summary.unverified_windows, 0);
    }

    #[test]
    fn streaming_tiny_node_budget_degrades_or_aborts() {
        let spec = toffoli_spec();
        let degrade = Compiler::new(devices::ibmqx4())
            .with_budget(CompileBudget::default().with_node_budget(2))
            .compile_stream(3, 2, spec.gates().iter().cloned(), |_| {})
            .unwrap();
        assert!(degrade.unverified_windows > 0);
        assert!(degrade.verdict.is_unverified(), "{:?}", degrade.verdict);
        let strict = Compiler::new(devices::ibmqx4())
            .with_budget(
                CompileBudget::default()
                    .with_node_budget(2)
                    .with_verify_mode(VerifyMode::Strict),
            )
            .compile_stream(3, 2, spec.gates().iter().cloned(), |_| {});
        assert!(
            matches!(
                strict,
                Err(CompileError::BudgetExceeded {
                    pass: Pass::Verify,
                    resource: BudgetResource::QmddNodes,
                    ..
                })
            ),
            "{strict:?}"
        );
    }

    #[test]
    fn streaming_emits_the_aggregate_route_event() {
        let mut spec = Circuit::new(5);
        spec.push(Gate::cx(0, 4));
        spec.push(Gate::cx(4, 0));
        let sink = Arc::new(qsyn_trace::TableSink::new());
        let summary = Compiler::new(devices::ibmqx4())
            .with_trace(sink.clone())
            .with_job_id(11)
            .with_budget(CompileBudget::default().with_max_route_swaps(64))
            .compile_stream(5, 1, spec.gates().iter().cloned(), |_| {})
            .unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.pass, Pass::Route);
        assert_eq!(e.job, Some(11));
        assert_eq!(e.counter("streaming"), Some(1.0));
        assert_eq!(e.counter("windows"), Some(summary.windows as f64));
        assert_eq!(e.counter("window_gates_cap"), Some(1.0));
        assert_eq!(e.counter("window_swap_cap"), Some(64.0));
        assert_eq!(
            e.counter("max_window_swaps"),
            Some(summary.max_window_swaps as f64)
        );
        assert_eq!(
            e.counter("verified_windows"),
            Some(summary.verified_windows as f64)
        );
        assert_eq!(e.counter("unverified_windows"), Some(0.0));
        assert!(e.counter("peak_resident_gates").unwrap() >= 1.0);
        assert_eq!(
            e.counter("max_window_support"),
            Some(summary.max_window_support as f64)
        );
        assert_eq!(
            e.counter("verify_seconds_total"),
            Some(summary.verify_seconds_total)
        );
        assert_eq!(e.counter("verify_jobs"), Some(1.0));
        // The event times the windows' routing, not its own emission.
        assert!(
            e.seconds > 0.0 && e.seconds <= summary.total_seconds,
            "route seconds {} vs total {}",
            e.seconds,
            summary.total_seconds
        );
        assert!(
            qsyn_trace::streaming::validate_streaming_route_event(e)
                .unwrap()
                .is_some(),
            "the emitted event must satisfy its own validator"
        );
    }

    /// A deterministic mixed H/CX/T stream for the verify-config tests.
    fn verify_test_stream(n: usize, gates: usize) -> Vec<Gate> {
        (0..gates)
            .map(|i| match i % 3 {
                0 => Gate::h((i * 5 + 1) % n),
                1 => Gate::cx((i * 7) % n, (i * 7 + 3) % n),
                _ => Gate::t((i * 11 + 2) % n),
            })
            .collect()
    }

    #[test]
    fn streaming_verify_configs_agree_bit_for_bit() {
        // Pool parallelism is an observational no-op: any worker count
        // leaves the emitted gates, the verdict, and the window accounting
        // byte-identical to inline verification.
        let gates = verify_test_stream(12, 36);
        let run = |jobs: usize| {
            let mut out = Circuit::new(16);
            let summary = Compiler::new(devices::ibmqx5())
                .with_stream_verify_jobs(jobs)
                .compile_stream(12, 6, gates.iter().cloned(), |g| out.push(g.clone()))
                .unwrap();
            (out, summary)
        };
        let (base_out, base) = run(1);
        assert_eq!(base.verify_jobs, 1);
        assert_eq!(
            base.verdict,
            Verdict::Verified {
                method: "windowed-miter".into()
            }
        );
        for jobs in [3, 4] {
            let (out, summary) = run(jobs);
            assert_eq!(out.to_qasm().unwrap(), base_out.to_qasm().unwrap(), "jobs={jobs}");
            assert_eq!(summary.verdict, base.verdict, "jobs={jobs}");
            assert_eq!(summary.windows, base.windows, "jobs={jobs}");
            assert_eq!(summary.verified_windows, base.verified_windows, "jobs={jobs}");
            assert_eq!(summary.unverified_windows, 0, "jobs={jobs}");
            // Support is a property of the windows, not of the job count.
            assert_eq!(summary.max_window_support, base.max_window_support, "jobs={jobs}");
            assert_eq!(summary.verify_jobs, jobs);
        }

        // Reference: each window compiled as a one-window batch and
        // checked with the full-register, unbatched miter. The windows
        // concatenate to the stream's output, every one verifies, and the
        // widest support matches the stream's restricted miters.
        let mut reference = Vec::new();
        let mut widest = 0;
        for window in gates.chunks(6) {
            let mut spec = Circuit::new(12);
            for g in window {
                spec.push(g.clone());
            }
            let r = Compiler::new(devices::ibmqx5())
                .with_verification(Verification::None)
                .compile(&spec)
                .unwrap();
            let report =
                try_equivalent_miter(&r.placed, &r.optimized, EquivBudget::default()).unwrap();
            assert!(report.equivalent);
            widest = widest.max(miter_support(&r.placed, &r.optimized).len());
            reference.extend_from_slice(r.optimized.gates());
        }
        assert_eq!(base_out.gates(), reference);
        assert_eq!(base.windows, gates.len().div_ceil(6));
        assert_eq!(base.max_window_support, widest);
        // The stream touches several-but-not-all device lines per window.
        assert!(base.max_window_support >= 2);
        assert!(base.max_window_support <= 12);
        assert!(base.verify_seconds_total > 0.0);
        assert!(base.verify_p95_seconds > 0.0);
    }

    #[test]
    fn streaming_parallel_degrade_counts_unverified_windows() {
        // Budget latching still degrades per window when verification
        // runs on the pool: the workers' shared counters merge into the
        // summary and the verdict stays Unverified.
        let spec = toffoli_spec();
        let degrade = Compiler::new(devices::ibmqx4())
            .with_stream_verify_jobs(4)
            .with_budget(CompileBudget::default().with_node_budget(2))
            .compile_stream(3, 2, spec.gates().iter().cloned(), |_| {})
            .unwrap();
        assert!(degrade.unverified_windows > 0);
        assert!(degrade.verdict.is_unverified(), "{:?}", degrade.verdict);
        assert_eq!(degrade.verify_jobs, 4);
    }

    #[test]
    fn streaming_strict_mode_verifies_inline_despite_jobs() {
        // Strict mode must abort before the failing window is emitted,
        // which only inline verification guarantees — so even with a
        // worker pool configured the budget error surfaces exactly as in
        // the serial path and the summary never materializes.
        let spec = toffoli_spec();
        let strict = Compiler::new(devices::ibmqx4())
            .with_stream_verify_jobs(4)
            .with_budget(
                CompileBudget::default()
                    .with_node_budget(2)
                    .with_verify_mode(VerifyMode::Strict),
            )
            .compile_stream(3, 2, spec.gates().iter().cloned(), |_| {});
        assert!(
            matches!(
                strict,
                Err(CompileError::BudgetExceeded {
                    pass: Pass::Verify,
                    resource: BudgetResource::QmddNodes,
                    ..
                })
            ),
            "{strict:?}"
        );
    }

    #[test]
    fn streaming_too_wide_is_rejected() {
        let err = Compiler::new(devices::ibmqx2())
            .compile_stream(6, 4, std::iter::empty(), |_| {})
            .unwrap_err();
        assert_eq!(
            err,
            CompileError::TooWide {
                needed: 6,
                available: 5
            }
        );
    }

    #[test]
    fn streaming_rejects_gates_outside_the_declared_register() {
        // Beyond the device register (ibmqx4, 5 qubits) and inside the
        // device but beyond the declared 3-qubit register (ibmqx5, 16).
        for device in [devices::ibmqx4(), devices::ibmqx5()] {
            let err = Compiler::new(device.clone())
                .compile_stream(3, 4, [Gate::cx(0, 7)], |_| {})
                .unwrap_err();
            assert_eq!(
                err,
                CompileError::TooWide {
                    needed: 8,
                    available: 3
                },
                "{}",
                device.name()
            );
        }
    }

    #[test]
    fn streaming_peak_resident_gates_counts_the_routed_window() {
        // Repeated distant CNOTs: CTR swaps out and back per gate, and the
        // optimizer cancels the back-to-back SWAP chains, so the routed
        // window is the largest stage.
        let d = devices::ibmqx5();
        let mut spec = Circuit::new(d.n_qubits());
        for _ in 0..4 {
            spec.push(Gate::cx(0, 8));
        }
        let (routed, optimized) =
            reference_pipeline(&spec, &d, RouteStrategyKind::Ctr, RoutingObjective::FewestSwaps, true);
        assert!(optimized.len() < routed.len(), "optimize must shrink the window");
        assert!(routed.len() > spec.len());
        let summary = Compiler::new(d.clone())
            .compile_stream(d.n_qubits(), spec.len(), spec.gates().iter().cloned(), |_| {})
            .unwrap();
        assert_eq!(summary.windows, 1);
        assert!(
            summary.peak_resident_gates >= routed.len(),
            "peak {} < routed {}",
            summary.peak_resident_gates,
            routed.len()
        );
    }

    #[test]
    fn streaming_zero_deadline_names_the_first_stage() {
        let err = Compiler::new(devices::ibmqx4())
            .with_budget(CompileBudget::default().with_deadline(std::time::Duration::ZERO))
            .compile_stream(3, 4, toffoli_spec().gates().iter().cloned(), |_| {})
            .unwrap_err();
        assert!(
            matches!(
                err,
                CompileError::BudgetExceeded {
                    pass: Pass::Decompose,
                    resource: BudgetResource::WallClock,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn compile_keys_are_golden_and_cover_every_field() {
        let mut spec = Circuit::new(3).with_name("golden");
        spec.push(Gate::toffoli(0, 1, 2));
        spec.push(Gate::cx(2, 0));
        let key = |c: Compiler| c.compile_key(&spec).expect("built-in cost models are keyed");
        let base = || Compiler::new(devices::ibmqx4());
        // Pinned: a change here silently orphans every persisted
        // `--cache-dir` entry, so it must be deliberate.
        let golden = [
            ("default", key(base()), 0xea067d559667d8c180afb1043c5150ca),
            (
                "lookahead + fidelity",
                key(base()
                    .with_route_strategy(RouteStrategyKind::Lookahead)
                    .with_routing(RoutingObjective::HighestFidelity)),
                0xe39eca447f63a762f6d8f85757bca2f0,
            ),
            (
                "persistent + optimization off",
                key(base()
                    .with_route_strategy(RouteStrategyKind::Persistent)
                    .with_optimization(false)),
                0x54b17e6ca97aab1c5edf9a3da74cc103,
            ),
            (
                "budgeted",
                key(base().with_budget(
                    CompileBudget::default()
                        .with_deadline(std::time::Duration::from_millis(1500))
                        .with_node_budget(1 << 16)
                        .with_max_optimize_rounds(3)
                        .with_max_route_swaps(40)
                        .with_verify_mode(VerifyMode::Strict),
                )),
                0x23809e62cad85a3e3c65ddd9db7e146b,
            ),
        ];
        for (name, got, want) in golden {
            assert_eq!(got, want, "{name}: {got:#x}");
        }

        // Every single-field change moves the key, and no two collide.
        let budget = CompileBudget::default();
        let variants = vec![
            base(),
            base().with_placement(PlacementStrategy::Greedy),
            base().with_placement(PlacementStrategy::Annealed),
            base().with_routing(RoutingObjective::HighestFidelity),
            base().with_route_strategy(RouteStrategyKind::Lookahead),
            base().with_route_strategy(RouteStrategyKind::Persistent),
            base().with_route_strategy(RouteStrategyKind::Auto),
            base().with_decompose_strategy(DecomposeStrategy::RelativePhase),
            base().with_verification(Verification::None),
            base().with_verification(Verification::Canonical),
            base().with_verification(Verification::Miter),
            base().with_optimization(false),
            base().with_optimization(OptimizeConfig {
                cancel_identities: false,
                rewrite_identities: true,
            }),
            base().with_optimization(OptimizeConfig {
                cancel_identities: true,
                rewrite_identities: false,
            }),
            base().with_budget(budget.with_deadline(std::time::Duration::from_secs(1))),
            base().with_budget(budget.with_node_budget(1000)),
            base().with_budget(budget.with_max_optimize_rounds(1000)),
            base().with_budget(budget.with_max_route_swaps(1000)),
            base().with_budget(budget.with_verify_mode(VerifyMode::Strict)),
            base().with_cost_model(Box::new(qsyn_arch::VolumeCost)),
            Compiler::new(devices::ibmqx2()),
        ];
        let keys: Vec<u128> = variants.into_iter().map(key).collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "variants {i} and {j} share a key");
            }
        }
    }

    #[cfg(feature = "fault-injection")]
    mod injection {
        use super::*;
        use crate::budget::{FaultKind, FaultSpec};

        #[test]
        fn injected_budget_fault_errors_at_the_named_pass() {
            let err = Compiler::new(devices::ibmqx4())
                .with_fault_injection(FaultSpec {
                    pass: Pass::Route,
                    kind: FaultKind::Budget,
                })
                .compile(&toffoli_spec())
                .unwrap_err();
            assert!(matches!(
                err,
                CompileError::BudgetExceeded {
                    pass: Pass::Route,
                    ..
                }
            ));
        }

        #[test]
        fn injected_verify_fail_errors() {
            let err = Compiler::new(devices::ibmqx4())
                .with_fault_injection(FaultSpec {
                    pass: Pass::Verify,
                    kind: FaultKind::VerifyFail,
                })
                .compile(&toffoli_spec())
                .unwrap_err();
            assert_eq!(err, CompileError::VerificationFailed);
        }

        #[test]
        fn injected_panic_panics() {
            let result = std::panic::catch_unwind(|| {
                Compiler::new(devices::ibmqx4())
                    .with_fault_injection(FaultSpec {
                        pass: Pass::Decompose,
                        kind: FaultKind::Panic,
                    })
                    .compile(&toffoli_spec())
            });
            assert!(result.is_err());
        }
    }
}
