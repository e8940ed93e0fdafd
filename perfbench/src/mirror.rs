//! The outside-in traced pipeline: the stages of `Compiler::compile` and
//! `Compiler::compile_stream`, called one public function at a time from
//! benchmark code, with a span around each call and the counts each call
//! returns. It reproduces the default compiler configuration the
//! workloads use (identity placement, CTR routing over the shared routing
//! table or oracle, exact decomposition, default optimization, automatic
//! verification); the traced runs check that it emits byte-identical QASM
//! and the same verdicts as the compiler itself.

use crate::common::span;
use crate::metrics::Layers;
use qsyn_arch::{CostModel, Device, TransmonCost};
use qsyn_circuit::{parse_real, to_qasm, write_gate_qasm, Circuit};
use qsyn_core::decompose::decompose_circuit_memo;
use qsyn_core::{
    optimize_bounded, place, CompileError, DecomposeStrategy, OptimizeConfig, PlacementStrategy,
    RouteRequest, RouteStrategyKind, RoutingLookup, RoutingObjective,
};
use qsyn_esop::synthesize_single_target;
use qsyn_gate::Gate;
use qsyn_qmdd::{
    miter_support, try_equivalent, try_equivalent_miter, try_equivalent_miter_on_batched,
    EquivBudget, DEFAULT_MITER_BATCH,
};
use qsyn_trace::Verdict;

/// The technology-independent input of one compile op.
#[derive(Debug, Clone)]
pub enum Input {
    /// A Table 3 single-target gate, synthesized by the ESOP front-end
    /// from its hex truth table.
    Truth(qsyn_bench::stg::StgFunction),
    /// A Table 5 cascade, parsed from its `.real` text.
    Real(qsyn_bench::revlib::RevlibBenchmark),
    /// A circuit built directly (the Table 7/8 cascades).
    Built(Circuit),
}

impl Input {
    /// Runs the front-end: the circuit `Compiler::compile` is given.
    pub fn front_end(&self) -> Circuit {
        match self {
            Input::Truth(f) => {
                synthesize_single_target(&f.truth_table()).with_name(format!("#{}", f.id))
            }
            Input::Real(b) => parse_real(b.source)
                .expect("embedded .real sources parse")
                .with_name(b.name),
            Input::Built(c) => c.clone(),
        }
    }

    /// [`Input::front_end`] with the ESOP synthesis or the parse timed as
    /// its layer.
    pub fn front_end_traced(&self, layers: &mut Layers) -> Circuit {
        match self {
            Input::Truth(f) => {
                let c = span(&mut layers.esop_s, || self.front_end());
                // One multi-controlled gate per ESOP cube, each targeting
                // the last line; the other gates are literal toggles.
                let target = f.qubits - 1;
                layers.esop_cubes += c.gates().iter().filter(|g| g.touches(target)).count() as u64;
                c
            }
            Input::Real(_) => span(&mut layers.parse_s, || self.front_end()),
            Input::Built(c) => c.clone(),
        }
    }
}

/// What one traced compile produced.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The emitted QASM.
    pub qasm: String,
    /// The verification verdict.
    pub verdict: Verdict,
}

/// One compile of `input` for `device`, stage by stage.
///
/// # Errors
///
/// The pipeline errors `Compiler::compile` would return.
pub fn compile_traced(
    input: &Input,
    device: &Device,
    lookup: &RoutingLookup,
    layers: &mut Layers,
) -> Result<Traced, CompileError> {
    let circuit = input.front_end_traced(layers);
    let base_name = circuit.name().unwrap_or("circuit").to_string();
    let placed = span(&mut layers.place_s, || {
        let placement = place(&circuit, device, PlacementStrategy::Identity);
        let mut placed = placement.apply(&circuit, device);
        placed.set_name(base_name.clone());
        placed
    });
    let (decomposed, memo) = span(&mut layers.decompose_s, || {
        decompose_circuit_memo(&placed, Some(device), DecomposeStrategy::Exact)
    })?;
    layers.decompose_gates_out += decomposed.len() as u64;
    layers.memo_hits += memo.memo_hits as u64;
    layers.memo_misses += memo.memo_misses as u64;
    let mut unoptimized = route_traced(&decomposed, device, lookup, layers)?;
    unoptimized.set_name(format!("{base_name}@{}", device.name()));
    let optimized = optimize_traced(&unoptimized, device, layers);
    // `Verification::Auto` with no node budget: a single canonical rung
    // up to 16 device qubits, a single miter rung beyond.
    let canonical = device.n_qubits() <= 16;
    let report = span(&mut layers.verify_s, || {
        if canonical {
            try_equivalent(&placed, &optimized, EquivBudget::default())
        } else {
            try_equivalent_miter(&placed, &optimized, EquivBudget::default())
        }
    })
    .expect("a check without a node budget cannot exhaust it");
    layers.note_verify(&report);
    let method = if canonical { "canonical" } else { "miter" }.to_string();
    let verdict = if report.equivalent {
        Verdict::Verified { method }
    } else {
        Verdict::Failed { method }
    };
    let qasm = span(&mut layers.emit_s, || to_qasm(&optimized))
        .expect("a decomposed circuit has a QASM form");
    layers.emit_bytes += qasm.len() as u64;
    Ok(Traced { qasm, verdict })
}

/// CTR routing through the strategy trait, over the shared table or
/// oracle, counting SWAPs and oracle answers.
fn route_traced(
    decomposed: &Circuit,
    device: &Device,
    lookup: &RoutingLookup,
    layers: &mut Layers,
) -> Result<Circuit, CompileError> {
    let mut req =
        RouteRequest::new(decomposed, device).with_objective(RoutingObjective::FewestSwaps);
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
    let outcome = span(&mut layers.route_s, || {
        RouteStrategyKind::Ctr.instance().route(&req)
    })?;
    layers.route_swaps += outcome.total_swaps() as u64;
    if let Some((oracle, h0, m0)) = oracle {
        layers.oracle_hits += oracle.hit_count() - h0;
        layers.oracle_misses += oracle.miss_count() - m0;
    }
    Ok(outcome.circuit)
}

fn optimize_traced(routed: &Circuit, device: &Device, layers: &mut Layers) -> Circuit {
    let cost = TransmonCost::default();
    let (optimized, k) = span(&mut layers.optimize_s, || {
        optimize_bounded(
            routed,
            Some(device),
            &cost as &dyn CostModel,
            OptimizeConfig::default(),
            None,
        )
    });
    layers.optimize_rounds += k.rounds as u64;
    layers.gates_removed += k.gates_removed as u64;
    optimized
}

/// What one traced streaming compile produced.
#[derive(Debug, Clone, Default)]
pub struct TracedStream {
    /// The emitted QASM (header plus every output gate).
    pub qasm: String,
    /// Output gates emitted.
    pub gates_out: usize,
    /// Windows processed.
    pub windows: usize,
    /// Windows whose miter check passed.
    pub verified_windows: usize,
    /// Windows whose check exhausted the node budget.
    pub unverified_windows: usize,
    /// Windows whose check rejected the output.
    pub failed_windows: usize,
}

/// A streaming compile of `gates` in windows of `window` input gates,
/// stage by stage, with the support-restricted batched window miter
/// under `node_budget` (the `compile_stream` defaults).
///
/// # Errors
///
/// The pipeline errors `Compiler::compile_stream` would return.
pub fn stream_traced(
    device: &Device,
    lookup: &RoutingLookup,
    node_budget: Option<usize>,
    window: usize,
    gates: &[Gate],
    layers: &mut Layers,
) -> Result<TracedStream, CompileError> {
    let n = device.n_qubits();
    let budget = EquivBudget {
        gc_threshold: node_budget.map(|b| (b / 2).max(2)),
        node_budget,
    };
    let mut out = TracedStream {
        qasm: qsyn_circuit::qasm_header(n, None),
        ..TracedStream::default()
    };
    for chunk in gates.chunks(window.max(1)) {
        out.windows += 1;
        let spec = Circuit::from_gates(n, chunk.to_vec());
        let (decomposed, memo) = span(&mut layers.decompose_s, || {
            decompose_circuit_memo(&spec, Some(device), DecomposeStrategy::Exact)
        })?;
        layers.decompose_gates_out += decomposed.len() as u64;
        layers.memo_hits += memo.memo_hits as u64;
        layers.memo_misses += memo.memo_misses as u64;
        let routed = route_traced(&decomposed, device, lookup, layers)?;
        let optimized = optimize_traced(&routed, device, layers);
        let (result, support) = span(&mut layers.verify_s, || {
            let support = miter_support(&spec, &optimized);
            let r = try_equivalent_miter_on_batched(
                &support,
                &spec,
                &optimized,
                budget,
                DEFAULT_MITER_BATCH,
            );
            (r, support.len())
        });
        layers.verify_windows += 1;
        layers.verify_max_support = layers.verify_max_support.max(support as u64);
        match result {
            Ok(report) => {
                layers.note_verify(&report);
                if report.equivalent {
                    out.verified_windows += 1;
                } else {
                    out.failed_windows += 1;
                }
            }
            Err(_) => out.unverified_windows += 1,
        }
        let before = out.qasm.len();
        span(&mut layers.emit_s, || {
            for g in optimized.gates() {
                write_gate_qasm(&mut out.qasm, g).expect("native gates have a QASM form");
            }
        });
        layers.emit_bytes += (out.qasm.len() - before) as u64;
        out.gates_out += optimized.len();
    }
    Ok(out)
}
