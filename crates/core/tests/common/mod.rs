//! Test-code references the differential suites compare the routers
//! against.

use qsyn_arch::Device;
use qsyn_circuit::Circuit;
use qsyn_core::route::emit_cz_with;
use qsyn_core::{ctr_route_with, emit_cnot_with, CompileError, RoutingObjective};
use qsyn_gate::Gate;

/// The paper's CTR router as the bare per-gate search, with no shared
/// state: each two-qubit gate is routed on its own by `ctr_route_with` and
/// emitted by `emit_cnot_with` / `emit_cz_with`. Returns the routed
/// circuit with its (SWAPs inserted, gates rerouted) counts — what
/// `CtrStrategy` must reproduce through any routing lookup.
pub fn ctr_per_gate(
    circuit: &Circuit,
    device: &Device,
    objective: RoutingObjective,
) -> Result<(Circuit, usize, usize), CompileError> {
    let mut out = Circuit::new(device.n_qubits());
    let (mut swaps, mut rerouted) = (0, 0);
    for g in circuit.gates() {
        let (control, target) = match *g {
            Gate::Cx { control, target } | Gate::Cz { control, target } => (control, target),
            _ => {
                out.push(g.clone());
                continue;
            }
        };
        let hops = ctr_route_with(device, control, target, objective)?.path.len() - 1;
        swaps += 2 * hops;
        rerouted += usize::from(hops > 0);
        if matches!(g, Gate::Cz { .. }) {
            emit_cz_with(device, control, target, objective, &mut out)?;
        } else {
            emit_cnot_with(device, control, target, objective, &mut out)?;
        }
    }
    Ok((out, swaps, rerouted))
}
