//! Walks the paper's Fig. 5 example: rerouting a CNOT with control q5 and
//! target q10 on the 16-qubit ibmqx3 machine via two SWAPs (q5<->q12, then
//! q12<->q11), executing on the q11 -> q10 coupling, and swapping back.

use qsyn_arch::devices;
use qsyn_circuit::Circuit;
use qsyn_core::{ctr_route_with, CtrStrategy, RouteRequest, RoutingObjective, RoutingStrategy};
use qsyn_gate::Gate;
use qsyn_qmdd::{miter_support, try_equivalent_on, EquivBudget, EquivMethod};

fn main() {
    let device = devices::ibmqx3();
    let (control, target) = (5usize, 10usize);
    println!(
        "Fig. 5: CTR on {} for CNOT q{control} -> q{target}\n",
        device.name()
    );

    let route = ctr_route_with(&device, control, target, RoutingObjective::FewestSwaps)
        .expect("ibmqx3 is connected");
    println!("SWAP path found by the connectivity tree: {:?}", route.path);
    println!(
        "effective control after swaps: q{}",
        route.effective_control
    );
    assert_eq!(
        route.path,
        vec![5, 12, 11],
        "must match the paper's example"
    );

    let mut spec = Circuit::new(device.n_qubits());
    spec.push(Gate::cx(control, target));
    let mapped = CtrStrategy
        .route(&RouteRequest::new(&spec, &device))
        .expect("routable")
        .circuit;
    println!(
        "\nemitted technology-dependent sequence ({} gates):",
        mapped.len()
    );
    print!("{mapped}");

    let (support, budget) = (miter_support(&spec, &mapped), EquivBudget::default());
    let report = try_equivalent_on(&support, &spec, &mapped, EquivMethod::Miter, budget)
        .expect("an unbudgeted check cannot exhaust");
    println!(
        "QMDD equivalence with the original CNOT: {}",
        report.equivalent
    );
    assert!(report.equivalent);
}
