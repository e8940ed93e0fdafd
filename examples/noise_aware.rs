//! Noise-aware compilation: annotate a device with measured CNOT error
//! rates and let the router trade SWAP count for end-to-end fidelity —
//! the direction the paper sketches when it mentions replacing
//! decoherence proxies with "qubit and operator fidelity" metrics.
//!
//! ```text
//! cargo run --example noise_aware
//! ```

use qsyn::prelude::*;

/// A 6-qubit ladder where the direct rail is noisy and the detour rail is
/// clean: 0-1-2 (errors ~8%) vs 0-3-4-5-2 (errors ~0.3%).
fn characterized_device() -> Device {
    Device::from_coupling_map(
        "ladder6",
        6,
        &[(0, &[1, 3]), (1, &[2]), (3, &[4]), (4, &[5]), (5, &[2])],
    )
    .with_cnot_errors([
        ((0, 1), 0.08),
        ((1, 2), 0.08),
        ((0, 3), 0.003),
        ((3, 4), 0.003),
        ((4, 5), 0.003),
        ((5, 2), 0.003),
    ])
}

/// Crude success-probability estimate for a mapped circuit: the product of
/// per-gate fidelities, using the device annotations for CNOTs.
fn success_probability(c: &Circuit, device: &Device) -> f64 {
    let mut p = 1.0;
    for g in c.gates() {
        match g {
            Gate::Cx { control, target } => {
                let e = device
                    .cnot_error(*control, *target)
                    .unwrap_or(qsyn::core::DEFAULT_CNOT_ERROR);
                p *= 1.0 - e;
            }
            _ => p *= 1.0 - 1e-3,
        }
    }
    p
}

fn main() -> Result<(), CompileError> {
    let device = characterized_device();
    // Workload: repeated CNOTs between the far corners 0 and 2.
    let mut spec = Circuit::new(6).with_name("corner_talk");
    for _ in 0..3 {
        spec.push(Gate::cx(0, 2));
        spec.push(Gate::t(2));
    }

    println!("| routing objective | gates | CNOTs | est. success probability |");
    println!("|---|---|---|---|");
    let mut success = Vec::new();
    for (name, objective) in [
        ("fewest-swaps (paper)", RoutingObjective::FewestSwaps),
        ("highest-fidelity", RoutingObjective::HighestFidelity),
    ] {
        let r = Compiler::new(device.clone())
            .with_routing(objective)
            .compile(&spec)?;
        assert_eq!(r.verified, Some(true));
        let p = success_probability(&r.optimized, &device);
        success.push(p);
        println!(
            "| {name} | {} | {} | {:.3} |",
            r.optimized.len(),
            r.optimized.stats().cnot_count,
            p
        );
    }
    println!(
        "\nfidelity-aware routing pays extra gates for a {:.1}x better \
         success estimate",
        success[1] / success[0]
    );
    assert!(success[1] > success[0]);

    // Cross-check the analytic product with a Monte-Carlo estimate on a
    // natively-legal classical workload (Pauli-twirled error injection
    // requires an NCT circuit, so no Hadamard reversals here).
    let mut classical = Circuit::new(6);
    for _ in 0..3 {
        classical.push(Gate::cx(0, 1));
        classical.push(Gate::cx(1, 2));
    }
    assert!(device.can_execute(&classical));
    let mc = qsyn::bench::noise::classical_success_rate(&classical, &device, 0b100000, 2000, 1234);
    let analytic = success_probability(&classical, &device);
    println!(
        "\nMonte-Carlo success on the native CNOT chain: {mc:.3} \
         (analytic product estimate {analytic:.3})"
    );
    assert!(
        (mc - analytic).abs() < 0.1,
        "estimates should agree roughly"
    );
    Ok(())
}
