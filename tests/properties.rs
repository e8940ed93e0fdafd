//! Property-based tests over the core invariants of the compiler stack:
//! QMDD semantics vs. dense matrices, optimizer soundness, router legality,
//! ESOP coverage, and parser round-trips — on randomized inputs.

use proptest::prelude::*;
use qsyn::core::{decompose_circuit_memo, optimize_bounded};
use qsyn::prelude::*;
use qsyn::qmdd::build_circuit_qmdd;

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

/// Strategy: a random circuit over `n` qubits drawn from the full gate
/// vocabulary (including technology-independent gates).
fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    let gate = prop_oneof![
        (0..8usize, 0..n).prop_map(|(op, q)| Gate::single(qsyn::gate::SINGLE_OPS[op], q)),
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| Gate::cx(a, b)),
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| Gate::cz(a, b)),
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| Gate::swap(a, b)),
        (0..n, 0..n, 0..n)
            .prop_filter("distinct", |(a, b, c)| a != b && b != c && a != c)
            .prop_map(|(a, b, c)| Gate::toffoli(a, b, c)),
    ];
    proptest::collection::vec(gate, 0..max_len)
        .prop_map(move |gates| Circuit::from_gates(n, gates))
}

/// Strategy: a circuit on `n` lines that opens with a generalized Toffoli
/// of 3–6 controls and mixes more of them among one- and two-qubit gates.
/// Each MCT's operands are scattered over the register by a seeded
/// shuffle, so its spare lines vary from plentiful to one or two.
fn arb_wide_mct(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    let mct = move || {
        (3usize..7, 0u64..u64::MAX).prop_map(move |(m, seed)| {
            let mut lines: Vec<usize> = (0..n).collect();
            let mut s = seed | 1;
            for i in (1..n).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                lines.swap(i, (s % (i as u64 + 1)) as usize);
            }
            Gate::mct(lines[..m].to_vec(), lines[m])
        })
    };
    let gate = prop_oneof![
        mct(),
        (0..8usize, 0..n).prop_map(|(op, q)| Gate::single(qsyn::gate::SINGLE_OPS[op], q)),
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| Gate::cx(a, b)),
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| Gate::cz(a, b)),
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| Gate::swap(a, b)),
    ];
    (mct(), proptest::collection::vec(gate, 0..max_len)).prop_map(move |(first, rest)| {
        let mut c = Circuit::new(n);
        c.push(first);
        c.extend(rest);
        c
    })
}

/// Strategy: a circuit restricted to technology-ready gates.
fn arb_tech_ready(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    let gate = prop_oneof![
        (0..8usize, 0..n).prop_map(|(op, q)| Gate::single(qsyn::gate::SINGLE_OPS[op], q)),
        (0..n, 0..n)
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| Gate::cx(a, b)),
    ];
    proptest::collection::vec(gate, 0..max_len)
        .prop_map(move |gates| Circuit::from_gates(n, gates))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The QMDD of any circuit expands to exactly its dense unitary.
    #[test]
    fn qmdd_matches_dense_matrix(c in arb_circuit(4, 12)) {
        let (pkg, e) = build_circuit_qmdd(&c);
        prop_assert!(pkg.to_matrix(e).approx_eq(&c.to_matrix()));
    }

    /// A circuit composed with its inverse is the identity, canonically.
    #[test]
    fn circuit_times_inverse_is_identity(c in arb_circuit(4, 14)) {
        let mut both = c.clone();
        both.append(&c.inverse());
        prop_assert!(circuits_equal(&both, &Circuit::new(4)));
    }

    /// The local optimizer preserves the exact unitary (QMDD equality) and
    /// never increases the Eqn. 2 cost.
    #[test]
    fn optimizer_is_sound_and_monotone(c in arb_tech_ready(4, 30)) {
        let cost = TransmonCost::default();
        let o = optimize_bounded(&c, None, &cost, OptimizeConfig::default(), None).0;
        prop_assert!(circuits_equal(&c, &o));
        prop_assert!(cost.circuit_cost(&o) <= cost.circuit_cost(&c) + 1e-9);
    }

    /// The memoized lowering (the only one the compiler has) matches the
    /// unmemoized test reference gate for gate, with and without a device
    /// ordering the spare lines, under both decomposition strategies.
    #[test]
    fn memoized_lowering_matches_the_unmemoized_reference(c in arb_wide_mct(9, 10)) {
        let device = devices::ibmq_16();
        for strategy in [DecomposeStrategy::Exact, DecomposeStrategy::RelativePhase] {
            for dev in [None, Some(&device)] {
                let reference = common::decompose_unmemoized(&c, dev, strategy).unwrap();
                let (memo, _) = decompose_circuit_memo(&c, dev, strategy).unwrap();
                prop_assert_eq!(
                    memo.gates(),
                    reference.gates(),
                    "{:?} on {:?}",
                    strategy,
                    dev.map(|d| d.name())
                );
            }
        }
    }

    /// The optimizer is idempotent: a second run finds nothing further.
    #[test]
    fn optimizer_is_idempotent(c in arb_tech_ready(4, 25)) {
        let cost = TransmonCost::default();
        let once = optimize_bounded(&c, None, &cost, OptimizeConfig::default(), None).0;
        let twice = optimize_bounded(&once, None, &cost, OptimizeConfig::default(), None).0;
        prop_assert_eq!(once.gates(), twice.gates());
    }

    /// The persistent-layout router preserves semantics on random
    /// technology-ready circuits across devices.
    #[test]
    fn persistent_router_is_sound(c in arb_tech_ready(5, 12)) {
        for d in [devices::ibmqx2(), devices::ibmqx5()] {
            let r = PersistentStrategy.route(&RouteRequest::new(&c, &d)).unwrap().circuit;
            prop_assert!(circuits_equal(&c, &r), "{}", d.name());
        }
    }

    /// The full pipeline preserves semantics and emits only legal CNOTs,
    /// for every random circuit and every 5-qubit device.
    #[test]
    fn pipeline_output_is_legal_and_equivalent(c in arb_circuit(4, 8)) {
        for device in [devices::ibmqx2(), devices::ibmqx4()] {
            match Compiler::new(device.clone()).compile(&c) {
                Ok(r) => {
                    prop_assert_eq!(r.verified, Some(true));
                    for g in r.optimized.gates() {
                        if let Gate::Cx { control, target } = g {
                            prop_assert!(device.has_coupling(*control, *target));
                        }
                        prop_assert!(g.is_technology_ready());
                    }
                }
                Err(CompileError::NoAncilla { .. }) => {} // legitimate N/A
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
        }
    }

    /// The miter equivalence check agrees with the canonical check.
    #[test]
    fn miter_agrees_with_canonical(a in arb_circuit(3, 8), b in arb_circuit(3, 8)) {
        let canon = equivalent(&a, &b).equivalent;
        let miter = equivalent_miter(&a, &b).equivalent;
        prop_assert_eq!(canon, miter);
    }

    /// Minimized ESOPs cover their truth tables for random functions.
    #[test]
    fn esop_minimization_covers(bits in 0u64..65536) {
        let tt = TruthTable::from_fn(4, |i| bits >> i & 1 == 1);
        let esop = Esop::minimized(&tt);
        prop_assert_eq!(esop.truth_table(), tt);
    }

    /// Synthesized single-target gates compute `y ^= f(x)` for random f.
    #[test]
    fn single_target_synthesis_is_correct(bits in 0u64..65536) {
        let tt = TruthTable::from_fn(4, |i| bits >> i & 1 == 1);
        let c = synthesize_single_target(&tt);
        for x in 0..16u64 {
            prop_assert_eq!(c.permute_basis(x << 1), x << 1 | tt.eval(x) as u64);
        }
    }

    /// QASM round-trips preserve the gate list exactly.
    #[test]
    fn qasm_round_trip(c in arb_circuit(4, 15)) {
        let qasm = c.to_qasm().unwrap();
        let parsed = Circuit::from_qasm(&qasm).unwrap();
        prop_assert_eq!(parsed.gates(), c.gates());
    }

    /// `.qc` round-trips preserve the gate list exactly.
    #[test]
    fn qc_round_trip(c in arb_circuit(4, 15)) {
        let qc = c.to_qc();
        let parsed = Circuit::from_qc(&qc).unwrap();
        prop_assert_eq!(parsed.gates(), c.gates());
    }

    /// CTR always finds a path on a connected device, the path walks real
    /// couplings, and never steps on the target.
    #[test]
    fn ctr_paths_are_valid_walks(control in 0usize..16, target in 0usize..16) {
        prop_assume!(control != target);
        let d = devices::ibmqx5();
        let route =
            qsyn::core::ctr_route_with(&d, control, target, RoutingObjective::FewestSwaps).unwrap();
        prop_assert_eq!(*route.path.first().unwrap(), control);
        for w in route.path.windows(2) {
            prop_assert!(d.are_adjacent(w[0], w[1]));
        }
        prop_assert!(!route.path.contains(&target));
        prop_assert!(d.are_adjacent(route.effective_control, target));
    }

    /// Every combination of pipeline strategies produces a verified,
    /// legal mapping of random circuits.
    #[test]
    fn strategy_matrix_is_sound(c in arb_circuit(4, 6)) {
        for strategy in [RouteStrategyKind::Ctr, RouteStrategyKind::Persistent] {
            for decompose in [DecomposeStrategy::Exact, DecomposeStrategy::RelativePhase] {
                match Compiler::new(devices::ibmqx5())
                    .with_route_strategy(strategy)
                    .with_decompose_strategy(decompose)
                    .compile(&c)
                {
                    Ok(r) => {
                        prop_assert_eq!(r.verified, Some(true), "{:?}/{:?}", strategy, decompose);
                        for g in r.optimized.gates() {
                            if let Gate::Cx { control, target } = g {
                                prop_assert!(devices::ibmqx5().has_coupling(*control, *target));
                            }
                        }
                    }
                    Err(CompileError::NoAncilla { .. }) => {}
                    Err(e) => prop_assert!(false, "unexpected: {e}"),
                }
            }
        }
    }

    /// MMD synthesis realizes arbitrary permutations of 3-line registers.
    #[test]
    fn mmd_synthesis_is_correct(seed in 0u64..200) {
        use qsyn::esop::{synthesize_permutation, Permutation};
        // Fisher-Yates from the seed.
        let mut map: Vec<u64> = (0..8).collect();
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(99);
        for i in (1..8usize).rev() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            map.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let p = Permutation::new(3, map).unwrap();
        let c = synthesize_permutation(&p);
        for x in 0..8u64 {
            prop_assert_eq!(c.permute_basis(x), p.apply(x));
        }
    }

    /// Fidelity-objective routing yields circuits equivalent to hop-count
    /// routing, for random error annotations.
    #[test]
    fn routing_objectives_agree_semantically(
        control in 0usize..16,
        target in 0usize..16,
        noise_seed in 0u64..50,
    ) {
        prop_assume!(control != target);
        let mut d = devices::ibmqx5();
        let mut s = noise_seed.wrapping_mul(0x2545f4914f6cdd1d).wrapping_add(3);
        let pairs: Vec<(usize, usize)> = d.couplings().collect();
        for (c, t) in pairs {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            d.set_cnot_error(c, t, (s % 100) as f64 / 1000.0);
        }
        let mut spec = Circuit::new(16);
        spec.push(Gate::cx(control, target));
        let routed = |objective| {
            CtrStrategy
                .route(&RouteRequest::new(&spec, &d).with_objective(objective))
                .unwrap()
                .circuit
        };
        let fast = routed(RoutingObjective::FewestSwaps);
        let clean = routed(RoutingObjective::HighestFidelity);
        prop_assert!(circuits_equal(&fast, &clean));
    }

    /// The DD simulator agrees with dense state vectors on random
    /// technology-ready circuits.
    #[test]
    fn dd_simulator_matches_dense(c in arb_tech_ready(4, 20)) {
        let mut sim = Simulator::new(4);
        sim.run(&c);
        let mut dense = vec![C64::ZERO; 16];
        dense[0] = C64::ONE;
        c.apply_to_state(&mut dense);
        for (b, expected) in dense.iter().enumerate() {
            prop_assert!(sim.amplitude(b as u128).approx_eq(*expected), "basis {b}");
        }
    }

    /// PLA planes with OR semantics synthesize circuits computing exactly
    /// the covered functions.
    #[test]
    fn pla_synthesis_is_correct(rows in proptest::collection::vec((0u32..16, 0u32..16, 1u32..4), 1..6)) {
        let mut src = String::from(".i 4\n.o 2\n");
        for (care, pol, outs) in &rows {
            for v in 0..4 {
                src.push(match (care >> v & 1, pol >> v & 1) {
                    (0, _) => '-',
                    (_, 1) => '1',
                    _ => '0',
                });
            }
            src.push(' ');
            for k in 0..2 {
                src.push(if outs >> k & 1 == 1 { '1' } else { '0' });
            }
            src.push('\n');
        }
        let pla = parse_pla(&src).unwrap();
        let c = pla.synthesize();
        for x in 0..16u64 {
            let out = c.permute_basis(x << 2);
            let o0 = pla.output_table(0).eval(x) as u64;
            let o1 = pla.output_table(1).eval(x) as u64;
            prop_assert_eq!(out, x << 2 | o0 << 1 | o1);
        }
    }

    /// Random devices round-trip through the textual description format.
    #[test]
    fn device_description_round_trips(
        n in 2usize..10,
        edges in proptest::collection::vec((0usize..10, 0usize..10, 0u8..2), 1..20),
    ) {
        use qsyn::arch::{device_description, parse_device};
        let pairs: Vec<(usize, usize)> = edges
            .iter()
            .map(|&(a, b, _)| (a % n, b % n))
            .filter(|&(a, b)| a != b)
            .collect();
        prop_assume!(!pairs.is_empty());
        let mut d = Device::from_pairs("randdev", n, pairs.clone());
        // Annotate a few couplings.
        for (i, &(a, b)) in pairs.iter().enumerate() {
            if i % 2 == 0 {
                d.set_cnot_error(a, b, 0.01 + i as f64 * 0.001);
            }
        }
        let again = parse_device(&device_description(&d)).unwrap();
        prop_assert_eq!(d, again);
    }

    /// ASCII drawing never panics and mentions every line label.
    #[test]
    fn draw_is_total(c in arb_circuit(4, 20)) {
        let art = c.draw();
        for q in 0..4 {
            let label = format!("q{q}:");
            prop_assert!(art.contains(&label));
        }
    }

    /// Statevector simulation agrees with permute_basis on classical
    /// circuits.
    #[test]
    fn classical_simulation_agrees(seed in 0u64..500) {
        // Derive a deterministic classical circuit from the seed.
        let mut gates = Vec::new();
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for _ in 0..8 {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            let a = (s % 4) as usize;
            let b = ((s >> 8) % 4) as usize;
            let c = ((s >> 16) % 4) as usize;
            match s % 3 {
                0 => gates.push(Gate::x(a)),
                1 if a != b => gates.push(Gate::cx(a, b)),
                2 if a != b && b != c && a != c => gates.push(Gate::toffoli(a, b, c)),
                _ => {}
            }
        }
        let circuit = Circuit::from_gates(4, gates);
        let m = circuit.to_matrix();
        for input in 0..16u64 {
            let out = circuit.permute_basis(input);
            prop_assert!(m[(out as usize, input as usize)].is_one());
        }
    }
}
