//! Property-based tests over the core invariants of the compiler stack:
//! QMDD semantics vs. dense matrices, optimizer soundness, router legality,
//! ESOP coverage, and parser round-trips — on randomized inputs.

use proptest::prelude::*;
use qsyn::core::{decompose_circuit_memo, optimize_bounded};
use qsyn::prelude::*;
use qsyn::qmdd::build_circuit_qmdd;

mod check;
#[path = "../crates/core/tests/common/mod.rs"]
mod common;
use check::qmdd_equal;

/// Strategy: a random gate on `n` qubits from the full gate vocabulary
/// (including technology-independent gates).
fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    prop_oneof![
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
    ]
}

/// Strategy: a random circuit over `n` qubits drawn from [`arb_gate`].
fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(n), 0..max_len)
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
    proptest::collection::vec(gate, 0..max_len).prop_map(move |gates| Circuit::from_gates(n, gates))
}

/// Strategy: a coupling map on 3–8 qubits, connected or split in two,
/// with one- and two-way edges, CNOT- or CZ-native, and the qubits of
/// each of its parts. Qubit labels are shuffled, so either part may hold
/// qubit 0.
fn arb_coupling_map() -> impl Strategy<Value = (Device, Vec<Vec<usize>>)> {
    (
        3usize..9,
        0usize..8,
        proptest::collection::vec((0usize..64, 0u8..3), 7..8),
        proptest::collection::vec((0usize..8, 0usize..8, 0u8..3), 0..6),
        0u64..u64::MAX,
        0u8..2,
    )
        .prop_map(|(n, cut, tree, extra, seed, cz)| {
            let mut label: Vec<usize> = (0..n).collect();
            let mut s = seed | 1;
            for i in (1..n).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                label.swap(i, (s % (i as u64 + 1)) as usize);
            }
            // `cut` 0 keeps the map connected; otherwise positions
            // `..cut` and `cut..` of the shuffled labels are two trees.
            let cut = cut % n;
            let component = |i: usize| usize::from(cut > 0 && i >= cut);
            let mut pairs = Vec::new();
            let mut couple = |a: usize, b: usize, way: u8| {
                let (a, b) = (label[a], label[b]);
                if way != 1 {
                    pairs.push((a, b));
                }
                if way != 0 {
                    pairs.push((b, a));
                }
            };
            for (i, &(pick, way)) in tree.iter().enumerate().take(n - 1) {
                let i = i + 1;
                let first = if component(i) == 1 { cut } else { 0 };
                if i > first {
                    couple(i, first + pick % (i - first), way);
                }
            }
            for &(a, b, way) in &extra {
                let (a, b) = (a % n, b % n);
                if a != b && component(a) == component(b) {
                    couple(a, b, way);
                }
            }
            let device = Device::from_pairs(format!("random-{n}"), n, pairs);
            let device = if cz == 1 {
                device.with_native(TwoQubitNative::Cz)
            } else {
                device
            };
            let parts = if cut == 0 {
                vec![label]
            } else {
                vec![label[..cut].to_vec(), label[cut..].to_vec()]
            };
            (device, parts)
        })
}

/// Raw draws of [`circuit_on_parts`]: `(kind, pick, a, db, dt)`.
type PartDraws = Vec<(u8, usize, usize, usize, usize)>;

/// Strategy: the raw draws of up to 12 gates for [`circuit_on_parts`].
fn arb_part_draws() -> impl Strategy<Value = PartDraws> {
    proptest::collection::vec((0u8..6, 0usize..8, 0usize..8, 1usize..8, 1usize..8), 0..12)
}

/// A circuit on `device` from raw draws: one-qubit gates, CX, CZ and
/// Toffolis. Most gates act inside one part, so routing (and drifting)
/// runs on every part; kind 5 may span parts and so may be unroutable.
fn circuit_on_parts(device: &Device, parts: &[Vec<usize>], draws: PartDraws) -> Circuit {
    let n = device.n_qubits();
    let mut c = Circuit::new(n);
    for (kind, pick, a, db, dt) in draws {
        let lines = if kind == 5 {
            (0..n).collect()
        } else {
            parts[pick % parts.len()].clone()
        };
        let m = lines.len();
        let (a, b, t) = if m < 2 {
            (lines[0], lines[0], lines[0])
        } else {
            let b_i = (a % m + 1 + db % (m - 1)) % m;
            let t_i = (b_i + 1 + dt % (m - 1)) % m;
            (lines[a % m], lines[b_i], lines[t_i])
        };
        c.push(match kind {
            _ if a == b => Gate::single(qsyn::gate::SINGLE_OPS[pick % 8], a),
            0 => Gate::single(qsyn::gate::SINGLE_OPS[pick % 8], a),
            1 | 5 => Gate::cx(a, b),
            2 => Gate::cz(a, b),
            _ if t != a && t != b => Gate::toffoli(a, b, t),
            _ => Gate::cx(b, a),
        });
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On any coupling map, connected or split, every strategy either
    /// compiles an output that verifies and equals the input under the
    /// dense semantics, or fails cleanly with `RouteNotFound`.
    #[test]
    fn every_strategy_on_any_coupling_map_is_exact_or_route_not_found(
        (device, parts) in arb_coupling_map(),
        draws in arb_part_draws(),
    ) {
        let c = circuit_on_parts(&device, &parts, draws);
        let spec = c.to_matrix();
        for strategy in RouteStrategyKind::ALL {
            match Compiler::new(device.clone()).with_route_strategy(strategy).compile(&c) {
                Ok(r) => {
                    prop_assert_eq!(r.verified, Some(true), "{:?}", strategy);
                    prop_assert!(
                        qsyn::gate::equal_up_to_phase(&spec, &r.optimized.to_matrix()),
                        "{:?} changed the unitary on {:?}",
                        strategy,
                        device.couplings().collect::<Vec<_>>()
                    );
                }
                Err(CompileError::RouteNotFound { .. }) => {}
                Err(e) => prop_assert!(false, "{:?}: {}", strategy, e),
            }
        }
    }

    /// Provenance on any coupling map, for every strategy: one source
    /// per routed gate, each naming a decomposed gate, never decreasing;
    /// the optimizer's sources strictly increase and name routed gates;
    /// and the composed vector schedules a miter that accepts the pair.
    #[test]
    fn provenance_names_the_decomposed_gate_of_every_output_gate(
        (device, parts) in arb_coupling_map(),
        draws in arb_part_draws(),
    ) {
        let c = circuit_on_parts(&device, &parts, draws);
        let Ok((decomposed, _)) = decompose_circuit_memo(&c, Some(&device), DecomposeStrategy::Exact) else {
            return Ok(()); // no spare line for a wide gate
        };
        let cost = TransmonCost::default();
        for strategy in RouteStrategyKind::CONCRETE {
            let routed = match strategy.instance().route(&RouteRequest::new(&decomposed, &device)) {
                Ok(routed) => routed,
                Err(CompileError::RouteNotFound { .. }) => continue,
                Err(e) => return Err(TestCaseError::fail(format!("{strategy:?}: {e}"))),
            };
            prop_assert_eq!(routed.source.len(), routed.circuit.len(), "{:?}", strategy);
            prop_assert!(routed.source.iter().all(|&s| (s as usize) < decomposed.len()));
            prop_assert!(routed.source.windows(2).all(|w| w[0] <= w[1]), "{:?}", strategy);
            let (optimized, k) =
                optimize_bounded(&routed.circuit, Some(&device), &cost, OptimizeConfig::default(), None);
            prop_assert_eq!(k.sources.len(), optimized.len());
            prop_assert!(k.sources.iter().all(|&s| (s as usize) < routed.circuit.len()));
            prop_assert!(k.sources.windows(2).all(|w| w[0] < w[1]), "{:?}", strategy);
            let composed: Vec<u32> = k.sources.iter().map(|&s| routed.source[s as usize]).collect();
            let scheduled = EquivMethod::Scheduled { sources: &composed };
            let support = miter_support(&decomposed, &optimized);
            let r = try_equivalent_on(&support, &decomposed, &optimized, scheduled, EquivBudget::default())
                .expect("an unbudgeted check cannot exhaust");
            prop_assert!(r.equivalent, "{:?}", strategy);
        }
    }

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
        prop_assert!(qmdd_equal(&both, &Circuit::new(4)));
    }

    /// The local optimizer preserves the exact unitary (QMDD equality) and
    /// never increases the Eqn. 2 cost.
    #[test]
    fn optimizer_is_sound_and_monotone(c in arb_tech_ready(4, 30)) {
        let cost = TransmonCost::default();
        let o = optimize_bounded(&c, None, &cost, OptimizeConfig::default(), None).0;
        prop_assert!(qmdd_equal(&c, &o));
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
            prop_assert!(qmdd_equal(&c, &r), "{}", d.name());
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

    /// The canonical check, the miter, the miter scheduled by provenance
    /// and the dense unitary (exact, not up to phase) agree on the full
    /// register. Half the pairs are built equal, by inserting `g` and
    /// `g⁻¹` at a random point of `a`, so the equal verdict is exercised
    /// as often as the unequal one. The scheduled miter runs under the
    /// true provenance of a built-equal pair (both inserted gates named
    /// after the gate they precede), that vector reversed, and random
    /// values, some past the spec.
    #[test]
    fn miter_agrees_with_canonical(
        a in arb_circuit(3, 8),
        b in arb_circuit(3, 8),
        g in arb_gate(3),
        at in 0usize..8,
        build_equal in 0u8..2,
        random in proptest::collection::vec(0u32..12, 0..12),
    ) {
        let at = at.min(a.len());
        let b = if build_equal == 1 {
            let mut gates = a.gates().to_vec();
            gates.insert(at, g.inverse());
            gates.insert(at, g);
            Circuit::from_gates(3, gates)
        } else {
            b
        };
        let truth: Vec<u32> = (0..b.len())
            .map(|j| if j < at { j } else if j < at + 2 { at } else { j - 2 } as u32)
            .collect();
        let reversed: Vec<u32> = truth.iter().rev().copied().collect();
        let full: Vec<usize> = (0..3).collect();
        let check = |method| {
            try_equivalent_on(&full, &a, &b, method, EquivBudget::default())
                .expect("an unbudgeted check cannot exhaust")
                .equivalent
        };
        let canon = check(EquivMethod::Canonical);
        let miter = check(EquivMethod::Miter);
        let dense = a.to_matrix().approx_eq(&b.to_matrix());
        prop_assert_eq!(canon, miter);
        prop_assert_eq!(canon, dense);
        for sources in [&truth, &reversed, &random] {
            prop_assert_eq!(check(EquivMethod::Scheduled { sources }), canon, "{:?}", sources);
        }
        if build_equal == 1 {
            prop_assert!(canon, "a pair built equal was rejected");
        }
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
        prop_assert!(qmdd_equal(&fast, &clean));
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
