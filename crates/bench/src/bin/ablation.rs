//! Quality ablations for the design choices DESIGN.md calls out: how much
//! Eqn. 2 cost each optimization family recovers, what greedy placement
//! buys over the paper's identity assignment, and what proximity-aware
//! ancilla selection saves during Barenco decomposition.
//!
//! ```text
//! cargo run --release --bin ablation
//! ```

use qsyn_arch::{devices, CostModel, Device, TransmonCost};
use qsyn_bench::big::BIG_BENCHMARKS;
use qsyn_bench::revlib::REVLIB_BENCHMARKS;
use qsyn_circuit::Circuit;
use qsyn_core::{
    decompose_circuit_memo, optimize_bounded, Compiler, CtrStrategy, DecomposeStrategy,
    OptimizeConfig, PlacementStrategy, RouteRequest, RouteStrategyKind, RoutingStrategy,
    Verification,
};

fn main() {
    let cost = TransmonCost::default();

    println!("## Ablation 1: optimization families (paper steps 5-6)\n");
    println!("| benchmark | device | unopt cost | cancel-only | rewrite-only | both |");
    println!("|---|---|---|---|---|---|");
    for b in REVLIB_BENCHMARKS {
        let device = devices::ibmqx5();
        let mapped = Compiler::new(device.clone())
            .with_verification(Verification::None)
            .with_optimization(false)
            .compile(&b.circuit())
            .unwrap()
            .unoptimized;
        let run = |cancel, rewrite| {
            let cfg = OptimizeConfig {
                cancel_identities: cancel,
                rewrite_identities: rewrite,
            };
            cost.circuit_cost(&optimize_bounded(&mapped, Some(&device), &cost, cfg, None).0)
        };
        println!(
            "| {} | {} | {:.2} | {:.2} | {:.2} | {:.2} |",
            b.name,
            device.name(),
            cost.circuit_cost(&mapped),
            run(true, false),
            run(false, true),
            run(true, true),
        );
    }

    println!("\n## Ablation 2: initial placement (identity vs. greedy vs. annealed)\n");
    println!("| benchmark | device | identity | greedy | annealed | best delta % |");
    println!("|---|---|---|---|---|---|");
    for b in REVLIB_BENCHMARKS {
        for device in [devices::ibmqx3(), devices::ibmqx5()] {
            let compile = |strategy| {
                Compiler::new(device.clone())
                    .with_placement(strategy)
                    .with_verification(Verification::None)
                    .compile(&b.circuit())
                    .ok()
                    .map(|r| cost.circuit_cost(&r.optimized))
            };
            if let (Some(ident), Some(greedy), Some(annealed)) = (
                compile(PlacementStrategy::Identity),
                compile(PlacementStrategy::Greedy),
                compile(PlacementStrategy::Annealed),
            ) {
                let best = greedy.min(annealed);
                println!(
                    "| {} | {} | {:.2} | {:.2} | {:.2} | {:+.1} |",
                    b.name,
                    device.name(),
                    ident,
                    greedy,
                    annealed,
                    (ident - best) / ident * 100.0
                );
            }
        }
    }

    println!("\n## Ablation 3: MCT decomposition (exact vs. relative-phase chains)\n");
    println!("| benchmark | device | exact T / cost | relative-phase T / cost |");
    println!("|---|---|---|---|");
    let d16 = devices::ibmqx5();
    for b in REVLIB_BENCHMARKS {
        let run = |strategy| {
            Compiler::new(d16.clone())
                .with_decompose_strategy(strategy)
                .compile(&b.circuit())
                .map(|r| {
                    assert_eq!(r.verified, Some(true));
                    (r.optimized.stats().t_count, cost.circuit_cost(&r.optimized))
                })
                .ok()
        };
        if let (Some((te, ce)), Some((tr, cr))) = (
            run(DecomposeStrategy::Exact),
            run(DecomposeStrategy::RelativePhase),
        ) {
            println!(
                "| {} | {} | {te} / {ce:.2} | {tr} / {cr:.2} |",
                b.name,
                d16.name()
            );
        }
    }

    println!("\n## Ablation 4: routing strategy (CTR swap-back vs. persistent layout)\n");
    println!("| benchmark | device | CTR cost | persistent cost | delta % |");
    println!("|---|---|---|---|---|");
    for b in REVLIB_BENCHMARKS {
        for device in [devices::ibmqx3(), devices::ibmqx5()] {
            let run = |strategy| {
                Compiler::new(device.clone())
                    .with_route_strategy(strategy)
                    .compile(&b.circuit())
                    .map(|r| {
                        assert_eq!(r.verified, Some(true));
                        cost.circuit_cost(&r.optimized)
                    })
                    .ok()
            };
            if let (Some(ctr), Some(persist)) = (
                run(RouteStrategyKind::Ctr),
                run(RouteStrategyKind::Persistent),
            ) {
                println!(
                    "| {} | {} | {ctr:.2} | {persist:.2} | {:+.1} |",
                    b.name,
                    device.name(),
                    (ctr - persist) / ctr * 100.0
                );
            }
        }
    }

    println!("\n## Ablation 5: ancilla selection (index vs. coupling distance)\n");
    println!("| benchmark | routed cost, index order | routed cost, distance order | delta % |");
    println!("|---|---|---|---|");
    let device = devices::qc96();
    // Lowers with spare lines in index order (no device) or by coupling
    // distance, then CTR-routes on the device and prices the result.
    let routed_cost = |circuit: &Circuit, ancilla_order: Option<&Device>| {
        let (lowered, _) =
            decompose_circuit_memo(circuit, ancilla_order, DecomposeStrategy::Exact).unwrap();
        let routed = CtrStrategy
            .route(&RouteRequest::new(&lowered, &device))
            .unwrap();
        cost.circuit_cost(&routed.circuit)
    };
    for b in BIG_BENCHMARKS {
        let circuit = b.circuit();
        let ci = routed_cost(&circuit, None);
        let cd = routed_cost(&circuit, Some(&device));
        println!(
            "| {} | {:.0} | {:.0} | {:+.1} |",
            b.name,
            ci,
            cd,
            (ci - cd) / ci * 100.0
        );
    }
}
