//! Quantum cost models (paper Section 2.2, Eqn. 2).
//!
//! The compiler minimizes an arbitrary, user-replaceable cost function over
//! circuit statistics. The paper's default (Eqn. 2) prices T gates at an
//! extra 0.5 (poor fault-tolerant fidelity) and CNOTs at an extra 0.25
//! (higher transmon two-qubit error rate) on top of a unit charge per gate.

use qsyn_circuit::{Circuit, CircuitStats};

/// What a cost model cares about when the router picks a strategy on its
/// behalf (the `auto` routing strategy in `qsyn-core`).
///
/// This is a *hint*, not a command: a cost model describes which resource
/// dominates its pricing, and the router maps that onto whichever concrete
/// strategy serves it best. Custom models that do not override
/// [`CostModel::route_hint`] report [`RouteHint::Conservative`], which keeps
/// the paper's baseline CTR router — the safe choice when the model's
/// pricing is opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteHint {
    /// Gate volume / SWAP count dominates: prefer the router that inserts
    /// the fewest SWAPs.
    Swaps,
    /// End-to-end fidelity dominates: prefer the router that minimizes
    /// accumulated two-qubit error.
    Fidelity,
    /// Unknown pricing: keep the baseline (paper-exact) router.
    #[default]
    Conservative,
}

/// A quantum cost function over circuit statistics.
///
/// Implementations must be monotone in each count (removing gates never
/// increases cost), which the optimizer relies on when it strips identity
/// partitions.
pub trait CostModel {
    /// Cost of a circuit with the given statistics. Lower is better.
    fn cost(&self, stats: &CircuitStats) -> f64;

    /// Short human-readable name for reports.
    fn name(&self) -> &str;

    /// Convenience: cost of a circuit.
    fn circuit_cost(&self, circuit: &Circuit) -> f64 {
        self.cost(&circuit.stats())
    }

    /// Cost improvement going from `before` to `after` (positive when the
    /// transformation cheapened the circuit). The trace layer uses this to
    /// attribute cost movement to individual compiler passes.
    fn delta(&self, before: &CircuitStats, after: &CircuitStats) -> f64 {
        self.cost(before) - self.cost(after)
    }

    /// Every tunable parameter that changes this model's pricing without
    /// changing [`name`](CostModel::name). Compile-cache keys fold these in
    /// alongside the name, so two same-named models with different weights
    /// never collide on one cache entry.
    ///
    /// The default returns `None`, which marks the model as not
    /// content-addressable and disables whole-compile memoization for
    /// compilers using it — the safe choice for user-defined models whose
    /// parameters this trait cannot see.
    fn cache_params(&self) -> Option<Vec<f64>> {
        None
    }

    /// Which routing resource this model's pricing is dominated by, used
    /// by the `auto` routing strategy in `qsyn-core` to pick a router on
    /// the model's behalf. Defaults to [`RouteHint::Conservative`] (keep
    /// the paper's CTR baseline), the safe answer for user-defined models.
    fn route_hint(&self) -> RouteHint {
        RouteHint::Conservative
    }
}

/// The paper's Eqn. 2: `q_cost = t_weight * t + cnot_weight * c + a`.
///
/// # Examples
///
/// ```
/// use qsyn_arch::{CostModel, TransmonCost};
/// use qsyn_circuit::Circuit;
/// use qsyn_gate::Gate;
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::t(0));
/// c.push(Gate::cx(0, 1));
/// // 0.5 * 1 + 0.25 * 1 + 2 = 2.75
/// assert!((TransmonCost::default().circuit_cost(&c) - 2.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransmonCost {
    /// Extra weight per T/T† gate (0.5 in Eqn. 2).
    pub t_weight: f64,
    /// Extra weight per CNOT (0.25 in Eqn. 2).
    pub cnot_weight: f64,
}

impl Default for TransmonCost {
    fn default() -> Self {
        TransmonCost {
            t_weight: 0.5,
            cnot_weight: 0.25,
        }
    }
}

impl TransmonCost {
    /// Creates a transmon cost with custom weights (the paper's prototype
    /// "allows users to easily modify cost function weights").
    pub fn new(t_weight: f64, cnot_weight: f64) -> Self {
        TransmonCost {
            t_weight,
            cnot_weight,
        }
    }
}

impl CostModel for TransmonCost {
    fn cost(&self, s: &CircuitStats) -> f64 {
        self.t_weight * s.t_count as f64 + self.cnot_weight * s.cnot_count as f64 + s.volume as f64
    }

    fn name(&self) -> &str {
        "transmon-eqn2"
    }

    fn cache_params(&self) -> Option<Vec<f64>> {
        Some(vec![self.t_weight, self.cnot_weight])
    }

    fn route_hint(&self) -> RouteHint {
        RouteHint::Swaps
    }
}

/// Pure gate-volume cost (every gate costs one); the simplest baseline used
/// in the ablation benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VolumeCost;

impl CostModel for VolumeCost {
    fn cost(&self, s: &CircuitStats) -> f64 {
        s.volume as f64
    }

    fn name(&self) -> &str {
        "volume"
    }

    fn cache_params(&self) -> Option<Vec<f64>> {
        Some(Vec::new())
    }

    fn route_hint(&self) -> RouteHint {
        RouteHint::Swaps
    }
}

/// A fidelity-flavored cost model (the paper mentions experimenting with
/// qubit and operator fidelity instead of decoherence proxies).
///
/// Models each gate as an independent error channel and scores the circuit
/// by its negative log success probability, so costs still add per gate and
/// remain monotone. Default error rates follow the rough magnitudes
/// reported for transmon devices in the paper's references:
/// one-qubit ~1e-3, CNOT ~2.5e-2, T ~4e-3 effective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityCost {
    /// Error probability per one-qubit Clifford gate.
    pub single_error: f64,
    /// Error probability per CNOT.
    pub cnot_error: f64,
    /// Error probability per T/T† gate.
    pub t_error: f64,
}

impl Default for FidelityCost {
    fn default() -> Self {
        FidelityCost {
            single_error: 1e-3,
            cnot_error: 2.5e-2,
            t_error: 4e-3,
        }
    }
}

impl CostModel for FidelityCost {
    fn cost(&self, s: &CircuitStats) -> f64 {
        let per = |count: usize, err: f64| -(count as f64) * (1.0 - err).ln();
        per(
            s.other_single_count + s.unmapped_multi_count,
            self.single_error,
        ) + per(s.cnot_count, self.cnot_error)
            + per(s.t_count, self.t_error)
    }

    fn name(&self) -> &str {
        "fidelity"
    }

    fn cache_params(&self) -> Option<Vec<f64>> {
        Some(vec![self.single_error, self.cnot_error, self.t_error])
    }

    fn route_hint(&self) -> RouteHint {
        RouteHint::Fidelity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_gate::Gate;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::t(0));
        c.push(Gate::t(1));
        c.push(Gate::h(2));
        c.push(Gate::cx(0, 1));
        c
    }

    #[test]
    fn eqn2_matches_hand_computation() {
        // t = 2, c = 1, a = 4 -> 0.5*2 + 0.25*1 + 4 = 5.25
        let cost = TransmonCost::default().circuit_cost(&sample());
        assert!((cost - 5.25).abs() < 1e-12);
    }

    #[test]
    fn eqn2_reproduces_table3_tech_independent_rows() {
        // Table 3 row "#1": 7 T gates, 17 total, cost 22.25 -> 7 CNOTs.
        let s = CircuitStats {
            t_count: 7,
            cnot_count: 7,
            volume: 17,
            other_single_count: 3,
            unmapped_multi_count: 0,
            max_mct_controls: 0,
        };
        assert!((TransmonCost::default().cost(&s) - 22.25).abs() < 1e-12);
        // Row "#0007": 16 T, 60 gates, cost 75 -> 28 CNOTs.
        let s2 = CircuitStats {
            t_count: 16,
            cnot_count: 28,
            volume: 60,
            other_single_count: 16,
            unmapped_multi_count: 0,
            max_mct_controls: 0,
        };
        assert!((TransmonCost::default().cost(&s2) - 75.0).abs() < 1e-12);
    }

    #[test]
    fn custom_weights() {
        let m = TransmonCost::new(2.0, 1.0);
        // t=2, c=1, a=4 -> 2*2 + 1*1 + 4 = 9
        assert!((m.circuit_cost(&sample()) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn volume_cost_counts_gates() {
        assert!((VolumeCost.circuit_cost(&sample()) - 4.0).abs() < 1e-12);
        assert_eq!(VolumeCost.name(), "volume");
    }

    #[test]
    fn fidelity_cost_is_monotone_in_gates() {
        let m = FidelityCost::default();
        let small = m.circuit_cost(&sample());
        let mut bigger = sample();
        bigger.push(Gate::cx(1, 2));
        assert!(m.circuit_cost(&bigger) > small);
        assert!(small > 0.0);
    }

    #[test]
    fn empty_circuit_costs_zero() {
        let empty = Circuit::new(2);
        assert_eq!(TransmonCost::default().circuit_cost(&empty), 0.0);
        assert_eq!(FidelityCost::default().circuit_cost(&empty), 0.0);
    }

    #[test]
    fn delta_attributes_cost_movement() {
        let m = TransmonCost::default();
        let before = sample().stats();
        let mut smaller = sample();
        smaller.gates_mut().pop();
        let after = smaller.stats();
        assert!(m.delta(&before, &after) > 0.0, "removing a gate helps");
        assert_eq!(m.delta(&before, &before), 0.0);
    }

    #[test]
    fn route_hints_follow_the_dominant_resource() {
        assert_eq!(TransmonCost::default().route_hint(), RouteHint::Swaps);
        assert_eq!(VolumeCost.route_hint(), RouteHint::Swaps);
        assert_eq!(FidelityCost::default().route_hint(), RouteHint::Fidelity);
        // A model that overrides nothing stays conservative.
        struct Opaque;
        impl CostModel for Opaque {
            fn cost(&self, s: &CircuitStats) -> f64 {
                s.volume as f64
            }
            fn name(&self) -> &str {
                "opaque"
            }
        }
        assert_eq!(Opaque.route_hint(), RouteHint::Conservative);
    }

    #[test]
    fn cost_models_are_object_safe() {
        let models: Vec<Box<dyn CostModel>> = vec![
            Box::new(TransmonCost::default()),
            Box::new(VolumeCost),
            Box::new(FidelityCost::default()),
        ];
        for m in &models {
            assert!(m.circuit_cost(&sample()) > 0.0);
            assert!(!m.name().is_empty());
        }
    }
}
