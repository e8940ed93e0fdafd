//! Graphviz DOT export of QMDD structure — renders diagrams like the
//! paper's Fig. 1 (the CNOT QMDD).

use crate::fxhash::FxHashSet;
use crate::package::{Edge, Qmdd, TERMINAL};
use std::fmt::Write as _;

impl Qmdd {
    /// Renders the diagram rooted at `root` as Graphviz DOT.
    ///
    /// Non-terminal vertices are labeled with their variable (`x0` on top,
    /// as in the paper); the four outgoing edge ports are ordered
    /// `U00, U01, U10, U11` left to right, with non-unit weights printed on
    /// the edge. Zero edges are drawn to a shared `0` sink so quadrant
    /// structure stays visible.
    pub fn to_dot(&self, root: Edge) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph qmdd {{");
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [shape=circle];");
        let _ = writeln!(out, "  t [label=\"1\", shape=box];");
        let _ = writeln!(out, "  z [label=\"0\", shape=box];");

        // Root entry arrow with its weight.
        let rw = self.weight_value(root.weight);
        let _ = writeln!(out, "  entry [shape=point];");
        if root.is_zero() {
            let _ = writeln!(out, "  entry -> z;");
            let _ = writeln!(out, "}}");
            return out;
        }
        let _ = writeln!(out, "  entry -> n{} [label=\"{rw}\"];", root.node);

        let mut names: FxHashSet<u32> = FxHashSet::default();
        let mut stack = vec![root.node];
        while let Some(id) = stack.pop() {
            if id == TERMINAL || !names.insert(id) {
                continue;
            }
            let var = self.var_of(Edge {
                node: id,
                weight: crate::ctable::W_ONE,
            });
            let _ = writeln!(out, "  n{id} [label=\"x{var}\"];");
            let children = self.children(Edge {
                node: id,
                weight: crate::ctable::W_ONE,
            });
            for (quadrant, ch) in children.iter().enumerate() {
                let label = format!("U{}{}", quadrant / 2, quadrant % 2);
                if ch.is_zero() {
                    let _ = writeln!(out, "  n{id} -> z [label=\"{label}\", style=dashed];");
                    continue;
                }
                let w = self.weight_value(ch.weight);
                let wlabel = if w.is_one() {
                    label
                } else {
                    format!("{label} ({w})")
                };
                if ch.node == TERMINAL {
                    let _ = writeln!(out, "  n{id} -> t [label=\"{wlabel}\"];");
                } else {
                    let _ = writeln!(out, "  n{id} -> n{} [label=\"{wlabel}\"];", ch.node);
                    stack.push(ch.node);
                }
            }
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_gate::Gate;

    #[test]
    fn fig1_cnot_dot_structure() {
        let mut pkg = Qmdd::new(2);
        let e = pkg.gate(&Gate::cx(0, 1));
        let dot = pkg.to_dot(e);
        assert!(dot.starts_with("digraph qmdd {"));
        assert!(dot.contains("label=\"x0\""));
        assert!(dot.contains("label=\"x1\""));
        // CNOT root: U01 and U10 quadrants are zero.
        assert!(dot.contains("U01\", style=dashed"));
        assert!(dot.contains("U10\", style=dashed"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn hadamard_weights_appear_on_edges() {
        let mut pkg = Qmdd::new(1);
        let e = pkg.gate(&Gate::h(0));
        let dot = pkg.to_dot(e);
        // Root weight 1/sqrt(2) on the entry edge; the -1 on U11.
        assert!(dot.contains("0.707107"));
        assert!(dot.contains("(-1.000000)"));
    }

    #[test]
    fn zero_diagram_renders() {
        let pkg = Qmdd::new(1);
        let dot = pkg.to_dot(Edge::ZERO);
        assert!(dot.contains("entry -> z"));
    }
}
