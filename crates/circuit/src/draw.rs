//! ASAP layering and ASCII circuit rendering — the "composer view" side of
//! the design tool.
//!
//! [`layers`] groups gates into parallel moments (the scheduling view
//! behind the depth metrics); [`draw`] renders a circuit as fixed-width
//! ASCII art, one row per qubit line:
//!
//! ```text
//! q0: ─H───●───────●──
//!          │       │
//! q1: ─────⊕───●───●──
//!              │   │
//! q2: ─T───────⊕───⊕──
//! ```

use crate::circuit::Circuit;
use qsyn_gate::Gate;

/// Groups gate indices into ASAP (as-soon-as-possible) parallel layers:
/// each gate lands in the earliest layer after every earlier gate that
/// shares one of its lines.
pub fn layers(circuit: &Circuit) -> Vec<Vec<usize>> {
    let mut line_layer = vec![0usize; circuit.n_qubits()];
    let mut out: Vec<Vec<usize>> = Vec::new();
    for (i, g) in circuit.gates().iter().enumerate() {
        let qs = g.qubits();
        let layer = qs.iter().map(|&q| line_layer[q]).max().unwrap_or(0);
        if layer == out.len() {
            out.push(Vec::new());
        }
        out[layer].push(i);
        for q in qs {
            line_layer[q] = layer + 1;
        }
    }
    out
}

/// Renders the circuit as ASCII art. Intended for small-to-medium circuits
/// (the output width grows with the layer count).
pub fn draw(circuit: &Circuit) -> String {
    let n = circuit.n_qubits();
    let moments = layers(circuit);
    // Two text rows per qubit: the wire row and a connector row below it.
    let mut wire: Vec<String> = (0..n).map(|q| format!("q{q}: ")).collect();
    let label_width = wire.iter().map(String::len).max().unwrap_or(0);
    for w in &mut wire {
        while w.len() < label_width {
            w.push(' ');
        }
    }
    let mut link: Vec<String> = vec![" ".repeat(label_width); n];

    for moment in &moments {
        // Symbols for this column, one per line.
        let mut cell: Vec<Option<String>> = vec![None; n];
        let mut vertical = vec![false; n]; // connector below this line
        for &gi in moment {
            match &circuit.gates()[gi] {
                Gate::Single { op, qubit } => {
                    cell[*qubit] = Some(op.to_string());
                }
                Gate::Cx { control, target } => {
                    cell[*control] = Some("●".into());
                    cell[*target] = Some("⊕".into());
                    span(&mut vertical, *control, *target);
                }
                Gate::Cz { control, target } => {
                    cell[*control] = Some("●".into());
                    cell[*target] = Some("○".into());
                    span(&mut vertical, *control, *target);
                }
                Gate::Swap { a, b } => {
                    cell[*a] = Some("╳".into());
                    cell[*b] = Some("╳".into());
                    span(&mut vertical, *a, *b);
                }
                Gate::Mct { controls, target } => {
                    for c in controls {
                        cell[*c] = Some("●".into());
                    }
                    cell[*target] = Some("⊕".into());
                    let lo = *controls.iter().min().expect("controls").min(target);
                    let hi = *controls.iter().max().expect("controls").max(target);
                    span(&mut vertical, lo, hi);
                }
            }
        }
        let width = cell
            .iter()
            .map(|c| c.as_ref().map_or(0, |s| s.chars().count()))
            .max()
            .unwrap_or(1)
            .max(1);
        for q in 0..n {
            let body = match &cell[q] {
                Some(s) => {
                    let pad = width - s.chars().count();
                    format!("─{}{s}{}─", "─".repeat(pad / 2), "─".repeat(pad - pad / 2))
                }
                None if column_crosses(&vertical, q) => {
                    // A vertical connector passes through this line.
                    let left = (width - 1) / 2;
                    format!("─{}┼{}─", "─".repeat(left), "─".repeat(width - 1 - left))
                }
                None => "─".repeat(width + 2),
            };
            wire[q].push_str(&body);
            let below = if vertical[q] {
                format!(" {} ", center_char('│', width))
            } else {
                " ".repeat(width + 2)
            };
            link[q].push_str(&below);
        }
    }

    let mut out = String::new();
    for q in 0..n {
        out.push_str(wire[q].trim_end());
        out.push('\n');
        if q + 1 < n && !link[q].trim().is_empty() {
            out.push_str(link[q].trim_end());
            out.push('\n');
        }
    }
    out
}

/// Marks the connector rows strictly between two lines (exclusive of the
/// bottom line, since connectors render *below* each line).
fn span(vertical: &mut [bool], a: usize, b: usize) {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    vertical[lo..hi].fill(true);
}

/// Whether a vertical connector crosses line `q` (i.e. the connector below
/// some line above continues past `q`).
fn column_crosses(vertical: &[bool], q: usize) -> bool {
    q > 0 && vertical[q - 1] && vertical[q]
}

fn center_char(c: char, width: usize) -> String {
    let mut s = " ".repeat(width.saturating_sub(1) / 2);
    s.push(c);
    while s.chars().count() < width {
        s.push(' ');
    }
    s
}

impl Circuit {
    /// ASCII rendering of this circuit; see [`draw`].
    pub fn draw(&self) -> String {
        draw(self)
    }

    /// ASAP parallel layers of this circuit; see [`layers`].
    pub fn layers(&self) -> Vec<Vec<usize>> {
        layers(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c
    }

    #[test]
    fn layers_respect_dependencies() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0)); // layer 0
        c.push(Gate::h(1)); // layer 0
        c.push(Gate::cx(0, 1)); // layer 1
        c.push(Gate::t(2)); // layer 0
        c.push(Gate::cx(1, 2)); // layer 2
        let l = layers(&c);
        assert_eq!(l, vec![vec![0, 1, 3], vec![2], vec![4]]);
        assert_eq!(l.len(), crate::stats::depth(&c));
    }

    #[test]
    fn layers_of_empty_circuit() {
        assert!(layers(&Circuit::new(3)).is_empty());
    }

    #[test]
    fn draw_bell_pair() {
        let art = bell().draw();
        assert!(art.contains("q0:"));
        assert!(art.contains("q1:"));
        assert!(art.contains('H'));
        assert!(art.contains('●'));
        assert!(art.contains('⊕'));
        assert!(art.contains('│'), "vertical connector present:\n{art}");
    }

    #[test]
    fn draw_skips_crossed_lines_correctly() {
        // CNOT from q0 to q2 passes through q1 with a cross mark.
        let mut c = Circuit::new(3);
        c.push(Gate::cx(0, 2));
        let art = c.draw();
        assert!(art.contains('┼'), "{art}");
    }

    #[test]
    fn draw_every_gate_kind() {
        let mut c = Circuit::new(4);
        c.push(Gate::tdg(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::cz(1, 2));
        c.push(Gate::swap(2, 3));
        c.push(Gate::mct(vec![0, 1, 2], 3));
        let art = c.draw();
        for sym in ["T†", "●", "⊕", "○", "╳"] {
            assert!(art.contains(sym), "missing {sym} in\n{art}");
        }
        // Four wire rows.
        assert_eq!(art.lines().filter(|l| l.starts_with('q')).count(), 4);
    }

    #[test]
    fn parallel_gates_share_a_column() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::h(1));
        let art = c.draw();
        let col0 = art.lines().next().unwrap().find('H');
        let col1 = art.lines().nth(1).unwrap().find('H');
        assert_eq!(col0, col1, "same moment, same column:\n{art}");
    }
}
