//! The built-in device library: the five public IBM Q machines of the paper
//! (Table 2), the unconstrained simulator, and the 96-qubit ibmqx5-inspired
//! experimental layout (paper Fig. 7).
//!
//! Coupling maps are transcribed verbatim from Section 3 of the paper
//! (which sourced them from the IBM Q backend specifications V1.x, 2018).

use crate::device::Device;

/// `ibmqx2` (Yorktown), 5 qubits, released Jan. 2017.
pub fn ibmqx2() -> Device {
    Device::from_coupling_map(
        "ibmqx2",
        5,
        &[(0, &[1, 2]), (1, &[2]), (3, &[2, 4]), (4, &[2])],
    )
}

/// `ibmqx3`, 16 qubits, released June 2017 (retired).
pub fn ibmqx3() -> Device {
    Device::from_coupling_map(
        "ibmqx3",
        16,
        &[
            (0, &[1]),
            (1, &[2]),
            (2, &[3]),
            (3, &[14]),
            (4, &[3, 5]),
            (6, &[7, 11]),
            (7, &[10]),
            (8, &[7]),
            (9, &[8, 10]),
            (11, &[10]),
            (12, &[5, 11, 13]),
            (13, &[4, 14]),
            (15, &[0, 14]),
        ],
    )
}

/// `ibmqx4` (Tenerife), 5 qubits, released Sept. 2017.
pub fn ibmqx4() -> Device {
    Device::from_coupling_map(
        "ibmqx4",
        5,
        &[(1, &[0]), (2, &[0, 1]), (3, &[2, 4]), (4, &[2])],
    )
}

/// `ibmqx5` (Rueschlikon), 16 qubits, released Sept. 2017 (retired).
pub fn ibmqx5() -> Device {
    Device::from_coupling_map(
        "ibmqx5",
        16,
        &[
            (1, &[0, 2]),
            (2, &[3]),
            (3, &[4, 14]),
            (5, &[4]),
            (6, &[5, 7, 11]),
            (7, &[10]),
            (8, &[7]),
            (9, &[8, 10]),
            (11, &[10]),
            (12, &[5, 11, 13]),
            (13, &[4, 14]),
            (15, &[0, 2, 14]),
        ],
    )
}

/// `ibmq_16` (Melbourne), 14 qubits, released Sept. 2018.
pub fn ibmq_16() -> Device {
    Device::from_coupling_map(
        "ibmq_16",
        14,
        &[
            (1, &[0, 2]),
            (2, &[3]),
            (4, &[3, 10]),
            (5, &[4, 6, 9]),
            (6, &[8]),
            (7, &[8]),
            (9, &[8, 10]),
            (11, &[3, 10, 12]),
            (12, &[2]),
            (13, &[1, 12]),
        ],
    )
}

/// The proposed 96-qubit transmon machine of paper Fig. 7.
///
/// The paper shows the layout only as a figure and describes it as
/// "inspired by the ibmqx5 machine". This reconstruction stacks six
/// 16-qubit ibmqx5-style rings (ring `r` occupies qubits `16r .. 16r+15`,
/// with the ibmqx5 coupling pattern relabeled into the ring) and joins
/// consecutive rings with three directed rungs at local offsets 2, 7 and 12.
/// The resulting directed graph is connected, sparse (coupling complexity
/// of the same order as the 16-qubit IBM machines), and exercises the same
/// long-distance SWAP routing pressure that drives the paper's Table 8.
pub fn qc96() -> Device {
    let ring: &[(usize, &[usize])] = &[
        (1, &[0, 2]),
        (2, &[3]),
        (3, &[4, 14]),
        (5, &[4]),
        (6, &[5, 7, 11]),
        (7, &[10]),
        (8, &[7]),
        (9, &[8, 10]),
        (11, &[10]),
        (12, &[5, 11, 13]),
        (13, &[4, 14]),
        (15, &[0, 2, 14]),
    ];
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for r in 0..6 {
        let base = 16 * r;
        for (c, targets) in ring {
            for t in *targets {
                pairs.push((base + c, base + t));
            }
        }
        if r + 1 < 6 {
            for offset in [2usize, 7, 12] {
                pairs.push((base + offset, base + 16 + offset));
            }
        }
    }
    Device::from_pairs("qc96", 96, pairs)
}

/// The 20-qubit commercial IBM machine the paper mentions in Section 3
/// ("IBM also has a 20 qubit machine available for commercial use") —
/// the Tokyo-generation 4x5 lattice with diagonal cross-couplings.
///
/// The paper gives no coupling map for it; this reconstruction follows the
/// published IBM Q20 Tokyo topology (bidirectional grid rows/columns plus
/// the characteristic diagonal pairs), included so width-20 workloads have
/// a realistic target.
pub fn ibmq20() -> Device {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    // 4 rows x 5 columns, row-major; grid edges both directions.
    for r in 0..4usize {
        for c in 0..5usize {
            let q = r * 5 + c;
            if c + 1 < 5 {
                pairs.push((q, q + 1));
                pairs.push((q + 1, q));
            }
            if r + 1 < 4 {
                pairs.push((q, q + 5));
                pairs.push((q + 5, q));
            }
        }
    }
    // Diagonal cross-couplings of the Tokyo lattice.
    for (a, b) in [
        (1, 7),
        (2, 6),
        (3, 9),
        (4, 8),
        (11, 17),
        (12, 16),
        (13, 19),
        (14, 18),
    ] {
        pairs.push((a, b));
        pairs.push((b, a));
    }
    Device::from_pairs("ibmq20", 20, pairs)
}

/// A unidirectional line `q0 -> q1 -> ... -> q(n-1)` — the linear
/// nearest-neighbor (LNN) architecture of the paper's reference \[3\].
pub fn line(n: usize) -> Device {
    Device::from_pairs(format!("line{n}"), n, (1..n).map(|i| (i - 1, i)))
}

/// A unidirectional ring: the line plus a closing `q(n-1) -> q0` edge.
pub fn ring(n: usize) -> Device {
    Device::from_pairs(format!("ring{n}"), n, (0..n).map(|i| (i, (i + 1) % n)))
}

/// A star: `q0` drives every other qubit (maximum-degree hub).
pub fn star(n: usize) -> Device {
    Device::from_pairs(format!("star{n}"), n, (1..n).map(|t| (0usize, t)))
}

/// A `rows x cols` grid with rightward and downward couplings — the
/// 2D-lattice style of most planar transmon proposals.
pub fn grid(rows: usize, cols: usize) -> Device {
    let mut pairs = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let q = r * cols + c;
            if c + 1 < cols {
                pairs.push((q, q + 1));
            }
            if r + 1 < rows {
                pairs.push((q, q + cols));
            }
        }
    }
    Device::from_pairs(format!("grid{rows}x{cols}"), rows * cols, pairs)
}

/// Deterministic synthetic CNOT error probability for a directed coupling
/// of a generated device family.
///
/// Derived from an FNV-1a hash of the (control, target) pair alone, so the
/// annotation — and hence the device fingerprint — depends only on the
/// coupling set, never on construction order. Values land in
/// `[5e-3, 2e-2)`, the rough transmon range the paper's references report,
/// and the two orientations of an edge hash differently so fidelity-aware
/// routing has real asymmetry to exploit.
fn synthetic_cnot_error(control: usize, target: usize) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in control
        .to_le_bytes()
        .into_iter()
        .chain(target.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    5e-3 + 1.5e-2 * ((h % 1024) as f64 / 1024.0)
}

/// Annotates every coupling of a generated device with its synthetic
/// calibration datum, enabling the `HighestFidelity` routing objective.
fn with_synthetic_calibration(mut device: Device) -> Device {
    let pairs: Vec<(usize, usize)> = device.couplings().collect();
    for (c, t) in pairs {
        device.set_cnot_error(c, t, synthetic_cnot_error(c, t));
    }
    device
}

/// The generated linear-nearest-neighbor family `lnn(n)`: a bidirectional
/// chain `q0 <-> q1 <-> ... <-> q(n-1)` with synthetic calibration data.
///
/// Unlike the unidirectional [`line()`], every edge is natively available in
/// both orientations (no Fig. 6 reversal) and every coupling carries an
/// error annotation, so both routing objectives are exercised. This is the
/// LNN architecture of the synthesis literature scaled to arbitrary width.
pub fn lnn(n: usize) -> Device {
    let pairs = (1..n).flat_map(|i| [(i - 1, i), (i, i - 1)]);
    with_synthetic_calibration(Device::from_pairs(format!("lnn{n}"), n, pairs))
}

/// The generated 2D-lattice family `grid_calibrated(w, h)`: a bidirectional
/// `w x h` grid (row-major, `w` columns per row) with synthetic calibration
/// data, the planar-transmon topology scaled to thousands of qubits.
///
/// Distinct from the legacy unidirectional [`grid`]: every edge exists in
/// both orientations and carries an error annotation.
pub fn grid_calibrated(w: usize, h: usize) -> Device {
    let mut pairs = Vec::new();
    for r in 0..h {
        for c in 0..w {
            let q = r * w + c;
            if c + 1 < w {
                pairs.push((q, q + 1));
                pairs.push((q + 1, q));
            }
            if r + 1 < h {
                pairs.push((q, q + w));
                pairs.push((q + w, q));
            }
        }
    }
    with_synthetic_calibration(Device::from_pairs(format!("grid{w}x{h}"), w * h, pairs))
}

/// The generated heavy-hexagon family `heavy_hex(d)`: a `d x d`-cell
/// brick-wall honeycomb lattice with every edge subdivided by an extra
/// qubit (the "heavy" decoration of IBM's heavy-hex processors), all edges
/// bidirectional, with synthetic calibration data.
///
/// Vertex qubits have degree at most 3 and edge qubits exactly 2. The
/// qubit count is `(d + 1) * (5d + 3)`: 72 at `d = 3`, 1095 at `d = 14`,
/// 3864 at `d = 27`.
pub fn heavy_hex(d: usize) -> Device {
    assert!(d >= 1, "heavy-hex distance must be at least 1");
    // Brick-wall honeycomb vertices on a (2d+2) x (d+1) grid; vertical
    // edges only where (x + y) is even, which caps vertex degree at 3.
    let w = 2 * d + 1;
    let vertex = |x: usize, y: usize| y * (w + 1) + x;
    let n_vertices = (w + 1) * (d + 1);
    let mut lattice_edges: Vec<(usize, usize)> = Vec::new();
    for y in 0..=d {
        for x in 0..w {
            lattice_edges.push((vertex(x, y), vertex(x + 1, y)));
        }
    }
    for y in 0..d {
        for x in 0..=w {
            if (x + y) % 2 == 0 {
                lattice_edges.push((vertex(x, y), vertex(x, y + 1)));
            }
        }
    }
    // Subdivide every lattice edge with a middle ("heavy") qubit.
    let mut pairs = Vec::new();
    for (i, &(a, b)) in lattice_edges.iter().enumerate() {
        let mid = n_vertices + i;
        pairs.extend([(a, mid), (mid, a), (mid, b), (b, mid)]);
    }
    let n = n_vertices + lattice_edges.len();
    with_synthetic_calibration(Device::from_pairs(format!("heavyhex{d}"), n, pairs))
}

/// Every physical device of the library, in Table 2 order followed by the
/// 96-qubit machine.
pub fn all_devices() -> Vec<Device> {
    vec![ibmqx2(), ibmqx3(), ibmqx4(), ibmqx5(), ibmq_16(), qc96()]
}

/// The five IBM devices evaluated in Tables 3-6, in column order.
pub fn ibm_devices() -> Vec<Device> {
    vec![ibmqx2(), ibmqx3(), ibmqx4(), ibmqx5(), ibmq_16()]
}

/// Widest device `device_by_name` will generate (guards CLI typos from
/// allocating gigabyte coupling maps).
pub const MAX_GENERATED_QUBITS: usize = 65_536;

/// Looks a device up by name: the built-in library, `"simulator:<n>"`, and
/// the generated families `"lnn:<n>"`, `"grid:<w>x<h>"` and
/// `"heavy-hex:<d>"` (all capped at [`MAX_GENERATED_QUBITS`]).
pub fn device_by_name(name: &str) -> Option<Device> {
    if let Some(n) = name.strip_prefix("simulator:") {
        return n.parse().ok().map(Device::simulator);
    }
    if let Some(n) = name.strip_prefix("lnn:") {
        return n
            .parse()
            .ok()
            .filter(|&n: &usize| (2..=MAX_GENERATED_QUBITS).contains(&n))
            .map(lnn);
    }
    if let Some(dims) = name.strip_prefix("grid:") {
        let (w, h) = dims.split_once('x')?;
        let (w, h): (usize, usize) = (w.parse().ok()?, h.parse().ok()?);
        if w == 0 || h == 0 || w.checked_mul(h)? > MAX_GENERATED_QUBITS {
            return None;
        }
        return Some(grid_calibrated(w, h));
    }
    if let Some(d) = name.strip_prefix("heavy-hex:") {
        return d
            .parse()
            .ok()
            .filter(|&d: &usize| d >= 1 && (d + 1) * (5 * d + 3) <= MAX_GENERATED_QUBITS)
            .map(heavy_hex);
    }
    match name {
        "ibmqx2" => Some(ibmqx2()),
        "ibmqx3" => Some(ibmqx3()),
        "ibmqx4" => Some(ibmqx4()),
        "ibmqx5" => Some(ibmqx5()),
        "ibmq_16" => Some(ibmq_16()),
        "ibmq20" => Some(ibmq20()),
        "qc96" => Some(qc96()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_qubit_counts() {
        assert_eq!(ibmqx2().n_qubits(), 5);
        assert_eq!(ibmqx3().n_qubits(), 16);
        assert_eq!(ibmqx4().n_qubits(), 5);
        assert_eq!(ibmqx5().n_qubits(), 16);
        assert_eq!(ibmq_16().n_qubits(), 14);
    }

    #[test]
    fn table2_coupling_complexities_match_paper_exactly() {
        assert!((ibmqx2().coupling_complexity() - 0.3).abs() < 1e-9);
        assert!((ibmqx3().coupling_complexity() - 1.0 / 12.0).abs() < 1e-9); // 0.0833...
        assert!((ibmqx4().coupling_complexity() - 0.3).abs() < 1e-9);
        assert!((ibmqx5().coupling_complexity() - 22.0 / 240.0).abs() < 1e-9); // 0.091666...
        assert!((ibmq_16().coupling_complexity() - 18.0 / 182.0).abs() < 1e-9); // 0.098901...
    }

    #[test]
    fn all_devices_are_connected() {
        for d in all_devices() {
            assert!(d.is_connected(), "{} disconnected", d.name());
        }
    }

    #[test]
    fn fig5_prerequisites_on_ibmqx3() {
        // q5 and q10 are not adjacent; q11 couples to q10; q12 couples to
        // both q5 and q11 — the structure behind the paper's CTR example.
        let d = ibmqx3();
        assert!(!d.are_adjacent(5, 10));
        assert!(d.has_coupling(11, 10));
        assert!(d.has_coupling(12, 5));
        assert!(d.has_coupling(12, 11));
    }

    #[test]
    fn qc96_shape() {
        let d = qc96();
        assert_eq!(d.n_qubits(), 96);
        assert!(d.is_connected());
        // Six rings of 22 couplings plus 5 * 3 rungs.
        assert_eq!(d.coupling_count(), 6 * 22 + 5 * 3);
        assert!(d.coupling_complexity() < 0.02);
        // Benchmarks target q25/q45/q65/q85, which must exist and couple.
        assert!(!d.neighbors(25).is_empty());
        assert!(!d.neighbors(85).is_empty());
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(device_by_name("ibmqx4").unwrap().n_qubits(), 5);
        assert_eq!(device_by_name("qc96").unwrap().n_qubits(), 96);
        assert_eq!(device_by_name("simulator:7").unwrap().n_qubits(), 7);
        assert!(device_by_name("nonsense").is_none());
    }

    #[test]
    fn ibmq20_is_a_dense_20_qubit_lattice() {
        let d = ibmq20();
        assert_eq!(d.n_qubits(), 20);
        assert!(d.is_connected());
        // Bidirectional: every coupling exists in both orientations.
        for (c, t) in d.couplings().collect::<Vec<_>>() {
            assert!(d.has_coupling(t, c), "{c}->{t} not symmetric");
        }
        // Denser than the 16-qubit unidirectional machines.
        assert!(d.coupling_complexity() > ibmqx5().coupling_complexity());
        // Grid + diagonals: 2*(15 + 16) + 2*8 = 78 directed couplings.
        assert_eq!(d.coupling_count(), 78);
    }

    #[test]
    fn parametric_topologies() {
        let l = line(5);
        assert_eq!(l.coupling_count(), 4);
        assert!(l.is_connected());
        assert!(l.has_coupling(0, 1) && !l.has_coupling(1, 0));

        let r = ring(5);
        assert_eq!(r.coupling_count(), 5);
        assert!(r.has_coupling(4, 0));

        let s = star(5);
        assert_eq!(s.neighbors(0).len(), 4);
        assert_eq!(s.neighbors(3), &[0]);

        let g = grid(3, 4);
        assert_eq!(g.n_qubits(), 12);
        assert_eq!(g.coupling_count(), 3 * 3 + 2 * 4); // right + down edges
        assert!(g.is_connected());
        assert!(g.has_coupling(0, 1) && g.has_coupling(0, 4));
    }

    #[test]
    fn topology_complexity_ordering() {
        // Star and ring of equal size are denser than the line; the
        // simulator dominates everything.
        let n = 8;
        let cl = line(n).coupling_complexity();
        let cr = ring(n).coupling_complexity();
        let cs = Device::simulator(n).coupling_complexity();
        assert!(cl < cr && cr < cs);
    }

    #[test]
    fn generated_families_are_connected_calibrated_and_symmetric() {
        for d in [lnn(100), grid_calibrated(8, 8), heavy_hex(3)] {
            assert!(d.is_connected(), "{} disconnected", d.name());
            assert!(d.has_error_data(), "{} uncalibrated", d.name());
            for (c, t) in d.couplings().collect::<Vec<_>>() {
                assert!(d.has_coupling(t, c), "{}: {c}->{t} not symmetric", d.name());
                let e = d.cnot_error(c, t).unwrap();
                assert!(
                    (5e-3..2e-2).contains(&e),
                    "{}: error {e} out of band",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn generated_family_shapes() {
        assert_eq!(lnn(256).n_qubits(), 256);
        assert_eq!(lnn(256).coupling_count(), 2 * 255);
        let g = grid_calibrated(32, 32);
        assert_eq!(g.n_qubits(), 1024);
        assert_eq!(g.coupling_count(), 2 * (2 * 31 * 32));
        let hh = heavy_hex(3);
        assert_eq!(hh.n_qubits(), (3 + 1) * (5 * 3 + 3)); // 72
                                                          // Vertex qubits cap at degree 3, middles at 2.
        for q in 0..hh.n_qubits() {
            assert!(hh.neighbors(q).len() <= 3, "q{q} overconnected");
        }
    }

    #[test]
    fn synthetic_calibration_is_orientation_asymmetric_and_stable() {
        let d = lnn(10);
        let forward = d.cnot_error(3, 4).unwrap();
        let reverse = d.cnot_error(4, 3).unwrap();
        assert_ne!(forward, reverse, "orientations must differ");
        assert_eq!(d.fingerprint(), lnn(10).fingerprint(), "deterministic");
    }

    #[test]
    fn generated_names_parse() {
        assert_eq!(device_by_name("lnn:100").unwrap().n_qubits(), 100);
        assert_eq!(device_by_name("grid:32x32").unwrap().n_qubits(), 1024);
        assert_eq!(
            device_by_name("heavy-hex:7").unwrap().n_qubits(),
            (7 + 1) * (5 * 7 + 3)
        );
        for bad in [
            "lnn:1",
            "lnn:x",
            "grid:0x5",
            "grid:4",
            "grid:999x999",
            "heavy-hex:0",
        ] {
            assert!(device_by_name(bad).is_none(), "{bad} must not parse");
        }
    }

    #[test]
    fn ibm_devices_order_matches_table_columns() {
        let names: Vec<String> = ibm_devices().iter().map(|d| d.name().to_string()).collect();
        assert_eq!(names, ["ibmqx2", "ibmqx3", "ibmqx4", "ibmqx5", "ibmq_16"]);
    }
}
