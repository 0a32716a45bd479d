//! Modified-nodal-analysis bookkeeping: mapping nodes and source branches
//! to rows of the linear system, and the stamp of every linear element.
//!
//! Unknown ordering: non-ground node voltages first (node `k` → row `k−1`),
//! then one branch-current unknown per voltage source / VCVS in element
//! order.

use crate::netlist::{Circuit, Element, NodeId};

/// Index map from circuit entities to MNA matrix rows.
#[derive(Debug, Clone)]
pub struct MnaMap {
    node_count: usize,
    /// element index → branch row (absolute), for VSource/VCVS elements.
    branch_rows: Vec<Option<usize>>,
    dim: usize,
    /// Wiring fingerprint ([`Circuit::topology_fingerprint`]) of the
    /// circuit the map was built for.
    fingerprint: u64,
}

impl MnaMap {
    /// Builds the map for a circuit.
    pub fn new(circuit: &Circuit) -> Self {
        let node_count = circuit.node_count();
        let mut branch_rows = vec![None; circuit.elements().len()];
        let mut next = node_count - 1;
        for (i, e) in circuit.elements().iter().enumerate() {
            if matches!(e, Element::VSource { .. } | Element::Vcvs { .. }) {
                branch_rows[i] = Some(next);
                next += 1;
            }
        }
        MnaMap {
            node_count,
            branch_rows,
            dim: next,
            fingerprint: circuit.topology_fingerprint(),
        }
    }

    /// Total system dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether this map and every stamp pattern recorded with it are valid
    /// for `circuit`: same node count, the same branch-unknown pattern over
    /// the element list, and the same wiring fingerprint. Value retuning
    /// keeps a map valid; a *different* circuit that merely has equal
    /// node/element counts (sources reordered, an element rewired or of
    /// another kind) does not.
    pub fn matches(&self, circuit: &Circuit) -> bool {
        self.node_count == circuit.node_count()
            && self.branch_rows.len() == circuit.elements().len()
            && circuit
                .elements()
                .iter()
                .zip(self.branch_rows.iter())
                .all(|(e, br)| {
                    matches!(e, Element::VSource { .. } | Element::Vcvs { .. }) == br.is_some()
                })
            && self.fingerprint == circuit.topology_fingerprint()
    }

    /// Number of circuit nodes (including ground).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Row of a node voltage unknown (`None` for ground).
    #[inline]
    pub fn node_row(&self, node: NodeId) -> Option<usize> {
        if node.index() == 0 {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Row of the branch-current unknown of element `elem_idx`.
    ///
    /// # Panics
    /// Panics if the element has no branch unknown (not a V-source/VCVS).
    pub fn branch_row(&self, elem_idx: usize) -> usize {
        self.branch_rows[elem_idx].expect("element has no branch-current unknown")
    }

    /// Reads a node voltage out of a solution vector (0 for ground).
    #[inline]
    pub fn voltage(&self, x: &[f64], node: NodeId) -> f64 {
        match self.node_row(node) {
            Some(r) => x[r],
            None => 0.0,
        }
    }
}

/// Accumulates `v` into `vec[row]` when `row` is not ground.
#[inline]
pub fn add_opt(vec: &mut [f64], row: Option<usize>, v: f64) {
    if let Some(r) = row {
        vec[r] += v;
    }
}

/// Walks a 2×2 conductance stamp between rows `a` and `b` through
/// `add(row, col, value)` in a fixed order — `(a,a) (b,b) (a,b) (b,a)`,
/// ground rows skipped.
#[inline]
pub fn stamp_conductance(
    a: Option<usize>,
    b: Option<usize>,
    g: f64,
    add: &mut impl FnMut(usize, usize, f64),
) {
    if let Some(i) = a {
        add(i, i, g);
    }
    if let Some(j) = b {
        add(j, j, g);
    }
    if let (Some(i), Some(j)) = (a, b) {
        add(i, j, -g);
        add(j, i, -g);
    }
}

/// Walks a transconductance stamp through `add(row, col, value)`: current
/// `gm·v(cp−cn)` leaving `p` (entering `n`), output rows outer, control
/// columns inner, ground skipped.
#[inline]
pub fn stamp_vccs(
    p: Option<usize>,
    n: Option<usize>,
    cp: Option<usize>,
    cn: Option<usize>,
    gm: f64,
    add: &mut impl FnMut(usize, usize, f64),
) {
    for (out, sign_o) in [(p, 1.0), (n, -1.0)] {
        let Some(row) = out else { continue };
        for (ctrl, sign_c) in [(cp, 1.0), (cn, -1.0)] {
            if let Some(col) = ctrl {
                add(row, col, sign_o * sign_c * gm);
            }
        }
    }
}

/// Walks the Jacobian entries of `element` (element `idx` of the circuit)
/// that depend neither on the solution nor on time, through `add(row,
/// col, value)`: a resistor's conductance, the branch incidence of a
/// voltage source, a VCVS's incidence and control gain, and a VCCS's
/// transconductance. Every other element kind stamps nothing here. DC,
/// transient and small-signal analysis all stamp these entries through
/// this one walk.
pub fn stamp_constant(
    map: &MnaMap,
    idx: usize,
    element: &Element,
    add: &mut impl FnMut(usize, usize, f64),
) {
    let row = |node: &NodeId| map.node_row(*node);
    match element {
        Element::Resistor { a, b, ohms, .. } => stamp_conductance(row(a), row(b), 1.0 / ohms, add),
        Element::VSource { p, n, .. } | Element::Vcvs { p, n, .. } => {
            let br = map.branch_row(idx);
            for (r, sgn) in [(row(p), 1.0), (row(n), -1.0)] {
                if let Some(r) = r {
                    add(r, br, sgn);
                    add(br, r, sgn);
                }
            }
            if let Element::Vcvs { cp, cn, gain, .. } = element {
                if let Some(r) = row(cp) {
                    add(br, r, -gain);
                }
                if let Some(r) = row(cn) {
                    add(br, r, *gain);
                }
            }
        }
        Element::Vccs {
            p, n, cp, cn, gm, ..
        } => stamp_vccs(row(p), row(n), row(cp), row(cn), *gm, add),
        Element::Capacitor { .. }
        | Element::Switch { .. }
        | Element::ISource { .. }
        | Element::Mosfet { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_numerics::Matrix;

    #[test]
    fn map_assigns_branches_after_nodes() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_resistor("R", a, b, 1.0);
        c.add_vsource("V1", a, Circuit::GROUND, 1.0);
        c.add_vsource("V2", b, Circuit::GROUND, 2.0);
        let map = MnaMap::new(&c);
        assert_eq!(map.dim(), 4);
        assert_eq!(map.node_row(Circuit::GROUND), None);
        assert_eq!(map.node_row(a), Some(0));
        assert_eq!(map.branch_row(1), 2);
        assert_eq!(map.branch_row(2), 3);
    }

    /// A different circuit with equal node/element counts but a reordered
    /// element list must not reuse a stale map.
    #[test]
    fn map_rejects_reordered_elements() {
        let mut a = Circuit::new();
        let n = a.node("n");
        a.add_resistor("R1", n, Circuit::GROUND, 1e3);
        a.add_vsource("V1", n, Circuit::GROUND, 1.0);
        let mut b = Circuit::new();
        let m = b.node("n");
        b.add_vsource("V1", m, Circuit::GROUND, 1.0);
        b.add_resistor("R1", m, Circuit::GROUND, 1e3);
        let map = MnaMap::new(&a);
        assert!(map.matches(&a));
        assert!(!map.matches(&b));
        // Value retuning keeps the map valid.
        let (rid, _) = a.find_element("R1").unwrap();
        a.set_value(rid, 2e3);
        assert!(map.matches(&a));
    }

    #[test]
    #[should_panic(expected = "no branch-current unknown")]
    fn branch_row_panics_for_resistor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R", a, Circuit::GROUND, 1.0);
        let map = MnaMap::new(&c);
        map.branch_row(0);
    }

    #[test]
    fn conductance_stamp_symmetry() {
        let mut m = Matrix::zeros(2, 2);
        stamp_conductance(Some(0), Some(1), 0.5, &mut |r, c, v| m.add_at(r, c, v));
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(1, 1)], 0.5);
        assert_eq!(m[(0, 1)], -0.5);
        assert_eq!(m[(1, 0)], -0.5);
        // grounded side only touches the diagonal
        let mut m = Matrix::zeros(2, 2);
        stamp_conductance(Some(1), None, 2.0, &mut |r, c, v| m.add_at(r, c, v));
        assert_eq!(m[(1, 1)], 2.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn vccs_stamp_signs() {
        let mut m = Matrix::zeros(4, 4);
        stamp_vccs(Some(0), Some(1), Some(2), Some(3), 1e-3, &mut |r, c, v| {
            m.add_at(r, c, v)
        });
        assert_eq!(m[(0, 2)], 1e-3);
        assert_eq!(m[(0, 3)], -1e-3);
        assert_eq!(m[(1, 2)], -1e-3);
        assert_eq!(m[(1, 3)], 1e-3);
    }
}
