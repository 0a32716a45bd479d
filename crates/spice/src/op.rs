//! Operating-point results: node voltages, branch currents, per-device
//! small-signal parameters, and power bookkeeping.

use crate::mna::MnaMap;
use crate::mosfet::{eval_mosfet, MosEval};
use crate::netlist::{Circuit, Element, ElementId, NodeId};
use std::sync::Arc;

/// Where an element's result sits in an [`OperatingPoint`].
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Nothing to report (passives, current sources, VCCS).
    None,
    /// Branch current at this row of the MNA solution.
    Branch(usize),
    /// MOSFET evaluation at this index of the device list.
    Mos(usize),
}

/// The index of one circuit topology's operating points: the element
/// names and where each element's result sits. A DC workspace builds it
/// once and shares it with every operating point it returns, so a solve
/// builds no name-keyed map.
#[derive(Debug)]
pub(crate) struct OpLayout {
    node_count: usize,
    names: Vec<String>,
    slots: Vec<Slot>,
    mosfets: usize,
}

impl OpLayout {
    /// Indexes `circuit`'s elements against its MNA map.
    pub(crate) fn new(circuit: &Circuit, map: &MnaMap) -> Self {
        let mut mosfets = 0;
        let slots = circuit
            .elements()
            .iter()
            .enumerate()
            .map(|(i, e)| match e {
                Element::VSource { .. } | Element::Vcvs { .. } => Slot::Branch(map.branch_row(i)),
                Element::Mosfet { .. } => {
                    mosfets += 1;
                    Slot::Mos(mosfets - 1)
                }
                _ => Slot::None,
            })
            .collect();
        OpLayout {
            node_count: circuit.node_count(),
            names: circuit
                .elements()
                .iter()
                .map(|e| e.name().to_string())
                .collect(),
            slots,
            mosfets,
        }
    }

    /// Whether `circuit` names its elements as the circuit this layout was
    /// built for (the workspace checks the topology itself).
    pub(crate) fn names_match(&self, circuit: &Circuit) -> bool {
        self.names.len() == circuit.elements().len()
            && self
                .names
                .iter()
                .zip(circuit.elements())
                .all(|(n, e)| n == e.name())
    }
}

/// Solved DC operating point of a circuit.
///
/// Produced by [`crate::dc::dc_operating_point`]; consumed by the AC
/// analysis, the DPI/SFG linearization and the synthesis evaluator.
/// Results are stored by index: [`OperatingPoint::branch_current_at`],
/// [`OperatingPoint::mos_eval_at`] and
/// [`OperatingPoint::source_power_at`] read them without a name lookup,
/// and the name accessors resolve a name through the element list shared
/// by every operating point of one workspace.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// Ground (0 V), then the MNA solution: the other node voltages, then
    /// the branch currents.
    values: Vec<f64>,
    /// MOSFET evaluations in element order.
    mos: Vec<MosEval>,
    layout: Arc<OpLayout>,
}

impl OperatingPoint {
    /// Builds the operating point from a converged MNA solution vector.
    pub(crate) fn from_solution(circuit: &Circuit, layout: &Arc<OpLayout>, x: &[f64]) -> Self {
        let mut values = Vec::with_capacity(x.len() + 1);
        values.push(0.0);
        values.extend_from_slice(x);
        let voltages = &values[..layout.node_count];
        let mut mos = Vec::with_capacity(layout.mosfets);
        for e in circuit.elements() {
            if let Element::Mosfet {
                d,
                g,
                s,
                b,
                model,
                w,
                l,
                ..
            } = e
            {
                let vd = voltages[d.index()];
                let vg = voltages[g.index()];
                let vs = voltages[s.index()];
                let vb = voltages[b.index()];
                mos.push(eval_mosfet(model, *w, *l, vg - vs, vd - vs, vb - vs));
            }
        }
        OperatingPoint {
            values,
            mos,
            layout: Arc::clone(layout),
        }
    }

    /// Voltage of a node (ground is 0).
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.voltages()[node.index()]
    }

    /// All node voltages indexed by [`NodeId::index`].
    pub fn voltages(&self) -> &[f64] {
        &self.values[..self.layout.node_count]
    }

    /// The MNA solution: the non-ground node voltages, then one branch
    /// current per voltage source / VCVS in element order. A start for
    /// [`crate::dc::dc_operating_point_newton`] on the same topology.
    pub fn solution(&self) -> &[f64] {
        &self.values[1..]
    }

    fn slot(&self, id: ElementId) -> Slot {
        self.layout.slots.get(id.0).copied().unwrap_or(Slot::None)
    }

    fn id_of(&self, name: &str) -> Option<ElementId> {
        self.layout
            .names
            .iter()
            .position(|n| n == name)
            .map(ElementId)
    }

    /// Branch current of the voltage source / VCVS `id`; `None` for any
    /// other element.
    ///
    /// Positive current flows from the positive terminal *through the
    /// source* to the negative terminal (SPICE convention), so a supply
    /// delivering power reports a negative branch current.
    pub fn branch_current_at(&self, id: ElementId) -> Option<f64> {
        match self.slot(id) {
            Slot::Branch(row) => Some(self.values[1 + row]),
            _ => None,
        }
    }

    /// Branch current of a named voltage source / VCVS (see
    /// [`OperatingPoint::branch_current_at`]).
    pub fn branch_current(&self, name: &str) -> Option<f64> {
        self.branch_current_at(self.id_of(name)?)
    }

    /// Small-signal evaluation of the MOSFET `id`; `None` for any other
    /// element.
    pub fn mos_eval_at(&self, id: ElementId) -> Option<&MosEval> {
        match self.slot(id) {
            Slot::Mos(k) => Some(&self.mos[k]),
            _ => None,
        }
    }

    /// Small-signal evaluation of a named MOSFET.
    pub fn mos_eval(&self, name: &str) -> Option<&MosEval> {
        self.mos_eval_at(self.id_of(name)?)
    }

    /// Power delivered *by* the voltage source `id` (positive when the
    /// source feeds the circuit), W; `None` for any other element.
    pub fn source_power_at(&self, circuit: &Circuit, id: ElementId) -> Option<f64> {
        match circuit.element(id) {
            Element::VSource { wave, .. } => {
                let v = wave.dc_value();
                let i = self.branch_current_at(id)?;
                Some(-v * i)
            }
            _ => None,
        }
    }

    /// Power delivered *by* a named voltage source (positive when the source
    /// feeds the circuit), W.
    pub fn source_power(&self, circuit: &Circuit, name: &str) -> Option<f64> {
        let (id, _) = circuit.find_element(name)?;
        self.source_power_at(circuit, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};

    #[test]
    fn source_power_of_divider() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, 3.0);
        c.add_resistor("R1", a, Circuit::GROUND, 3e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        // 3 V, 1 mA → 3 mW delivered.
        assert!((op.source_power(&c, "V1").unwrap() - 3e-3).abs() < 1e-9);
    }

    #[test]
    fn voltages_vector_includes_ground() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, 1.5);
        c.add_resistor("R1", a, Circuit::GROUND, 1e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        assert_eq!(op.voltages().len(), 2);
        assert_eq!(op.voltages()[0], 0.0);
        assert!((op.voltage(a) - 1.5).abs() < 1e-12);
    }

    /// A workspace reused for a circuit of the same topology but other
    /// element names answers name lookups with the new names.
    #[test]
    fn renamed_elements_are_reindexed() {
        use crate::dc::{dc_operating_point_with, DcWorkspace};
        let divider = |v: &str, r: &str| {
            let mut c = Circuit::new();
            let a = c.node("a");
            c.add_vsource(v, a, Circuit::GROUND, 2.0);
            c.add_resistor(r, a, Circuit::GROUND, 1e3);
            c
        };
        let (first, second) = (divider("V1", "R1"), divider("VA", "RA"));
        let mut ws = DcWorkspace::new(&first).unwrap();
        let op = dc_operating_point_with(&mut ws, &first, &DcOptions::default()).unwrap();
        assert!(op.branch_current("V1").is_some());
        let op = dc_operating_point_with(&mut ws, &second, &DcOptions::default()).unwrap();
        assert!(op.branch_current("V1").is_none());
        assert!((op.branch_current("VA").unwrap() + 2e-3).abs() < 1e-9);
        assert!((op.source_power(&second, "VA").unwrap() - 4e-3).abs() < 1e-9);
    }

    #[test]
    fn missing_lookups_return_none() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, 1.0);
        c.add_resistor("R1", a, Circuit::GROUND, 1e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        assert!(op.branch_current("nope").is_none());
        assert!(op.mos_eval("nope").is_none());
        assert!(op.source_power(&c, "R1").is_none());
    }
}
