//! Hierarchical netlists: subcircuit templates with named ports,
//! instantiated into a parent [`Circuit`] by **deterministic flattening**.
//!
//! The flow's netlists stopped being "one amplifier" the moment chain
//! testbenches arrived: a pipeline stage is an OTA core plus a capacitor
//! array plus switches, and a full-pipeline testbench is N of those wired
//! output-to-input. [`Subckt`] captures a reusable template (a circuit plus
//! an ordered port list), and [`Circuit::instantiate`] flattens a template
//! into a parent netlist:
//!
//! * **ports** connect to caller-supplied parent nodes;
//! * **internal nodes** are interned as `{prefix}.{local}` (ground stays
//!   global);
//! * **elements** are copied in insertion order under `{prefix}.{local}`
//!   names — so two builds of the same hierarchy produce element-for-element
//!   identical flat netlists, the invariant every reusable workspace
//!   ([`crate::dc::DcWorkspace`], [`crate::linearize::SmallSignal`]) keys
//!   its slot maps on.
//!
//! The returned [`Instance`] is the **path-resolution handle**: it maps
//! local element/node names to the flattened [`ElementId`]s/[`NodeId`]s, so
//! in-place retuning ([`Circuit::set_value`],
//! [`Circuit::set_device_geometry`]) of an [`Instance::element`] works
//! through instance paths exactly as it does on flat netlists — a retuned
//! chain reuses its workspaces unchanged.
//!
//! Hierarchy composes: a subcircuit's template may itself contain
//! instances (its element names already carry dots), and flattening simply
//! prepends another prefix, e.g. `s0.ota.M1`.

use crate::netlist::{Circuit, Element, ElementId, NodeId};
use crate::{SpiceError, SpiceResult};
use std::collections::HashMap;

/// Hierarchy separator in flattened node/element names.
pub const HIER_SEP: char = '.';

/// A reusable subcircuit template: a circuit plus an ordered list of named
/// ports (internal nodes exposed for connection).
#[derive(Debug, Clone)]
pub struct Subckt {
    name: String,
    circuit: Circuit,
    /// `(port name, internal node)` in declaration order.
    ports: Vec<(String, NodeId)>,
}

impl Subckt {
    /// Wraps `circuit` as a template named `name`, exposing the internal
    /// nodes named in `ports` as `(port name, internal node name)` pairs.
    ///
    /// # Errors
    /// [`SpiceError::BadNetlist`] if a port references a missing internal
    /// node, names ground (ground is global and needs no port), or a port
    /// name repeats.
    pub fn new(name: &str, circuit: Circuit, ports: &[(&str, &str)]) -> SpiceResult<Self> {
        let mut resolved: Vec<(String, NodeId)> = Vec::with_capacity(ports.len());
        for (port, node_name) in ports {
            let node = circuit.find_node(node_name).ok_or_else(|| {
                SpiceError::BadNetlist(format!(
                    "subckt {name}: port {port} has no node {node_name}"
                ))
            })?;
            if node.is_ground() {
                return Err(SpiceError::BadNetlist(format!(
                    "subckt {name}: port {port} is ground (ground is global)"
                )));
            }
            if resolved.iter().any(|(p, _)| p == port) {
                return Err(SpiceError::BadNetlist(format!(
                    "subckt {name}: duplicate port {port}"
                )));
            }
            resolved.push((port.to_string(), node));
        }
        Ok(Subckt {
            name: name.to_string(),
            circuit,
            ports: resolved,
        })
    }

    /// The template's internal circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Declared ports in order.
    pub fn ports(&self) -> impl Iterator<Item = (&str, NodeId)> {
        self.ports.iter().map(|(p, n)| (p.as_str(), *n))
    }

    /// Internal node of a port.
    pub fn port(&self, name: &str) -> Option<NodeId> {
        self.ports.iter().find(|(p, _)| p == name).map(|(_, n)| *n)
    }
}

/// Path-resolution handle of one flattened [`Subckt`] instance: maps the
/// template's local node/element names to their ids in the parent circuit.
#[derive(Debug, Clone)]
pub struct Instance {
    prefix: String,
    /// Local element name → flattened element id (insertion order of the
    /// template preserved in the parent).
    elems: HashMap<String, ElementId>,
    /// Local node name → flattened node id (ports map to the connected
    /// parent nodes, internal nodes to their `{prefix}.{local}` intern).
    nodes: HashMap<String, NodeId>,
}

impl Instance {
    /// The instance prefix (its path from the parent).
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Flattened element id of a local element path (e.g. `"M1"`, or
    /// `"ota.M1"` through a nested instance).
    pub fn element(&self, local: &str) -> Option<ElementId> {
        self.elems.get(local).copied()
    }

    /// Flattened node of a local node name (ports resolve to the parent
    /// nodes they were connected to).
    pub fn node(&self, local: &str) -> Option<NodeId> {
        self.nodes.get(local).copied()
    }
}

impl Circuit {
    /// Flattens an instance of `sub` into this circuit under `prefix`,
    /// connecting every port to the given parent node. Internal nodes
    /// intern as `{prefix}.{local}`, elements copy in insertion order as
    /// `{prefix}.{local}` — deterministic, so equal build sequences yield
    /// element-for-element equal netlists.
    ///
    /// # Errors
    /// [`SpiceError::BadNetlist`] if a connection names an unknown port,
    /// a port is left unconnected, or the prefix collides with existing
    /// element names.
    pub fn instantiate(
        &mut self,
        sub: &Subckt,
        prefix: &str,
        connections: &[(&str, NodeId)],
    ) -> SpiceResult<Instance> {
        for (port, _) in connections {
            if sub.port(port).is_none() {
                return Err(SpiceError::BadNetlist(format!(
                    "instantiate {prefix}: subckt {} has no port {port}",
                    sub.name
                )));
            }
        }
        // Port internal-node → parent-node map (every port must be wired:
        // a dangling subcircuit port is a floating net the flat netlist
        // could only "fix" through g_min).
        let mut port_map: HashMap<NodeId, NodeId> = HashMap::new();
        for (port, internal) in &sub.ports {
            let conn = connections
                .iter()
                .find(|(p, _)| p == port)
                .map(|(_, n)| *n)
                .ok_or_else(|| {
                    SpiceError::BadNetlist(format!(
                        "instantiate {prefix}: port {port} of subckt {} unconnected",
                        sub.name
                    ))
                })?;
            port_map.insert(*internal, conn);
        }
        let probe = format!("{prefix}{HIER_SEP}");
        if self.elements().iter().any(|e| e.name().starts_with(&probe)) {
            return Err(SpiceError::BadNetlist(format!(
                "instantiate {prefix}: prefix already in use"
            )));
        }
        // Node names too: a pre-existing parent node under the prefix
        // would silently short an instance-internal net to an unrelated
        // parent net when `self.node` re-interns it below.
        if (0..self.node_count()).any(|i| self.node_name(NodeId::from_index(i)).starts_with(&probe))
        {
            return Err(SpiceError::BadNetlist(format!(
                "instantiate {prefix}: a parent node already uses the prefix"
            )));
        }

        // Node map: ground → ground, ports → connections, internals →
        // prefixed interns (created on first reference, in node-id order
        // for determinism).
        let inner = &sub.circuit;
        let mut node_map: Vec<NodeId> = Vec::with_capacity(inner.node_count());
        let mut nodes: HashMap<String, NodeId> = HashMap::new();
        for idx in 0..inner.node_count() {
            let local = NodeId::from_index(idx);
            let mapped = if local.is_ground() {
                Circuit::GROUND
            } else if let Some(&parent) = port_map.get(&local) {
                parent
            } else {
                let name = format!("{prefix}{HIER_SEP}{}", inner.node_name(local));
                self.node(&name)
            };
            node_map.push(mapped);
            if !local.is_ground() {
                nodes.insert(inner.node_name(local).to_string(), mapped);
            }
        }

        let mut elems: HashMap<String, ElementId> = HashMap::with_capacity(inner.elements().len());
        let m = |n: &NodeId| node_map[n.index()];
        for e in inner.elements() {
            let name = format!("{prefix}{HIER_SEP}{}", e.name());
            let id = match e {
                Element::Resistor { a, b, ohms, .. } => self.add_resistor(&name, m(a), m(b), *ohms),
                Element::Capacitor { a, b, farads, .. } => {
                    self.add_capacitor(&name, m(a), m(b), *farads)
                }
                Element::VSource {
                    p, n, wave, ac_mag, ..
                } => self.add_vsource_wave(&name, m(p), m(n), wave.clone(), *ac_mag),
                Element::ISource {
                    p, n, wave, ac_mag, ..
                } => self.add_isource_wave(&name, m(p), m(n), wave.clone(), *ac_mag),
                Element::Vccs {
                    p, n, cp, cn, gm, ..
                } => self.add_vccs(&name, m(p), m(n), m(cp), m(cn), *gm),
                Element::Vcvs {
                    p, n, cp, cn, gain, ..
                } => self.add_vcvs(&name, m(p), m(n), m(cp), m(cn), *gain),
                Element::Mosfet {
                    d,
                    g,
                    s,
                    b,
                    model,
                    w,
                    l,
                    ..
                } => self.add_mosfet(&name, m(d), m(g), m(s), m(b), *model, *w, *l),
                Element::Switch {
                    a,
                    b,
                    ron,
                    roff,
                    phase,
                    dc_closed,
                    ..
                } => self.add_switch(&name, m(a), m(b), *ron, *roff, *phase, *dc_closed),
            };
            elems.insert(e.name().to_string(), id);
        }
        Ok(Instance {
            prefix: prefix.to_string(),
            elems,
            nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};

    /// A resistive divider template: port `top` through R1/R2 to ground,
    /// with `mid` exposed.
    fn divider() -> Subckt {
        let mut c = Circuit::new();
        let top = c.node("top");
        let mid = c.node("mid");
        c.add_resistor("R1", top, mid, 1e3);
        c.add_resistor("R2", mid, Circuit::GROUND, 2e3);
        Subckt::new("div", c, &[("top", "top"), ("mid", "mid")]).unwrap()
    }

    #[test]
    fn ports_resolve_and_validate() {
        let d = divider();
        assert!(d.port("top").is_some());
        assert!(d.port("nope").is_none());
        assert_eq!(d.ports().count(), 2);
        // Missing node, ground port and duplicate port are rejected.
        assert!(Subckt::new("x", Circuit::new(), &[("p", "ghost")]).is_err());
        let mut c = Circuit::new();
        c.node("a");
        assert!(Subckt::new("x", c.clone(), &[("p", "gnd")]).is_err());
        assert!(Subckt::new("x", c, &[("p", "a"), ("p", "a")]).is_err());
    }

    #[test]
    fn flattened_divider_solves() {
        let d = divider();
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add_vsource("V1", vin, Circuit::GROUND, 3.0);
        let tap = c.node("tap");
        let inst = c
            .instantiate(&d, "x1", &[("top", vin), ("mid", tap)])
            .unwrap();
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        let mid = inst.node("mid").unwrap();
        assert!((op.voltage(mid) - 2.0).abs() < 1e-8);
        // The port node is the parent's node, not a prefixed copy.
        assert_eq!(inst.node("top"), Some(vin));
        assert_eq!(c.find_node("tap"), Some(mid));
        // Elements carry the instance path.
        assert!(c.find_element("x1.R1").is_some());
        assert_eq!(inst.element("R1"), c.find_element("x1.R1").map(|(i, _)| i));
    }

    #[test]
    fn instantiation_is_deterministic() {
        let d = divider();
        let build = || {
            let mut c = Circuit::new();
            let vin = c.node("in");
            c.add_vsource("V1", vin, Circuit::GROUND, 1.0);
            let tap = c.node("tap");
            c.instantiate(&d, "a", &[("top", vin), ("mid", tap)])
                .unwrap();
            let t2 = c.node("t2");
            c.instantiate(&d, "b", &[("top", tap), ("mid", t2)])
                .unwrap();
            c
        };
        let c1 = build();
        let c2 = build();
        assert_eq!(c1.elements(), c2.elements());
        assert_eq!(c1.node_count(), c2.node_count());
        assert_eq!(c1.topology_fingerprint(), c2.topology_fingerprint());
    }

    #[test]
    fn nested_instances_compose_paths() {
        // A template that itself contains an instance.
        let d = divider();
        let mut stage = Circuit::new();
        let i = stage.node("i");
        let o = stage.node("o");
        stage
            .instantiate(&d, "div", &[("top", i), ("mid", o)])
            .unwrap();
        stage.add_capacitor("CL", o, Circuit::GROUND, 1e-12);
        let stage = Subckt::new("stage", stage, &[("i", "i"), ("o", "o")]).unwrap();

        let mut top = Circuit::new();
        let vin = top.node("in");
        top.add_vsource("V1", vin, Circuit::GROUND, 3.0);
        let out = top.node("out");
        let inst = top
            .instantiate(&stage, "s0", &[("i", vin), ("o", out)])
            .unwrap();
        assert!(top.find_element("s0.div.R1").is_some());
        assert_eq!(
            inst.element("div.R1"),
            top.find_element("s0.div.R1").map(|(i, _)| i)
        );
        let op = dc_operating_point(&top, &DcOptions::default()).unwrap();
        assert!((op.voltage(inst.node("o").unwrap()) - 2.0).abs() < 1e-8);
    }

    #[test]
    fn retune_through_instance_path() {
        let d = divider();
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add_vsource("V1", vin, Circuit::GROUND, 3.0);
        let tap = c.node("tap");
        let inst = c
            .instantiate(&d, "x", &[("top", vin), ("mid", tap)])
            .unwrap();
        c.set_value(inst.element("R2").unwrap(), 1e3); // divider becomes 1k/1k
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        assert!((op.voltage(inst.node("mid").unwrap()) - 1.5).abs() < 1e-8);
    }

    #[test]
    fn bad_instantiations_are_rejected() {
        let d = divider();
        let mut c = Circuit::new();
        let vin = c.node("in");
        let tap = c.node("tap");
        // Unknown port.
        assert!(c.instantiate(&d, "x", &[("ghost", vin)]).is_err());
        // Unconnected port.
        assert!(c.instantiate(&d, "x", &[("top", vin)]).is_err());
        // Prefix collision.
        c.instantiate(&d, "x", &[("top", vin), ("mid", tap)])
            .unwrap();
        assert!(c
            .instantiate(&d, "x", &[("top", vin), ("mid", tap)])
            .is_err());
        // A pre-existing parent *node* under the prefix is a collision
        // too: re-interning would short an internal net to it.
        let mut c2 = Circuit::new();
        let vin2 = c2.node("in");
        c2.add_vsource("V1", vin2, Circuit::GROUND, 1.0);
        c2.node("y.mid"); // unrelated probe net squatting on the prefix
        let tap2 = c2.node("tap");
        assert!(c2
            .instantiate(&d, "y", &[("top", vin2), ("mid", tap2)])
            .is_err());
    }

    #[test]
    fn mosfets_and_switches_flatten() {
        use crate::netlist::ClockPhase;
        use crate::process::Process;
        let p = Process::c025();
        let mut amp = Circuit::new();
        let g = amp.node("g");
        let dnode = amp.node("d");
        amp.add_mosfet(
            "M1",
            dnode,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            p.nmos,
            5e-6,
            0.5e-6,
        );
        amp.add_switch("S1", g, dnode, 100.0, 1e12, ClockPhase::Phi2, true);
        let sub = Subckt::new("cs", amp, &[("g", "g"), ("d", "d")]).unwrap();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        c.add_vsource("VDD", vdd, Circuit::GROUND, 3.3);
        let dn = c.node("dn");
        c.add_resistor("RD", vdd, dn, 10e3);
        let inst = c.instantiate(&sub, "a0", &[("g", dn), ("d", dn)]).unwrap();
        assert_eq!(c.mosfets().count(), 1);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        assert!(op.mos_eval("a0.M1").is_some());
        // Geometry retune resolves through the path.
        c.set_device_geometry(inst.element("M1").unwrap(), 10e-6, 0.5e-6);
        let (_, e) = c.find_element("a0.M1").unwrap();
        match e {
            Element::Mosfet { w, .. } => assert_eq!(*w, 10e-6),
            _ => unreachable!(),
        }
    }
}
