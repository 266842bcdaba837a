//! The forwarding table shared by hardware and native engines: absorbed
//! standard-library components connected straight to the engine's nets
//! (paper Sec. 4.3), with every binding resolved to integer handles when
//! the components are absorbed.

use cascade_bits::Bits;
use cascade_netlist::{NetId, NetlistSim};
use cascade_stdlib::{Peripheral, PortId};
use std::collections::BTreeMap;

/// A standard-library component handed to an engine for absorption: its
/// ports are connected directly instead of across the data plane. Bindings
/// are by name here; the engine resolves them once, on receipt.
pub struct Forwarded {
    pub instance: String,
    pub peripheral: Box<dyn Peripheral>,
    /// engine output port → peripheral input port.
    pub drives: Vec<(String, String)>,
    /// peripheral output port → engine input port.
    pub feeds: Vec<(String, String)>,
}

/// One resolved connection between a component port and an engine net.
struct Binding {
    component: usize,
    port: PortId,
    net: NetId,
    /// The value last moved across, so an unchanged one is not re-sent.
    last: Option<Bits>,
}

/// Absorbed components and their resolved bindings.
#[derive(Default)]
pub(crate) struct ForwardTable {
    components: Vec<(String, Box<dyn Peripheral>)>,
    /// component output → engine input net.
    feeds: Vec<Binding>,
    /// engine output net → component input.
    drives: Vec<Binding>,
}

impl ForwardTable {
    /// Resolves every binding of `forwarded`; `net_of` maps an engine port
    /// name to its net. A binding either side cannot resolve (the port was
    /// optimised away, or never existed) is dropped here, so the exchange
    /// loop has no failure case.
    pub fn new(forwarded: Vec<Forwarded>, net_of: impl Fn(&str) -> Option<NetId>) -> Self {
        let mut table = ForwardTable::default();
        for (component, f) in forwarded.into_iter().enumerate() {
            let bind = |engine_port: &str, component_port: &str| {
                let port = f.peripheral.port(component_port);
                let net = net_of(engine_port)?;
                (port != PortId::NONE).then_some(Binding {
                    component,
                    port,
                    net,
                    last: None,
                })
            };
            table
                .feeds
                .extend(f.feeds.iter().filter_map(|(c, e)| bind(e, c)));
            table
                .drives
                .extend(f.drives.iter().filter_map(|(e, c)| bind(e, c)));
            table.components.push((f.instance, f.peripheral));
        }
        table
    }

    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Combinational exchange between the engine's nets and the absorbed
    /// components. A round moves every changed value once in each
    /// direction; the request/ready handshakes the stdlib uses settle in
    /// two, and the second runs only if the first moved anything.
    pub fn exchange(&mut self, sim: &mut NetlistSim) {
        for _ in 0..2 {
            let mut moved = false;
            for b in &mut self.feeds {
                let v = self.components[b.component].1.output(b.port);
                if b.last.as_ref() != Some(&v) {
                    sim.set_input(b.net, v.clone());
                    b.last = Some(v);
                    moved = true;
                }
            }
            for b in &mut self.drives {
                let v = sim.get(b.net);
                if b.last.as_ref() != Some(&v) {
                    self.components[b.component].1.set_input(b.port, &v);
                    b.last = Some(v);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
    }

    /// Rising clock edge in every component.
    pub fn posedge(&mut self) {
        for (_, p) in &mut self.components {
            p.posedge();
        }
    }

    /// Observable state: components poll their external inputs.
    pub fn end_step(&mut self) {
        for (_, p) in &mut self.components {
            p.end_step();
        }
    }

    /// Host-bus words the components moved since the last call.
    pub fn take_bus_words(&mut self) -> u64 {
        self.components
            .iter_mut()
            .map(|(_, p)| p.take_bus_words())
            .sum()
    }

    /// Component state under `instance::element` keys, merged into `mems`.
    pub fn get_state(&self, mems: &mut BTreeMap<String, Vec<Bits>>) {
        for (instance, p) in &self.components {
            for (k, v) in p.get_state() {
                mems.insert(format!("{instance}::{k}"), v);
            }
        }
    }

    /// Restores component state from `instance::element` keys.
    pub fn set_state(&mut self, mems: &BTreeMap<String, Vec<Bits>>) {
        for (instance, p) in &mut self.components {
            let prefix = format!("{instance}::");
            let sub: BTreeMap<String, Vec<Bits>> = mems
                .iter()
                .filter_map(|(k, v)| {
                    k.strip_prefix(&prefix)
                        .map(|rest| (rest.to_string(), v.clone()))
                })
                .collect();
            if !sub.is_empty() {
                p.set_state(&sub);
            }
        }
    }
}
