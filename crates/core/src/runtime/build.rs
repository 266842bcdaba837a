//! Source → partition → engines: the rebuild that every new version,
//! demotion and rollback ends in, the promotion that installs a hardware
//! engine, and the plane surgery both need (rebinding handles, ABI
//! forwarding, dropping absorbed slots).

use super::{lifecycle, Event, Runtime};
use crate::compiler::{HwSource, SUBPROGRAM};
use crate::engine::clock::ClockEngine;
use crate::engine::hw::{Forwarded, HwEngine};
use crate::engine::peripheral::{PeripheralEngine, PERIPHERAL_CLOCK_PORT};
use crate::engine::sw::SwEngine;
use crate::engine::{Engine, EngineKind, EngineState};
use crate::error::CascadeError;
use crate::plane::{Endpoint, Plan, ResolvedWire, Slot, SlotEngine};
use crate::transform::{transform_module, Externals, Wire};
use cascade_bits::Bits;
use cascade_trace::Arg;
use cascade_verilog::ast::{Instance, Module, ModuleItem};
use cascade_verilog::typecheck::{const_eval, ModuleLibrary, ParamEnv};
use cascade_verilog::{FrontendResult, Span};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The name of the implicit root module.
pub(super) const ROOT: &str = "main";

/// One accumulated root-module item and whether its one-shot part has
/// already executed (statements and initial blocks run exactly once, when
/// eval'ed).
#[derive(Debug, Clone)]
pub(super) struct RootEntry {
    pub item: ModuleItem,
    pub executed: bool,
}

impl Runtime {
    /// Rebuilds software engines from the live engines' state, disarming
    /// the checkpoint (the lifecycle has already returned any lease).
    pub(super) fn rebuild(&mut self) -> Result<(), CascadeError> {
        self.recovery.snapshot = None;
        self.rebuild_from(None)
    }

    /// Every engine's state, by slot name.
    pub(super) fn engine_states(&mut self) -> BTreeMap<String, EngineState> {
        self.slots
            .iter_mut()
            .map(|slot| (slot.name.clone(), slot.engine.get_state()))
            .collect()
    }

    /// Rebuilds engines from source, seeding them from `override_states`
    /// when given (checkpoint restore — the live engines' state is
    /// deliberately ignored) or from the live engines otherwise.
    pub(super) fn rebuild_from(
        &mut self,
        override_states: Option<BTreeMap<String, EngineState>>,
    ) -> Result<(), CascadeError> {
        // Every window closed by verification or discarded by a rollback
        // before the engines it ran on are replaced.
        debug_assert!(self.recovery.quarantine.is_empty(), "unverified output");
        self.board.fifo_unmark();
        // 1. Save state. A forwarding hardware engine reports absorbed
        // peripheral state under `instance::element` keys; split those
        // back out so peripherals survive demotion.
        let mut saved = match override_states {
            Some(states) => states,
            None => self.engine_states(),
        };
        split_forwarded_state(&mut saved);
        // 2. Compose and transform. Without inlining (paper Fig. 9.1), every
        // root-level user-module instance becomes its own engine on the
        // data/control plane; with inlining (Fig. 9.2) they stay inside the
        // single main subprogram.
        let root_module = compose_root(&self.root, true);
        let mut externals = root_externals(&root_module, &self.lib)?;
        let mut child_specs: Vec<(String, String, ParamEnv)> = Vec::new();
        if !self.config.inline {
            for item in &root_module.items {
                let ModuleItem::Instance(inst) = item else {
                    continue;
                };
                if cascade_stdlib::is_stdlib_module(&inst.module) {
                    continue;
                }
                let Some(decl) = self.lib.get(&inst.module) else {
                    continue;
                };
                let mut params = ParamEnv::new();
                for (name, v) in instance_params(inst, decl) {
                    if let Ok(v) = v {
                        params.insert(name, v);
                    }
                }
                externals.insert(inst.name.clone(), (inst.module.clone(), params.clone()));
                child_specs.push((inst.name.clone(), inst.module.clone(), params));
            }
        }
        let mut wires: Vec<Wire> = Vec::new();
        let transformed = transform_module(ROOT, &root_module, &externals, &self.lib, &mut wires)?;

        // 3. Build engines.
        let mut slots: Vec<Slot> = Vec::new();
        slots.push(Slot::new(
            "clk".to_string(),
            SlotEngine::Clock(ClockEngine::new()),
        ));
        let clock_idx = 0;

        // Peripherals that actually participate (wired), instantiated via
        // the stdlib.
        let mut peripheral_names: Vec<String> = wires
            .iter()
            .flat_map(|w| [w.from.0.clone(), w.to.0.clone()])
            .filter(|n| n != ROOT && n != "clk")
            .collect();
        peripheral_names.sort();
        peripheral_names.dedup();
        for name in &peripheral_names {
            let Some((module, params)) = externals.get(name) else {
                continue;
            };
            if !cascade_stdlib::is_stdlib_module(module) {
                continue; // a non-inlined user instance: gets its own engine below
            }
            let Some(p) = cascade_stdlib::instantiate(module, params, &self.board) else {
                return Err(CascadeError::Unsupported(format!(
                    "`{module}` cannot be instantiated as a peripheral"
                )));
            };
            let mut engine = PeripheralEngine::new(p);
            // Peripheral state (memories, FIFO positions) survives rebuilds.
            if let Some(prev) = saved.get(name) {
                engine.set_state(prev);
            }
            slots.push(Slot::new(name.clone(), SlotEngine::Peripheral(engine)));
        }

        // Child engines for non-inlined user instances (software only; the
        // JIT promotes to hardware only in the inlined configuration, as in
        // the paper's optimization flow).
        for (inst_name, module_name, params) in &child_specs {
            let design = cascade_sim::elaborate(module_name, &self.lib, params)
                .map_err(CascadeError::Elaborate)?;
            let engine = SwEngine::new(Arc::new(design), saved.get(inst_name.as_str()))
                .map_err(|e| CascadeError::Unsupported(e.to_string()))?;
            slots.push(Slot::new(
                inst_name.clone(),
                SlotEngine::Software(Box::new(engine)),
            ));
        }

        // The main engine (if there is user logic).
        let has_user_logic = !transformed.items.is_empty();
        let mut main_idx = None;
        let mut hw_source = None;
        if has_user_logic {
            // The software design includes not-yet-executed statements and
            // initials; the hardware form, which excludes them, is
            // elaborated where it is compiled. (Function inlining happens
            // inside `cascade_sim::elaborate`.)
            let mut lib = self.lib.clone();
            let mut sub = transformed;
            sub.name = SUBPROGRAM.to_string();
            lib.insert(sub);
            let sw_design = Arc::new(
                cascade_sim::elaborate(SUBPROGRAM, &lib, &ParamEnv::new())
                    .map_err(CascadeError::Elaborate)?,
            );
            // Prior state is restored *before* initial blocks and freshly
            // eval'ed statements execute, so probes observe live values.
            let engine = SwEngine::new(Arc::clone(&sw_design), saved.get(ROOT))
                .map_err(|e| CascadeError::Unsupported(e.to_string()))?;
            main_idx = Some(slots.len());
            slots.push(Slot::new(
                ROOT.to_string(),
                SlotEngine::Software(Box::new(engine)),
            ));
            hw_source = Some(Arc::new(HwSource::new(lib)));
        }

        // 4. Resolve wires (plus the implicit clock wire to peripherals).
        let index_of = |name: &str, slots: &[Slot]| slots.iter().position(|s| s.name == name);
        let mut resolved = Vec::new();
        for w in &wires {
            let (Some(f), Some(t)) = (index_of(&w.from.0, &slots), index_of(&w.to.0, &slots))
            else {
                continue; // wire to an unused peripheral
            };
            resolved.push(ResolvedWire::new(
                Endpoint::resolve(f, &w.from.1, &slots),
                Endpoint::resolve(t, &w.to.1, &slots),
            ));
        }
        for (i, slot) in slots.iter().enumerate() {
            if slot.kind() == EngineKind::Peripheral {
                resolved.push(ResolvedWire::new(
                    Endpoint::resolve(clock_idx, "val", &slots),
                    Endpoint::resolve(i, PERIPHERAL_CLOCK_PORT, &slots),
                ));
            }
        }

        self.slots = slots;
        self.wires = resolved;
        self.clock_idx = clock_idx;
        self.main_idx = main_idx;
        self.hw_source = hw_source;
        if main_idx.is_none() {
            (self.lc, _) = lifecycle::step(&self.lc, Event::Empty);
        }
        self.rebind_tap();
        self.lower_plan();

        // 5. Mark one-shot items executed (they ran during engine init) and
        // surface their output.
        for entry in &mut self.root {
            if matches!(
                entry.item,
                ModuleItem::Statement(_) | ModuleItem::Initial(_)
            ) {
                entry.executed = true;
            }
        }
        self.collect_interrupts();
        // Initial propagation so peripherals see time-zero outputs.
        self.propagate();

        // Bytecode-compiling the software engine is itself a JIT phase:
        // announce it so the timeline shows the software step. Modeled
        // duration is zero — software compilation is instantaneous on the
        // virtual clock.
        if let (Some(idx), true) = (self.main_idx, self.obs.trace.enabled()) {
            if let Some(sw) = self.slots[idx].engine.software() {
                sw.enable_profiling();
            }
            let version = self.lc.version;
            self.jit_span(
                "software_compile",
                self.virt_ns(),
                &[("version", Arg::U64(version))],
            );
        }

        // 6. Kick background compilation (only meaningful for the inlined
        // configuration: a partitioned program would need one compile per
        // engine, which the paper's flow sidesteps by inlining first).
        if self.config.auto_compile && self.config.inline {
            if let Some(source) = &self.hw_source {
                // The compile work is attributed to the submitting request:
                // one child span covers the whole toolchain flow (attempts,
                // backoff) and rides into the shared pool so dedup joins can
                // link to it from other requests.
                let (at, parent) = self.obs.req_at();
                self.compiler.set_origin(at, parent);
                self.compiler.submit(
                    Arc::clone(source),
                    self.config.toolchain.clone(),
                    self.lc.version,
                    self.wall.seconds(),
                );
                if self.obs.trace.enabled() {
                    self.obs.trace.instant_ctx(
                        self.obs.track,
                        "compile",
                        "submit",
                        self.virt_ns(),
                        at,
                        parent,
                        &[("version", Arg::U64(self.lc.version))],
                    );
                }
            }
        }
        self.trace_mode();
        Ok(())
    }

    /// Installs a compiled bitstream as main, migrating the software
    /// engine's state into it at a tick boundary (clock low, so edge
    /// detection stays coherent).
    pub(super) fn promote(
        &mut self,
        netlist: Arc<cascade_netlist::Netlist>,
    ) -> Result<(), CascadeError> {
        let Some(main_idx) = self.main_idx else {
            return Ok(());
        };
        self.obs.metrics.hw_promotions.inc();
        let mut hw =
            HwEngine::new(netlist).map_err(|e| CascadeError::Unsupported(e.to_string()))?;
        let state = self.slots[main_idx].engine.get_state();
        hw.set_state(&state);
        if self.obs.trace.enabled() {
            hw.enable_profiling();
        }
        self.slots[main_idx].install(SlotEngine::Hardware(Box::new(hw)));
        self.rebind(main_idx);
        // Reset wire caches so current values are re-broadcast into the new
        // engine.
        for w in &mut self.wires {
            if w.to.slot == main_idx {
                w.last = None;
                w.seen = 0;
            }
        }
        self.propagate();
        let t0 = self.virt_ns();
        self.wall.advance_ns(self.config.costs.reprogram_ns);
        let version = self.lc.version;
        self.jit_span("program_fabric", t0, &[("version", Arg::U64(version))]);
        self.trace_instant("state_migration", &[("direction", Arg::Str("sw_to_hw"))]);
        if self.config.forwarding {
            self.absorb_peripherals(main_idx);
        }
        self.trace_mode();
        Ok(())
    }

    /// ABI forwarding (paper Sec. 4.3): move peripherals into the hardware
    /// engine and collapse their data-plane wires.
    fn absorb_peripherals(&mut self, main_idx: usize) {
        let forwarded = self.collect_forwarded();
        if forwarded.is_empty() {
            return;
        }
        let slot = &mut self.slots[main_idx];
        if let Some(hw) = slot.engine.hardware() {
            hw.absorb(forwarded);
        }
        self.retain_clock_and_main();
    }

    /// Extracts peripheral engines and their bindings for absorption.
    pub(super) fn collect_forwarded(&mut self) -> Vec<Forwarded> {
        let Some(main_idx) = self.main_idx else {
            return Vec::new();
        };
        let mut out: Vec<Forwarded> = Vec::new();
        for pi in 0..self.slots.len() {
            if self.slots[pi].kind() != EngineKind::Peripheral {
                continue;
            }
            let between = |from, to| {
                let wires = self
                    .wires
                    .iter()
                    .filter(move |w| w.from.slot == from && w.to.slot == to);
                wires
                    .map(|w| (w.from.name.clone(), w.to.name.clone()))
                    .collect()
            };
            let (drives, feeds) = (between(main_idx, pi), between(pi, main_idx));
            // Replace the slot's engine with a placeholder and take the
            // peripheral out.
            let old = self.slots[pi].install(SlotEngine::Clock(ClockEngine::new()));
            if let SlotEngine::Peripheral(peripheral) = old {
                out.push(Forwarded {
                    instance: self.slots[pi].name.clone(),
                    peripheral: peripheral.into_peripheral(),
                    drives,
                    feeds,
                });
            }
        }
        out
    }

    /// Drops every slot except the clock and main, rewiring accordingly.
    pub(super) fn retain_clock_and_main(&mut self) {
        let Some(main_idx) = self.main_idx else {
            return;
        };
        let keep = [self.clock_idx, main_idx];
        let slots = std::mem::take(&mut self.slots).into_iter().enumerate();
        self.slots = slots
            .filter(|(i, _)| keep.contains(i))
            .map(|(_, s)| s)
            .collect();
        let remap = |slot: &mut usize| match keep.iter().position(|k| k == slot) {
            Some(new) => *slot = new,
            None => *slot = usize::MAX,
        };
        for w in &mut self.wires {
            remap(&mut w.from.slot);
            remap(&mut w.to.slot);
        }
        self.wires
            .retain(|w| w.from.slot != usize::MAX && w.to.slot != usize::MAX);
        self.clock_idx = 0;
        self.main_idx = Some(1);
        self.lower_plan();
    }

    /// Re-resolves every handle naming a port of slot `idx`, whose engine
    /// was just replaced: the wire ends there, and the waveform tap when
    /// it is the main engine.
    pub(super) fn rebind(&mut self, idx: usize) {
        let engine = &*self.slots[idx].engine;
        for w in &mut self.wires {
            for end in [&mut w.from, &mut w.to] {
                if end.slot == idx {
                    end.port = engine.port(&end.name);
                }
            }
        }
        if self.main_idx == Some(idx) {
            self.rebind_tap();
        }
        self.lower_plan();
    }

    /// Lowers the plane for the batch ([`Plan::lower`]); every wiring site
    /// ends here. `inline` off keeps the walk.
    pub(super) fn lower_plan(&mut self) {
        self.plan = if self.config.inline {
            Plan::lower(&mut self.slots, &self.wires, self.clock_idx, self.main_idx)
        } else {
            None
        };
    }
}

/// Splits `instance::element` memory entries out of the root snapshot into
/// per-instance peripheral snapshots — the inverse of ABI forwarding's
/// state absorption. Existing per-instance snapshots win.
fn split_forwarded_state(saved: &mut BTreeMap<String, EngineState>) {
    let Some(root) = saved.get(ROOT) else {
        return;
    };
    let mut split: BTreeMap<String, EngineState> = BTreeMap::new();
    for (key, words) in &root.mems {
        if let Some((inst, elem)) = key.split_once("::") {
            split
                .entry(inst.to_string())
                .or_default()
                .mems
                .insert(elem.to_string(), words.clone());
        }
    }
    for (inst, state) in split {
        saved.entry(inst).or_insert(state);
    }
}

/// Composes the implicit root module from accumulated entries. When
/// `for_engine`, previously executed one-shot items are excluded.
pub(super) fn compose_root(entries: &[RootEntry], for_engine: bool) -> Module {
    let items = entries
        .iter()
        .filter(|e| {
            if !for_engine {
                return true;
            }
            match e.item {
                ModuleItem::Statement(_) | ModuleItem::Initial(_) => !e.executed,
                _ => true,
            }
        })
        .map(|e| e.item.clone())
        .collect();
    Module {
        name: "Main".to_string(),
        params: Vec::new(),
        ports: Vec::new(),
        items,
        span: Span::synthetic(),
    }
}

/// Determines the external components visible to the root subprogram: the
/// implicit stdlib instances plus any stdlib modules instantiated in the
/// root items.
pub(super) fn root_externals(
    root: &Module,
    lib: &ModuleLibrary,
) -> Result<Externals, CascadeError> {
    let implicit = [
        ("clk", "Clock"),
        ("pad", "Pad"),
        ("led", "Led"),
        ("rst", "Reset"),
        ("gpio", "GPIO"),
    ];
    let mut ext: Externals = implicit
        .into_iter()
        .map(|(name, module)| (name.to_string(), (module.to_string(), ParamEnv::new())))
        .collect();
    // Explicit stdlib instances.
    for item in &root.items {
        let ModuleItem::Instance(inst) = item else {
            continue;
        };
        if !cascade_stdlib::is_stdlib_module(&inst.module) {
            continue;
        }
        let decl = lib.get(&inst.module).ok_or_else(|| {
            CascadeError::Unsupported(format!("unknown stdlib module `{}`", inst.module))
        })?;
        let mut params = ParamEnv::new();
        for (name, v) in instance_params(inst, decl) {
            params.insert(name, v.map_err(CascadeError::Elaborate)?);
        }
        ext.insert(inst.name.clone(), (inst.module.clone(), params));
    }
    Ok(ext)
}

/// An instance's parameter overrides by name (a positional one takes the
/// declaration's name for its position), each constant-evaluated.
fn instance_params<'a>(
    inst: &'a Instance,
    decl: &'a Module,
) -> impl Iterator<Item = (String, FrontendResult<Bits>)> + 'a {
    inst.params.iter().enumerate().filter_map(|(i, conn)| {
        let name = match &conn.name {
            Some(n) => n.clone(),
            None => decl.params.get(i)?.name.clone(),
        };
        Some((name, const_eval(conn.expr.as_ref()?, &ParamEnv::new())))
    })
}
