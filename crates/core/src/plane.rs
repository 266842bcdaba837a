//! The data plane (paper Fig. 6): the slots the scheduler drives, the wires
//! between them, and the two ways a scheduler iteration moves values
//! across them.
//!
//! - [`propagate`] is the walk's pass. It works on any plane: every engine
//!   is called through the [`Engine`] ABI, and every wire whose source's
//!   generation moved is polled.
//! - [`Plan`] is the plane batch. A software plane is lowered into a plan
//!   at each wiring site, and [`Plan::iteration`] then runs the walk's own
//!   iteration on it without the runtime in the loop: the clock and the
//!   software engine are called directly, and a peripheral's outputs are
//!   peeked only where it declares they can have moved.

use crate::engine::clock::ClockEngine;
use crate::engine::hw::HwEngine;
use crate::engine::native::NativeEngine;
use crate::engine::peripheral::PeripheralEngine;
use crate::engine::sw::SwEngine;
use crate::engine::{Engine, EngineError, EngineKind, PortId};
use cascade_bits::Bits;
use cascade_fpga::{CostModel, VirtualWall};
use cascade_sim::VarId;
use cascade_stdlib::MovePoints;
use std::ops::{Deref, DerefMut};

/// A slot's engine. The runtime builds every engine itself, so a slot
/// holds each by its type: the walk calls any of them through the
/// [`Engine`] ABI (`Deref`), the plane batch calls them directly.
pub(crate) enum SlotEngine {
    Clock(ClockEngine),
    Peripheral(PeripheralEngine),
    Software(Box<SwEngine>),
    Hardware(Box<HwEngine>),
    Native(Box<NativeEngine>),
}

impl SlotEngine {
    pub(crate) fn kind(&self) -> EngineKind {
        match self {
            SlotEngine::Clock(_) => EngineKind::Clock,
            SlotEngine::Peripheral(_) => EngineKind::Peripheral,
            SlotEngine::Software(_) => EngineKind::Software,
            SlotEngine::Hardware(_) => EngineKind::Hardware,
            SlotEngine::Native(_) => EngineKind::Native,
        }
    }

    pub(crate) fn software(&mut self) -> Option<&mut SwEngine> {
        match self {
            SlotEngine::Software(e) => Some(e),
            _ => None,
        }
    }

    pub(crate) fn hardware(&mut self) -> Option<&mut HwEngine> {
        match self {
            SlotEngine::Hardware(e) => Some(e),
            _ => None,
        }
    }

    fn peripheral(&mut self) -> Option<&mut PeripheralEngine> {
        match self {
            SlotEngine::Peripheral(e) => Some(e),
            _ => None,
        }
    }
}

impl Deref for SlotEngine {
    type Target = dyn Engine;

    fn deref(&self) -> &(dyn Engine + 'static) {
        match self {
            SlotEngine::Clock(e) => e,
            SlotEngine::Peripheral(e) => e,
            SlotEngine::Software(e) => e.as_ref(),
            SlotEngine::Hardware(e) => e.as_ref(),
            SlotEngine::Native(e) => e.as_ref(),
        }
    }
}

impl DerefMut for SlotEngine {
    fn deref_mut(&mut self) -> &mut (dyn Engine + 'static) {
        match self {
            SlotEngine::Clock(e) => e,
            SlotEngine::Peripheral(e) => e,
            SlotEngine::Software(e) => e.as_mut(),
            SlotEngine::Hardware(e) => e.as_mut(),
            SlotEngine::Native(e) => e.as_mut(),
        }
    }
}

pub(crate) struct Slot {
    pub(crate) name: String,
    pub(crate) engine: SlotEngine,
    /// Output generation. Bumped wherever this engine's outputs can have
    /// changed; a wire from this slot is polled only when it has not seen
    /// the current value (see [`propagate`]).
    pub(crate) gen: u64,
    /// Polls of a hardware engine that `propagate` skipped and has not
    /// charged yet (each one is a modeled bus message).
    pub(crate) spared: u64,
}

impl Slot {
    pub(crate) fn new(name: String, engine: SlotEngine) -> Slot {
        Slot {
            name,
            engine,
            gen: 1,
            spared: 0,
        }
    }

    pub(crate) fn kind(&self) -> EngineKind {
        self.engine.kind()
    }

    /// Replaces the engine, returning the old one. Every wire from this
    /// slot is polled again.
    pub(crate) fn install(&mut self, engine: SlotEngine) -> SlotEngine {
        self.gen += 1;
        std::mem::replace(&mut self.engine, engine)
    }
}

/// One end of a data-plane wire. The tick path uses `slot` and `port`
/// only; the name is kept to re-resolve the handle when the slot's engine
/// is replaced (handles do not outlive the engine that issued them).
pub(crate) struct Endpoint {
    pub(crate) slot: usize,
    pub(crate) port: PortId,
    pub(crate) name: String,
}

impl Endpoint {
    pub(crate) fn resolve(slot: usize, name: &str, slots: &[Slot]) -> Self {
        Endpoint {
            slot,
            port: slots[slot].engine.port(name),
            name: name.to_string(),
        }
    }
}

pub(crate) struct ResolvedWire {
    pub(crate) from: Endpoint,
    pub(crate) to: Endpoint,
    /// The value last polled from `from` (and delivered to `to`).
    pub(crate) last: Option<Bits>,
    /// The source slot's generation at that poll; 0 (below every slot's)
    /// before the first.
    pub(crate) seen: u64,
}

impl ResolvedWire {
    pub(crate) fn new(from: Endpoint, to: Endpoint) -> Self {
        ResolvedWire {
            from,
            to,
            last: None,
            seen: 0,
        }
    }
}

/// What the data plane has done so far (see `Runtime::data_plane_polls`).
#[derive(Default)]
pub(crate) struct Counts {
    /// `Engine::output` polls.
    pub(crate) polls: u64,
    /// The `read`s they caused.
    pub(crate) reads: u64,
    /// Ticks run by [`Plan::iteration`] instead of the walk.
    pub(crate) batched_ticks: u64,
}

/// The walk's pass: moves changed output values across the wires and
/// returns whether anything moved.
///
/// A wire is polled iff its source slot's generation moved since the wire
/// last polled it. Wires are walked in wiring order and a `read` bumps its
/// target at once, so a later wire out of that target is still polled in
/// the same pass: the value-moving polls, and the `read`s they cause, are
/// those of a walk that polls every wire.
pub(crate) fn propagate(
    slots: &mut [Slot],
    wires: &mut [ResolvedWire],
    counts: &mut Counts,
) -> bool {
    // This runs several times per scheduler iteration, so it touches
    // handles only — no name is looked up here.
    let mut moved = false;
    for w in wires.iter_mut() {
        let src = &mut slots[w.from.slot];
        if w.seen == src.gen {
            // The one poll with a modeled cost is still owed to the
            // virtual clock (see `Runtime::charge_costs`).
            if src.kind() == EngineKind::Hardware {
                src.spared += 1;
            }
            continue;
        }
        w.seen = src.gen;
        counts.polls += 1;
        let value = src.engine.output(w.from.port);
        if w.last.as_ref() == Some(&value) {
            continue;
        }
        let dst = &mut slots[w.to.slot];
        dst.engine.read(w.to.port, &value);
        dst.gen += 1;
        counts.reads += 1;
        w.last = Some(value);
        moved = true;
    }
    // Skipped must mean unchanged: every wire that is up to date with its
    // source is polled anyway and compared. Hardware sources are left out
    // because their `output` is a charged bus message — the check would
    // move the virtual clock of debug builds.
    #[cfg(debug_assertions)]
    for w in wires.iter() {
        let src = &mut slots[w.from.slot];
        if w.seen == src.gen && src.kind() != EngineKind::Hardware {
            debug_assert_eq!(
                Some(src.engine.output(w.from.port)),
                w.last,
                "stale wire {}.{} -> {}: a bump site is missing",
                src.name,
                w.from.name,
                w.to.name,
            );
        }
    }
    moved
}

/// One end of a lowered wire.
#[derive(Clone, Copy)]
enum End {
    Clock,
    /// Slot `1 + i`.
    Peripheral(usize),
    Main,
}

struct Lowered {
    from: End,
    to: End,
    /// For a wire out of main: the variable behind its port.
    from_var: Option<VarId>,
    /// For the clock into main: the input it drives.
    clock_var: Option<VarId>,
    /// The wires leaving the target, which a `read` through this wire
    /// makes the walk poll again.
    target_out: u64,
    /// Whether that `read` can also move the target's outputs: always for
    /// main, never for the clock, and for a peripheral when it declares
    /// `input` and this is not its clock.
    moves_target: bool,
}

/// A software plane lowered for the batch: the clock in slot 0, then
/// peripherals, then a [`SwEngine`] as main and last (the shape of every
/// inlined software program), with at most 64 wires. Built once per
/// wiring site by [`Plan::lower`]; every other plane keeps the walk.
///
/// [`Plan::iteration`] is the walk's iteration on this shape, call for
/// call: `end_step` in slot order, the evaluation rounds (only main can
/// evaluate), the update rounds in slot order (the clock, each
/// peripheral's `update` — its `posedge` — then main's `apply_updates`,
/// all in one round), a pass after each as [`propagate`] makes it, and
/// each slot's charge in slot order. What differs is invisible to the
/// modeled machine:
/// - Every engine is called directly, not through the [`Engine`] vtable,
///   and nothing is asked whose answer the shape fixes: a clock or a
///   peripheral never evaluates, a clock charges nothing, and only main
///   has tasks.
/// - The generation rule is kept as bit masks over the wires. `dirty` is
///   the walk's "source moved since this wire last polled it" and decides
///   the polls; `peek` marks the dirty wires whose source may also have
///   changed value. A poll counts either way, but a peripheral is peeked
///   only past a point it declares ([`MovePoints`]); otherwise the value
///   is the wire's `last`, as the walk would have found it. A clock
///   wire's `last` is a bit of `high`, and the clock reaches an engine as
///   a level, without `Bits`.
/// - [`Plan::begin`] and [`Plan::end`] translate between the masks and
///   the walk's `gen`, `seen` and `last`.
pub(crate) struct Plan {
    /// One per wire, in wiring order; wire `k` is bit `k` of the masks.
    wires: Vec<Lowered>,
    /// One per peripheral: where its outputs can move.
    moves: Vec<MovePoints>,
    /// The wires leaving the clock, main, any peripheral, and the
    /// peripherals that sample at `end_step`.
    clock_out: u64,
    main_out: u64,
    peripheral_out: u64,
    sampler_out: u64,
    /// One per peripheral: the wires leaving it.
    out: Vec<u64>,
    marks: Marks,
}

/// The walk's state between two passes, as [`Plan`] keeps it. An iteration
/// works on a copy, so that it lives in registers.
#[derive(Clone, Copy, Default)]
struct Marks {
    dirty: u64,
    peek: u64,
    high: u64,
    /// This iteration's polls and reads, for [`Counts`].
    polls: u64,
    reads: u64,
}

impl Plan {
    /// Lowers the plane when it has the batch's shape.
    pub(crate) fn lower(
        slots: &mut [Slot],
        wires: &[ResolvedWire],
        clock: usize,
        main: Option<usize>,
    ) -> Option<Plan> {
        let main = main?;
        if clock != 0 || main + 1 != slots.len() || wires.len() > 64 {
            return None;
        }
        let (slots, main_slot) = slots.split_at_mut(main);
        let sw = main_slot[0].engine.software()?;
        let mut moves = Vec::new();
        for slot in &mut slots[1..] {
            moves.push(slot.engine.peripheral()?.outputs_move());
        }
        let mut out = vec![0u64; main + 1];
        for (k, w) in wires.iter().enumerate() {
            out[w.from.slot] |= 1 << k;
        }
        let end = |slot: usize| match slot {
            0 => End::Clock,
            s if s == main => End::Main,
            s => End::Peripheral(s - 1),
        };
        let mut lowered = Vec::with_capacity(wires.len());
        for w in wires {
            let (from, to) = (end(w.from.slot), end(w.to.slot));
            let from_var = matches!(from, End::Main)
                .then(|| sw.var(w.from.port))
                .flatten();
            let clock_var = matches!((from, to), (End::Clock, End::Main))
                .then(|| sw.input_var(w.to.port))
                .flatten();
            let moves_target = match to {
                End::Clock => false,
                End::Main => true,
                End::Peripheral(_) => slots[w.to.slot]
                    .engine
                    .peripheral()?
                    .read_moves_outputs(w.to.port),
            };
            lowered.push(Lowered {
                from,
                to,
                from_var,
                clock_var,
                target_out: out[w.to.slot],
                moves_target,
            });
        }
        let peripheral_out = out[1..main].iter().fold(0, |a, o| a | o);
        let sampler_out = out[1..main]
            .iter()
            .zip(&moves)
            .filter(|(_, m)| m.end_step)
            .fold(0, |a, (o, _)| a | o);
        Some(Plan {
            wires: lowered,
            clock_out: out[0],
            main_out: out[main],
            peripheral_out,
            sampler_out,
            out: out[1..main].to_vec(),
            moves,
            marks: Marks::default(),
        })
    }

    /// Takes the plane over from the walk: a wire is dirty where the walk
    /// would poll it, and every dirty wire is peeked (where the walk left a
    /// wire clean, its `last` is its source's output) — but a wire out of a
    /// peripheral that samples at `end_step` is first peeked after that
    /// `end_step`, where the walk polls it. Returns `false`, taking nothing
    /// over, while a clock wire has never been polled.
    pub(crate) fn begin(&mut self, slots: &[Slot], wires: &[ResolvedWire]) -> bool {
        let (mut dirty, mut high) = (0, 0);
        for (k, (w, l)) in wires.iter().zip(&self.wires).enumerate() {
            let bit = 1 << k;
            if w.seen != slots[w.from.slot].gen {
                dirty |= bit;
            }
            if let End::Clock = l.from {
                match &w.last {
                    Some(level) if level.to_bool() => high |= bit,
                    Some(_) => {}
                    None => return false,
                }
            }
        }
        self.marks = Marks {
            dirty,
            peek: dirty & !self.sampler_out,
            high,
            ..Marks::default()
        };
        true
    }

    /// Hands the plane back: a dirty wire has not seen its source's
    /// generation, a clean one has, and a clock wire's `last` is its bit.
    pub(crate) fn end(&mut self, slots: &[Slot], wires: &mut [ResolvedWire]) {
        let m = self.marks;
        for (k, (w, l)) in wires.iter_mut().zip(&self.wires).enumerate() {
            let bit = 1 << k;
            w.seen = match m.dirty & bit {
                0 => slots[w.from.slot].gen,
                _ => 0,
            };
            if let End::Clock = l.from {
                w.last = Some(Bits::from_bool(m.high & bit != 0));
            }
        }
    }

    /// One scheduler iteration of the lowered plane, between
    /// [`Plan::begin`] and [`Plan::end`], charged to `wall` as the walk's
    /// `charge_costs` and `runtime_iteration_ns` would be. Returns whether
    /// main has tasks for the runtime to collect.
    ///
    /// # Errors
    ///
    /// An engine fault, with the iteration left where the walk's would
    /// have stopped.
    pub(crate) fn iteration(
        &mut self,
        slots: &mut [Slot],
        wires: &mut [ResolvedWire],
        counts: &mut Counts,
        wall: &mut VirtualWall,
        costs: &CostModel,
    ) -> Result<bool, EngineError> {
        let (clock, rest) = slots.split_first_mut().expect("a lowered plane");
        let (main, periphs) = rest.split_last_mut().expect("a lowered plane");
        let (SlotEngine::Clock(clock), SlotEngine::Software(sw)) =
            (&mut clock.engine, &mut main.engine)
        else {
            unreachable!("a lowered plane's clock and main");
        };
        let mut v = View { clock, sw, periphs };
        let mut m = Marks {
            polls: 0,
            reads: 0,
            ..self.marks
        };
        let walked = self.walk(&mut v, &mut m, wires);
        self.marks = m;
        counts.polls += m.polls;
        counts.reads += m.reads;
        walked?;
        for i in 0..v.periphs.len() {
            wall.advance_ns(v.periph(i).take_cost_ns(costs));
        }
        wall.advance_ns(v.sw.take_cost_ns(costs));
        wall.advance_ns(costs.runtime_iteration_ns);
        Ok(v.sw.has_tasks())
    }

    /// The engine calls and passes of [`Plan::iteration`].
    #[inline(always)]
    fn walk(
        &self,
        v: &mut View<'_>,
        m: &mut Marks,
        wires: &mut [ResolvedWire],
    ) -> Result<(), EngineError> {
        v.clock.end_step();
        for i in 0..v.periphs.len() {
            v.periph(i).end_step();
        }
        m.dirty |= self.peripheral_out;
        m.peek |= self.sampler_out;
        v.sw.end_step();
        // The walk's rounds with one pass site: a pass follows `end_step`,
        // each evaluation round and each update round; a pass that moves
        // nothing after an evaluation round that found nothing to evaluate
        // ends the evaluation rounds.
        let (mut evals, mut settling) = (false, false);
        loop {
            let moved = self.pass(v, m, wires);
            if settling && !moved && !evals {
                if !self.update_round(v, m)? {
                    return Ok(());
                }
                (evals, settling) = (false, false);
                continue;
            }
            evals = v.sw.there_are_evals();
            if evals {
                v.sw.evaluate()?;
                m.dirty |= self.main_out;
                m.peek |= self.main_out;
            }
            settling = true;
        }
    }

    /// One update round, in slot order: the clock, each peripheral with an
    /// edge pending, main. Returns whether anything updated.
    #[inline(always)]
    fn update_round(&self, v: &mut View<'_>, m: &mut Marks) -> Result<bool, EngineError> {
        let mut updated = false;
        if v.clock.there_are_updates() {
            v.clock.update()?;
            m.dirty |= self.clock_out;
            m.peek |= self.clock_out;
            updated = true;
        }
        for i in 0..v.periphs.len() {
            let p = v.periph(i);
            if p.there_are_updates() {
                p.update()?;
                m.dirty |= self.out[i];
                if self.moves[i].posedge {
                    m.peek |= self.out[i];
                }
                updated = true;
            }
        }
        if v.sw.there_are_updates() {
            v.sw.update()?;
            m.dirty |= self.main_out;
            m.peek |= self.main_out;
            updated = true;
        }
        Ok(updated)
    }

    /// [`propagate`] on the lowered plane: the dirty wires in wiring order,
    /// including those a `read` in this pass dirties further on.
    #[inline(always)]
    fn pass(&self, v: &mut View<'_>, m: &mut Marks, wires: &mut [ResolvedWire]) -> bool {
        let mut moved = false;
        let mut todo = m.dirty;
        while todo != 0 {
            let k = todo.trailing_zeros();
            let bit = 1 << k;
            todo &= !bit;
            let peek = m.peek & bit != 0;
            m.dirty &= !bit;
            m.peek &= !bit;
            m.polls += 1;
            let (w, l) = (&mut wires[k as usize], &self.wires[k as usize]);
            if let End::Clock = l.from {
                let level = v.clock.level();
                if (m.high & bit != 0) == level {
                    continue;
                }
                m.high ^= bit;
                match l.to {
                    End::Main => {
                        if let Some(var) = l.clock_var {
                            v.sw.drive_clock(var, level);
                        }
                    }
                    End::Peripheral(i) => v.periph(i).clock(level),
                    End::Clock => {}
                }
            } else {
                if !peek {
                    debug_assert_eq!(
                        Some(v.output(l.from, w.from.port)),
                        w.last,
                        "{} moved at a point its peripheral does not declare",
                        w.from.name,
                    );
                    continue;
                }
                let value = match l.from {
                    End::Main => v.sw.peek(l.from_var),
                    _ => v.output(l.from, w.from.port),
                };
                if w.last.as_ref() == Some(&value) {
                    continue;
                }
                match l.to {
                    End::Clock => v.clock.read(w.to.port, &value),
                    End::Main => v.sw.read(w.to.port, &value),
                    End::Peripheral(i) => v.periph(i).read(w.to.port, &value),
                }
                w.last = Some(value);
            }
            m.dirty |= l.target_out;
            // The wires after this one are still to come in this pass.
            todo |= l.target_out & (!1 << k);
            if l.moves_target {
                m.peek |= l.target_out;
            }
            m.reads += 1;
            moved = true;
        }
        #[cfg(debug_assertions)]
        self.check_clean(v, m, wires);
        moved
    }

    /// The walk's self-check: a wire left clean is up to date.
    #[cfg(debug_assertions)]
    fn check_clean(&self, v: &mut View<'_>, m: &Marks, wires: &[ResolvedWire]) {
        for (k, (w, l)) in wires.iter().zip(&self.wires).enumerate() {
            let bit = 1 << k;
            if m.dirty & bit != 0 {
                continue;
            }
            let last = match l.from {
                End::Clock => Some(Bits::from_bool(m.high & bit != 0)),
                _ => w.last.clone(),
            };
            debug_assert_eq!(
                Some(v.output(l.from, w.from.port)),
                last,
                "stale wire {} -> {}: a bump site is missing",
                w.from.name,
                w.to.name,
            );
        }
    }
}

/// A lowered plane's engines, as the batch calls them.
struct View<'a> {
    clock: &'a mut ClockEngine,
    sw: &'a mut SwEngine,
    periphs: &'a mut [Slot],
}

impl View<'_> {
    fn periph(&mut self, i: usize) -> &mut PeripheralEngine {
        match &mut self.periphs[i].engine {
            SlotEngine::Peripheral(p) => p,
            _ => unreachable!("a lowered plane's peripheral"),
        }
    }

    fn output(&mut self, end: End, port: PortId) -> Bits {
        match end {
            End::Clock => self.clock.output(port),
            End::Main => self.sw.output(port),
            End::Peripheral(i) => self.periph(i).output(port),
        }
    }
}
