//! The differential runner: one generated design, every engine, cycle-by-
//! cycle transcript equality.
//!
//! A design is driven through five independent execution paths —
//!
//! 1. the tree-walking event [`Simulator`] (the oracle),
//! 2. the bytecode-compiled [`CompiledSim`],
//! 3. the interpretive netlist walker [`ReferenceSim`],
//! 4. the compiled word-arena [`NetlistSim`] (peephole passes on), and
//! 5. lane 0 of a [`BatchHarness`] (lane-group batch kernels, with the
//!    other lanes fed *different* stimulus so per-lane commit-skip masks
//!    and task routing are live)
//!
//! — with identical per-cycle input vectors derived from the spec's
//! stimulus seed. Every cycle compares output values, rendered
//! `$display`/`$finish` task text, and the finish flag. The first
//! mismatch is returned as a structured [`Divergence`]; agreement returns
//! the coverage observations the fuzzer feeds back into generation.

use crate::spec::DesignSpec;
use cascade_bits::{Bits, Prng};
use cascade_netlist::{synthesize, BatchHarness, NetlistSim, ReferenceSim, TaskKind};
use cascade_sim::{elaborate, library_from_source, CompiledSim, SimEvent, Simulator};
use std::sync::Arc;

/// Which engine a transcript (or a divergence) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineId {
    TreeWalker,
    CompiledSim,
    ReferenceNetlist,
    NetlistSim,
    BatchLane0,
}

impl EngineId {
    /// Engines compared against the tree-walker oracle.
    pub const CHECKED: [EngineId; 4] = [
        EngineId::CompiledSim,
        EngineId::ReferenceNetlist,
        EngineId::NetlistSim,
        EngineId::BatchLane0,
    ];

    /// Short stable name used in reports and corpus file names.
    pub fn name(self) -> &'static str {
        match self {
            EngineId::TreeWalker => "sim",
            EngineId::CompiledSim => "swc",
            EngineId::ReferenceNetlist => "refnl",
            EngineId::NetlistSim => "netlist",
            EngineId::BatchLane0 => "batch0",
        }
    }
}

/// What diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivKind {
    Output,
    Tasks,
    Finish,
}

/// A cycle-accurate mismatch between one engine and the oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub engine: EngineId,
    pub kind: DivKind,
    pub cycle: u32,
    /// Human-readable `expected vs got` detail.
    pub detail: String,
}

impl Divergence {
    /// The class key used to decide whether a shrunk candidate still
    /// reproduces "the same" bug.
    pub fn class(&self) -> (EngineId, DivKind) {
        (self.engine, self.kind)
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (engine, kind) = (self.engine.name(), self.kind);
        write!(f, "engine={engine} kind={kind:?} cycle={} ", self.cycle)?;
        write!(f, "detail={}", self.detail)
    }
}

/// Differential-run configuration.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Batch harness width (lane 0 is compared; ≥2 keeps other lanes
    /// live on divergent stimulus). 0 disables the batch engine.
    pub batch_lanes: u32,
    /// Collect per-kernel / per-opcode coverage observations.
    pub profile: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            batch_lanes: 2,
            profile: true,
        }
    }
}

/// Result of one differential run.
#[derive(Debug)]
pub enum DiffOutcome {
    /// All engines agreed for the full stimulus.
    Agree {
        cycles_run: u32,
        /// `(key, count)` coverage observations for the feedback loop.
        coverage: Vec<(String, u64)>,
    },
    /// An engine disagreed with the oracle.
    Diverged(Divergence),
    /// The design could not be taken through every engine (synthesis
    /// rejected it, elaboration failed, ...). Not a bug by itself; the
    /// fuzzer tracks the skip rate.
    Skipped(String),
}

/// One engine's observation of one cycle.
#[derive(Debug, Clone, PartialEq)]
struct CycleObs {
    outs: Vec<Bits>,
    tasks: Vec<String>,
    finished: bool,
}

fn render_events(events: Vec<SimEvent>) -> Vec<String> {
    events
        .into_iter()
        .map(|e| match e {
            SimEvent::Display(s) | SimEvent::Write(s) | SimEvent::Fatal(s) => s,
            SimEvent::Finish => "$finish".into(),
        })
        .collect()
}

fn render_fires(fires: Vec<cascade_netlist::TaskFire>) -> Vec<String> {
    fires
        .into_iter()
        .map(|f| match f.kind {
            TaskKind::Finish => "$finish".into(),
            _ => f.text,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Seeded-bug hook: mutation testing for the verifier itself.
// ---------------------------------------------------------------------

/// An artificial engine bug injected at the observation layer, used by the
/// test suite to prove the fuzzer *finds* divergences and the shrinker
/// reduces them. Compiled only under `cfg(test)`.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub enum SeededBug {
    /// XOR the first output of `engine` with `mask` on every cycle.
    CorruptOutput { engine: EngineId, mask: u64 },
    /// Suppress `engine`'s task stream (divergence only surfaces when a
    /// `$display`/`$finish` actually fires — spec-dependent).
    DropTasks { engine: EngineId },
    /// Report `engine` finished from cycle `at` onward (divergence only
    /// surfaces on runs that reach `at`).
    EarlyFinish { engine: EngineId, at: u32 },
}

#[cfg(test)]
thread_local! {
    static SEEDED_BUG: std::cell::Cell<Option<SeededBug>> =
        const { std::cell::Cell::new(None) };
}

/// Installs (or clears) the seeded bug for this thread.
#[cfg(test)]
pub fn set_seeded_bug(bug: Option<SeededBug>) {
    SEEDED_BUG.with(|b| b.set(bug));
}

#[cfg(test)]
fn apply_seeded_bug(engine: EngineId, cycle: u32, obs: &mut CycleObs) {
    let Some(bug) = SEEDED_BUG.with(|b| b.get()) else {
        return;
    };
    match bug {
        SeededBug::CorruptOutput { engine: e, mask } if e == engine => {
            if let Some(first) = obs.outs.first_mut() {
                let w = first.width();
                *first = Bits::from_u64(w, first.to_u64() ^ (mask & ((1u64 << w.min(63)) - 1)));
            }
        }
        SeededBug::DropTasks { engine: e } if e == engine => obs.tasks.clear(),
        SeededBug::EarlyFinish { engine: e, at } if e == engine && cycle >= at => {
            obs.finished = true;
        }
        _ => {}
    }
}

#[cfg(not(test))]
fn apply_seeded_bug(_engine: EngineId, _cycle: u32, _obs: &mut CycleObs) {}

// ---------------------------------------------------------------------
// The runner.
// ---------------------------------------------------------------------

/// Runs `spec` differentially across every engine. See the module docs
/// for the exact engine set and comparison contract.
pub fn run_differential(spec: &DesignSpec, cfg: &DiffConfig) -> DiffOutcome {
    let out = run_differential_src(
        &spec.render(),
        &spec.outputs(),
        spec.cycles,
        spec.stim_seed,
        cfg,
    );
    match out {
        DiffOutcome::Agree {
            cycles_run,
            mut coverage,
        } => {
            if cfg.profile {
                for feature in spec.features() {
                    coverage.push((feature, 1));
                }
            }
            DiffOutcome::Agree {
                cycles_run,
                coverage,
            }
        }
        other => other,
    }
}

/// Source-level entry point: drives Verilog text (top module `T`) through
/// every engine with stimulus derived from `stim_seed`. Used directly by
/// the corpus replayer, which has a `.v` file rather than a spec.
pub fn run_differential_src(
    src: &str,
    outs: &[String],
    cycles: u32,
    stim_seed: u64,
    cfg: &DiffConfig,
) -> DiffOutcome {
    let lib = match library_from_source(src) {
        Ok(l) => l,
        Err(e) => return DiffOutcome::Skipped(format!("parse: {e:?}")),
    };
    let design = match elaborate("T", &lib, &Default::default()) {
        Ok(d) => Arc::new(d),
        Err(e) => return DiffOutcome::Skipped(format!("elaborate: {e:?}")),
    };
    let nl = match synthesize(&design) {
        Ok(n) => Arc::new(n),
        Err(e) => return DiffOutcome::Skipped(format!("synthesize: {e}")),
    };

    // --- construct engines -------------------------------------------
    let mut sim = Simulator::new(Arc::clone(&design));
    if sim.initialize().is_err() {
        return DiffOutcome::Skipped("oracle initialize failed".into());
    }
    let mut swc = CompiledSim::new(Arc::clone(&design));
    if cfg.profile {
        swc.enable_profiling();
    }
    if swc.initialize().is_err() {
        return DiffOutcome::Skipped("compiled-sim initialize failed".into());
    }
    let mut init_oracle = CycleObs {
        outs: Vec::new(),
        tasks: render_events(sim.drain_events()),
        finished: sim.is_finished(),
    };
    let mut init_swc = CycleObs {
        outs: Vec::new(),
        tasks: render_events(swc.drain_events()),
        finished: swc.is_finished(),
    };
    apply_seeded_bug(EngineId::TreeWalker, 0, &mut init_oracle);
    apply_seeded_bug(EngineId::CompiledSim, 0, &mut init_swc);
    if init_oracle != init_swc {
        return DiffOutcome::Diverged(Divergence {
            engine: EngineId::CompiledSim,
            kind: DivKind::Tasks,
            cycle: 0,
            detail: format!(
                "init events {:?} vs {:?}",
                init_oracle.tasks, init_swc.tasks
            ),
        });
    }

    let mut refnl = match ReferenceSim::new(Arc::clone(&nl)) {
        Ok(s) => s,
        Err(e) => return DiffOutcome::Skipped(format!("levelize: {e:?}")),
    };
    let mut hw = NetlistSim::new(Arc::clone(&nl)).expect("levelize agreed with ReferenceSim");
    if cfg.profile {
        hw.enable_profiling();
    }
    let mut batch = if cfg.batch_lanes >= 1 {
        Some(BatchHarness::new(Arc::clone(&nl), cfg.batch_lanes.max(2)).expect("levelize"))
    } else {
        None
    };

    let mut stim = Prng::new(stim_seed);
    let mut alt = Prng::new(stim_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut coverage: Vec<(String, u64)> = Vec::new();
    let mut cycles_run = 0u32;

    for cycle in 0..cycles {
        if sim.is_finished() {
            break;
        }
        let a = Bits::from_u64(16, stim.next_u64() & 0xffff);
        let b = Bits::from_u64(16, stim.next_u64() & 0xffff);

        // Oracle: poke, settle, tick, observe.
        sim.poke("a", a.clone());
        sim.poke("b", b.clone());
        if sim.settle().is_err() {
            return DiffOutcome::Skipped("oracle settle failed".into());
        }
        if sim.tick("clk").is_err() {
            return DiffOutcome::Skipped("oracle tick failed".into());
        }
        let mut oracle_obs = CycleObs {
            outs: outs.iter().map(|o| sim.peek(o)).collect(),
            tasks: render_events(sim.drain_events()),
            finished: sim.is_finished(),
        };
        apply_seeded_bug(EngineId::TreeWalker, cycle, &mut oracle_obs);

        // Each checked engine produces its own observation of the cycle.
        let check = |engine: EngineId, mut obs: CycleObs| -> Option<Divergence> {
            apply_seeded_bug(engine, cycle, &mut obs);
            if obs.outs != oracle_obs.outs {
                let i = obs
                    .outs
                    .iter()
                    .zip(&oracle_obs.outs)
                    .position(|(g, e)| g != e)
                    .unwrap_or(0);
                return Some(Divergence {
                    engine,
                    kind: DivKind::Output,
                    cycle,
                    detail: format!(
                        "{}: oracle {} vs {}",
                        outs.get(i).map(String::as_str).unwrap_or("?"),
                        oracle_obs.outs.get(i).map(|b| b.to_u64()).unwrap_or(0),
                        obs.outs.get(i).map(|b| b.to_u64()).unwrap_or(0),
                    ),
                });
            }
            if obs.tasks != oracle_obs.tasks {
                return Some(Divergence {
                    engine,
                    kind: DivKind::Tasks,
                    cycle,
                    detail: format!("oracle {:?} vs {:?}", oracle_obs.tasks, obs.tasks),
                });
            }
            if obs.finished != oracle_obs.finished {
                return Some(Divergence {
                    engine,
                    kind: DivKind::Finish,
                    cycle,
                    detail: format!(
                        "oracle finished={} vs {}",
                        oracle_obs.finished, obs.finished
                    ),
                });
            }
            None
        };

        // Bytecode-compiled software engine. Settle before the edge, as
        // the oracle does: `tick` raises clk and settles once, so without
        // it the pending comb activations from the pokes race the edge
        // processes — a multi-level assign chain feeding a clocked reg
        // loses that race and captures a stale value (found by this very
        // harness fuzzing itself: the oracle was settled, swc was not).
        swc.poke("a", a.clone());
        swc.poke("b", b.clone());
        if swc.settle().is_err() {
            return DiffOutcome::Skipped("compiled-sim settle failed".into());
        }
        if swc.tick("clk").is_err() {
            return DiffOutcome::Skipped("compiled-sim tick failed".into());
        }
        let obs = CycleObs {
            outs: outs.iter().map(|o| swc.peek(o)).collect(),
            tasks: render_events(swc.drain_events()),
            finished: swc.is_finished(),
        };
        if let Some(d) = check(EngineId::CompiledSim, obs) {
            return DiffOutcome::Diverged(d);
        }

        // Interpretive netlist walker.
        refnl.set_by_name("a", a.clone());
        refnl.set_by_name("b", b.clone());
        refnl.step_clock(0);
        let obs = CycleObs {
            outs: outs
                .iter()
                .map(|o| refnl.get_by_name(o).unwrap_or_else(|| Bits::zero(16)))
                .collect(),
            tasks: render_fires(refnl.drain_tasks()),
            finished: refnl.is_finished(),
        };
        if let Some(d) = check(EngineId::ReferenceNetlist, obs) {
            return DiffOutcome::Diverged(d);
        }

        // Compiled word-arena evaluator.
        hw.set_by_name("a", a.clone());
        hw.set_by_name("b", b.clone());
        hw.step_clock(0);
        let obs = CycleObs {
            outs: outs
                .iter()
                .map(|o| hw.get_by_name(o).unwrap_or_else(|| Bits::zero(16)))
                .collect(),
            tasks: render_fires(hw.drain_tasks()),
            finished: hw.is_finished(),
        };
        if let Some(d) = check(EngineId::NetlistSim, obs) {
            return DiffOutcome::Diverged(d);
        }

        // Batch harness, lane 0 (other lanes on independent stimulus).
        if let Some(batch) = batch.as_mut() {
            batch.set_lane_by_name("a", 0, a.clone());
            batch.set_lane_by_name("b", 0, b.clone());
            for lane in 1..batch.lanes() {
                batch.set_lane_by_name("a", lane, Bits::from_u64(16, alt.next_u64() & 0xffff));
                batch.set_lane_by_name("b", lane, Bits::from_u64(16, alt.next_u64() & 0xffff));
            }
            batch.step_clock(0);
            let tasks: Vec<String> = render_fires(
                batch
                    .drain_tasks()
                    .into_iter()
                    .filter(|(lane, _)| *lane == 0)
                    .map(|(_, f)| f)
                    .collect(),
            );
            let obs = CycleObs {
                outs: outs
                    .iter()
                    .map(|o| {
                        batch
                            .get_lane_by_name(o, 0)
                            .unwrap_or_else(|| Bits::zero(16))
                    })
                    .collect(),
                tasks,
                finished: batch.is_finished(0),
            };
            if let Some(d) = check(EngineId::BatchLane0, obs) {
                return DiffOutcome::Diverged(d);
            }
        }

        cycles_run += 1;
    }

    // --- coverage -----------------------------------------------------
    if cfg.profile {
        if let Some(report) = hw.profile_report() {
            for (kernel, count) in report.kernels {
                coverage.push((format!("nl:{kernel}"), count));
            }
            for (level, count) in report.levels {
                coverage.push((format!("lvl:{level}"), count));
            }
        }
        if let Some(report) = swc.profile_report() {
            for (op, count) in report.opcodes {
                coverage.push((format!("sw:{op}"), count));
            }
        }
    }

    DiffOutcome::Agree {
        cycles_run,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generated specs agree across all five engines (when they didn't,
    /// that was a real engine bug — this is the fuzzer's core check).
    #[test]
    fn generated_specs_agree_across_engines() {
        let cfg = DiffConfig::default();
        let mut agreed = 0;
        for seed in 0..48 {
            let mut rng = Prng::new(seed + 9000);
            let spec = DesignSpec::generate(&mut rng);
            match run_differential(&spec, &cfg) {
                DiffOutcome::Agree { .. } => agreed += 1,
                DiffOutcome::Diverged(d) => panic!(
                    "seed {seed} diverged on {} ({:?}) at cycle {}: {}\n{}",
                    d.engine.name(),
                    d.kind,
                    d.cycle,
                    d.detail,
                    spec.render()
                ),
                DiffOutcome::Skipped(_) => {}
            }
        }
        assert!(agreed >= 40, "only {agreed}/48 specs ran to agreement");
    }

    /// The seeded-bug hook produces a detectable divergence of the right
    /// class, and clearing it restores agreement.
    #[test]
    fn seeded_bug_is_detected_and_clearable() {
        let cfg = DiffConfig::default();
        let mut rng = Prng::new(42);
        let spec = loop {
            let s = DesignSpec::generate(&mut rng);
            if matches!(run_differential(&s, &cfg), DiffOutcome::Agree { .. }) {
                break s;
            }
        };
        set_seeded_bug(Some(SeededBug::CorruptOutput {
            engine: EngineId::NetlistSim,
            mask: 1,
        }));
        let out = run_differential(&spec, &cfg);
        set_seeded_bug(None);
        match out {
            DiffOutcome::Diverged(d) => {
                assert_eq!(d.engine, EngineId::NetlistSim);
                assert_eq!(d.kind, DivKind::Output);
            }
            other => panic!("seeded bug not detected: {other:?}"),
        }
        assert!(matches!(
            run_differential(&spec, &cfg),
            DiffOutcome::Agree { .. }
        ));
    }
}
