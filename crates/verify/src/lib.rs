//! `cascade-verify` — the correctness-tooling layer of Cascade-rs.
//!
//! The repo's rare asset is redundancy: four execution engines (the
//! tree-walking event simulator, the bytecode-compiled software engine,
//! the interpretive netlist walker, and the compiled word-arena evaluator)
//! plus the batch variant must all agree cycle-by-cycle on
//! every synthesizable design. This crate industrializes that oracle into
//! three pillars:
//!
//! 1. **Coverage-guided differential fuzzing** ([`fuzz`]): a seeded
//!    [`spec::DesignSpec`] generator with mutation operators, driven by a
//!    feedback loop over the per-kernel / per-opcode profile histograms
//!    ([`coverage`]); every candidate runs across all engines
//!    ([`diff`]) and any divergence is delta-debugged to a minimal
//!    reproducing `.v` file ([`shrink()`]).
//! 2. **Bounded sequential equivalence checking** ([`bmc`]): two
//!    synthesized netlists are unrolled K cycles into CNF and proven
//!    equivalent (or a counterexample extracted) by an in-tree CDCL SAT
//!    core — turning the post-synthesis optimizer from "property-tested"
//!    into "checked per design".
//! 3. **Chaos soak testing** ([`soak`]): thousands of generated
//!    serve-session scripts replay under [`FaultPlan::random`] across
//!    scheduler/fleet/hibernation configs, asserting trace-derived
//!    invariants — no lost ticks, transcript byte-identity against a
//!    never-faulted solo oracle, monotone metrics counters, lease
//!    accounting sanity.
//! 4. **Crash-point fuzzing** ([`crash`]): a deterministic serve script
//!    is crashed and recovered at *every* durable write point (torn
//!    write, partial write, lost fsync, die-before-write), asserting no
//!    acknowledged tick is lost, transcripts stay byte-identical to a
//!    never-crashed oracle, retried commands execute exactly once, and
//!    graceful drain/restart keeps counters monotone.
//!
//! The `verify` binary exposes all four (`verify fuzz`, `verify bmc`,
//! `verify soak`, `verify crash`, `verify replay`); see the README's
//! "Proving it correct" quickstart.
//!
//! [`FaultPlan::random`]: cascade_fpga::FaultPlan::random

pub mod bmc;
pub mod coverage;
pub mod crash;
pub mod diff;
pub mod fuzz;
pub mod sat;
pub mod shrink;
pub mod soak;
pub mod spec;

pub use bmc::{check_equiv, check_equiv_budget, BmcResult, BmcStats};
pub use coverage::CoverageMap;
pub use crash::{run_crash, CrashConfig, CrashReport};
pub use diff::{run_differential, DiffConfig, DiffOutcome, Divergence, EngineId};
pub use fuzz::{FuzzConfig, FuzzStats, Fuzzer};
pub use shrink::shrink;
pub use soak::{run_soak, SoakConfig, SoakReport};
pub use spec::DesignSpec;
