//! `cascade-verify` — the correctness-tooling layer of Cascade-rs.
//!
//! Four execution engines (the tree-walking event simulator, the
//! bytecode-compiled software engine, the interpretive netlist walker and
//! the compiled word-arena evaluator) plus the batch variant must agree
//! cycle by cycle on every synthesizable design, and the serving stack
//! must keep that promise across faults and crashes. Four campaigns
//! check it, each an instance of one engine ([`campaign`]: generate →
//! run → check → shrink):
//!
//! 1. **Differential fuzzing** ([`fuzz`]): coverage-guided ([`coverage`])
//!    [`spec::DesignSpec`]s run across every engine ([`diff`]); a
//!    divergence shrinks ([`shrink`](mod@shrink)) to a minimal `.v` repro.
//! 2. **Bounded equivalence checking** ([`bmc`]): each design's raw and
//!    optimized netlists, unrolled K cycles and proven equivalent by an
//!    in-tree CDCL core ([`sat`]).
//! 3. **Chaos soak** ([`soak`]): tenant scripts ([`script`]) replayed
//!    under [`FaultPlan::random`] across scheduler/fleet/hibernation
//!    configs against a solo oracle; a failing batch shrinks to a short
//!    script.
//! 4. **Crash-point fuzzing** ([`crash`]): a tenant script crashed and
//!    recovered at every durable write point against a never-crashed
//!    oracle.
//!
//! The `verify` binary runs each, plus `verify replay` of the corpus; see
//! the README's "Proving it correct" quickstart.
//!
//! [`FaultPlan::random`]: cascade_fpga::FaultPlan::random

pub mod bmc;
pub mod campaign;
pub mod coverage;
pub mod crash;
pub mod diff;
pub mod fuzz;
pub mod sat;
pub mod script;
pub mod shrink;
pub mod soak;
pub mod spec;

pub use bmc::{check_equiv, Bmc, BmcResult, BmcStats};
pub use campaign::{shrink, Campaign};
pub use coverage::CoverageMap;
pub use crash::{run_crash, Crash, CrashConfig, CrashReport};
pub use diff::{run_differential, DiffConfig, DiffOutcome, Divergence, EngineId};
pub use fuzz::{FuzzConfig, FuzzStats, Fuzzer};
pub use soak::{run_soak, Soak, SoakConfig, SoakReport};
pub use spec::DesignSpec;
