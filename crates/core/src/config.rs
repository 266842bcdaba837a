//! Runtime configuration: the JIT policy knobs and platform models.

use cascade_fpga::{CostModel, Device, FaultPlan, Toolchain};
use cascade_trace::TraceSink;

/// Cascade's optimization policy (paper Sec. 4). Every stage can be toggled
/// independently — the ablation benchmarks exercise exactly these switches.
#[derive(Debug, Clone)]
pub struct JitConfig {
    /// Inline user logic into a single subprogram (Sec. 4.2, Fig. 9.2).
    pub inline: bool,
    /// Absorb standard-library components into the hardware engine so it
    /// answers ABI requests on their behalf (Sec. 4.3, Fig. 9.4).
    pub forwarding: bool,
    /// Allow open-loop scheduling of hardware and native engines (Sec. 4.4,
    /// Fig. 9.5). A software engine has no open loop and is charged the
    /// scheduler's walk either way.
    pub open_loop: bool,
    /// Start background hardware compilations automatically.
    pub auto_compile: bool,
    /// Bytecode-compile software engines (the tree-walking interpreter is
    /// kept as the semantic oracle and ablation baseline).
    pub sw_compile: bool,
    /// Target modeled time between open-loop control returns, in seconds
    /// (the adaptive profiler aims here; paper: "a small number of
    /// seconds").
    pub open_loop_target_s: f64,
    /// The virtual toolchain used for background compilation.
    pub toolchain: Toolchain,
    /// Modeled per-operation costs.
    pub costs: CostModel,
    /// Width of the implicit button pad.
    pub pad_width: u32,
    /// Width of the implicit LED bank.
    pub led_width: u32,
    /// Bound on the bitstream compile cache (entries, LRU-evicted). Only
    /// used for the runtime's private cache; a shared
    /// [`CompilePool`](crate::CompilePool) brings its own bound.
    pub bitstream_cache_capacity: usize,
    /// Deterministic fault schedule injected into the toolchain, fabric,
    /// and workers. Inactive by default.
    pub faults: FaultPlan,
    /// How many times a transiently-failed compilation (fault, hang,
    /// worker panic) is retried before the failure surfaces. Terminal
    /// design errors are never retried.
    pub compile_max_retries: u32,
    /// Base of the exponential retry backoff, in *modeled* seconds
    /// (scaled by the toolchain's `time_scale` like compile latency).
    pub compile_backoff_s: f64,
    /// Modeled watchdog deadline for one toolchain run: a compile that
    /// has not surfaced an outcome this long after submission is
    /// cancelled as hung and retried. Must exceed the modeled compile
    /// latency of legitimate designs (defaults leave ~5× headroom).
    /// `0` disables the watchdog.
    pub compile_watchdog_s: f64,
    /// While a hardware engine runs the main program, verify its
    /// configuration by readback scrubbing every this many ticks;
    /// user-visible output produced between scrubs is quarantined until
    /// the scrub validates the window. `0` disables scrubbing (hardware
    /// output is trusted immediately, as in the paper's fault-free
    /// model).
    pub scrub_interval_ticks: u64,
    /// Take a recovery checkpoint of the software engines at least every
    /// this many ticks (hardware windows checkpoint at scrub boundaries
    /// instead). `0` disables periodic checkpoints.
    pub checkpoint_interval_ticks: u64,
    /// Where JIT lifecycle spans and events are recorded. The default is
    /// a disabled sink (zero recording cost); clones of one enabled sink
    /// share a single ring buffer, so a server can trace every session
    /// into one timeline. See [`cascade_trace::TraceSink`].
    pub trace: TraceSink,
}

impl Default for JitConfig {
    fn default() -> Self {
        JitConfig {
            inline: true,
            forwarding: true,
            open_loop: true,
            auto_compile: true,
            sw_compile: true,
            open_loop_target_s: 1.0,
            toolchain: Toolchain::new(Device::cyclone_v()),
            costs: CostModel::default(),
            pad_width: 4,
            led_width: 8,
            bitstream_cache_capacity: crate::compiler::DEFAULT_BITSTREAM_CACHE_CAPACITY,
            faults: FaultPlan::none(),
            compile_max_retries: 3,
            compile_backoff_s: 30.0,
            compile_watchdog_s: 3600.0,
            scrub_interval_ticks: 4096,
            checkpoint_interval_ticks: 4096,
            trace: TraceSink::disabled(),
        }
    }
}

impl JitConfig {
    /// A configuration with every JIT optimization disabled — the
    /// interpreter-only baseline.
    pub fn interpreter_only() -> Self {
        JitConfig {
            inline: false,
            forwarding: false,
            open_loop: false,
            auto_compile: false,
            ..JitConfig::default()
        }
    }

    /// Disables one stage by name (used by the ablation harness).
    pub fn without(mut self, stage: &str) -> Self {
        match stage {
            "inline" => self.inline = false,
            "forwarding" => self.forwarding = false,
            "open_loop" => self.open_loop = false,
            "auto_compile" => self.auto_compile = false,
            "sw_compile" => self.sw_compile = false,
            other => panic!("unknown JIT stage `{other}`"),
        }
        self
    }
}
