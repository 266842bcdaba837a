//! The coverage-guided fuzzing loop.
//!
//! Classic corpus-based feedback: generate or mutate a [`DesignSpec`],
//! run it through the differential engine stack, and keep specs that
//! light up new `(key, log2-bucket)` coverage pairs — kernel kinds and
//! levels from the arena evaluator's profile, opcodes from the bytecode
//! engine's, structural features of the spec itself. Divergences are
//! shrunk on the spot (by the [`campaign`] engine) to a minimal design that still
//! reproduces the same `(engine, kind)` divergence class, and written as
//! a self-contained `.v` repro the corpus replayer
//! ([`replay_repro`]) can re-run without the spec.

use crate::campaign::{self, Campaign, Outcome};
use crate::coverage::CoverageMap;
use crate::diff::{run_differential, run_differential_src, DiffConfig, DiffOutcome, Divergence};
use crate::spec::DesignSpec;
use cascade_bits::Prng;
use std::path::PathBuf;

/// Fuzzing-loop configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed: the whole campaign is deterministic in it.
    pub seed: u64,
    /// Designs to execute.
    pub iterations: u32,
    /// Differential-runner settings shared by every candidate.
    pub diff: DiffConfig,
    /// Where to write shrunk `.v` repros (skipped when `None`).
    pub corpus_dir: Option<PathBuf>,
    /// Live in-memory corpus bound; oldest entries are evicted.
    pub max_corpus: usize,
    /// Fraction (out of 4) of iterations that generate fresh specs
    /// instead of mutating a corpus entry.
    pub fresh_in_4: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            iterations: 200,
            diff: DiffConfig::default(),
            corpus_dir: None,
            max_corpus: 64,
            fresh_in_4: 1,
        }
    }
}

/// A shrunk, confirmed divergence.
#[derive(Debug, Clone)]
pub struct Repro {
    pub divergence: Divergence,
    pub spec: DesignSpec,
    /// Path the `.v` was written to, when a corpus dir was configured.
    pub path: Option<PathBuf>,
}

/// Campaign counters.
#[derive(Debug, Clone, Default)]
pub struct FuzzStats {
    pub executed: u32,
    pub agreed: u32,
    pub skipped: u32,
    pub diverged: u32,
    pub cycles_total: u64,
    pub coverage_keys: usize,
    pub coverage_points: u32,
    pub corpus_len: usize,
}

/// The fuzzer: owns the RNG, the coverage map, and the live corpus.
pub struct Fuzzer {
    cfg: FuzzConfig,
    rng: Prng,
    coverage: CoverageMap,
    corpus: Vec<DesignSpec>,
    stats: FuzzStats,
    repros: Vec<Repro>,
}

impl Fuzzer {
    pub fn new(cfg: FuzzConfig) -> Self {
        let rng = Prng::new(cfg.seed);
        Fuzzer {
            cfg,
            rng,
            coverage: CoverageMap::new(),
            corpus: Vec::new(),
            stats: FuzzStats::default(),
            repros: Vec::new(),
        }
    }

    pub fn repros(&self) -> &[Repro] {
        &self.repros
    }

    pub fn coverage(&self) -> &CoverageMap {
        &self.coverage
    }

    /// Runs the configured number of iterations, returning final stats.
    pub fn run(&mut self) -> FuzzStats {
        campaign::run(self);
        self.stats.clone()
    }

    /// Executes one candidate: pick, run, feed back, shrink on failure.
    pub fn step(&mut self) -> Option<&Repro> {
        match campaign::step(self, self.stats.executed) {
            Outcome::Fail(()) => self.repros.last(),
            _ => None,
        }
    }
}

/// Fuzzing as a campaign: a case is a spec, the oracle is the
/// differential engine stack, and a shrunk divergence becomes a `.v`
/// repro in the corpus dir.
impl Campaign for Fuzzer {
    type Case = DesignSpec;
    type Finding = Divergence;

    fn budget(&self) -> (u32, u32) {
        (self.cfg.iterations, self.cfg.iterations)
    }

    /// Fresh generation or corpus mutation, per config ratio.
    fn generate(&mut self, _: u32) -> DesignSpec {
        if self.corpus.is_empty() || self.rng.chance(self.cfg.fresh_in_4, 4) {
            DesignSpec::generate(&mut self.rng)
        } else {
            let at = self.rng.below(self.corpus.len() as u64) as usize;
            let mut spec = self.corpus[at].clone();
            for _ in 0..self.rng.range(1, 3) {
                spec.mutate(&mut self.rng);
            }
            spec
        }
    }

    /// Runs the engine stack; a counted agreement feeds the coverage map
    /// and keeps a spec that lit up new points.
    fn run(&mut self, spec: &DesignSpec, counted: bool) -> Outcome<Vec<Divergence>> {
        let out = run_differential(spec, &self.cfg.diff);
        if counted {
            self.stats.executed += 1;
            match &out {
                DiffOutcome::Agree {
                    cycles_run,
                    coverage,
                } => {
                    self.stats.agreed += 1;
                    self.stats.cycles_total += u64::from(*cycles_run);
                    if self.coverage.record(coverage) > 0 {
                        self.corpus.push(spec.clone());
                        if self.corpus.len() > self.cfg.max_corpus {
                            self.corpus.remove(0);
                        }
                    }
                }
                DiffOutcome::Skipped(_) => self.stats.skipped += 1,
                DiffOutcome::Diverged(_) => self.stats.diverged += 1,
            }
            self.stats.coverage_keys = self.coverage.keys();
            self.stats.coverage_points = self.coverage.points();
            self.stats.corpus_len = self.corpus.len();
        }
        match out {
            DiffOutcome::Agree { .. } => Outcome::Pass,
            DiffOutcome::Skipped(_) => Outcome::Skip,
            DiffOutcome::Diverged(d) => Outcome::Fail(vec![d]),
        }
    }

    /// A shrunk spec must still diverge in the same `(engine, kind)` class.
    fn same_failure(&self, first: &[Divergence], now: &[Divergence]) -> bool {
        first[0].class() == now[0].class()
    }

    /// Writes the `.v` repro if a corpus dir is configured.
    fn record(&mut self, spec: DesignSpec, mut findings: Vec<Divergence>) {
        let divergence = findings.remove(0);
        let (engine, kind, n) = (divergence.engine.name(), divergence.kind, self.repros.len());
        let name = format!("div_{engine}_{kind:?}_{n:04}.v").to_lowercase();
        let path = self.cfg.corpus_dir.as_ref().and_then(|dir| {
            let file = dir.join(name);
            let text = render_repro(&spec, &divergence);
            let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, text));
            written.is_ok().then_some(file)
        });
        self.repros.push(Repro {
            divergence,
            spec,
            path,
        });
    }

    fn vacuous(&self) -> Option<&'static str> {
        (self.stats.agreed == 0).then_some("no design ran on every engine")
    }

    fn report(&self, secs: f64) -> String {
        let s = &self.stats;
        let mut out = format!(
            "fuzz: {} designs in {secs:.2}s ({:.1}/s) | agreed {} skipped {} diverged {}\n\
             coverage: {} keys, {} bucketed points | {} cycles simulated | corpus {}\n",
            s.executed,
            s.executed as f64 / secs.max(1e-9),
            s.agreed,
            s.skipped,
            s.diverged,
            s.coverage_keys,
            s.coverage_points,
            s.cycles_total,
            s.corpus_len
        );
        for repro in &self.repros {
            let path = repro.path.as_ref().map(|p| format!(" -> {}", p.display()));
            let path = path.unwrap_or_default();
            out += &format!("  DIVERGENCE {}{path}\n", repro.divergence);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Repro files: self-contained `.v` with a replay header.
// ---------------------------------------------------------------------

/// Renders a shrunk divergence as a standalone corpus file. The header
/// carries everything the replayer needs — no spec required.
pub fn render_repro(spec: &DesignSpec, div: &Divergence) -> String {
    format!(
        "// cascade-verify regression\n\
         // found: {}\n\
         // replay: outputs={} cycles={} stim_seed={:#018x}\n\
         {}\n",
        div.to_string().replace('\n', " "),
        spec.outputs().join(","),
        spec.cycles,
        spec.stim_seed,
        spec.render()
    )
}

/// Parsed replay parameters from a repro file header.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproHeader {
    pub outputs: Vec<String>,
    pub cycles: u32,
    pub stim_seed: u64,
}

/// Extracts the `// replay:` header. Returns `None` when the file is not
/// a cascade-verify repro.
pub fn parse_repro(text: &str) -> Option<ReproHeader> {
    let line = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("// replay:"))?;
    let field = |key: &str| line.split_whitespace().find_map(|f| f.strip_prefix(key));
    let outputs = field("outputs=").unwrap_or_default().split(',');
    let stim_seed = field("stim_seed=")?;
    Some(ReproHeader {
        outputs: outputs
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect(),
        cycles: field("cycles=")?.parse().ok()?,
        stim_seed: u64::from_str_radix(stim_seed.trim_start_matches("0x"), 16).ok()?,
    })
}

/// Replays a corpus file through the full engine stack. Used by the
/// tier-1 regression test over `corpus/` — every checked-in repro must
/// agree (the bugs they captured are fixed and must stay fixed).
pub fn replay_repro(text: &str, cfg: &DiffConfig) -> Option<DiffOutcome> {
    let header = parse_repro(text)?;
    Some(run_differential_src(
        text,
        &header.outputs,
        header.cycles,
        header.stim_seed,
        cfg,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short campaign executes, accumulates coverage, and finds no
    /// divergences between the real engines.
    #[test]
    fn short_campaign_is_clean_and_covers() {
        let mut fuzzer = Fuzzer::new(FuzzConfig {
            seed: 7,
            iterations: 40,
            ..Default::default()
        });
        let stats = fuzzer.run();
        assert_eq!(stats.executed, 40);
        assert_eq!(
            stats.diverged,
            0,
            "real engine divergence: {:?}",
            fuzzer.repros()
        );
        assert!(stats.agreed >= 30, "{stats:?}");
        assert!(stats.coverage_keys >= 10, "{stats:?}");
        assert!(stats.corpus_len > 0, "{stats:?}");
        // Coverage spans all three signal families.
        assert!(fuzzer.coverage().keys_with_prefix("nl:").next().is_some());
        assert!(fuzzer.coverage().keys_with_prefix("sw:").next().is_some());
        assert!(fuzzer.coverage().keys_with_prefix("spec:").next().is_some());
    }

    /// Mutation testing of the verifier itself: with an artificial bug
    /// seeded into an engine's observation stream, the fuzzer must find a
    /// divergence and the shrinker must reduce it to a tiny module. Three
    /// bug shapes cover the three divergence kinds (outputs, tasks,
    /// finish).
    #[test]
    fn seeded_bugs_are_found_and_shrunk_small() {
        use crate::diff::{set_seeded_bug, EngineId, SeededBug};
        let bugs = [
            SeededBug::CorruptOutput {
                engine: EngineId::CompiledSim,
                mask: 0x5a,
            },
            SeededBug::DropTasks {
                engine: EngineId::NetlistSim,
            },
            SeededBug::EarlyFinish {
                engine: EngineId::BatchLane0,
                at: 1,
            },
        ];
        for (i, bug) in bugs.into_iter().enumerate() {
            set_seeded_bug(Some(bug));
            let mut fuzzer = Fuzzer::new(FuzzConfig {
                seed: 100 + i as u64,
                iterations: 200,
                ..Default::default()
            });
            let mut found = None;
            for _ in 0..200 {
                if let Some(repro) = fuzzer.step() {
                    found = Some(repro.spec.clone());
                    break;
                }
            }
            set_seeded_bug(None);
            let spec = found.unwrap_or_else(|| panic!("seeded bug {bug:?} was never caught"));
            assert!(
                spec.top_lines() <= 15,
                "seeded bug {bug:?} shrunk only to {} lines:\n{}",
                spec.top_lines(),
                spec.render()
            );
        }
    }

    /// Repro round-trip: render → parse → replay agrees for a clean spec.
    #[test]
    fn repro_files_round_trip() {
        let mut rng = cascade_bits::Prng::new(3);
        let cfg = DiffConfig::default();
        let spec = loop {
            let s = DesignSpec::generate(&mut rng);
            if matches!(run_differential(&s, &cfg), DiffOutcome::Agree { .. }) {
                break s;
            }
        };
        let div = Divergence {
            engine: crate::diff::EngineId::NetlistSim,
            kind: crate::diff::DivKind::Output,
            cycle: 0,
            detail: "placeholder".into(),
        };
        let text = render_repro(&spec, &div);
        let header = parse_repro(&text).expect("header parses");
        assert_eq!(header.outputs, spec.outputs());
        assert_eq!(header.cycles, spec.cycles);
        assert_eq!(header.stim_seed, spec.stim_seed);
        match replay_repro(&text, &cfg) {
            Some(DiffOutcome::Agree { .. }) => {}
            other => panic!("replay failed: {other:?}"),
        }
    }
}
