//! The coverage-guided fuzzing loop.
//!
//! Classic corpus-based feedback: generate or mutate a [`DesignSpec`],
//! run it through the differential engine stack, and keep specs that
//! light up new `(key, log2-bucket)` coverage pairs — kernel kinds and
//! levels from the arena evaluator's profile, opcodes from the bytecode
//! engine's, structural features of the spec itself. Divergences are
//! shrunk on the spot ([`crate::shrink()`]) to a minimal design that still
//! reproduces the same `(engine, kind)` divergence class, and written as
//! a self-contained `.v` repro the corpus replayer
//! ([`replay_repro`]) can re-run without the spec.

use crate::coverage::CoverageMap;
use crate::diff::{run_differential, run_differential_src, DiffConfig, DiffOutcome, Divergence};
use crate::shrink::shrink;
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
    serial: u32,
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
            serial: 0,
        }
    }

    pub fn stats(&self) -> &FuzzStats {
        &self.stats
    }

    pub fn repros(&self) -> &[Repro] {
        &self.repros
    }

    pub fn coverage(&self) -> &CoverageMap {
        &self.coverage
    }

    /// Runs the configured number of iterations, returning final stats.
    pub fn run(&mut self) -> FuzzStats {
        for _ in 0..self.cfg.iterations {
            self.step();
        }
        self.stats.clone()
    }

    /// Executes one candidate: pick, run, feed back, shrink on failure.
    pub fn step(&mut self) -> Option<&Repro> {
        let spec = self.next_candidate();
        self.stats.executed += 1;
        match run_differential(&spec, &self.cfg.diff) {
            DiffOutcome::Agree {
                cycles_run,
                coverage,
            } => {
                self.stats.agreed += 1;
                self.stats.cycles_total += u64::from(cycles_run);
                let novel = self.coverage.record(&coverage);
                if novel > 0 {
                    self.corpus.push(spec);
                    if self.corpus.len() > self.cfg.max_corpus {
                        self.corpus.remove(0);
                    }
                }
                self.sync_stats();
                None
            }
            DiffOutcome::Skipped(_) => {
                self.stats.skipped += 1;
                self.sync_stats();
                None
            }
            DiffOutcome::Diverged(div) => {
                self.stats.diverged += 1;
                let repro = self.shrink_and_record(spec, div);
                self.repros.push(repro);
                self.sync_stats();
                self.repros.last()
            }
        }
    }

    fn sync_stats(&mut self) {
        self.stats.coverage_keys = self.coverage.keys();
        self.stats.coverage_points = self.coverage.points();
        self.stats.corpus_len = self.corpus.len();
    }

    /// Fresh generation or corpus mutation, per config ratio.
    fn next_candidate(&mut self) -> DesignSpec {
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

    /// Shrinks a diverging spec to the same `(engine, kind)` class and
    /// writes the `.v` repro if a corpus dir is configured.
    fn shrink_and_record(&mut self, spec: DesignSpec, div: Divergence) -> Repro {
        let class = div.class();
        let cfg = self.cfg.diff.clone();
        let small = shrink(&spec, &mut |cand| {
            matches!(
                run_differential(cand, &cfg),
                DiffOutcome::Diverged(d) if d.class() == class
            )
        });
        // Re-run the shrunk spec for the divergence at its final shape.
        let final_div = match run_differential(&small, &cfg) {
            DiffOutcome::Diverged(d) => d,
            _ => div,
        };
        let mut path = None;
        if let Some(dir) = &self.cfg.corpus_dir {
            let name = format!(
                "div_{}_{:?}_{:04}.v",
                final_div.engine.name(),
                final_div.kind,
                self.serial
            )
            .to_lowercase();
            self.serial += 1;
            let file = dir.join(name);
            if std::fs::create_dir_all(dir).is_ok()
                && std::fs::write(&file, render_repro(&small, &final_div)).is_ok()
            {
                path = Some(file);
            }
        }
        Repro {
            divergence: final_div,
            spec: small,
            path,
        }
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
         // found: engine={} kind={:?} cycle={} detail={}\n\
         // replay: outputs={} cycles={} stim_seed={:#018x}\n\
         {}\n",
        div.engine.name(),
        div.kind,
        div.cycle,
        div.detail.replace('\n', " "),
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
    let mut outputs = Vec::new();
    let mut cycles = None;
    let mut stim_seed = None;
    for field in line.split_whitespace() {
        if let Some(v) = field.strip_prefix("outputs=") {
            outputs = v
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
        } else if let Some(v) = field.strip_prefix("cycles=") {
            cycles = v.parse().ok();
        } else if let Some(v) = field.strip_prefix("stim_seed=") {
            let v = v.strip_prefix("0x").unwrap_or(v);
            stim_seed = u64::from_str_radix(v, 16).ok();
        }
    }
    Some(ReproHeader {
        outputs,
        cycles: cycles?,
        stim_seed: stim_seed?,
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
