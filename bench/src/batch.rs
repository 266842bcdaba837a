//! The netlist layer used for throughput: `match_corpus_batched` and
//! `grade_corpus_batched` at 64 lanes. One request is one sweep: every corpus
//! through a match call and a grade call.

use crate::gen::{Corpus, BATCH_LANES};
use crate::jit::Stop;
use crate::span::Tracer;
use crate::stats::{Recorder, Samples};
use cascade_netlist::{synthesize, BatchHarness};
use cascade_sim::{elaborate, library_from_source};
use cascade_workloads::batch::{grade_corpus_batched, match_corpus_batched};
use cascade_workloads::needleman::grader_module;
use cascade_workloads::regex::{matcher_verilog, Flavor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Default)]
pub struct BatchOut {
    pub elapsed: Duration,
    pub sweeps: u64,
    pub lane_ticks: u64,
    pub sweep_us: Samples,
    pub rec: Recorder,
}

/// Replays what a batched call does inside, stage by stage, under `parent`.
fn replay(tr: &mut Tracer, parent: u32, src: &str, top: &str, cycles: u64) {
    let (lib, _) = tr.time(parent, "verilog", "parse", || {
        library_from_source(src).expect("generator output parses")
    });
    let (design, _) = tr.time(parent, "sim", "elaborate", || {
        elaborate(top, &lib, &Default::default()).expect("generator output elaborates")
    });
    let (netlist, _) = tr.time(parent, "netlist", "synthesize", || {
        synthesize(&design).expect("synthesizes")
    });
    let (mut h, _) = tr.time(parent, "netlist", "batch_build", || {
        BatchHarness::new(Arc::new(netlist), BATCH_LANES).expect("levelizes")
    });
    tr.time(parent, "netlist", "batch_cycles", || {
        black_box(h.run_cycles(cycles))
    });
}

/// Sweeps until `stop`, checking every lane of every call against the
/// corpus's precomputed answers. One sweep takes every corpus through both
/// calls: corpora differ in cost with their patterns, and a request that
/// spans them all keeps the latencies one population.
pub fn batch_pass(corpora: &[Corpus], stop: &Stop, mut trace: Option<&mut Tracer>) -> BatchOut {
    let mut out = BatchOut::default();
    let begin = Instant::now();
    while !stop.done(begin, out.sweeps) {
        let start = Instant::now();
        let mut ok = true;
        let mut calls = Vec::with_capacity(corpora.len());
        for c in corpora {
            let t = Instant::now();
            let matches = match_corpus_batched(&c.dfa, &c.streams, BATCH_LANES, 1);
            let match_dur = t.elapsed();
            let t = Instant::now();
            let scores = grade_corpus_batched(&c.pairs, c.seq_len, c.cell_width, BATCH_LANES, 1);
            calls.push((match_dur, t.elapsed()));
            ok &= out.rec.check(matches.as_ref() == Ok(&c.want_matches), || {
                format!(
                    "match_corpus_batched: want {:?}, got {matches:?}",
                    c.want_matches
                )
            });
            ok &= out.rec.check(scores.as_ref() == Ok(&c.want_scores), || {
                format!(
                    "grade_corpus_batched: want {:?}, got {scores:?}",
                    c.want_scores
                )
            });
            out.lane_ticks += c.lane_ticks();
        }
        let dur = start.elapsed();
        if ok {
            out.sweep_us.push_us(dur);
        }
        if let Some(tr) = &mut trace {
            let root = tr.root(out.sweeps, "workloads", "sweep", start, dur);
            let cycles =
                |entries: usize, each: usize| (entries / BATCH_LANES as usize * each) as u64;
            for (c, (match_dur, grade_dur)) in corpora.iter().zip(calls) {
                tr.count("lane_ticks", c.lane_ticks());
                let m = tr.child(root, "workloads", "match_corpus_batched", match_dur);
                let matcher = matcher_verilog(&c.dfa, Flavor::Ported);
                replay(
                    tr,
                    m,
                    &matcher,
                    "Matcher",
                    cycles(c.streams.len(), c.streams[0].len()),
                );
                let g = tr.child(root, "workloads", "grade_corpus_batched", grade_dur);
                let grader = grader_module(c.seq_len, c.cell_width);
                replay(
                    tr,
                    g,
                    &grader,
                    "NwGrader",
                    cycles(c.pairs.len(), 2 * c.seq_len + 2),
                );
            }
        }
        out.sweeps += 1;
    }
    out.elapsed = begin.elapsed();
    out
}
