//! Batched workload drivers: embarrassingly parallel corpora on one
//! synthesized netlist.
//!
//! The Needleman-Wunsch grading corpus and the regex matcher both run
//! *many independent stimuli through the same design* — exactly the shape
//! the bit-parallel [`BatchHarness`] accelerates. These drivers synthesize
//! the design once, load one corpus entry per lane, and step every lane in
//! lock-step, so a width-64 batch grades 64 sequence pairs (or scans 64
//! packet streams) for roughly the cost of one.

use cascade_bits::{sext, Bits};
use cascade_netlist::{synthesize, BatchHarness};
use cascade_sim::{elaborate, library_from_source};

use crate::needleman::{grader_module, pack_sequence};
use crate::regex::{matcher_verilog, Dfa, Flavor};

/// Builds a batch harness for a standalone ported module.
fn harness_for(src: &str, top: &str, lanes: u32) -> Result<BatchHarness, String> {
    let lib = library_from_source(src).map_err(|e| e.to_string())?;
    let design = elaborate(top, &lib, &Default::default()).map_err(|e| e.to_string())?;
    let netlist = synthesize(&design).map_err(|e| e.to_string())?;
    BatchHarness::new(netlist.into(), lanes).map_err(|e| e.to_string())
}

/// Scores a corpus of equal-length sequence pairs on the hardware grader,
/// `lanes` pairs at a time. Every pair must be exactly `seq_len` symbols
/// (1..=32); scores come back in corpus order. `_threads` is ignored: it
/// stays only because the frozen `bench/src/batch.rs` passes it positionally.
///
/// The result is bit-identical to running [`grader_module`] once per pair
/// — and to the [`nw_score`](crate::needleman::nw_score) software oracle.
///
/// # Errors
///
/// Returns a message for malformed pairs or a design that fails to
/// parse/elaborate/synthesize (which would indicate a generator bug).
pub fn grade_corpus_batched(
    pairs: &[(Vec<u8>, Vec<u8>)],
    seq_len: usize,
    cell_width: u32,
    lanes: u32,
    _threads: u32,
) -> Result<Vec<i64>, String> {
    for (i, (a, b)) in pairs.iter().enumerate() {
        if a.len() != seq_len || b.len() != seq_len {
            return Err(format!("pair {i} is not {seq_len} symbols"));
        }
    }
    let src = grader_module(seq_len, cell_width);
    let mut h = harness_for(&src, "NwGrader", lanes)?;
    let lanes = h.lanes();
    let nl = h.netlist();
    let seq_a = nl.net_by_name("seq_a").ok_or("no seq_a port")?;
    let seq_b = nl.net_by_name("seq_b").ok_or("no seq_b port")?;
    let score = nl.net_by_name("score").ok_or("no score port")?;
    let done = nl.net_by_name("done").ok_or("no done port")?;
    let seq_bits = seq_len as u32 * 2;
    let mut out = Vec::with_capacity(pairs.len());
    for chunk in pairs.chunks(lanes as usize) {
        h.reset();
        for (lane, (a, b)) in chunk.iter().enumerate() {
            h.set_lane(
                seq_a,
                lane as u32,
                Bits::from_u64(seq_bits, pack_sequence(a)),
            );
            h.set_lane(
                seq_b,
                lane as u32,
                Bits::from_u64(seq_bits, pack_sequence(b)),
            );
        }
        h.run_cycles(2 * seq_len as u64 + 2);
        for lane in 0..chunk.len() as u32 {
            if h.get_lane(done, lane).to_u64() != 1 {
                return Err(format!("lane {lane} did not finish"));
            }
            out.push(sext(h.get_lane(score, lane).to_u64(), cell_width));
        }
    }
    Ok(out)
}

/// Counts pattern matches in each input stream on the hardware matcher,
/// `lanes` streams at a time. Streams may have different lengths — a lane
/// whose stream is exhausted idles with `valid` low while the rest of its
/// batch drains. Counts come back in corpus order and are bit-identical
/// to [`Dfa::count_matches`]. `_threads` is ignored: it stays only because
/// the frozen `bench/src/batch.rs` passes it positionally.
///
/// # Errors
///
/// Returns a message if the emitted matcher fails to
/// parse/elaborate/synthesize (which would indicate a generator bug).
pub fn match_corpus_batched(
    dfa: &Dfa,
    inputs: &[Vec<u8>],
    lanes: u32,
    _threads: u32,
) -> Result<Vec<u64>, String> {
    let src = matcher_verilog(dfa, Flavor::Ported);
    let mut h = harness_for(&src, "Matcher", lanes)?;
    let lanes = h.lanes();
    let nl = h.netlist();
    let byte_in = nl.net_by_name("byte_in").ok_or("no byte_in port")?;
    let valid = nl.net_by_name("valid").ok_or("no valid port")?;
    let matches = nl.net_by_name("matches").ok_or("no matches port")?;
    let mut out = Vec::with_capacity(inputs.len());
    for chunk in inputs.chunks(lanes as usize) {
        h.reset();
        let max_len = chunk.iter().map(|s| s.len()).max().unwrap_or(0);
        for cycle in 0..max_len {
            for (lane, stream) in chunk.iter().enumerate() {
                match stream.get(cycle) {
                    Some(&b) => {
                        h.set_lane(byte_in, lane as u32, Bits::from_u64(8, b as u64));
                        h.set_lane(valid, lane as u32, Bits::from_u64(1, 1));
                    }
                    None => h.set_lane(valid, lane as u32, Bits::from_u64(1, 0)),
                }
            }
            h.step_clock(0);
        }
        for lane in 0..chunk.len() as u32 {
            out.push(h.get_lane(matches, lane).to_u64());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::needleman::{nw_score, random_sequence};
    use crate::regex::compile;

    #[test]
    fn grader_module_parses() {
        let src = grader_module(7, 16);
        cascade_verilog::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    }

    #[test]
    fn batched_grading_matches_oracle() {
        let n = 8;
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..10)
            .map(|i| (random_sequence(n, 100 + i), random_sequence(n, 200 + i)))
            .collect();
        let want: Vec<i64> = pairs.iter().map(|(a, b)| nw_score(a, b)).collect();
        // Lanes that don't divide the corpus exercise the partial tail.
        let got = grade_corpus_batched(&pairs, n, 16, 4, 1).unwrap();
        assert_eq!(got, want);
        let wide = grade_corpus_batched(&pairs, n, 16, 16, 1).unwrap();
        assert_eq!(wide, want);
    }

    #[test]
    fn batched_matching_matches_oracle() {
        let dfa = compile("GET |POST ").unwrap();
        let inputs: Vec<Vec<u8>> = [
            &b"GET /index.html POST /a GET /b"[..],
            &b"no verbs here"[..],
            &b"POST POST POST "[..],
            &b""[..],
            &b"GET GET "[..],
        ]
        .iter()
        .map(|s| s.to_vec())
        .collect();
        let want: Vec<u64> = inputs.iter().map(|s| dfa.count_matches(s)).collect();
        let got = match_corpus_batched(&dfa, &inputs, 4, 1).unwrap();
        assert_eq!(got, want);
    }
}
