//! Seeded input generators. The seed reaches nothing but this file: the
//! product sees Verilog text, byte streams and tick counts, never the seed
//! or a workload name. Every generator also returns the closed-form values
//! its oracle checks, computed without any engine under test.

use cascade_bits::Prng;
use cascade_workloads::needleman::{nw_score, random_sequence};
use cascade_workloads::regex::{self, Dfa};
use cascade_workloads::sha256::{self, MinerConfig, CYCLES_PER_ATTEMPT};
use std::fmt::Write as _;

/// `(port, expected value)` pairs for a probe after `ticks` ticks, given the
/// FIFO bytes consumed so far.
pub type Expect = Box<dyn Fn(u64, &[u8]) -> Vec<(String, u64)> + Send + Sync>;

/// One Verilog program in the two forms the stack consumes, plus its oracle.
pub struct Design {
    /// Root items against the standard library (`clk.val`, `led.val`, the
    /// FIFO): what `Runtime::eval` and the serve `eval` command take.
    pub cascade_src: String,
    /// The same logic as a standalone module with a `clk` port: what the
    /// frontend, synthesis and the netlist engines take directly.
    pub ported_src: String,
    pub top: &'static str,
    /// Bytes for the board FIFO (Cascade form) or the `byte_in`/`valid`
    /// ports (ported form); empty when the design takes no input.
    pub feed: Vec<u8>,
    /// One appended item: a counter `edit_port` stepping by `edit_stride`
    /// modulo 256.
    pub edit_src: String,
    pub edit_port: String,
    pub edit_stride: u64,
    pub expect: Expect,
}

fn ident(rng: &mut Prng, prefix: &str) -> String {
    let mut s = String::from(prefix);
    for _ in 0..4 {
        s.push((b'a' + rng.below(26) as u8) as char);
    }
    let _ = write!(s, "{}", rng.below(100));
    s
}

fn edit_item(rng: &mut Prng) -> (String, String, u64) {
    let port = ident(rng, "x_");
    let stride = 2 * rng.below(64) + 1;
    let src =
        format!("reg [7:0] {port} = 0;\nalways @(posedge clk.val) {port} <= {port} + 8'd{stride};");
    (src, port, stride)
}

/// The SHA-256 miner on a seeded `data`/`start_nonce` with a target no
/// digest meets, so it hashes for as long as it is clocked. One attempt is
/// [`CYCLES_PER_ATTEMPT`] ticks, so `nonce` is a closed form of the tick
/// count on every engine and across every migration.
pub fn miner(rng: &mut Prng) -> Design {
    let cfg = MinerConfig {
        data: rng.next_u64() as u32,
        start_nonce: rng.next_u64() as u32,
        target: 0,
        announce: false,
        use_functions: false,
    };
    let (edit_src, edit_port, edit_stride) = edit_item(rng);
    let start = cfg.start_nonce;
    Design {
        cascade_src: sha256::miner_verilog(&cfg, sha256::Flavor::Cascade),
        ported_src: sha256::miner_verilog(&cfg, sha256::Flavor::Ported),
        top: "Miner",
        feed: Vec::new(),
        edit_src,
        edit_port,
        edit_stride,
        expect: Box::new(move |ticks, _| {
            let attempts = (ticks / CYCLES_PER_ATTEMPT) as u32;
            vec![("nonce".to_string(), start.wrapping_add(attempts) as u64)]
        }),
    }
}

/// A miner that announces: a target met within a few dozen attempts, and
/// the `FOUND` line `sha256::find_nonce` says it must print.
pub fn announced_miner(rng: &mut Prng) -> (String, String) {
    let cfg = MinerConfig {
        data: rng.next_u64() as u32,
        start_nonce: rng.next_u64() as u32,
        target: 0x0400_0000,
        announce: true,
        use_functions: false,
    };
    let (nonce, digest) = sha256::find_nonce(cfg.data, cfg.target, cfg.start_nonce);
    (
        sha256::miner_verilog(&cfg, sha256::Flavor::Cascade),
        format!("FOUND nonce={nonce:08x} hash={:08x}", digest[0]),
    )
}

const FEED_BYTES: usize = 1 << 20;

/// A seeded alternation of four three-letter words with distinct initials,
/// and a byte stream that mixes those words with noise so the matcher
/// keeps changing state. The letters are seeded; the shape of the DFA, and
/// with it the cost of a tick and the modeled compile time, is not, so runs
/// on different seeds measure the same amount of work.
fn pattern_and_stream(rng: &mut Prng, bytes: usize) -> (Dfa, Vec<u8>) {
    let mut initials: Vec<u8> = (b'A'..=b'Z').collect();
    let words: Vec<String> = (0..4)
        .map(|_| {
            let first = initials.swap_remove(rng.below(initials.len() as u64) as usize);
            let rest = (0..2).map(|_| (b'A' + rng.below(26) as u8) as char);
            std::iter::once(first as char)
                .chain(rest)
                .chain([' '])
                .collect()
        })
        .collect();
    let dfa = regex::compile(&words.join("|")).expect("generated pattern compiles");
    let mut stream = Vec::with_capacity(bytes + 8);
    while stream.len() < bytes {
        if rng.chance(1, 2) {
            stream.extend_from_slice(rng.pick(&words).as_bytes());
        } else {
            for _ in 0..rng.range(1, 6) {
                stream.push(*rng.pick(b"abcxyz/#. ETAOIN"));
            }
        }
    }
    stream.truncate(bytes);
    (dfa, stream)
}

/// The streaming matcher coupled to the board FIFO, one byte per tick.
pub fn matcher(rng: &mut Prng) -> Design {
    let (dfa, feed) = pattern_and_stream(rng, FEED_BYTES);
    let (edit_src, edit_port, edit_stride) = edit_item(rng);
    let cascade_src = regex::matcher_verilog(&dfa, regex::Flavor::Cascade);
    let ported_src = regex::matcher_verilog(&dfa, regex::Flavor::Ported);
    Design {
        cascade_src,
        ported_src,
        top: "Matcher",
        feed,
        edit_src,
        edit_port,
        edit_stride,
        expect: Box::new(move |_, consumed| {
            vec![("match_count".to_string(), dfa.count_matches(consumed))]
        }),
    }
}

/// One request of a served session and what the reply must say.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `output`, when given, is the exact `$display` text the reply carries.
    Eval {
        line: String,
        output: Option<Vec<String>>,
    },
    Run(u64),
    Fifo(Vec<u64>),
    Drain(Vec<String>),
    Probe {
        port: String,
        want: u64,
    },
}

/// A whole session: `open`, the steps, `close`.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    pub steps: Vec<Step>,
    /// The ported module equal to the program after each `Eval` step, in
    /// step order (what a replay type-checks and elaborates).
    pub ported_after: Vec<String>,
}

impl Design {
    /// Shifts every expected value by one: what `--corrupt-oracle` uses to
    /// show that a wrong answer cannot pass.
    pub fn corrupt(&mut self) {
        let inner = std::mem::replace(&mut self.expect, Box::new(|_, _| Vec::new()));
        self.expect =
            Box::new(move |t, c| inner(t, c).into_iter().map(|(p, v)| (p, v + 1)).collect());
    }
}

impl Script {
    pub fn corrupt(&mut self) {
        for step in &mut self.steps {
            if let Step::Probe { want, .. } = step {
                *want += 1;
            }
        }
    }
}

impl Corpus {
    pub fn corrupt(&mut self) {
        self.want_matches[0] += 1;
        self.want_scores[0] += 1;
    }
}

pub const EDIT_RUN_TICKS: u64 = 64;

struct Counter {
    name: String,
    width: u32,
    init: u64,
    stride: u64,
    /// Ticks run since its `always` line was eval'ed.
    live_ticks: Option<u64>,
}

impl Counter {
    fn new(rng: &mut Prng) -> Counter {
        let width = rng.range(8, 24) as u32;
        Counter {
            name: ident(rng, "r_"),
            width,
            init: rng.below(1 << width),
            stride: rng.range(1, 999),
            live_ticks: None,
        }
    }

    fn value(&self) -> u64 {
        let mask = (1u64 << self.width) - 1;
        (self.init + self.stride * self.live_ticks.unwrap_or(0)) & mask
    }
}

/// The root items `lines` as a standalone module. Synthesis rejects
/// one-shot `initial` items (the runtime strips them before it compiles for
/// hardware), so `synthesizable` leaves them out.
fn ported_module(lines: &[String], synthesizable: bool) -> String {
    let mut s = String::from("module Top(\n  input wire clk,\n  output wire [7:0] led_val\n);\n");
    for l in lines
        .iter()
        .filter(|l| !(synthesizable && l.starts_with("initial")))
    {
        s.push_str(&l.replace("clk.val", "clk").replace("led.val", "led_val"));
        s.push('\n');
    }
    s.push_str("endmodule\n");
    s
}

/// An interactive edit session: two counters declared, clocked, wired to
/// the LEDs and printed, as six one-line evals in a seeded dependency-
/// respecting order, each followed by `run 64`; then `drain` and a probe of
/// each counter. Identifiers, widths, initial values and strides are
/// seeded, so no two sessions synthesize to the same netlist.
pub fn edit_session(rng: &mut Prng) -> (Script, Design) {
    let mut c = [Counter::new(rng), Counter::new(rng)];
    let (a, b) = (c[0].name.clone(), c[1].name.clone());
    let line = |i: usize, c: &[Counter; 2]| -> String {
        let k = &c[i / 2 % 2];
        match i {
            0 | 2 => format!("reg [{}:0] {} = {};", k.width - 1, k.name, k.init),
            1 | 3 => format!(
                "always @(posedge clk.val) {} <= {} + {};",
                k.name, k.name, k.stride
            ),
            4 => format!("assign led.val = {a}[7:0];"),
            _ => format!("initial $display(\"{a}=%d {b}=%d\", {a}, {b});"),
        }
    };
    // Line i may go once every line in deps[i] has gone.
    let deps: [&[usize]; 6] = [&[], &[0], &[], &[2], &[0], &[0, 2]];
    let mut done = [false; 6];
    let mut steps = Vec::new();
    let mut lines = Vec::new();
    let mut ported_after = Vec::new();
    for _ in 0..6 {
        let ready: Vec<usize> = (0..6)
            .filter(|&i| !done[i] && deps[i].iter().all(|&d| done[d]))
            .collect();
        let i = *rng.pick(&ready);
        done[i] = true;
        let output = (i == 5).then(|| format!("{a}={} {b}={}", c[0].value(), c[1].value()));
        let text = line(i, &c);
        lines.push(text.clone());
        ported_after.push(ported_module(&lines, false));
        steps.push(Step::Eval {
            line: text,
            output: Some(output.into_iter().collect()),
        });
        if i == 1 || i == 3 {
            c[i / 2].live_ticks = Some(0);
        }
        steps.push(Step::Run(EDIT_RUN_TICKS));
        for k in &mut c {
            if let Some(t) = &mut k.live_ticks {
                *t += EDIT_RUN_TICKS;
            }
        }
    }
    steps.push(Step::Drain(Vec::new()));
    for k in &c {
        steps.push(Step::Probe {
            port: k.name.clone(),
            want: k.value(),
        });
    }
    let (edit_src, edit_port, edit_stride) = edit_item(rng);
    let closed: Vec<(String, u32, u64, u64)> = c
        .iter()
        .map(|k| (k.name.clone(), k.width, k.init, k.stride))
        .collect();
    let design = Design {
        cascade_src: lines.join("\n"),
        ported_src: ported_module(&lines, true),
        top: "Top",
        feed: Vec::new(),
        edit_src,
        edit_port,
        edit_stride,
        expect: Box::new(move |ticks, _| {
            closed
                .iter()
                .map(|(n, w, i, s)| (n.clone(), (i + s * ticks) & ((1u64 << w) - 1)))
                .collect()
        }),
    };
    (
        Script {
            steps,
            ported_after,
        },
        design,
    )
}

pub const TENANT_RUN_TICKS: u64 = 1024;

/// A long-lived tenant: one 32-bit counter with a seeded odd stride.
pub fn tenant(rng: &mut Prng) -> Design {
    let stride = 2 * rng.below(1 << 15) + 1;
    let lines = [
        "reg [31:0] cnt = 0;".to_string(),
        format!("always @(posedge clk.val) cnt <= cnt + {stride};"),
        "assign led.val = cnt[7:0];".to_string(),
    ];
    let (edit_src, edit_port, edit_stride) = edit_item(rng);
    Design {
        cascade_src: lines.join("\n"),
        ported_src: ported_module(&lines, true),
        top: "Top",
        feed: Vec::new(),
        edit_src,
        edit_port,
        edit_stride,
        expect: Box::new(move |ticks, _| vec![("cnt".to_string(), (stride * ticks) & 0xffff_ffff)]),
    }
}

const PROBE_RUN_TICKS: u64 = 256;

impl Script {
    /// The session a design gets when it has no script of its own: eval
    /// its whole source as one request, feed it, run, probe its closed form.
    pub fn for_design(d: &Design) -> Script {
        let mut steps = vec![Step::Eval {
            line: d.cascade_src.clone(),
            output: None,
        }];
        let ported_after = vec![d.ported_src.clone()];
        // A served session's input FIFO holds 64 words.
        let fed = &d.feed[..d.feed.len().min(48)];
        if !fed.is_empty() {
            steps.push(Step::Fifo(fed.iter().map(|&b| b as u64).collect()));
        }
        steps.push(Step::Run(PROBE_RUN_TICKS));
        for (port, want) in (d.expect)(PROBE_RUN_TICKS, fed) {
            steps.push(Step::Probe { port, want });
        }
        Script {
            steps,
            ported_after,
        }
    }
}

pub const BATCH_LANES: u32 = 64;
const BATCH_STREAM_BYTES: usize = 512;
const NW_CELL_WIDTH: u32 = 16;
const NW_SEQ_LEN: usize = 12;
/// 64-lane batches per call: enough that clocking the harness, not building
/// it, is most of a call.
const MATCH_BATCHES: usize = 4;
const GRADE_BATCHES: usize = 2;

/// One batched sweep: 256 byte streams for the matcher and 128 sequence
/// pairs for the Needleman-Wunsch grader, with the answers
/// `Dfa::count_matches` and `nw_score` give.
pub struct Corpus {
    pub dfa: Dfa,
    pub streams: Vec<Vec<u8>>,
    pub want_matches: Vec<u64>,
    pub seq_len: usize,
    pub cell_width: u32,
    pub pairs: Vec<(Vec<u8>, Vec<u8>)>,
    pub want_scores: Vec<i64>,
}

impl Corpus {
    /// Lane-ticks one sweep advances: every lane is clocked for the whole
    /// batch, whatever its own stream length.
    pub fn lane_ticks(&self) -> u64 {
        let matching = (MATCH_BATCHES * BATCH_STREAM_BYTES) as u64;
        let grading = GRADE_BATCHES as u64 * (2 * self.seq_len as u64 + 2);
        BATCH_LANES as u64 * (matching + grading)
    }
}

pub fn corpus(rng: &mut Prng) -> Corpus {
    let (dfa, stream) = pattern_and_stream(
        rng,
        BATCH_STREAM_BYTES * MATCH_BATCHES * BATCH_LANES as usize,
    );
    let streams: Vec<Vec<u8>> = stream
        .chunks(BATCH_STREAM_BYTES)
        .map(<[u8]>::to_vec)
        .collect();
    debug_assert_eq!(streams.len(), MATCH_BATCHES * BATCH_LANES as usize);
    let seq_len = NW_SEQ_LEN;
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..GRADE_BATCHES * BATCH_LANES as usize)
        .map(|_| {
            (
                random_sequence(seq_len, rng.next_u64()),
                random_sequence(seq_len, rng.next_u64()),
            )
        })
        .collect();
    Corpus {
        want_matches: streams.iter().map(|s| dfa.count_matches(s)).collect(),
        want_scores: pairs.iter().map(|(a, b)| nw_score(a, b)).collect(),
        dfa,
        streams,
        seq_len,
        cell_width: NW_CELL_WIDTH,
        pairs,
    }
}

/// The matcher of a corpus as a [`Design`], for the layer probes.
pub fn corpus_design(rng: &mut Prng, c: &Corpus) -> Design {
    let dfa = c.dfa.clone();
    let (edit_src, edit_port, edit_stride) = edit_item(rng);
    Design {
        cascade_src: regex::matcher_verilog(&c.dfa, regex::Flavor::Cascade),
        ported_src: regex::matcher_verilog(&c.dfa, regex::Flavor::Ported),
        top: "Matcher",
        feed: c.streams.concat(),
        edit_src,
        edit_port,
        edit_stride,
        expect: Box::new(move |_, consumed| {
            vec![("match_count".to_string(), dfa.count_matches(consumed))]
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a seed generates, flattened to bytes.
    fn everything(seed: u64) -> Vec<u8> {
        let mut rng = Prng::new(seed);
        let mut out = Vec::new();
        for d in [miner(&mut rng), matcher(&mut rng), tenant(&mut rng)] {
            out.extend(d.cascade_src.bytes());
            out.extend(d.ported_src.bytes());
            out.extend(d.edit_src.bytes());
            out.extend(&d.feed);
        }
        let (script, d) = edit_session(&mut rng);
        out.extend(format!("{script:?}").bytes());
        out.extend(d.ported_src.bytes());
        let (src, found) = announced_miner(&mut rng);
        out.extend(src.bytes());
        out.extend(found.bytes());
        let c = corpus(&mut rng);
        out.extend(c.streams.concat());
        out.extend(format!("{:?}{:?}{:?}", c.pairs, c.want_matches, c.want_scores).bytes());
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(everything(11), everything(11));
        assert_ne!(everything(11), everything(12));
    }

    #[test]
    fn edit_session_respects_dependencies_and_closed_forms() {
        for seed in 0..50 {
            let (script, design) = edit_session(&mut Prng::new(seed));
            let evals: Vec<&String> = script
                .steps
                .iter()
                .filter_map(|s| match s {
                    Step::Eval { line, .. } => Some(line),
                    _ => None,
                })
                .collect();
            assert_eq!(evals.len(), 6);
            assert_eq!(script.ported_after.len(), 6);
            let pos = |needle: &str| evals.iter().position(|l| l.starts_with(needle)).unwrap();
            assert!(pos("reg") < pos("always"));
            assert!(pos("reg") < pos("assign"));
            assert!(evals.iter().rposition(|l| l.starts_with("reg")).unwrap() < pos("initial"));
            // Run all six lines at once for t ticks: the closed form at t=0
            // is the initial value.
            for (_, v) in (design.expect)(0, &[]) {
                assert!(v < 1 << 24);
            }
        }
    }
}
