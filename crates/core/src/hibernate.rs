//! Session hibernation images: a runtime frozen to bytes.
//!
//! Cascade's engine ABI already makes program state portable —
//! `get_state` lifts any engine (software or hardware) into a
//! [`EngineState`] value, and the PR-4 checkpoint machinery proves that a
//! program rebuilt from those states plus its append-only source is
//! indistinguishable from one that never stopped. A [`HibernateImage`]
//! pushes that one step further: the committed source log, the
//! checkpointed engine states, and the tick/wall bookkeeping are
//! serialized to a flat byte buffer so the live `Runtime` (its engines,
//! compiler, slots, and fabric lease) can be dropped entirely. A server
//! holding ten thousand mostly-idle tenants keeps one image per dormant
//! session and rebuilds a `Runtime` only when the next command arrives.
//!
//! The format is a magic/version header, then length-prefixed
//! little-endian fields written and read through `cascade_durable::codec`,
//! the one byte codec every durable format shares. It round-trips exactly
//! — see the tests — and `from_bytes` is bounds-checked so a truncated or
//! corrupt image surfaces as an error, never a panic.

use std::collections::BTreeMap;

use cascade_durable::codec;

use crate::engine::EngineState;

const MAGIC: &[u8; 4] = b"CHIB";
const VERSION: u32 = 1;

/// Everything needed to resurrect a hibernated session: replay the source
/// log through `eval`, then overwrite engine state with the checkpointed
/// snapshot (exactly the `rollback_to_checkpoint` path).
#[derive(Debug, Clone, PartialEq)]
pub struct HibernateImage {
    /// Committed source items in eval order (append-only program text).
    pub source: String,
    /// Engine states by slot name, from a verified checkpoint.
    pub states: BTreeMap<String, EngineState>,
    /// Scheduler iteration counter (2 per virtual tick).
    pub iterations: u64,
    /// Whether the program had hit `$finish`.
    pub finished: bool,
    /// Modeled wall clock at hibernation.
    pub wall_seconds: f64,
}

impl HibernateImage {
    /// The image of a session that never evaluated anything. Waking it is
    /// just `Runtime::new`.
    pub fn empty() -> HibernateImage {
        HibernateImage {
            source: String::new(),
            states: BTreeMap::new(),
            iterations: 0,
            finished: false,
            wall_seconds: 0.0,
        }
    }

    /// Whether this image carries no program (fast-path wake).
    pub fn is_empty(&self) -> bool {
        self.source.is_empty() && self.states.is_empty() && self.iterations == 0
    }

    /// Serializes the image to a flat buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(64 + self.source.len());
        w.extend_from_slice(MAGIC);
        codec::put_u32(&mut w, VERSION);
        codec::put_u64(&mut w, self.iterations);
        codec::put_u8(&mut w, self.finished as u8);
        codec::put_f64(&mut w, self.wall_seconds);
        codec::put_str(&mut w, &self.source);
        codec::put_u64(&mut w, self.states.len() as u64);
        for (name, state) in &self.states {
            codec::put_str(&mut w, name);
            codec::put_u64(&mut w, state.regs.len() as u64);
            for (reg, bits) in &state.regs {
                codec::put_str(&mut w, reg);
                codec::put_bits(&mut w, bits);
            }
            codec::put_u64(&mut w, state.mems.len() as u64);
            for (mem, words) in &state.mems {
                codec::put_str(&mut w, mem);
                codec::put_u64(&mut w, words.len() as u64);
                for b in words {
                    codec::put_bits(&mut w, b);
                }
            }
        }
        w
    }

    /// Deserializes an image produced by [`HibernateImage::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem (bad magic,
    /// unsupported version, truncation, invalid UTF-8, a bit vector whose
    /// word count disagrees with its width).
    pub fn from_bytes(bytes: &[u8]) -> Result<HibernateImage, String> {
        Self::decode(&mut codec::Reader::new(bytes)).map_err(|e| format!("hibernate image: {e}"))
    }

    fn decode(r: &mut codec::Reader<'_>) -> Result<HibernateImage, String> {
        if r.u32()? != u32::from_le_bytes(*MAGIC) {
            return Err("bad magic".to_string());
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(format!("unsupported version {version}"));
        }
        let iterations = r.u64()?;
        let finished = r.u8()? != 0;
        let wall_seconds = r.f64()?;
        let source = r.string()?;
        let mut states = BTreeMap::new();
        for _ in 0..r.len_prefix()? {
            let name = r.string()?;
            let mut regs = BTreeMap::new();
            for _ in 0..r.len_prefix()? {
                let reg = r.string()?;
                regs.insert(reg, r.bits()?);
            }
            let mut mems = BTreeMap::new();
            for _ in 0..r.len_prefix()? {
                let mem = r.string()?;
                let words = (0..r.len_prefix()?)
                    .map(|_| r.bits())
                    .collect::<Result<Vec<_>, _>>()?;
                mems.insert(mem, words);
            }
            states.insert(name, EngineState { regs, mems });
        }
        Ok(HibernateImage {
            source,
            states,
            iterations,
            finished,
            wall_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_bits::Bits;

    fn sample() -> HibernateImage {
        let mut regs = BTreeMap::new();
        regs.insert("cnt".to_string(), Bits::from_u64(8, 0xA5));
        regs.insert("wide".to_string(), Bits::from_words(100, &[u64::MAX, 0x3]));
        let mut mems = BTreeMap::new();
        mems.insert(
            "ram".to_string(),
            vec![Bits::from_u64(16, 1), Bits::from_u64(16, 2)],
        );
        let mut states = BTreeMap::new();
        states.insert("__root".to_string(), EngineState { regs, mems });
        states.insert(
            "fifo0".to_string(),
            EngineState {
                regs: BTreeMap::new(),
                mems: BTreeMap::new(),
            },
        );
        HibernateImage {
            source: "reg [7:0] cnt = 1;\nalways @(posedge clk.val) cnt <= cnt + 1;".to_string(),
            states,
            iterations: 1234,
            finished: false,
            wall_seconds: 0.125,
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let img = sample();
        let bytes = img.to_bytes();
        let back = HibernateImage::from_bytes(&bytes).expect("decode");
        assert_eq!(img, back);
    }

    #[test]
    fn empty_round_trips() {
        let img = HibernateImage::empty();
        assert!(img.is_empty());
        let back = HibernateImage::from_bytes(&img.to_bytes()).expect("decode");
        assert_eq!(img, back);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                HibernateImage::from_bytes(&bytes[..cut]).is_err(),
                "truncated at {cut} must fail"
            );
        }
    }

    /// A register claiming width `u32::MAX` with no words is refused, not
    /// decoded into a 512 MB value.
    #[test]
    fn hostile_bit_vector_is_refused() {
        let mut img = HibernateImage::empty();
        let mut regs = BTreeMap::new();
        regs.insert("r".to_string(), Bits::from_u64(8, 1));
        img.states.insert(
            "main".to_string(),
            EngineState {
                regs,
                mems: BTreeMap::new(),
            },
        );
        let mut bytes = img.to_bytes();
        // The register's value is the last 16 bytes before its engine's
        // (empty) memory count: width u32, word count u64, one word.
        let at = bytes.len() - 8 - 8 - 8 - 4;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes[at + 4..at + 12].copy_from_slice(&0u64.to_le_bytes());
        let err = HibernateImage::from_bytes(&bytes).expect_err("refused");
        assert!(err.contains("words"), "{err}");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(HibernateImage::from_bytes(&bytes).is_err());
    }
}
