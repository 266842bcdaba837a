//! Tiny length-prefixed binary codec shared by every durable record
//! type (journal records, checkpoint images, bitstream-store entries).
//! Little-endian, explicit lengths, bounds-checked reads, kept
//! dependency-free. The hibernation image in `cascade-core` is encoded
//! and decoded through it too, so every durable format has one reader.

use cascade_bits::Bits;

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a length-prefixed byte blob.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Appends a bit vector: width, word count, words.
pub fn put_bits(out: &mut Vec<u8>, b: &Bits) {
    put_u32(out, b.width());
    let words = b.words();
    put_u64(out, words.len() as u64);
    for w in words {
        put_u64(out, *w);
    }
}

/// Bounds-checked cursor over an encoded record. Every method returns a
/// descriptive error instead of panicking — corrupt bytes must surface
/// as quarantine decisions, not crashes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "record truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix, sanity-capped by the bytes remaining.
    pub fn len_prefix(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(format!("length {n} exceeds remaining {}", self.remaining()));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, String> {
        let n = self.len_prefix()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid utf-8: {e}"))
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let n = self.len_prefix()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a bit vector written by [`put_bits`]. A width-`w` value is
    /// exactly `ceil(w/64).max(1)` words; any other count is refused before
    /// anything is allocated.
    pub fn bits(&mut self) -> Result<Bits, String> {
        let width = self.u32()?;
        let n = self.u64()?;
        let expect = u64::from(width).div_ceil(64).max(1);
        if n != expect {
            return Err(format!(
                "bits width {width} with {n} words (expected {expect})"
            ));
        }
        if n > (self.remaining() / 8) as u64 {
            return Err(format!("bits word count {n} exceeds remaining bytes"));
        }
        let mut words = Vec::with_capacity(n as usize);
        for _ in 0..n {
            words.push(self.u64()?);
        }
        Ok(Bits::from_words(width, &words))
    }

    /// Fails if any bytes remain — records must be consumed exactly.
    pub fn finish(self) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!("{} trailing bytes in record", self.remaining()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, -1234.5);
        put_str(&mut buf, "journal ≠ log");
        put_bytes(&mut buf, &[1, 2, 3]);
        put_bits(&mut buf, &Bits::from_u64(48, 0xabcd_1234_5678));
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), -1234.5);
        assert_eq!(r.string().unwrap(), "journal ≠ log");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        let b = r.bits().unwrap();
        assert_eq!((b.width(), b.to_u64()), (48, 0xabcd_1234_5678));
        r.finish().unwrap();
    }

    /// A bit vector's word count is fixed by its width. Hostile bytes
    /// that disagree are refused before anything is allocated: 12 bytes
    /// claiming width `u32::MAX` and no words must not decode into a
    /// 512 MB zeroed value.
    #[test]
    fn bits_reject_a_word_count_that_does_not_match_the_width() {
        for (width, words) in [(200u32, 1u64), (64, 2), (0, 0), (u32::MAX, 0)] {
            let mut buf = Vec::new();
            put_u32(&mut buf, width);
            put_u64(&mut buf, words);
            for _ in 0..words {
                put_u64(&mut buf, 0);
            }
            assert!(
                Reader::new(&buf).bits().is_err(),
                "width {width} with {words} words must be refused"
            );
        }
        for width in [0u32, 1, 64, 65, 200] {
            let mut buf = Vec::new();
            put_bits(&mut buf, &Bits::zero(width));
            let b = Reader::new(&buf)
                .bits()
                .expect("a well-formed value decodes");
            assert_eq!(b.width(), width);
        }
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        let cut = &buf[..buf.len() - 2];
        let mut r = Reader::new(cut);
        assert!(r.string().is_err());
        let mut r2 = Reader::new(&buf[..4]);
        assert!(r2.u64().is_err());
    }
}
