//! Core bit-vector storage and structural operations.

/// An arbitrary-width two-state bit vector.
///
/// Widths of 64 bits or fewer are stored inline; wider values are stored in a
/// boxed word slice. Every value is kept *canonical*: bits above `width` are
/// zero, so word-wise equality and hashing are well defined.
///
/// The zero-width vector is permitted (it arises from empty concatenations
/// during lowering) and behaves as an empty value equal to itself.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bits {
    width: u32,
    repr: Repr,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small(u64),
    Big(Box<[u64]>),
}

pub(crate) const WORD_BITS: u32 = 64;

#[inline]
pub(crate) fn words_for(width: u32) -> usize {
    width.div_ceil(WORD_BITS) as usize
}

/// Mask covering the valid bits of the top word of a `width`-bit value.
#[inline]
pub(crate) fn top_mask(width: u32) -> u64 {
    let rem = width % WORD_BITS;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

impl Bits {
    /// Creates a zero-valued vector of the given width.
    ///
    /// # Examples
    ///
    /// ```
    /// # use cascade_bits::Bits;
    /// assert_eq!(Bits::zero(128).count_ones(), 0);
    /// ```
    pub fn zero(width: u32) -> Self {
        if width <= WORD_BITS {
            Bits {
                width,
                repr: Repr::Small(0),
            }
        } else {
            Bits {
                width,
                repr: Repr::Big(vec![0u64; words_for(width)].into_boxed_slice()),
            }
        }
    }

    /// Creates an all-ones vector of the given width.
    ///
    /// # Examples
    ///
    /// ```
    /// # use cascade_bits::Bits;
    /// assert_eq!(Bits::ones(7).to_u64(), 0x7f);
    /// ```
    pub fn ones(width: u32) -> Self {
        let mut b = Bits::zero(width);
        for w in b.words_mut() {
            *w = u64::MAX;
        }
        b.canonicalize();
        b
    }

    /// Creates a vector of the given width from the low bits of `value`.
    ///
    /// Bits of `value` above `width` are discarded; if `width > 64` the value
    /// is zero-extended.
    ///
    /// # Examples
    ///
    /// ```
    /// # use cascade_bits::Bits;
    /// assert_eq!(Bits::from_u64(4, 0xff).to_u64(), 0xf);
    /// ```
    #[inline]
    pub fn from_u64(width: u32, value: u64) -> Self {
        if width <= WORD_BITS {
            // The common case (every port of the Fig. 11/12 designs) is
            // one masked word; `top_mask(0)` is all ones, hence the guard.
            let mask = if width == 0 { 0 } else { top_mask(width) };
            return Bits {
                width,
                repr: Repr::Small(value & mask),
            };
        }
        let mut b = Bits::zero(width);
        b.words_mut()[0] = value;
        b.canonicalize();
        b
    }

    /// Creates a one-bit vector from a boolean.
    #[inline]
    pub fn from_bool(value: bool) -> Self {
        Bits::from_u64(1, value as u64)
    }

    /// Creates a vector from little-endian 64-bit words.
    ///
    /// Extra words are ignored and missing words are zero.
    pub fn from_words(width: u32, words: &[u64]) -> Self {
        let mut b = Bits::zero(width);
        let n = b.word_len();
        for (dst, src) in b.words_mut().iter_mut().zip(words.iter().take(n)) {
            *dst = *src;
        }
        b.canonicalize();
        b
    }

    /// The width of this vector in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Whether the width is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// The little-endian word representation.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Small(w) => std::slice::from_ref(w),
            Repr::Big(ws) => ws,
        }
    }

    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Small(w) => std::slice::from_mut(w),
            Repr::Big(ws) => ws,
        }
    }

    #[inline]
    pub(crate) fn word_len(&self) -> usize {
        self.words().len()
    }

    /// Zeroes any bits above `width`, restoring the canonical form.
    #[inline]
    pub(crate) fn canonicalize(&mut self) {
        if self.width == 0 {
            match &mut self.repr {
                Repr::Small(w) => *w = 0,
                Repr::Big(_) => unreachable!("zero-width Big repr"),
            }
            return;
        }
        let mask = top_mask(self.width);
        let last = self.word_len() - 1;
        self.words_mut()[last] &= mask;
    }

    /// The value as a `u64`, truncating any bits above 64.
    ///
    /// # Examples
    ///
    /// ```
    /// # use cascade_bits::Bits;
    /// let wide = Bits::ones(100);
    /// assert_eq!(wide.to_u64(), u64::MAX);
    /// ```
    #[inline]
    pub fn to_u64(&self) -> u64 {
        if self.width == 0 {
            0
        } else {
            self.words()[0]
        }
    }

    /// Whether any bit is set (Verilog truthiness).
    #[inline]
    pub fn to_bool(&self) -> bool {
        self.words().iter().any(|&w| w != 0)
    }

    /// Whether all bits fit in 64 bits without loss.
    pub fn fits_u64(&self) -> bool {
        self.words().iter().skip(1).all(|&w| w == 0)
    }

    /// The bit at `index`, or `false` when out of range (Verilog reads of
    /// out-of-range selects return zero in two-state mode).
    #[inline]
    pub fn bit(&self, index: u32) -> bool {
        if index >= self.width {
            return false;
        }
        let word = (index / WORD_BITS) as usize;
        let off = index % WORD_BITS;
        (self.words()[word] >> off) & 1 == 1
    }

    /// Sets the bit at `index`. Out-of-range writes are ignored.
    pub fn set_bit(&mut self, index: u32, value: bool) {
        if index >= self.width {
            return;
        }
        let word = (index / WORD_BITS) as usize;
        let off = index % WORD_BITS;
        let w = &mut self.words_mut()[word];
        if value {
            *w |= 1u64 << off;
        } else {
            *w &= !(1u64 << off);
        }
    }

    /// Extracts bits `[lo, lo + width)`, zero-filling beyond the source.
    ///
    /// This implements Verilog part-selects (`x[h:l]`, `x[l +: w]`).
    ///
    /// # Examples
    ///
    /// ```
    /// # use cascade_bits::Bits;
    /// let x = Bits::from_u64(16, 0xabcd);
    /// assert_eq!(x.slice(4, 8).to_u64(), 0xbc);
    /// ```
    pub fn slice(&self, lo: u32, width: u32) -> Bits {
        let mut out = Bits::zero(width);
        if width == 0 {
            return out;
        }
        let word_off = (lo / WORD_BITS) as usize;
        let bit_off = lo % WORD_BITS;
        let src = self.words();
        let n = out.word_len();
        {
            let dst = out.words_mut();
            for (i, d) in dst.iter_mut().enumerate().take(n) {
                let idx = word_off + i;
                let low = src.get(idx).copied().unwrap_or(0);
                let mut v = low >> bit_off;
                if bit_off != 0 {
                    let high = src.get(idx + 1).copied().unwrap_or(0);
                    v |= high << (WORD_BITS - bit_off);
                }
                *d = v;
            }
        }
        out.canonicalize();
        out
    }

    /// Writes `src` into bits `[lo, lo + src.width())`; bits that fall outside
    /// `self` are discarded.
    ///
    /// This implements part-select assignment targets.
    pub fn splice(&mut self, lo: u32, src: &Bits) {
        for i in 0..src.width() {
            let dst = lo.checked_add(i);
            if let Some(d) = dst {
                if d < self.width {
                    self.set_bit(d, src.bit(i));
                }
            }
        }
    }

    /// Returns this value zero-extended or truncated to `width`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use cascade_bits::Bits;
    /// assert_eq!(Bits::from_u64(8, 0xff).resize(4).to_u64(), 0xf);
    /// assert_eq!(Bits::from_u64(4, 0xf).resize(8).to_u64(), 0xf);
    /// ```
    pub fn resize(&self, width: u32) -> Bits {
        if width == self.width {
            return self.clone();
        }
        if width <= WORD_BITS {
            // Word fast path: truncation to (or zero-extension within) a
            // single word is one masked copy, no slice walk.
            return Bits::from_u64(width, self.to_u64());
        }
        let mut out = Bits::zero(width);
        let n = out.word_len().min(self.word_len());
        let src = self.words();
        out.words_mut()[..n].copy_from_slice(&src[..n]);
        out.canonicalize();
        out
    }

    /// Returns this value sign-extended or truncated to `width`.
    pub fn resize_signed(&self, width: u32) -> Bits {
        if width <= self.width {
            return self.resize(width);
        }
        let mut out = self.resize(width);
        if self.width > 0 && self.bit(self.width - 1) {
            for i in self.width..width {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Concatenates `self` above `low` (`{self, low}` in Verilog).
    ///
    /// # Examples
    ///
    /// ```
    /// # use cascade_bits::Bits;
    /// let hi = Bits::from_u64(4, 0xa);
    /// let lo = Bits::from_u64(8, 0xbc);
    /// assert_eq!(hi.concat(&lo).to_u64(), 0xabc);
    /// ```
    pub fn concat(&self, low: &Bits) -> Bits {
        let width = self.width + low.width;
        let mut out = low.resize(width);
        out.splice(low.width, self);
        out
    }

    /// Repeats this value `count` times (`{count{self}}` in Verilog).
    pub fn repeat(&self, count: u32) -> Bits {
        let mut out = Bits::zero(self.width * count);
        for i in 0..count {
            out.splice(i * self.width, self);
        }
        out
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// Index of the most significant set bit, or `None` if zero.
    pub fn leading_one(&self) -> Option<u32> {
        for (i, &w) in self.words().iter().enumerate().rev() {
            if w != 0 {
                return Some(i as u32 * WORD_BITS + (63 - w.leading_zeros()));
            }
        }
        None
    }

    /// The most significant bit (the sign bit under signed interpretation).
    #[inline]
    pub fn msb(&self) -> bool {
        if self.width == 0 {
            false
        } else {
            self.bit(self.width - 1)
        }
    }

    /// Interprets the value as a signed integer, returning its value as
    /// `i64` when the width is at most 64 bits.
    #[inline]
    pub fn to_i64(&self) -> i64 {
        if self.width == 0 {
            return 0;
        }
        let v = self.to_u64();
        if self.width >= 64 {
            v as i64
        } else if self.msb() {
            (v | !((1u64 << self.width) - 1)) as i64
        } else {
            v as i64
        }
    }

    /// Iterates over bits from least significant to most significant.
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.width).map(move |i| self.bit(i))
    }
}

impl Default for Bits {
    /// A zero-width empty value.
    fn default() -> Self {
        Bits::zero(0)
    }
}

impl From<bool> for Bits {
    fn from(b: bool) -> Self {
        Bits::from_bool(b)
    }
}

impl From<u64> for Bits {
    /// A 64-bit vector holding `value` (widths follow Verilog's unsized
    /// literal convention of at least 32 bits; we use the full 64).
    fn from(value: u64) -> Self {
        Bits::from_u64(64, value)
    }
}

impl FromIterator<bool> for Bits {
    /// Collects bits from least significant to most significant.
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        let mut out = Bits::zero(bits.len() as u32);
        for (i, b) in bits.iter().enumerate() {
            out.set_bit(i as u32, *b);
        }
        out
    }
}
