//! Verilog operator semantics over [`Bits`].
//!
//! All arithmetic wraps to the width of `self` (the left operand); callers —
//! i.e. the type checker and lowering passes — are responsible for widening
//! operands to the expression's self-determined width *before* applying an
//! operator, exactly as a Verilog elaborator does.

use crate::bv::{top_mask, Bits, WORD_BITS};
use std::cmp::Ordering;

/// Word `i` of `x` sign-extended to an unbounded width: padding bits of the
/// top word and words past the end read as the sign fill.
fn sext_word(x: &Bits, i: usize, neg: bool) -> u64 {
    let words = x.words();
    let fill = if neg { u64::MAX } else { 0 };
    let Some(&w) = words.get(i) else { return fill };
    if neg && i == words.len() - 1 {
        w | !top_mask(x.width())
    } else {
        w
    }
}

impl Bits {
    fn zip_words(&self, rhs: &Bits, f: impl Fn(u64, u64) -> u64) -> Bits {
        let mut out = Bits::zero(self.width().max(rhs.width()));
        let n = out.word_len();
        {
            let dst = out.words_mut();
            let a = self.words();
            let b = rhs.words();
            for (i, d) in dst.iter_mut().enumerate().take(n) {
                let x = a.get(i).copied().unwrap_or(0);
                let y = b.get(i).copied().unwrap_or(0);
                *d = f(x, y);
            }
        }
        out.canonicalize();
        out
    }

    /// Bitwise AND (`a & b`), zero-extending the narrower operand.
    pub fn and(&self, rhs: &Bits) -> Bits {
        self.zip_words(rhs, |a, b| a & b)
    }

    /// Bitwise OR (`a | b`).
    pub fn or(&self, rhs: &Bits) -> Bits {
        self.zip_words(rhs, |a, b| a | b)
    }

    /// Bitwise XOR (`a ^ b`).
    pub fn xor(&self, rhs: &Bits) -> Bits {
        self.zip_words(rhs, |a, b| a ^ b)
    }

    /// Bitwise XNOR (`a ~^ b`).
    pub fn xnor(&self, rhs: &Bits) -> Bits {
        self.zip_words(rhs, |a, b| !(a ^ b))
    }

    /// Bitwise NOT (`~a`).
    pub fn not(&self) -> Bits {
        let mut out = self.clone();
        for w in out.words_mut() {
            *w = !*w;
        }
        out.canonicalize();
        out
    }

    /// Reduction AND (`&a`): true when every bit is set.
    pub fn reduce_and(&self) -> bool {
        if self.width() == 0 {
            return true;
        }
        let n = self.word_len();
        let ws = self.words();
        for &w in &ws[..n - 1] {
            if w != u64::MAX {
                return false;
            }
        }
        ws[n - 1] == top_mask(self.width())
    }

    /// Reduction OR (`|a`): true when any bit is set.
    pub fn reduce_or(&self) -> bool {
        self.to_bool()
    }

    /// Reduction XOR (`^a`): parity of the set bits.
    pub fn reduce_xor(&self) -> bool {
        self.count_ones() % 2 == 1
    }

    /// Wrapping addition to the width of the wider operand.
    ///
    /// # Examples
    ///
    /// ```
    /// # use cascade_bits::Bits;
    /// let a = Bits::from_u64(8, 0xff);
    /// assert_eq!(a.add(&Bits::from_u64(8, 1)).to_u64(), 0);
    /// ```
    pub fn add(&self, rhs: &Bits) -> Bits {
        let mut out = Bits::zero(self.width().max(rhs.width()));
        let n = out.word_len();
        let mut carry = 0u64;
        {
            let dst = out.words_mut();
            let a = self.words();
            let b = rhs.words();
            for (i, d) in dst.iter_mut().enumerate().take(n) {
                let x = a.get(i).copied().unwrap_or(0);
                let y = b.get(i).copied().unwrap_or(0);
                let (s1, c1) = x.overflowing_add(y);
                let (s2, c2) = s1.overflowing_add(carry);
                *d = s2;
                carry = (c1 as u64) + (c2 as u64);
            }
        }
        out.canonicalize();
        out
    }

    /// Wrapping subtraction (`a - b`).
    pub fn sub(&self, rhs: &Bits) -> Bits {
        let w = self.width().max(rhs.width());
        // a - b == a + ~b + 1 at width w.
        let nb = rhs.resize(w).not();
        self.resize(w)
            .add(&nb)
            .add(&Bits::from_u64(w.max(1), 1))
            .resize(w)
    }

    /// Two's-complement negation (`-a`).
    pub fn neg(&self) -> Bits {
        Bits::zero(self.width()).sub(self)
    }

    /// Wrapping multiplication to the width of the wider operand.
    pub fn mul(&self, rhs: &Bits) -> Bits {
        let w = self.width().max(rhs.width());
        let mut out = Bits::zero(w);
        let n = out.word_len();
        let a = self.words();
        let b = rhs.words();
        for (i, &x) in a.iter().enumerate() {
            if x == 0 || i >= n {
                continue;
            }
            let mut carry: u128 = 0;
            for (j, &y) in b.iter().enumerate() {
                if i + j >= n {
                    break;
                }
                let idx = i + j;
                let cur = out.words()[idx] as u128;
                let prod = (x as u128) * (y as u128) + cur + carry;
                out.words_mut()[idx] = prod as u64;
                carry = prod >> 64;
            }
            // Propagate any remaining carry.
            let mut idx = i + b.len();
            while carry != 0 && idx < n {
                let sum = out.words()[idx] as u128 + carry;
                out.words_mut()[idx] = sum as u64;
                carry = sum >> 64;
                idx += 1;
            }
        }
        out.canonicalize();
        out
    }

    /// Unsigned division (`a / b`). Division by zero yields all-ones, the
    /// conventional two-state substitute for Verilog's `x` result.
    pub fn div(&self, rhs: &Bits) -> Bits {
        let w = self.width().max(rhs.width());
        if !rhs.to_bool() {
            return Bits::ones(w);
        }
        if self.fits_u64() && rhs.fits_u64() {
            return Bits::from_u64(w, self.to_u64() / rhs.to_u64());
        }
        self.divmod_big(rhs).0.resize(w)
    }

    /// Unsigned remainder (`a % b`). Modulo zero yields all-ones.
    pub fn rem(&self, rhs: &Bits) -> Bits {
        let w = self.width().max(rhs.width());
        if !rhs.to_bool() {
            return Bits::ones(w);
        }
        if self.fits_u64() && rhs.fits_u64() {
            return Bits::from_u64(w, self.to_u64() % rhs.to_u64());
        }
        self.divmod_big(rhs).1.resize(w)
    }

    /// Signed division (`a / b` with both operands signed), truncating
    /// toward zero at the width of the wider operand. Division by zero
    /// yields all-ones.
    pub fn sdiv(&self, rhs: &Bits) -> Bits {
        let w = self.width().max(rhs.width());
        if !rhs.to_bool() {
            return Bits::ones(w);
        }
        let q = self.magnitude().div(&rhs.magnitude());
        if self.msb() ^ rhs.msb() {
            q.neg()
        } else {
            q
        }
    }

    /// Signed remainder (`a % b` with both operands signed), taking the
    /// sign of the dividend. Modulo zero yields all-ones.
    pub fn srem(&self, rhs: &Bits) -> Bits {
        let w = self.width().max(rhs.width());
        if !rhs.to_bool() {
            return Bits::ones(w);
        }
        let m = self.magnitude().rem(&rhs.magnitude());
        if self.msb() {
            m.neg()
        } else {
            m
        }
    }

    /// The absolute value of `self` read as two's complement (`MIN` stays
    /// `MIN`, which is its magnitude read unsigned).
    fn magnitude(&self) -> Bits {
        if self.msb() {
            self.neg()
        } else {
            self.clone()
        }
    }

    /// Schoolbook bit-serial division for wide operands.
    fn divmod_big(&self, rhs: &Bits) -> (Bits, Bits) {
        let w = self.width().max(rhs.width());
        let mut quo = Bits::zero(w);
        let mut rem = Bits::zero(w + 1);
        let den = rhs.resize(w + 1);
        for i in (0..self.width()).rev() {
            rem = rem.shl(1);
            rem.set_bit(0, self.bit(i));
            if rem.cmp_unsigned(&den) != Ordering::Less {
                rem = rem.sub(&den);
                if i < w {
                    quo.set_bit(i, true);
                }
            }
        }
        (quo, rem.resize(w))
    }

    /// Power (`a ** b`), wrapping to the width of `a`.
    pub fn pow(&self, rhs: &Bits) -> Bits {
        let mut result = Bits::from_u64(self.width().max(1), 1).resize(self.width());
        let mut base = self.clone();
        let mut exp = rhs.to_u64();
        if !rhs.fits_u64() {
            // Enormous exponents of 0/1 bases still terminate; anything else
            // saturates the wrap behaviour identically to exp's low 64 bits.
            exp = u64::MAX;
        }
        while exp > 0 {
            if exp & 1 == 1 {
                result = result.mul(&base).resize(self.width());
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul(&base).resize(self.width());
            }
        }
        result
    }

    /// Logical shift left by a dynamic amount, keeping the width of `self`.
    pub fn shl(&self, amount: u32) -> Bits {
        if amount >= self.width() {
            return Bits::zero(self.width());
        }
        let mut out = Bits::zero(self.width());
        let word_shift = (amount / WORD_BITS) as usize;
        let bit_shift = amount % WORD_BITS;
        let n = out.word_len();
        {
            let src = self.words();
            let dst = out.words_mut();
            for i in (0..n).rev() {
                if i < word_shift {
                    break;
                }
                let mut v = src[i - word_shift] << bit_shift;
                if bit_shift != 0 && i > word_shift {
                    v |= src[i - word_shift - 1] >> (WORD_BITS - bit_shift);
                }
                dst[i] = v;
            }
        }
        out.canonicalize();
        out
    }

    /// Logical shift right by a dynamic amount.
    pub fn shr(&self, amount: u32) -> Bits {
        if amount >= self.width() {
            return Bits::zero(self.width());
        }
        self.slice(amount, self.width() - amount)
            .resize(self.width())
    }

    /// Arithmetic shift right (`>>>` under signed interpretation).
    pub fn ashr(&self, amount: u32) -> Bits {
        if self.width() == 0 {
            return self.clone();
        }
        let sign = self.msb();
        if amount >= self.width() {
            return if sign {
                Bits::ones(self.width())
            } else {
                Bits::zero(self.width())
            };
        }
        let mut out = self.shr(amount);
        if sign {
            for i in (self.width() - amount)..self.width() {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Unsigned comparison.
    ///
    /// Operands of different widths compare by value (zero-extension).
    pub fn cmp_unsigned(&self, rhs: &Bits) -> Ordering {
        let n = self.word_len().max(rhs.word_len());
        for i in (0..n).rev() {
            let a = self.words().get(i).copied().unwrap_or(0);
            let b = rhs.words().get(i).copied().unwrap_or(0);
            match a.cmp(&b) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Signed comparison at the width of the wider operand.
    pub fn cmp_signed(&self, rhs: &Bits) -> Ordering {
        let a_neg = self.msb();
        let b_neg = rhs.msb();
        match (a_neg, b_neg) {
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            _ => {}
        }
        // Same sign: word-wise unsigned comparison of the sign-extended
        // two's-complement patterns orders correctly, and extending on the
        // fly avoids materializing resized copies of both operands.
        let n = self.word_len().max(rhs.word_len());
        for i in (0..n).rev() {
            let a = sext_word(self, i, a_neg);
            let b = sext_word(rhs, i, b_neg);
            match a.cmp(&b) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Verilog equality by value (`==`), with zero extension.
    pub fn eq_value(&self, rhs: &Bits) -> bool {
        self.cmp_unsigned(rhs) == Ordering::Equal
    }
}
