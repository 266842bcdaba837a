use crate::Bits;
use std::cmp::Ordering;

#[test]
fn zero_and_ones() {
    assert_eq!(Bits::zero(9).to_u64(), 0);
    assert_eq!(Bits::ones(9).to_u64(), 0x1ff);
    assert_eq!(Bits::ones(64).to_u64(), u64::MAX);
    assert_eq!(Bits::ones(65).count_ones(), 65);
}

#[test]
fn from_u64_truncates() {
    assert_eq!(Bits::from_u64(4, 0x1234).to_u64(), 4);
    assert_eq!(Bits::from_u64(64, u64::MAX).to_u64(), u64::MAX);
    assert_eq!(Bits::from_u64(0, 99).to_u64(), 0);
}

/// The one-word fast path builds the value `from_words` canonicalizes
/// its way to, field for field.
#[test]
fn from_u64_fast_path_equals_from_words() {
    use std::hash::{Hash, Hasher};
    let hash = |b: &Bits| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    };
    for width in 0..=64u32 {
        let top = 1u64.checked_shl(width.wrapping_sub(1)).unwrap_or(0);
        for value in [0, 1, u64::MAX, 0xdead_beef_cafe_f00d, top] {
            let fast = Bits::from_u64(width, value);
            let slow = Bits::from_words(width, &[value]);
            assert_eq!(fast, slow, "width {width}, value {value:#x}");
            assert_eq!(fast.width(), width);
            assert_eq!(fast.to_u64(), slow.to_u64());
            assert_eq!(hash(&fast), hash(&slow));
        }
    }
    for value in [false, true] {
        assert_eq!(Bits::from_bool(value), Bits::from_words(1, &[value as u64]));
    }
}

#[test]
fn from_words_wide() {
    let b = Bits::from_words(128, &[1, 2]);
    assert_eq!(b.slice(64, 64).to_u64(), 2);
    assert_eq!(b.slice(0, 64).to_u64(), 1);
}

#[test]
fn bit_get_set() {
    let mut b = Bits::zero(70);
    b.set_bit(69, true);
    assert!(b.bit(69));
    assert!(!b.bit(68));
    // Out-of-range read is zero; write is ignored.
    assert!(!b.bit(1000));
    b.set_bit(1000, true);
    assert_eq!(b.count_ones(), 1);
}

#[test]
fn slice_and_splice() {
    let x = Bits::from_u64(16, 0xabcd);
    assert_eq!(x.slice(0, 4).to_u64(), 0xd);
    assert_eq!(x.slice(12, 4).to_u64(), 0xa);
    assert_eq!(x.slice(4, 8).to_u64(), 0xbc);
    // Slice past the end zero-fills.
    assert_eq!(x.slice(12, 8).to_u64(), 0xa);

    let mut y = Bits::zero(16);
    y.splice(4, &Bits::from_u64(8, 0xff));
    assert_eq!(y.to_u64(), 0x0ff0);
}

#[test]
fn slice_cross_word_boundary() {
    let b = Bits::from_words(128, &[0xdead_beef_0000_0000, 0x0000_0000_cafe_babe]);
    assert_eq!(b.slice(32, 64).to_u64(), 0xcafe_babe_dead_beef);
}

#[test]
fn concat_repeat() {
    let hi = Bits::from_u64(4, 0xa);
    let lo = Bits::from_u64(4, 0xb);
    let c = hi.concat(&lo);
    assert_eq!(c.width(), 8);
    assert_eq!(c.to_u64(), 0xab);
    assert_eq!(Bits::from_u64(2, 0b10).repeat(3).to_u64(), 0b101010);
    assert_eq!(Bits::from_u64(8, 1).repeat(0).width(), 0);
}

#[test]
fn resize_and_sign_extend() {
    assert_eq!(Bits::from_u64(8, 0x80).resize(16).to_u64(), 0x80);
    assert_eq!(Bits::from_u64(8, 0x80).resize_signed(16).to_u64(), 0xff80);
    assert_eq!(Bits::from_u64(8, 0x7f).resize_signed(16).to_u64(), 0x7f);
    assert_eq!(Bits::from_u64(16, 0xffff).resize_signed(8).to_u64(), 0xff);
}

#[test]
fn add_with_carry_across_words() {
    let a = Bits::from_words(128, &[u64::MAX, 0]);
    let one = Bits::from_u64(128, 1);
    let s = a.add(&one);
    assert_eq!(s.slice(64, 64).to_u64(), 1);
    assert_eq!(s.slice(0, 64).to_u64(), 0);
}

#[test]
fn add_wraps_at_width() {
    let a = Bits::from_u64(8, 0xff);
    assert_eq!(a.add(&Bits::from_u64(8, 2)).to_u64(), 1);
}

#[test]
fn sub_and_neg() {
    let a = Bits::from_u64(8, 5);
    let b = Bits::from_u64(8, 7);
    assert_eq!(a.sub(&b).to_u64(), 0xfe); // -2 mod 256
    assert_eq!(b.sub(&a).to_u64(), 2);
    assert_eq!(Bits::from_u64(8, 1).neg().to_u64(), 0xff);
    assert_eq!(Bits::zero(8).neg().to_u64(), 0);
}

#[test]
fn mul_wide() {
    let a = Bits::from_u64(128, u64::MAX);
    let sq = a.mul(&a);
    // (2^64-1)^2 = 2^128 - 2^65 + 1
    assert_eq!(sq.slice(0, 64).to_u64(), 1);
    assert_eq!(sq.slice(64, 64).to_u64(), u64::MAX - 1);
}

#[test]
fn mul_wraps() {
    let a = Bits::from_u64(8, 16);
    assert_eq!(a.mul(&a).to_u64(), 0); // 256 wraps to 0
}

#[test]
fn div_rem_small() {
    let a = Bits::from_u64(16, 1000);
    let b = Bits::from_u64(16, 7);
    assert_eq!(a.div(&b).to_u64(), 142);
    assert_eq!(a.rem(&b).to_u64(), 6);
}

#[test]
fn div_rem_wide() {
    let a = Bits::from_words(128, &[0, 1]); // 2^64
    let b = Bits::from_u64(128, 3);
    let q = a.div(&b);
    let r = a.rem(&b);
    assert_eq!(q.mul(&b).add(&r), a);
    assert_eq!(r.to_u64(), 1);
}

#[test]
fn div_by_zero_is_all_ones() {
    let a = Bits::from_u64(8, 42);
    assert_eq!(a.div(&Bits::zero(8)).to_u64(), 0xff);
    assert_eq!(a.rem(&Bits::zero(8)).to_u64(), 0xff);
}

#[test]
fn pow_semantics() {
    let two = Bits::from_u64(8, 2);
    assert_eq!(two.pow(&Bits::from_u64(8, 7)).to_u64(), 128);
    assert_eq!(two.pow(&Bits::from_u64(8, 8)).to_u64(), 0); // wraps
    assert_eq!(two.pow(&Bits::zero(8)).to_u64(), 1);
    assert_eq!(Bits::zero(8).pow(&Bits::zero(8)).to_u64(), 1);
}

#[test]
fn shifts() {
    let a = Bits::from_u64(8, 0b1001_0110);
    assert_eq!(a.shl(2).to_u64(), 0b0101_1000);
    assert_eq!(a.shr(2).to_u64(), 0b0010_0101);
    assert_eq!(a.shl(8).to_u64(), 0);
    assert_eq!(a.shr(100).to_u64(), 0);
    assert_eq!(a.ashr(2).to_u64(), 0b1110_0101);
    assert_eq!(Bits::from_u64(8, 0x70).ashr(2).to_u64(), 0x1c);
    assert_eq!(a.ashr(100).to_u64(), 0xff);
}

#[test]
fn shifts_wide() {
    let a = Bits::from_u64(128, 1);
    assert_eq!(a.shl(100).leading_one(), Some(100));
    assert_eq!(a.shl(100).shr(100).to_u64(), 1);
}

#[test]
fn logic_ops() {
    let a = Bits::from_u64(8, 0b1100);
    let b = Bits::from_u64(8, 0b1010);
    assert_eq!(a.and(&b).to_u64(), 0b1000);
    assert_eq!(a.or(&b).to_u64(), 0b1110);
    assert_eq!(a.xor(&b).to_u64(), 0b0110);
    assert_eq!(a.xnor(&b).to_u64(), 0xf9);
    assert_eq!(a.not().to_u64(), 0xf3);
}

#[test]
fn reductions() {
    assert!(Bits::ones(65).reduce_and());
    assert!(!Bits::from_u64(8, 0xfe).reduce_and());
    assert!(Bits::from_u64(8, 0x10).reduce_or());
    assert!(!Bits::zero(8).reduce_or());
    assert!(Bits::from_u64(8, 0b0111).reduce_xor());
    assert!(!Bits::from_u64(8, 0b0110).reduce_xor());
    assert!(Bits::zero(0).reduce_and()); // vacuous truth
}

#[test]
fn comparisons() {
    let a = Bits::from_u64(8, 5);
    let b = Bits::from_u64(16, 5);
    assert!(a.eq_value(&b));
    assert_eq!(a.cmp_unsigned(&Bits::from_u64(8, 9)), Ordering::Less);
    // Signed: 0xff (8-bit) is -1 < 1
    let neg1 = Bits::from_u64(8, 0xff);
    assert_eq!(neg1.cmp_signed(&Bits::from_u64(8, 1)), Ordering::Less);
    assert_eq!(neg1.cmp_unsigned(&Bits::from_u64(8, 1)), Ordering::Greater);
    assert_eq!(neg1.cmp_signed(&Bits::from_u64(8, 0xfe)), Ordering::Greater);
}

#[test]
fn to_i64() {
    assert_eq!(Bits::from_u64(8, 0xff).to_i64(), -1);
    assert_eq!(Bits::from_u64(8, 0x7f).to_i64(), 127);
    assert_eq!(Bits::from_u64(64, u64::MAX).to_i64(), -1);
    assert_eq!(Bits::zero(0).to_i64(), 0);
}

#[test]
fn formatting() {
    let b = Bits::from_u64(12, 0xabc);
    assert_eq!(b.to_hex_string(), "abc");
    assert_eq!(b.to_binary_string(), "101010111100");
    assert_eq!(b.to_decimal_string(), "2748");
    assert_eq!(b.to_octal_string(), "5274");
    assert_eq!(format!("{b}"), "12'habc");
    assert_eq!(format!("{b:#x}"), "0xabc");
}

#[test]
fn wide_decimal_formatting() {
    // 2^100 = 1267650600228229401496703205376
    let b = Bits::from_u64(101, 1).shl(100);
    assert_eq!(b.to_decimal_string(), "1267650600228229401496703205376");
}

#[test]
fn signed_decimal() {
    assert_eq!(Bits::from_u64(8, 0xff).to_signed_decimal_string(), "-1");
    assert_eq!(Bits::from_u64(8, 5).to_signed_decimal_string(), "5");
}

#[test]
fn parse_literals() {
    assert_eq!("8'hff".parse::<Bits>().unwrap().to_u64(), 0xff);
    assert_eq!("4'b1010".parse::<Bits>().unwrap().to_u64(), 0b1010);
    assert_eq!("8'o17".parse::<Bits>().unwrap().to_u64(), 0o17);
    assert_eq!("16'd1000".parse::<Bits>().unwrap().to_u64(), 1000);
    assert_eq!("'d42".parse::<Bits>().unwrap().width(), 32);
    assert_eq!("42".parse::<Bits>().unwrap().to_u64(), 42);
    assert_eq!("8'sd5".parse::<Bits>().unwrap().to_u64(), 5);
    assert_eq!(
        "32'hdead_beef".parse::<Bits>().unwrap().to_u64(),
        0xdead_beef
    );
    // Truncation: digits beyond the width wrap.
    assert_eq!("4'hff".parse::<Bits>().unwrap().to_u64(), 0xf);
}

#[test]
fn parse_errors() {
    assert!("8'hx".parse::<Bits>().is_err());
    assert!("8'q7".parse::<Bits>().is_err());
    assert!("8'h".parse::<Bits>().is_err());
    assert!("0'h1".parse::<Bits>().is_err());
    assert!("zz".parse::<Bits>().is_err());
}

#[test]
fn iterators() {
    let b: Bits = [true, false, true].into_iter().collect();
    assert_eq!(b.width(), 3);
    assert_eq!(b.to_u64(), 0b101);
    let round: Vec<bool> = b.iter_bits().collect();
    assert_eq!(round, vec![true, false, true]);
}

#[test]
fn leading_one() {
    assert_eq!(Bits::zero(32).leading_one(), None);
    assert_eq!(Bits::from_u64(32, 1).leading_one(), Some(0));
    assert_eq!(Bits::from_u64(128, 1).shl(77).leading_one(), Some(77));
}

#[test]
fn common_traits() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Bits>();
    let b = Bits::default();
    assert!(b.is_empty());
    assert_eq!(b, Bits::zero(0));
    let c: Bits = true.into();
    assert_eq!(c.width(), 1);
    let d: Bits = 7u64.into();
    assert_eq!(d.width(), 64);
}

#[test]
fn word_helpers_match_bits_exhaustively() {
    use crate::{sext, wmask};
    for w in 0..=8 {
        assert_eq!(wmask(w), Bits::ones(w).to_u64(), "wmask({w})");
        // Every 8-bit word, so bits above `w` must be ignored.
        for v in 0..=u8::MAX as u64 {
            let b = Bits::from_u64(w, v);
            assert_eq!(sext(v, w), b.to_i64(), "sext({v:#x}, {w})");
            assert_eq!(sext(v, w) as u64, b.resize_signed(64).to_u64());
        }
    }
    for w in [63, 64, 65] {
        assert_eq!(wmask(w), Bits::ones(w).resize(64).to_u64(), "wmask({w})");
    }
    assert_eq!(sext(1 << 62, 63), Bits::from_u64(63, 1 << 62).to_i64());
    assert_eq!(sext(u64::MAX, 64), -1);
}
