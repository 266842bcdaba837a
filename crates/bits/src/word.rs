//! The narrow-word operator table: what every Verilog operator computes on
//! values of at most 64 bits, each held canonically in a `u64` (bits above
//! its width zero).
//!
//! Both fast engines compute through this table: the bytecode engine
//! (`cascade_sim::CompiledSim` and its compile-time folder) and the netlist
//! lane kernels (`cascade_netlist`'s `exec_lanes`). The oracles — the
//! tree-walking simulator and the netlist reference evaluator — compute
//! through [`Bits`](crate::Bits) only, so the differential fuzzers compare
//! this table against an independent implementation; the crate's tests hold
//! every entry to the `Bits` operator exhaustively at widths ≤ 8.
//!
//! An operation "at width `w`" takes operands canonical at `w` and returns
//! a result canonical at `w`. On such operands, each operation with a
//! `w`-bit result other than `>>>`, evaluated at width 64 and then masked to
//! `w`, equals the operation at `w`. That is how the lane kernels call the
//! operations whose kernel carries no width: at 64, narrowed by the
//! instruction's result mask.

use crate::{sext, wmask};
use std::cmp::Ordering;

/// The binary operations the bytecode engine dispatches on one opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NOp {
    Add,
    Sub,
    Mul,
    DivU,
    RemU,
    And,
    Or,
    Xor,
    Xnor,
    Shl,
    Shr,
    Pow,
}

impl NOp {
    /// `a op b` at width `w`; the shifts shift a `w`-bit `a` by `b`, and
    /// `Pow` raises `a` to the power `b`.
    // Always inlined: the bytecode's dispatch loop runs one per binary op,
    // and left to itself the compiler kept this match out of line there.
    #[inline(always)]
    pub fn eval(self, a: u64, b: u64, w: u32) -> u64 {
        match self {
            NOp::Add => add(a, b, w),
            NOp::Sub => sub(a, b, w),
            NOp::Mul => mul(a, b, w),
            NOp::DivU => divu(a, b, w),
            NOp::RemU => remu(a, b, w),
            NOp::And => a & b,
            NOp::Or => a | b,
            NOp::Xor => a ^ b,
            NOp::Xnor => xnor(a, b, w),
            NOp::Shl => shl(a, b, w),
            NOp::Shr => shr(a, b, w),
            NOp::Pow => pow(a, b, w),
        }
    }
}

/// `a + b`, wrapping at width `w`.
#[inline]
pub fn add(a: u64, b: u64, w: u32) -> u64 {
    a.wrapping_add(b) & wmask(w)
}

/// `a - b`, wrapping at width `w`.
#[inline]
pub fn sub(a: u64, b: u64, w: u32) -> u64 {
    a.wrapping_sub(b) & wmask(w)
}

/// `a * b`, wrapping at width `w`.
#[inline]
pub fn mul(a: u64, b: u64, w: u32) -> u64 {
    a.wrapping_mul(b) & wmask(w)
}

/// `-a` (two's complement) at width `w`.
#[inline]
pub fn neg(a: u64, w: u32) -> u64 {
    a.wrapping_neg() & wmask(w)
}

/// `~a` at width `w`.
#[inline]
pub fn not(a: u64, w: u32) -> u64 {
    !a & wmask(w)
}

/// `a ~^ b` at width `w`.
#[inline]
pub fn xnor(a: u64, b: u64, w: u32) -> u64 {
    !(a ^ b) & wmask(w)
}

/// Unsigned `a / b` at width `w`. Division by zero yields all ones, the
/// two-state substitute for Verilog's `x`.
#[inline]
pub fn divu(a: u64, b: u64, w: u32) -> u64 {
    a.checked_div(b).unwrap_or(wmask(w))
}

/// Unsigned `a % b` at width `w`; modulo zero yields all ones.
#[inline]
pub fn remu(a: u64, b: u64, w: u32) -> u64 {
    a.checked_rem(b).unwrap_or(wmask(w))
}

/// Signed `a / b` of an `aw`-bit `a` by a `bw`-bit `b`, truncating toward
/// zero, at a result width `w ≤ max(aw, bw)`. Division by zero yields all
/// ones; the one overflowing quotient, `MIN / -1` at 64 bits, wraps to
/// `MIN`.
#[inline]
pub fn divs(a: u64, aw: u32, b: u64, bw: u32, w: u32) -> u64 {
    if b == 0 {
        wmask(w)
    } else {
        sext(a, aw).wrapping_div(sext(b, bw)) as u64 & wmask(w)
    }
}

/// Signed `a % b` (the remainder takes the dividend's sign), operands and
/// result widths as [`divs`]; modulo zero yields all ones.
#[inline]
pub fn rems(a: u64, aw: u32, b: u64, bw: u32, w: u32) -> u64 {
    if b == 0 {
        wmask(w)
    } else {
        sext(a, aw).wrapping_rem(sext(b, bw)) as u64 & wmask(w)
    }
}

/// `a << amt` for a `w`-bit `a`: zero once `amt ≥ w`.
#[inline]
pub fn shl(a: u64, amt: u64, w: u32) -> u64 {
    if amt >= u64::from(w) {
        0
    } else {
        (a << amt) & wmask(w)
    }
}

/// `a >> amt` for a `w`-bit `a`: zero once `amt ≥ w`.
#[inline]
pub fn shr(a: u64, amt: u64, w: u32) -> u64 {
    if amt >= u64::from(w) {
        0
    } else {
        a >> amt
    }
}

/// `a >>> amt` for a signed `w`-bit `a`: the sign fills once `amt ≥ w`, and
/// a 0-bit value stays 0.
#[inline]
pub fn ashr(a: u64, amt: u64, w: u32) -> u64 {
    if w == 0 {
        0
    } else {
        (sext(a, w) >> amt.min(63)) as u64 & wmask(w)
    }
}

/// `base ** exp`, wrapping at width `w` (square-and-multiply modulo 2^64,
/// then masked: multiplication modulo 2^w is a quotient of it).
#[inline]
pub fn pow(mut base: u64, mut exp: u64, w: u32) -> u64 {
    let mut acc: u64 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        exp >>= 1;
    }
    acc & wmask(w)
}

/// Unsigned comparison (operands zero-extend to a common width).
#[inline]
pub fn cmp_u(a: u64, b: u64) -> Ordering {
    a.cmp(&b)
}

/// Signed comparison of an `aw`-bit `a` with a `bw`-bit `b` (each
/// sign-extends from its own width).
#[inline]
pub fn cmp_s(a: u64, aw: u32, b: u64, bw: u32) -> Ordering {
    sext(a, aw).cmp(&sext(b, bw))
}

/// Reduction AND of a `w`-bit `a`: every bit set (true at width 0).
#[inline]
pub fn red_and(a: u64, w: u32) -> bool {
    a == wmask(w)
}

/// Reduction OR: any bit set.
#[inline]
pub fn red_or(a: u64) -> bool {
    a != 0
}

/// Reduction XOR: odd parity.
#[inline]
pub fn red_xor(a: u64) -> bool {
    a.count_ones() & 1 == 1
}

/// The `$random` state before any seeding.
pub const RANDOM_SEED: u64 = 0x2545_F491_4F6C_DD1D;

/// xorshift64*'s output multiplier.
const XORSHIFT_STAR: u64 = 0x2545_F491_4F6C_DD1D;

/// The `$random` state a seed selects (xorshift needs a nonzero state).
#[inline]
pub fn random_seed(seed: u64) -> u64 {
    seed | 1
}

/// One `$random` draw (xorshift64*): advances `state` and returns the next
/// 32-bit value.
#[inline]
pub fn random_next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(XORSHIFT_STAR) >> 32
}
