//! Arbitrary-width two-state bit vectors with Verilog operator semantics.
//!
//! [`Bits`] is the value type used by every evaluator in Cascade-rs: the
//! AST interpreter in `cascade-sim`, the netlist evaluator in
//! `cascade-netlist`, and the MMIO register file in `cascade-fpga`. Values
//! carry an explicit bit width and all operators wrap to that width, mirroring
//! the semantics of synthesizable Verilog-2005 (two-state; see DESIGN.md for
//! the X/Z substitution note).
//!
//! # Examples
//!
//! ```
//! use cascade_bits::Bits;
//!
//! let x = Bits::from_u64(8, 0x80);
//! let rol = if x == Bits::from_u64(8, 0x80) {
//!     Bits::from_u64(8, 1)
//! } else {
//!     x.shl(1)
//! };
//! assert_eq!(rol.to_u64(), 1);
//! ```

mod bv;
mod fmt;
mod ops;
mod parse;
pub mod prng;
pub mod word;

pub use bv::Bits;
pub use parse::ParseBitsError;
pub use prng::Prng;

/// Mask covering the low `w` bits of a word: `0` at width 0, all ones
/// from width 64 up.
#[inline]
pub fn wmask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Sign-extends the low `w` bits of `v` to an `i64`: `0` at width 0, `v`
/// itself from width 64 up.
#[inline]
pub fn sext(v: u64, w: u32) -> i64 {
    if w == 0 {
        0
    } else if w >= 64 {
        v as i64
    } else {
        ((v << (64 - w)) as i64) >> (64 - w)
    }
}

#[cfg(test)]
mod tests;
