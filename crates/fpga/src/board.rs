//! The virtual development board: buttons, LEDs, GPIO, reset, and a
//! host-coupled FIFO.
//!
//! Peripherals are *externally visible shared state* — exactly the property
//! that forces Cascade to place standard-library components in hardware
//! from the first eval (paper Sec. 4.3). Both software and hardware engines
//! observe the same [`Board`], so a program's IO side effects are identical
//! in every compilation state.

use cascade_bits::Bits;
use std::collections::VecDeque;
use std::sync::Arc;
use std::sync::Mutex;

/// Shared handle to the board (cheaply cloneable).
#[derive(Debug, Clone, Default)]
pub struct Board {
    inner: Arc<Mutex<BoardState>>,
}

#[derive(Debug)]
struct BoardState {
    buttons: Bits,
    leds: Bits,
    gpio_out: Bits,
    gpio_in: Bits,
    reset: bool,
    fifo_in: VecDeque<Bits>,
    fifo_out: VecDeque<Bits>,
    fifo_capacity: usize,
    /// Cumulative LED writes (used by examples/tests to observe activity).
    led_writes: u64,
    /// Tokens consumed from the host->FPGA FIFO (Fig. 12's IO/s metric).
    fifo_pops: u64,
    /// While marking: tokens popped from `fifo_in` since the mark, oldest
    /// first, so a scrub rollback can push them back (see `fifo_rewind`).
    popped_log: Vec<Bits>,
    /// While marking: tokens pushed to `fifo_out` since the mark.
    out_since_mark: usize,
    /// Whether a speculation window is open (checkpoint taken but not yet
    /// verified by a readback scrub).
    marking: bool,
}

impl Default for BoardState {
    fn default() -> Self {
        BoardState {
            buttons: Bits::zero(4),
            leds: Bits::zero(8),
            gpio_out: Bits::zero(32),
            gpio_in: Bits::zero(32),
            reset: false,
            fifo_in: VecDeque::new(),
            fifo_out: VecDeque::new(),
            fifo_capacity: 64,
            led_writes: 0,
            fifo_pops: 0,
            popped_log: Vec::new(),
            out_since_mark: 0,
            marking: false,
        }
    }
}

impl Board {
    /// A board with the paper's IO complement: four buttons and a bank of
    /// LEDs.
    pub fn new() -> Board {
        Board::default()
    }

    /// Presses (or releases) one button.
    pub fn set_button(&self, index: u32, down: bool) {
        let mut st = self.inner.lock().expect("board mutex");
        st.buttons.set_bit(index, down);
    }

    /// Current button state (1 = pressed).
    pub fn buttons(&self) -> Bits {
        self.inner.lock().expect("board mutex").buttons.clone()
    }

    /// Drives the LED bank (called by engines).
    pub fn write_leds(&self, value: Bits) {
        let mut st = self.inner.lock().expect("board mutex");
        let value = value.resize(st.leds.width());
        if st.leds != value {
            st.led_writes += 1;
            st.leds = value;
        }
    }

    /// Current LED bank state.
    pub fn leds(&self) -> Bits {
        self.inner.lock().expect("board mutex").leds.clone()
    }

    /// Number of observable LED changes so far.
    pub fn led_writes(&self) -> u64 {
        self.inner.lock().expect("board mutex").led_writes
    }

    /// Sets GPIO input pins (host side).
    pub fn set_gpio(&self, value: Bits) {
        let mut st = self.inner.lock().expect("board mutex");
        let w = st.gpio_in.width();
        st.gpio_in = value.resize(w);
    }

    /// Reads GPIO input pins (engine side).
    pub fn gpio_in(&self) -> Bits {
        self.inner.lock().expect("board mutex").gpio_in.clone()
    }

    /// Drives GPIO output pins (engine side).
    pub fn write_gpio(&self, value: Bits) {
        let mut st = self.inner.lock().expect("board mutex");
        let w = st.gpio_out.width();
        st.gpio_out = value.resize(w);
    }

    /// Reads GPIO output pins (host side).
    pub fn gpio_out(&self) -> Bits {
        self.inner.lock().expect("board mutex").gpio_out.clone()
    }

    /// Asserts or releases the reset line.
    pub fn set_reset(&self, asserted: bool) {
        self.inner.lock().expect("board mutex").reset = asserted;
    }

    /// Current reset state.
    pub fn reset(&self) -> bool {
        self.inner.lock().expect("board mutex").reset
    }

    /// Host pushes one token toward the FPGA. Returns `false` when the FIFO
    /// is full (back pressure, paper Sec. 7.1).
    pub fn fifo_push(&self, value: Bits) -> bool {
        let mut st = self.inner.lock().expect("board mutex");
        if st.fifo_in.len() >= st.fifo_capacity {
            return false;
        }
        st.fifo_in.push_back(value);
        true
    }

    /// Engine pops one token from the host FIFO.
    pub fn fifo_pop(&self) -> Option<Bits> {
        let mut st = self.inner.lock().expect("board mutex");
        let v = st.fifo_in.pop_front();
        if let Some(v) = &v {
            st.fifo_pops += 1;
            if st.marking {
                st.popped_log.push(v.clone());
            }
        }
        v
    }

    /// Snapshot of the unconsumed host-FIFO tokens, oldest first. The
    /// durability layer checkpoints this residue so queued-but-unpopped
    /// tokens survive a server restart.
    pub fn fifo_snapshot(&self) -> Vec<Bits> {
        let st = self.inner.lock().expect("board mutex");
        st.fifo_in.iter().cloned().collect()
    }

    /// The host FIFO's `(empty, full)` flags, read under one lock (the
    /// FIFO component polls both every time it is touched).
    pub fn fifo_flags(&self) -> (bool, bool) {
        let st = self.inner.lock().expect("board mutex");
        (st.fifo_in.is_empty(), st.fifo_in.len() >= st.fifo_capacity)
    }

    /// Whether the host FIFO has data.
    pub fn fifo_nonempty(&self) -> bool {
        !self.fifo_flags().0
    }

    /// Whether the host FIFO is full.
    pub fn fifo_full(&self) -> bool {
        self.fifo_flags().1
    }

    /// Tokens consumed from the host FIFO so far (the IO/s numerator of
    /// the paper's Fig. 12).
    pub fn fifo_pops(&self) -> u64 {
        self.inner.lock().expect("board mutex").fifo_pops
    }

    /// Engine pushes one token toward the host.
    pub fn fifo_out_push(&self, value: Bits) {
        let mut st = self.inner.lock().expect("board mutex");
        if st.marking {
            st.out_since_mark += 1;
        }
        st.fifo_out.push_back(value);
    }

    /// Host drains tokens produced by the engine.
    pub fn fifo_out_drain(&self) -> Vec<Bits> {
        self.inner
            .lock()
            .expect("board mutex")
            .fifo_out
            .drain(..)
            .collect()
    }

    /// Changes the host FIFO depth.
    pub fn set_fifo_capacity(&self, capacity: usize) {
        self.inner.lock().expect("board mutex").fifo_capacity = capacity;
    }

    /// Opens a speculation window at a checkpoint: FIFO traffic from here
    /// on is journaled so `fifo_rewind` can undo it.
    pub fn fifo_mark(&self) {
        let mut st = self.inner.lock().expect("board mutex");
        st.popped_log.clear();
        st.out_since_mark = 0;
        st.marking = true;
    }

    /// Rolls FIFO state back to the last mark: tokens the engine consumed
    /// during the window return to the front of the host FIFO (in original
    /// order), and tokens it produced — if the host has not drained them —
    /// are retracted. The window stays open for the re-execution.
    pub fn fifo_rewind(&self) {
        let mut st = self.inner.lock().expect("board mutex");
        st.fifo_pops = st.fifo_pops.saturating_sub(st.popped_log.len() as u64);
        let popped = std::mem::take(&mut st.popped_log);
        for v in popped.into_iter().rev() {
            st.fifo_in.push_front(v);
        }
        let retract = st.out_since_mark.min(st.fifo_out.len());
        for _ in 0..retract {
            st.fifo_out.pop_back();
        }
        st.out_since_mark = 0;
    }

    /// Closes the speculation window (the scrub verified it, or the engine
    /// left hardware) and drops the journal.
    pub fn fifo_unmark(&self) {
        let mut st = self.inner.lock().expect("board mutex");
        st.marking = false;
        st.popped_log.clear();
        st.out_since_mark = 0;
    }
}
