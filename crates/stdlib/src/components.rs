//! Concrete standard-library components.
//!
//! The handles `output` and `set_input` match on are indices into the
//! component's `ports()` table, which lists its ports in the order
//! `STDLIB_DECLARATIONS` declares them.

use crate::{MovePoints, Peripheral, PortId};
use cascade_bits::Bits;
use cascade_fpga::Board;
use std::collections::BTreeMap;

/// Outputs that are a sample of the board, taken at `end_step`.
const BOARD_SAMPLED: MovePoints = MovePoints {
    end_step: true,
    ..MovePoints::NEVER
};

/// `Pad`: button inputs driven by the board.
#[derive(Debug)]
pub struct Pad {
    board: Board,
    width: u32,
    val: Bits,
}

impl Pad {
    /// Binds a pad bank of `width` buttons to the board.
    pub fn new(board: Board, width: u32) -> Self {
        let val = board.buttons().resize(width);
        Pad { board, width, val }
    }
}

impl Peripheral for Pad {
    fn module_name(&self) -> &'static str {
        "Pad"
    }

    fn ports(&self) -> &'static [&'static str] {
        &["val"]
    }

    fn output(&self, port: PortId) -> Bits {
        match port.0 {
            0 => self.val.clone(),
            _ => Bits::default(),
        }
    }

    fn set_input(&mut self, _port: PortId, _value: &Bits) {}

    fn end_step(&mut self) {
        self.val = self.board.buttons().resize(self.width);
    }

    fn outputs_move(&self) -> MovePoints {
        BOARD_SAMPLED
    }
}

/// `Led`: an output bank mirrored to the board.
#[derive(Debug)]
pub struct Led {
    board: Board,
    width: u32,
    val: Bits,
}

impl Led {
    /// Binds an LED bank of `width` lights to the board.
    pub fn new(board: Board, width: u32) -> Self {
        Led {
            board,
            width,
            val: Bits::zero(width),
        }
    }
}

impl Peripheral for Led {
    fn module_name(&self) -> &'static str {
        "Led"
    }

    fn ports(&self) -> &'static [&'static str] {
        &["val"]
    }

    fn output(&self, _port: PortId) -> Bits {
        Bits::default()
    }

    fn set_input(&mut self, port: PortId, value: &Bits) {
        if port.0 == 0 {
            self.val = value.resize(self.width);
            self.board.write_leds(self.val.clone());
        }
    }

    fn outputs_move(&self) -> MovePoints {
        MovePoints::NEVER
    }
}

/// `Reset`: the board's reset line.
#[derive(Debug)]
pub struct Reset {
    board: Board,
    val: bool,
}

impl Reset {
    /// Binds to the board's reset line.
    pub fn new(board: Board) -> Self {
        let val = board.reset();
        Reset { board, val }
    }
}

impl Peripheral for Reset {
    fn module_name(&self) -> &'static str {
        "Reset"
    }

    fn ports(&self) -> &'static [&'static str] {
        &["val"]
    }

    fn output(&self, port: PortId) -> Bits {
        match port.0 {
            0 => Bits::from_bool(self.val),
            _ => Bits::default(),
        }
    }

    fn set_input(&mut self, _port: PortId, _value: &Bits) {}

    fn end_step(&mut self) {
        self.val = self.board.reset();
    }

    fn outputs_move(&self) -> MovePoints {
        BOARD_SAMPLED
    }
}

/// `GPIO`: general-purpose pins in both directions.
#[derive(Debug)]
pub struct Gpio {
    board: Board,
    width: u32,
    in_val: Bits,
}

impl Gpio {
    /// Binds a GPIO bank to the board.
    pub fn new(board: Board, width: u32) -> Self {
        let in_val = board.gpio_in().resize(width);
        Gpio {
            board,
            width,
            in_val,
        }
    }
}

impl Peripheral for Gpio {
    fn module_name(&self) -> &'static str {
        "GPIO"
    }

    fn ports(&self) -> &'static [&'static str] {
        &["out", "in"]
    }

    fn output(&self, port: PortId) -> Bits {
        match port.0 {
            1 => self.in_val.clone(),
            _ => Bits::default(),
        }
    }

    fn set_input(&mut self, port: PortId, value: &Bits) {
        if port.0 == 0 {
            self.board.write_gpio(value.resize(self.width));
        }
    }

    fn end_step(&mut self) {
        self.in_val = self.board.gpio_in().resize(self.width);
    }

    fn outputs_move(&self) -> MovePoints {
        BOARD_SAMPLED
    }
}

/// `Memory`: a synchronous-write, asynchronous-read RAM block.
#[derive(Debug)]
pub struct Memory {
    addr_width: u32,
    width: u32,
    words: Vec<Bits>,
    raddr: u64,
    wen: bool,
    waddr: u64,
    wdata: Bits,
}

impl Memory {
    /// Creates a RAM of `2^addr_width` words of `width` bits.
    pub fn new(addr_width: u32, width: u32) -> Self {
        let n = 1usize << addr_width.min(24);
        Memory {
            addr_width,
            width,
            words: vec![Bits::zero(width); n],
            raddr: 0,
            wen: false,
            waddr: 0,
            wdata: Bits::zero(width),
        }
    }
}

impl Peripheral for Memory {
    fn module_name(&self) -> &'static str {
        "Memory"
    }

    fn ports(&self) -> &'static [&'static str] {
        &["raddr", "rdata", "wen", "waddr", "wdata"]
    }

    fn output(&self, port: PortId) -> Bits {
        match port.0 {
            1 => self
                .words
                .get(self.raddr as usize)
                .cloned()
                .unwrap_or_else(|| Bits::zero(self.width)),
            _ => Bits::default(),
        }
    }

    fn set_input(&mut self, port: PortId, value: &Bits) {
        match port.0 {
            0 => self.raddr = value.to_u64() & ((1 << self.addr_width.min(63)) - 1),
            2 => self.wen = value.to_bool(),
            3 => self.waddr = value.to_u64() & ((1 << self.addr_width.min(63)) - 1),
            4 => self.wdata = value.resize(self.width),
            _ => {}
        }
    }

    fn posedge(&mut self) {
        if self.wen {
            if let Some(slot) = self.words.get_mut(self.waddr as usize) {
                *slot = self.wdata.clone();
            }
        }
    }

    // `rdata` is the word at `raddr`: a write moves it, and so does a new
    // read address.
    fn outputs_move(&self) -> MovePoints {
        MovePoints {
            end_step: false,
            posedge: true,
            input: true,
        }
    }

    fn get_state(&self) -> BTreeMap<String, Vec<Bits>> {
        BTreeMap::from([("words".to_string(), self.words.clone())])
    }

    fn set_state(&mut self, state: &BTreeMap<String, Vec<Bits>>) {
        if let Some(words) = state.get("words") {
            for (dst, src) in self.words.iter_mut().zip(words) {
                *dst = src.resize(self.width);
            }
        }
    }
}

/// `FIFO`: the host-coupled queue used by the streaming benchmarks
/// (paper Sec. 6.2). Reads pop the board's host→FPGA queue; writes push to
/// the FPGA→host queue. Pops commit at the clock edge; `empty`/`full` are
/// combinational.
#[derive(Debug)]
pub struct Fifo {
    board: Board,
    width: u32,
    rreq: bool,
    wreq: bool,
    wdata: Bits,
    rdata: Bits,
    bus_words: u64,
}

impl Fifo {
    /// Binds a FIFO endpoint of `width`-bit tokens to the board.
    pub fn new(board: Board, width: u32) -> Self {
        Fifo {
            board,
            width,
            rreq: false,
            wreq: false,
            wdata: Bits::zero(width),
            rdata: Bits::zero(width),
            bus_words: 0,
        }
    }
}

impl Peripheral for Fifo {
    fn module_name(&self) -> &'static str {
        "FIFO"
    }

    fn ports(&self) -> &'static [&'static str] {
        &["rreq", "rdata", "empty", "wreq", "wdata", "full"]
    }

    fn output(&self, port: PortId) -> Bits {
        match port.0 {
            1 => self.rdata.clone(),
            2 => Bits::from_bool(self.board.fifo_flags().0),
            5 => Bits::from_bool(self.board.fifo_flags().1),
            _ => Bits::default(),
        }
    }

    fn set_input(&mut self, port: PortId, value: &Bits) {
        match port.0 {
            0 => self.rreq = value.to_bool(),
            3 => self.wreq = value.to_bool(),
            4 => self.wdata = value.resize(self.width),
            _ => {}
        }
    }

    fn posedge(&mut self) {
        if self.rreq {
            if let Some(v) = self.board.fifo_pop() {
                self.rdata = v.resize(self.width);
                self.bus_words += 1;
            }
        }
        if self.wreq {
            self.board.fifo_out_push(self.wdata.clone());
            self.bus_words += 1;
        }
    }

    // A pop moves `rdata` and the flags; the host moves the flags, and
    // `end_step` is where a scheduler looks for that.
    fn outputs_move(&self) -> MovePoints {
        MovePoints {
            end_step: true,
            posedge: true,
            input: false,
        }
    }

    // The staged head token was already popped from the board, so it must
    // migrate (and roll back) with the engines: losing it across a swap or
    // checkpoint restore would silently drop one token from the stream.
    fn get_state(&self) -> BTreeMap<String, Vec<Bits>> {
        BTreeMap::from([("rdata".to_string(), vec![self.rdata.clone()])])
    }

    fn set_state(&mut self, state: &BTreeMap<String, Vec<Bits>>) {
        if let Some(r) = state.get("rdata").and_then(|v| v.first()) {
            self.rdata = r.resize(self.width);
        }
    }

    fn take_bus_words(&mut self) -> u64 {
        std::mem::take(&mut self.bus_words)
    }
}
