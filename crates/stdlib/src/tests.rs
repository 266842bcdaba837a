use crate::{instantiate, is_stdlib_module, stdlib_modules, Peripheral, PortId};
use cascade_bits::Bits;
use cascade_fpga::Board;
use cascade_verilog::typecheck::ParamEnv;

/// By-name access for the tests; the runtime resolves names once instead.
fn out(p: &dyn Peripheral, port: &str) -> Bits {
    p.output(p.port(port))
}

fn drive(p: &mut dyn Peripheral, port: &str, value: Bits) {
    let id = p.port(port);
    assert_ne!(id, PortId::NONE, "no port `{port}`");
    p.set_input(id, &value);
}

#[test]
fn declarations_parse_and_cover_all_names() {
    let mods = stdlib_modules();
    let names: Vec<_> = mods.iter().map(|m| m.name.as_str()).collect();
    for expected in crate::STDLIB_MODULE_NAMES {
        assert!(
            names.contains(expected),
            "missing declaration for {expected}"
        );
    }
}

#[test]
fn stdlib_name_predicate() {
    assert!(is_stdlib_module("Clock"));
    assert!(is_stdlib_module("FIFO"));
    assert!(!is_stdlib_module("Rol"));
}

#[test]
fn instantiate_by_name() {
    let board = Board::new();
    for name in ["Pad", "Led", "Reset", "GPIO", "Memory", "FIFO"] {
        assert!(
            instantiate(name, &ParamEnv::new(), &board).is_some(),
            "{name}"
        );
    }
    assert!(instantiate("Clock", &ParamEnv::new(), &board).is_none());
    assert!(instantiate("Rol", &ParamEnv::new(), &board).is_none());
}

#[test]
fn pad_reflects_board_buttons() {
    let board = Board::new();
    let mut pad = instantiate("Pad", &ParamEnv::new(), &board).unwrap();
    assert_eq!(out(pad.as_ref(), "val").to_u64(), 0);
    board.set_button(1, true);
    // Pads sample the board at end_step, not instantly.
    assert_eq!(out(pad.as_ref(), "val").to_u64(), 0);
    pad.end_step();
    assert_eq!(out(pad.as_ref(), "val").to_u64(), 0b0010);
}

#[test]
fn led_drives_board() {
    let board = Board::new();
    let mut led = instantiate("Led", &ParamEnv::new(), &board).unwrap();
    drive(led.as_mut(), "val", Bits::from_u64(8, 0x81));
    assert_eq!(board.leds().to_u64(), 0x81);
}

#[test]
fn led_width_parameter() {
    let board = Board::new();
    let params = ParamEnv::from([("WIDTH".to_string(), Bits::from_u64(32, 4))]);
    let mut led = instantiate("Led", &params, &board).unwrap();
    drive(led.as_mut(), "val", Bits::from_u64(8, 0xff));
    assert_eq!(board.leds().to_u64(), 0x0f, "masked to 4 bits");
}

#[test]
fn reset_follows_board() {
    let board = Board::new();
    let mut rst = instantiate("Reset", &ParamEnv::new(), &board).unwrap();
    assert!(!out(rst.as_ref(), "val").to_bool());
    board.set_reset(true);
    rst.end_step();
    assert!(out(rst.as_ref(), "val").to_bool());
}

#[test]
fn gpio_round_trip() {
    let board = Board::new();
    let mut gpio = instantiate("GPIO", &ParamEnv::new(), &board).unwrap();
    board.set_gpio(Bits::from_u64(32, 0x1234));
    gpio.end_step();
    assert_eq!(out(gpio.as_ref(), "in").to_u64(), 0x1234);
    drive(gpio.as_mut(), "out", Bits::from_u64(32, 0x77));
    assert_eq!(board.gpio_out().to_u64(), 0x77);
}

#[test]
fn memory_sync_write_async_read() {
    let mut mem = crate::Memory::new(4, 8);
    drive(&mut mem, "raddr", Bits::from_u64(4, 3));
    assert_eq!(out(&mem, "rdata").to_u64(), 0);
    drive(&mut mem, "wen", Bits::from_u64(1, 1));
    drive(&mut mem, "waddr", Bits::from_u64(4, 3));
    drive(&mut mem, "wdata", Bits::from_u64(8, 0xcd));
    // Write does not land until the clock edge.
    assert_eq!(out(&mem, "rdata").to_u64(), 0);
    mem.posedge();
    assert_eq!(out(&mem, "rdata").to_u64(), 0xcd);
}

#[test]
fn memory_state_transfer() {
    let mut a = crate::Memory::new(4, 8);
    drive(&mut a, "wen", Bits::from_u64(1, 1));
    drive(&mut a, "waddr", Bits::from_u64(4, 9));
    drive(&mut a, "wdata", Bits::from_u64(8, 0x42));
    a.posedge();
    let snap = a.get_state();
    let mut b = crate::Memory::new(4, 8);
    b.set_state(&snap);
    drive(&mut b, "raddr", Bits::from_u64(4, 9));
    assert_eq!(out(&b, "rdata").to_u64(), 0x42);
}

#[test]
fn fifo_pop_commits_at_edge() {
    let board = Board::new();
    board.fifo_push(Bits::from_u64(8, 11));
    board.fifo_push(Bits::from_u64(8, 22));
    let mut fifo = crate::Fifo::new(board.clone(), 8);
    let empty = |f: &crate::Fifo| out(f, "empty").to_bool();
    assert!(!empty(&fifo));
    drive(&mut fifo, "rreq", Bits::from_u64(1, 1));
    fifo.posedge();
    let rdata = out(&fifo, "rdata");
    assert_eq!(rdata.to_u64(), 11);
    fifo.posedge();
    let rdata = out(&fifo, "rdata");
    assert_eq!(rdata.to_u64(), 22);
    assert!(empty(&fifo));
    assert_eq!(board.fifo_pops(), 2);
}

#[test]
fn fifo_write_side() {
    let board = Board::new();
    let mut fifo = crate::Fifo::new(board.clone(), 8);
    drive(&mut fifo, "wreq", Bits::from_u64(1, 1));
    drive(&mut fifo, "wdata", Bits::from_u64(8, 0x5a));
    fifo.posedge();
    let out = board.fifo_out_drain();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to_u64(), 0x5a);
}

#[test]
fn fifo_holds_rdata_when_empty() {
    let board = Board::new();
    board.fifo_push(Bits::from_u64(8, 7));
    let mut fifo = crate::Fifo::new(board, 8);
    drive(&mut fifo, "rreq", Bits::from_u64(1, 1));
    fifo.posedge();
    fifo.posedge(); // empty now: rdata holds
    let rdata = out(&fifo, "rdata");
    assert_eq!(rdata.to_u64(), 7);
}

#[test]
fn fifo_counts_bus_words() {
    let board = Board::new();
    board.fifo_push(Bits::from_u64(8, 1));
    board.fifo_push(Bits::from_u64(8, 2));
    let mut fifo = crate::Fifo::new(board.clone(), 8);
    assert_eq!(fifo.take_bus_words(), 0);
    drive(&mut fifo, "rreq", Bits::from_u64(1, 1));
    fifo.posedge();
    fifo.posedge();
    assert_eq!(fifo.take_bus_words(), 2, "one bus word per pop");
    assert_eq!(fifo.take_bus_words(), 0, "drained");
    drive(&mut fifo, "rreq", Bits::from_u64(1, 0));
    drive(&mut fifo, "wreq", Bits::from_u64(1, 1));
    drive(&mut fifo, "wdata", Bits::from_u64(8, 9));
    fifo.posedge();
    assert_eq!(fifo.take_bus_words(), 1, "pushes cross the bus too");
}

#[test]
fn pad_and_led_are_free_of_bus_cost() {
    let board = Board::new();
    let mut pad = crate::Pad::new(board.clone(), 4);
    let mut led = crate::Led::new(board, 8);
    pad.end_step();
    drive(&mut led, "val", Bits::from_u64(8, 3));
    assert_eq!(pad.take_bus_words(), 0);
    assert_eq!(led.take_bus_words(), 0);
}

/// Every component's port table is its Verilog declaration's port list, so
/// a name the typechecker accepts always resolves, and nothing else does.
#[test]
fn port_tables_match_the_declarations() {
    let board = Board::new();
    for m in stdlib_modules() {
        let Some(p) = instantiate(&m.name, &ParamEnv::new(), &board) else {
            continue; // Clock
        };
        let declared: Vec<&str> = m.ports.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(p.ports(), declared.as_slice(), "{}", m.name);
        for (i, name) in declared.iter().enumerate() {
            assert_eq!(p.port(name), PortId(i as u32), "{}.{name}", m.name);
        }
        assert_eq!(p.port("ghost"), PortId::NONE);
        assert_eq!(p.output(PortId::NONE).width(), 0);
    }
}
