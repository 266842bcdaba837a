//! The ring's storage: events packed as length-prefixed byte records.
//!
//! A [`TraceEvent`] costs ~144 B inline plus a heap block for its name,
//! its argument vector, and every argument key. The ring holds the same
//! information in one `VecDeque<u8>`:
//!
//! ```text
//! record := varint(len(body)) body
//! body   := flags:u8 track cat:u8 name host_ns virt_ns
//!           [dur] [req span-root] [parent-root] [link] nargs arg*
//! flags  := phase(2) | VCLOCK | HAS_DUR | HAS_CTX | HAS_PARENT | HAS_LINK
//! name   := varint(id + 1)            interned
//!         | varint(0) len bytes       past the symbol cap: stored inline
//! arg    := varint(key << 3 | tag) [len bytes if key = 0] value
//! value  := varint (U64) | 8 bytes LE (F64) | len bytes (Str) | nothing (Bool)
//! ```
//!
//! Integers are LEB128 varints; `span` and `parent` are stored relative to
//! the request's root span (`req << 16`, see [`crate::RequestCtx`]) so a
//! request-scoped id costs one or two bytes. `seq` is not stored: the ring
//! is only ever appended to and popped from the front, so the buffered
//! records always carry the consecutive numbers ending at the ring's
//! counter. Names and argument keys are interned through a symbol table
//! capped at [`SYMBOL_CAP`] entries of at most [`SYMBOL_MAX_LEN`] bytes;
//! anything past either bound is stored inline in its record, so names
//! built at run time cannot grow the table without limit.

use crate::event::{Arg, ArgValue, Phase, TraceEvent};
use std::collections::{HashMap, VecDeque};

/// Most distinct names and argument keys the ring interns.
const SYMBOL_CAP: usize = 1024;
/// Longest name or argument key the ring interns.
const SYMBOL_MAX_LEN: usize = 64;

/// Slots in the address-keyed lookup cache (a power of two).
const RECENT_SLOTS: usize = 256;

const PHASE_MASK: u8 = 0b11;
const VCLOCK: u8 = 1 << 2;
const HAS_DUR: u8 = 1 << 3;
const HAS_CTX: u8 = 1 << 4;
const HAS_PARENT: u8 = 1 << 5;
const HAS_LINK: u8 = 1 << 6;

const TAG_U64: u64 = 0;
const TAG_F64: u64 = 1;
const TAG_STR: u64 = 2;
const TAG_FALSE: u64 = 3;
const TAG_TRUE: u64 = 4;

/// One event as the emit sites hand it over: everything borrowed, so
/// nothing is allocated before it is packed. The sink adds `host_ns`.
pub(crate) struct Emit<'a> {
    pub track: u64,
    pub cat: &'static str,
    pub name: &'a str,
    pub ph: Phase,
    pub virt_ns: u64,
    pub virt_dur_ns: u64,
    pub vclock: bool,
    pub req: u64,
    pub span_id: u64,
    pub parent: u64,
    pub link: u64,
    pub args: &'a [(&'a str, Arg<'a>)],
}

#[derive(Default)]
pub(crate) struct Ring {
    /// The packed records, oldest first.
    buf: VecDeque<u8>,
    /// Records in `buf`.
    len: usize,
    capacity: usize,
    pub seq: u64,
    pub dropped: u64,
    /// Categories are `&'static str`, so the program text bounds them.
    cats: Vec<&'static str>,
    syms: Vec<Box<str>>,
    sym_ids: HashMap<Box<str>, u32>,
    /// `(address, id)` of symbols seen lately, indexed by a hash of the
    /// address: emit sites pass string literals, so most lookups are
    /// settled by one address compare instead of hashing the text.
    recent: Vec<(usize, u32)>,
    /// The record being packed; reused, so a warm ring allocates nothing.
    scratch: Vec<u8>,
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The varint at the head of `bytes`, and how many bytes it took.
fn get_varint(bytes: impl Iterator<Item = u8>) -> (u64, usize) {
    let mut v = 0;
    for (i, b) in bytes.enumerate() {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b < 0x80 {
            return (v, i + 1);
        }
    }
    unreachable!("the ring reads only the varints it wrote")
}

fn put_bytes(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The root span id of request `req` (mirrors `RequestCtx::root_span`).
fn root_of(req: u64) -> u64 {
    req << 16
}

impl Ring {
    pub fn new(capacity: usize) -> Ring {
        Ring {
            capacity: capacity.max(1),
            recent: vec![(0, 0); RECENT_SLOTS],
            ..Ring::default()
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes held: the record buffer as allocated (not just filled),
    /// the pack buffer, and the symbol table.
    pub fn bytes(&self) -> usize {
        // Each symbol is held twice (by id and by text), as a fat
        // pointer plus its bytes.
        let syms: usize = self.syms.iter().map(|s| 2 * (16 + s.len())).sum();
        self.buf.capacity() + self.scratch.capacity() + syms
    }

    pub fn clear(&mut self) {
        self.buf = VecDeque::new();
        self.len = 0;
        self.dropped = 0;
    }

    /// The id (+1) of `s` in the symbol table, interning it if there is
    /// room; 0 means "store it inline".
    fn intern(&mut self, s: &str) -> u64 {
        let addr = s.as_ptr() as usize;
        let slot = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (usize::BITS - RECENT_SLOTS.ilog2());
        let (seen, id) = self.recent[slot];
        // An address can be reused by a different run-time string, so a
        // hit still has to match the text.
        if seen == addr && *self.syms[id as usize] == *s {
            return u64::from(id) + 1;
        }
        let id = match self.sym_ids.get(s) {
            Some(&id) => id,
            None if self.syms.len() >= SYMBOL_CAP || s.len() > SYMBOL_MAX_LEN => return 0,
            None => {
                self.syms.push(s.into());
                self.sym_ids.insert(s.into(), self.syms.len() as u32 - 1);
                self.syms.len() as u32 - 1
            }
        };
        self.recent[slot] = (addr, id);
        u64::from(id) + 1
    }

    fn cat_id(&mut self, cat: &'static str) -> u8 {
        let at = self.cats.iter().position(|c| *c == cat).unwrap_or_else(|| {
            self.cats.push(cat);
            self.cats.len() - 1
        });
        u8::try_from(at).expect("fewer than 256 trace categories")
    }

    /// Packs `ev` onto the back of the ring, dropping (and counting) the
    /// oldest record when the ring already holds `capacity` events.
    pub fn push(&mut self, ev: &Emit, host_ns: u64) {
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        let root = root_of(ev.req);
        let flag = |bit: u8, set: bool| if set { bit } else { 0 };
        let flags = ev.ph as u8
            | flag(VCLOCK, ev.vclock)
            | flag(HAS_DUR, ev.virt_dur_ns != 0)
            | flag(HAS_CTX, ev.req != 0 || ev.span_id != 0)
            | flag(HAS_PARENT, ev.parent != 0)
            | flag(HAS_LINK, ev.link != 0);
        out.push(flags);
        put_varint(&mut out, ev.track);
        out.push(self.cat_id(ev.cat));
        let name = self.intern(ev.name);
        put_varint(&mut out, name);
        if name == 0 {
            put_bytes(&mut out, ev.name);
        }
        put_varint(&mut out, host_ns);
        put_varint(&mut out, ev.virt_ns);
        if flags & HAS_DUR != 0 {
            put_varint(&mut out, ev.virt_dur_ns);
        }
        if flags & HAS_CTX != 0 {
            put_varint(&mut out, ev.req);
            put_varint(&mut out, ev.span_id.wrapping_sub(root));
        }
        if flags & HAS_PARENT != 0 {
            put_varint(&mut out, ev.parent.wrapping_sub(root));
        }
        if flags & HAS_LINK != 0 {
            put_varint(&mut out, ev.link);
        }
        put_varint(&mut out, ev.args.len() as u64);
        for (key, value) in ev.args {
            let tag = match value {
                Arg::U64(_) => TAG_U64,
                Arg::F64(_) => TAG_F64,
                Arg::Str(_) => TAG_STR,
                Arg::Bool(false) => TAG_FALSE,
                Arg::Bool(true) => TAG_TRUE,
            };
            let id = self.intern(key);
            put_varint(&mut out, id << 3 | tag);
            if id == 0 {
                put_bytes(&mut out, key);
            }
            match *value {
                Arg::U64(v) => put_varint(&mut out, v),
                Arg::F64(v) => out.extend_from_slice(&v.to_bits().to_le_bytes()),
                Arg::Str(s) => put_bytes(&mut out, s),
                Arg::Bool(_) => {}
            }
        }

        if self.len >= self.capacity {
            self.pop_front();
            self.dropped += 1;
        }
        // The length prefix is packed after the body and copied in first.
        let body = out.len();
        put_varint(&mut out, body as u64);
        // Grow by a quarter, not by doubling: the buffer is the ring's
        // whole footprint, and a full ring should not sit half empty.
        if self.buf.capacity() - self.buf.len() < out.len() {
            self.buf.reserve_exact(out.len().max(self.buf.len() / 4));
        }
        self.buf.extend(&out[body..]);
        self.buf.extend(&out[..body]);
        self.len += 1;
        self.seq += 1;
        self.scratch = out;
    }

    fn pop_front(&mut self) {
        let (body, prefix) = get_varint(self.buf.iter().copied());
        self.buf.drain(..prefix + body as usize);
        self.len -= 1;
    }

    /// Unpacks every buffered record, oldest first.
    pub fn snapshot(&mut self) -> Vec<TraceEvent> {
        let first_seq = self.seq - self.len as u64;
        let mut r = Reader(self.buf.make_contiguous());
        let mut events = Vec::with_capacity(self.len);
        for i in 0..self.len as u64 {
            let len = r.varint() as usize;
            let mut body = Reader(r.take(len));
            events.push(body.event(first_seq + i, &self.cats, &self.syms));
        }
        events
    }
}

/// A cursor over packed bytes. The ring only ever reads what `push`
/// wrote, so running off the end is a bug here, not bad input.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        head
    }

    fn varint(&mut self) -> u64 {
        let (v, n) = get_varint(self.0.iter().copied());
        self.take(n);
        v
    }

    fn string(&mut self) -> String {
        let n = self.varint() as usize;
        std::str::from_utf8(self.take(n))
            .expect("the ring packs only `&str` bytes")
            .to_string()
    }

    fn symbol(&mut self, id: u64, syms: &[Box<str>]) -> String {
        match id {
            0 => self.string(),
            id => syms[id as usize - 1].to_string(),
        }
    }

    fn event(&mut self, seq: u64, cats: &[&'static str], syms: &[Box<str>]) -> TraceEvent {
        let flags = self.take(1)[0];
        let track = self.varint();
        let cat = cats[usize::from(self.take(1)[0])];
        let name = self.varint();
        let name = self.symbol(name, syms);
        let host_ns = self.varint();
        let virt_ns = self.varint();
        let mut optional = |bit: u8| if flags & bit != 0 { self.varint() } else { 0 };
        let virt_dur_ns = optional(HAS_DUR);
        let req = optional(HAS_CTX);
        let root = root_of(req);
        // Without HAS_CTX both terms are 0, and so is the sum.
        let span_id = optional(HAS_CTX).wrapping_add(root);
        let parent = match flags & HAS_PARENT {
            0 => 0,
            _ => optional(HAS_PARENT).wrapping_add(root),
        };
        let link = optional(HAS_LINK);
        let nargs = self.varint() as usize;
        let mut args = Vec::with_capacity(nargs);
        for _ in 0..nargs {
            let head = self.varint();
            let key = self.symbol(head >> 3, syms);
            let value = match head & 7 {
                TAG_U64 => ArgValue::U64(self.varint()),
                TAG_F64 => {
                    let raw = self.take(8).try_into().expect("eight bytes taken");
                    ArgValue::F64(f64::from_bits(u64::from_le_bytes(raw)))
                }
                TAG_STR => ArgValue::Str(self.string()),
                tag => ArgValue::Bool(tag == TAG_TRUE),
            };
            args.push((key, value));
        }
        TraceEvent {
            seq,
            track,
            cat,
            name,
            ph: match flags & PHASE_MASK {
                0 => Phase::Span,
                1 => Phase::Instant,
                _ => Phase::Counter,
            },
            virt_ns,
            virt_dur_ns,
            host_ns,
            vclock: flags & VCLOCK != 0,
            req,
            span_id,
            parent,
            link,
            args,
        }
    }
}
