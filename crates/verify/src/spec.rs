//! Seeded design specifications: the fuzzer's structured representation of
//! a synthesizable Verilog module.
//!
//! The fuzzer does not mutate source text. It generates, mutates, and
//! shrinks a [`DesignSpec`] — a small AST over the RIR subset every engine
//! supports (16-bit regs, wires, one clocked block with `if`/`case`,
//! arithmetic/compare/shift expressions, an 8-word memory, a FIFO-style
//! submodule instance, `$display`, `$finish`) — and renders it to Verilog
//! on demand. Structure makes the mutation operators type-correct by
//! construction and lets the delta-debugging shrinker delete statements
//! and hoist subexpressions without ever producing an unparseable file.
//!
//! The grammar deliberately stresses the shapes the compiled backends
//! specialize: narrow `case` scrutinees (Lookup cones), compare-feeding
//! muxes (compare/select fusion), shift/or pairs (rotate fusion), and
//! per-lane input-dependent `$finish` (batch commit-skip masks).

use cascade_bits::Prng;

/// Binary operators in the synthesizable tier (no division: the BMC
/// bit-blaster and the netlist grammar both exclude it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Lt,
}

impl BinOp {
    /// All operators, for generation and mutation.
    pub const ALL: [BinOp; 10] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Eq,
        BinOp::Lt,
    ];

    fn sym(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Lt => "<",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Not,
    Neg,
    RedXor,
    LogNot,
}

impl UnOp {
    pub const ALL: [UnOp; 4] = [UnOp::Not, UnOp::Neg, UnOp::RedXor, UnOp::LogNot];

    fn sym(self) -> &'static str {
        match self {
            UnOp::Not => "~",
            UnOp::Neg => "-",
            UnOp::RedXor => "^",
            UnOp::LogNot => "!",
        }
    }
}

/// A leaf that can legally be bit-sliced (Verilog slices identifiers, not
/// arbitrary expressions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaf {
    InputA,
    InputB,
    Cc,
    Reg(usize),
}

impl Leaf {
    fn render(self) -> String {
        match self {
            Leaf::InputA => "a".into(),
            Leaf::InputB => "b".into(),
            Leaf::Cc => "cc".into(),
            Leaf::Reg(i) => format!("r{i}"),
        }
    }

    /// Width of the leaf as declared.
    fn width(self) -> u32 {
        match self {
            Leaf::Cc => 8,
            _ => 16,
        }
    }
}

/// An expression over the module's live state.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Lit {
        width: u32,
        value: u64,
    },
    Leaf(Leaf),
    Wire(usize),
    /// FIFO submodule data output (only valid when `fifo` is on).
    FifoDout,
    /// FIFO submodule occupancy (only valid when `fifo` is on).
    FifoCount,
    /// `m[<leaf>[2:0]]` (only valid when `mem` is on).
    MemRead(Leaf),
    /// `<leaf>[hi:lo]`.
    Slice {
        leaf: Leaf,
        hi: u32,
        lo: u32,
    },
    Un(UnOp, Box<Expr>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Mux(Box<Expr>, Box<Expr>, Box<Expr>),
    Concat(Box<Expr>, Box<Expr>),
    Repl(u32, Box<Expr>),
}

impl Expr {
    fn render(&self) -> String {
        match self {
            Expr::Lit { width, value } => format!("{width}'h{value:x}"),
            Expr::Leaf(l) => l.render(),
            Expr::Wire(i) => format!("w{i}"),
            Expr::FifoDout => "fd".into(),
            Expr::FifoCount => "fcnt".into(),
            Expr::MemRead(addr) => format!("m[{}[2:0]]", addr.render()),
            Expr::Slice { leaf, hi, lo } => format!("{}[{hi}:{lo}]", leaf.render()),
            Expr::Un(op, e) => format!("({}{})", op.sym(), e.render()),
            Expr::Bin(op, l, r) => format!("({} {} {})", l.render(), op.sym(), r.render()),
            Expr::Mux(c, t, f) => {
                format!("({} ? {} : {})", c.render(), t.render(), f.render())
            }
            Expr::Concat(l, r) => format!("{{{}, {}}}", l.render(), r.render()),
            Expr::Repl(n, e) => format!("{{{n}{{{}}}}}", e.render()),
        }
    }

    /// Calls `f` on every node (including `self`), depth-first.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        match self {
            Expr::Un(_, e) | Expr::Repl(_, e) => e.walk_mut(f),
            Expr::Bin(_, l, r) | Expr::Concat(l, r) => {
                l.walk_mut(f);
                r.walk_mut(f);
            }
            Expr::Mux(c, t, e) => {
                c.walk_mut(f);
                t.walk_mut(f);
                e.walk_mut(f);
            }
            _ => {}
        }
    }

    /// Direct children, for the shrinker's hoist pass.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Un(_, e) | Expr::Repl(_, e) => vec![e],
            Expr::Bin(_, l, r) | Expr::Concat(l, r) => vec![l, r],
            Expr::Mux(c, t, e) => vec![c, t, e],
            _ => Vec::new(),
        }
    }
}

/// One statement inside the clocked block.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `r<i> <= rhs;`
    Assign { reg: usize, rhs: Expr },
    /// `r<i>[hi:lo] <= rhs;`
    SliceAssign {
        reg: usize,
        hi: u32,
        lo: u32,
        rhs: Expr,
    },
    /// `m[<addr>[2:0]] <= rhs;` (only valid when `mem` is on).
    MemWrite { addr: Leaf, rhs: Expr },
    If {
        cond: Expr,
        then_: Vec<Stmt>,
        else_: Vec<Stmt>,
    },
    /// `case (<scr>[1:0]) 2'd0 / 2'd1 / default`.
    Case {
        scr: Leaf,
        arm0: Vec<Stmt>,
        arm1: Vec<Stmt>,
        default: Vec<Stmt>,
    },
}

impl Stmt {
    /// The statement lists nested in this one (`if` arms, `case` arms),
    /// in preorder.
    pub fn bodies(&self) -> Vec<&Vec<Stmt>> {
        match self {
            Stmt::If { then_, else_, .. } => vec![then_, else_],
            Stmt::Case {
                arm0,
                arm1,
                default,
                ..
            } => vec![arm0, arm1, default],
            _ => Vec::new(),
        }
    }

    /// [`Self::bodies`], mutably.
    pub fn bodies_mut(&mut self) -> Vec<&mut Vec<Stmt>> {
        match self {
            Stmt::If { then_, else_, .. } => vec![then_, else_],
            Stmt::Case {
                arm0,
                arm1,
                default,
                ..
            } => vec![arm0, arm1, default],
            _ => Vec::new(),
        }
    }

    fn render(&self, out: &mut Vec<String>, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Stmt::Assign { reg, rhs } => out.push(format!("{pad}r{reg} <= {};", rhs.render())),
            Stmt::SliceAssign { reg, hi, lo, rhs } => {
                out.push(format!("{pad}r{reg}[{hi}:{lo}] <= {};", rhs.render()));
            }
            Stmt::MemWrite { addr, rhs } => {
                out.push(format!(
                    "{pad}m[{}[2:0]] <= {};",
                    addr.render(),
                    rhs.render()
                ));
            }
            Stmt::If { cond, then_, else_ } => {
                out.push(format!("{pad}if ({}) begin", cond.render()));
                for s in then_ {
                    s.render(out, indent + 1);
                }
                if else_.is_empty() {
                    out.push(format!("{pad}end"));
                } else {
                    out.push(format!("{pad}end else begin"));
                    for s in else_ {
                        s.render(out, indent + 1);
                    }
                    out.push(format!("{pad}end"));
                }
            }
            Stmt::Case {
                scr,
                arm0,
                arm1,
                default,
            } => {
                out.push(format!("{pad}case ({}[1:0])", scr.render()));
                for (label, arm) in [("2'd0", arm0), ("2'd1", arm1), ("default", default)] {
                    out.push(format!("{pad}  {label}: begin"));
                    for s in arm {
                        s.render(out, indent + 2);
                    }
                    out.push(format!("{pad}  end"));
                }
                out.push(format!("{pad}endcase"));
            }
        }
    }
}

/// When the design pulls `$finish`.
#[derive(Debug, Clone, PartialEq)]
pub enum Finish {
    Never,
    /// `if (cc == n) $finish;` — the same edge on every engine and lane.
    At(u64),
    /// `if (cc >= min && fsel[bit]) $finish;` where `fsel = a ^ b` — the
    /// edge depends on stimulus, so batch lanes finish at different times.
    InputAt {
        min: u64,
        bit: u32,
    },
}

/// A complete generated design plus the stimulus that drives it.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpec {
    /// Number of 16-bit registers `r0..` (each is also an output `o<i>`).
    pub nregs: usize,
    /// Initial values for the registers.
    pub reg_init: Vec<u64>,
    /// Combinational wires `w<i>`; wire `i` may reference wires `< i`.
    pub wires: Vec<Expr>,
    /// An 8-word × 16-bit memory `m`, observed through output `om`.
    pub mem: bool,
    /// A FIFO-style submodule instance (`VFifo`), observed through `of`.
    pub fifo: bool,
    /// FIFO drive expressions: data-in, push bit source, pop bit source.
    pub fifo_din: Expr,
    pub fifo_push: Leaf,
    pub fifo_pop: Leaf,
    /// Clocked statements (after the implicit `cc <= cc + 1`).
    pub body: Vec<Stmt>,
    /// `if (<cond>) $display("s=%d %h", r0, cc);`
    pub display: Option<Expr>,
    pub finish: Finish,
    /// Stimulus cycles the differential runner drives.
    pub cycles: u32,
    /// Seed for the per-cycle input vectors.
    pub stim_seed: u64,
}

/// Depth bound for generated expressions.
const MAX_DEPTH: u32 = 2;

/// Statement-count bound enforced by [`DesignSpec::sanitize`] (mutation
/// can otherwise grow bodies without limit across generations).
const MAX_STMTS: usize = 24;

impl DesignSpec {
    /// Generates a fresh random spec.
    pub fn generate(rng: &mut Prng) -> DesignSpec {
        let nregs = rng.range(1, 3) as usize;
        let mem = rng.chance(1, 3);
        let fifo = rng.chance(1, 4);
        let mut spec = DesignSpec {
            nregs,
            reg_init: (0..nregs).map(|i| (i as u64 * 7 + 1) & 0xffff).collect(),
            wires: Vec::new(),
            mem,
            fifo,
            fifo_din: Expr::Leaf(Leaf::InputA),
            fifo_push: Leaf::InputA,
            fifo_pop: Leaf::InputB,
            body: Vec::new(),
            display: None,
            finish: Finish::Never,
            cycles: rng.range(12, 24) as u32,
            stim_seed: rng.next_u64(),
        };
        let nwires = rng.below(3) as usize;
        for _ in 0..nwires {
            let e = spec.gen_expr(rng, MAX_DEPTH);
            spec.wires.push(e);
        }
        if fifo {
            spec.fifo_din = spec.gen_expr(rng, 1);
            spec.fifo_push = spec.gen_leaf(rng);
            spec.fifo_pop = spec.gen_leaf(rng);
        }
        let nstmts = rng.range(2, 5);
        for _ in 0..nstmts {
            let s = spec.gen_stmt(rng, MAX_DEPTH);
            spec.body.push(s);
        }
        if rng.chance(3, 4) {
            let cond = Expr::Slice {
                leaf: Leaf::Reg(rng.below(nregs as u64) as usize),
                hi: rng.below(4) as u32,
                lo: 0,
            };
            spec.display = Some(Expr::Bin(
                BinOp::Eq,
                Box::new(cond),
                Box::new(Expr::Lit { width: 1, value: 1 }),
            ));
        }
        spec.finish = match rng.below(4) {
            0 | 1 => Finish::At(rng.range(3, 12)),
            2 => Finish::InputAt {
                min: rng.range(3, 8),
                bit: rng.below(4) as u32,
            },
            _ => Finish::Never,
        };
        spec.sanitize();
        spec
    }

    /// A leaf valid for this spec.
    fn gen_leaf(&self, rng: &mut Prng) -> Leaf {
        match rng.below(4) {
            0 => Leaf::InputA,
            1 => Leaf::InputB,
            2 => Leaf::Cc,
            _ => Leaf::Reg(rng.below(self.nregs.max(1) as u64) as usize),
        }
    }

    /// A fresh random expression referencing only declared state.
    pub fn gen_expr(&self, rng: &mut Prng, depth: u32) -> Expr {
        if depth == 0 {
            return match rng.below(10) {
                0 | 1 => {
                    let width = rng.range(1, 16) as u32;
                    Expr::Lit {
                        width,
                        value: rng.next_u64() & ((1u64 << width) - 1),
                    }
                }
                2 => Expr::Leaf(Leaf::InputA),
                3 => Expr::Leaf(Leaf::InputB),
                4 => Expr::Leaf(Leaf::Cc),
                5 if !self.wires.is_empty() => {
                    Expr::Wire(rng.below(self.wires.len() as u64) as usize)
                }
                6 if self.mem => Expr::MemRead(self.gen_leaf(rng)),
                7 if self.fifo => {
                    if rng.chance(1, 2) {
                        Expr::FifoDout
                    } else {
                        Expr::FifoCount
                    }
                }
                8 => {
                    let leaf = self.gen_leaf(rng);
                    let hi = rng.below(leaf.width() as u64) as u32;
                    let lo = rng.below(hi as u64 + 1) as u32;
                    Expr::Slice { leaf, hi, lo }
                }
                _ => Expr::Leaf(Leaf::Reg(rng.below(self.nregs.max(1) as u64) as usize)),
            };
        }
        match rng.below(8) {
            0..=2 => Expr::Bin(
                *rng.pick(&BinOp::ALL),
                Box::new(self.gen_expr(rng, depth - 1)),
                Box::new(self.gen_expr(rng, depth - 1)),
            ),
            3 => Expr::Mux(
                Box::new(self.gen_expr(rng, depth - 1)),
                Box::new(self.gen_expr(rng, depth - 1)),
                Box::new(self.gen_expr(rng, depth - 1)),
            ),
            4 => Expr::Un(
                *rng.pick(&UnOp::ALL),
                Box::new(self.gen_expr(rng, depth - 1)),
            ),
            5 => Expr::Concat(
                Box::new(self.gen_expr(rng, depth - 1)),
                Box::new(self.gen_expr(rng, depth - 1)),
            ),
            6 => Expr::Repl(
                rng.range(2, 3) as u32,
                Box::new(self.gen_expr(rng, depth - 1)),
            ),
            _ => self.gen_expr(rng, 0),
        }
    }

    /// A fresh random statement referencing only declared state.
    pub fn gen_stmt(&self, rng: &mut Prng, depth: u32) -> Stmt {
        let assign = |spec: &DesignSpec, rng: &mut Prng| {
            let reg = rng.below(spec.nregs.max(1) as u64) as usize;
            match rng.below(8) {
                0 if spec.mem => Stmt::MemWrite {
                    addr: spec.gen_leaf(rng),
                    rhs: spec.gen_expr(rng, 2),
                },
                1 => {
                    let hi = rng.range(4, 15) as u32;
                    let lo = rng.below(hi as u64) as u32;
                    Stmt::SliceAssign {
                        reg,
                        hi,
                        lo,
                        rhs: spec.gen_expr(rng, 1),
                    }
                }
                _ => Stmt::Assign {
                    reg,
                    rhs: spec.gen_expr(rng, 2),
                },
            }
        };
        if depth == 0 {
            return assign(self, rng);
        }
        match rng.below(7) {
            0..=2 => assign(self, rng),
            3 | 4 => Stmt::If {
                cond: self.gen_expr(rng, 1),
                then_: vec![self.gen_stmt(rng, depth - 1)],
                else_: if rng.chance(1, 2) {
                    vec![self.gen_stmt(rng, depth - 1)]
                } else {
                    Vec::new()
                },
            },
            5 => Stmt::Case {
                scr: self.gen_leaf(rng),
                arm0: vec![self.gen_stmt(rng, depth - 1)],
                arm1: vec![self.gen_stmt(rng, depth - 1)],
                default: vec![self.gen_stmt(rng, depth - 1)],
            },
            _ => assign(self, rng),
        }
    }

    /// Applies one random mutation, then re-establishes invariants.
    pub fn mutate(&mut self, rng: &mut Prng) {
        match rng.below(10) {
            // Replace a random statement with a fresh one.
            0 | 1 => {
                let fresh = self.gen_stmt(rng, 1);
                let n = count_stmts(&self.body);
                if n > 0 {
                    let mut target = rng.below(n as u64) as usize;
                    let mut slot = Some(fresh);
                    edit_stmt_at(&mut self.body, &mut target, &mut |body, i| {
                        body[i] = slot.take().expect("one target");
                    });
                }
            }
            // Insert a fresh statement at a random top-level position.
            2 => {
                let depth = rng.below(3) as u32;
                let fresh = self.gen_stmt(rng, depth);
                let at = rng.below(self.body.len() as u64 + 1) as usize;
                self.body.insert(at, fresh);
            }
            // Delete a random top-level statement.
            3 => {
                if !self.body.is_empty() {
                    let at = rng.below(self.body.len() as u64) as usize;
                    self.body.remove(at);
                }
            }
            // Mutate one expression site in place.
            4..=6 => {
                let n = self.count_exprs();
                if n > 0 {
                    let target = rng.below(n as u64) as usize;
                    let replacement_seed = rng.next_u64();
                    let choice = rng.below(4);
                    let snapshot = self.clone();
                    let mut idx = 0usize;
                    self.for_each_expr_mut(&mut |e| {
                        if idx == target {
                            let mut sub = Prng::new(replacement_seed);
                            *e = match (choice, e.clone()) {
                                (0, Expr::Bin(_, l, r)) => Expr::Bin(*sub.pick(&BinOp::ALL), l, r),
                                (1, Expr::Bin(op, l, r)) => Expr::Bin(op, r, l),
                                (2, old) => Expr::Un(*sub.pick(&UnOp::ALL), Box::new(old)),
                                _ => snapshot.gen_expr(&mut sub, 1),
                            };
                        }
                        idx += 1;
                    });
                }
            }
            // Structural toggles.
            7 => {
                self.mem = !self.mem;
                self.fifo = rng.chance(1, 4);
            }
            // Re-aim the run: finish point, display, cycles, stimulus.
            8 => {
                self.finish = match rng.below(4) {
                    0 | 1 => Finish::At(rng.range(3, 12)),
                    2 => Finish::InputAt {
                        min: rng.range(3, 8),
                        bit: rng.below(4) as u32,
                    },
                    _ => Finish::Never,
                };
                self.cycles = rng.range(12, 24) as u32;
            }
            _ => {
                self.stim_seed = rng.next_u64();
                if rng.chance(1, 2) {
                    let at = rng.below(self.reg_init.len() as u64) as usize;
                    self.reg_init[at] = rng.next_u64() & 0xffff;
                }
            }
        }
        self.sanitize();
    }

    /// Re-establishes representation invariants after mutation/shrinking:
    /// reg indices in range, mem/fifo references gated on the flags, at
    /// least one register, bounded body size.
    pub fn sanitize(&mut self) {
        if self.nregs == 0 {
            self.nregs = 1;
        }
        self.nregs = self.nregs.min(3);
        self.reg_init.resize(self.nregs, 1);
        for v in &mut self.reg_init {
            *v &= 0xffff;
        }
        while count_stmts(&self.body) as usize > MAX_STMTS && !self.body.is_empty() {
            self.body.pop();
        }
        let nregs = self.nregs;
        let nwires = self.wires.len();
        let mem = self.mem;
        let fifo = self.fifo;
        let fix_leaf = |l: &mut Leaf| {
            if let Leaf::Reg(i) = l {
                *i %= nregs;
            }
        };
        let fix_expr = move |e: &mut Expr| match e {
            Expr::Leaf(l) => fix_leaf(l),
            Expr::Wire(_) if nwires == 0 => *e = Expr::Leaf(Leaf::InputA),
            Expr::Wire(i) => *i %= nwires,
            Expr::MemRead(addr) if mem => fix_leaf(addr),
            Expr::MemRead(_) => *e = Expr::Leaf(Leaf::InputB),
            Expr::FifoDout | Expr::FifoCount if !fifo => {
                *e = Expr::Leaf(Leaf::Cc);
            }
            Expr::Slice { leaf, hi, lo } => {
                fix_leaf(leaf);
                *hi = (*hi).min(leaf.width() - 1);
                *lo = (*lo).min(*hi);
            }
            Expr::Repl(n, _) => *n = (*n).clamp(1, 4),
            Expr::Lit { width, value } => {
                *width = (*width).clamp(1, 16);
                *value &= (1u64 << *width) - 1;
            }
            _ => {}
        };
        // Wire i may only reference wires < i (acyclic combinational).
        for i in 0..self.wires.len() {
            let mut w = std::mem::replace(&mut self.wires[i], Expr::Leaf(Leaf::InputA));
            w.walk_mut(&mut |e| {
                fix_expr(e);
                if let Expr::Wire(j) = e {
                    if *j >= i {
                        *e = Expr::Leaf(Leaf::InputA);
                    }
                }
            });
            self.wires[i] = w;
        }
        for s in &mut self.body {
            fix_stmt_rec(s, &fix_expr, nregs, mem);
        }
        self.fifo_din.walk_mut(&mut |e| fix_expr(e));
        fix_leaf(&mut self.fifo_push);
        fix_leaf(&mut self.fifo_pop);
        if let Some(d) = &mut self.display {
            d.walk_mut(&mut |e| fix_expr(e));
        }
        self.cycles = self.cycles.clamp(2, 64);
    }

    /// Number of expression sites reachable by [`Self::for_each_expr_mut`].
    pub fn count_exprs(&self) -> usize {
        let mut n = 0;
        let mut probe = self.clone();
        probe.for_each_expr_mut(&mut |_| n += 1);
        n
    }

    /// Visits every expression node in the body, wires, FIFO drive, and
    /// display condition.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        for w in &mut self.wires {
            w.walk_mut(f);
        }
        for s in &mut self.body {
            walk_stmt_exprs(s, f);
        }
        self.fifo_din.walk_mut(f);
        if let Some(d) = &mut self.display {
            d.walk_mut(f);
        }
    }

    /// Renders the spec to Verilog source (top module `T`, plus the
    /// `VFifo` submodule when enabled).
    pub fn render(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        let mut ports = vec![
            "input wire clk".to_string(),
            "input wire [15:0] a".to_string(),
            "input wire [15:0] b".to_string(),
        ];
        for i in 0..self.nregs {
            ports.push(format!("output wire [15:0] o{i}"));
        }
        if self.mem {
            ports.push("output wire [15:0] om".to_string());
        }
        if self.fifo {
            ports.push("output wire [15:0] of".to_string());
        }
        lines.push(format!("module T({});", ports.join(", ")));
        for i in 0..self.nregs {
            lines.push(format!("  reg [15:0] r{i} = {};", self.reg_init[i]));
        }
        lines.push("  reg [7:0] cc = 0;".to_string());
        if self.mem {
            lines.push("  reg [15:0] m [0:7];".to_string());
        }
        for (i, w) in self.wires.iter().enumerate() {
            lines.push(format!("  wire [15:0] w{i}; assign w{i} = {};", w.render()));
        }
        if self.fifo {
            lines.push("  wire [15:0] fd; wire [3:0] fcnt;".to_string());
            lines.push(format!(
                "  VFifo vf(.clk(clk), .din({}), .push({}[0]), .pop({}[0]), .dout(fd), .count(fcnt));",
                self.fifo_din.render(),
                self.fifo_push.render(),
                self.fifo_pop.render()
            ));
        }
        if matches!(self.finish, Finish::InputAt { .. }) {
            lines.push("  wire [15:0] fsel; assign fsel = a ^ b;".to_string());
        }
        lines.push("  always @(posedge clk) begin".to_string());
        lines.push("    cc <= cc + 1;".to_string());
        for s in &self.body {
            s.render(&mut lines, 2);
        }
        if let Some(cond) = &self.display {
            lines.push(format!(
                "    if ({}) $display(\"s=%d %h\", r0, cc);",
                cond.render()
            ));
        }
        match &self.finish {
            Finish::Never => {}
            Finish::At(n) => lines.push(format!("    if (cc == {n}) $finish;")),
            Finish::InputAt { min, bit } => {
                lines.push(format!("    if (cc >= {min} && fsel[{bit}]) $finish;"));
            }
        }
        lines.push("  end".to_string());
        for i in 0..self.nregs {
            lines.push(format!("  assign o{i} = r{i};"));
        }
        if self.mem {
            lines.push("  assign om = m[cc[2:0]];".to_string());
        }
        if self.fifo {
            lines.push("  assign of = fd + fcnt;".to_string());
        }
        lines.push("endmodule".to_string());
        if self.fifo {
            lines.push(String::new());
            lines.extend(VFIFO_SRC.lines().map(str::to_string));
        }
        lines.join("\n")
    }

    /// The output port names the differential runner compares.
    pub fn outputs(&self) -> Vec<String> {
        let mut outs: Vec<String> = (0..self.nregs).map(|i| format!("o{i}")).collect();
        if self.mem {
            outs.push("om".to_string());
        }
        if self.fifo {
            outs.push("of".to_string());
        }
        outs
    }

    /// Line count of the rendered top module (the shrinker's size metric;
    /// excludes the fixed `VFifo` library module).
    pub fn top_lines(&self) -> usize {
        match self.render().split("\n\nmodule VFifo").next() {
            Some(top) => top.lines().count(),
            None => self.render().lines().count(),
        }
    }

    /// Structural features contributing to the coverage signal.
    pub fn features(&self) -> Vec<String> {
        let mut f = Vec::new();
        if self.mem {
            f.push("spec:mem".to_string());
        }
        if self.fifo {
            f.push("spec:fifo".to_string());
        }
        if self.display.is_some() {
            f.push("spec:display".to_string());
        }
        match self.finish {
            Finish::Never => {}
            Finish::At(_) => f.push("spec:finish_at".to_string()),
            Finish::InputAt { .. } => f.push("spec:finish_input".to_string()),
        }
        f.push(format!(
            "spec:stmts_log2:{}",
            32 - count_stmts(&self.body).leading_zeros()
        ));
        f
    }
}

/// The FIFO-style library submodule generated designs may instantiate: an
/// 8-deep queue with occupancy tracking — memory write ports, wrap-around
/// pointers, and cross-coupled conditional updates, the stdlib-peripheral
/// shape in one synthesizable module.
pub const VFIFO_SRC: &str = "\
module VFifo(input wire clk, input wire [15:0] din, input wire push, input wire pop,
             output wire [15:0] dout, output wire [3:0] count);
  reg [15:0] q [0:7];
  reg [2:0] rd = 0;
  reg [2:0] wr = 0;
  reg [3:0] cnt = 0;
  always @(posedge clk) begin
    if (push && (cnt < 8) && !(pop && (cnt > 0))) begin
      q[wr[2:0]] <= din; wr <= wr + 1; cnt <= cnt + 1;
    end
    if (pop && (cnt > 0) && !(push && (cnt < 8))) begin
      rd <= rd + 1; cnt <= cnt - 1;
    end
    if (push && (cnt < 8) && pop && (cnt > 0)) begin
      q[wr[2:0]] <= din; wr <= wr + 1; rd <= rd + 1;
    end
  end
  assign dout = q[rd[2:0]];
  assign count = cnt;
endmodule";

fn fix_stmt_rec(s: &mut Stmt, fix_expr: &impl Fn(&mut Expr), nregs: usize, mem: bool) {
    match s {
        Stmt::MemWrite { rhs, .. } if !mem => {
            // Demote to a register assign so the statement stays legal.
            let rhs = std::mem::replace(rhs, Expr::Leaf(Leaf::InputA));
            *s = Stmt::Assign { reg: 0, rhs };
        }
        Stmt::SliceAssign { hi, lo, .. } => {
            *hi = (*hi).min(15);
            *lo = (*lo).min(*hi);
        }
        _ => {}
    }
    match s {
        Stmt::Assign { reg, .. } | Stmt::SliceAssign { reg, .. } => *reg %= nregs,
        Stmt::MemWrite {
            addr: Leaf::Reg(i), ..
        }
        | Stmt::Case {
            scr: Leaf::Reg(i), ..
        } => *i %= nregs,
        _ => {}
    }
    walk_own_exprs(s, &mut |e| fix_expr(e));
    for body in s.bodies_mut() {
        for st in body {
            fix_stmt_rec(st, fix_expr, nregs, mem);
        }
    }
}

/// Visits the expressions of one statement, not of its nested bodies.
fn walk_own_exprs(s: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    match s {
        Stmt::Assign { rhs, .. } | Stmt::SliceAssign { rhs, .. } | Stmt::MemWrite { rhs, .. } => {
            rhs.walk_mut(f);
        }
        Stmt::If { cond, .. } => cond.walk_mut(f),
        Stmt::Case { .. } => {}
    }
}

/// Visits every expression in a statement tree.
pub fn walk_stmt_exprs(s: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    walk_own_exprs(s, f);
    for body in s.bodies_mut() {
        for st in body {
            walk_stmt_exprs(st, f);
        }
    }
}

/// Total statements in a body, recursively.
pub fn count_stmts(body: &[Stmt]) -> u32 {
    let nested = |s: &Stmt| s.bodies().into_iter().map(|b| count_stmts(b)).sum::<u32>();
    body.iter().map(|s| 1 + nested(s)).sum()
}

/// Hands `edit` the list holding the `target`-th statement (preorder) of
/// a body tree, and its index there. Returns whether the target was
/// found.
pub fn edit_stmt_at(
    body: &mut Vec<Stmt>,
    target: &mut usize,
    edit: &mut dyn FnMut(&mut Vec<Stmt>, usize),
) -> bool {
    for i in 0..body.len() {
        if *target == 0 {
            edit(body, i);
            return true;
        }
        *target -= 1;
        if body[i]
            .bodies_mut()
            .into_iter()
            .any(|b| edit_stmt_at(b, target, edit))
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_sim::{elaborate, library_from_source};

    /// Every generated spec renders to source that parses, elaborates,
    /// and synthesizes.
    #[test]
    fn generated_specs_elaborate_and_synthesize() {
        let mut synth_ok = 0;
        for seed in 0..64 {
            let mut rng = Prng::new(seed);
            let spec = DesignSpec::generate(&mut rng);
            let src = spec.render();
            let lib = library_from_source(&src)
                .unwrap_or_else(|e| panic!("seed {seed} failed to parse: {e:?}\n{src}"));
            let design = elaborate("T", &lib, &Default::default())
                .unwrap_or_else(|e| panic!("seed {seed} failed to elaborate: {e:?}\n{src}"));
            if cascade_netlist::synthesize(&design).is_ok() {
                synth_ok += 1;
            }
        }
        assert!(
            synth_ok >= 56,
            "only {synth_ok}/64 generated specs synthesized"
        );
    }

    /// Mutation keeps specs valid: after many mutations the spec still
    /// renders to elaboratable source.
    #[test]
    fn mutated_specs_stay_valid() {
        for seed in 0..24 {
            let mut rng = Prng::new(seed + 100);
            let mut spec = DesignSpec::generate(&mut rng);
            for step in 0..20 {
                spec.mutate(&mut rng);
                let src = spec.render();
                let lib = library_from_source(&src).unwrap_or_else(|e| {
                    panic!("seed {seed} step {step} failed to parse: {e:?}\n{src}")
                });
                elaborate("T", &lib, &Default::default()).unwrap_or_else(|e| {
                    panic!("seed {seed} step {step} failed to elaborate: {e:?}\n{src}")
                });
            }
        }
    }

    /// A minimal spec renders comfortably under the 15-line repro target.
    #[test]
    fn minimal_spec_is_small() {
        let spec = DesignSpec {
            nregs: 1,
            reg_init: vec![1],
            wires: Vec::new(),
            mem: false,
            fifo: false,
            fifo_din: Expr::Leaf(Leaf::InputA),
            fifo_push: Leaf::InputA,
            fifo_pop: Leaf::InputB,
            body: vec![Stmt::Assign {
                reg: 0,
                rhs: Expr::Leaf(Leaf::InputA),
            }],
            display: None,
            finish: Finish::Never,
            cycles: 4,
            stim_seed: 0,
        };
        assert!(spec.top_lines() <= 9, "{}", spec.render());
    }
}
