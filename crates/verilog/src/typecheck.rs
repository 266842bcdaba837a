//! Type checking, constant evaluation, and symbol resolution.
//!
//! The checker resolves a module against a library of declared modules and a
//! set of parameter overrides, producing a [`CheckedModule`] with a fully
//! resolved symbol table. Both the simulator and the synthesizer elaborate
//! from this structure.

use crate::ast::*;
use crate::source::{Diagnostic, FrontendResult, Phase, Span};
use cascade_bits::Bits;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Resolved parameter values, in declaration order.
pub type ParamEnv = BTreeMap<String, Bits>;

/// What a name in a module's scope refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolKind {
    Wire,
    Reg,
    Integer,
    Parameter,
}

impl SymbolKind {
    /// Whether the symbol holds procedural state (assignable in `always`).
    pub fn is_variable(self) -> bool {
        matches!(self, SymbolKind::Reg | SymbolKind::Integer)
    }
}

/// A resolved declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Symbol {
    pub name: String,
    pub kind: SymbolKind,
    pub signed: bool,
    /// Declared bounds; `(0, 0)` for scalars.
    pub msb: i64,
    pub lsb: i64,
    /// Unpacked array bounds for memories.
    pub array: Option<(i64, i64)>,
    /// Port direction when the symbol is a port.
    pub port: Option<PortDir>,
    /// Declaration initializer (`reg [7:0] cnt = 1`).
    pub init: Option<Expr>,
    /// Resolved value for parameters.
    pub value: Option<Bits>,
}

impl Symbol {
    /// The packed width in bits.
    pub fn width(&self) -> u32 {
        ((self.msb - self.lsb).unsigned_abs() + 1) as u32
    }

    /// The number of array words (1 for non-arrays).
    pub fn array_len(&self) -> u64 {
        match self.array {
            Some((a, b)) => (a - b).unsigned_abs() + 1,
            None => 1,
        }
    }

    /// Maps a source-level bit index to an offset from the LSB end, or
    /// `None` when out of declared range.
    pub fn bit_offset(&self, index: i64) -> Option<u32> {
        let (lo, hi) = if self.msb >= self.lsb {
            (self.lsb, self.msb)
        } else {
            (self.msb, self.lsb)
        };
        if index < lo || index > hi {
            return None;
        }
        let off = if self.msb >= self.lsb {
            index - self.lsb
        } else {
            self.lsb - index
        };
        Some(off as u32)
    }

    /// Maps a source-level array index to a word offset, or `None` when out
    /// of range.
    pub fn array_offset(&self, index: i64) -> Option<u64> {
        let (a, b) = self.array?;
        let (lo, hi) = if a >= b { (b, a) } else { (a, b) };
        if index < lo || index > hi {
            return None;
        }
        Some((index - lo) as u64)
    }
}

/// A type-checked module: the AST plus resolved parameters and symbols.
#[derive(Debug, Clone)]
pub struct CheckedModule {
    pub module: Module,
    pub params: ParamEnv,
    pub symbols: BTreeMap<String, Symbol>,
    /// `(instance name, module name, resolved parameter overrides)`.
    pub instances: Vec<ResolvedInstance>,
}

/// A resolved instantiation site.
#[derive(Debug, Clone)]
pub struct ResolvedInstance {
    pub inst_name: String,
    pub module_name: String,
    pub params: ParamEnv,
    /// Port connections resolved to `(port name, expr)`.
    pub connections: Vec<(String, Option<Expr>)>,
}

impl CheckedModule {
    /// Looks up a symbol.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.get(name)
    }

    /// The declared width of a named symbol, if any.
    pub fn width_of(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).map(Symbol::width)
    }
}

/// Evaluates a constant expression under a parameter environment.
///
/// Supports every operator the parser accepts except runtime-only constructs
/// (hierarchical names, `$time`, `$random`).
///
/// # Errors
///
/// Returns a [`Diagnostic`] when the expression references a non-parameter
/// name or a runtime-only construct.
pub fn const_eval(expr: &Expr, env: &ParamEnv) -> FrontendResult<Bits> {
    let err = |msg: String| Diagnostic::new(Phase::Elaborate, msg, Span::synthetic());
    match expr {
        Expr::Literal { value, .. } => Ok(value.clone()),
        Expr::MaskedLiteral { value, .. } => Ok(value.clone()),
        Expr::Str(_) => Err(err("string is not a constant value".into())),
        Expr::Ident(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| err(format!("`{name}` is not a constant parameter"))),
        Expr::Hier(path) => Err(err(format!(
            "hierarchical name `{}` is not constant",
            path.join(".")
        ))),
        Expr::Unary { op, operand } => {
            let v = const_eval(operand, env)?;
            Ok(apply_unary(*op, &v))
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = const_eval(lhs, env)?;
            let r = const_eval(rhs, env)?;
            Ok(apply_binary(*op, &l, &r))
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            if const_eval(cond, env)?.to_bool() {
                const_eval(then_expr, env)
            } else {
                const_eval(else_expr, env)
            }
        }
        Expr::Index { base, index } => {
            let b = const_eval(base, env)?;
            let i = const_eval(index, env)?.to_u64() as u32;
            Ok(Bits::from_bool(b.bit(i)))
        }
        Expr::Part { base, msb, lsb } => {
            let b = const_eval(base, env)?;
            let m = const_eval(msb, env)?.to_u64() as u32;
            let l = const_eval(lsb, env)?.to_u64() as u32;
            let (lo, hi) = if m >= l { (l, m) } else { (m, l) };
            Ok(b.slice(lo, hi - lo + 1))
        }
        Expr::IndexedPart {
            base,
            offset,
            width,
            ascending,
        } => {
            let b = const_eval(base, env)?;
            let off = const_eval(offset, env)?.to_u64() as u32;
            let w = const_eval(width, env)?.to_u64() as u32;
            let lo = if *ascending {
                off
            } else {
                off.saturating_sub(w.saturating_sub(1))
            };
            Ok(b.slice(lo, w))
        }
        Expr::Concat(parts) => {
            let mut acc = Bits::zero(0);
            for p in parts {
                let v = const_eval(p, env)?;
                acc = acc.concat(&v);
            }
            Ok(acc)
        }
        Expr::Replicate { count, inner } => {
            let c = const_eval(count, env)?.to_u64() as u32;
            Ok(const_eval(inner, env)?.repeat(c))
        }
        Expr::FnCall { name, .. } => Err(err(format!(
            "function call `{name}(...)` in a constant expression is unsupported"
        ))),
        Expr::SystemCall { func, args } => match func {
            SystemFunction::Clog2 => {
                let v = const_eval(
                    args.first()
                        .ok_or_else(|| err("$clog2 requires an argument".into()))?,
                    env,
                )?;
                Ok(Bits::from_u64(32, clog2(&v)))
            }
            SystemFunction::Signed | SystemFunction::Unsigned => const_eval(
                args.first()
                    .ok_or_else(|| err(format!("{} requires an argument", func.as_str())))?,
                env,
            ),
            SystemFunction::Time | SystemFunction::Random => {
                Err(err(format!("{} is not constant", func.as_str())))
            }
        },
    }
}

/// Ceiling log base 2 (Verilog `$clog2` semantics: `$clog2(0) == 0`).
pub fn clog2(v: &Bits) -> u64 {
    match v.leading_one() {
        None => 0,
        Some(msb) => {
            // Exact power of two => msb; otherwise msb + 1.
            if v.count_ones() == 1 {
                msb as u64
            } else {
                msb as u64 + 1
            }
        }
    }
}

/// Applies a unary operator with Verilog semantics (context-free widths).
pub fn apply_unary(op: UnaryOp, v: &Bits) -> Bits {
    match op {
        UnaryOp::Plus => v.clone(),
        UnaryOp::Neg => v.neg(),
        UnaryOp::LogicalNot => Bits::from_bool(!v.to_bool()),
        UnaryOp::BitNot => v.not(),
        UnaryOp::ReduceAnd => Bits::from_bool(v.reduce_and()),
        UnaryOp::ReduceOr => Bits::from_bool(v.reduce_or()),
        UnaryOp::ReduceXor => Bits::from_bool(v.reduce_xor()),
        UnaryOp::ReduceNand => Bits::from_bool(!v.reduce_and()),
        UnaryOp::ReduceNor => Bits::from_bool(!v.reduce_or()),
        UnaryOp::ReduceXnor => Bits::from_bool(!v.reduce_xor()),
    }
}

/// Applies a binary operator with Verilog two-state, unsigned semantics.
pub fn apply_binary(op: BinaryOp, l: &Bits, r: &Bits) -> Bits {
    use std::cmp::Ordering;
    match op {
        BinaryOp::Add => l.add(r),
        BinaryOp::Sub => l.sub(r),
        BinaryOp::Mul => l.mul(r),
        BinaryOp::Div => l.div(r),
        BinaryOp::Rem => l.rem(r),
        BinaryOp::Pow => l.pow(r),
        BinaryOp::And => l.and(r),
        BinaryOp::Or => l.or(r),
        BinaryOp::Xor => l.xor(r),
        BinaryOp::Xnor => l.xnor(r),
        BinaryOp::LogicalAnd => Bits::from_bool(l.to_bool() && r.to_bool()),
        BinaryOp::LogicalOr => Bits::from_bool(l.to_bool() || r.to_bool()),
        BinaryOp::Eq | BinaryOp::CaseEq => Bits::from_bool(l.eq_value(r)),
        BinaryOp::Ne | BinaryOp::CaseNe => Bits::from_bool(!l.eq_value(r)),
        BinaryOp::Lt => Bits::from_bool(l.cmp_unsigned(r) == Ordering::Less),
        BinaryOp::Le => Bits::from_bool(l.cmp_unsigned(r) != Ordering::Greater),
        BinaryOp::Gt => Bits::from_bool(l.cmp_unsigned(r) == Ordering::Greater),
        BinaryOp::Ge => Bits::from_bool(l.cmp_unsigned(r) != Ordering::Less),
        BinaryOp::Shl | BinaryOp::AShl => l.shl(r.to_u64().min(u32::MAX as u64) as u32),
        BinaryOp::Shr => l.shr(r.to_u64().min(u32::MAX as u64) as u32),
        BinaryOp::AShr => l.ashr(r.to_u64().min(u32::MAX as u64) as u32),
    }
}

/// Resolves a module's parameters (header defaults plus body
/// `parameter`/`localparam` items) under the given overrides, without
/// running the full checker.
///
/// # Errors
///
/// Returns the first diagnostic from a non-constant default value.
pub fn resolve_params(module: &Module, overrides: &ParamEnv) -> FrontendResult<ParamEnv> {
    let mut env = ParamEnv::new();
    for p in &module.params {
        let value = match overrides.get(&p.name) {
            Some(v) => v.clone(),
            None => const_eval(&p.value, &env)?,
        };
        env.insert(p.name.clone(), value);
    }
    for item in &module.items {
        if let ModuleItem::Param(p) = item {
            let value = if !p.local && overrides.contains_key(&p.name) {
                overrides[&p.name].clone()
            } else {
                const_eval(&p.value, &env)?
            };
            env.insert(p.name.clone(), value);
        }
    }
    Ok(env)
}

/// A library of module declarations used to resolve instantiations.
///
/// Declarations are immutable once inserted and shared behind an [`Arc`],
/// so cloning a library (a runtime stages one per eval) bumps reference
/// counts instead of copying ASTs.
#[derive(Debug, Clone, Default)]
pub struct ModuleLibrary {
    modules: BTreeMap<String, Arc<Module>>,
}

impl ModuleLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a module declaration.
    pub fn insert(&mut self, module: Module) {
        self.modules.insert(module.name.clone(), Arc::new(module));
    }

    /// Looks up a module by name.
    pub fn get(&self, name: &str) -> Option<&Module> {
        self.modules.get(name).map(|m| &**m)
    }

    /// Whether a module with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.modules.contains_key(name)
    }

    /// Iterates over the declared modules.
    pub fn iter(&self) -> impl Iterator<Item = &Module> {
        self.modules.values().map(|m| &**m)
    }
}

/// Type-checks `module` against `library` with the given parameter
/// overrides.
///
/// # Errors
///
/// Returns every diagnostic found (declaration conflicts, unresolved names,
/// illegal assignment targets, bad instantiations).
pub fn check_module(
    module: &Module,
    overrides: &ParamEnv,
    library: &ModuleLibrary,
) -> Result<CheckedModule, Vec<Diagnostic>> {
    let mut ck = Checker {
        library,
        diags: Vec::new(),
        symbols: BTreeMap::new(),
        params: BTreeMap::new(),
        functions: BTreeMap::new(),
    };
    let out = ck.run(module, overrides);
    if ck.diags.is_empty() {
        Ok(out)
    } else {
        Err(ck.diags)
    }
}

struct Checker<'a> {
    library: &'a ModuleLibrary,
    diags: Vec<Diagnostic>,
    symbols: BTreeMap<String, Symbol>,
    params: ParamEnv,
    /// Declared functions: name → arity.
    functions: BTreeMap<String, usize>,
}

impl<'a> Checker<'a> {
    fn error(&mut self, msg: impl Into<String>, span: Span) {
        self.diags
            .push(Diagnostic::new(Phase::Typecheck, msg, span));
    }

    fn declare(&mut self, sym: Symbol, span: Span) {
        if self.symbols.contains_key(&sym.name) {
            self.error(format!("duplicate declaration of `{}`", sym.name), span);
            return;
        }
        self.symbols.insert(sym.name.clone(), sym);
    }

    fn resolve_range(&mut self, range: &Option<Range>, span: Span) -> (i64, i64) {
        match range {
            None => (0, 0),
            Some(r) => {
                let msb = match const_eval(&r.msb, &self.params) {
                    Ok(v) => v.to_i64(),
                    Err(e) => {
                        self.error(format!("range bound: {}", e.message), span);
                        0
                    }
                };
                let lsb = match const_eval(&r.lsb, &self.params) {
                    Ok(v) => v.to_i64(),
                    Err(e) => {
                        self.error(format!("range bound: {}", e.message), span);
                        0
                    }
                };
                if (msb - lsb).unsigned_abs() + 1 > 1_000_000 {
                    self.error("range exceeds 1,000,000 bits", span);
                    return (0, 0);
                }
                (msb, lsb)
            }
        }
    }

    fn run(&mut self, module: &Module, overrides: &ParamEnv) -> CheckedModule {
        // Pass 0: parameters (in order; later ones may use earlier ones).
        for p in &module.params {
            let value = overrides.get(&p.name).cloned().or_else(|| {
                const_eval(&p.value, &self.params)
                    .map_err(|e| {
                        self.error(format!("parameter `{}`: {}", p.name, e.message), p.span)
                    })
                    .ok()
            });
            let value = value.unwrap_or_else(|| Bits::from_u64(32, 0));
            self.params.insert(p.name.clone(), value.clone());
            let (msb, lsb) = self.resolve_range(&p.range, p.span);
            self.declare(
                Symbol {
                    name: p.name.clone(),
                    kind: SymbolKind::Parameter,
                    signed: false,
                    msb,
                    lsb,
                    array: None,
                    port: None,
                    init: None,
                    value: Some(value),
                },
                p.span,
            );
        }
        // Collect function names for call checking.
        for item in &module.items {
            if let ModuleItem::Function(f) = item {
                self.functions.insert(f.name.clone(), f.inputs.len());
            }
        }
        for item in &module.items {
            if let ModuleItem::Param(p) = item {
                if !p.local && overrides.contains_key(&p.name) {
                    self.params
                        .insert(p.name.clone(), overrides[&p.name].clone());
                } else {
                    match const_eval(&p.value, &self.params) {
                        Ok(v) => {
                            self.params.insert(p.name.clone(), v);
                        }
                        Err(e) => {
                            self.error(format!("parameter `{}`: {}", p.name, e.message), p.span)
                        }
                    }
                }
                let value = self.params.get(&p.name).cloned();
                let (msb, lsb) = self.resolve_range(&p.range, p.span);
                self.declare(
                    Symbol {
                        name: p.name.clone(),
                        kind: SymbolKind::Parameter,
                        signed: false,
                        msb,
                        lsb,
                        array: None,
                        port: None,
                        init: None,
                        value,
                    },
                    p.span,
                );
            }
        }

        // Pass 1: ports and nets.
        for port in &module.ports {
            let (msb, lsb) = self.resolve_range(&port.range, port.span);
            self.declare(
                Symbol {
                    name: port.name.clone(),
                    kind: if port.is_reg {
                        SymbolKind::Reg
                    } else {
                        SymbolKind::Wire
                    },
                    signed: port.signed,
                    msb,
                    lsb,
                    array: None,
                    port: Some(port.dir),
                    init: None,
                    value: None,
                },
                port.span,
            );
        }
        for item in &module.items {
            if let ModuleItem::Net(decl) = item {
                let (msb, lsb) = self.resolve_range(&decl.range, decl.span);
                for d in &decl.decls {
                    // `output foo;` followed by `reg foo;` re-declaration is
                    // common non-ANSI style; upgrade the port instead.
                    if let Some(existing) = self.symbols.get_mut(&d.name) {
                        if existing.port.is_some()
                            && !existing.kind.is_variable()
                            && decl.kind == NetKind::Reg
                        {
                            existing.kind = SymbolKind::Reg;
                            existing.init = d.init.clone();
                            continue;
                        }
                    }
                    let array = d.array.as_ref().map(|_| {
                        let r = self.resolve_range(&d.array, d.span);
                        if (r.0 - r.1).unsigned_abs() + 1 > 16_777_216 {
                            self.error("array exceeds 16M words", d.span);
                            (0, 0)
                        } else {
                            r
                        }
                    });
                    let (kind, signed, msb, lsb) = match decl.kind {
                        NetKind::Wire => (SymbolKind::Wire, decl.signed, msb, lsb),
                        NetKind::Reg => (SymbolKind::Reg, decl.signed, msb, lsb),
                        NetKind::Integer => (SymbolKind::Integer, true, 31, 0),
                    };
                    self.declare(
                        Symbol {
                            name: d.name.clone(),
                            kind,
                            signed,
                            msb,
                            lsb,
                            array,
                            port: None,
                            init: d.init.clone(),
                            value: None,
                        },
                        d.span,
                    );
                }
            }
        }

        // Pass 2: instances (names enter scope for hierarchical refs).
        let mut instances = Vec::new();
        for item in &module.items {
            if let ModuleItem::Instance(inst) = item {
                instances.push(self.check_instance(inst));
            }
        }

        // Pass 3: bodies.
        let inst_names: BTreeMap<String, String> = instances
            .iter()
            .map(|ri| (ri.inst_name.clone(), ri.module_name.clone()))
            .collect();
        for item in &module.items {
            match item {
                ModuleItem::Assign(a) => {
                    self.check_lvalue(&a.lhs, false, a.span);
                    self.check_expr(&a.rhs, &inst_names, a.span);
                }
                ModuleItem::Always(a) => {
                    if let Sensitivity::List(items) = &a.sensitivity {
                        for it in items {
                            self.check_expr(&it.expr, &inst_names, a.span);
                        }
                    }
                    self.check_stmt(&a.body, &inst_names, a.span);
                }
                ModuleItem::Initial(i) => self.check_stmt(&i.body, &inst_names, i.span),
                ModuleItem::Statement(s) => self.check_stmt(s, &inst_names, module.span),
                ModuleItem::Net(_)
                | ModuleItem::Param(_)
                | ModuleItem::Instance(_)
                | ModuleItem::Function(_)
                | ModuleItem::Genvar(_)
                | ModuleItem::GenerateFor(_) => {}
            }
        }

        CheckedModule {
            module: module.clone(),
            params: self.params.clone(),
            symbols: self.symbols.clone(),
            instances,
        }
    }

    fn check_instance(&mut self, inst: &Instance) -> ResolvedInstance {
        let mut params = ParamEnv::new();
        let mut connections = Vec::new();
        match self.library.get(&inst.module) {
            None => {
                self.error(format!("unknown module `{}`", inst.module), inst.span);
            }
            Some(decl) => {
                // Parameter overrides.
                for (i, conn) in inst.params.iter().enumerate() {
                    let target = match &conn.name {
                        Some(n) => {
                            if decl.param(n).is_none() {
                                self.error(
                                    format!("module `{}` has no parameter `{n}`", inst.module),
                                    conn.span,
                                );
                                continue;
                            }
                            n.clone()
                        }
                        None => match decl.params.get(i) {
                            Some(p) => p.name.clone(),
                            None => {
                                self.error(
                                    format!("too many positional parameters for `{}`", inst.module),
                                    conn.span,
                                );
                                continue;
                            }
                        },
                    };
                    if let Some(expr) = &conn.expr {
                        match const_eval(expr, &self.params) {
                            Ok(v) => {
                                params.insert(target, v);
                            }
                            Err(e) => self.error(
                                format!("parameter override `{target}`: {}", e.message),
                                conn.span,
                            ),
                        }
                    }
                }
                // Port connections.
                let named = inst.ports.iter().any(|c| c.name.is_some());
                if named {
                    for conn in &inst.ports {
                        match &conn.name {
                            Some(n) => {
                                if decl.port(n).is_none() {
                                    self.error(
                                        format!("module `{}` has no port `{n}`", inst.module),
                                        conn.span,
                                    );
                                } else {
                                    connections.push((n.clone(), conn.expr.clone()));
                                }
                            }
                            None => {
                                self.error("cannot mix named and positional connections", conn.span)
                            }
                        }
                    }
                } else {
                    for (i, conn) in inst.ports.iter().enumerate() {
                        match decl.ports.get(i) {
                            Some(p) => connections.push((p.name.clone(), conn.expr.clone())),
                            None => self.error(
                                format!("too many positional connections for `{}`", inst.module),
                                conn.span,
                            ),
                        }
                    }
                }
            }
        }
        if self.symbols.contains_key(&inst.name) {
            self.error(
                format!("instance name `{}` conflicts with a declaration", inst.name),
                inst.span,
            );
        }
        ResolvedInstance {
            inst_name: inst.name.clone(),
            module_name: inst.module.clone(),
            params,
            connections,
        }
    }

    #[allow(clippy::only_used_in_recursion)]
    fn check_stmt(&mut self, stmt: &Stmt, inst_names: &BTreeMap<String, String>, span: Span) {
        match stmt {
            Stmt::Block { stmts, .. } => {
                for s in stmts {
                    self.check_stmt(s, inst_names, span);
                }
            }
            Stmt::Blocking { lhs, rhs, span } | Stmt::NonBlocking { lhs, rhs, span } => {
                self.check_lvalue(lhs, true, *span);
                self.check_expr(rhs, inst_names, *span);
                let mut f = |e: &Expr| self.check_expr_inner(e, inst_names, *span);
                lhs.visit_exprs(&mut f);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                self.check_expr(cond, inst_names, *span);
                self.check_stmt(then_branch, inst_names, *span);
                if let Some(e) = else_branch {
                    self.check_stmt(e, inst_names, *span);
                }
            }
            Stmt::Case {
                scrutinee,
                arms,
                default,
                span,
                ..
            } => {
                self.check_expr(scrutinee, inst_names, *span);
                for arm in arms {
                    for l in &arm.labels {
                        self.check_expr(l, inst_names, *span);
                    }
                    self.check_stmt(&arm.body, inst_names, *span);
                }
                if let Some(d) = default {
                    self.check_stmt(d, inst_names, *span);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                self.check_stmt(init, inst_names, *span);
                self.check_expr(cond, inst_names, *span);
                self.check_stmt(step, inst_names, *span);
                self.check_stmt(body, inst_names, *span);
            }
            Stmt::While { cond, body, span } => {
                self.check_expr(cond, inst_names, *span);
                self.check_stmt(body, inst_names, *span);
            }
            Stmt::Repeat { count, body, span } => {
                self.check_expr(count, inst_names, *span);
                self.check_stmt(body, inst_names, *span);
            }
            Stmt::Forever { body, span } => self.check_stmt(body, inst_names, *span),
            Stmt::SystemTask { args, span, .. } => {
                for a in args {
                    self.check_expr(a, inst_names, *span);
                }
            }
            Stmt::Null => {}
        }
    }

    fn check_lvalue(&mut self, lv: &LValue, procedural: bool, span: Span) {
        match lv {
            // Hierarchical targets are validated against the instantiated
            // module where the instance table is known (the runtime's
            // transform); here we only require a plausible path.
            LValue::Hier(path) => {
                if path.len() < 2 {
                    self.error("hierarchical target needs at least two components", span);
                }
            }
            LValue::Concat(parts) => {
                for p in parts {
                    self.check_lvalue(p, procedural, span);
                }
            }
            _ => {
                let name = lv.written_names()[0].to_string();
                match self.symbols.get(&name).cloned() {
                    None => self.error(format!("assignment to undeclared `{name}`"), span),
                    Some(sym) => {
                        if procedural && !sym.kind.is_variable() {
                            self.error(format!("procedural assignment to non-reg `{name}`"), span);
                        }
                        if !procedural && sym.kind.is_variable() {
                            self.error(format!("continuous assignment to reg `{name}`"), span);
                        }
                        if !procedural && sym.kind == SymbolKind::Parameter {
                            self.error(format!("assignment to parameter `{name}`"), span);
                        }
                        if sym.port == Some(PortDir::Input) {
                            self.error(format!("assignment to input port `{name}`"), span);
                        }
                    }
                }
            }
        }
    }

    fn check_expr(&mut self, expr: &Expr, inst_names: &BTreeMap<String, String>, span: Span) {
        self.check_expr_inner(expr, inst_names, span);
    }

    fn check_expr_inner(&mut self, expr: &Expr, inst_names: &BTreeMap<String, String>, span: Span) {
        // Function-call validation (names and arity).
        let mut call_errors: Vec<String> = Vec::new();
        fn walk_calls(e: &Expr, functions: &BTreeMap<String, usize>, errors: &mut Vec<String>) {
            if let Expr::FnCall { name, args } = e {
                match functions.get(name) {
                    None => errors.push(format!("unknown function `{name}`")),
                    Some(&arity) if arity != args.len() => errors.push(format!(
                        "function `{name}` takes {arity} argument(s), got {}",
                        args.len()
                    )),
                    Some(_) => {}
                }
                for a in args {
                    walk_calls(a, functions, errors);
                }
                return;
            }
            match e {
                Expr::Unary { operand, .. } => walk_calls(operand, functions, errors),
                Expr::Binary { lhs, rhs, .. } => {
                    walk_calls(lhs, functions, errors);
                    walk_calls(rhs, functions, errors);
                }
                Expr::Ternary {
                    cond,
                    then_expr,
                    else_expr,
                } => {
                    walk_calls(cond, functions, errors);
                    walk_calls(then_expr, functions, errors);
                    walk_calls(else_expr, functions, errors);
                }
                Expr::Index { base, index } => {
                    walk_calls(base, functions, errors);
                    walk_calls(index, functions, errors);
                }
                Expr::Part { base, msb, lsb } => {
                    walk_calls(base, functions, errors);
                    walk_calls(msb, functions, errors);
                    walk_calls(lsb, functions, errors);
                }
                Expr::IndexedPart {
                    base,
                    offset,
                    width,
                    ..
                } => {
                    walk_calls(base, functions, errors);
                    walk_calls(offset, functions, errors);
                    walk_calls(width, functions, errors);
                }
                Expr::Concat(parts) => {
                    for p in parts {
                        walk_calls(p, functions, errors);
                    }
                }
                Expr::Replicate { count, inner } => {
                    walk_calls(count, functions, errors);
                    walk_calls(inner, functions, errors);
                }
                Expr::SystemCall { args, .. } => {
                    for a in args {
                        walk_calls(a, functions, errors);
                    }
                }
                _ => {}
            }
        }
        walk_calls(expr, &self.functions, &mut call_errors);
        for msg in call_errors {
            self.error(msg, span);
        }
        let mut unknown: Vec<String> = Vec::new();
        expr.visit_reads(&mut |path: &[String]| {
            if path.len() == 1 {
                let n = &path[0];
                if !self.symbols.contains_key(n) && !inst_names.contains_key(n) {
                    unknown.push(format!("unknown identifier `{n}`"));
                }
            } else {
                // Hierarchical: first component must be a known instance; the
                // rest is validated against the instantiated module when the
                // runtime flattens the design.
                let head = &path[0];
                if !inst_names.contains_key(head) {
                    unknown.push(format!(
                        "hierarchical reference through unknown instance `{head}`"
                    ));
                } else if let Some(target) = inst_names.get(head) {
                    if let Some(decl) = self.library.get(target) {
                        let leaf = &path[1];
                        let is_port = decl.port(leaf).is_some();
                        let is_net = decl.items.iter().any(|it| match it {
                            ModuleItem::Net(d) => d.decls.iter().any(|dd| &dd.name == leaf),
                            _ => false,
                        });
                        if !is_port && !is_net {
                            unknown.push(format!("module `{target}` has no member `{leaf}`"));
                        }
                    }
                }
            }
        });
        for msg in unknown {
            self.error(msg, span);
        }
    }
}
