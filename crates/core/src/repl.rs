//! The Read-Eval-Print-Loop controller and view (paper Sec. 3.1, Fig. 3).
//!
//! Verilog is accepted one line at a time; lines accumulate until they form
//! a complete item (a module declaration, a root declaration/instantiation,
//! or a statement), which is then eval'ed into the running program. Errors
//! are reported per item; code that passes begins execution immediately.

use crate::error::{panic_message, CascadeError};
use crate::runtime::Runtime;
use cascade_verilog::ast::{Item, ModuleItem, Stmt};
use cascade_verilog::{line_col, Diagnostic};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the REPL did with a line of input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplResponse {
    /// The line was accepted and the accumulated item(s) evaluated; any
    /// `$display` output produced immediately is included.
    Evaluated(Vec<String>),
    /// The line is part of an incomplete item; more input is needed.
    Incomplete,
    /// The item failed to parse or type check and was discarded.
    Error(String),
}

/// A line-oriented front end over [`Runtime`].
pub struct Repl {
    runtime: Runtime,
    buffer: String,
}

impl Repl {
    /// Wraps a runtime.
    pub fn new(runtime: Runtime) -> Self {
        Repl {
            runtime,
            buffer: String::new(),
        }
    }

    /// The underlying runtime.
    pub fn runtime(&mut self) -> &mut Runtime {
        &mut self.runtime
    }

    /// Feeds one line of input.
    ///
    /// A completed buffer may hold several items (a multi-item paste, or
    /// one line closing two items). Items are evaluated in order, each as
    /// its own eval, so an error names the *offending item* with
    /// buffer-accurate line numbers instead of blaming the whole batch;
    /// items before the failing one stay committed (Cascade programs are
    /// append-only, so earlier items never depend on later ones).
    pub fn line(&mut self, text: &str) -> ReplResponse {
        self.buffer.push_str(text);
        self.buffer.push('\n');
        if !self.buffer_complete() {
            return ReplResponse::Incomplete;
        }
        let src = std::mem::take(&mut self.buffer);
        let Some(chunks) = split_items(&src) else {
            // Unsplittable (parse error or exotic spans): evaluate whole.
            return match self.eval_guarded(&src) {
                Ok(()) => ReplResponse::Evaluated(self.runtime.drain_output()),
                Err(CascadeError::Parse(d)) => ReplResponse::Error(d.render(&src)),
                Err(e) => ReplResponse::Error(e.to_string()),
            };
        };
        let total = chunks.len();
        for (i, chunk) in chunks.iter().enumerate() {
            if let Err(e) = self.eval_guarded(&chunk.text) {
                // Output from already-committed items stays queued in the
                // runtime for the next successful drain.
                return ReplResponse::Error(render_item_error(&e, chunk, i + 1, total));
            }
        }
        ReplResponse::Evaluated(self.runtime.drain_output())
    }

    /// Evaluates one source chunk with panic containment: a panicking item
    /// surfaces as a structured [`CascadeError::Internal`] instead of
    /// unwinding through the session. The runtime restores its previous
    /// program when a commit fails partway, so items already committed
    /// stay live and consistent.
    fn eval_guarded(&mut self, src: &str) -> Result<(), CascadeError> {
        catch_unwind(AssertUnwindSafe(|| self.runtime.eval(src)))
            .unwrap_or_else(|p| Err(CascadeError::Internal(panic_message(p.as_ref()))))
    }

    /// Feeds a whole file (batch mode, paper Sec. 3.1). The process is the
    /// same as interactive input.
    ///
    /// # Errors
    ///
    /// Returns the first evaluation error.
    pub fn batch(&mut self, src: &str) -> Result<Vec<String>, CascadeError> {
        self.eval_guarded(src)?;
        Ok(self.runtime.drain_output())
    }

    /// Heuristic completeness check: balanced `module`/`endmodule`,
    /// `begin`/`end`, `case`/`endcase`, parens/braces/brackets, and a
    /// terminating `;` (or a block keyword ending).
    fn buffer_complete(&self) -> bool {
        let Ok(tokens) = cascade_verilog::lex(&self.buffer) else {
            // Unterminated comment/string: wait for more input... unless the
            // input cannot recover (a lex error on a complete line is rare;
            // let eval() surface it).
            return self.buffer.contains('\n');
        };
        use cascade_verilog::{Keyword, TokenKind};
        let mut depth: i64 = 0;
        let mut blocks: i64 = 0;
        let mut last_significant: Option<&TokenKind> = None;
        for t in &tokens {
            match &t.kind {
                TokenKind::LParen | TokenKind::LBrace | TokenKind::LBracket => depth += 1,
                TokenKind::RParen | TokenKind::RBrace | TokenKind::RBracket => depth -= 1,
                TokenKind::Keyword(Keyword::Module)
                | TokenKind::Keyword(Keyword::Begin)
                | TokenKind::Keyword(Keyword::Case)
                | TokenKind::Keyword(Keyword::Casez)
                | TokenKind::Keyword(Keyword::Casex) => blocks += 1,
                TokenKind::Keyword(Keyword::Endmodule)
                | TokenKind::Keyword(Keyword::End)
                | TokenKind::Keyword(Keyword::Endcase) => blocks -= 1,
                _ => {}
            }
            if !matches!(t.kind, TokenKind::Eof) {
                last_significant = Some(&t.kind);
            }
        }
        if depth > 0 || blocks > 0 {
            return false;
        }
        matches!(
            last_significant,
            Some(TokenKind::Semi)
                | Some(TokenKind::Keyword(Keyword::Endmodule))
                | Some(TokenKind::Keyword(Keyword::End))
                | Some(TokenKind::Keyword(Keyword::Endcase))
        )
    }
}

/// One top-level item carved out of a completed REPL buffer.
struct Chunk {
    /// The item's source text (runs to the start of the next item, so it
    /// keeps its trailing `;` and any following comments).
    text: String,
    /// 1-based line in the original buffer where the chunk starts.
    start_line: u32,
    /// A short label for error messages (first line, truncated).
    summary: String,
}

/// Splits a buffer into per-item chunks using the parsed AST's spans.
/// Returns `None` when the buffer cannot be split reliably — it fails to
/// parse on its own, or some item carries a synthetic/out-of-order span —
/// in which case the caller evaluates the buffer whole.
fn split_items(src: &str) -> Option<Vec<Chunk>> {
    let unit = cascade_verilog::parse(src).ok()?;
    let mut starts = Vec::with_capacity(unit.items.len());
    for item in &unit.items {
        let span = match item {
            Item::Module(m) => m.span,
            Item::RootItem(mi) => module_item_span(mi)?,
        };
        let start = span.start as usize;
        if span.end <= span.start || start >= src.len() || !src.is_char_boundary(start) {
            return None;
        }
        if let Some(&prev) = starts.last() {
            if start <= prev {
                return None;
            }
        }
        starts.push(start);
    }
    if starts.len() < 2 {
        return None; // zero or one item: whole-buffer eval is already exact
    }
    let mut chunks = Vec::with_capacity(starts.len());
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(src.len());
        let text = &src[start..end];
        chunks.push(Chunk {
            text: text.to_string(),
            start_line: line_col(src, start as u32).line,
            summary: summarize(text),
        });
    }
    Some(chunks)
}

/// The span of a root-level module item, or `None` for the few node kinds
/// that do not record one.
fn module_item_span(item: &ModuleItem) -> Option<cascade_verilog::Span> {
    match item {
        ModuleItem::Function(f) => Some(f.span),
        ModuleItem::Genvar(_) => None,
        ModuleItem::GenerateFor(g) => Some(g.span),
        ModuleItem::Net(n) => Some(n.span),
        ModuleItem::Param(p) => Some(p.span),
        ModuleItem::Assign(a) => Some(a.span),
        ModuleItem::Always(a) => Some(a.span),
        ModuleItem::Initial(i) => Some(i.span),
        ModuleItem::Instance(i) => Some(i.span),
        ModuleItem::Statement(s) => stmt_span(s),
    }
}

fn stmt_span(stmt: &Stmt) -> Option<cascade_verilog::Span> {
    match stmt {
        Stmt::Blocking { span, .. }
        | Stmt::NonBlocking { span, .. }
        | Stmt::If { span, .. }
        | Stmt::Case { span, .. }
        | Stmt::For { span, .. }
        | Stmt::While { span, .. }
        | Stmt::Repeat { span, .. }
        | Stmt::Forever { span, .. }
        | Stmt::SystemTask { span, .. } => Some(*span),
        Stmt::Block { .. } | Stmt::Null => None,
    }
}

fn summarize(text: &str) -> String {
    let line = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    let line = line.trim();
    let mut out: String = line.chars().take(40).collect();
    if line.chars().count() > 40 {
        out.push('\u{2026}');
    }
    out
}

/// Renders an eval error for one chunk, naming the item and shifting
/// diagnostic line numbers from chunk-relative to buffer-relative.
fn render_item_error(e: &CascadeError, chunk: &Chunk, index: usize, total: usize) -> String {
    let offset = chunk.start_line - 1;
    let body = match e {
        CascadeError::Parse(d) | CascadeError::Elaborate(d) => {
            render_offset(d, &chunk.text, offset)
        }
        CascadeError::Typecheck(ds) => ds
            .iter()
            .map(|d| render_offset(d, &chunk.text, offset))
            .collect::<Vec<_>>()
            .join("; "),
        other => other.to_string(),
    };
    format!("item {index} of {total} (`{}`): {body}", chunk.summary)
}

fn render_offset(d: &Diagnostic, chunk_text: &str, line_offset: u32) -> String {
    let lc = line_col(chunk_text, d.span.start);
    format!(
        "{}:{}: {} error: {}",
        lc.line + line_offset,
        lc.col,
        d.phase,
        d.message
    )
}
