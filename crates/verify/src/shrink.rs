//! Delta-debugging candidates for a diverging [`DesignSpec`].
//!
//! [`campaign::shrink`] accepts the first candidate the caller's
//! predicate still confirms and restarts from it. A spec's candidates run
//! from biggest win to smallest: drop the memory/FIFO/display, clear
//! wires, delete statements, flatten `if`/`case` bodies into their
//! parents, hoist subexpressions, collapse subtrees to literals, halve
//! the cycle count. Each one lowers the spec's complexity, so shrinking
//! terminates structurally.
//!
//! The predicate is a black box. The fuzzer passes "still diverges with
//! the same engine and divergence kind", BMC "is still refuted", but the
//! same candidates shrink any property (e.g. "still fails to
//! synthesize").
//!
//! [`campaign::shrink`]: crate::campaign::shrink

use crate::campaign::Shrink;
use crate::spec::{count_stmts, edit_stmt_at, DesignSpec, Expr, Finish, Leaf, Stmt};

/// Deletes the `target`-th statement (preorder) from a body tree.
fn remove_stmt_at(body: &mut Vec<Stmt>, target: &mut usize) -> bool {
    edit_stmt_at(body, target, &mut |list, i| {
        list.remove(i);
    })
}

/// Replaces the `target`-th statement, if it is an `if`/`case`, with the
/// concatenation of its child statements (dropping the condition).
fn flatten_stmt_at(body: &mut Vec<Stmt>, target: &mut usize) -> bool {
    edit_stmt_at(body, target, &mut |list, i| {
        let kids = list[i].bodies_mut().into_iter().flat_map(std::mem::take);
        let kids: Vec<Stmt> = kids.collect();
        if !list[i].bodies().is_empty() {
            list.splice(i..=i, kids);
        }
    })
}

/// Rewrites the `target`-th expression site with `make(old)`.
fn rewrite_expr_at(spec: &mut DesignSpec, target: usize, make: impl Fn(&Expr) -> Option<Expr>) {
    let mut idx = 0usize;
    spec.for_each_expr_mut(&mut |e| {
        if idx == target {
            if let Some(n) = make(e) {
                *e = n;
            }
        }
        idx += 1;
    });
}

impl Shrink for DesignSpec {
    /// Scalar complexity: every candidate lowers it.
    fn size(&self) -> u64 {
        let features = [
            (self.mem, 2_000),
            (self.fifo, 4_000),
            (self.display.is_some(), 800),
            (self.finish != Finish::Never, 400),
        ];
        let features: u64 = features.iter().filter(|f| f.0).map(|f| f.1).sum();
        u64::from(count_stmts(&self.body)) * 1_000
            + self.count_exprs() as u64 * 10
            + self.wires.len() as u64 * 500
            + self.nregs as u64 * 200
            + features
            + u64::from(self.cycles)
    }

    /// Candidate reductions, biggest wins first. Every candidate is
    /// already sanitized.
    fn candidates(&self) -> Vec<DesignSpec> {
        let spec = self;
        let mut out = Vec::new();
        let mut push = |mut c: DesignSpec| {
            c.sanitize();
            out.push(c);
        };

        // Structural drops: whole features at a time.
        if spec.fifo {
            let mut c = spec.clone();
            c.fifo = false;
            c.fifo_din = Expr::Leaf(Leaf::InputA);
            push(c);
        }
        if spec.mem {
            let mut c = spec.clone();
            c.mem = false;
            push(c);
        }
        if !spec.wires.is_empty() {
            let mut c = spec.clone();
            c.wires.clear();
            push(c);
            for i in (0..spec.wires.len()).rev() {
                let mut c = spec.clone();
                c.wires.remove(i);
                push(c);
            }
        }
        if spec.display.is_some() {
            let mut c = spec.clone();
            c.display = None;
            push(c);
        }
        if spec.finish != Finish::Never {
            let mut c = spec.clone();
            c.finish = Finish::Never;
            push(c);
        }
        if spec.nregs > 1 {
            let mut c = spec.clone();
            c.nregs -= 1;
            push(c);
        }

        // Statement deletion (last first: later statements often shadow
        // earlier ones, so dropping from the tail keeps more runs alive).
        let nstmts = count_stmts(&spec.body) as usize;
        for i in (0..nstmts).rev() {
            let mut c = spec.clone();
            let mut target = i;
            remove_stmt_at(&mut c.body, &mut target);
            push(c);
        }
        // Flatten compound statements into their parents.
        for i in 0..nstmts {
            let mut c = spec.clone();
            let mut target = i;
            if flatten_stmt_at(&mut c.body, &mut target) {
                push(c);
            }
        }

        // Expression hoists: replace a node with each of its children, or —
        // for non-trivial subtrees — with a literal zero.
        let nexprs = spec.count_exprs();
        for i in 0..nexprs {
            // Probe the site's child count without mutating.
            let mut arity = 0usize;
            {
                let mut idx = 0usize;
                let mut probe = spec.clone();
                probe.for_each_expr_mut(&mut |e| {
                    if idx == i {
                        arity = e.children().len();
                    }
                    idx += 1;
                });
            }
            for k in 0..arity {
                let mut c = spec.clone();
                rewrite_expr_at(&mut c, i, |e| e.children().get(k).map(|c| (*c).clone()));
                push(c);
            }
            if arity > 0 {
                let mut c = spec.clone();
                rewrite_expr_at(&mut c, i, |_| {
                    Some(Expr::Lit {
                        width: 16,
                        value: 0,
                    })
                });
                push(c);
            }
        }

        // Shorten the run.
        if spec.cycles > 2 {
            let mut c = spec.clone();
            c.cycles = (spec.cycles / 2).max(2);
            push(c);
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::shrink;
    use cascade_bits::Prng;

    /// Shrinking against an always-true predicate collapses any generated
    /// spec to (near-)nothing — and the result stays renderable.
    #[test]
    fn shrink_to_trivial_under_permissive_predicate() {
        for seed in 0..12 {
            let mut rng = Prng::new(seed + 500);
            let spec = DesignSpec::generate(&mut rng);
            let small = shrink(&spec, &mut |_| true);
            assert!(
                count_stmts(&small.body) == 0,
                "seed {seed}: {} stmts left\n{}",
                count_stmts(&small.body),
                small.render()
            );
            assert!(!small.mem && !small.fifo && small.wires.is_empty());
            assert!(small.top_lines() <= 9, "{}", small.render());
        }
    }

    /// A predicate keyed on a specific feature keeps exactly that feature.
    #[test]
    fn shrink_preserves_the_failing_feature() {
        let mut rng = Prng::new(77);
        let mut spec = DesignSpec::generate(&mut rng);
        spec.mem = true;
        spec.sanitize();
        let small = shrink(&spec, &mut |s| s.mem);
        assert!(small.mem);
        assert!(!small.fifo && small.wires.is_empty() && small.display.is_none());
        assert_eq!(count_stmts(&small.body), 0);
    }

    /// The statement remover and flattener agree with `count_stmts`
    /// preorder numbering.
    #[test]
    fn stmt_tree_surgery_is_preorder() {
        let body = vec![
            Stmt::Assign {
                reg: 0,
                rhs: Expr::Leaf(Leaf::InputA),
            },
            Stmt::If {
                cond: Expr::Leaf(Leaf::InputB),
                then_: vec![Stmt::Assign {
                    reg: 0,
                    rhs: Expr::Leaf(Leaf::Cc),
                }],
                else_: vec![],
            },
        ];
        // Deleting index 2 (the nested assign) keeps the if.
        let mut b = body.clone();
        let mut t = 2;
        assert!(remove_stmt_at(&mut b, &mut t));
        assert_eq!(count_stmts(&b), 2);
        assert!(matches!(&b[1], Stmt::If { then_, .. } if then_.is_empty()));
        // Flattening index 1 (the if) splices its child up.
        let mut b = body.clone();
        let mut t = 1;
        assert!(flatten_stmt_at(&mut b, &mut t));
        assert_eq!(count_stmts(&b), 2);
        assert!(matches!(&b[1], Stmt::Assign { .. }));
    }
}
