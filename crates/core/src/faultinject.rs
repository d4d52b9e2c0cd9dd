//! Derivation-mutation fault injection: adversarial validation of the
//! trusted checker.
//!
//! The safety story of relational compilation rests on the checker
//! rejecting every wrong artifact an (arbitrarily buggy) search engine
//! could produce. This module *measures* that claim instead of asserting
//! it: it systematically generates mutants of a [`CompiledFunction`] —
//! wrong code, corrupted inline tables, tampered witnesses, mismatched
//! return slots — runs each through [`check_with`], and reports the
//! mutation kill-rate.
//!
//! Mutant classes split in two:
//!
//! - **Structural** mutants corrupt the witness or the ABI contract
//!   (dropped/forged side-condition records, truncated derivation trees,
//!   mismatched return slots). These must be killed *deterministically* —
//!   a surviving structural mutant is a checker bug.
//! - **Semantic** mutants corrupt the generated code (swapped operators,
//!   off-by-one literals, flipped table bytes) while leaving the witness
//!   intact. These are killed by differential execution, which is
//!   input-dependent: survivors are possible (a mutation in code the test
//!   vectors never reach) and are reported explicitly rather than averaged
//!   away.
//!
//! Corruption mutants model *post-construction* tampering (memory
//! corruption, a malicious serializer): they edit the derivation tree
//! without re-deriving the integrity counters. A corruption that
//! consistently re-counts a truncated tree is structurally undetectable by
//! design — witness *completeness* is not checked, behaviour is (by the
//! differential layer).

use crate::check::{check_with, CheckConfig, CheckError};
use crate::derive::{Derivation, DerivationNode, SideCondRecord};
use crate::engine::CompiledFunction;
use crate::fnspec::RetSpec;
use crate::goal::SideCond;
use crate::lemma::HintDbs;
use rupicola_bedrock::{BExpr, BinOp, Cmd};
use rupicola_lang::dsl::{word_lit};
use std::fmt;

/// The mutation classes of the fault matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationClass {
    /// A binary operator in the generated code replaced by a different one.
    SwappedBinOp,
    /// A literal in the generated code incremented by one.
    OffByOneLiteral,
    /// A byte of a function-local inline table flipped.
    CorruptedTableBytes,
    /// A recorded side condition removed from the witness (counters left
    /// stale, modeling corruption).
    DroppedSideCond,
    /// An unsolvable side condition appended to the witness, with the
    /// integrity counters consistently re-derived (so only re-solving can
    /// catch it).
    ForgedSideCond,
    /// A subtree removed from the derivation (counters left stale).
    TruncatedDerivation,
    /// The spec's return slots disagree with the code (slot dropped,
    /// heaplet renamed, or return local dropped).
    MismatchedRetSlot,
}

impl MutationClass {
    /// All classes, structural last.
    pub const ALL: [MutationClass; 7] = [
        MutationClass::SwappedBinOp,
        MutationClass::OffByOneLiteral,
        MutationClass::CorruptedTableBytes,
        MutationClass::DroppedSideCond,
        MutationClass::ForgedSideCond,
        MutationClass::TruncatedDerivation,
        MutationClass::MismatchedRetSlot,
    ];

    /// Whether the checker must kill this class deterministically.
    pub fn is_structural(self) -> bool {
        matches!(
            self,
            MutationClass::DroppedSideCond
                | MutationClass::ForgedSideCond
                | MutationClass::TruncatedDerivation
                | MutationClass::MismatchedRetSlot
        )
    }
}

impl fmt::Display for MutationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MutationClass::SwappedBinOp => "swapped-binop",
            MutationClass::OffByOneLiteral => "off-by-one-literal",
            MutationClass::CorruptedTableBytes => "corrupted-table-bytes",
            MutationClass::DroppedSideCond => "dropped-side-cond",
            MutationClass::ForgedSideCond => "forged-side-cond",
            MutationClass::TruncatedDerivation => "truncated-derivation",
            MutationClass::MismatchedRetSlot => "mismatched-ret-slot",
        })
    }
}

/// One generated mutant.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// Its class.
    pub class: MutationClass,
    /// What exactly was mutated.
    pub description: String,
    /// The mutated artifact.
    pub cf: CompiledFunction,
}

/// Per-class tallies of one matrix run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// The class.
    pub class: MutationClass,
    /// Mutants generated.
    pub generated: usize,
    /// Mutants the checker rejected.
    pub killed: usize,
}

/// A mutant the checker accepted.
#[derive(Debug, Clone)]
pub struct Survivor {
    /// Its class.
    pub class: MutationClass,
    /// What was mutated.
    pub description: String,
}

/// The outcome of running every mutant of one artifact through the
/// checker.
#[derive(Debug, Clone)]
pub struct FaultMatrix {
    /// Tallies per class (classes with zero generated mutants included).
    pub stats: Vec<ClassStats>,
    /// Mutants the checker failed to reject.
    pub survivors: Vec<Survivor>,
}

impl FaultMatrix {
    /// Total mutants generated.
    pub fn generated(&self) -> usize {
        self.stats.iter().map(|s| s.generated).sum()
    }

    /// Total mutants killed.
    pub fn killed(&self) -> usize {
        self.stats.iter().map(|s| s.killed).sum()
    }

    /// Whether every *structural* mutant was killed.
    pub fn structural_clean(&self) -> bool {
        self.stats
            .iter()
            .filter(|s| s.class.is_structural())
            .all(|s| s.killed == s.generated)
    }
}

/// Generates every mutant of `cf` across all classes.
pub fn mutants(cf: &CompiledFunction) -> Vec<Mutant> {
    let mut out = Vec::new();
    code_mutants(cf, &mut out);
    table_mutants(cf, &mut out);
    witness_mutants(cf, &mut out);
    ret_slot_mutants(cf, &mut out);
    out
}

/// Runs every mutant through the checker and tallies kills.
pub fn run_matrix(cf: &CompiledFunction, dbs: &HintDbs, config: &CheckConfig) -> FaultMatrix {
    let all = mutants(cf);
    let mut stats: Vec<ClassStats> = MutationClass::ALL
        .iter()
        .map(|&class| ClassStats { class, generated: 0, killed: 0 })
        .collect();
    let mut survivors = Vec::new();
    for m in all {
        let killed = check_with(&m.cf, dbs, config).is_err();
        if let Some(entry) = stats.iter_mut().find(|s| s.class == m.class) {
            entry.generated += 1;
            if killed {
                entry.killed += 1;
            }
        }
        if !killed {
            survivors.push(Survivor { class: m.class, description: m.description });
        }
    }
    FaultMatrix { stats, survivors }
}

/// Runs one mutant through the checker; `Some(rejection)` when it was
/// killed, `None` when it *survived*.
pub fn expect_killed(m: &Mutant, dbs: &HintDbs, config: &CheckConfig) -> Option<CheckError> {
    check_with(&m.cf, dbs, config).err()
}

// --- code mutants (semantic) ----------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum ExprMutation {
    SwapOp,
    BumpLit,
}

struct ExprMutator {
    kind: ExprMutation,
    target: usize,
    seen: usize,
    applied: Option<String>,
}

fn swap_op(op: BinOp) -> BinOp {
    match op {
        BinOp::Add => BinOp::Sub,
        BinOp::Sub => BinOp::Add,
        BinOp::Mul => BinOp::Add,
        BinOp::MulHuu => BinOp::Mul,
        BinOp::DivU => BinOp::RemU,
        BinOp::RemU => BinOp::DivU,
        BinOp::And => BinOp::Or,
        BinOp::Or => BinOp::And,
        BinOp::Xor => BinOp::Or,
        BinOp::Sru => BinOp::Slu,
        BinOp::Slu => BinOp::Sru,
        BinOp::Srs => BinOp::Sru,
        BinOp::LtS => BinOp::LtU,
        BinOp::LtU => BinOp::Eq,
        BinOp::Eq => BinOp::LtU,
    }
}

impl ExprMutator {
    fn expr(&mut self, e: &BExpr) -> BExpr {
        match e {
            BExpr::Lit(w) => {
                if self.kind == ExprMutation::BumpLit {
                    let here = self.seen;
                    self.seen += 1;
                    if here == self.target {
                        self.applied = Some(format!("literal {w} -> {}", w.wrapping_add(1)));
                        return BExpr::Lit(w.wrapping_add(1));
                    }
                }
                e.clone()
            }
            BExpr::Var(_) => e.clone(),
            BExpr::Load(size, addr) => BExpr::Load(*size, Box::new(self.expr(addr))),
            BExpr::InlineTable { size, table, index } => BExpr::InlineTable {
                size: *size,
                table: table.clone(),
                index: Box::new(self.expr(index)),
            },
            BExpr::Op(op, a, b) => {
                let mut op = *op;
                if self.kind == ExprMutation::SwapOp {
                    let here = self.seen;
                    self.seen += 1;
                    if here == self.target {
                        let new = swap_op(op);
                        self.applied = Some(format!("operator {op:?} -> {new:?}"));
                        op = new;
                    }
                }
                BExpr::Op(op, Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
        }
    }

    fn cmd(&mut self, c: &Cmd) -> Cmd {
        match c {
            Cmd::Skip => Cmd::Skip,
            Cmd::Set(x, e) => Cmd::Set(x.clone(), self.expr(e)),
            Cmd::Unset(x) => Cmd::Unset(x.clone()),
            Cmd::Store(size, addr, val) => Cmd::Store(*size, self.expr(addr), self.expr(val)),
            Cmd::Seq(a, b) => Cmd::Seq(Box::new(self.cmd(a)), Box::new(self.cmd(b))),
            Cmd::If { cond, then_, else_ } => Cmd::If {
                cond: self.expr(cond),
                then_: Box::new(self.cmd(then_)),
                else_: Box::new(self.cmd(else_)),
            },
            Cmd::While { cond, body } => Cmd::While {
                cond: self.expr(cond),
                body: Box::new(self.cmd(body)),
            },
            Cmd::Call { rets, func, args } => Cmd::Call {
                rets: rets.clone(),
                func: func.clone(),
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
            Cmd::Interact { rets, action, args } => Cmd::Interact {
                rets: rets.clone(),
                action: action.clone(),
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
            Cmd::StackAlloc { var, nbytes, body } => Cmd::StackAlloc {
                var: var.clone(),
                nbytes: *nbytes,
                body: Box::new(self.cmd(body)),
            },
        }
    }
}

fn count_sites(body: &Cmd, kind: ExprMutation) -> usize {
    let mut m = ExprMutator { kind, target: usize::MAX, seen: 0, applied: None };
    m.cmd(body);
    m.seen
}

fn code_mutants(cf: &CompiledFunction, out: &mut Vec<Mutant>) {
    for (kind, class) in [
        (ExprMutation::SwapOp, MutationClass::SwappedBinOp),
        (ExprMutation::BumpLit, MutationClass::OffByOneLiteral),
    ] {
        let sites = count_sites(&cf.function.body, kind);
        for target in 0..sites {
            let mut m = ExprMutator { kind, target, seen: 0, applied: None };
            let body = m.cmd(&cf.function.body);
            let Some(applied) = m.applied else { continue };
            let mut mutated = cf.clone();
            mutated.function.body = body;
            out.push(Mutant {
                class,
                description: format!("{applied} (site {target})"),
                cf: mutated,
            });
        }
    }
}

fn table_mutants(cf: &CompiledFunction, out: &mut Vec<Mutant>) {
    for (ti, table) in cf.function.tables.iter().enumerate() {
        if table.data.is_empty() {
            continue;
        }
        let positions = [0, table.data.len() / 2, table.data.len() - 1];
        let mut done = Vec::new();
        for &pos in &positions {
            if done.contains(&pos) {
                continue;
            }
            done.push(pos);
            let mut mutated = cf.clone();
            mutated.function.tables[ti].data[pos] ^= 0xFF;
            out.push(Mutant {
                class: MutationClass::CorruptedTableBytes,
                description: format!("table `{}` byte {pos} flipped", table.name),
                cf: mutated,
            });
        }
    }
}

// --- witness mutants (structural) -----------------------------------------

fn walk_mut(node: &mut DerivationNode, f: &mut dyn FnMut(&mut DerivationNode)) {
    f(node);
    for c in &mut node.children {
        walk_mut(c, f);
    }
}

fn witness_mutants(cf: &CompiledFunction, out: &mut Vec<Mutant>) {
    // DroppedSideCond: remove each record in turn, leaving the integrity
    // counters stale (the corruption model).
    let total_sc = cf.derivation.side_cond_count;
    for target in 0..total_sc {
        let mut mutated = cf.clone();
        let mut seen = 0;
        let mut dropped = None;
        walk_mut(&mut mutated.derivation.root, &mut |n| {
            let here = n.side_conds.len();
            if dropped.is_none() && seen + here > target {
                let rec = n.side_conds.remove(target - seen);
                dropped = Some(format!("dropped `{}` from `{}`", rec.cond, n.lemma));
            }
            seen += here;
        });
        let Some(description) = dropped else { continue };
        out.push(Mutant { class: MutationClass::DroppedSideCond, description, cf: mutated });
    }

    // ForgedSideCond: append an unsolvable obligation and *consistently*
    // re-derive the counters, so only re-solving can reject it.
    {
        let mut root = cf.derivation.root.clone();
        root.side_conds.push(SideCondRecord {
            cond: SideCond::Lt(word_lit(5), word_lit(3)),
            solver: "lia".into(),
            hyps: Vec::new().into(),
        });
        let mut mutated = cf.clone();
        mutated.derivation = Derivation::new(root);
        out.push(Mutant {
            class: MutationClass::ForgedSideCond,
            description: "forged side condition 5 < 3 at the root (counters re-derived)".into(),
            cf: mutated,
        });
    }

    // TruncatedDerivation: drop the last child of each internal node,
    // leaving counters stale.
    let internal_nodes = {
        let mut n = 0;
        cf.derivation.root.walk(&mut |node| {
            if !node.children.is_empty() {
                n += 1;
            }
        });
        n
    };
    for target in 0..internal_nodes {
        let mut mutated = cf.clone();
        let mut seen = 0;
        let mut truncated = None;
        walk_mut(&mut mutated.derivation.root, &mut |n| {
            if n.children.is_empty() {
                return;
            }
            if truncated.is_none() && seen == target {
                let child = n.children.pop().unwrap_or_else(|| DerivationNode::leaf("", ""));
                truncated =
                    Some(format!("dropped subtree `{}` under `{}`", child.lemma, n.lemma));
            }
            seen += 1;
        });
        let Some(description) = truncated else { continue };
        out.push(Mutant { class: MutationClass::TruncatedDerivation, description, cf: mutated });
    }
}

// --- ABI mutants (structural) ---------------------------------------------

fn ret_slot_mutants(cf: &CompiledFunction, out: &mut Vec<Mutant>) {
    // Drop the last declared return slot: the model's result arity no
    // longer matches the spec.
    if !cf.spec.rets.is_empty() {
        let mut mutated = cf.clone();
        let dropped = mutated.spec.rets.pop();
        out.push(Mutant {
            class: MutationClass::MismatchedRetSlot,
            description: format!(
                "dropped return slot {}",
                dropped.map_or_else(String::new, |r| format!("{r:?}"))
            ),
            cf: mutated,
        });
    }
    // Re-point each in-place slot at a parameter that owns no region.
    for (i, ret) in cf.spec.rets.iter().enumerate() {
        if let RetSpec::InPlace { param } = ret {
            let mut mutated = cf.clone();
            let bogus = format!("{param}_bogus");
            mutated.spec.rets[i] = RetSpec::InPlace { param: bogus.clone() };
            out.push(Mutant {
                class: MutationClass::MismatchedRetSlot,
                description: format!("in-place slot `{param}` re-pointed at `{bogus}`"),
                cf: mutated,
            });
        }
    }
    // Drop the last return local from the generated function: the code
    // returns fewer words than the spec consumes.
    if !cf.function.rets.is_empty() {
        let mut mutated = cf.clone();
        let dropped = mutated.function.rets.pop().unwrap_or_default();
        out.push(Mutant {
            class: MutationClass::MismatchedRetSlot,
            description: format!("dropped return local `{dropped}` from the function"),
            cf: mutated,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::fnspec::{ArgSpec, FnSpec};
    use rupicola_bedrock::BFunction;
    use rupicola_lang::dsl::*;
    use rupicola_lang::{ElemKind, Model};

    /// A correct hand-built identity artifact (mirrors `check::tests`).
    fn identity_compiled() -> CompiledFunction {
        let model = Model::new("id", ["s"], var("s"));
        let spec = FnSpec::new(
            "id",
            vec![
                ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
                ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
            ],
            vec![RetSpec::InPlace { param: "s".into() }],
        );
        CompiledFunction {
            function: BFunction::new("id", ["s", "len"], Vec::<String>::new(), Cmd::Skip),
            derivation: Derivation::new(DerivationNode::leaf("done", "s")),
            model,
            spec,
            linked: Vec::new(),
            optimized: None,
            stats: Default::default(),
            validation: Default::default(),
        }
    }

    #[test]
    fn identity_generates_ret_slot_and_forged_mutants() {
        let cf = identity_compiled();
        assert!(check(&cf, &HintDbs::new()).is_ok());
        let ms = mutants(&cf);
        assert!(ms.iter().any(|m| m.class == MutationClass::MismatchedRetSlot));
        assert!(ms.iter().any(|m| m.class == MutationClass::ForgedSideCond));
    }

    #[test]
    fn structural_mutants_of_identity_are_all_killed() {
        let cf = identity_compiled();
        let matrix = run_matrix(&cf, &HintDbs::new(), &CheckConfig::default());
        assert!(matrix.structural_clean(), "survivors: {:?}", matrix.survivors);
    }

    #[test]
    fn swap_covers_every_operator() {
        // swap_op must be a fixpoint-free endomap: mutants always differ.
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::MulHuu,
            BinOp::DivU,
            BinOp::RemU,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Sru,
            BinOp::Slu,
            BinOp::Srs,
            BinOp::LtS,
            BinOp::LtU,
            BinOp::Eq,
        ] {
            assert_ne!(swap_op(op), op, "{op:?} swaps to itself");
        }
    }

    #[test]
    fn mutator_counts_and_rewrites_consistently() {
        let body = Cmd::seq(vec![
            Cmd::set("x", BExpr::op(BinOp::Add, BExpr::var("a"), BExpr::lit(1))),
            Cmd::set("y", BExpr::op(BinOp::Mul, BExpr::var("x"), BExpr::lit(3))),
        ]);
        assert_eq!(count_sites(&body, ExprMutation::SwapOp), 2);
        assert_eq!(count_sites(&body, ExprMutation::BumpLit), 2);
        let mut m = ExprMutator { kind: ExprMutation::BumpLit, target: 1, seen: 0, applied: None };
        let mutated = m.cmd(&body);
        assert!(m.applied.is_some());
        assert_ne!(mutated, body);
    }
}
