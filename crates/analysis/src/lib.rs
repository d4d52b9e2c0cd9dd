//! Derivation-blind static analysis of generated Bedrock2 code.
//!
//! The compiler's trust story (paper §3, §4.3) is: untrusted lemmas
//! propose, a small trusted checker re-validates the derivation witness.
//! This crate adds an *independent* second line of defense in the style of
//! translation validation: a CFG + worklist dataflow framework over
//! [`rupicola_bedrock::cfg`] and lint passes that inspect the generated
//! code directly, never reading the derivation —
//!
//! - [`assign`]: definite assignment (no use-before-def, returns assigned);
//! - [`live`]: liveness and dead-store detection;
//! - [`interval`]: interval analysis with symbolic array-length bounds,
//!   cross-checking every memory access against the separation-logic
//!   footprint exported from the certificate, plus inline-table bounds
//!   and alignment;
//! - [`loopcheck`]: loop progress (a monotone counter against a
//!   loop-invariant bound);
//! - [`certcheck`]: certificate internal consistency (witness counters,
//!   ABI, table bytes, cited lemmas);
//! - [`lemma_lint`]: hint-database hygiene (duplicate, shadowed,
//!   unreachable lemmas; redundant solvers).
//!
//! Nothing here is trusted: a finding is a report, and the analyses are
//! deliberately conservative (they may warn about code the checker proves
//! fine, never the reverse direction — clean code that faults). The
//! soundness direction is exercised by a property test in the workspace
//! root: programs that pass the lints clean do not fault in the Bedrock2
//! interpreter on fuzzed inputs.

#![forbid(unsafe_code)]

pub mod assign;
pub mod certcheck;
pub mod ct;
pub mod dataflow;
pub mod facts;
pub mod interval;
pub mod lemma_lint;
pub mod live;
pub mod loopcheck;

use rupicola_core::lemma::HintDbs;
use rupicola_core::CompiledFunction;
use std::fmt;

pub use ct::SecrecyPolicy;
pub use facts::{dead_store_sites, expr_range, finite_upper_bound, removal_safe};
pub use interval::{AbsVal, Bound, MemEnv, Range, RegionInfo, SizeInfo};
pub use lemma_lint::ProbeSuite;

/// Which lint produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Definite assignment.
    Assign,
    /// Liveness / dead stores.
    Liveness,
    /// Footprint memory safety.
    MemSafety,
    /// Inline-table bounds.
    TableBounds,
    /// Loop progress.
    LoopProgress,
    /// Certificate cross-checking.
    CertCheck,
    /// Lemma-library hygiene.
    LemmaLint,
    /// Secret-independence (constant-time).
    Ct,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pass::Assign => "assign",
            Pass::Liveness => "liveness",
            Pass::MemSafety => "mem",
            Pass::TableBounds => "table",
            Pass::LoopProgress => "loop",
            Pass::CertCheck => "cert",
            Pass::LemmaLint => "lemma",
            Pass::Ct => "ct",
        };
        write!(f, "{s}")
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not a safety violation.
    Warning,
    /// A property the certified pipeline promises is violated (or cannot
    /// be independently re-proven).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// What a finding is about.
#[derive(Debug, Clone, PartialEq)]
pub enum FindingKind {
    /// A local may be read before any assignment.
    UseBeforeDef {
        /// The local.
        var: String,
    },
    /// A returned local is not assigned on every path.
    MissingReturn {
        /// The local.
        var: String,
    },
    /// An assignment whose value is never read (and whose removal is
    /// observationally safe).
    DeadStore {
        /// The local.
        var: String,
    },
    /// A memory access provably outside its region.
    OutOfFootprint,
    /// A memory access that cannot be proven inside the footprint.
    UnprovenAccess,
    /// A multi-byte access at an offset not provably aligned.
    Misaligned,
    /// An access through a pointer whose stack allocation scope ended.
    StackScopeEscape,
    /// An inline-table read not provably inside the table.
    TableOutOfBounds {
        /// The table.
        table: String,
    },
    /// An inline-table read from an undeclared table.
    UnknownTable {
        /// The table.
        table: String,
    },
    /// A loop with no evident progress argument.
    LoopNoProgress,
    /// A certificate whose parts disagree with each other.
    CertMismatch,
    /// A derivation citing a lemma absent from the databases.
    UnknownLemma {
        /// The lemma.
        lemma: String,
    },
    /// Two registered lemmas (or solvers) share a name.
    DuplicateLemma {
        /// The name.
        lemma: String,
    },
    /// A lemma that always loses the ordered race to an earlier one.
    ShadowedLemma {
        /// The lemma.
        lemma: String,
    },
    /// A lemma unreachable for the probed goal corpus.
    UnreachableLemma {
        /// The lemma.
        lemma: String,
    },
    /// A solver whose corpus discharges are all covered by earlier ones.
    RedundantSolver {
        /// The solver.
        solver: String,
    },
    /// A branch or loop condition that may depend on a secret.
    SecretBranch,
    /// A memory address (load, store, or table index) that may depend on
    /// a secret.
    SecretAddress,
    /// A variable-latency operation (`div`/`mod`) with a possibly-secret
    /// operand.
    SecretVariableLatency,
}

impl FindingKind {
    /// The severity policy: violations of promised properties are errors,
    /// hygiene and style are warnings.
    pub fn severity(&self) -> Severity {
        match self {
            FindingKind::UseBeforeDef { .. }
            | FindingKind::MissingReturn { .. }
            | FindingKind::OutOfFootprint
            | FindingKind::UnprovenAccess
            | FindingKind::StackScopeEscape
            | FindingKind::TableOutOfBounds { .. }
            | FindingKind::UnknownTable { .. }
            | FindingKind::LoopNoProgress
            | FindingKind::CertMismatch
            | FindingKind::UnknownLemma { .. }
            | FindingKind::DuplicateLemma { .. }
            | FindingKind::SecretBranch
            | FindingKind::SecretAddress
            | FindingKind::SecretVariableLatency => Severity::Error,
            FindingKind::DeadStore { .. }
            | FindingKind::Misaligned
            | FindingKind::ShadowedLemma { .. }
            | FindingKind::UnreachableLemma { .. }
            | FindingKind::RedundantSolver { .. } => Severity::Warning,
        }
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The pass that produced it.
    pub pass: Pass,
    /// What it is about.
    pub kind: FindingKind,
    /// The function (or `"(library)"` for lemma lints).
    pub function: String,
    /// For dead stores: the assignment-site ordinal, compatible with
    /// [`rupicola_bedrock::cfg::remove_set_sites`].
    pub site: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// The finding's severity (derived from its kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}: {}",
            self.severity(),
            self.pass,
            self.function,
            self.message
        )
    }
}

/// The outcome of analyzing one compiled function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// All findings, in pass order.
    pub findings: Vec<Finding>,
}

impl AnalysisReport {
    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity() == Severity::Error)
    }

    /// The error findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity() == Severity::Error)
    }

    /// The warning findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity() == Severity::Warning)
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return write!(f, "clean");
        }
        for (i, finding) in self.findings.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{finding}")?;
        }
        Ok(())
    }
}

/// Analyzes a compilation certificate: all code passes plus certificate
/// cross-checking. Pass `dbs` to also verify cited lemmas exist.
pub fn analyze_with_dbs(cf: &CompiledFunction, dbs: Option<&HintDbs>) -> AnalysisReport {
    let mut findings = certcheck::run(cf, dbs);
    let env = match cf.initial_goal() {
        Ok(goal) => MemEnv::from_goal(&goal),
        // Already reported as a certificate mismatch; code passes still
        // run, with an empty footprint.
        Err(_) => MemEnv::default(),
    };
    findings.extend(run_code_passes(&cf.function, &env));
    AnalysisReport { findings }
}

/// [`analyze_with_dbs`] without the database-dependent checks.
pub fn analyze(cf: &CompiledFunction) -> AnalysisReport {
    analyze_with_dbs(cf, None)
}

/// Runs the code-only passes over one function under an explicit memory
/// environment (used directly by tests on hand-written programs).
pub fn run_code_passes(f: &rupicola_bedrock::BFunction, env: &MemEnv) -> Vec<Finding> {
    let mut findings = assign::run(f);
    findings.extend(live::run(f));
    findings.extend(interval::run(f, env));
    findings.extend(loopcheck::run(f));
    findings
}
