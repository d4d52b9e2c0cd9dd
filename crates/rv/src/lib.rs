//! Translation-validated RISC-V backend for certified Bedrock2 code.
//!
//! The seed's RV64 leg (`rupicola_bedrock::rv_compile`) is a spill-all
//! compiler: every local lives in the frame, every read is a load, every
//! write a store. This crate turns that leg into a *staged backend* under
//! the same untrusted-pass / trusted-revalidation discipline as the
//! Bedrock2→Bedrock2 pipeline in `rupicola-opt` (CompCert-style
//! translation validation, earned per pass rather than per compiler):
//!
//! 1. **`lower`** — the seed's naive spill-all lowering. Its output is
//!    validated before anything else runs; a divergence *here* is fatal
//!    ([`RvBackendError::BaselineDiverged`]) because there is no earlier
//!    validated artifact to roll back to.
//! 2. **`regalloc`** — an untrusted linear-scan register allocator
//!    ([`lower::linear_scan`]) feeding a register-aware re-lowering
//!    ([`lower::lower_allocated`]): hot locals live in the callee-saved
//!    pool `x18`–`x27`, reads cost zero instructions, and an epilogue
//!    flush reconstructs the full locals frame at exit.
//! 3. **Peepholes** — `redundant-mem` (store→load and load→load
//!    forwarding within branch-free windows), `branch-simplify`
//!    (jump-to-next elimination, branch-over-jump inversion), and
//!    `addi-fold` (load-immediate folding into `addi`, move retargeting).
//!
//! The baseline and then the composed output of all later stages are
//! **differentially executed** on the [`Machine`] simulator against the
//! Bedrock2 interpreter over the checker's concretized inputs, comparing
//! return values, the final heap region-by-region, and the final locals
//! read back from the flushed frame ([`validate::validate_artifact`]). The
//! certified body's side of that differential is run once per certificate
//! and kept in its validation context. The stages form one validated step
//! chain ([`rupicola_core::chain`]): only when the composed artifact fails
//! does [`lower_validated`] walk stage by stage ([`lower_stepwise`]),
//! rolling back each stage that diverges, fails to assemble or panics with
//! a typed [`RvBackendError`] in its [`StageReport`]; the pipeline never
//! panics and never keeps unvalidated code.
//!
//! What the differential does *not* do: it is testing-validation over the
//! certificate's vectors, not Bedrock2's end-to-end compiler proof — see
//! DESIGN.md §15 for the exact guarantee.
//!
//! [`Machine`]: rupicola_bedrock::rv::Machine

#![forbid(unsafe_code)]

#[cfg(test)]
mod localization;
pub mod lower;
pub mod mutants;
pub mod peephole;
pub mod validate;

use rupicola_bedrock::rv::Asm;
use rupicola_bedrock::rv_compile::{compile_function, RvArtifact};
use rupicola_core::chain::{self, Chain, Route};
use rupicola_core::check::CheckConfig;
use rupicola_core::CompiledFunction;
use std::fmt;

pub use lower::{linear_scan, lower_allocated, Assignment, POOL_BASE, POOL_LAST};
pub use validate::{run_artifact, validate_artifact, RvRunOutcome, RV_FUEL};

/// Identifies one stage of the RISC-V lowering pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RvStageId {
    /// The naive spill-all lowering (always runs; the validated baseline).
    Lower,
    /// Linear-scan register allocation + register-aware re-lowering.
    RegAlloc,
    /// Redundant load/store elimination (store→load forwarding).
    RedundantMem,
    /// Branch simplification (jump-to-next, branch-over-jump inversion).
    BranchSimplify,
    /// `li`+`add` → `addi` folding and move retargeting.
    AddiFold,
}

impl RvStageId {
    /// Every stage, in pipeline order.
    pub const ALL: [RvStageId; 5] = [
        RvStageId::Lower,
        RvStageId::RegAlloc,
        RvStageId::RedundantMem,
        RvStageId::BranchSimplify,
        RvStageId::AddiFold,
    ];

    /// Stable kebab-case name (used in fingerprints and reports).
    pub fn name(self) -> &'static str {
        match self {
            RvStageId::Lower => "lower",
            RvStageId::RegAlloc => "regalloc",
            RvStageId::RedundantMem => "redundant-mem",
            RvStageId::BranchSimplify => "branch-simplify",
            RvStageId::AddiFold => "addi-fold",
        }
    }
}

impl fmt::Display for RvStageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An ordered, configurable RISC-V lowering pipeline. [`RvStageId::Lower`]
/// always runs first and is implicit; `stages` lists the optimization
/// stages that follow it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RvPipelineConfig {
    /// Optimization stages to run after the naive lowering, in order.
    pub stages: Vec<RvStageId>,
}

impl RvPipelineConfig {
    /// The full default pipeline: regalloc then every peephole.
    pub fn full() -> Self {
        RvPipelineConfig {
            stages: vec![
                RvStageId::RegAlloc,
                RvStageId::RedundantMem,
                RvStageId::BranchSimplify,
                RvStageId::AddiFold,
            ],
        }
    }

    /// The naive route: spill-all lowering only.
    pub fn none() -> Self {
        RvPipelineConfig { stages: Vec::new() }
    }

    /// A canonical identity string for cache fingerprints: `lower`
    /// followed by the ordered stage names, comma-joined. The naive route
    /// is exactly `"lower"`. Two configs with equal identity strings
    /// produce identical pipelines.
    pub fn identity_string(&self) -> String {
        let mut s = String::from("lower");
        for stage in &self.stages {
            s.push(',');
            s.push_str(stage.name());
        }
        s
    }
}

/// Why a stage was rejected. `Compile` and `BaselineDiverged` are fatal —
/// they concern the baseline itself; everything else is *recovered* by
/// rolling back to the last validated artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RvBackendError {
    /// The naive lowering failed (construct outside the backend fragment).
    Compile {
        /// Compiler error rendering.
        detail: String,
    },
    /// The naive lowering's own output diverged from the Bedrock2
    /// interpreter — there is no earlier artifact to fall back to.
    BaselineDiverged {
        /// Input and mismatch description.
        detail: String,
    },
    /// The differential found an observable divergence between the stage's
    /// candidate and the Bedrock2 interpreter.
    Diverged {
        /// Input and mismatch description.
        detail: String,
    },
    /// The candidate no longer assembles (dangling label, bad symbol).
    Assembly {
        /// Assembler error rendering.
        detail: String,
    },
    /// The stage infrastructure itself misbehaved (e.g. a pass panicked).
    Internal {
        /// What happened.
        detail: String,
    },
}

impl fmt::Display for RvBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RvBackendError::Compile { detail } => write!(f, "lowering failed: {detail}"),
            RvBackendError::BaselineDiverged { detail } => {
                write!(f, "naive lowering diverged from the interpreter: {detail}")
            }
            RvBackendError::Diverged { detail } => {
                write!(f, "machine differential diverged: {detail}")
            }
            RvBackendError::Assembly { detail } => {
                write!(f, "candidate does not assemble: {detail}")
            }
            RvBackendError::Internal { detail } => write!(f, "internal stage failure: {detail}"),
        }
    }
}

impl std::error::Error for RvBackendError {}

/// What one stage did (or failed to do) to one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Which stage.
    pub stage: RvStageId,
    /// Instruction count (labels excluded) entering the stage.
    pub instrs_before: usize,
    /// Instruction count of whatever the stage left behind: the candidate
    /// when it was kept, the rolled-back-to artifact otherwise.
    pub instrs_after: usize,
    /// Whether the candidate survived validation and was kept.
    pub applied: bool,
    /// The validation failure, when the candidate was discarded.
    pub rolled_back: Option<RvBackendError>,
}

/// The whole pipeline's outcome for one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RvReport {
    /// Per-stage reports, in execution order (the naive lowering first).
    pub stages: Vec<StageReport>,
}

impl RvReport {
    /// Stages that changed the artifact and survived validation (the
    /// baseline lowering counts as applied).
    pub fn applied_count(&self) -> usize {
        self.stages.iter().filter(|s| s.applied).count()
    }

    /// Stages whose candidate was discarded.
    pub fn rolled_back_count(&self) -> usize {
        self.stages.iter().filter(|s| s.rolled_back.is_some()).count()
    }
}

impl fmt::Display for RvReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            let status = if s.applied {
                "applied"
            } else if s.rolled_back.is_some() {
                "rolled back"
            } else {
                "no-op"
            };
            write!(f, "{}: {status} ({} → {} instrs)", s.stage, s.instrs_before, s.instrs_after)?;
            if let Some(err) = &s.rolled_back {
                write!(f, " — {err}")?;
            }
        }
        Ok(())
    }
}

/// Instructions in an assembly body, labels excluded — the static-size
/// metric the allocator gate and the fig2 rows report.
pub fn instr_count(asm: &[Asm]) -> usize {
    asm.iter().filter(|a| !matches!(a, Asm::Label(_))).count()
}

/// Lowers a certified function to RISC-V through the staged pipeline:
/// validates the naive baseline, runs every optimization stage, and
/// differentially validates the final artifact once. Only when that fails
/// does it fall back to [`lower_stepwise`], which finds and rolls back the
/// failing stages ([`chain::composed`]).
///
/// Returns the validated artifact plus the per-stage report. The certified
/// Bedrock2 body is the unchanging reference — the baseline and the final
/// artifact (and, in the fallback, every stage) are validated against
/// *it*, never against another stage's output, so stage bugs cannot
/// compound.
///
/// # Errors
///
/// Only baseline failures are errors: [`RvBackendError::Compile`] when the
/// function is outside the backend fragment, [`RvBackendError::Internal`]
/// when no differential input concretizes, and
/// [`RvBackendError::BaselineDiverged`] when the naive lowering itself
/// fails validation. Optimization-stage failures are *not* errors — they
/// are recorded in the report and rolled back.
pub fn lower_validated(
    cf: &CompiledFunction,
    pipeline: &RvPipelineConfig,
    config: &CheckConfig,
) -> Result<(RvArtifact, RvReport), RvBackendError> {
    let run = |i: usize, art: &RvArtifact| apply_stage(pipeline.stages[i], cf, art);
    lower_along(cf, &pipeline.stages, config, &run, chain::composed)
}

/// The step-wise protocol: differentially validates the baseline and then
/// every stage's output, rolling back any stage that fails.
/// [`lower_validated`] falls back to it when the composed artifact fails
/// validation; it is public so the two can be compared.
///
/// # Errors
///
/// As [`lower_validated`].
pub fn lower_stepwise(
    cf: &CompiledFunction,
    pipeline: &RvPipelineConfig,
    config: &CheckConfig,
) -> Result<(RvArtifact, RvReport), RvBackendError> {
    let run = |i: usize, art: &RvArtifact| apply_stage(pipeline.stages[i], cf, art);
    lower_along(cf, &pipeline.stages, config, &run, chain::stepwise)
}

/// Walks the stage chain from the validated baseline along `route`,
/// running stage `i` with `run` and validating against the certified body.
/// The report's leading row is the baseline `lower`.
fn lower_along(
    cf: &CompiledFunction,
    stages: &[RvStageId],
    config: &CheckConfig,
    run: &dyn Fn(usize, &RvArtifact) -> Result<RvArtifact, RvBackendError>,
    route: Route<RvArtifact, RvBackendError, ()>,
) -> Result<(RvArtifact, RvReport), RvBackendError> {
    let baseline = baseline(cf, config)?;
    let step = |i: usize, art: &RvArtifact| run(i, art).map(|candidate| (Some(candidate), ()));
    let chain = Chain {
        len: stages.len(),
        step: &step,
        panicked: |detail| RvBackendError::Internal { detail },
    };
    let walk = route(&chain, &baseline, &|art| validate_artifact(cf, art, config));
    let mut instrs = instr_count(&baseline.asm);
    let mut report = RvReport::default();
    report.stages.push(StageReport {
        stage: RvStageId::Lower,
        instrs_before: instrs,
        instrs_after: instrs,
        applied: true,
        rolled_back: None,
    });
    for (&stage, step) in stages.iter().zip(&walk.steps) {
        let instrs_before = instrs;
        if let Some(kept) = step.kept() {
            instrs = instr_count(&kept.asm);
        }
        report.stages.push(StageReport {
            stage,
            instrs_before,
            instrs_after: instrs,
            applied: step.kept().is_some(),
            rolled_back: step.rolled_back().cloned(),
        });
    }
    Ok((walk.value, report))
}

/// The naive spill-all lowering, validated. A failure here is fatal: there
/// is no earlier artifact to roll back to.
fn baseline(cf: &CompiledFunction, config: &CheckConfig) -> Result<RvArtifact, RvBackendError> {
    if rupicola_core::check::reference(cf, config).is_empty() {
        return Err(RvBackendError::Internal {
            detail: "no differential input concretizes; refusing to validate on nothing".into(),
        });
    }
    let naive =
        compile_function(&cf.function).map_err(|e| RvBackendError::Compile { detail: e.to_string() })?;
    validate_artifact(cf, &naive, config).map_err(|e| match e {
        RvBackendError::Diverged { detail } => RvBackendError::BaselineDiverged { detail },
        other => other,
    })?;
    Ok(naive)
}

/// Runs one stage over one artifact, with no validation. Exposed so the
/// fault-injection matrix and tests can exercise stages in isolation.
///
/// # Errors
///
/// Propagates lowering failures from the register-aware re-lowering
/// (peephole stages are total).
pub fn apply_stage(
    stage: RvStageId,
    cf: &CompiledFunction,
    current: &RvArtifact,
) -> Result<RvArtifact, RvBackendError> {
    match stage {
        RvStageId::Lower => Err(RvBackendError::Internal {
            detail: "`lower` is the implicit baseline, not a re-runnable stage".into(),
        }),
        RvStageId::RegAlloc => {
            let assignment = linear_scan(&cf.function);
            if assignment.regs.is_empty() {
                return Ok(current.clone());
            }
            lower_allocated(&cf.function, &assignment)
                .map_err(|e| RvBackendError::Compile { detail: e.to_string() })
        }
        RvStageId::RedundantMem => {
            Ok(RvArtifact { asm: peephole::redundant_mem(&current.asm), ..current.clone() })
        }
        RvStageId::BranchSimplify => {
            Ok(RvArtifact { asm: peephole::branch_simplify(&current.asm), ..current.clone() })
        }
        RvStageId::AddiFold => {
            Ok(RvArtifact { asm: peephole::addi_fold(&current.asm), ..current.clone() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_strings_are_canonical() {
        assert_eq!(RvPipelineConfig::none().identity_string(), "lower");
        assert_eq!(
            RvPipelineConfig::full().identity_string(),
            "lower,regalloc,redundant-mem,branch-simplify,addi-fold"
        );
        let partial = RvPipelineConfig { stages: vec![RvStageId::RegAlloc] };
        assert_eq!(partial.identity_string(), "lower,regalloc");
    }

    #[test]
    fn stage_names_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            RvStageId::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), RvStageId::ALL.len());
    }
}
