//! The trusted checker: witness re-validation plus translation validation.
//!
//! In Coq, the kernel checks the proof term each compilation produces. Our
//! substitution (see `DESIGN.md`) keeps the same architecture — untrusted,
//! extensible search produces a witness; a small trusted component validates
//! it — with three layers of validation:
//!
//! 1. **Structural**: every derivation node cites a registered lemma and
//!    every recorded side condition is re-solved by a registered solver.
//! 2. **Differential**: the functional model and the generated Bedrock2
//!    function are executed on generated test vectors; return words, final
//!    memory regions, event traces and writer output must agree. Programs
//!    that consume nondeterminism (the nondet monad, uninitialized stack
//!    allocations) are executed under *two* different poisons/oracles, which
//!    both checks the refinement and catches dependence on unspecified
//!    contents.
//! 3. **Invariants**: the loop invariants inferred by §3.4.2's heuristic are
//!    evaluated *at every loop head* of the real execution, via the
//!    interpreter's loop hook: the checker recomputes the closed-form
//!    partial-execution term for the current iteration count and compares
//!    it against actual locals and memory.
//!
//! What the differential derives from the certificate alone — vectors,
//! precondition verdicts, concretized inputs, the model's results — is
//! computed once per certificate and kept in its [`ValidationContext`],
//! which re-checks on every use that it was derived from exactly the
//! certificate and configuration at hand.

use crate::engine::CompiledFunction;
use crate::fnspec::{
    concretize, ArgSpec, ConcreteCall, FnSpec, RegionLayout, RetSpec, TraceSpec,
};
use crate::goal::{Hyp, MonadCtx};
use crate::invariant::{LoopInvariant, LoopInvariantKind};
use rupicola_bedrock::interp::{Locals, NoExternals};
use rupicola_bedrock::{
    BExpr, BFunction, ExecState, ExternalHandler, Interpreter, LoopHook, Memory, Program,
    TraceEvent,
};
use rupicola_lang::eval::{eval, eval_model, Env, Oracle, World};
use rupicola_lang::{
    ElemKind, Event, Expr, ExternRegistry, Ident, Model, MonadKind, PrimOp, Value,
};
use rupicola_sep::ScalarKind;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Configuration of a checking run.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Number of test vectors per poison.
    pub vectors: usize,
    /// RNG seed for vector generation.
    pub seed: u64,
    /// Initial interpreter fuel per run. A run that exhausts it is retried
    /// with doubled fuel (*escalation*) until it fits or [`max_fuel`] is
    /// reached.
    ///
    /// [`max_fuel`]: CheckConfig::max_fuel
    pub fuel: u64,
    /// Fuel ceiling of the escalation. Exhausting *this* is reported as
    /// [`CheckError::Divergence`]: the code does not terminate within any
    /// budget the deployment is willing to pay, as opposed to merely
    /// needing more than the initial [`fuel`](CheckConfig::fuel).
    pub max_fuel: u64,
    /// Whether to validate inferred loop invariants at loop heads.
    pub check_invariants: bool,
    /// Extern operations / effect handlers the model uses.
    pub externs: ExternRegistry,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            vectors: 16,
            seed: 0xC0FF_EE00,
            fuel: 1 << 20,
            max_fuel: 1 << 30,
            check_invariants: true,
            externs: ExternRegistry::new(),
        }
    }
}

/// Summary of a successful check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Vectors executed (per poison).
    pub vectors_run: usize,
    /// Vectors skipped because the model's precondition excluded them
    /// (source evaluation was undefined).
    pub vectors_skipped: usize,
    /// Side conditions re-solved during structural validation.
    pub side_conds_rechecked: usize,
    /// Loop-head invariant evaluations performed.
    pub invariant_checks: usize,
    /// Whether the two-poison nondeterminism discipline was exercised.
    pub poison_pair: bool,
    /// Fuel-escalation retries performed (runs that exhausted the current
    /// fuel and were re-executed with doubled fuel).
    pub fuel_escalations: usize,
    /// The largest fuel actually consumed by any single target run (from
    /// the interpreter's fuel accounting).
    pub max_fuel_used: u64,
}

/// A validation failure: the witness does not certify the program.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// A derivation node cites a lemma absent from the databases.
    UnknownLemma(String),
    /// A recorded side condition is not re-solvable.
    SideCondition {
        /// The condition.
        cond: String,
        /// The lemma that recorded it.
        lemma: String,
    },
    /// The compiled function diverged from the model.
    Mismatch {
        /// The offending vector.
        vector: String,
        /// What differed.
        detail: String,
    },
    /// The compiled function got stuck (OOB access, fuel, …).
    TargetStuck {
        /// The offending vector.
        vector: String,
        /// The interpreter error.
        error: String,
    },
    /// A loop invariant failed at a loop head.
    InvariantViolated {
        /// The offending vector.
        vector: String,
        /// What the hook observed.
        detail: String,
    },
    /// Too few vectors were runnable (the generator could not satisfy the
    /// model's precondition).
    InsufficientCoverage {
        /// Vectors that ran.
        ran: usize,
        /// Vectors attempted.
        attempted: usize,
    },
    /// The compiled function exhausted the *escalated* fuel ceiling
    /// ([`CheckConfig::max_fuel`]) — it diverges for practical purposes,
    /// as opposed to [`CheckError::TargetStuck`] on a genuine stuck state
    /// or a run that merely needed more than the initial fuel (which is
    /// retried transparently).
    Divergence {
        /// The offending vector.
        vector: String,
        /// The ceiling that was exhausted.
        fuel_cap: u64,
    },
    /// The witness's integrity counters disagree with its tree: records
    /// were dropped, children truncated, or counters forged after
    /// construction.
    WitnessCorrupted {
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::UnknownLemma(l) => write!(f, "derivation cites unknown lemma `{l}`"),
            CheckError::SideCondition { cond, lemma } => {
                write!(f, "side condition `{cond}` of `{lemma}` does not re-solve")
            }
            CheckError::Mismatch { vector, detail } => {
                write!(f, "output mismatch on input {vector}: {detail}")
            }
            CheckError::TargetStuck { vector, error } => {
                write!(f, "compiled code stuck on input {vector}: {error}")
            }
            CheckError::InvariantViolated { vector, detail } => {
                write!(f, "loop invariant violated on input {vector}: {detail}")
            }
            CheckError::InsufficientCoverage { ran, attempted } => {
                write!(f, "only {ran}/{attempted} vectors satisfied the model's precondition")
            }
            CheckError::Divergence { vector, fuel_cap } => {
                write!(
                    f,
                    "compiled code on input {vector} still out of fuel at the escalation \
                     ceiling ({fuel_cap}): divergent"
                )
            }
            CheckError::WitnessCorrupted { detail } => {
                write!(f, "witness integrity violation: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Checks a compiled function against the default configuration.
///
/// # Errors
///
/// See [`CheckError`].
pub fn check(
    cf: &CompiledFunction,
    dbs: &crate::lemma::HintDbs,
) -> Result<CheckReport, CheckError> {
    check_with(cf, dbs, &CheckConfig::default())
}

/// Checks a compiled function.
///
/// # Errors
///
/// See [`CheckError`].
pub fn check_with(
    cf: &CompiledFunction,
    dbs: &crate::lemma::HintDbs,
    config: &CheckConfig,
) -> Result<CheckReport, CheckError> {
    let mut report = CheckReport::default();

    // Layer 1: structural validation of the witness. First the integrity
    // counters — recompute both summaries from the tree; a mismatch means
    // records were dropped or children truncated after construction.
    let node_count = cf.derivation.root.size();
    if node_count != cf.derivation.node_count {
        return Err(CheckError::WitnessCorrupted {
            detail: format!(
                "tree has {node_count} node(s) but the witness records {}",
                cf.derivation.node_count
            ),
        });
    }
    let mut sc_count = 0;
    cf.derivation.root.walk(&mut |n| sc_count += n.side_conds.len());
    if sc_count != cf.derivation.side_cond_count {
        return Err(CheckError::WitnessCorrupted {
            detail: format!(
                "tree records {sc_count} side condition(s) but the witness counts {}",
                cf.derivation.side_cond_count
            ),
        });
    }

    // Then per-node validation: every lemma registered, every side
    // condition re-solved. Solvers are untrusted extensions: a panicking
    // solver counts as "does not re-solve", not as a checker crash.
    let mut structural: Result<(), CheckError> = Ok(());
    cf.derivation.root.walk(&mut |node| {
        if structural.is_err() {
            return;
        }
        if !dbs.knows_lemma(&node.lemma) {
            structural = Err(CheckError::UnknownLemma(node.lemma.to_string()));
            return;
        }
        for sc in &node.side_conds {
            let solved = dbs.solvers().iter().any(|s| {
                crate::engine::catch_quiet(|| s.solve(&sc.cond, &sc.hyps)).unwrap_or(false)
            });
            if !solved {
                structural = Err(CheckError::SideCondition {
                    cond: sc.cond.to_string(),
                    lemma: node.lemma.to_string(),
                });
                return;
            }
            report.side_conds_rechecked += 1;
        }
    });
    structural?;

    // Layer 2 + 3: differential execution with invariant hooks.
    let uses_nondet = matches!(cf.spec.monad, MonadCtx::Monadic(MonadKind::Nondet))
        || function_has_stackalloc(&cf.function.body);
    let poisons = if uses_nondet { &POISONS[..] } else { &POISONS[..1] };
    report.poison_pair = poisons.len() == 2;

    let inputs = cert_inputs(cf, config);
    let mut invariants = Vec::new();
    cf.derivation.root.walk(&mut |n| {
        if let Some(inv) = &n.invariant {
            invariants.push(inv.clone());
        }
    });

    let mut program = Program::new();
    program.insert(cf.function.clone());
    for callee in &cf.linked {
        program.insert(callee.clone());
    }
    let interp = Interpreter::new(&program);
    let input_words = input_words(config.seed);

    let mut ran = 0;
    for (i, case) in inputs.cases.iter().enumerate() {
        let Some(case) = case else {
            // Outside the precondition (a hint is false on this vector).
            report.vectors_skipped += 1;
            continue;
        };
        let vector = &inputs.vectors[i];
        let vector_desc = &case.desc;
        let mut this_ran = false;
        for (p, &poison) in poisons.iter().enumerate() {
            // Source run.
            let Some(src) = &inputs.model_runs(p)[i] else {
                // Precondition excluded this input.
                report.vectors_skipped += 1;
                break;
            };
            this_ran = true;
            let call = case.call.as_ref().map_err(|e| CheckError::Mismatch {
                vector: vector_desc.clone(),
                detail: e.clone(),
            })?;

            // Target run, with bounded fuel escalation: a run that
            // exhausts the current fuel is re-executed from scratch with
            // doubled fuel, distinguishing "needs more fuel" (retried
            // transparently) from "diverges" (still starving at the cap).
            let mut fuel = config.fuel.clamp(1, config.max_fuel);
            let (rets, state, hook_checks) = loop {
                let mut state = ExecState::new(call.mem.clone()).with_stack_poison(poison);
                let mut ext = CheckerExternals {
                    input: input_words.iter().copied().collect(),
                    externs: config.externs.clone(),
                };
                let mut hook = InvariantHook {
                    invariants: &invariants,
                    model: &cf.model,
                    params: &cf.model.params,
                    values: vector,
                    externs: &config.externs,
                    checks: 0,
                };
                let rets = if config.check_invariants {
                    interp.call_with_hook(
                        &cf.function.name,
                        &call.args,
                        &mut state,
                        &mut ext,
                        fuel,
                        &mut hook,
                    )
                } else {
                    interp.call(&cf.function.name, &call.args, &mut state, &mut ext, fuel)
                };
                report.max_fuel_used = report.max_fuel_used.max(state.fuel_used);
                match rets {
                    Err(rupicola_bedrock::ExecError::OutOfFuel) if fuel < config.max_fuel => {
                        report.fuel_escalations += 1;
                        fuel = fuel.saturating_mul(2).min(config.max_fuel);
                    }
                    Err(rupicola_bedrock::ExecError::OutOfFuel) => {
                        return Err(CheckError::Divergence {
                            vector: vector_desc.clone(),
                            fuel_cap: config.max_fuel,
                        });
                    }
                    other => break (other, state, hook.checks),
                }
            };
            report.invariant_checks += hook_checks;
            let rets = rets.map_err(|e| match e {
                rupicola_bedrock::ExecError::HookFailure(m) => CheckError::InvariantViolated {
                    vector: vector_desc.clone(),
                    detail: m,
                },
                other => CheckError::TargetStuck {
                    vector: vector_desc.clone(),
                    error: other.to_string(),
                },
            })?;

            compare_outputs(cf, &src.value, &rets, &state, &call.regions, vector, vector_desc)?;
            compare_traces(&cf.spec, src, &state, vector_desc)?;
        }
        if this_ran {
            ran += 1;
        }
    }
    report.vectors_run = ran;
    let attempted = inputs.vectors.len();
    if ran == 0 || ran * 4 < attempted {
        return Err(CheckError::InsufficientCoverage { ran, attempted });
    }
    Ok(report)
}

/// One concretized differential-test input: the same machine state the
/// checker's layer-3 differential would start the compiled function in.
#[derive(Debug, Clone)]
pub struct DifferentialInput {
    /// Argument words, in Bedrock2 argument order.
    pub args: Vec<u64>,
    /// Initial memory (argument regions laid out and filled).
    pub mem: Memory,
    /// Human-readable description of the underlying model vector.
    pub desc: String,
}

/// Concretizes the checker's test vectors for `cf` into interpreter-ready
/// inputs, skipping vectors outside the spec's precondition (its hint
/// hypotheses). The optimization validator and the equivalence battery use
/// these to differential-test two Bedrock2 bodies on exactly the inputs
/// the certificate was checked on.
pub fn differential_inputs(cf: &CompiledFunction, config: &CheckConfig) -> Vec<DifferentialInput> {
    cert_inputs(cf, config).inputs.clone()
}

/// The two stack/oracle poisons of the nondeterminism discipline; programs
/// that consume no nondeterminism run under the first only.
const POISONS: [u8; 2] = [0xAA, 0x55];

/// The `io_read` input stream every source and target run consumes.
fn input_words(seed: u64) -> Vec<u64> {
    (0..64).map(|i| splitmix(seed ^ (i + 1))).collect()
}

/// Every update under these locks is one assignment or push, so the data
/// stays valid even if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The per-certificate validation context: what the validation layers
/// derive from a certificate alone, computed on first use and shared by
/// every later validation of the same certificate.
///
/// It lives in [`CompiledFunction::validation`], so clones of a
/// `CompiledFunction` — candidate bodies built with `..cf.clone()`
/// included — share it, and the route's check → opt → RISC-V sequence
/// (or the store's verify-on-load ladder) evaluates the model once. It
/// holds the test vectors, the precondition verdicts, the concretized
/// [`DifferentialInput`]s, the model's result on every (vector, poison)
/// pair, and the certified body's reference run on every input
/// ([`reference()`]).
///
/// Nothing in it is trusted. Every read first checks that the context was
/// derived from exactly the model, spec and [`CheckConfig`] fields of the
/// call at hand (and, for reference runs, from exactly its certified body,
/// linked callees and fuel ceiling); on any mismatch it is recomputed,
/// never reused. A config with extern operations bypasses it entirely.
/// It is never serialized (a decoded artifact starts empty), it is ignored
/// by `CompiledFunction` equality, and it is never shared between two
/// `CompiledFunction`s that were not cloned from one another.
///
/// [`CompiledFunction::validation`]: crate::CompiledFunction::validation
#[derive(Clone, Default)]
pub struct ValidationContext {
    slot: Arc<Mutex<Option<Arc<CertInputs>>>>,
}

impl ValidationContext {
    /// Whether nothing has been derived yet.
    pub fn is_empty(&self) -> bool {
        lock(&self.slot).is_none()
    }
}

/// Derived data, not part of a certificate's identity.
impl PartialEq for ValidationContext {
    fn eq(&self, _: &ValidationContext) -> bool {
        true
    }
}

impl fmt::Debug for ValidationContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.is_empty() { "empty" } else { "filled" };
        write!(f, "ValidationContext({state})")
    }
}

/// One vector inside the precondition.
struct Case {
    desc: String,
    call: Result<ConcreteCall, String>,
}

/// The model's result on one (vector, poison) pair.
struct ModelRun {
    value: Value,
    writer: Vec<u64>,
    events: Vec<Event>,
}

/// Everything derived from (model, spec, vectors, seed, externs).
struct CertInputs {
    model: Model,
    spec: FnSpec,
    vector_count: usize,
    seed: u64,
    externs: ExternRegistry,
    vectors: Vec<Vec<Value>>,
    /// Per vector: `None` when a hint (precondition) is false on it.
    cases: Vec<Option<Case>>,
    /// Per poison, per vector: the model's result, or `None` when the
    /// vector is excluded or the model is undefined on it.
    model_runs: [OnceLock<Vec<Option<ModelRun>>>; 2],
    inputs: Vec<DifferentialInput>,
    reference: Mutex<Option<Arc<BodyRuns>>>,
}

impl CertInputs {
    fn build(cf: &CompiledFunction, config: &CheckConfig) -> CertInputs {
        let vectors = generate_vectors(&cf.spec, &cf.model, config);
        let cases: Vec<Option<Case>> = vectors
            .iter()
            .map(|vector| {
                hints_hold(&cf.spec, &cf.model, vector, config).then(|| Case {
                    desc: describe_vector(&cf.model.params, vector),
                    call: concretize(&cf.spec, &cf.model.params, vector),
                })
            })
            .collect();
        let inputs = cases
            .iter()
            .flatten()
            .filter_map(|case| {
                let call = case.call.as_ref().ok()?;
                Some(DifferentialInput {
                    args: call.args.clone(),
                    mem: call.mem.clone(),
                    desc: case.desc.clone(),
                })
            })
            .collect();
        CertInputs {
            model: cf.model.clone(),
            spec: cf.spec.clone(),
            vector_count: config.vectors,
            seed: config.seed,
            externs: config.externs.clone(),
            vectors,
            cases,
            model_runs: [OnceLock::new(), OnceLock::new()],
            inputs,
            reference: Mutex::new(None),
        }
    }

    fn derived_from(&self, cf: &CompiledFunction, config: &CheckConfig) -> bool {
        self.vector_count == config.vectors
            && self.seed == config.seed
            && self.externs.is_empty()
            && config.externs.is_empty()
            && self.spec == cf.spec
            && self.model == cf.model
    }

    /// The model's results under poison `POISONS[p]`. Under the second
    /// poison only vectors the first one ran are evaluated, as the
    /// checker never looks further.
    fn model_runs(&self, p: usize) -> &[Option<ModelRun>] {
        self.model_runs[p].get_or_init(|| {
            (0..self.vectors.len())
                .map(|i| {
                    if self.cases[i].is_none() || (p > 0 && self.model_runs(0)[i].is_none()) {
                        return None;
                    }
                    let mut world = World::with_input(input_words(self.seed))
                        .with_oracle(PoisonOracle { byte: POISONS[p] });
                    world.externs = self.externs.clone();
                    let value = eval_model(&self.model, &self.vectors[i], &mut world).ok()?;
                    Some(ModelRun { value, writer: world.writer, events: world.events })
                })
                .collect()
        })
    }
}

/// The context's model-side half for `cf` under `config`: reused when it
/// was derived from exactly these inputs, rebuilt (and re-filed) otherwise.
fn cert_inputs(cf: &CompiledFunction, config: &CheckConfig) -> Arc<CertInputs> {
    if !config.externs.is_empty() {
        return Arc::new(CertInputs::build(cf, config));
    }
    if let Some(ctx) = lock(&cf.validation.slot).as_ref() {
        if ctx.derived_from(cf, config) {
            return Arc::clone(ctx);
        }
    }
    let ctx = Arc::new(CertInputs::build(cf, config));
    *lock(&cf.validation.slot) = Some(Arc::clone(&ctx));
    ctx
}

/// The certified body's run on one [`DifferentialInput`] (no externals,
/// [`CheckConfig::max_fuel`]).
#[derive(Debug)]
pub struct ReferenceRun {
    /// Return words and final locals, or the rendered fault.
    pub outcome: Result<(Vec<u64>, Locals), String>,
    /// The final heap.
    pub mem: Memory,
    /// The final event trace.
    pub trace: Vec<TraceEvent>,
}

/// Everything derived from the certified body on top of [`CertInputs`].
struct BodyRuns {
    function: BFunction,
    linked: Vec<BFunction>,
    max_fuel: u64,
    runs: Vec<ReferenceRun>,
    memo: Mutex<Vec<(String, bool)>>,
}

impl BodyRuns {
    fn build(
        cf: &CompiledFunction,
        config: &CheckConfig,
        inputs: &[DifferentialInput],
    ) -> BodyRuns {
        let mut program = Program::new();
        program.insert(cf.function.clone());
        for callee in &cf.linked {
            program.insert(callee.clone());
        }
        let interp = Interpreter::new(&program);
        let runs = inputs
            .iter()
            .map(|input| {
                let mut st = ExecState::new(input.mem.clone());
                let outcome = interp
                    .call_with_locals(
                        &cf.function.name,
                        &input.args,
                        &mut st,
                        &mut NoExternals,
                        config.max_fuel,
                    )
                    .map_err(|e| e.to_string());
                ReferenceRun { outcome, mem: st.mem, trace: st.trace }
            })
            .collect();
        BodyRuns {
            function: cf.function.clone(),
            linked: cf.linked.clone(),
            max_fuel: config.max_fuel,
            runs,
            memo: Mutex::new(Vec::new()),
        }
    }

    fn derived_from(&self, cf: &CompiledFunction, config: &CheckConfig) -> bool {
        self.max_fuel == config.max_fuel && self.function == cf.function && self.linked == cf.linked
    }
}

/// The differential inputs of a certificate paired with the certified
/// body's run on each: the fixed side of every body-vs-candidate
/// differential (opt layer 3, every RISC-V stage).
pub struct Reference {
    inputs: Arc<CertInputs>,
    body: Arc<BodyRuns>,
}

impl Reference {
    /// The inputs, with the certified body's run on each.
    pub fn cases(&self) -> impl Iterator<Item = (&DifferentialInput, &ReferenceRun)> {
        self.inputs.inputs.iter().zip(&self.body.runs)
    }

    /// Whether no input concretized.
    pub fn is_empty(&self) -> bool {
        self.inputs.inputs.is_empty()
    }

    /// A verdict about the certified body, computed once per `key`. The
    /// key must name everything besides the certified body and spec that
    /// `compute` reads (the opt validator keys its constant-time verdict
    /// on the secrecy policy).
    pub fn memo_flag(&self, key: &str, compute: impl FnOnce() -> bool) -> bool {
        if let Some((_, v)) = lock(&self.body.memo).iter().find(|(k, _)| k == key) {
            return *v;
        }
        let v = compute();
        lock(&self.body.memo).push((key.to_string(), v));
        v
    }
}

/// The reference side of `cf`'s differentials under `config`, from its
/// validation context when that was derived from exactly `cf`'s model,
/// spec, certified body, linked callees and `config`'s fields, and
/// recomputed (and re-filed) otherwise.
pub fn reference(cf: &CompiledFunction, config: &CheckConfig) -> Reference {
    let inputs = cert_inputs(cf, config);
    let cached = lock(&inputs.reference).as_ref().filter(|b| b.derived_from(cf, config)).cloned();
    let body = cached.unwrap_or_else(|| {
        let body = Arc::new(BodyRuns::build(cf, config, &inputs.inputs));
        *lock(&inputs.reference) = Some(Arc::clone(&body));
        body
    });
    Reference { inputs, body }
}

fn function_has_stackalloc(cmd: &rupicola_bedrock::Cmd) -> bool {
    use rupicola_bedrock::Cmd;
    match cmd {
        Cmd::StackAlloc { .. } => true,
        Cmd::Seq(a, b) => function_has_stackalloc(a) || function_has_stackalloc(b),
        Cmd::If { then_, else_, .. } => {
            function_has_stackalloc(then_) || function_has_stackalloc(else_)
        }
        Cmd::While { body, .. } => function_has_stackalloc(body),
        _ => false,
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Oracle returning a fixed byte pattern; `nondet_word` always picks the
/// least element, matching the compiled code's canonical choice.
#[derive(Debug, Clone, Copy)]
struct PoisonOracle {
    byte: u8,
}

impl Oracle for PoisonOracle {
    fn nondet_byte(&mut self) -> u8 {
        self.byte
    }
    fn nondet_word(&mut self, _bound: u64) -> u64 {
        0
    }
}

struct CheckerExternals {
    input: VecDeque<u64>,
    externs: ExternRegistry,
}

impl ExternalHandler for CheckerExternals {
    fn interact(
        &mut self,
        action: &str,
        args: &[u64],
        _mem: &mut Memory,
    ) -> Result<Vec<u64>, String> {
        match action {
            "io_read" => {
                let w = self.input.pop_front().ok_or("io input exhausted")?;
                Ok(vec![w])
            }
            "io_write" | "writer_tell" => Ok(vec![]),
            other => {
                let handler = self
                    .externs
                    .effect(other)
                    .ok_or_else(|| format!("no effect handler for `{other}`"))?
                    .clone();
                let vals: Vec<Value> = args.iter().map(|w| Value::Word(*w)).collect();
                let (_, rets) = handler(&vals).map_err(|e| e.to_string())?;
                Ok(rets)
            }
        }
    }
}

fn describe_vector(params: &[Ident], values: &[Value]) -> String {
    params
        .iter()
        .zip(values)
        .map(|(p, v)| format!("{p} := {v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Evaluates the spec's hint hypotheses on a vector. Hints double as the
/// function's `requires` clause: a vector on which a hint is false is
/// outside the precondition and is skipped. Hints mentioning terms that are
/// not evaluable from the parameters alone are ignored here (they were
/// still re-solved structurally).
fn hints_hold(spec: &FnSpec, model: &Model, vector: &[Value], config: &CheckConfig) -> bool {
    let mut env = Env::new();
    for (p, v) in model.params.iter().zip(vector) {
        env.insert(p.clone(), v.clone());
    }
    let mut world = World { externs: config.externs.clone(), ..World::default() };
    for hint in &spec.hints {
        let (a, b, test): (&Expr, &Expr, fn(u64, u64) -> bool) = match hint {
            Hyp::EqWord(a, b) => (a, b, |x, y| x == y),
            Hyp::LtU(a, b) => (a, b, |x, y| x < y),
            Hyp::LeU(a, b) => (a, b, |x, y| x <= y),
        };
        let va = eval(a, &env, &model.tables, &mut world).ok().and_then(|v| v.to_scalar_word());
        let vb = eval(b, &env, &model.tables, &mut world).ok().and_then(|v| v.to_scalar_word());
        if let (Some(x), Some(y)) = (va, vb) {
            if !test(x, y) {
                return false;
            }
        }
    }
    true
}

fn compare_outputs(
    cf: &CompiledFunction,
    src_value: &Value,
    rets: &[u64],
    state: &ExecState,
    regions: &[RegionLayout],
    vector: &[Value],
    vector_desc: &str,
) -> Result<(), CheckError> {
    let components = flatten_value(src_value);
    if components.len() != cf.spec.rets.len() {
        return Err(CheckError::Mismatch {
            vector: vector_desc.to_string(),
            detail: format!(
                "model produced {} result component(s), spec declares {}",
                components.len(),
                cf.spec.rets.len()
            ),
        });
    }
    let mut ret_iter = rets.iter();
    for (spec, comp) in cf.spec.rets.iter().zip(&components) {
        match spec {
            RetSpec::Scalar { name, kind } => {
                let got = *ret_iter.next().ok_or_else(|| CheckError::Mismatch {
                    vector: vector_desc.to_string(),
                    detail: "too few return values".into(),
                })?;
                let want = comp.to_scalar_word().ok_or_else(|| CheckError::Mismatch {
                    vector: vector_desc.to_string(),
                    detail: format!("model result component for `{name}` is not scalar"),
                })?;
                let want = mask_for_kind(*kind, want);
                if got != want {
                    return Err(CheckError::Mismatch {
                        vector: vector_desc.to_string(),
                        detail: format!("return `{name}`: model {want:#x}, compiled {got:#x}"),
                    });
                }
            }
            RetSpec::InPlace { param } => {
                let layout = regions.iter().find(|r| &r.param == param).ok_or_else(|| {
                    CheckError::Mismatch {
                        vector: vector_desc.to_string(),
                        detail: format!("no region layout for `{param}`"),
                    }
                })?;
                let bytes = state.mem.region(layout.base).ok_or_else(|| CheckError::Mismatch {
                    vector: vector_desc.to_string(),
                    detail: format!("region of `{param}` vanished"),
                })?;
                let got = match layout.elem {
                    Some(elem) => Value::from_layout_bytes(elem, bytes),
                    None => bytes
                        .get(..8)
                        .and_then(|b| <[u8; 8]>::try_from(b).ok())
                        .map(|b| Value::Cell(u64::from_le_bytes(b))),
                };
                let input_len = vector
                    .get(cf.model.params.iter().position(|p| p == param).unwrap_or(usize::MAX))
                    .and_then(Value::list_len);
                if let (Some(want_len), Some(got_len)) = (input_len, comp.list_len()) {
                    if want_len != got_len {
                        return Err(CheckError::Mismatch {
                            vector: vector_desc.to_string(),
                            detail: format!(
                                "in-place result for `{param}` changed length: {want_len} → {got_len}"
                            ),
                        });
                    }
                }
                if got.as_ref() != Some(comp) {
                    return Err(CheckError::Mismatch {
                        vector: vector_desc.to_string(),
                        detail: format!(
                            "in-place result for `{param}`: model {comp}, compiled {}",
                            got.map_or_else(|| "<undecodable>".to_string(), |v| v.to_string())
                        ),
                    });
                }
            }
        }
    }
    // Input regions that are not declared as outputs carry the implicit
    // `array p s` ensures clause: the compiled code must leave them
    // byte-for-byte unchanged.
    for layout in regions {
        let declared_output = cf
            .spec
            .rets
            .iter()
            .any(|r| matches!(r, RetSpec::InPlace { param } if *param == layout.param));
        if declared_output {
            continue;
        }
        let original = cf
            .model
            .params
            .iter()
            .position(|p| *p == layout.param)
            .and_then(|i| vector.get(i))
            .and_then(Value::to_layout_bytes);
        let got = state.mem.region(layout.base);
        if let (Some(want), Some(got)) = (original, got) {
            if want.as_slice() != got {
                return Err(CheckError::Mismatch {
                    vector: vector_desc.to_string(),
                    detail: format!(
                        "`{}` is not an output but its memory changed (spec ensures `array p {}` unchanged)",
                        layout.param, layout.param
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Flattens a pair-structured result value, mirroring
/// [`crate::goal::flatten_result`] on terms.
fn flatten_value(v: &Value) -> Vec<Value> {
    match v {
        Value::Pair(a, b) => {
            let mut out = flatten_value(a);
            out.extend(flatten_value(b));
            out
        }
        other => vec![other.clone()],
    }
}

fn mask_for_kind(kind: ScalarKind, w: u64) -> u64 {
    match kind {
        ScalarKind::Byte => w & 0xff,
        ScalarKind::Bool => w & 1,
        _ => w,
    }
}

fn compare_traces(
    spec: &FnSpec,
    src: &ModelRun,
    state: &ExecState,
    vector_desc: &str,
) -> Result<(), CheckError> {
    let (writer_events, other_events): (Vec<&TraceEvent>, Vec<&TraceEvent>) = state
        .trace
        .iter()
        .partition(|e| e.action == "writer_tell");
    let writer_got: Vec<u64> = writer_events.iter().filter_map(|e| e.args.first().copied()).collect();
    if writer_got != src.writer {
        return Err(CheckError::Mismatch {
            vector: vector_desc.to_string(),
            detail: format!(
                "writer output: model {:?}, compiled {:?}",
                src.writer, writer_got
            ),
        });
    }
    match spec.trace {
        TraceSpec::Unchanged => {
            if !other_events.is_empty() {
                return Err(CheckError::Mismatch {
                    vector: vector_desc.to_string(),
                    detail: format!(
                        "spec says tr' = tr but compiled code performed {} interaction(s)",
                        other_events.len()
                    ),
                });
            }
        }
        TraceSpec::MirrorsSource => {
            let expected: Vec<TraceEvent> = src.events.iter().map(event_to_trace).collect();
            let got: Vec<TraceEvent> = other_events.into_iter().cloned().collect();
            if expected != got {
                return Err(CheckError::Mismatch {
                    vector: vector_desc.to_string(),
                    detail: format!("trace: model {expected:?}, compiled {got:?}"),
                });
            }
        }
    }
    Ok(())
}

fn event_to_trace(e: &Event) -> TraceEvent {
    match e {
        Event::Read(w) => TraceEvent { action: "io_read".into(), args: vec![], rets: vec![*w] },
        Event::Write(w) => TraceEvent { action: "io_write".into(), args: vec![*w], rets: vec![] },
        Event::Ext { tag, args, rets } => TraceEvent {
            action: tag.clone(),
            args: args.clone(),
            rets: rets.clone(),
        },
    }
}

/// Bounds on a parameter's list length implied by the spec hints
/// (`length s = n`, `k ≤ length s`, `length s < m`).
fn hinted_len_bounds(spec: &FnSpec, param: &str) -> (usize, Option<usize>) {
    let mut lo = 0usize;
    let mut exact = None;
    for h in &spec.hints {
        let (a, b, kind) = match h {
            Hyp::EqWord(a, b) => (a, b, 0),
            Hyp::LeU(a, b) => (a, b, 1),
            Hyp::LtU(a, b) => (a, b, 2),
        };
        let is_len = |e: &Expr| {
            matches!(e, Expr::ArrayLen { arr, .. } if matches!(arr.as_ref(), Expr::Var(v) if v == param))
        };
        let lit = |e: &Expr| match e {
            Expr::Lit(v) => v.to_scalar_word(),
            _ => None,
        };
        match kind {
            0 if is_len(a) => {
                if let Some(n) = lit(b) {
                    exact = Some(n as usize);
                }
            }
            1 if is_len(b) => {
                if let Some(n) = lit(a) {
                    lo = lo.max(n as usize);
                }
            }
            _ => {}
        }
    }
    (lo, exact)
}

/// Extracts relational length hints of the form
/// `len A = len B >> k` / `len A = len B * k` (either literal-operand
/// order for the product), returned as `(a_param, b_param, transform)`
/// where `transform` maps B's length to A's required length. The codec
/// programs (`hex_enc`, `hex_dec`) relate their two buffers this way, and
/// without honoring the relation almost every generated vector would be
/// skipped by `hints_hold`, starving coverage.
/// One relational length hint: `(a_param, b_param, transform, k)` — A's
/// required length is `transform(len B, k)`.
type LenHint = (String, String, fn(usize, u64) -> usize, u64);

fn relational_len_hints(spec: &FnSpec) -> Vec<LenHint> {
    let len_param = |e: &Expr| match e {
        Expr::ArrayLen { arr, .. } => match arr.as_ref() {
            Expr::Var(v) => Some(v.clone()),
            _ => None,
        },
        _ => None,
    };
    let lit = |e: &Expr| match e {
        Expr::Lit(v) => v.to_scalar_word(),
        _ => None,
    };
    let mut out: Vec<LenHint> = Vec::new();
    for h in &spec.hints {
        let Hyp::EqWord(a, b) = h else { continue };
        let Some(a_param) = len_param(a) else { continue };
        let Expr::Prim { op, args } = b else { continue };
        if args.len() != 2 {
            continue;
        }
        match op {
            PrimOp::WShr => {
                if let (Some(b_param), Some(k)) = (len_param(&args[0]), lit(&args[1])) {
                    out.push((a_param, b_param, |n, k| n >> (k & 63), k));
                }
            }
            PrimOp::WMul => {
                let (p, k) = (len_param(&args[0]), lit(&args[1]));
                let (p, k) = if p.is_some() { (p, k) } else { (len_param(&args[1]), lit(&args[0])) };
                if let (Some(b_param), Some(k)) = (p, k) {
                    out.push((a_param, b_param, |n, k| n * (k as usize), k));
                }
            }
            _ => {}
        }
    }
    out
}

/// Generates input vectors covering size edge cases and random contents,
/// steering list sizes by any length hints so that preconditions do not
/// starve coverage.
fn generate_vectors(spec: &FnSpec, model: &Model, config: &CheckConfig) -> Vec<Vec<Value>> {
    const SIZES: [usize; 8] = [0, 1, 2, 3, 7, 8, 13, 32];
    let relational = relational_len_hints(spec);
    let mut out = Vec::with_capacity(config.vectors);
    let mut state = config.seed | 1;
    let mut next = move || {
        state = splitmix(state);
        state
    };
    for v in 0..config.vectors {
        let base_size = SIZES[v % SIZES.len()];
        // Decide every array's size up front so relational hints can tie
        // one buffer's length to another's before contents are drawn.
        let mut sizes: std::collections::HashMap<&str, usize> = spec
            .args
            .iter()
            .filter_map(|a| match a {
                ArgSpec::ArrayPtr { param, .. } => {
                    let (lo, exact) = hinted_len_bounds(spec, param);
                    Some((param.as_str(), exact.unwrap_or_else(|| base_size.max(lo))))
                }
                _ => None,
            })
            .collect();
        for (a_param, b_param, transform, k) in &relational {
            if let Some(&b_len) = sizes.get(b_param.as_str()) {
                if let Some(slot) = sizes.get_mut(a_param.as_str()) {
                    *slot = transform(b_len, *k);
                }
            }
        }
        let mut vector = Vec::with_capacity(model.params.len());
        for p in &model.params {
            let arg = spec.args.iter().find(|a| match a {
                ArgSpec::Scalar { param, .. }
                | ArgSpec::ArrayPtr { param, .. }
                | ArgSpec::CellPtr { param, .. } => param == p,
                ArgSpec::LenOf { .. } => false,
            });
            let size = match arg {
                Some(ArgSpec::ArrayPtr { param, .. }) => {
                    sizes.get(param.as_str()).copied().unwrap_or(base_size)
                }
                _ => base_size,
            };
            let value = match arg {
                Some(ArgSpec::ArrayPtr { elem: ElemKind::Byte, .. }) => {
                    Value::byte_list((0..size).map(|_| (next() & 0xff) as u8))
                }
                Some(ArgSpec::ArrayPtr { elem: ElemKind::Word, .. }) => {
                    Value::word_list((0..size).map(|_| next()))
                }
                Some(ArgSpec::CellPtr { .. }) => Value::Cell(next()),
                Some(ArgSpec::Scalar { kind, .. }) => match kind {
                    // Words are biased toward plausible index values so that
                    // hints acting as preconditions (e.g. `i < length s`)
                    // keep enough vectors alive.
                    ScalarKind::Word => Value::Word(match v % 4 {
                        0 => 0,
                        1 => 1,
                        _ => next() % (2 * size as u64 + 2),
                    }),
                    ScalarKind::Byte => Value::Byte((next() & 0xff) as u8),
                    ScalarKind::Bool => Value::Bool(next() & 1 == 1),
                    ScalarKind::Nat => Value::Nat(next() & 0xffff),
                    ScalarKind::Unit => Value::Unit,
                },
                _ => Value::Unit,
            };
            vector.push(value);
        }
        out.push(vector);
    }
    out
}

/// The loop-head invariant checker.
struct InvariantHook<'a> {
    invariants: &'a [LoopInvariant],
    model: &'a Model,
    params: &'a [Ident],
    values: &'a [Value],
    externs: &'a ExternRegistry,
    checks: usize,
}

impl InvariantHook<'_> {
    fn base_env(&self, inv: &LoopInvariant, world: &mut World) -> Result<Env, String> {
        let mut env = Env::new();
        for (p, v) in self.params.iter().zip(self.values) {
            env.insert(p.clone(), v.clone());
        }
        for (name, def) in &inv.bindings {
            let v = eval(def, &env, &self.model.tables, world)
                .map_err(|e| format!("binding `{name}`: {e}"))?;
            env.insert(name.clone(), v);
        }
        Ok(env)
    }
}

impl LoopHook for InvariantHook<'_> {
    fn at_loop_head(
        &mut self,
        _function: &str,
        cond: &BExpr,
        locals: &Locals,
        mem: &Memory,
    ) -> Result<(), String> {
        for inv in self.invariants {
            // Each invariant belongs to one loop: the one whose condition
            // tests its counter.
            if !cond.vars().iter().any(|v| v == &inv.index_local) {
                continue;
            }
            let Some(&i) = locals.get(&inv.index_local) else { continue };
            let mut world = World { externs: self.externs.clone(), ..World::default() };
            let env = self.base_env(inv, &mut world)?;
            self.checks += 1;
            match &inv.kind {
                LoopInvariantKind::ArrayMapInPlace { ptr_local, elem, x, f, arr } => {
                    let arr_val = eval(arr, &env, &self.model.tables, &mut world)
                        .map_err(|e| format!("invariant array term: {e}"))?;
                    let len = arr_val.list_len().ok_or("invariant array term is not a list")?;
                    if (i as usize) > len {
                        return Err(format!("loop counter {i} exceeds length {len}"));
                    }
                    let mut expected = arr_val.clone();
                    let mut env2 = env.clone();
                    for k in 0..i as usize {
                        let xv = expected
                            .list_get(k)
                            .ok_or_else(|| format!("invariant element {k} out of range"))?;
                        env2.insert(x.clone(), xv);
                        let fx = eval(f, &env2, &self.model.tables, &mut world)
                            .map_err(|e| format!("invariant map body: {e}"))?;
                        expected = put_elem(expected, k, &fx)?;
                    }
                    let base = *locals
                        .get(ptr_local)
                        .ok_or_else(|| format!("no local `{ptr_local}`"))?;
                    let got = mem.region(base).ok_or("array region missing at loop head")?;
                    let want = expected.to_layout_bytes().ok_or("no layout")?;
                    if got != want.as_slice() {
                        return Err(format!(
                            "iteration {i}: memory is {got:?}, invariant predicts map f (first {i} l) ++ skip {i} l = {want:?} ({elem})"
                        ));
                    }
                }
                LoopInvariantKind::ArrayFoldScalar { acc_local, acc, x, f, init, arr, .. } => {
                    let arr_val = eval(arr, &env, &self.model.tables, &mut world)
                        .map_err(|e| format!("invariant array term: {e}"))?;
                    let len = arr_val.list_len().ok_or("invariant array term is not a list")?;
                    if (i as usize) > len {
                        return Err(format!("loop counter {i} exceeds length {len}"));
                    }
                    let mut accv = eval(init, &env, &self.model.tables, &mut world)
                        .map_err(|e| format!("invariant init: {e}"))?;
                    let mut env2 = env.clone();
                    for k in 0..i as usize {
                        env2.insert(acc.clone(), accv);
                        let xv = arr_val
                            .list_get(k)
                            .ok_or_else(|| format!("invariant element {k} out of range"))?;
                        env2.insert(x.clone(), xv);
                        accv = eval(f, &env2, &self.model.tables, &mut world)
                            .map_err(|e| format!("invariant fold body: {e}"))?;
                    }
                    check_scalar_local(locals, acc_local, &accv, i)?;
                }
                LoopInvariantKind::RangeFoldArrayPut { ptr_local, elem, i: iv, acc, f, init, from } => {
                    let lo = eval(from, &env, &self.model.tables, &mut world)
                        .ok()
                        .and_then(|v| v.to_scalar_word())
                        .ok_or("invariant `from` term not scalar")?;
                    let mut expected = eval(init, &env, &self.model.tables, &mut world)
                        .map_err(|e| format!("invariant init: {e}"))?;
                    let mut env2 = env.clone();
                    let mut k = lo;
                    while k < i {
                        env2.insert(iv.clone(), Value::Word(k));
                        env2.insert(acc.clone(), expected);
                        expected = eval(f, &env2, &self.model.tables, &mut world)
                            .map_err(|e| format!("invariant put body: {e}"))?;
                        k += 1;
                    }
                    let base = *locals
                        .get(ptr_local)
                        .ok_or_else(|| format!("no local `{ptr_local}`"))?;
                    let got = mem.region(base).ok_or("array region missing at loop head")?;
                    let want = expected.to_layout_bytes().ok_or("no layout")?;
                    if got != want.as_slice() {
                        return Err(format!(
                            "iteration {i}: memory is {got:?}, invariant predicts fold_range ({lo}) {i} put = {want:?} ({elem})"
                        ));
                    }
                }
                LoopInvariantKind::RangeFoldScalar { acc_local, i: iv, acc, f, init, from } => {
                    let lo = eval(from, &env, &self.model.tables, &mut world)
                        .ok()
                        .and_then(|v| v.to_scalar_word())
                        .ok_or("invariant `from` term not scalar")?;
                    let mut accv = eval(init, &env, &self.model.tables, &mut world)
                        .map_err(|e| format!("invariant init: {e}"))?;
                    let mut env2 = env.clone();
                    let mut k = lo;
                    while k < i {
                        env2.insert(iv.clone(), Value::Word(k));
                        env2.insert(acc.clone(), accv);
                        accv = eval(f, &env2, &self.model.tables, &mut world)
                            .map_err(|e| format!("invariant fold body: {e}"))?;
                        k += 1;
                    }
                    check_scalar_local(locals, acc_local, &accv, i)?;
                }
            }
        }
        Ok(())
    }
}

fn check_scalar_local(locals: &Locals, name: &str, want: &Value, i: u64) -> Result<(), String> {
    let got = *locals.get(name).ok_or_else(|| format!("no local `{name}`"))?;
    let want_w = want
        .to_scalar_word()
        .ok_or_else(|| format!("invariant accumulator for `{name}` is not scalar"))?;
    if got != want_w {
        return Err(format!(
            "iteration {i}: local `{name}` is {got:#x}, invariant predicts {want_w:#x}"
        ));
    }
    Ok(())
}

fn put_elem(v: Value, idx: usize, x: &Value) -> Result<Value, String> {
    match (v, x) {
        (Value::ByteList(mut b), Value::Byte(e)) => {
            b[idx] = *e;
            Ok(Value::ByteList(b))
        }
        (Value::WordList(mut w), Value::Word(e)) => {
            w[idx] = *e;
            Ok(Value::WordList(w))
        }
        _ => Err("invariant map body produced wrong element kind".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::{Derivation, DerivationNode};
    use crate::engine::CompiledFunction;
    use crate::fnspec::{ArgSpec, RetSpec};
    use crate::lemma::HintDbs;
    use rupicola_bedrock::{BFunction, Cmd};
    use rupicola_lang::dsl::*;

    /// A hand-built "compiled function" with correct identity behaviour
    /// passes the checker with an empty-lemma derivation.
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
    fn correct_identity_passes() {
        let report = check(&identity_compiled(), &HintDbs::new()).unwrap();
        assert!(report.vectors_run > 0);
        assert_eq!(report.vectors_skipped, 0);
    }

    #[test]
    fn wrong_code_is_caught() {
        // "id" that zeroes the first byte — differential testing must object.
        let mut cf = identity_compiled();
        cf.function.body = Cmd::if_(
            rupicola_bedrock::BExpr::var("len"),
            Cmd::store(
                rupicola_bedrock::AccessSize::One,
                rupicola_bedrock::BExpr::var("s"),
                rupicola_bedrock::BExpr::lit(0),
            ),
            Cmd::Skip,
        );
        let err = check(&cf, &HintDbs::new()).unwrap_err();
        assert!(matches!(err, CheckError::Mismatch { .. }), "got {err:?}");
    }

    #[test]
    fn oob_code_is_caught() {
        let mut cf = identity_compiled();
        // Unconditional store past the end (faults even on empty arrays).
        cf.function.body = Cmd::store(
            rupicola_bedrock::AccessSize::One,
            rupicola_bedrock::BExpr::op(
                rupicola_bedrock::BinOp::Add,
                rupicola_bedrock::BExpr::var("s"),
                rupicola_bedrock::BExpr::var("len"),
            ),
            rupicola_bedrock::BExpr::lit(0),
        );
        let err = check(&cf, &HintDbs::new()).unwrap_err();
        assert!(matches!(err, CheckError::TargetStuck { .. }), "got {err:?}");
    }

    #[test]
    fn unknown_lemma_is_rejected() {
        let mut cf = identity_compiled();
        cf.derivation = Derivation::new(DerivationNode::leaf("not_a_lemma", "s"));
        let err = check(&cf, &HintDbs::new()).unwrap_err();
        assert_eq!(err, CheckError::UnknownLemma("not_a_lemma".into()));
    }

    #[test]
    fn unsatisfiable_hint_starves_coverage() {
        // Hints are `requires` clauses; one that excludes (almost) every
        // input leaves the checker without evidence and must be rejected.
        let mut cf = identity_compiled();
        cf.spec = cf
            .spec
            .with_hint(crate::goal::Hyp::LtU(array_len_b(var("s")), word_lit(0)));
        let err = check(&cf, &HintDbs::new()).unwrap_err();
        assert!(matches!(err, CheckError::InsufficientCoverage { .. }), "got {err:?}");
    }

    #[test]
    fn unresolvable_side_condition_is_rejected() {
        let mut cf = identity_compiled();
        let mut node = DerivationNode::leaf("done", "s");
        node.side_conds.push(crate::derive::SideCondRecord {
            cond: crate::goal::SideCond::Lt(word_lit(5), word_lit(3)),
            solver: "lia".into(),
            hyps: Vec::new().into(),
        });
        cf.derivation = Derivation::new(node);
        let err = check(&cf, &HintDbs::new()).unwrap_err();
        assert!(matches!(err, CheckError::SideCondition { .. }), "got {err:?}");
    }

    #[test]
    fn trace_unchanged_rejects_interactions() {
        let mut cf = identity_compiled();
        cf.function.body = Cmd::Interact {
            rets: vec![],
            action: "io_write".into(),
            args: vec![rupicola_bedrock::BExpr::lit(1)],
        };
        let err = check(&cf, &HintDbs::new()).unwrap_err();
        assert!(matches!(err, CheckError::Mismatch { .. }), "got {err:?}");
    }
}
