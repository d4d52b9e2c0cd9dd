//! `cold_compile`: every program of the perf and constant-time suites
//! through the full certified route, in a seeded order, one client, no
//! store.
//!
//! Route per program: `compile_with_limits` → `check_with` →
//! `analyze_with_dbs` → `ct::run` → `optimize_compiled` (full pipeline
//! under the program's secrecy policy) → `lower_validated` (full RISC-V
//! pipeline). The oracle (untimed) requires an Ok checker verdict and
//! requires the optimized body and the RISC-V artifact to agree with the
//! program's handwritten reference on seeded inputs.

use std::collections::BTreeMap;
use std::time::Instant;

use rupicola_analysis::{analyze_with_dbs, ct, SecrecyPolicy};
use rupicola_core::check::{check_with, CheckConfig};
use rupicola_core::fnspec::FnSpec;
use rupicola_core::{compile_with_limits, EngineLimits, HintDbs};
use rupicola_ext::standard_dbs;
use rupicola_lang::Model;
use rupicola_opt::{optimize_compiled, PipelineConfig};
use rupicola_programs::{ct_suite, perf_suite, SuiteEntry};
use rupicola_rv::{lower_validated, RvPipelineConfig};

use crate::calib::Calibrator;
use crate::oracle::{self, Case};
use crate::stats::{geomean, median, ratio, Rng};
use crate::trace::{Recorder, SpanId};
use crate::{E2e, Outcome};

/// Seeded oracle inputs per program.
const CASES_PER_PROGRAM: usize = 3;

/// The route stages, in order, with the layer name their spans carry.
const STAGES: [&str; 6] = [
    "core.search",
    "core.check",
    "analysis.lint",
    "analysis.ct",
    "opt",
    "rv",
];

struct Prog {
    name: &'static str,
    model: Model,
    spec: FnSpec,
    limits: EngineLimits,
    policy: SecrecyPolicy,
    pipeline: PipelineConfig,
    cases: Vec<Case>,
    /// Certified statements, as of the latest route.
    statements: usize,
}

/// Everything the timed loop needs, built during set-up.
pub struct Setup {
    progs: Vec<Prog>,
    dbs: HintDbs,
    check: CheckConfig,
    rv: RvPipelineConfig,
    rng: Rng,
}

/// Counts read from the reports one route returns.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    lemma_applications: usize,
    side_conditions: usize,
    solver_cache_hits: usize,
    solver_cache_lookups: usize,
    vectors_run: usize,
    vectors_skipped: usize,
    lint_errors: usize,
    opt_candidates: usize,
    opt_applied: usize,
    opt_rolled_back: usize,
    opt_sites: usize,
    rv_instrs_after: usize,
    rv_rolled_back: usize,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.lemma_applications += o.lemma_applications;
        self.side_conditions += o.side_conditions;
        self.solver_cache_hits += o.solver_cache_hits;
        self.solver_cache_lookups += o.solver_cache_lookups;
        self.vectors_run += o.vectors_run;
        self.vectors_skipped += o.vectors_skipped;
        self.lint_errors += o.lint_errors;
        self.opt_candidates += o.opt_candidates;
        self.opt_applied += o.opt_applied;
        self.opt_rolled_back += o.opt_rolled_back;
        self.opt_sites += o.opt_sites;
        self.rv_instrs_after += o.rv_instrs_after;
        self.rv_rolled_back += o.rv_rolled_back;
    }
}

/// One program's trip through the route.
struct Route {
    nanos: u64,
    statements: usize,
    counts: Counts,
    error: Option<String>,
}

/// One suite iteration.
struct Iteration {
    traced: bool,
    /// `(program index, route nanos)` in execution order.
    routes: Vec<(usize, u64)>,
    statements: usize,
    counts: Counts,
}

fn prog(entry: &SuiteEntry, policy: SecrecyPolicy, rng: &mut Rng) -> Result<Prog, String> {
    let name = entry.info.name;
    let cases = (0..CASES_PER_PROGRAM)
        .map(|_| oracle::case(name, rng).ok_or_else(|| format!("no oracle for `{name}`")))
        .collect::<Result<_, _>>()?;
    Ok(Prog {
        name,
        model: (entry.model)(),
        spec: (entry.spec)(),
        limits: (entry.limits)(EngineLimits::default()),
        pipeline: PipelineConfig::full().with_ct_policy(policy.clone()),
        policy,
        cases,
        statements: 0,
    })
}

/// Builds the programs, their oracle inputs and the engine state, then
/// runs one untimed warm-up iteration (interner and allocator warm-up). A
/// failure there recurs, and is counted, in the timed iterations.
///
/// # Errors
///
/// A program the oracle has no reference for.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let mut rng = Rng::new(seed, 0xC01D);
    let mut progs = Vec::new();
    for entry in perf_suite() {
        progs.push(prog(&entry, SecrecyPolicy::default(), &mut rng)?);
    }
    for e in ct_suite() {
        progs.push(prog(
            &e.entry,
            SecrecyPolicy::secrets(e.secret_params.iter().copied()),
            &mut rng,
        )?);
    }
    let mut setup = Setup {
        progs,
        dbs: standard_dbs(),
        check: CheckConfig::default(),
        rv: RvPipelineConfig::full(),
        rng,
    };
    iteration(&mut setup, &mut Recorder::new(Instant::now()), &mut 0);
    Ok(setup)
}

fn route(s: &Setup, p: &Prog, rec: &mut Recorder, parent: Option<SpanId>, request: u64) -> Route {
    let mut marks = [Instant::now(); STAGES.len() + 1];
    let mut counts = Counts::default();
    let error;
    let mut statements = 0;
    let compiled = compile_with_limits(&p.model, &p.spec, &s.dbs, p.limits);
    marks[1] = Instant::now();
    let mut stages_run = 1;
    match compiled {
        Err(e) => error = Some(format!("compile: {e}")),
        Ok(mut cf) => {
            let verdict = check_with(&cf, &s.dbs, &s.check);
            marks[2] = Instant::now();
            let lint = analyze_with_dbs(&cf, Some(&s.dbs));
            marks[3] = Instant::now();
            let ct_findings = ct::run(&cf, &p.policy);
            marks[4] = Instant::now();
            let opt = optimize_compiled(&mut cf, &s.dbs, &p.pipeline, &s.check);
            marks[5] = Instant::now();
            let lowered = lower_validated(&cf, &s.rv, &s.check);
            marks[6] = Instant::now();
            stages_run = STAGES.len();
            std::hint::black_box(&ct_findings);

            statements = cf.function.statement_count();
            counts.lemma_applications = cf.stats.lemma_applications;
            counts.side_conditions = cf.stats.side_conditions;
            counts.solver_cache_hits = cf.stats.solver_cache_hits;
            counts.solver_cache_lookups = cf.stats.solver_cache_hits + cf.stats.solver_cache_misses;
            counts.lint_errors = lint.errors().count();
            counts.opt_candidates = opt
                .passes
                .iter()
                .filter(|r| r.applied || r.rolled_back.is_some())
                .count();
            counts.opt_applied = opt.applied_count();
            counts.opt_rolled_back = opt.rolled_back_count();
            counts.opt_sites = opt.sites_rewritten();

            // The oracle, outside the route's timed span.
            let body = cf.optimized.as_ref().unwrap_or(&cf.function);
            let checked = match &verdict {
                Ok(report) => {
                    counts.vectors_run = report.vectors_run;
                    counts.vectors_skipped = report.vectors_skipped;
                    oracle::check_body(&cf, body, &p.cases)
                }
                Err(e) => Err(format!("checker: {e}")),
            };
            let checked = checked.and_then(|()| match &lowered {
                Ok((artifact, report)) => {
                    counts.rv_instrs_after = report.stages.last().map_or(0, |st| st.instrs_after);
                    counts.rv_rolled_back = report.rolled_back_count();
                    oracle::check_rv(&cf, artifact, &p.cases)
                }
                Err(e) => Err(format!("rv: {e}")),
            });
            error = checked.err();
        }
    }
    let end = marks[stages_run];
    let span = rec.record("route", p.name, marks[0], end, parent, request);
    for (i, layer) in STAGES.iter().enumerate().take(stages_run) {
        rec.record(layer, p.name, marks[i], marks[i + 1], span, request);
    }
    let nanos = u64::try_from(end.duration_since(marks[0]).as_nanos()).unwrap_or(u64::MAX);
    Route {
        nanos,
        statements,
        counts,
        error,
    }
}

fn iteration(s: &mut Setup, rec: &mut Recorder, request: &mut u64) -> (Iteration, Vec<String>) {
    let mut order: Vec<usize> = (0..s.progs.len()).collect();
    s.rng.shuffle(&mut order);
    let t0 = Instant::now();
    let suite_request = *request;
    *request += 1;
    let mut it = Iteration {
        traced: rec.enabled(),
        routes: Vec::with_capacity(order.len()),
        statements: 0,
        counts: Counts::default(),
    };
    let mut errors = Vec::new();
    let suite = rec.open("suite", "", t0, None, suite_request);
    for &i in &order {
        let r = route(s, &s.progs[i], rec, suite, *request);
        *request += 1;
        s.progs[i].statements = r.statements;
        it.routes.push((i, r.nanos));
        it.statements += r.statements;
        it.counts.add(&r.counts);
        if let Some(e) = r.error {
            errors.push(format!("{}: {e}", s.progs[i].name));
        }
    }
    rec.close(suite, Instant::now());
    (it, errors)
}

fn e2e(iters: &[&Iteration], progs: &[Prog]) -> E2e {
    let throughput: Vec<f64> = iters
        .iter()
        .map(|it| {
            let secs = it.routes.iter().map(|&(_, ns)| ns as f64).sum::<f64>() / 1e9;
            it.statements as f64 / secs
        })
        .collect();
    let mut per_prog: Vec<Vec<f64>> = vec![Vec::new(); progs.len()];
    for it in iters {
        for &(i, ns) in &it.routes {
            per_prog[i].push(ns as f64 / 1e6);
        }
    }
    let medians: Vec<f64> = per_prog.iter().map(|v| median(v)).collect();
    // The large-function path: the program with the most statements.
    let largest = (0..progs.len())
        .max_by_key(|&i| progs[i].statements)
        .unwrap_or(0);
    E2e {
        throughput_per_s: median(&throughput),
        latency_ms: geomean(&medians),
        slow_path_ms: medians[largest],
    }
}

/// Runs the timed loop for `seconds`. Between iterations the calibration
/// kernel runs every [`crate::calib::EVERY_MS`]. In a traced run, iterations
/// alternate between untraced and traced.
pub fn run(
    mut s: Setup,
    seconds: f64,
    trace: bool,
    rec: &mut Recorder,
    cal: &mut Calibrator,
) -> Outcome {
    let mut iters = Vec::new();
    let mut outcome = Outcome::default();
    let mut request = 0;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        rec.set_enabled(trace && iters.len() % 2 == 1);
        let (it, errors) = iteration(&mut s, rec, &mut request);
        outcome.attempted += it.routes.len() as u64;
        outcome.failed += errors.len() as u64;
        outcome.errors.extend(errors);
        iters.push(it);
        cal.tick();
    }
    rec.set_enabled(false);
    let untraced: Vec<&Iteration> = iters.iter().filter(|it| !it.traced).collect();
    let traced: Vec<&Iteration> = iters.iter().filter(|it| it.traced).collect();
    outcome.e2e = e2e(&untraced, &s.progs);
    outcome.notes.push(format!(
        "cold_compile: {} iterations of {} programs; compile_stmts_per_s {:.1}, \
         compile_ms_geomean {:.3}, largest-program route {:.3} ms",
        untraced.len(),
        s.progs.len(),
        outcome.e2e.throughput_per_s,
        outcome.e2e.latency_ms,
        outcome.e2e.slow_path_ms
    ));
    if !trace {
        return outcome;
    }
    outcome.traced_e2e = Some(e2e(&traced, &s.progs));
    let n = traced.len().max(1) as f64;
    let by_layer = rec.self_time_by_layer();
    let layers = &mut outcome.layers;
    for layer in STAGES {
        let ns = by_layer.get(layer).copied().unwrap_or(0) as f64;
        layers.insert(format!("{layer}.ms"), ns / n / 1e6);
    }
    // Counts are exact per iteration; report the traced iterations' mean.
    let mut c = Counts::default();
    for it in &traced {
        c.add(&it.counts);
    }
    let per = |v: usize| v as f64 / n;
    layers.insert(
        "core.search.lemma_applications".into(),
        per(c.lemma_applications),
    );
    layers.insert("core.search.side_conditions".into(), per(c.side_conditions));
    layers.insert(
        "core.search.solver_cache_hit_ratio".into(),
        ratio(c.solver_cache_hits as f64, c.solver_cache_lookups as f64),
    );
    layers.insert("core.check.vectors_run".into(), per(c.vectors_run));
    layers.insert("core.check.vectors_skipped".into(), per(c.vectors_skipped));
    layers.insert("analysis.lint.errors".into(), per(c.lint_errors));
    layers.insert("opt.candidates".into(), per(c.opt_candidates));
    layers.insert("opt.applied".into(), per(c.opt_applied));
    layers.insert("opt.rolled_back".into(), per(c.opt_rolled_back));
    layers.insert("opt.sites_rewritten".into(), per(c.opt_sites));
    layers.insert(
        "opt.useful_ratio".into(),
        ratio(c.opt_applied as f64, c.opt_candidates as f64),
    );
    layers.insert("rv.instrs_after".into(), per(c.rv_instrs_after));
    layers.insert("rv.rolled_back".into(), per(c.rv_rolled_back));
    // Per-program rows: median route span per program.
    let mut per_prog: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for span in rec.spans().iter().filter(|sp| sp.layer == "route") {
        per_prog
            .entry(span.item)
            .or_default()
            .push((span.end - span.start) as f64 / 1e6);
    }
    for p in &s.progs {
        let v = per_prog.get(p.name).map_or(0.0, |v| median(v));
        layers.insert(format!("prog.{}.ms", p.name), v);
    }
    outcome
}
