//! Fault localization of the composed route. A seeded bad step, placed at
//! its position in the pipeline, must fail the composed check; the
//! step-wise fallback must then roll back exactly that step, and every
//! other step must report what it reports in the healthy run.

use super::*;
use crate::mutants::{CtPassMutant, PassMutant};
use rupicola_core::{compile_with_limits, EngineLimits};
use rupicola_ext::standard_dbs;
use rupicola_programs::parallel::on_deep_stack;
use rupicola_programs::{ct_suite, ctmutants, perf_suite, SuiteEntry};

struct Program {
    name: &'static str,
    cf: CompiledFunction,
    pipeline: PipelineConfig,
}

fn program(entry: &SuiteEntry, policy: SecrecyPolicy, dbs: &HintDbs) -> Program {
    let cf = compile_with_limits(
        &(entry.model)(),
        &(entry.spec)(),
        dbs,
        (entry.limits)(EngineLimits::default()),
    )
    .expect("suite program compiles");
    Program { name: entry.info.name, cf, pipeline: PipelineConfig::full().with_ct_policy(policy) }
}

/// Inserts a step labelled `label` at index `at` of `p`'s pipeline whose
/// output is `mutate` of its input, and checks the localization property.
/// Returns `false` when the mutant has no site in the step's input.
fn localizes(
    p: &Program,
    dbs: &HintDbs,
    at: usize,
    label: PassId,
    mutate: &dyn Fn(&BFunction) -> Option<BFunction>,
) -> bool {
    let config = CheckConfig::default();

    // The body the healthy pipeline hands to step `at`.
    let mut prefix_cf = p.cf.clone();
    let prefix = PipelineConfig { passes: p.pipeline.passes[..at].to_vec(), ..p.pipeline.clone() };
    optimize_compiled(&mut prefix_cf, dbs, &prefix, &config);
    let input = prefix_cf.optimized.unwrap_or_else(|| p.cf.function.clone());
    if mutate(&input).is_none() {
        return false;
    }

    let mut healthy_cf = p.cf.clone();
    let healthy = optimize_compiled(&mut healthy_cf, dbs, &p.pipeline, &config);

    let mut passes = p.pipeline.passes.clone();
    passes.insert(at, label);
    let injected = PipelineConfig { passes, ..p.pipeline.clone() };
    let run = |i: usize, f: &BFunction| {
        if i != at {
            return run_pass(injected.passes[i], f);
        }
        match mutate(f) {
            Some(function) => PassOutcome { function, sites_rewritten: 1, facts_consumed: 0 },
            None => PassOutcome { function: f.clone(), sites_rewritten: 0, facts_consumed: 0 },
        }
    };

    // The composed check rejects the pipeline's end product.
    let mut composed = p.cf.clone();
    optimize_along(&mut composed, dbs, &injected, &config, &run, |c, start, _| {
        chain::stepwise(c, start, &|_| Ok(()))
    });
    let body = composed.optimized.unwrap_or_else(|| p.cf.function.clone());
    let verdict =
        validate_candidate_with_policy(&p.cf, &body, dbs, &config, injected.ct_policy.as_ref());
    assert!(verdict.is_err(), "{}: composed check accepted a mutant at step {at}", p.name);

    // The fallback rolls back exactly the injected step.
    let mut cf = p.cf.clone();
    let report = optimize_along(&mut cf, dbs, &injected, &config, &run, chain::composed);
    let bad = &report.passes[at];
    assert!(
        !bad.applied && bad.rolled_back.is_some(),
        "{}: injected step {at} not rolled back:\n{report}",
        p.name
    );
    let mut others = report.passes.clone();
    others.remove(at);
    assert_eq!(others, healthy.passes, "{}: a healthy step's report moved", p.name);
    assert_eq!(cf.optimized, healthy_cf.optimized, "{}: optimized body moved", p.name);
    true
}

#[test]
fn pass_mutants_are_localized_to_their_step() {
    on_deep_stack(|| {
        let dbs = standard_dbs();
        let programs: Vec<Program> =
            perf_suite().iter().map(|e| program(e, SecrecyPolicy::default(), &dbs)).collect();
        for mutant in PassMutant::ALL {
            let pass = match mutant {
                PassMutant::WrongShift => PassId::StrengthReduce,
                PassMutant::SubstMultiUse => PassId::CopyProp,
                PassMutant::DropLiveStore => PassId::DeadStore,
                PassMutant::CseWrongWidth => PassId::LoadCse,
            };
            // The broken pass runs in its healthy twin's slot, just before it.
            let at = PassId::ALL.iter().position(|p| *p == pass).expect("a default pass");
            let fired = programs
                .iter()
                .filter(|p| localizes(p, &dbs, at, pass, &|f| mutant.apply(f)))
                .count();
            assert!(fired > 0, "{} fired on no program", mutant.name());
        }
    });
}

#[test]
fn ct_mutants_are_localized_to_their_step() {
    on_deep_stack(|| {
        let dbs = standard_dbs();
        let programs: Vec<Program> = ct_suite()
            .iter()
            .map(|e| {
                program(&e.entry, SecrecyPolicy::secrets(e.secret_params.iter().copied()), &dbs)
            })
            .collect();
        for at in 0..=PassId::ALL.len() {
            let fired = programs
                .iter()
                .filter(|p| {
                    localizes(p, &dbs, at, PassId::ConstFold, &|f| {
                        CtPassMutant::IfConvertBackwards.apply(f)
                    })
                })
                .count();
            assert!(fired > 0, "the if-conversion mutant fired on no program at step {at}");
        }
        // The hand-written leaky bodies, swapped in as a first step.
        for mutant in ctmutants::all() {
            let p = programs.iter().find(|p| p.name == mutant.program).expect("a CT program");
            assert!(
                localizes(p, &dbs, 0, PassId::ConstFold, &|f| Some((mutant.build)(f))),
                "{} changed nothing",
                mutant.name
            );
        }
    });
}
