//! Fault localization of the composed route. A seeded lowering mutant,
//! placed at its position in the stage pipeline, must fail the composed
//! check; the step-wise fallback must then roll back exactly that stage,
//! and every other stage must report what it reports in the healthy run.

use super::*;
use crate::mutants::LowerMutant;
use rupicola_programs::parallel::on_deep_stack;
use rupicola_programs::{ct_suite, perf_suite};

/// Inserts a stage labelled `label` at index `at` of the full pipeline
/// whose output is `mutant` of its input, and checks the localization
/// property. Returns `false` when the mutant has no site in the stage's
/// input, or no input observes it there.
fn localizes(
    name: &str,
    cf: &CompiledFunction,
    at: usize,
    label: RvStageId,
    mutant: LowerMutant,
) -> bool {
    let config = CheckConfig::default();
    let full = RvPipelineConfig::full();

    // The artifact the healthy pipeline hands to stage `at`.
    let prefix = RvPipelineConfig { stages: full.stages[..at].to_vec() };
    let (input, _) = lower_validated(cf, &prefix, &config).expect("the baseline lowers");
    let Some(broken) = mutant.apply(&input) else {
        return false;
    };
    if validate_artifact(cf, &broken, &config).is_ok() {
        // A mutant no input observes survives on its own; there is no
        // failure to localize.
        return false;
    }
    let healthy = lower_validated(cf, &full, &config).expect("the baseline lowers");

    let mut stages = full.stages.clone();
    stages.insert(at, label);
    let run = |i: usize, current: &RvArtifact| {
        if i == at {
            Ok(mutant.apply(current).unwrap_or_else(|| current.clone()))
        } else {
            apply_stage(stages[i], cf, current)
        }
    };

    // The composed check rejects the pipeline's end product.
    let (composed, _) = lower_along(cf, &stages, &config, &run, |c, start, _| {
        chain::stepwise(c, start, &|_| Ok(()))
    })
    .expect("the baseline lowers");
    assert!(
        validate_artifact(cf, &composed, &config).is_err(),
        "{name}: composed check accepted {} at stage {at}",
        mutant.name()
    );

    // The fallback rolls back exactly the injected stage.
    let (artifact, report) =
        lower_along(cf, &stages, &config, &run, chain::composed).expect("the baseline lowers");
    let bad = &report.stages[at + 1];
    assert!(
        !bad.applied && bad.rolled_back.is_some(),
        "{name}: injected {} not rolled back:\n{report}",
        mutant.name()
    );
    let mut others = report.stages.clone();
    others.remove(at + 1);
    assert_eq!(others, healthy.1.stages, "{name}: a healthy stage's report moved");
    assert_eq!(artifact, healthy.0, "{name}: the artifact moved");
    true
}

#[test]
fn lowering_mutants_are_localized_to_their_stage() {
    on_deep_stack(|| {
        let mut programs = Vec::new();
        for e in perf_suite() {
            programs.push((e.info.name, (e.compiled)().expect("suite compiles")));
        }
        for e in ct_suite() {
            programs.push((e.entry.info.name, (e.entry.compiled)().expect("CT suite compiles")));
        }
        for mutant in LowerMutant::ALL {
            // The stage whose bug the mutant models, placed after it and
            // after every later stage that rewrites the mutant's site:
            // register allocation re-lowers the certified body (discarding
            // an earlier lowering bug), and `addi` folding can rewrite the
            // instruction a skewed branch skips. Upstream of those, the
            // composed artifact is healthy and rightly accepted.
            let (at, label) = match mutant {
                LowerMutant::WrongWidthLoad | LowerMutant::ClobberCalleeSaved => {
                    (1, RvStageId::RegAlloc)
                }
                LowerMutant::DroppedSpill => (2, RvStageId::RedundantMem),
                LowerMutant::OffByOneBranch => (4, RvStageId::BranchSimplify),
            };
            let fired =
                programs.iter().filter(|(name, cf)| localizes(name, cf, at, label, mutant)).count();
            assert!(fired > 0, "{} fired on no program", mutant.name());
        }
    });
}
