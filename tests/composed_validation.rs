//! Composed translation validation is a shortcut, not a different
//! protocol. For every perf-suite and CT-suite program, validating the
//! composed opt pipeline and the composed RISC-V pipeline once yields the
//! same optimized body, `PipelineReport`, machine artifact and `RvReport`
//! as the step-wise protocol called directly.

use rupicola::analysis::SecrecyPolicy;
use rupicola::core::check::CheckConfig;
use rupicola::core::{compile_with_limits, EngineLimits};
use rupicola::ext::standard_dbs;
use rupicola::opt::{optimize_compiled, optimize_stepwise, PipelineConfig};
use rupicola::programs::parallel::on_deep_stack;
use rupicola::programs::{ct_suite, perf_suite, SuiteEntry};
use rupicola::rv::{lower_stepwise, lower_validated, RvPipelineConfig};

#[test]
fn the_composed_route_matches_the_stepwise_protocol() {
    on_deep_stack(|| {
        let dbs = standard_dbs();
        let config = CheckConfig::default();
        let rv = RvPipelineConfig::full();
        let mut programs: Vec<(SuiteEntry, SecrecyPolicy)> =
            perf_suite().into_iter().map(|e| (e, SecrecyPolicy::default())).collect();
        for e in ct_suite() {
            programs.push((e.entry, SecrecyPolicy::secrets(e.secret_params.iter().copied())));
        }

        let mut rollbacks = 0;
        for (entry, policy) in programs {
            let name = entry.info.name;
            let cf = compile_with_limits(
                &(entry.model)(),
                &(entry.spec)(),
                &dbs,
                (entry.limits)(EngineLimits::default()),
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            let pipeline = PipelineConfig::full().with_ct_policy(policy);

            let mut composed = cf.clone();
            let mut stepwise = cf;
            let report = optimize_compiled(&mut composed, &dbs, &pipeline, &config);
            let expected = optimize_stepwise(&mut stepwise, &dbs, &pipeline, &config);
            assert_eq!(report, expected, "{name}: pipeline reports differ");
            assert_eq!(composed.optimized, stepwise.optimized, "{name}: optimized bodies differ");
            assert_eq!(composed.stats, stepwise.stats, "{name}: opt counters differ");
            rollbacks += report.rolled_back_count();

            let lowered = lower_validated(&composed, &rv, &config);
            assert!(lowered.is_ok(), "{name}: {lowered:?}");
            assert_eq!(
                lowered,
                lower_stepwise(&stepwise, &rv, &config),
                "{name}: RISC-V routes differ"
            );
        }
        assert!(rollbacks > 0, "no program exercised the fallback");
    });
}
