//! Determinism of the suite-parallel compilation driver.
//!
//! `compile_suite_parallel` runs on the work-stealing scheduler, which keys
//! results by job index, so output order is suite order no matter how the
//! OS schedules the workers. These tests pin the stronger claim the
//! throughput layer rests on: the *contents* are byte-identical run to run
//! and identical to a one-worker run's — same C rendering, same witness
//! node counts, same compile stats.

use rupicola::bedrock::cprint::function_to_c;
use rupicola::core::EngineLimits;
use rupicola::ext::standard_dbs;
use rupicola::programs::suite;
use rupicola::{compile_entries, compile_suite_parallel};

#[test]
fn parallel_runs_are_byte_identical_across_invocations() {
    let dbs = standard_dbs();
    let first = compile_suite_parallel(&dbs);
    let second = compile_suite_parallel(&dbs);
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(second.iter()) {
        assert_eq!(a.name, b.name, "suite order must be deterministic");
        let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(
            function_to_c(&a.function),
            function_to_c(&b.function),
            "{}: C output differs between two parallel runs",
            a.function.name
        );
        assert_eq!(a.derivation.node_count, b.derivation.node_count);
        assert_eq!(a.derivation, b.derivation);
    }
}

#[test]
fn parallel_matches_serial_byte_for_byte() {
    let dbs = standard_dbs();
    let serial = compile_entries(&suite(), &dbs, &EngineLimits::default(), 1);
    let parallel = compile_suite_parallel(&dbs);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.name, p.name, "suite order must match");
        let (s, p) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert_eq!(
            function_to_c(&s.function),
            function_to_c(&p.function),
            "{}: C output differs between one worker and many",
            s.function.name
        );
        assert_eq!(s.function, p.function);
        assert_eq!(s.derivation.node_count, p.derivation.node_count);
        assert_eq!(s.derivation, p.derivation);
        assert_eq!(
            (s.stats.solver_cache_hits, s.stats.solver_cache_misses),
            (p.stats.solver_cache_hits, p.stats.solver_cache_misses),
            "{}: per-program cache stats must not depend on the driver",
            s.function.name
        );
    }
}
