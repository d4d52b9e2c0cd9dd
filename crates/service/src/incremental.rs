//! The incremental suite driver: resolve every entry through the store —
//! verified load first, compile only on a miss, file the fresh result
//! back — on the work-stealing scheduler.
//!
//! There is no resolve logic here: each entry goes through
//! [`resolve_one`], the same routine the concurrent server runs per job,
//! scheduled by [`run_work_stealing`]. A fully warm run therefore performs
//! **zero** engine derivations — every program is served from disk after
//! passing the verified-load ladder — while a cold or partially-stale run
//! compiles exactly the entries the store could not serve.
//!
//! Results come back in entry order regardless of which side (store or
//! compiler) produced them, so downstream consumers (`table2`, `lint`,
//! `validate`, the benches) can swap this in for the parallel driver
//! without re-sorting.

use crate::server::resolve_one;
use crate::shard::ShardedStore;
use crate::store::{store_root_from_env, CacheStats};
use rupicola_core::{CompileError, CompiledFunction, EngineLimits, HintDbs};
use rupicola_programs::parallel::{default_workers, run_work_stealing};
use rupicola_programs::{suite, SuiteEntry};

/// How one suite program was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Served from the store after a verified load.
    Cache,
    /// Freshly compiled (store miss or eviction).
    Compiled,
}

/// One suite program's outcome, tagged with where it came from.
#[derive(Debug)]
pub struct CachedResult {
    /// Program name.
    pub name: &'static str,
    /// Compilation (or verified-load) outcome.
    pub result: Result<CompiledFunction, CompileError>,
    /// Cache or fresh compile.
    pub provenance: Provenance,
}

/// Compiles the whole suite through `store`, recompiling only what the
/// store could not serve. Fresh results are written back; write failures
/// are non-fatal (the result is still returned, the next run just misses).
pub fn compile_suite_cached(store: &ShardedStore, dbs: &HintDbs) -> Vec<CachedResult> {
    compile_programs_cached(&suite(), store, dbs)
}

/// [`compile_suite_cached`] over an arbitrary entry subset: one
/// [`resolve_one`] per entry under default engine limits, on
/// [`default_workers`] work-stealing workers.
pub fn compile_programs_cached(
    entries: &[SuiteEntry],
    store: &ShardedStore,
    dbs: &HintDbs,
) -> Vec<CachedResult> {
    let limits = EngineLimits::default();
    run_work_stealing(entries.len(), default_workers(), |i| {
        resolve_one(store, &entries[i], dbs, &limits)
    })
}

/// Harness-binary convenience: opens the environment-resolved store
/// (`$SERVICE_STORE`, default `results/store`) as one shard, runs the
/// cached suite pass, and returns the results together with the store's
/// counters. Prints the error and exits 2 if the store cannot be opened —
/// for the `table2`/`lint`/`validate`-style binaries whose other failure
/// paths already exit nonzero.
pub fn suite_via_store(dbs: &HintDbs) -> (Vec<CachedResult>, CacheStats) {
    let store = store_root_from_env()
        .and_then(|root| ShardedStore::open(root, 1))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    let results = compile_suite_cached(&store, dbs);
    (results, store.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_ext::standard_dbs;

    #[test]
    fn cold_then_warm_run_serves_everything_from_cache() {
        let root = std::env::temp_dir()
            .join(format!("rupicola-incremental-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ShardedStore::open(&root, 1).unwrap();
        let dbs = standard_dbs();

        let cold = compile_suite_cached(&store, &dbs);
        assert_eq!(cold.len(), 7);
        assert!(cold.iter().all(|r| r.provenance == Provenance::Compiled));
        assert!(cold.iter().all(|r| r.result.is_ok()));
        assert_eq!(store.stats().stores, 7);

        let warm = compile_suite_cached(&store, &dbs);
        assert!(warm.iter().all(|r| r.provenance == Provenance::Cache), "{warm:?}");
        assert_eq!(store.stats().hits, 7);
        for (c, w) in cold.iter().zip(warm.iter()) {
            assert_eq!(c.name, w.name);
            let (c, w) = (c.result.as_ref().unwrap(), w.result.as_ref().unwrap());
            assert_eq!(c.function, w.function);
            assert_eq!(c.derivation, w.derivation);
            assert_eq!(c.stats, w.stats);
            // The store keys under the full pipeline by default, so warm
            // runs serve the same (re-validated) optimized body the cold
            // run produced.
            assert_eq!(c.optimized, w.optimized);
        }
        assert!(
            cold.iter()
                .filter(|r| r.result.as_ref().is_ok_and(|cf| cf.optimized.is_some()))
                .count()
                >= 3,
            "the default pipeline should optimize several suite programs"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
