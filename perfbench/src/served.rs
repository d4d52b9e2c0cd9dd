//! `served_mix`: one closed-loop client sends seeded batches of mixed
//! tenants to a one-worker `Server` over a one-shard `ShardedStore` on the
//! filesystem backend, keyed under the full optimization pipeline.
//!
//! The store is warmed during set-up. Before each batch the client deletes
//! the artifact of the batch's cold programs (about one request in ten), so
//! those requests compile, optimize and put while the others are verified
//! loads. The oracle compares every answer (function, derivation and
//! optimized body) with a fault-free compile made during set-up, and re-runs
//! the checker on every cold answer and on a seeded sample of warm ones.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use rupicola_core::check::{check_with, CheckConfig};
use rupicola_core::{compile_with_limits, CompiledFunction, EngineLimits, HintDbs};
use rupicola_ext::standard_dbs;
use rupicola_opt::{optimize_compiled, PipelineConfig};
use rupicola_programs::suite;
use rupicola_service::{
    CompileJob, FsBackend, JobOutcome, JobResponse, Server, ShardedStore, TenantStats, TenantTable,
};

use crate::calib::Calibrator;
use crate::stats::{geomean, median, quantile, ratio, Rng};
use crate::trace::Recorder;
use crate::{E2e, Outcome, RUN_DIR};

const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Smallest and largest batch.
const BATCH: (usize, usize) = (10, 30);

/// One warm answer in this many is re-checked by the client.
const WARM_RECHECK: usize = 16;

/// Seed of the untimed warm-up batch. Which programs a batch compiles cold
/// sets most of its cost, so a seeded warm-up batch made set-up time vary
/// with `--seed` by up to 2x; a fixed one makes it the same for every seed.
const WARMUP_SEED: u64 = 0;

/// Scheduler width. One worker runs every job on the calling thread. With
/// two workers on a two-vCPU host the run-to-run spread of every timed
/// figure was 0.33–0.38 (ten seeds), above any bound the benchmark may
/// declare, and `run_work_stealing` deadlocked once: a worker holds its own
/// queue's lock while it locks a peer's to steal (see README.md).
const WORKERS: usize = 1;

/// Everything the timed loop needs, built during set-up.
pub struct Setup {
    server: Server,
    dbs: HintDbs,
    check: CheckConfig,
    names: Vec<&'static str>,
    reference: BTreeMap<&'static str, CompiledFunction>,
    artifact: BTreeMap<&'static str, PathBuf>,
    rng: Rng,
    /// Declared last, so the server closes its store before it goes.
    _root: StoreRoot,
}

/// The store's directory, private to this process and removed on drop.
struct StoreRoot(PathBuf);

impl StoreRoot {
    fn fresh() -> Result<StoreRoot, String> {
        let path = PathBuf::from(RUN_DIR).join(format!("served-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(StoreRoot(path))
    }
}

impl Drop for StoreRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One batch: the requests, which are cold, and the programs to expire.
struct Batch {
    jobs: Vec<CompileJob>,
    cold: Vec<bool>,
    churn: Vec<&'static str>,
}

/// What one batch measured.
struct BatchSample {
    traced: bool,
    nanos: u64,
    requests: Vec<Request>,
    /// Change of every [`COUNTERS`] entry across the batch.
    counters: [u128; COUNTERS.len()],
}

/// What one request measured.
struct Request {
    cold: bool,
    /// Index of the program in [`Setup::names`].
    program: usize,
    /// From the start of `run_batch` to the request's completion (ms).
    latency_ms: f64,
    /// From the previous request's completion to this one's (ms).
    service_ms: f64,
}

/// Cumulative store and tenant counters, read around every batch.
const COUNTERS: [&str; 9] = [
    "service.store.hits",
    "service.store.misses",
    "service.store.evictions",
    "service.store.stores",
    "service.store.retries",
    "unavailable",
    "verify_nanos",
    "service.tenant.rejected",
    "service.tenant.completed_err",
];

fn counters(server: &Server) -> [u128; COUNTERS.len()] {
    let st = server.store().stats();
    let tenants = server.tenant_stats();
    let sum = |f: fn(&TenantStats) -> usize| tenants.values().map(f).sum::<usize>() as u128;
    [
        st.hits as u128,
        st.misses as u128,
        st.evictions as u128,
        st.stores as u128,
        u128::from(st.retries),
        st.unavailable as u128,
        st.verify_nanos,
        sum(|t| t.rejected),
        sum(|t| t.completed_err),
    ]
}

fn next_batch(rng: &mut Rng, names: &[&'static str]) -> Batch {
    let size = BATCH.0 + rng.below(BATCH.1 - BATCH.0 + 1);
    let ncold = size.div_ceil(10).min(names.len() - 1);
    let mut pool = names.to_vec();
    rng.shuffle(&mut pool);
    let (churn, warm) = pool.split_at(ncold);
    let mut cold = vec![false; size];
    let mut slots: Vec<usize> = (0..size).collect();
    rng.shuffle(&mut slots);
    let mut program = vec![""; size];
    for (&slot, &name) in slots.iter().zip(churn) {
        cold[slot] = true;
        program[slot] = name;
    }
    let jobs = program
        .into_iter()
        .map(|p| {
            let p = if p.is_empty() {
                warm[rng.below(warm.len())]
            } else {
                p
            };
            CompileJob::named(p).tenant(TENANTS[rng.below(TENANTS.len())])
        })
        .collect();
    Batch {
        jobs,
        cold,
        churn: churn.to_vec(),
    }
}

/// Checks one response against the reference; `recheck` re-runs the
/// checker on the answer.
fn verify(s: &Setup, r: &JobResponse, recheck: bool) -> Result<(), String> {
    let JobOutcome::Done(result) = &r.outcome else {
        return Err(format!("{}: not served: {:?}", r.program, r.outcome));
    };
    let cf = result
        .result
        .as_ref()
        .map_err(|e| format!("{}: {e}", r.program))?;
    let want = &s.reference[result.name];
    if cf.function != want.function {
        return Err(format!(
            "{}: function differs from the reference",
            r.program
        ));
    }
    if cf.derivation != want.derivation {
        return Err(format!(
            "{}: derivation differs from the reference",
            r.program
        ));
    }
    if cf.optimized != want.optimized {
        return Err(format!(
            "{}: optimized body differs from the reference",
            r.program
        ));
    }
    if recheck {
        check_with(cf, &s.dbs, &s.check).map_err(|e| format!("{}: checker: {e}", r.program))?;
    }
    Ok(())
}

/// Makes the reference compiles, opens and warms the store, and runs one
/// untimed warm-up batch, the same for every seed. A wrong answer during
/// warm-up recurs, and is counted, in the timed batches.
///
/// # Errors
///
/// A reference compile failing (the oracle needs it), or the store.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let dbs = standard_dbs();
    let check = CheckConfig::default();
    let limits = EngineLimits::default();
    let pipeline = PipelineConfig::full();
    let entries = suite();
    let mut reference = BTreeMap::new();
    for e in &entries {
        let mut cf = compile_with_limits(&(e.model)(), &(e.spec)(), &dbs, limits)
            .map_err(|err| format!("reference compile of {}: {err}", e.info.name))?;
        optimize_compiled(&mut cf, &dbs, &pipeline, &check);
        reference.insert(e.info.name, cf);
    }
    let root = StoreRoot::fresh()?;
    let store = ShardedStore::open_with(
        &root.0,
        1,
        |_| Box::new(FsBackend),
        |st| st.with_pipeline(pipeline.clone()),
    )?;
    let server = Server::new(store, TenantTable::default(), WORKERS);
    let mut artifact = BTreeMap::new();
    for e in &entries {
        let key = server
            .store()
            .key_for(&(e.model)(), &(e.spec)(), &dbs, &limits);
        let path = server
            .store()
            .shard(server.store().shard_of(key))
            .path_for(e.info.name, key);
        artifact.insert(e.info.name, path);
    }
    let mut s = Setup {
        server,
        dbs,
        check,
        names: entries.iter().map(|e| e.info.name).collect(),
        reference,
        artifact,
        rng: Rng::new(WARMUP_SEED, 0x5E4D),
        _root: root,
    };
    let all: Vec<CompileJob> = s.names.iter().map(|n| CompileJob::named(*n)).collect();
    s.server.run_batch(&all, &s.dbs);
    one_batch(
        &mut s,
        &mut Recorder::new(Instant::now()),
        &mut 0,
        &mut Vec::new(),
    );
    s.rng = Rng::new(seed, 0x5E4D);
    Ok(s)
}

fn one_batch(
    s: &mut Setup,
    rec: &mut Recorder,
    request: &mut u64,
    errors: &mut Vec<String>,
) -> BatchSample {
    let batch = next_batch(&mut s.rng, &s.names);
    for name in &batch.churn {
        if let Err(e) = std::fs::remove_file(&s.artifact[name]) {
            errors.push(format!("expiring {name}: {e}"));
        }
    }
    let before = counters(&s.server);
    let t0 = Instant::now();
    let responses = s.server.run_batch(&batch.jobs, &s.dbs);
    let t1 = Instant::now();
    let after = counters(&s.server);
    let mut sample = BatchSample {
        traced: rec.enabled(),
        nanos: u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX),
        requests: Vec::with_capacity(responses.len()),
        counters: std::array::from_fn(|i| after[i] - before[i]),
    };
    let batch_span = rec.record("service.batch", "", t0, t1, None, *request);
    let start = rec.offset(t0);
    if responses.len() != batch.jobs.len() {
        errors.push(format!(
            "{} jobs, {} responses",
            batch.jobs.len(),
            responses.len()
        ));
    }
    // One worker runs the jobs in request order on the calling thread, so
    // a request's service time is the gap since the previous completion.
    let mut previous = 0;
    for (i, r) in responses.iter().enumerate() {
        *request += 1;
        let nanos = u64::try_from(r.latency_nanos).unwrap_or(u64::MAX);
        let layer = if batch.cold[i] {
            "service.request.cold"
        } else {
            "service.request.warm"
        };
        rec.record_offsets(layer, "", start, start + nanos, batch_span, *request);
        let service = nanos.saturating_sub(previous);
        previous = nanos;
        sample.requests.push(Request {
            cold: batch.cold[i],
            program: s
                .names
                .iter()
                .position(|n| *n == batch.jobs[i].program)
                .unwrap_or(0),
            latency_ms: nanos as f64 / 1e6,
            service_ms: service as f64 / 1e6,
        });
        let recheck = batch.cold[i] || s.rng.below(WARM_RECHECK) == 0;
        if let Err(e) = verify(s, r, recheck) {
            errors.push(e);
        }
    }
    *request += 1;
    for (tenant, t) in s.server.tenant_stats() {
        if !t.exact() {
            errors.push(format!("tenant {tenant}: accounting inexact: {t:?}"));
        }
    }
    sample
}

/// Latency (`service == false`) or service time of every warm or cold
/// request.
fn times(samples: &[&BatchSample], cold: bool, service: bool) -> Vec<f64> {
    samples
        .iter()
        .flat_map(|b| b.requests.iter())
        .filter(|r| r.cold == cold)
        .map(|r| if service { r.service_ms } else { r.latency_ms })
        .collect()
}

/// Geomean over programs of each program's median warm or cold service
/// time. Service times differ by program several-fold, so a median pooled
/// over programs hops between them as the seeded mix changes.
fn service_geomean(samples: &[&BatchSample], cold: bool, programs: usize) -> f64 {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); programs];
    for r in samples.iter().flat_map(|b| b.requests.iter()) {
        if r.cold == cold {
            per[r.program].push(r.service_ms);
        }
    }
    geomean(
        &per.iter()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .collect::<Vec<_>>(),
    )
}

fn e2e(samples: &[&BatchSample], programs: usize) -> E2e {
    // The median batch's rate: a mean over the run carries every stall of
    // the shared host's disk and scheduler, which come and go from run to
    // run; the tail is reported as `service.warm_ms_p99`.
    let rates: Vec<f64> = samples
        .iter()
        .map(|b| b.requests.len() as f64 / (b.nanos as f64 / 1e9))
        .collect();
    E2e {
        throughput_per_s: median(&rates),
        latency_ms: service_geomean(samples, false, programs),
        slow_path_ms: service_geomean(samples, true, programs),
    }
}

/// Runs the timed loop for `seconds`. Between batches the calibration
/// kernel runs every [`crate::calib::EVERY_MS`]. In a traced run, batches
/// alternate between untraced and traced.
pub fn run(
    mut s: Setup,
    seconds: f64,
    trace: bool,
    rec: &mut Recorder,
    cal: &mut Calibrator,
) -> Outcome {
    let mut samples = Vec::new();
    let mut outcome = Outcome::default();
    let mut request = 0;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        rec.set_enabled(trace && samples.len() % 2 == 1);
        let mut errors = Vec::new();
        let b = one_batch(&mut s, rec, &mut request, &mut errors);
        outcome.attempted += b.requests.len() as u64;
        // One failure per wrong or missing answer; a batch-level fault
        // (lost responses, inexact accounting) counts once.
        outcome.failed += errors.len() as u64;
        outcome.errors.extend(errors);
        samples.push(b);
        cal.tick();
    }
    rec.set_enabled(false);
    let untraced: Vec<&BatchSample> = samples.iter().filter(|b| !b.traced).collect();
    let traced: Vec<&BatchSample> = samples.iter().filter(|b| b.traced).collect();
    outcome.e2e = e2e(&untraced, s.names.len());
    let warm = times(&untraced, false, false);
    let cold = times(&untraced, true, false);
    outcome.notes.push(format!(
        "served_mix: {} batches, {} warm + {} cold requests, {} worker; served_rps {:.1} \
         (median batch; {:.1} over the whole run), warm_ms_p50 {:.3}, warm_ms_p99 {:.3}, \
         cold_ms_p50 {:.3}, warm service geomean {:.3} ms, cold service geomean {:.3} ms",
        untraced.len(),
        warm.len(),
        cold.len(),
        s.server.workers(),
        outcome.e2e.throughput_per_s,
        (warm.len() + cold.len()) as f64
            / untraced.iter().map(|b| b.nanos as f64 / 1e9).sum::<f64>(),
        median(&warm),
        quantile(&warm, 0.99),
        median(&cold),
        outcome.e2e.latency_ms,
        outcome.e2e.slow_path_ms,
    ));
    if !trace {
        return outcome;
    }
    outcome.traced_e2e = Some(e2e(&traced, s.names.len()));
    let self_times = rec.self_times();
    let batch_self: Vec<f64> = rec
        .spans()
        .iter()
        .zip(&self_times)
        .filter(|(sp, _)| sp.layer == "service.batch")
        .map(|(_, t)| *t as f64 / 1e6)
        .collect();
    let batch_ms: Vec<f64> = traced.iter().map(|b| b.nanos as f64 / 1e6).collect();
    let warm = times(&traced, false, false);
    let mut total = [0u128; COUNTERS.len()];
    for b in &traced {
        for (t, c) in total.iter_mut().zip(b.counters) {
            *t += c;
        }
    }
    let count =
        |name: &str| total[COUNTERS.iter().position(|c| *c == name).expect("a counter")] as f64;
    let (hits, verify_ns) = (count("service.store.hits"), count("verify_nanos"));
    let lookups = hits
        + count("service.store.misses")
        + count("service.store.evictions")
        + count("unavailable");
    let wall: f64 = traced.iter().map(|b| b.nanos as f64).sum();
    let layers = &mut outcome.layers;
    for name in COUNTERS.iter().filter(|c| c.starts_with("service.")) {
        layers.insert((*name).to_string(), count(name));
    }
    layers.insert("service.batch.ms".into(), median(&batch_ms));
    layers.insert("service.batch.self_ms".into(), median(&batch_self));
    layers.insert("service.warm_ms_p50".into(), median(&warm));
    layers.insert("service.warm_ms_p99".into(), quantile(&warm, 0.99));
    layers.insert(
        "service.cold_ms_p50".into(),
        median(&times(&traced, true, false)),
    );
    layers.insert("service.store.hit_ratio".into(), ratio(hits, lookups));
    layers.insert(
        "service.store.verify_ms_per_hit".into(),
        ratio(verify_ns / 1e6, hits),
    );
    layers.insert(
        "service.store.verify_busy_frac".into(),
        ratio(verify_ns, wall),
    );
    outcome
}
