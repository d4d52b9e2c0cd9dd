//! The concurrent multi-tenant compilation server.
//!
//! This is the front door the ROADMAP asks for: the sharded artifact
//! store ([`ShardedStore`]), the work-stealing scheduler
//! ([`run_work_stealing`]), and per-tenant admission control
//! ([`tenant`](crate::tenant)) composed into a [`Server`] that answers a
//! batch of mixed-tenant requests with `W` workers over `N` store
//! stripes.
//!
//! # Execution model
//!
//! [`Server::run_batch`] runs three phases:
//!
//! 1. **Admission** (serial, deterministic): every request passes its
//!    tenant's quota gate in request order. Rejections are typed and
//!    final — the scheduler only ever sees admitted jobs — so admission
//!    outcomes are independent of worker scheduling.
//! 2. **Execution** (parallel): admitted jobs go to the work-stealing
//!    pool. Each job routes by fingerprint to one store stripe: verified
//!    load under that stripe's lock; on a miss the *compilation runs
//!    outside any lock* (it is pure), and only the final put re-locks the
//!    stripe. Long compilations migrate work to idle workers
//!    automatically.
//! 3. **Settlement** (serial, deterministic): results land in
//!    request-indexed slots; per-tenant accounting
//!    ([`TenantStats`]) is applied in request order.
//!
//! # Determinism
//!
//! Answers are byte-identical to a serial run of the same batch:
//! compilation is a pure function of `(model, spec, dbs, limits)`,
//! verified loads serve only artifacts that re-certify, and response
//! order is request order by construction. Concurrency can change
//! *provenance* (two racing cold requests may both compile instead of
//! one hitting the other's store-back) but never the answer — the
//! concurrency battery (`tests/service_concurrency.rs`) pins this
//! against a serial reference under seeded chaos backends.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::Mutex;
use std::time::Instant;

use crate::incremental::{CachedResult, Provenance};
use crate::shard::ShardedStore;
use crate::store::LoadOutcome;
use crate::tenant::{Admission, Rejection, TenantStats, TenantTable, DEFAULT_TENANT};
use rupicola_core::check::CheckConfig;
use rupicola_core::{compile_with_limits, EngineLimits, HintDbs};
use rupicola_lang::json::Json;
use rupicola_opt::optimize_compiled;
use rupicola_programs::parallel::run_work_stealing;
use rupicola_programs::{suite, SuiteEntry};
use rupicola_rv::lower_validated;

/// One compile request as the server schedules it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileJob {
    /// Tenant id; `None` routes to [`DEFAULT_TENANT`]'s shared quota.
    pub tenant: Option<String>,
    /// Suite program name.
    pub program: String,
    /// Optional per-request wall-clock deadline (overrides the tenant
    /// policy's `max_wall_ms` for this request only).
    pub deadline_ms: Option<u64>,
}

impl CompileJob {
    /// A job for `program` under the default tenant, no deadline.
    pub fn named(program: impl Into<String>) -> CompileJob {
        CompileJob { tenant: None, program: program.into(), deadline_ms: None }
    }

    /// This job under tenant `t`.
    #[must_use]
    pub fn tenant(mut self, t: impl Into<String>) -> CompileJob {
        self.tenant = Some(t.into());
        self
    }
}

/// How one job ended.
#[derive(Debug)]
pub enum JobOutcome {
    /// Resolved (cache or fresh compile; the result may still be a typed
    /// compile error — in-band, per request).
    Done(Box<CachedResult>),
    /// Rejected at admission with typed backpressure.
    Rejected(Rejection),
    /// The program is not in the suite.
    UnknownProgram,
}

/// One job's response: outcome plus completion latency relative to the
/// batch start (what loadgen's percentiles are computed over).
#[derive(Debug)]
pub struct JobResponse {
    /// The tenant billed for the job.
    pub tenant: String,
    /// Requested program.
    pub program: String,
    /// Outcome.
    pub outcome: JobOutcome,
    /// Nanoseconds from batch start to this job's completion (admission
    /// rejections settle at admission time).
    pub latency_nanos: u128,
}

impl JobResponse {
    /// Whether the job produced a successful answer.
    pub fn is_ok(&self) -> bool {
        matches!(&self.outcome, JobOutcome::Done(r) if r.result.is_ok())
    }
}

/// Resolves one suite entry through the store — the service layer's only
/// resolve routine, behind both [`Server::run_batch`] and the incremental
/// driver. The key is computed once; the verified load locks one stripe;
/// on a miss the entry compiles *outside* any lock under `limits` as
/// adjusted by the entry's [`SuiteEntry::limits`], is optimized under the
/// store's pipeline, is lowered to RISC-V when the store keys under an rv
/// pipeline, and is filed back (stripe re-locked).
pub fn resolve_one(
    store: &ShardedStore,
    entry: &SuiteEntry,
    dbs: &HintDbs,
    limits: &EngineLimits,
) -> CachedResult {
    let model = (entry.model)();
    let spec = (entry.spec)();
    let key = store.key_for(&model, &spec, dbs, limits);
    let (result, provenance) = match store.load_verified(key, &model, &spec, dbs) {
        LoadOutcome::Hit { cf, .. } => (Ok(*cf), Provenance::Cache),
        // Miss, eviction and unavailable all degrade to a fresh compile;
        // the put below refuses or fails harmlessly if the stripe cannot
        // persist (degraded shard, quarantined key).
        LoadOutcome::Miss | LoadOutcome::Evicted { .. } | LoadOutcome::Unavailable { .. } => {
            let mut result = compile_with_limits(&model, &spec, dbs, (entry.limits)(*limits));
            if let Ok(cf) = &mut result {
                let pipeline = store.pipeline();
                let check = CheckConfig::default();
                if !pipeline.passes.is_empty() {
                    // Fresh optimization is a fresh claim: certification-
                    // strength validation, not the lighter load re-check.
                    let _ = optimize_compiled(cf, dbs, &pipeline, &check);
                }
                // An rv-keyed store files only envelopes carrying the
                // machine artifact its key promises; a function outside
                // the backend fragment is served but not filed.
                match store.rv_pipeline() {
                    None => {
                        let _ = store.put(key, cf, None);
                    }
                    Some(rv) => {
                        if let Ok((artifact, _)) = lower_validated(cf, &rv, &check) {
                            let _ = store.put(key, cf, Some(&artifact));
                        }
                    }
                }
            }
            (result, Provenance::Compiled)
        }
    };
    CachedResult { name: entry.info.name, result, provenance }
}

/// The concurrent multi-tenant server: sharded store + scheduler +
/// admission, with lifetime per-tenant accounting.
#[derive(Debug)]
pub struct Server {
    store: ShardedStore,
    tenants: TenantTable,
    workers: usize,
    stats: Mutex<BTreeMap<String, TenantStats>>,
}

impl Server {
    /// A server over `store` with `workers` scheduler threads and
    /// `tenants` admission policies.
    pub fn new(store: ShardedStore, tenants: TenantTable, workers: usize) -> Server {
        Server { store, tenants, workers: workers.max(1), stats: Mutex::new(BTreeMap::new()) }
    }

    /// The underlying sharded store.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Scheduler width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Lifetime per-tenant accounting (a snapshot).
    pub fn tenant_stats(&self) -> BTreeMap<String, TenantStats> {
        self.stats.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Runs one batch of jobs: admission (serial) → work-stealing
    /// execution (parallel) → settlement (serial). Responses come back in
    /// request order, exactly one per job — rejections included.
    pub fn run_batch(&self, jobs: &[CompileJob], dbs: &HintDbs) -> Vec<JobResponse> {
        let t0 = Instant::now();
        let all = suite();

        // Phase 1 — admission, in request order. `pending` carries the
        // per-tenant deltas; they merge into the lifetime stats at
        // settlement so a panicking worker cannot leave half a batch
        // accounted.
        let mut gate = Admission::new();
        let mut pending: BTreeMap<String, TenantStats> = BTreeMap::new();
        // Per-job: Some((entry, limits)) if admitted and known, else the
        // ready outcome.
        let mut admitted: Vec<Option<(SuiteEntry, EngineLimits)>> = Vec::with_capacity(jobs.len());
        let mut early: Vec<Option<JobOutcome>> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let tenant = job.tenant.as_deref().unwrap_or(DEFAULT_TENANT);
            let policy = self.tenants.policy(tenant);
            let stats = pending.entry(tenant.to_string()).or_default();
            stats.submitted += 1;
            match gate.admit(tenant, &policy) {
                Err(rejection) => {
                    stats.rejected += 1;
                    admitted.push(None);
                    early.push(Some(JobOutcome::Rejected(rejection)));
                }
                Ok(()) => {
                    stats.admitted += 1;
                    match all.iter().find(|e| e.info.name == job.program) {
                        None => {
                            // Unknown program: admitted, completes
                            // immediately with an in-band error.
                            stats.completed_err += 1;
                            gate.complete(tenant);
                            admitted.push(None);
                            early.push(Some(JobOutcome::UnknownProgram));
                        }
                        Some(entry) => {
                            let mut limits = policy.limits;
                            if let Some(ms) = job.deadline_ms {
                                limits = limits.with_deadline_ms(ms);
                            }
                            admitted.push(Some((entry.clone(), limits)));
                            early.push(None);
                        }
                    }
                }
            }
        }

        // Phase 2 — work-stealing execution of exactly the admitted,
        // known jobs. Results are keyed by *batch* index so settlement is
        // a direct merge.
        let runnable: Vec<usize> =
            (0..jobs.len()).filter(|&i| admitted[i].is_some()).collect();
        let outcomes: Vec<(usize, CachedResult, u128)> =
            run_work_stealing(runnable.len(), self.workers.min(runnable.len().max(1)), |j| {
                let i = runnable[j];
                let (entry, limits) =
                    admitted[i].as_ref().expect("runnable indices are admitted");
                let result = resolve_one(&self.store, entry, dbs, limits);
                (i, result, t0.elapsed().as_nanos())
            });

        // Phase 3 — settlement, in request order.
        let mut done: Vec<Option<(CachedResult, u128)>> = Vec::new();
        done.resize_with(jobs.len(), || None);
        for (i, result, nanos) in outcomes {
            done[i] = Some((result, nanos));
        }
        let admission_nanos = t0.elapsed().as_nanos();
        let mut responses = Vec::with_capacity(jobs.len());
        for ((job, early), done) in jobs.iter().zip(early).zip(done) {
            let tenant = job.tenant.clone().unwrap_or_else(|| DEFAULT_TENANT.to_string());
            let stats = pending.entry(tenant.clone()).or_default();
            let (outcome, latency_nanos) = match (early, done) {
                (Some(outcome), _) => (outcome, admission_nanos),
                (None, Some((result, nanos))) => {
                    match &result.result {
                        Ok(_) => {
                            stats.completed_ok += 1;
                            if result.provenance == Provenance::Cache {
                                stats.cache_hits += 1;
                            }
                        }
                        Err(_) => stats.completed_err += 1,
                    }
                    gate.complete(&tenant);
                    (JobOutcome::Done(Box::new(result)), nanos)
                }
                // Unreachable by construction: every job is either settled
                // early at admission or executed by the scheduler.
                (None, None) => (JobOutcome::UnknownProgram, admission_nanos),
            };
            responses.push(JobResponse {
                tenant,
                program: job.program.clone(),
                outcome,
                latency_nanos,
            });
        }
        debug_assert!(pending.values().all(TenantStats::exact));
        let mut lifetime =
            self.stats.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for (tenant, delta) in pending {
            let s = lifetime.entry(tenant).or_default();
            s.submitted += delta.submitted;
            s.admitted += delta.admitted;
            s.rejected += delta.rejected;
            s.completed_ok += delta.completed_ok;
            s.completed_err += delta.completed_err;
            s.cache_hits += delta.cache_hits;
        }
        responses
    }
}

/// Renders one job response as a protocol line payload.
fn job_json(r: &JobResponse, degraded: bool) -> Json {
    let mut fields = match &r.outcome {
        JobOutcome::Done(result) => {
            let j = crate::batch::program_response(result);
            let Json::Obj(pairs) = j else { unreachable!("program_response returns an object") };
            pairs
        }
        JobOutcome::Rejected(rejection) => vec![
            ("ok".to_string(), Json::Bool(false)),
            ("program".to_string(), Json::str(r.program.clone())),
            ("rejected".to_string(), Json::Bool(true)),
            ("reason".to_string(), Json::str(rejection.reason())),
            ("error".to_string(), Json::str(rejection.to_string())),
        ],
        JobOutcome::UnknownProgram => vec![
            ("ok".to_string(), Json::Bool(false)),
            ("program".to_string(), Json::str(r.program.clone())),
            ("error".to_string(), Json::str(format!("unknown program `{}`", r.program))),
        ],
    };
    fields.push(("tenant".to_string(), Json::str(r.tenant.clone())));
    if degraded {
        fields.push(("degraded".to_string(), Json::Bool(true)));
    }
    Json::Obj(fields)
}

/// Runs one JSON-lines batch (the [`crate::batch`] protocol) through the
/// server: the service's only front-end. Every queued request is read up
/// front, every compile job any of them names runs in one
/// [`Server::run_batch`], and the answers go out in request order.
/// Requests may carry a `"tenant"` field; `suite` expands to one job per
/// program under the default tenant.
///
/// Failure reporting is **in-band** (DESIGN.md §12): a malformed line
/// yields `{"ok":false}` in its slot, an expired deadline
/// `{"ok":false,"deadline_exceeded":true}`, a quota rejection typed
/// backpressure (`{"ok":false,"rejected":true,"reason":"queue_full",…}`),
/// and every response carries `"degraded":true` once a shard has fallen
/// back to compile-without-cache. `ping` and `stats` report the store
/// counters after the batch's compile work.
///
/// Returns the number of requests answered.
///
/// # Errors
///
/// Only I/O errors on `input`/`output` are fatal.
pub fn serve_concurrent(
    input: impl BufRead,
    mut output: impl Write,
    server: &Server,
    dbs: &HintDbs,
) -> std::io::Result<usize> {
    use crate::batch::{parse_request, Request};

    // Phase 1: read and parse every queued request.
    let mut requests: Vec<Result<Request, String>> = Vec::new();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        requests.push(parse_request(&line));
    }

    // Phase 2: one scheduler batch over every compile job any request
    // expands to. `jobs_of[i]` is the half-open range of job indices
    // request `i` owns.
    let all = suite();
    let mut jobs: Vec<CompileJob> = Vec::new();
    let mut jobs_of: Vec<std::ops::Range<usize>> = Vec::with_capacity(requests.len());
    for req in &requests {
        let start = jobs.len();
        match req {
            Ok(Request::Compile { program, deadline_ms, tenant }) => {
                jobs.push(CompileJob {
                    tenant: tenant.clone(),
                    program: program.clone(),
                    deadline_ms: *deadline_ms,
                });
            }
            Ok(Request::Suite) => {
                jobs.extend(all.iter().map(|e| CompileJob::named(e.info.name)));
            }
            Ok(Request::Ping | Request::Stats) | Err(_) => {}
        }
        jobs_of.push(start..jobs.len());
    }
    let responses = server.run_batch(&jobs, dbs);
    let degraded = server.store().any_degraded();

    // Phase 3: answer in request order.
    let mut answered = 0;
    for (req, range) in requests.iter().zip(jobs_of) {
        let line = match req {
            Err(message) => {
                Json::obj([("ok", Json::Bool(false)), ("error", Json::str(message.clone()))])
            }
            Ok(Request::Ping) => {
                let stats = server.store().stats();
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("op", Json::str("ping")),
                    ("store", Json::str(server.store().root().display().to_string())),
                    ("backend", Json::str(server.store().backend_name())),
                    ("shards", Json::U64(server.store().shard_count() as u64)),
                    ("workers", Json::U64(server.workers() as u64)),
                    ("degraded", Json::Bool(degraded)),
                    ("format", Json::U64(crate::fingerprint::FORMAT_VERSION)),
                    ("retries", Json::U64(stats.retries)),
                    ("quarantined", Json::U64(stats.quarantined as u64)),
                    ("write_failures", Json::U64(stats.write_failures as u64)),
                ])
            }
            Ok(Request::Stats) => {
                let tenants: Vec<(String, Json)> = server
                    .tenant_stats()
                    .iter()
                    .map(|(name, s)| (name.clone(), s.to_json()))
                    .collect();
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("op", Json::str("stats")),
                    ("degraded", Json::Bool(degraded)),
                    ("shards", Json::U64(server.store().shard_count() as u64)),
                    ("cache", server.store().stats().to_json()),
                    ("tenants", Json::Obj(tenants)),
                ])
            }
            Ok(Request::Compile { .. }) => job_json(&responses[range.start], degraded),
            Ok(Request::Suite) => {
                let rows: Vec<Json> =
                    responses[range].iter().map(|r| job_json(r, degraded)).collect();
                let cached = rows
                    .iter()
                    .filter(|r| r.get("cached").and_then(Json::as_bool) == Some(true))
                    .count();
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("op", Json::str("suite")),
                    ("degraded", Json::Bool(degraded)),
                    ("cached", Json::U64(cached as u64)),
                    ("programs", Json::Arr(rows)),
                ])
            }
        };
        output.write_all(line.render_compact().as_bytes())?;
        output.write_all(b"\n")?;
        answered += 1;
    }
    output.flush()?;
    Ok(answered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantPolicy;
    use rupicola_ext::standard_dbs;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rupicola-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn server(tag: &str, shards: usize, workers: usize) -> Server {
        Server::new(
            ShardedStore::open(scratch(tag), shards).unwrap(),
            TenantTable::default(),
            workers,
        )
    }

    #[test]
    fn batch_resolves_mixed_tenants_with_exact_accounting() {
        let server = server("mixed", 4, 4);
        let dbs = standard_dbs();
        let jobs = vec![
            CompileJob::named("fnv1a").tenant("a"),
            CompileJob::named("crc32").tenant("b"),
            CompileJob::named("fnv1a").tenant("a"),
            CompileJob::named("nosuch").tenant("b"),
        ];
        let responses = server.run_batch(&jobs, &dbs);
        assert_eq!(responses.len(), 4);
        assert!(responses[0].is_ok());
        assert!(responses[1].is_ok());
        assert!(responses[2].is_ok());
        assert!(matches!(responses[3].outcome, JobOutcome::UnknownProgram));
        let stats = server.tenant_stats();
        assert_eq!(stats["a"].submitted, 2);
        assert_eq!(stats["a"].completed_ok, 2);
        assert_eq!(stats["b"].submitted, 2);
        assert_eq!(stats["b"].completed_ok, 1);
        assert_eq!(stats["b"].completed_err, 1);
        assert!(stats.values().all(TenantStats::exact));
        // A second batch is all warm: the sharded store served it.
        let responses = server.run_batch(&jobs[..3], &dbs);
        assert!(responses.iter().all(|r| matches!(
            &r.outcome,
            JobOutcome::Done(d) if d.provenance == Provenance::Cache
        )));
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    #[test]
    fn quota_rejections_are_typed_and_final() {
        let store = ShardedStore::open(scratch("quota"), 2).unwrap();
        let tenants = TenantTable::default()
            .with_tenant("greedy", TenantPolicy { max_queued: 2, ..TenantPolicy::default() });
        let server = Server::new(store, tenants, 2);
        let dbs = standard_dbs();
        let jobs: Vec<CompileJob> =
            (0..5).map(|_| CompileJob::named("fnv1a").tenant("greedy")).collect();
        let responses = server.run_batch(&jobs, &dbs);
        let rejected: Vec<_> = responses
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Rejected(_)))
            .collect();
        assert_eq!(rejected.len(), 3, "2 admitted, 3 rejected");
        // Rejection is deterministic: the *first two* requests are the
        // admitted ones (admission order is request order).
        assert!(responses[0].is_ok() && responses[1].is_ok());
        let stats = server.tenant_stats();
        assert_eq!(stats["greedy"].admitted, 2);
        assert_eq!(stats["greedy"].rejected, 3);
        assert!(stats["greedy"].exact());
        // The queue drained: a fresh batch admits again.
        assert!(server.run_batch(&jobs[..1], &dbs)[0].is_ok());
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    fn run(input: &str, server: &Server) -> Vec<Json> {
        let mut out = Vec::new();
        serve_concurrent(input.as_bytes(), &mut out, server, &standard_dbs()).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| rupicola_lang::json::parse(l).unwrap())
            .collect()
    }

    fn flag(j: &Json, field: &str) -> Option<bool> {
        j.get(field).and_then(Json::as_bool)
    }

    #[test]
    fn batch_answers_in_order_and_stores_a_repeat_once() {
        let server = server("order", 1, 1);
        let input = "{\"op\":\"compile\",\"program\":\"fnv1a\"}\n\
             {\"op\":\"compile\",\"program\":\"fnv1a\"}\n\
             {\"op\":\"stats\"}\n\
             {\"op\":\"compile\",\"program\":\"nosuch\"}\n\
             bogus\n";
        let responses = run(input, &server);
        assert_eq!(responses.len(), 5);
        assert_eq!(flag(&responses[0], "ok"), Some(true));
        assert_eq!(responses[0].get("program").and_then(Json::as_str), Some("fnv1a"));
        // The repeat is served from the artifact the first one filed.
        assert_eq!(flag(&responses[1], "ok"), Some(true));
        assert_eq!(flag(&responses[1], "cached"), Some(true));
        assert_eq!(server.store().stats().stores, 1, "fnv1a stored exactly once");
        // Stats reflect the batch's compile work.
        let cache = responses[2].get("cache").unwrap();
        assert_eq!(cache.get("stores").and_then(Json::as_u64), Some(1));
        assert_eq!(flag(&responses[3], "ok"), Some(false));
        assert_eq!(flag(&responses[4], "ok"), Some(false));
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    #[test]
    fn suite_request_reports_cache_provenance() {
        let server = server("suite", 1, 1);
        let cold = run("{\"op\":\"suite\"}\n", &server);
        assert_eq!(cold[0].get("cached").and_then(Json::as_u64), Some(0));
        assert_eq!(cold[0].get("programs").and_then(Json::as_arr).unwrap().len(), 7);
        let warm = run("{\"op\":\"suite\"}\n", &server);
        assert_eq!(warm[0].get("cached").and_then(Json::as_u64), Some(7));
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    #[test]
    fn ping_reports_health_without_compiling() {
        let server = server("ping", 1, 1);
        let responses = run("{\"op\":\"ping\"}\n", &server);
        assert_eq!(responses.len(), 1);
        let ping = &responses[0];
        assert_eq!(flag(ping, "ok"), Some(true));
        assert_eq!(ping.get("op").and_then(Json::as_str), Some("ping"));
        assert_eq!(ping.get("backend").and_then(Json::as_str), Some("fs"));
        assert_eq!(flag(ping, "degraded"), Some(false));
        assert_eq!(
            ping.get("format").and_then(Json::as_u64),
            Some(crate::fingerprint::FORMAT_VERSION)
        );
        assert!(ping
            .get("store")
            .and_then(Json::as_str)
            .is_some_and(|s| s.contains("rupicola-server-ping")));
        // The health counters are present and zero on a fresh store.
        assert_eq!(ping.get("retries").and_then(Json::as_u64), Some(0));
        assert_eq!(ping.get("quarantined").and_then(Json::as_u64), Some(0));
        assert_eq!(ping.get("write_failures").and_then(Json::as_u64), Some(0));
        // Liveness only: no loads, no compiles, no stores.
        let stats = server.store().stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (0, 0, 0));
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    #[test]
    fn ping_surfaces_fault_layer_counters() {
        use crate::chaos::{ChaosBackend, FaultPlan};
        // Every write fails (reads are fine): the compile succeeds but the
        // store-back burns its retries, and the ping answered after the
        // batch's compile work must surface both counters.
        let plan = FaultPlan { write_eio: 1000, ..FaultPlan::calm(3) };
        let store = ShardedStore::open_with(
            scratch("faulty-ping"),
            1,
            |_| Box::new(ChaosBackend::new(plan)),
            |s| s,
        )
        .unwrap();
        let server = Server::new(store, TenantTable::default(), 1);
        let responses =
            run("{\"op\":\"compile\",\"program\":\"fnv1a\"}\n{\"op\":\"ping\"}\n", &server);
        assert_eq!(flag(&responses[0], "ok"), Some(true));
        let ping = &responses[1];
        assert!(
            ping.get("retries").and_then(Json::as_u64).is_some_and(|r| r > 0),
            "write retries visible in ping: {ping:?}"
        );
        assert!(
            ping.get("write_failures").and_then(Json::as_u64).is_some_and(|w| w > 0),
            "write failures visible in ping: {ping:?}"
        );
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    #[test]
    fn degraded_store_answers_the_batch_and_says_so() {
        // A store that cannot touch disk at all: every response must still
        // arrive (compile-without-cache) and carry the degraded flag.
        let store = ShardedStore::open_degraded(scratch("degraded"), 1);
        let server = Server::new(store, TenantTable::default(), 1);
        let responses =
            run("{\"op\":\"ping\"}\n{\"op\":\"compile\",\"program\":\"fnv1a\"}\n", &server);
        assert_eq!(flag(&responses[0], "degraded"), Some(true));
        assert_eq!(flag(&responses[1], "ok"), Some(true), "{responses:?}");
        assert_eq!(flag(&responses[1], "cached"), Some(false));
        assert_eq!(flag(&responses[1], "degraded"), Some(true));
        assert_eq!(server.store().stats().stores, 0, "degraded store persists nothing");
        assert!(!server.store().root().exists(), "degraded store creates no directories");
    }

    #[test]
    fn expired_deadline_is_reported_in_band() {
        let server = server("deadline", 1, 1);
        // deadline_ms:0 expires at the first judgment — deterministically,
        // because the engine checks the clock inclusively.
        let responses =
            run("{\"op\":\"compile\",\"program\":\"fnv1a\",\"deadline_ms\":0}\n", &server);
        assert_eq!(responses.len(), 1);
        assert_eq!(flag(&responses[0], "ok"), Some(false));
        assert_eq!(flag(&responses[0], "deadline_exceeded"), Some(true));
        assert!(responses[0]
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("wall-clock")));
        // A generous deadline compiles normally and is persisted under the
        // same key an undeadline'd request would use.
        let responses = run(
            "{\"op\":\"compile\",\"program\":\"fnv1a\",\"deadline_ms\":600000}\n",
            &server,
        );
        assert_eq!(flag(&responses[0], "ok"), Some(true));
        assert!(responses[0].get("deadline_exceeded").is_none());
        assert_eq!(server.store().stats().stores, 1);
        // …which an undeadline'd request now hits.
        let responses = run("{\"op\":\"compile\",\"program\":\"fnv1a\"}\n", &server);
        assert_eq!(flag(&responses[0], "cached"), Some(true));
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    #[test]
    fn resolve_one_applies_the_entry_limits() {
        // `chacha20_block` needs the raised recursion depth its suite entry
        // declares; under the bare default limits it would fail. The opt
        // pipeline is off: only the engine limits are under test.
        let entry = rupicola_programs::perf_suite()
            .into_iter()
            .find(|e| e.info.name == "chacha20_block")
            .expect("perf suite has chacha20_block");
        let store = ShardedStore::open_with(
            scratch("entry-limits"),
            1,
            |_| Box::new(crate::backend::FsBackend),
            |s| s.with_pipeline(rupicola_opt::PipelineConfig::none()),
        )
        .unwrap();
        let dbs = standard_dbs();
        let resolved = rupicola_programs::parallel::on_deep_stack(|| {
            resolve_one(&store, &entry, &dbs, &EngineLimits::default())
        });
        assert!(resolved.result.is_ok(), "{:?}", resolved.result.err());
        assert_eq!(resolved.provenance, Provenance::Compiled);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn concurrent_protocol_round() {
        let server = server("proto", 2, 3);
        let dbs = standard_dbs();
        let input = "{\"op\":\"ping\"}\n\
             {\"op\":\"compile\",\"program\":\"fnv1a\",\"tenant\":\"acme\"}\n\
             {\"op\":\"suite\"}\n\
             {\"op\":\"stats\"}\n\
             bogus\n";
        let mut out = Vec::new();
        let n = serve_concurrent(input.as_bytes(), &mut out, &server, &dbs).unwrap();
        assert_eq!(n, 5);
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| rupicola_lang::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines[0].get("shards").and_then(Json::as_u64), Some(2));
        assert_eq!(lines[0].get("workers").and_then(Json::as_u64), Some(3));
        assert_eq!(lines[1].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(lines[1].get("tenant").and_then(Json::as_str), Some("acme"));
        assert_eq!(lines[2].get("programs").and_then(Json::as_arr).unwrap().len(), 7);
        let tenants = lines[3].get("tenants").expect("tenant accounting in stats");
        assert!(tenants.get("acme").is_some());
        assert!(tenants.get(DEFAULT_TENANT).is_some());
        assert_eq!(lines[4].get("ok").and_then(Json::as_bool), Some(false));
        let _ = std::fs::remove_dir_all(server.store().root());
    }
}
