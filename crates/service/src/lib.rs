//! Persistent proof-carrying compilation service.
//!
//! Relational compilation is proof search: every run of the engine
//! produces not just Bedrock2 code but a [`Derivation`] witness that an
//! independent checker re-validates. That makes compilation *cacheable
//! without trust*: an artifact persisted to disk can be reloaded later —
//! by a different process, on a different day — and re-checked exactly as
//! a fresh compilation would be, so the cache can be wrong, stale, or
//! corrupted without ever being able to smuggle a bad artifact past the
//! caller. The service has one of each moving part:
//!
//! - **one cache key** — [`fingerprint()`]: FNV-1a/64 over the canonical
//!   encoding of (model, spec, hint-db identity, engine limits, opt
//!   pipeline, CT policy, RISC-V pipeline, format version). Same inputs ⇒
//!   same key across processes; changing a lemma, the registration order,
//!   the [`DispatchMode`], the budgets or any pipeline changes the key.
//! - **one store** — [`ShardedStore`]: the content-addressed on-disk store
//!   with *verified loads* (decode, cross-check the stored inputs against
//!   the request, re-run the checker and every translation validator, evict
//!   on any failure), lock-striped over `N` [`store::Store`] shards routed
//!   by key prefix. It has one load ([`ShardedStore::load_verified`]) and
//!   one put ([`ShardedStore::put`]); both take the key computed once per
//!   request, and both carry the optional RISC-V machine artifact.
//!   Counters ([`CacheStats`]) account every hit, miss, eviction, store,
//!   and verify-nanosecond.
//! - **one resolve routine** — [`server::resolve_one`]: verified load →
//!   compile on miss → optimize → put. The multi-tenant [`Server`] runs it
//!   per admitted job on the work-stealing scheduler, with per-tenant
//!   admission control and typed backpressure ([`tenant`]); the
//!   [`incremental`] suite driver runs it per suite entry. A fully warm
//!   run performs zero derivations.
//! - **one front-end** — [`serve_concurrent`] (the `served` binary) answers
//!   the JSON-lines protocol of [`batch`] through the server, in request
//!   order, with byte-identical-to-serial answers (DESIGN.md §14).
//!   Verified loads are what make sharing safe: artifacts are shared
//!   across mutually untrusting tenants because every load re-certifies.
//!
//! The service layer additionally assumes a *hostile environment*
//! (DESIGN.md §12): all store I/O goes through a [`backend::Backend`]
//! seam, transient faults are retried with bounded backoff ([`retry`]),
//! persistent outages flip the store into degraded compile-without-cache
//! mode, and a seeded fault-injecting [`chaos::ChaosBackend`] plus the
//! `chaosbench` binary exercise the whole stack under torn writes, bit
//! flips and I/O errors — gating that faults collapse to retries, misses,
//! evictions or degraded compiles, never wrong answers.
//!
//! [`Derivation`]: rupicola_core::derive::Derivation
//! [`DispatchMode`]: rupicola_core::DispatchMode

pub mod backend;
pub mod batch;
pub mod chaos;
pub mod env;
pub mod fingerprint;
pub mod incremental;
pub mod retry;
pub mod server;
pub mod shard;
pub mod store;
pub mod tenant;

pub use backend::{Backend, FsBackend};
pub use batch::{parse_request, Request};
pub use chaos::{ChaosBackend, FaultCounts, FaultPlan};
pub use fingerprint::{fingerprint, Fingerprint, FORMAT_VERSION};
pub use incremental::{
    compile_programs_cached, compile_suite_cached, suite_via_store, CachedResult, Provenance,
};
pub use retry::{classify, with_retry, ErrorClass, RetryOutcome, RetryPolicy};
pub use server::{serve_concurrent, CompileJob, JobOutcome, JobResponse, Server};
pub use shard::{shard_of_key, shard_root, ShardedStore, DEFAULT_SHARDS};
pub use store::{
    store_root_from_env, CacheStats, LoadOutcome, Store, StoreLock, DEFAULT_ROOT, STORE_ENV,
};
pub use tenant::{
    Admission, Rejection, TenantPolicy, TenantStats, TenantTable, DEFAULT_TENANT,
};
