//! Integration battery for RISC-V machine artifacts in the service store:
//! a validated [`RvArtifact`] rides the envelope under the rv-pipeline
//! fingerprint, is differentially re-validated on every load, round-trips
//! through both the one-shard and the eight-shard store, and is evicted
//! the moment its machine code is corrupted.

use rupicola::core::check::CheckConfig;
use rupicola::core::EngineLimits;
use rupicola::ext::standard_dbs;
use rupicola::programs::suite;
use rupicola::service::{
    CompileJob, FsBackend, JobOutcome, LoadOutcome, Provenance, Server, ShardedStore, TenantTable,
};
use rupicola::{lower_validated, RvPipelineConfig};
use std::fs;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rupicola-rvstore-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A store of `nshards` shards keyed under the rv `pipeline`.
fn rv_store(root: &PathBuf, nshards: usize, pipeline: &RvPipelineConfig) -> ShardedStore {
    ShardedStore::open_with(root, nshards, |_| Box::new(FsBackend), |s| {
        s.with_rv_pipeline(pipeline.clone())
    })
    .unwrap()
}

fn upstr() -> (rupicola::lang::Model, rupicola::core::fnspec::FnSpec, rupicola::core::CompiledFunction)
{
    let entry = suite().into_iter().find(|e| e.info.name == "upstr").unwrap();
    ((entry.model)(), (entry.spec)(), (entry.compiled)().unwrap())
}

#[test]
fn rv_artifact_round_trips_through_the_store() {
    let root = scratch("roundtrip");
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let pipeline = RvPipelineConfig::full();
    let (model, spec, cf) = upstr();
    let (art, _) = lower_validated(&cf, &pipeline, &CheckConfig::default()).unwrap();

    let store = rv_store(&root, 1, &pipeline);
    assert_eq!(store.rv_pipeline().as_ref(), Some(&pipeline));
    let key = store.key_for(&model, &spec, &dbs, &limits);
    // The rv pipeline is part of the key: a store without one disagrees.
    let plain_root = scratch("plainkey");
    let plain = ShardedStore::open(&plain_root, 1).unwrap();
    assert_ne!(key, plain.key_for(&model, &spec, &dbs, &limits));

    // An rv-keyed store refuses envelopes without the machine artifact —
    // a hit would otherwise silently downgrade the backend.
    assert!(store.put(key, &cf, None).is_err(), "rv store must demand the machine artifact");
    // And a store without an rv pipeline refuses to carry one it cannot
    // re-validate.
    assert!(plain.put(key, &cf, Some(&art)).is_err());

    store.put(key, &cf, Some(&art)).unwrap();
    match store.load_verified(key, &model, &spec, &dbs) {
        LoadOutcome::Hit { cf: loaded, rv } => {
            assert_eq!(loaded.function, cf.function);
            assert_eq!(rv.as_deref(), Some(&art), "machine artifact must round-trip bit-for-bit");
        }
        other => panic!("expected hit, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&plain_root);
}

#[test]
fn corrupted_rv_artifact_is_evicted() {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let pipeline = RvPipelineConfig::full();
    let (model, spec, cf) = upstr();
    let (art, _) = lower_validated(&cf, &pipeline, &CheckConfig::default()).unwrap();

    // (corruption name, raw-text edit applied to the stored envelope)
    type Edit = Box<dyn Fn(&str) -> String>;
    let corruptions: Vec<(&str, Edit)> = vec![
        // A wrong-width load in the machine code: decodes fine, fails the
        // differential re-validation.
        ("widened load", Box::new(|t: &str| t.replacen("lbu", "lhu", 1))),
        // Machine code from some *other* pipeline configuration.
        (
            "pipeline identity tampered",
            Box::new(|t: &str| {
                t.replacen(&RvPipelineConfig::full().identity_string(), "lower", 1)
            }),
        ),
        // The rv block dropped wholesale — an rv-keyed store must not
        // serve a hit without its machine artifact.
        ("rv block dropped", Box::new(|t: &str| t.replacen("\"rv\"", "\"xx\"", 1))),
    ];
    for (tag, edit) in corruptions {
        let root = scratch(&format!("evict-{}", tag.replace(' ', "-")));
        let store = rv_store(&root, 1, &pipeline);
        let key = store.key_for(&model, &spec, &dbs, &limits);
        let path = store.put(key, &cf, Some(&art)).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let corrupted = edit(&text);
        assert_ne!(text, corrupted, "{tag}: the edit must change the envelope");
        fs::write(&path, corrupted).unwrap();
        // Eviction carries no artifact of either kind.
        match store.load_verified(key, &model, &spec, &dbs) {
            LoadOutcome::Evicted { reason } => {
                assert!(!path.exists(), "{tag}: evicted artifact must be deleted ({reason})");
            }
            other => panic!("{tag}: expected eviction, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn rv_artifact_round_trips_through_the_sharded_store() {
    let root = scratch("sharded");
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let pipeline = RvPipelineConfig::full();
    let (model, spec, cf) = upstr();
    let (art, _) = lower_validated(&cf, &pipeline, &CheckConfig::default()).unwrap();

    let sharded = rv_store(&root, 8, &pipeline);
    assert_eq!(sharded.rv_pipeline().as_ref(), Some(&pipeline));
    let key = sharded.key_for(&model, &spec, &dbs, &limits);
    let path = sharded.put(key, &cf, Some(&art)).unwrap();
    match sharded.load_verified(key, &model, &spec, &dbs) {
        LoadOutcome::Hit { cf: loaded, rv } => {
            assert_eq!(loaded.function, cf.function);
            assert_eq!(rv.as_deref(), Some(&art));
        }
        other => panic!("expected hit, got {other:?}"),
    }

    // Corrupt the shard's file on disk: the routed verified load evicts.
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, text.replacen("lbu", "lhu", 1)).unwrap();
    let outcome = sharded.load_verified(key, &model, &spec, &dbs);
    assert!(
        matches!(outcome, LoadOutcome::Evicted { .. }),
        "expected eviction, got {outcome:?}"
    );
    assert!(!path.exists(), "evicted artifact must be deleted");
    let _ = fs::remove_dir_all(&root);
}

/// A server over an rv-keyed store lowers on a miss and files the machine
/// artifact with the certificate, so a repeated request is a verified hit
/// carrying the re-validated artifact.
#[test]
fn a_repeated_request_to_an_rv_keyed_server_is_a_verified_hit() {
    let root = scratch("server");
    let dbs = standard_dbs();
    let pipeline = RvPipelineConfig::full();
    let server = Server::new(rv_store(&root, 1, &pipeline), TenantTable::default(), 1);
    let jobs = [CompileJob::named("upstr")];
    let provenance = |responses: Vec<rupicola::service::JobResponse>| match &responses[0].outcome {
        JobOutcome::Done(r) => {
            assert!(r.result.is_ok(), "{:?}", r.result);
            r.provenance
        }
        other => panic!("expected an answer, got {other:?}"),
    };
    assert_eq!(provenance(server.run_batch(&jobs, &dbs)), Provenance::Compiled);
    assert_eq!(provenance(server.run_batch(&jobs, &dbs)), Provenance::Cache);

    let (model, spec, cf) = upstr();
    let key = server.store().key_for(&model, &spec, &dbs, &EngineLimits::default());
    let (art, _) = lower_validated(&cf, &pipeline, &CheckConfig::default()).unwrap();
    match server.store().load_verified(key, &model, &spec, &dbs) {
        LoadOutcome::Hit { rv, .. } => assert_eq!(rv.as_deref(), Some(&art)),
        other => panic!("expected hit, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&root);
}
