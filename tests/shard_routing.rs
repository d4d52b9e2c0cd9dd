//! Property battery for the sharded store's routing function
//! (DESIGN.md §14): fingerprint→shard assignment is a pure, stable,
//! uniform function of the key prefix, and the 1-shard configuration is
//! byte-equivalent to the plain, flat single-directory store layout — the
//! regression anchor that keeps every pre-sharding artifact valid against
//! a sharded deployment.

use rupicola::core::EngineLimits;
use rupicola::ext::standard_dbs;
use rupicola::programs::suite;
use rupicola::service::fingerprint::Fingerprint;
use rupicola::service::{shard_of_key, shard_root, LoadOutcome, ShardedStore};
use rupicola_minicheck::{check, Rng};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("rupicola-routing-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Routing is a pure function of the key: stable across calls (and hence
/// across runs — it reads no ambient state), in range, dependent only on
/// the top 16 bits.
#[test]
fn routing_is_stable_pure_and_prefix_determined() {
    check("routing stable and prefix-determined", 300, |rng: &mut Rng| {
        let key = Fingerprint(rng.next_u64());
        let nshards = (rng.below(64) + 1) as usize;
        let shard = shard_of_key(key, nshards);
        assert!(shard < nshards);
        assert_eq!(shard, shard_of_key(key, nshards), "same key, same shard");
        // Only the prefix matters: scrambling the low 48 bits never moves
        // the key.
        let scrambled = Fingerprint((key.0 & 0xffff_0000_0000_0000) | (rng.next_u64() >> 16));
        assert_eq!(shard, shard_of_key(scrambled, nshards));
        // And 1 shard maps everything to 0 (the plain-store layout).
        assert_eq!(shard_of_key(key, 1), 0);
    });
}

/// Assignment survives store open/close: an artifact stored through one
/// `ShardedStore` is found by a *fresh* `ShardedStore` over the same root
/// (same shard directory), for every program.
#[test]
fn routing_survives_store_reopen() {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let root = scratch("reopen");
    let keys: Vec<(Fingerprint, PathBuf)> = {
        let store = ShardedStore::open(&root, 8).unwrap();
        suite()
            .iter()
            .map(|e| {
                let cf = (e.compiled)().unwrap();
                let key = store.key_for(&(e.model)(), &(e.spec)(), &dbs, &limits);
                let path = store.put(key, &cf, None).unwrap();
                (key, path)
            })
            .collect()
    }; // first store closed here
    let reopened = ShardedStore::open(&root, 8).unwrap();
    for (entry, (key, path)) in suite().iter().zip(&keys) {
        assert_eq!(
            reopened.key_for(&(entry.model)(), &(entry.spec)(), &dbs, &limits),
            *key,
            "{}: fingerprint stable across open/close",
            entry.info.name
        );
        let expected_dir = shard_root(&root, reopened.shard_of(*key), 8);
        assert_eq!(path.parent().unwrap(), expected_dir, "{}", entry.info.name);
        match reopened.load_verified(*key, &(entry.model)(), &(entry.spec)(), &dbs) {
            LoadOutcome::Hit { .. } => {}
            other => panic!("{}: expected hit after reopen, got {other:?}", entry.info.name),
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Uniformity: across 1k random fingerprints, every shard's load is
/// within 2x of the uniform expectation, for several shard counts. (FNV
/// output bits are uniform; the router scales the top 16 bits, so the
/// bound holds with huge margin — the property pins against a future
/// router accidentally folding low-entropy bits.)
#[test]
fn routing_is_uniform_within_2x_over_1k_random_keys() {
    for nshards in [2usize, 4, 8, 16] {
        check(&format!("uniform over {nshards} shards"), 1, |rng: &mut Rng| {
            let mut counts = vec![0usize; nshards];
            for _ in 0..1000 {
                counts[shard_of_key(Fingerprint(rng.next_u64()), nshards)] += 1;
            }
            let expected = 1000 / nshards;
            for (shard, &n) in counts.iter().enumerate() {
                assert!(
                    n <= 2 * expected && n >= expected / 2,
                    "shard {shard}/{nshards}: {n} keys vs uniform {expected} (2x bound)"
                );
            }
        });
    }
}

/// The 1-shard configuration is **byte-equivalent** to a plain single
/// store: every artifact lives flat at `<root>/<program>-<key>.json`, with
/// the same bytes the 8-shard store files in its shard directory (the
/// envelope never depends on the shard count), and a flat file carried
/// over by hand — as from a pre-sharding store — is served by a 1-shard
/// store opened on it. This is the regression anchor for all pre-sharding
/// behavior.
#[test]
fn one_shard_config_is_byte_equivalent_to_plain_store() {
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let flat_root = scratch("flat-one");
    let striped_root = scratch("flat-eight");
    let carried_root = scratch("flat-carried");
    std::fs::create_dir_all(&carried_root).unwrap();
    let flat = ShardedStore::open(&flat_root, 1).unwrap();
    let striped = ShardedStore::open(&striped_root, 8).unwrap();
    for entry in suite() {
        let model = (entry.model)();
        let spec = (entry.spec)();
        let cf = (entry.compiled)().unwrap();
        let key = flat.key_for(&model, &spec, &dbs, &limits);
        assert_eq!(key, striped.key_for(&model, &spec, &dbs, &limits), "{}", entry.info.name);
        let flat_path = flat.put(key, &cf, None).unwrap();
        let striped_path = striped.put(key, &cf, None).unwrap();
        // Flat layout: the artifact sits directly under the root…
        let name = format!("{}-{key}.json", entry.info.name);
        assert_eq!(flat_path, flat_root.join(&name), "{}", entry.info.name);
        // …with the same bytes the striped store wrote.
        let bytes = std::fs::read(&flat_path).unwrap();
        assert_eq!(
            bytes,
            std::fs::read(&striped_path).unwrap(),
            "{}: 1-shard artifact bytes must match the 8-shard store's",
            entry.info.name
        );
        // A carried-over flat file is served by a 1-shard store.
        std::fs::write(carried_root.join(&name), &bytes).unwrap();
        let carried = ShardedStore::open(&carried_root, 1).unwrap();
        match carried.load_verified(key, &model, &spec, &dbs) {
            LoadOutcome::Hit { cf: loaded, .. } => assert_eq!(loaded.function, cf.function),
            other => panic!("{}: flat artifact must be served: {other:?}", entry.info.name),
        }
    }
    // No shard directories were created in the 1-shard layout.
    assert!(
        !std::fs::read_dir(&flat_root)
            .unwrap()
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().starts_with("shard-")),
        "1-shard config must not create shard directories"
    );
    for root in [&flat_root, &striped_root, &carried_root] {
        let _ = std::fs::remove_dir_all(root);
    }
}
