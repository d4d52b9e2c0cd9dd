//! The per-certificate validation context is derived data, never trusted.
//! Once a check has filled it, changing anything it was derived from — a
//! byte of a model table, the spec, the checker seed, the certified body —
//! must make the next validation recompute, and decide exactly as a
//! certificate with an empty context does. A decoded artifact starts
//! empty.

use rupicola::core::check::{check_with, differential_inputs, CheckConfig, CheckError};
use rupicola::core::serial::{decode_compiled_function, encode_compiled_function};
use rupicola::core::{CompiledFunction, Hyp};
use rupicola::ext::standard_dbs;
use rupicola::lang::dsl::{array_len_b, var, word_lit};
use rupicola::lang::Value;
use rupicola::opt::{optimize_compiled, validate_candidate, PipelineConfig};
use rupicola::programs::perf_suite;
use rupicola::rv::validate_artifact;
use rupicola::{lower_validated, RvPipelineConfig};

/// `hex_enc`: a perf-suite program with an inline model table.
fn hex_enc() -> CompiledFunction {
    let entry = perf_suite().into_iter().find(|e| e.info.name == "hex_enc").unwrap();
    (entry.compiled)().unwrap()
}

/// The same certificate with an empty context.
fn fresh(cf: &CompiledFunction) -> CompiledFunction {
    decode_compiled_function(&encode_compiled_function(cf)).unwrap()
}

#[test]
fn a_decoded_certificate_starts_with_an_empty_context() {
    let cf = hex_enc();
    assert!(cf.validation.is_empty());
    check_with(&cf, &standard_dbs(), &CheckConfig::default()).unwrap();
    assert!(!cf.validation.is_empty(), "the check fills the context");
    assert!(!cf.clone().validation.is_empty(), "clones share it");
    let decoded = fresh(&cf);
    assert!(decoded.validation.is_empty(), "the context is never serialized");
    assert_eq!(decoded, cf, "equality ignores the context");
}

#[test]
fn a_flipped_model_table_byte_is_rejected_after_the_context_is_filled() {
    let dbs = standard_dbs();
    let config = CheckConfig::default();
    let mut cf = hex_enc();
    check_with(&cf, &dbs, &config).unwrap();
    let Value::ByteList(bytes) = &mut cf.model.tables[0].data else {
        panic!("hex_enc's digit table is a byte list")
    };
    bytes[0] ^= 0xFF;

    let verdict = check_with(&cf, &dbs, &config);
    assert!(verdict.is_err(), "a stale context accepted the mutated model");
    assert_eq!(verdict, check_with(&fresh(&cf), &dbs, &config));
    let candidate = validate_candidate(&cf, &cf.function, &dbs, &config);
    assert!(candidate.is_err(), "a stale context accepted the mutated model");
    assert_eq!(candidate, validate_candidate(&fresh(&cf), &cf.function, &dbs, &config));
}

#[test]
fn a_changed_spec_is_redecided() {
    let dbs = standard_dbs();
    let config = CheckConfig::default();
    let mut cf = hex_enc();
    check_with(&cf, &dbs, &config).unwrap();
    // A precondition no vector satisfies: a stale context would keep
    // running the old vectors and pass.
    let param = cf.model.params[0].clone();
    cf.spec = cf.spec.with_hint(Hyp::LtU(array_len_b(var(&param)), word_lit(0)));

    let verdict = check_with(&cf, &dbs, &config);
    assert!(matches!(verdict, Err(CheckError::InsufficientCoverage { .. })), "got {verdict:?}");
    assert_eq!(verdict, check_with(&fresh(&cf), &dbs, &config));
    let candidate = validate_candidate(&cf, &cf.function, &dbs, &config);
    assert!(candidate.is_err());
    assert_eq!(candidate, validate_candidate(&fresh(&cf), &cf.function, &dbs, &config));
}

#[test]
fn another_seed_is_redecided() {
    let dbs = standard_dbs();
    let config = CheckConfig::default();
    let mut cf = hex_enc();
    check_with(&cf, &dbs, &config).unwrap();
    optimize_compiled(&mut cf, &dbs, &PipelineConfig::full(), &config);
    let body = cf.optimized.clone().unwrap_or_else(|| cf.function.clone());

    let other = CheckConfig { seed: config.seed ^ 0x5EED_0000, ..config.clone() };
    let inputs = |cf: &CompiledFunction, config: &CheckConfig| {
        differential_inputs(cf, config).into_iter().map(|i| (i.desc, i.args)).collect::<Vec<_>>()
    };
    assert_ne!(inputs(&cf, &other), inputs(&cf, &config), "the seed moves the vectors");
    assert_eq!(inputs(&cf, &other), inputs(&fresh(&cf), &other));
    assert_eq!(check_with(&cf, &dbs, &other), check_with(&fresh(&cf), &dbs, &other));
    assert_eq!(
        validate_candidate(&cf, &body, &dbs, &other),
        validate_candidate(&fresh(&cf), &body, &dbs, &other)
    );
}

#[test]
fn a_changed_certified_body_is_not_judged_by_stale_reference_runs() {
    let config = CheckConfig::default();
    let mut cf = hex_enc();
    let (artifact, _) = lower_validated(&cf, &RvPipelineConfig::full(), &config).unwrap();
    validate_artifact(&cf, &artifact, &config).unwrap();
    // The artifact no longer lowers the certified body.
    cf.function.body = rupicola::bedrock::Cmd::Skip;

    let verdict = validate_artifact(&cf, &artifact, &config);
    assert!(verdict.is_err(), "stale reference runs accepted the artifact");
    assert_eq!(verdict, validate_artifact(&fresh(&cf), &artifact, &config));
}
