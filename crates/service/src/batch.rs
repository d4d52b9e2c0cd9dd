//! The JSON-lines batch protocol.
//!
//! One JSON object per line, responses in request order:
//!
//! ```text
//! request  := {"op":"ping"}                         health check
//!           | {"op":"compile","program":<name>}     compile one suite program
//!           | {"op":"compile","program":<name>,
//!              "deadline_ms":<u64>}                 … under a wall-clock deadline
//!           | {"op":"compile","program":<name>,
//!              "tenant":<id>}                       … billed to a tenant
//!           | {"op":"suite"}                        compile the whole suite
//!           | {"op":"stats"}                        report cache counters
//! response := {"ok":true, "op":..., ...}            per-request payload
//!           | {"ok":false, "error":<message>, ...}  malformed request / failed compile
//! ```
//!
//! This module is the protocol only: request parsing ([`parse_request`])
//! and the per-program response payload. The front-end that reads a batch
//! and answers it is [`crate::server::serve_concurrent`], which
//! also carries the in-band failure reporting (DESIGN.md §12): malformed
//! lines, expired deadlines, quota rejections and the `"degraded"` flag
//! are all response fields, never aborted batches.

use crate::incremental::{CachedResult, Provenance};
use rupicola_core::{CompileError, ResourceKind};
use rupicola_lang::json::{parse, Json};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Health check: liveness, store root, backend, degraded flag,
    /// format version. Touches neither disk nor engine.
    Ping,
    /// Compile (or serve from cache) one named suite program, optionally
    /// under a per-request wall-clock deadline in milliseconds and on
    /// behalf of a named tenant.
    Compile {
        /// Suite program name.
        program: String,
        /// Optional wall-clock budget
        /// ([`rupicola_core::EngineLimits::max_wall_ms`]).
        deadline_ms: Option<u64>,
        /// Optional tenant id — admission control and per-tenant
        /// accounting in the server ([`crate::server`]).
        tenant: Option<String>,
    },
    /// Compile the whole suite.
    Suite,
    /// Report the store's cache counters.
    Stats,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, missing/unknown
/// `op`, a missing `program` field, or a non-integer `deadline_ms`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let j = parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let op = j
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field `op`".to_string())?;
    match op {
        "ping" => Ok(Request::Ping),
        "compile" => {
            let program = j
                .get("program")
                .and_then(Json::as_str)
                .ok_or_else(|| "`compile` needs a string field `program`".to_string())?;
            let deadline_ms = match j.get("deadline_ms") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| "`deadline_ms` must be a non-negative integer".to_string())?,
                ),
            };
            let tenant = match j.get("tenant") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| "`tenant` must be a string".to_string())?
                        .to_string(),
                ),
            };
            Ok(Request::Compile { program: program.to_string(), deadline_ms, tenant })
        }
        "suite" => Ok(Request::Suite),
        "stats" => Ok(Request::Stats),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Whether a compile error is a wall-clock deadline expiry (reported
/// in-band as `"deadline_exceeded":true`).
fn is_deadline_exceeded(e: &CompileError) -> bool {
    matches!(
        e,
        CompileError::ResourceExhausted { resource: ResourceKind::WallClock, .. }
    )
}

pub(crate) fn program_response(r: &CachedResult) -> Json {
    let fields = match &r.result {
        Ok(cf) => vec![
            ("ok", Json::Bool(true)),
            ("program", Json::str(r.name)),
            ("cached", Json::Bool(r.provenance == Provenance::Cache)),
            ("statements", Json::U64(cf.function.statement_count() as u64)),
            ("derivation_nodes", Json::U64(cf.derivation.node_count as u64)),
            ("side_conditions", Json::U64(cf.derivation.side_cond_count as u64)),
            ("lemma_applications", Json::U64(cf.stats.lemma_applications as u64)),
        ],
        Err(e) => {
            let mut fields = vec![
                ("ok", Json::Bool(false)),
                ("program", Json::str(r.name)),
                ("error", Json::str(format!("{e}"))),
            ];
            if is_deadline_exceeded(e) {
                fields.push(("deadline_exceeded", Json::Bool(true)));
            }
            fields
        }
    };
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_request_accepts_the_grammar() {
        assert_eq!(
            parse_request(r#"{"op":"compile","program":"fnv1a"}"#).unwrap(),
            Request::Compile { program: "fnv1a".into(), deadline_ms: None, tenant: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"compile","program":"fnv1a","deadline_ms":250}"#).unwrap(),
            Request::Compile { program: "fnv1a".into(), deadline_ms: Some(250), tenant: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"compile","program":"fnv1a","tenant":"acme"}"#).unwrap(),
            Request::Compile {
                program: "fnv1a".into(),
                deadline_ms: None,
                tenant: Some("acme".into())
            }
        );
        assert!(parse_request(r#"{"op":"compile","program":"fnv1a","tenant":7}"#).is_err());
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"suite"}"#).unwrap(), Request::Suite);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert!(parse_request(r#"{"op":"compile","program":"fnv1a","deadline_ms":"soon"}"#)
            .is_err());
        assert!(parse_request(r#"{"op":"reboot"}"#).is_err());
        assert!(parse_request(r#"{"program":"fnv1a"}"#).is_err());
        assert!(parse_request("not json").is_err());
    }
}
