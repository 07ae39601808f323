//! Output checks: the outcome rules every served response must meet, and
//! a byte-for-byte replay of a fixed prefix through a fresh engine.

use skilltax_machine::CancelToken;
use skilltax_service::proto::{outcome_json, parse_request};
use skilltax_service::{Engine, EngineConfig};

use crate::gen::{Req, Route};

/// Requests of each closed-loop client stream the replay covers.
pub const PREFIX_PER_STREAM: usize = 64;
/// Scheduled `burst` jobs the replay covers.
pub const PREFIX_BURST: usize = 128;

/// The unsigned integer after `"key":` in a response body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let digits: &str = &body[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// The terminal outcome label of a job response body.
pub fn outcome_label(body: &str) -> Option<&str> {
    let at = body.find("\"outcome\":\"")? + "\"outcome\":\"".len();
    let rest = &body[at..];
    Some(&rest[..rest.find('"')?])
}

/// Does a `200` response body meet the rules for its route?  A job must
/// end in an outcome its kind allows; a metrics read must be the counter
/// snapshot.
pub fn response_ok(route: Route, body: &str) -> bool {
    match route {
        Route::Metrics => body.starts_with("{\"submitted\":"),
        _ => outcome_label(body).is_some_and(|label| route.allows(label)),
    }
}

/// Simulated instructions a response reports (0 for jobs that run no
/// machine).
pub fn instructions(body: &str) -> u64 {
    json_u64(body, "instructions").unwrap_or(0)
}

/// The replay result: responses that differ from the reference, and the
/// exact simulated instruction count of the replayed jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub checked: u64,
    pub mismatches: u64,
    pub sim_instr: u64,
}

/// Replay `(request, served body)` pairs through a fresh single-threaded
/// engine and compare the rendered outcome byte for byte.  Metrics reads
/// depend on service state and are skipped.
pub fn replay(prefix: &[(Req, String)]) -> Replay {
    let engine = Engine::new(EngineConfig::default());
    let token = CancelToken::new();
    let mut out = Replay::default();
    for (req, served) in prefix.iter().filter(|(r, _)| r.route != Route::Metrics) {
        let expected = match parse_request(&req.body) {
            Ok(request) => outcome_json(&engine.execute(&request, &token)),
            Err(rejection) => format!("unparseable request: {rejection}"),
        };
        out.checked += 1;
        out.sim_instr += instructions(&expected);
        if &expected != served {
            out.mismatches += 1;
            if out.mismatches <= 3 {
                eprintln!(
                    "verify: mismatch for {:?}\n  served:   {served}\n  expected: {expected}",
                    req.body
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_labels_and_counts_from_bodies() {
        let body = "{\"outcome\":\"degraded\",\"faults_injected\":3,\"retries\":1,\
                    \"stats\":{\"cycles\":10,\"instructions\":42}}";
        assert_eq!(outcome_label(body), Some("degraded"));
        assert_eq!(instructions(body), 42);
        assert_eq!(json_u64(body, "retries"), Some(1));
        assert!(response_ok(Route::FaultMulti, body));
        assert!(!response_ok(Route::Multi, body));
        assert!(!response_ok(Route::Uni, "{\"error\":\"x\"}"));
    }
}
