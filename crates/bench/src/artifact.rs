//! The `BENCH_<label>.json` artifact: schema, writer and typed reader.
//!
//! One artifact is one collector run: environment metadata plus, per
//! benchmark, the robust wall-time summary ([`SampleStats`], in ns per
//! iteration) and the *deterministic counters* captured from a traced
//! run (total cycles and per-event-class totals).  Wall times are always
//! machine-local — the artifact says so explicitly — but the counters
//! are exact replayable facts: any change between two artifacts is a
//! real behavioral change in the engines, which is what the regression
//! gate in [`crate::compare`] gates hard on.
//!
//! Writing uses the report crate's hand-rolled [`Json`] emitter; reading
//! uses the bench crate's own parser ([`crate::jsonio`]): the workspace
//! stays hermetic, and `write → read` round-trips every field.

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use skilltax_report::Json;

use crate::jsonio::{self, JsonParseError};
use crate::stats::SampleStats;

/// Current artifact schema version.  Bump on any incompatible change;
/// the reader rejects every other version with a typed error.
pub const SCHEMA_VERSION: i64 = 1;

/// Longest label (or history commit id) accepted by [`validate_label`].
pub const MAX_LABEL_LEN: usize = 64;

/// Validate a label that will be interpolated into a file name
/// (`BENCH_<label>.json`, `artifacts/history/<label>/…`).
///
/// Accepted: 1–[`MAX_LABEL_LEN`] characters from `[A-Za-z0-9._-]`, with
/// at least one character that is not a dot (so `.` and `..` — path
/// traversal once a label names a directory — are rejected).  Everything
/// else is a typed [`ArtifactError::InvalidLabel`]: labels reach this
/// code from service requests, so `/`, `..` and friends must die at
/// write time, not escape the artifacts directory.
pub fn validate_label(label: &str) -> Result<(), ArtifactError> {
    let invalid = |reason: &str| {
        Err(ArtifactError::InvalidLabel {
            label: label.to_owned(),
            reason: reason.to_owned(),
        })
    };
    if label.is_empty() {
        return invalid("empty");
    }
    if label.len() > MAX_LABEL_LEN {
        return invalid("longer than 64 characters");
    }
    if !label
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
    {
        return invalid("characters outside [A-Za-z0-9._-]");
    }
    if label.bytes().all(|b| b == b'.') {
        return invalid("only dots (path traversal)");
    }
    Ok(())
}

/// How deep the collection that produced an artifact went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionMode {
    /// Full-depth timing run (local perf work).
    Full,
    /// Few short batches (CI smoke).
    Quick,
    /// Counters are the payload; wall times taken minimally and only to
    /// keep the schema uniform (the committed baseline's mode).
    DeterministicOnly,
}

impl CollectionMode {
    /// The stable string stored in the artifact.
    pub fn as_str(&self) -> &'static str {
        match self {
            CollectionMode::Full => "full",
            CollectionMode::Quick => "quick",
            CollectionMode::DeterministicOnly => "deterministic-only",
        }
    }

    /// Parse the stable string form.
    pub fn from_str_opt(s: &str) -> Option<CollectionMode> {
        match s {
            "full" => Some(CollectionMode::Full),
            "quick" => Some(CollectionMode::Quick),
            "deterministic-only" => Some(CollectionMode::DeterministicOnly),
            _ => None,
        }
    }
}

/// Environment metadata recorded with every artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvMeta {
    /// `std::env::consts::OS` at collection time.
    pub os: String,
    /// `std::env::consts::ARCH` at collection time.
    pub arch: String,
    /// Timed batches per benchmark.
    pub batches: u64,
    /// Target duration of one timed batch, in milliseconds.
    pub batch_target_ms: u64,
}

impl EnvMeta {
    /// Metadata for the current process.
    pub fn current(batches: u64, batch_target_ms: u64) -> EnvMeta {
        EnvMeta {
            os: std::env::consts::OS.to_owned(),
            arch: std::env::consts::ARCH.to_owned(),
            batches,
            batch_target_ms,
        }
    }
}

/// One benchmark's record in the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Stable benchmark name (`family/workload/size`).
    pub name: String,
    /// Suite group (e.g. `taxonomy`, `machine.array`).
    pub group: String,
    /// Iterations per timed batch after calibration.
    pub iters_per_batch: u64,
    /// Robust wall-time summary, in ns per iteration (machine-local).
    pub wall_ns: SampleStats,
    /// Deterministic counters from one traced run: `cycles` plus
    /// `event.<class>` totals.  Exactly reproducible, gated hard.
    pub counters: BTreeMap<String, u64>,
}

/// One collector run, ready to write as `BENCH_<label>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Schema version ([`SCHEMA_VERSION`] when written by this code).
    pub schema_version: i64,
    /// Run label (`baseline`, `smoke`, a branch name, ...).
    pub label: String,
    /// Collection depth.
    pub mode: CollectionMode,
    /// Environment metadata.
    pub env: EnvMeta,
    /// Per-benchmark records, in suite order.
    pub benchmarks: Vec<BenchRecord>,
}

/// Why an artifact could not be read.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The file could not be read.
    Io {
        /// Path we tried to read.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The bytes were not valid JSON.
    Parse(JsonParseError),
    /// The document is valid JSON but carries a different schema version.
    SchemaVersion {
        /// Version found in the document.
        found: i64,
        /// Version this reader understands.
        expected: i64,
    },
    /// The document is valid JSON of the right version but a field is
    /// missing or has the wrong shape.
    Malformed {
        /// Dotted path of the offending field.
        field: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The artifact label cannot safely name a file (see
    /// [`validate_label`]).
    InvalidLabel {
        /// The offending label.
        label: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io { path, message } => {
                write!(f, "cannot read artifact {path}: {message}")
            }
            ArtifactError::Parse(e) => write!(f, "artifact is not valid JSON: {e}"),
            ArtifactError::SchemaVersion { found, expected } => write!(
                f,
                "artifact schema version {found} is not the supported version {expected}; \
                 re-record it with bench_collect"
            ),
            ArtifactError::Malformed { field, reason } => {
                write!(f, "artifact field '{field}' is malformed: {reason}")
            }
            ArtifactError::InvalidLabel { label, reason } => {
                write!(
                    f,
                    "artifact label {label:?} cannot name a file ({reason}); \
                     use 1-64 characters from [A-Za-z0-9._-]"
                )
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<JsonParseError> for ArtifactError {
    fn from(e: JsonParseError) -> Self {
        ArtifactError::Parse(e)
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn stats_to_json(s: &SampleStats) -> Json {
    Json::obj(vec![
        ("samples", Json::int(s.samples as i64)),
        ("non_finite", Json::int(s.non_finite as i64)),
        ("kept", Json::int(s.kept as i64)),
        ("min", num(s.min)),
        ("max", num(s.max)),
        ("mean", num(s.mean)),
        ("p10", num(s.p10)),
        ("p50", num(s.p50)),
        ("p90", num(s.p90)),
        ("mad", num(s.mad)),
        ("noise_floor_frac", num(s.noise_floor_frac)),
    ])
}

impl Artifact {
    /// The artifact as a [`Json`] tree (deterministic field order).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::int(self.schema_version)),
            ("tool", Json::str("skilltax-bench/collector")),
            ("label", Json::str(&self.label)),
            ("mode", Json::str(self.mode.as_str())),
            // Wall times never transfer across machines; say so in-band.
            ("wall_time_scope", Json::str("machine-local")),
            (
                "env",
                Json::obj(vec![
                    ("os", Json::str(&self.env.os)),
                    ("arch", Json::str(&self.env.arch)),
                    ("batches", Json::int(self.env.batches as i64)),
                    (
                        "batch_target_ms",
                        Json::int(self.env.batch_target_ms as i64),
                    ),
                ]),
            ),
            (
                "benchmarks",
                Json::Arr(
                    self.benchmarks
                        .iter()
                        .map(|b| {
                            Json::obj(vec![
                                ("name", Json::str(&b.name)),
                                ("group", Json::str(&b.group)),
                                ("iters_per_batch", Json::int(b.iters_per_batch as i64)),
                                ("wall_ns", stats_to_json(&b.wall_ns)),
                                (
                                    "counters",
                                    Json::Obj(
                                        b.counters
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::int(*v as i64)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Serialise to the on-disk JSON form.
    pub fn emit(&self) -> String {
        let mut out = self.to_json().emit();
        out.push('\n');
        out
    }

    /// Write to `path` (see [`Artifact::emit`]), first rejecting labels
    /// that cannot safely name a file ([`validate_label`]): the label is
    /// interpolated into `BENCH_<label>.json`-style paths by every
    /// caller, so a `/` or `..` smuggled in by a service request must be
    /// a typed error here, not a file outside the artifacts directory.
    ///
    /// The write is atomic: the text goes to a sibling temporary file,
    /// which is synced to disk and renamed over `path`, and then the
    /// directory is synced.  A crash leaves either the previous file or
    /// the complete new one, never a torn history entry.  On failure the
    /// temporary file is removed.
    pub fn write_file(&self, path: &Path) -> Result<(), ArtifactError> {
        validate_label(&self.label)?;
        write_atomically(path, self.emit().as_bytes()).map_err(|e| ArtifactError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Parse artifact text, rejecting unknown schema versions with a
    /// typed [`ArtifactError::SchemaVersion`].
    pub fn parse(text: &str) -> Result<Artifact, ArtifactError> {
        Artifact::from_json(&jsonio::parse(text)?)
    }

    /// Read and parse `path`.
    pub fn read_file(path: &Path) -> Result<Artifact, ArtifactError> {
        let text = std::fs::read_to_string(path).map_err(|e| ArtifactError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Artifact::parse(&text)
    }

    /// Build from an already-parsed [`Json`] tree.
    pub fn from_json(json: &Json) -> Result<Artifact, ArtifactError> {
        let root = as_obj(json, "$")?;
        let version = get_i64(root, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(ArtifactError::SchemaVersion {
                found: version,
                expected: SCHEMA_VERSION,
            });
        }
        let mode_str = get_str(root, "mode")?;
        let mode = CollectionMode::from_str_opt(&mode_str)
            .ok_or_else(|| malformed("mode", format!("unknown collection mode '{mode_str}'")))?;
        let env_json = get(root, "env")?;
        let env_obj = as_obj(env_json, "env")?;
        let env = EnvMeta {
            os: get_str(env_obj, "env.os")?,
            arch: get_str(env_obj, "env.arch")?,
            batches: get_u64(env_obj, "env.batches")?,
            batch_target_ms: get_u64(env_obj, "env.batch_target_ms")?,
        };
        let benchmarks_json = get(root, "benchmarks")?;
        let Json::Arr(items) = benchmarks_json else {
            return Err(malformed("benchmarks", "expected an array"));
        };
        let mut benchmarks = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let field = format!("benchmarks[{i}]");
            let obj = as_obj(item, &field)?;
            let wall_json = get(obj, &format!("{field}.wall_ns"))?;
            let wall_obj = as_obj(wall_json, &format!("{field}.wall_ns"))?;
            let wall_ns = SampleStats {
                samples: get_u64(wall_obj, "wall_ns.samples")? as usize,
                // Absent in artifacts written before the non-finite
                // filter existed; default 0 keeps them readable.
                non_finite: get_u64_or(wall_obj, "wall_ns.non_finite", 0)? as usize,
                kept: get_u64(wall_obj, "wall_ns.kept")? as usize,
                min: get_f64(wall_obj, "wall_ns.min")?,
                max: get_f64(wall_obj, "wall_ns.max")?,
                mean: get_f64(wall_obj, "wall_ns.mean")?,
                p10: get_f64(wall_obj, "wall_ns.p10")?,
                p50: get_f64(wall_obj, "wall_ns.p50")?,
                p90: get_f64(wall_obj, "wall_ns.p90")?,
                mad: get_f64(wall_obj, "wall_ns.mad")?,
                noise_floor_frac: get_f64(wall_obj, "wall_ns.noise_floor_frac")?,
            };
            let counters_json = get(obj, &format!("{field}.counters"))?;
            let counters_obj = as_obj(counters_json, &format!("{field}.counters"))?;
            let mut counters = BTreeMap::new();
            for (key, value) in counters_obj {
                counters.insert(
                    key.clone(),
                    to_u64(value, &format!("{field}.counters.{key}"))?,
                );
            }
            benchmarks.push(BenchRecord {
                name: get_str(obj, &format!("{field}.name"))?,
                group: get_str(obj, &format!("{field}.group"))?,
                iters_per_batch: get_u64(obj, &format!("{field}.iters_per_batch"))?,
                wall_ns,
                counters,
            });
        }
        Ok(Artifact {
            schema_version: version,
            label: get_str(root, "label")?,
            mode,
            env,
            benchmarks,
        })
    }

    /// Look up one benchmark record by name.
    pub fn benchmark(&self, name: &str) -> Option<&BenchRecord> {
        self.benchmarks.iter().find(|b| b.name == name)
    }
}

fn malformed(field: &str, reason: impl Into<String>) -> ArtifactError {
    ArtifactError::Malformed {
        field: field.to_owned(),
        reason: reason.into(),
    }
}

fn as_obj<'a>(json: &'a Json, field: &str) -> Result<&'a Vec<(String, Json)>, ArtifactError> {
    match json {
        Json::Obj(pairs) => Ok(pairs),
        _ => Err(malformed(field, "expected an object")),
    }
}

fn get<'a>(obj: &'a [(String, Json)], field: &str) -> Result<&'a Json, ArtifactError> {
    let key = field.rsplit('.').next().expect("split is non-empty");
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| malformed(field, "missing"))
}

fn get_str(obj: &[(String, Json)], field: &str) -> Result<String, ArtifactError> {
    match get(obj, field)? {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(malformed(field, "expected a string")),
    }
}

fn get_f64(obj: &[(String, Json)], field: &str) -> Result<f64, ArtifactError> {
    match get(obj, field)? {
        Json::Num(n) => Ok(*n),
        _ => Err(malformed(field, "expected a number")),
    }
}

fn to_u64(json: &Json, field: &str) -> Result<u64, ArtifactError> {
    match json {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9e15 => Ok(*n as u64),
        Json::Num(_) => Err(malformed(field, "expected a non-negative integer")),
        _ => Err(malformed(field, "expected a number")),
    }
}

fn get_u64(obj: &[(String, Json)], field: &str) -> Result<u64, ArtifactError> {
    to_u64(get(obj, field)?, field)
}

/// Like [`get_u64`], but a *missing* field yields `default` (present
/// fields of the wrong shape still error).
fn get_u64_or(obj: &[(String, Json)], field: &str, default: u64) -> Result<u64, ArtifactError> {
    let key = field.rsplit('.').next().expect("split is non-empty");
    match obj.iter().find(|(k, _)| k == key) {
        Some((_, value)) => to_u64(value, field),
        None => Ok(default),
    }
}

fn get_i64(obj: &[(String, Json)], field: &str) -> Result<i64, ArtifactError> {
    match get(obj, field)? {
        Json::Num(n) if n.fract() == 0.0 => Ok(*n as i64),
        _ => Err(malformed(field, "expected an integer")),
    }
}

/// Write `bytes` to `path` through a synced sibling temporary file, a
/// rename and a sync of the directory (see [`Artifact::write_file`]).
fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let Some(name) = path.file_name() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "artifact path names no file",
        ));
    };
    let mut tmp_name = OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let written = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
        return written;
    }
    // The rename itself is durable only once the directory is synced.
    let dir = path
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small but fully-populated artifact for tests.
    pub(crate) fn sample_artifact() -> Artifact {
        let mut counters = BTreeMap::new();
        counters.insert("cycles".to_owned(), 123);
        counters.insert("event.issue".to_owned(), 45);
        Artifact {
            schema_version: SCHEMA_VERSION,
            label: "test".to_owned(),
            mode: CollectionMode::Quick,
            env: EnvMeta::current(3, 2),
            benchmarks: vec![BenchRecord {
                name: "machine/vector_add/uni/64".to_owned(),
                group: "machine.uni".to_owned(),
                iters_per_batch: 1024,
                wall_ns: SampleStats::from_samples(&[10.0, 11.0, 10.5, 12.0]),
                counters,
            }],
        }
    }

    #[test]
    fn write_read_round_trip_preserves_every_field() {
        let original = sample_artifact();
        let parsed = Artifact::parse(&original.emit()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn wrong_schema_version_is_a_typed_error() {
        let text = sample_artifact()
            .emit()
            .replace("\"schema_version\":1", "\"schema_version\":999");
        match Artifact::parse(&text) {
            Err(ArtifactError::SchemaVersion { found, expected }) => {
                assert_eq!((found, expected), (999, SCHEMA_VERSION));
            }
            other => panic!("expected SchemaVersion error, got {other:?}"),
        }
    }

    #[test]
    fn missing_field_is_a_malformed_error() {
        let text = sample_artifact().emit().replace("\"label\":\"test\",", "");
        match Artifact::parse(&text) {
            Err(ArtifactError::Malformed { field, .. }) => assert_eq!(field, "label"),
            other => panic!("expected Malformed error, got {other:?}"),
        }
    }

    #[test]
    fn labels_that_escape_the_artifacts_directory_are_rejected() {
        for bad in [
            "",
            ".",
            "..",
            "...",
            "../evil",
            "a/b",
            "a\\b",
            "a b",
            "a\nb",
            "label\0",
            &"x".repeat(65),
        ] {
            assert!(
                matches!(validate_label(bad), Err(ArtifactError::InvalidLabel { .. })),
                "{bad:?} should be rejected"
            );
        }
        for good in ["baseline", "pr-7", "v1.2.3", "a", "release_candidate.1"] {
            assert!(validate_label(good).is_ok(), "{good:?} should be accepted");
        }
    }

    #[test]
    fn write_file_refuses_a_traversal_label() {
        let mut artifact = sample_artifact();
        artifact.label = "../escape".to_owned();
        let path = std::env::temp_dir().join("skilltax_should_never_exist.json");
        match artifact.write_file(&path) {
            Err(ArtifactError::InvalidLabel { label, .. }) => assert_eq!(label, "../escape"),
            other => panic!("expected InvalidLabel, got {other:?}"),
        }
        assert!(!path.exists());
    }

    #[test]
    fn artifacts_without_the_non_finite_field_still_parse() {
        let text = sample_artifact().emit().replace("\"non_finite\":0,", "");
        let parsed = Artifact::parse(&text).expect("pre-non_finite artifacts stay readable");
        assert_eq!(parsed.benchmarks[0].wall_ns.non_finite, 0);
    }
}
