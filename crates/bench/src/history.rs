//! The perf-history store: an append-only, file-backed database of
//! bench artifacts indexed by label and commit.
//!
//! Layout (under a root such as `artifacts/history/`):
//!
//! ```text
//! history/
//!   <label>/                     one directory per artifact label
//!     000001-<commit>.json       plain BENCH artifacts (schema v1),
//!     000002-<commit>.json       named by append sequence + commit id
//!     .000001.claim              empty; claims its sequence number
//! ```
//!
//! Listing skips every dot-prefixed name: the sequence claims, and the
//! temporary file an artifact write leaves mid-write or after a crash.
//!
//! Properties the layout buys:
//!
//! * **Append-only** — recording never rewrites an existing file; the
//!   six-digit sequence prefix makes store order explicit, stable under
//!   lexicographic listing, and independent of filesystem timestamps.
//!   An append claims its number by creating the claim file with
//!   `create_new`, so concurrent appends never share one.
//! * **Self-describing** — every entry is a complete, independently
//!   parseable `BENCH_*.json` artifact; the "index" is the directory
//!   listing itself, so a partially written store never holds a stale
//!   index file.
//! * **Hostile-input safe** — labels and commit ids are validated by
//!   [`crate::artifact::validate_label`] before they touch a path; a
//!   `..` or `/` from a service-supplied label is a typed error, not an
//!   escape from the store.
//!
//! On top sit the two queries the ROADMAP's flexibility-frontier work
//! needs, both deterministic over the stored bytes: the *trajectory* of
//! one counter for one benchmark across all commits
//! ([`HistoryStore::trajectory`]), and the significance-triaged
//! *comparison* of two commits ([`HistoryStore::compare`], the
//! compare.js port in [`crate::triage`]).  [`HistoryPerfSource`] mounts
//! the same queries behind the service's `GET /perf/*` endpoints.

use std::fmt;
use std::path::{Path, PathBuf};

use skilltax_report::{Json, TrajectoryRow};
use skilltax_service::perf::{PerfError, PerfSource};

use crate::artifact::{validate_label, Artifact, ArtifactError, BenchRecord};
use crate::compare::Comparison;
use crate::triage::{classify_counter, classify_wall, Relevance, Triage, TriagedComparison};

/// Width of the zero-padded sequence prefix in entry file names.
const SEQ_WIDTH: usize = 6;

/// Why a history-store operation failed.  Everything is typed: a
/// corrupt or missing stored artifact is an error value, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoryError {
    /// The store directory could not be read or written.
    Io {
        /// Path involved.
        path: String,
        /// OS error message.
        message: String,
    },
    /// A label or commit id failed [`validate_label`].
    InvalidName(ArtifactError),
    /// A file in the store does not follow the `NNNNNN-<commit>.json`
    /// naming scheme (or duplicates a sequence number).
    CorruptEntry {
        /// Offending path.
        path: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A stored artifact exists but cannot be parsed.
    CorruptArtifact {
        /// Offending path.
        path: String,
        /// The underlying typed artifact error.
        error: ArtifactError,
    },
    /// The store has no entries for this label.
    UnknownLabel(String),
    /// No stored entry carries this commit id.
    UnknownCommit {
        /// Label searched.
        label: String,
        /// Commit asked for.
        commit: String,
    },
    /// No stored artifact for the label contains this benchmark.
    UnknownBenchmark(String),
    /// The benchmark exists, but no stored record carries this counter.
    UnknownCounter {
        /// Benchmark searched.
        bench: String,
        /// Counter asked for.
        counter: String,
    },
    /// The store holds several labels, so a query must name one.
    AmbiguousLabel(Vec<String>),
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Io { path, message } => {
                write!(f, "history store io error at {path}: {message}")
            }
            HistoryError::InvalidName(e) => write!(f, "{e}"),
            HistoryError::CorruptEntry { path, reason } => {
                write!(f, "history entry {path} is corrupt: {reason}")
            }
            HistoryError::CorruptArtifact { path, error } => {
                write!(f, "stored artifact {path} is corrupt: {error}")
            }
            HistoryError::UnknownLabel(label) => {
                write!(f, "history store has no label {label:?}")
            }
            HistoryError::UnknownCommit { label, commit } => {
                write!(f, "label {label:?} has no entry for commit {commit:?}")
            }
            HistoryError::UnknownBenchmark(bench) => {
                write!(f, "no stored artifact contains benchmark {bench:?}")
            }
            HistoryError::UnknownCounter { bench, counter } => write!(
                f,
                "benchmark {bench:?} has no counter {counter:?} in any stored artifact \
                 (counters are artifact keys plus wall.p50/wall.mean/wall.min/wall.p90)"
            ),
            HistoryError::AmbiguousLabel(labels) => write!(
                f,
                "store holds several labels {labels:?}; pass one explicitly"
            ),
        }
    }
}

impl std::error::Error for HistoryError {}

impl From<ArtifactError> for HistoryError {
    fn from(e: ArtifactError) -> Self {
        HistoryError::InvalidName(e)
    }
}

fn io_err(path: &Path, e: std::io::Error) -> HistoryError {
    HistoryError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// One entry in the store: the (seq, commit) index plus the file path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Append sequence number, unique and ascending within a label.
    pub seq: u64,
    /// Commit id the artifact was recorded at.
    pub commit: String,
    /// Path of the stored artifact.
    pub path: PathBuf,
}

impl HistoryEntry {
    /// The zero-padded sequence string used in file names and reports.
    pub fn seq_str(&self) -> String {
        format!("{:0SEQ_WIDTH$}", self.seq)
    }
}

/// One point of a trajectory: a commit, the counter value there (absent
/// when that artifact lacks the benchmark or counter), and the triage
/// of the step from the previous present value.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// Store sequence number.
    pub seq: u64,
    /// Commit id.
    pub commit: String,
    /// Counter value at this commit.
    pub value: Option<f64>,
    /// Significance triage of the delta against the previous present
    /// point (`None` for the first present point and for absent ones).
    pub step: Option<Triage>,
}

/// The answer to "trajectory of counter X for benchmark Y".
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Label queried.
    pub label: String,
    /// Benchmark name.
    pub bench: String,
    /// Counter key (an artifact counter, or `wall.p50` / `wall.mean` /
    /// `wall.min` / `wall.p90`).
    pub counter: String,
    /// Whether the counter is a deterministic artifact counter (exact,
    /// any change relevant) or a wall pseudo-counter (noise-gated).
    pub deterministic: bool,
    /// One point per stored commit, in append order.
    pub points: Vec<TrajectoryPoint>,
}

/// Extract `counter` from one benchmark record.  `wall.*` keys address
/// the robust wall summary; everything else is a deterministic counter.
fn counter_value(record: &BenchRecord, counter: &str) -> Option<f64> {
    match counter {
        "wall.p50" => Some(record.wall_ns.p50),
        "wall.mean" => Some(record.wall_ns.mean),
        "wall.min" => Some(record.wall_ns.min),
        "wall.p90" => Some(record.wall_ns.p90),
        _ => record.counters.get(counter).map(|v| *v as f64),
    }
}

fn is_wall_counter(counter: &str) -> bool {
    counter.starts_with("wall.")
}

/// The append-only artifact store rooted at one directory.
#[derive(Debug, Clone)]
pub struct HistoryStore {
    root: PathBuf,
}

impl HistoryStore {
    /// Open (without creating) a store rooted at `root`.  The directory
    /// is created lazily on first append, so opening a path that does
    /// not exist yet is fine — queries against it report empty.
    pub fn open(root: impl Into<PathBuf>) -> HistoryStore {
        HistoryStore { root: root.into() }
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Append `artifact` under its label, recorded at `commit`.
    /// Validates both names, never overwrites an existing entry, and
    /// returns the new entry's index.
    pub fn append(&self, commit: &str, artifact: &Artifact) -> Result<HistoryEntry, HistoryError> {
        validate_label(&artifact.label)?;
        validate_label(commit)?;
        let dir = self.root.join(&artifact.label);
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let mut seq = match self.entries(&artifact.label) {
            Ok(entries) => entries.last().map(|e| e.seq + 1).unwrap_or(1),
            Err(HistoryError::UnknownLabel(_)) => 1,
            Err(e) => return Err(e),
        };
        // Claims outlive their entries, so a number is never handed out
        // twice, even after a prune or a crash between claim and write.
        loop {
            let claim = dir.join(format!(".{seq:0SEQ_WIDTH$}.claim"));
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&claim)
            {
                Ok(_) => break,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => seq += 1,
                Err(e) => return Err(io_err(&claim, e)),
            }
        }
        let path = dir.join(format!("{seq:0SEQ_WIDTH$}-{commit}.json"));
        artifact.write_file(&path).map_err(|e| match e {
            ArtifactError::Io { path, message } => HistoryError::Io { path, message },
            other => HistoryError::InvalidName(other),
        })?;
        Ok(HistoryEntry {
            seq,
            commit: commit.to_owned(),
            path,
        })
    }

    /// The labels present in the store, sorted.
    pub fn labels(&self) -> Result<Vec<String>, HistoryError> {
        let mut labels = Vec::new();
        let read = match std::fs::read_dir(&self.root) {
            Ok(read) => read,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(labels),
            Err(e) => return Err(io_err(&self.root, e)),
        };
        for entry in read {
            let entry = entry.map_err(|e| io_err(&self.root, e))?;
            let path = entry.path();
            if path.is_dir() {
                if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                    labels.push(name.to_owned());
                }
            }
        }
        labels.sort();
        Ok(labels)
    }

    /// Resolve an optional label: an explicit one is validated against
    /// the store; `None` works when the store holds exactly one label.
    pub fn resolve_label(&self, label: Option<&str>) -> Result<String, HistoryError> {
        let labels = self.labels()?;
        match label {
            Some(l) => {
                if labels.iter().any(|have| have == l) {
                    Ok(l.to_owned())
                } else {
                    Err(HistoryError::UnknownLabel(l.to_owned()))
                }
            }
            None => match labels.as_slice() {
                [only] => Ok(only.clone()),
                [] => Err(HistoryError::UnknownLabel("(empty store)".to_owned())),
                _ => Err(HistoryError::AmbiguousLabel(labels)),
            },
        }
    }

    /// All entries for `label`, sorted by sequence number.  Dot-prefixed
    /// names (sequence claims, in-flight or crashed-mid-write temporary
    /// files) are skipped; other file names that do not follow the
    /// scheme, duplicate sequence numbers, and invalid commit ids are
    /// typed [`HistoryError::CorruptEntry`]s.
    pub fn entries(&self, label: &str) -> Result<Vec<HistoryEntry>, HistoryError> {
        validate_label(label)?;
        let dir = self.root.join(label);
        let read = match std::fs::read_dir(&dir) {
            Ok(read) => read,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(HistoryError::UnknownLabel(label.to_owned()))
            }
            Err(e) => return Err(io_err(&dir, e)),
        };
        let mut entries = Vec::new();
        for entry in read {
            let entry = entry.map_err(|e| io_err(&dir, e))?;
            let path = entry.path();
            let corrupt = |reason: &str| HistoryError::CorruptEntry {
                path: path.display().to_string(),
                reason: reason.to_owned(),
            };
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .ok_or_else(|| corrupt("file name is not UTF-8"))?;
            if name.starts_with('.') {
                continue;
            }
            let stem = name
                .strip_suffix(".json")
                .ok_or_else(|| corrupt("expected a .json entry"))?;
            let (seq_str, commit) = stem
                .split_once('-')
                .ok_or_else(|| corrupt("expected NNNNNN-<commit>.json"))?;
            if seq_str.len() != SEQ_WIDTH || !seq_str.bytes().all(|b| b.is_ascii_digit()) {
                return Err(corrupt("sequence prefix is not six digits"));
            }
            let seq: u64 = seq_str
                .parse()
                .map_err(|_| corrupt("sequence prefix does not parse"))?;
            if validate_label(commit).is_err() {
                return Err(corrupt("commit id fails label validation"));
            }
            entries.push(HistoryEntry {
                seq,
                commit: commit.to_owned(),
                path,
            });
        }
        if entries.is_empty() {
            return Err(HistoryError::UnknownLabel(label.to_owned()));
        }
        entries.sort_by_key(|e| e.seq);
        for pair in entries.windows(2) {
            if pair[0].seq == pair[1].seq {
                return Err(HistoryError::CorruptEntry {
                    path: pair[1].path.display().to_string(),
                    reason: format!("duplicate sequence number {}", pair[1].seq),
                });
            }
        }
        Ok(entries)
    }

    /// Load the artifact behind one entry; a corrupt file is a typed
    /// [`HistoryError::CorruptArtifact`], never a panic.
    pub fn load(&self, entry: &HistoryEntry) -> Result<Artifact, HistoryError> {
        Artifact::read_file(&entry.path).map_err(|error| match error {
            ArtifactError::Io { path, message } => HistoryError::Io { path, message },
            other => HistoryError::CorruptArtifact {
                path: entry.path.display().to_string(),
                error: other,
            },
        })
    }

    /// The latest entry recorded at `commit` under `label` (commits may
    /// legitimately repeat — a re-record supersedes).
    pub fn entry_for_commit(
        &self,
        label: &str,
        commit: &str,
    ) -> Result<HistoryEntry, HistoryError> {
        self.entries(label)?
            .into_iter()
            .rev()
            .find(|e| e.commit == commit)
            .ok_or_else(|| HistoryError::UnknownCommit {
                label: label.to_owned(),
                commit: commit.to_owned(),
            })
    }

    /// Answer "trajectory of counter X for benchmark Y": the counter's
    /// value at every stored commit, each step significance-classified
    /// (deterministic counters: any change is relevant; `wall.*`
    /// pseudo-counters: gated by the stored noise floors, the
    /// compare.js port in [`crate::triage`]).
    pub fn trajectory(
        &self,
        label: &str,
        bench: &str,
        counter: &str,
    ) -> Result<Trajectory, HistoryError> {
        let entries = self.entries(label)?;
        let deterministic = !is_wall_counter(counter);
        let mut points = Vec::with_capacity(entries.len());
        let mut bench_seen = false;
        let mut previous: Option<(f64, f64)> = None; // value, noise floor
        for entry in &entries {
            let artifact = self.load(entry)?;
            let record = artifact.benchmark(bench);
            bench_seen |= record.is_some();
            let value = record.and_then(|r| counter_value(r, counter));
            let step = match (previous, value, record) {
                (Some((prev, prev_floor)), Some(current), Some(rec)) => {
                    if deterministic {
                        Some(classify_counter(Some(prev as u64), Some(current as u64)))
                    } else if prev > 0.0 {
                        let rel = (current - prev) / prev;
                        let floor = prev_floor.max(rec.wall_ns.noise_floor_frac);
                        Some(classify_wall(rel, floor))
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let (Some(current), Some(rec)) = (value, record) {
                previous = Some((current, rec.wall_ns.noise_floor_frac));
            }
            points.push(TrajectoryPoint {
                seq: entry.seq,
                commit: entry.commit.clone(),
                value,
                step,
            });
        }
        if points.iter().all(|p| p.value.is_none()) {
            if !bench_seen {
                return Err(HistoryError::UnknownBenchmark(bench.to_owned()));
            }
            return Err(HistoryError::UnknownCounter {
                bench: bench.to_owned(),
                counter: counter.to_owned(),
            });
        }
        Ok(Trajectory {
            label: label.to_owned(),
            bench: bench.to_owned(),
            counter: counter.to_owned(),
            deterministic,
            points,
        })
    }

    /// Garbage-collect old entries under `label`, keeping the `keep`
    /// newest artifacts (by append sequence).  Returns the entries that
    /// were deleted, oldest first.
    ///
    /// `keep` is clamped to at least 1 — pruning can thin history but
    /// can never delete the newest artifact, so a `prune --keep 0` typo
    /// cannot destroy the one entry every trajectory and comparison
    /// anchors on.  Unknown labels are the same typed
    /// [`HistoryError::UnknownLabel`] the queries report; a store whose
    /// listing is corrupt refuses to prune rather than guessing which
    /// files are safe to remove.
    pub fn prune(&self, label: &str, keep: usize) -> Result<Vec<HistoryEntry>, HistoryError> {
        let entries = self.entries(label)?;
        let keep = keep.max(1);
        if entries.len() <= keep {
            return Ok(Vec::new());
        }
        let doomed: Vec<HistoryEntry> = entries[..entries.len() - keep].to_vec();
        for entry in &doomed {
            std::fs::remove_file(&entry.path).map_err(|e| io_err(&entry.path, e))?;
        }
        Ok(doomed)
    }

    /// The significance-triaged comparison of two stored commits.
    pub fn compare(
        &self,
        label: &str,
        from: &str,
        to: &str,
    ) -> Result<TriagedComparison, HistoryError> {
        let from_artifact = self.load(&self.entry_for_commit(label, from)?)?;
        let to_artifact = self.load(&self.entry_for_commit(label, to)?)?;
        Ok(TriagedComparison::of(Comparison::between(
            &from_artifact,
            &to_artifact,
        )))
    }
}

impl Trajectory {
    fn format_value(&self, value: f64) -> String {
        if self.deterministic {
            format!("{value:.0}")
        } else {
            format!("{value:.1}")
        }
    }

    /// Reduce to the plain report rows [`skilltax_report::trajectory`]
    /// renders.
    pub fn rows(&self) -> Vec<TrajectoryRow> {
        self.points
            .iter()
            .map(|p| TrajectoryRow {
                seq: format!("{:0SEQ_WIDTH$}", p.seq),
                commit: p.commit.clone(),
                value: p
                    .value
                    .map(|v| self.format_value(v))
                    .unwrap_or_else(|| "-".to_owned()),
                delta: p
                    .step
                    .map(|t| format!("{:+.1}%", t.rel_change * 100.0))
                    .unwrap_or_else(|| "-".to_owned()),
                triage: p
                    .step
                    .map(|t| t.relevance.label().to_owned())
                    .unwrap_or_else(|| "-".to_owned()),
            })
            .collect()
    }

    /// Relevance of the whole trajectory: the most relevant single
    /// step (what a triager would page through first).
    pub fn relevance(&self) -> Relevance {
        self.points
            .iter()
            .filter_map(|p| p.step.map(|t| t.relevance))
            .min()
            .unwrap_or(Relevance::Noise)
    }

    /// The trajectory as the JSON body `GET /perf/trajectory` returns.
    pub fn to_json(&self) -> Json {
        let points: Vec<Json> = self
            .points
            .iter()
            .map(|p| {
                let mut fields = vec![
                    ("seq", Json::int(p.seq as i64)),
                    ("commit", Json::str(&p.commit)),
                    ("value", p.value.map(Json::Num).unwrap_or(Json::Null)),
                ];
                if let Some(step) = &p.step {
                    fields.push(("rel_change", Json::Num(step.rel_change)));
                    fields.push(("relevance", Json::str(step.relevance.label())));
                    fields.push(("magnitude", Json::str(step.magnitude.label())));
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("label", Json::str(&self.label)),
            ("bench", Json::str(&self.bench)),
            ("counter", Json::str(&self.counter)),
            ("deterministic", Json::Bool(self.deterministic)),
            ("relevance", Json::str(self.relevance().label())),
            ("points", Json::Arr(points)),
        ])
    }
}

/// [`PerfSource`] over a [`HistoryStore`]: the glue that serves the
/// store read-only behind the service's `GET /perf/*` endpoints.
/// Queries re-read the store on every request — recording and serving
/// can interleave without coordination, and the source holds no cache
/// to invalidate.
#[derive(Debug, Clone)]
pub struct HistoryPerfSource {
    store: HistoryStore,
}

impl HistoryPerfSource {
    /// Serve `store`.
    pub fn new(store: HistoryStore) -> HistoryPerfSource {
        HistoryPerfSource { store }
    }
}

fn perf_err(e: HistoryError) -> PerfError {
    match e {
        HistoryError::UnknownLabel(_)
        | HistoryError::UnknownCommit { .. }
        | HistoryError::UnknownBenchmark(_)
        | HistoryError::UnknownCounter { .. } => PerfError::NotFound(e.to_string()),
        HistoryError::InvalidName(_) | HistoryError::AmbiguousLabel(_) => {
            PerfError::BadRequest(e.to_string())
        }
        HistoryError::Io { .. }
        | HistoryError::CorruptEntry { .. }
        | HistoryError::CorruptArtifact { .. } => PerfError::Internal(e.to_string()),
    }
}

impl PerfSource for HistoryPerfSource {
    fn benchmarks(&self, label: Option<&str>) -> Result<String, PerfError> {
        let labels = self.store.labels().map_err(perf_err)?;
        let chosen: Vec<String> = match label {
            Some(l) => vec![self.store.resolve_label(Some(l)).map_err(perf_err)?],
            None => labels.clone(),
        };
        let mut label_objs = Vec::with_capacity(chosen.len());
        for label in &chosen {
            let entries = self.store.entries(label).map_err(perf_err)?;
            // The latest artifact defines the inventory: benchmark
            // names and their counter keys.
            let latest = self
                .store
                .load(entries.last().expect("entries is non-empty"))
                .map_err(perf_err)?;
            let benches: Vec<Json> = latest
                .benchmarks
                .iter()
                .map(|b| {
                    Json::obj(vec![
                        ("name", Json::str(&b.name)),
                        ("group", Json::str(&b.group)),
                        (
                            "counters",
                            Json::Arr(b.counters.keys().map(Json::str).collect()),
                        ),
                    ])
                })
                .collect();
            let commits: Vec<Json> = entries
                .iter()
                .map(|e| {
                    Json::obj(vec![
                        ("seq", Json::int(e.seq as i64)),
                        ("commit", Json::str(&e.commit)),
                    ])
                })
                .collect();
            label_objs.push(Json::obj(vec![
                ("label", Json::str(label)),
                ("commits", Json::Arr(commits)),
                ("benchmarks", Json::Arr(benches)),
            ]));
        }
        Ok(Json::obj(vec![
            ("labels", Json::Arr(label_objs)),
            (
                "wall_counters",
                Json::Arr(
                    ["wall.p50", "wall.mean", "wall.min", "wall.p90"]
                        .iter()
                        .map(|s| Json::str(*s))
                        .collect(),
                ),
            ),
        ])
        .emit())
    }

    fn trajectory(
        &self,
        label: Option<&str>,
        bench: &str,
        counter: &str,
    ) -> Result<String, PerfError> {
        let label = self.store.resolve_label(label).map_err(perf_err)?;
        let trajectory = self
            .store
            .trajectory(&label, bench, counter)
            .map_err(perf_err)?;
        Ok(trajectory.to_json().emit())
    }

    fn compare(&self, label: Option<&str>, from: &str, to: &str) -> Result<String, PerfError> {
        let label = self.store.resolve_label(label).map_err(perf_err)?;
        for commit in [from, to] {
            validate_label(commit).map_err(|e| PerfError::BadRequest(e.to_string()))?;
        }
        let triaged = self.store.compare(&label, from, to).map_err(perf_err)?;
        Ok(triaged.to_json(&label, from, to).emit())
    }
}
