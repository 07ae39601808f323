//! Integration tests for the perf-history store: multi-commit round
//! trips, deterministic trajectory queries with triage buckets, typed
//! errors for corrupt or missing stored artifacts, and the
//! [`HistoryPerfSource`] served end-to-end over a real loopback socket.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use skilltax_bench::artifact::{Artifact, BenchRecord, CollectionMode, EnvMeta, SCHEMA_VERSION};
use skilltax_bench::history::{HistoryError, HistoryPerfSource, HistoryStore};
use skilltax_bench::stats::SampleStats;
use skilltax_bench::triage::Relevance;
use skilltax_service::{serve_with_perf, HttpConfig, Service, ServiceConfig};

/// A fresh store root under the system temp dir; removed by [`Scratch`]'s
/// drop so a failing assertion still cleans up.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "skilltax-history-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn record(name: &str, cycles: u64, p50: f64) -> BenchRecord {
    let mut counters = BTreeMap::new();
    counters.insert("cycles".to_owned(), cycles);
    // Tight samples: noise floor = max(0.05, 3 * MAD/median) = 0.06.
    let samples = vec![p50 * 0.98, p50, p50 * 1.02];
    BenchRecord {
        name: name.to_owned(),
        group: "test".to_owned(),
        iters_per_batch: 100,
        wall_ns: SampleStats::from_samples(&samples),
        counters,
    }
}

fn artifact(label: &str, benchmarks: Vec<BenchRecord>) -> Artifact {
    Artifact {
        schema_version: SCHEMA_VERSION,
        label: label.to_owned(),
        mode: CollectionMode::Quick,
        env: EnvMeta::current(3, 2),
        benchmarks,
    }
}

#[test]
fn a_multi_commit_history_round_trips() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    for (commit, cycles) in [("c1", 100), ("c2", 100), ("c3", 120)] {
        let a = artifact("smoke", vec![record("machine/x", cycles, 50.0)]);
        store.append(commit, &a).expect("append");
    }
    let entries = store.entries("smoke").expect("entries");
    assert_eq!(entries.len(), 3);
    assert_eq!(
        entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![1, 2, 3]
    );
    assert_eq!(entries[2].commit, "c3");
    assert!(entries[0].path.file_name().unwrap() == "000001-c1.json");
    let loaded = store.load(&entries[2]).expect("load");
    assert_eq!(loaded.benchmarks[0].counters["cycles"], 120);
    assert_eq!(store.labels().unwrap(), vec!["smoke"]);
}

#[test]
fn deterministic_counter_trajectories_triage_exactly() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    for (commit, cycles) in [("c1", 100u64), ("c2", 100), ("c3", 120)] {
        let a = artifact("smoke", vec![record("machine/x", cycles, 50.0)]);
        store.append(commit, &a).expect("append");
    }
    let t = store
        .trajectory("smoke", "machine/x", "cycles")
        .expect("trajectory");
    assert!(t.deterministic);
    assert_eq!(t.points.len(), 3);
    assert_eq!(t.points[0].value, Some(100.0));
    assert!(t.points[0].step.is_none(), "first point has no delta");
    // 100 -> 100: exact counters, unchanged is pure noise.
    assert_eq!(t.points[1].step.unwrap().relevance, Relevance::Noise);
    // 100 -> 120: any deterministic change is relevant.
    assert_eq!(t.points[2].step.unwrap().relevance, Relevance::Relevant);
    assert_eq!(t.relevance(), Relevance::Relevant);
    // Rendered rows carry the formatted classification for the report.
    let rows = t.rows();
    assert_eq!(rows[0].delta, "-");
    assert_eq!(rows[2].triage, "relevant");
    assert_eq!(rows[2].delta, "+20.0%");
    // Repeated queries over the same stored bytes are deterministic.
    assert_eq!(t, store.trajectory("smoke", "machine/x", "cycles").unwrap());
}

#[test]
fn wall_trajectories_gate_on_the_stored_noise_floor() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    // Noise floor is 0.06 (tight samples): +3% is noise, +21% is
    // relevant (factor well past 2 at floor 0.06).
    for (commit, p50) in [("c1", 100.0), ("c2", 103.0), ("c3", 125.0)] {
        let a = artifact("smoke", vec![record("machine/x", 100, p50)]);
        store.append(commit, &a).expect("append");
    }
    let t = store
        .trajectory("smoke", "machine/x", "wall.p50")
        .expect("trajectory");
    assert!(!t.deterministic);
    let s1 = t.points[1].step.unwrap();
    assert_eq!(s1.relevance, Relevance::Noise, "{s1:?}");
    let s2 = t.points[2].step.unwrap();
    assert_eq!(s2.relevance, Relevance::Relevant, "{s2:?}");
}

#[test]
fn unknown_benchmarks_and_counters_are_distinct_typed_errors() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    let a = artifact("smoke", vec![record("machine/x", 100, 50.0)]);
    store.append("c1", &a).expect("append");
    match store.trajectory("smoke", "machine/ghost", "cycles") {
        Err(HistoryError::UnknownBenchmark(name)) => assert_eq!(name, "machine/ghost"),
        other => panic!("expected UnknownBenchmark, got {other:?}"),
    }
    match store.trajectory("smoke", "machine/x", "teleports") {
        Err(HistoryError::UnknownCounter { counter, .. }) => assert_eq!(counter, "teleports"),
        other => panic!("expected UnknownCounter, got {other:?}"),
    }
    match store.entries("nothing-here") {
        Err(HistoryError::UnknownLabel(_)) => {}
        other => panic!("expected UnknownLabel, got {other:?}"),
    }
    match store.compare("smoke", "c1", "c9") {
        Err(HistoryError::UnknownCommit { commit, .. }) => assert_eq!(commit, "c9"),
        other => panic!("expected UnknownCommit, got {other:?}"),
    }
}

#[test]
fn corrupt_stored_artifacts_are_typed_errors_not_panics() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    let a = artifact("smoke", vec![record("machine/x", 100, 50.0)]);
    store.append("c1", &a).expect("append");
    // Overwrite the stored artifact with garbage: loading reports a
    // typed CorruptArtifact (and so do the queries above it).
    let entries = store.entries("smoke").unwrap();
    std::fs::write(&entries[0].path, "{not json").unwrap();
    match store.load(&entries[0]) {
        Err(HistoryError::CorruptArtifact { .. }) => {}
        other => panic!("expected CorruptArtifact, got {other:?}"),
    }
    match store.trajectory("smoke", "machine/x", "cycles") {
        Err(HistoryError::CorruptArtifact { .. }) => {}
        other => panic!("expected CorruptArtifact, got {other:?}"),
    }
    // A stray file that breaks the NNNNNN-<commit>.json scheme corrupts
    // the listing itself.
    std::fs::write(scratch.0.join("smoke").join("notes.txt"), "hi").unwrap();
    match store.entries("smoke") {
        Err(HistoryError::CorruptEntry { .. }) => {}
        other => panic!("expected CorruptEntry, got {other:?}"),
    }
}

#[test]
fn a_temp_file_left_mid_write_does_not_corrupt_the_listing() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    let a = artifact("smoke", vec![record("machine/x", 100, 50.0)]);
    store.append("c1", &a).expect("append");
    // The sibling an atomic artifact write leaves while it is in flight,
    // or for good after a crash.
    let temp = scratch.0.join("smoke").join(".000002-c2.json.4242.0.tmp");
    std::fs::write(&temp, "{half an artif").unwrap();
    let entries = store.entries("smoke").expect("listing skips the temp file");
    assert_eq!(entries.len(), 1);
    store.append("c2", &a).expect("append past it");
    let seqs: Vec<u64> = store
        .entries("smoke")
        .unwrap()
        .iter()
        .map(|e| e.seq)
        .collect();
    assert_eq!(seqs, vec![1, 2]);
    assert!(store.trajectory("smoke", "machine/x", "cycles").is_ok());
}

#[test]
fn concurrent_appends_claim_distinct_ascending_sequence_numbers() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    let claimed: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let appenders: Vec<_> = (0..2)
            .map(|t| {
                let store = &store;
                scope.spawn(move || {
                    (0..20)
                        .map(|i| {
                            let a = artifact("smoke", vec![record("machine/x", i, 50.0)]);
                            store.append(&format!("t{t}c{i}"), &a).expect("append").seq
                        })
                        .collect()
                })
            })
            .collect();
        appenders.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for seqs in &claimed {
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
    }
    let mut all: Vec<u64> = claimed.concat();
    all.sort_unstable();
    assert_eq!(all, (1..=40).collect::<Vec<u64>>());
    let listed: Vec<u64> = store
        .entries("smoke")
        .unwrap()
        .iter()
        .map(|e| e.seq)
        .collect();
    assert_eq!(listed, all);
}

#[test]
fn hostile_labels_and_commits_never_touch_the_filesystem() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    let a = artifact("smoke", vec![record("machine/x", 100, 50.0)]);
    assert!(matches!(
        store.append("../evil", &a),
        Err(HistoryError::InvalidName(_))
    ));
    let bad = artifact("../evil", vec![record("machine/x", 100, 50.0)]);
    assert!(matches!(
        store.append("c1", &bad),
        Err(HistoryError::InvalidName(_))
    ));
    assert!(matches!(
        store.entries("../evil"),
        Err(HistoryError::InvalidName(_))
    ));
    // Nothing escaped or was created outside the (still empty) root.
    assert_eq!(store.labels().unwrap(), Vec::<String>::new());
}

#[test]
fn label_resolution_is_explicit_when_ambiguous() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    let a = artifact("alpha", vec![record("machine/x", 100, 50.0)]);
    store.append("c1", &a).expect("append");
    assert_eq!(store.resolve_label(None).unwrap(), "alpha");
    let b = artifact("beta", vec![record("machine/x", 100, 50.0)]);
    store.append("c1", &b).expect("append");
    assert!(matches!(
        store.resolve_label(None),
        Err(HistoryError::AmbiguousLabel(_))
    ));
    assert_eq!(store.resolve_label(Some("beta")).unwrap(), "beta");
    assert!(matches!(
        store.resolve_label(Some("gamma")),
        Err(HistoryError::UnknownLabel(_))
    ));
}

#[test]
fn triaged_compare_buckets_the_diff() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    let from = artifact(
        "smoke",
        vec![
            record("machine/x", 100, 50.0),
            record("machine/y", 200, 80.0),
        ],
    );
    let to = artifact(
        "smoke",
        vec![
            record("machine/x", 100, 50.0),
            record("machine/y", 260, 80.0),
        ],
    );
    store.append("c1", &from).expect("append");
    store.append("c2", &to).expect("append");
    let triaged = store.compare("smoke", "c1", "c2").expect("compare");
    let counts = triaged.counts();
    assert_eq!(counts.relevant, 1, "{triaged:?}");
    assert_eq!(counts.noise, 1, "{triaged:?}");
    let json = triaged.to_json("smoke", "c1", "c2").emit();
    assert!(json.contains("\"relevant\":1"), "{json}");
    assert!(json.contains("machine/y"), "{json}");
    assert!(
        !json.contains("machine/x"),
        "unchanged bench leaked: {json}"
    );
}

#[test]
fn prune_keeps_the_newest_entries_and_reports_the_deleted() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    for (commit, cycles) in [
        ("c1", 100u64),
        ("c2", 110),
        ("c3", 120),
        ("c4", 130),
        ("c5", 140),
    ] {
        let a = artifact("smoke", vec![record("machine/x", cycles, 50.0)]);
        store.append(commit, &a).expect("append");
    }
    let deleted = store.prune("smoke", 2).expect("prune");
    assert_eq!(
        deleted
            .iter()
            .map(|e| e.commit.as_str())
            .collect::<Vec<_>>(),
        vec!["c1", "c2", "c3"],
        "oldest first"
    );
    for entry in &deleted {
        assert!(
            !entry.path.exists(),
            "{} should be gone",
            entry.path.display()
        );
    }
    let remaining = store.entries("smoke").expect("entries");
    assert_eq!(
        remaining
            .iter()
            .map(|e| e.commit.as_str())
            .collect::<Vec<_>>(),
        vec!["c4", "c5"]
    );
    // Sequence numbers survive pruning, so appends keep ascending and
    // trajectories over the survivors still line up.
    assert_eq!(
        remaining.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![4, 5]
    );
    let t = store
        .trajectory("smoke", "machine/x", "cycles")
        .expect("trajectory");
    assert_eq!(t.points.len(), 2);
    assert_eq!(t.points[1].value, Some(140.0));
    // A second prune at the same depth is a no-op.
    assert!(store
        .prune("smoke", 2)
        .expect("idempotent prune")
        .is_empty());
}

#[test]
fn prune_never_deletes_the_newest_artifact() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    for commit in ["c1", "c2", "c3"] {
        let a = artifact("smoke", vec![record("machine/x", 100, 50.0)]);
        store.append(commit, &a).expect("append");
    }
    // keep = 0 clamps to 1: the newest artifact always survives.
    let deleted = store.prune("smoke", 0).expect("prune");
    assert_eq!(deleted.len(), 2);
    let remaining = store.entries("smoke").expect("entries");
    assert_eq!(remaining.len(), 1);
    assert_eq!(remaining[0].commit, "c3");
    assert!(remaining[0].path.exists());
    // And pruning down to the single survivor again deletes nothing.
    assert!(store.prune("smoke", 0).expect("prune again").is_empty());
    assert_eq!(store.entries("smoke").expect("entries").len(), 1);
}

#[test]
fn prune_reports_unknown_labels_as_typed_errors() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    match store.prune("ghost", 3) {
        Err(HistoryError::UnknownLabel(label)) => assert_eq!(label, "ghost"),
        other => panic!("expected UnknownLabel, got {other:?}"),
    }
    // A corrupt listing refuses to prune instead of guessing.
    let a = artifact("smoke", vec![record("machine/x", 100, 50.0)]);
    store.append("c1", &a).expect("append");
    std::fs::write(scratch.0.join("smoke").join("notes.txt"), "hi").unwrap();
    match store.prune("smoke", 1) {
        Err(HistoryError::CorruptEntry { .. }) => {}
        other => panic!("expected CorruptEntry, got {other:?}"),
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("write");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

#[test]
fn the_store_serves_end_to_end_over_http() {
    let scratch = Scratch::new();
    let store = HistoryStore::open(&scratch.0);
    for (commit, cycles) in [("c1", 100u64), ("c2", 120)] {
        let a = artifact("smoke", vec![record("machine/x", cycles, 50.0)]);
        store.append(commit, &a).expect("append");
    }
    let service = Arc::new(Service::start(ServiceConfig::default()));
    let server = serve_with_perf(
        Arc::clone(&service),
        HttpConfig {
            addr: "127.0.0.1:0".into(),
            ..HttpConfig::default()
        },
        Some(Arc::new(HistoryPerfSource::new(store))),
    )
    .expect("bind");
    let addr = server.local_addr();

    let inventory = http_get(addr, "/perf/benchmarks");
    assert!(inventory.starts_with("HTTP/1.1 200 OK"), "{inventory}");
    assert!(inventory.contains("\"smoke\""), "{inventory}");
    assert!(inventory.contains("machine/x"), "{inventory}");

    let trajectory = http_get(addr, "/perf/trajectory?bench=machine%2Fx&counter=cycles");
    assert!(trajectory.starts_with("HTTP/1.1 200 OK"), "{trajectory}");
    assert!(
        trajectory.contains("\"relevance\":\"relevant\""),
        "{trajectory}"
    );
    assert!(trajectory.contains("\"commit\":\"c2\""), "{trajectory}");

    let compare = http_get(addr, "/perf/compare?from=c1&to=c2");
    assert!(compare.starts_with("HTTP/1.1 200 OK"), "{compare}");
    assert!(compare.contains("\"buckets\""), "{compare}");

    // The validation bugfixes hold on the live socket too.
    let bad = http_get(addr, "/perf/trajectory?bench=machine%2Fx");
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
    let missing = http_get(addr, "/perf/trajectory?bench=ghost&counter=cycles");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    let hostile = http_get(addr, "/perf/compare?from=..%2F..%2Fetc&to=c2");
    assert!(hostile.starts_with("HTTP/1.1 400"), "{hostile}");
}
