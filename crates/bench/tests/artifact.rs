//! End-to-end contract of the bench artifact and the regression gate:
//! round-trip fidelity, typed schema rejection, and the `bench_compare`
//! binary exiting non-zero on an injected deterministic-counter
//! regression while naming the offending benchmark.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use skilltax_bench::artifact::{
    Artifact, ArtifactError, BenchRecord, CollectionMode, EnvMeta, SCHEMA_VERSION,
};
use skilltax_bench::stats::SampleStats;

fn record(name: &str, group: &str, cycles: u64) -> BenchRecord {
    let mut counters = BTreeMap::new();
    counters.insert("cycles".to_owned(), cycles);
    counters.insert("event.issue".to_owned(), cycles / 2);
    counters.insert("event.stall".to_owned(), 0);
    BenchRecord {
        name: name.to_owned(),
        group: group.to_owned(),
        iters_per_batch: 4096,
        wall_ns: SampleStats::from_samples(&[120.5, 118.25, 125.0, 119.75, 121.0]),
        counters,
    }
}

fn fixture(label: &str, vector_add_cycles: u64) -> Artifact {
    Artifact {
        schema_version: SCHEMA_VERSION,
        label: label.to_owned(),
        mode: CollectionMode::Quick,
        env: EnvMeta::current(5, 2),
        benchmarks: vec![
            record(
                "machine/vector_add/uni/64",
                "machine.uni",
                vector_add_cycles,
            ),
            record("taxonomy/classify_templates", "taxonomy", 777),
        ],
    }
}

fn temp_path(file: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skilltax_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir.join(file)
}

#[test]
fn write_read_round_trip_preserves_every_field() {
    let original = fixture("round-trip", 1000);
    let path = temp_path("roundtrip.json");
    original.write_file(&path).unwrap();
    let reread = Artifact::read_file(&path).unwrap();
    assert_eq!(reread, original);
    // Spot-check the nested payloads made it through the JSON layer.
    let bench = reread.benchmark("machine/vector_add/uni/64").unwrap();
    assert_eq!(bench.counters["cycles"], 1000);
    assert_eq!(bench.wall_ns, original.benchmarks[0].wall_ns);
    assert_eq!(reread.env, original.env);
}

/// An empty directory of its own for one test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = temp_path(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir creates");
    dir
}

/// The names of the entries in `dir`, sorted.
fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn atomic_write_round_trips_and_leaves_only_the_artifact() {
    let dir = fresh_dir("atomic_round_trip");
    let path = dir.join("BENCH_atomic.json");
    let original = fixture("atomic", 1000);
    original.write_file(&path).unwrap();
    assert_eq!(Artifact::read_file(&path).unwrap(), original);
    assert_eq!(entries(&dir), ["BENCH_atomic.json"]);
}

#[test]
fn atomic_write_replaces_an_existing_artifact() {
    let dir = fresh_dir("atomic_overwrite");
    let path = dir.join("BENCH_over.json");
    let older = fixture("over", 1000);
    older.write_file(&path).unwrap();
    // A second name for the old file: a write in place would change what
    // it reads, a replacing rename leaves it alone.
    let old_link = dir.join("old_link.json");
    std::fs::hard_link(&path, &old_link).unwrap();
    let newer = fixture("over", 2000);
    newer.write_file(&path).unwrap();
    assert_eq!(Artifact::read_file(&path).unwrap(), newer);
    assert_eq!(Artifact::read_file(&old_link).unwrap(), older);
    assert_eq!(entries(&dir), ["BENCH_over.json", "old_link.json"]);
}

#[test]
fn failed_atomic_write_is_a_typed_io_error_and_leaves_no_temp_file() {
    // The target is a non-empty directory, so the final rename fails
    // after the temporary file was written and synced.
    let dir = fresh_dir("atomic_failure");
    let path = dir.join("BENCH_blocked.json");
    std::fs::create_dir_all(path.join("occupied")).unwrap();
    match fixture("blocked", 1000).write_file(&path) {
        Err(ArtifactError::Io { path: reported, .. }) => {
            assert_eq!(reported, path.display().to_string())
        }
        other => panic!("expected ArtifactError::Io, got {other:?}"),
    }
    assert_eq!(entries(&dir), ["BENCH_blocked.json"]);
    assert!(path.is_dir());
}

#[test]
fn reader_rejects_wrong_schema_version_with_typed_error() {
    let text = fixture("vers", 10)
        .emit()
        .replace("\"schema_version\":1", "\"schema_version\":2");
    match Artifact::parse(&text) {
        Err(ArtifactError::SchemaVersion { found, expected }) => {
            assert_eq!(found, 2);
            assert_eq!(expected, SCHEMA_VERSION);
        }
        other => panic!("expected a SchemaVersion error, got {other:?}"),
    }
}

#[test]
fn reader_surfaces_parse_errors_as_typed_errors() {
    match Artifact::parse("{not json") {
        Err(ArtifactError::Parse(e)) => assert!(e.to_string().contains("JSON parse error")),
        other => panic!("expected a Parse error, got {other:?}"),
    }
}

/// The acceptance-criterion test: two fixture artifacts differing by an
/// injected 2× deterministic-counter delta make the `bench_compare`
/// binary exit non-zero with the benchmark named in its report.
#[test]
fn bench_compare_exits_nonzero_on_injected_counter_regression() {
    let baseline = fixture("baseline", 1000);
    let regressed = fixture("current", 2000); // 2x cycles on vector_add
    let baseline_path = temp_path("cmp_baseline.json");
    let current_path = temp_path("cmp_current.json");
    baseline.write_file(&baseline_path).unwrap();
    regressed.write_file(&current_path).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg("--baseline")
        .arg(&baseline_path)
        .arg("--current")
        .arg(&current_path)
        .output()
        .expect("bench_compare runs");
    assert!(
        !output.status.success(),
        "a deterministic-counter regression must gate hard"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("machine/vector_add/uni/64"),
        "report must name the offending benchmark:\n{stdout}"
    );
    assert!(stdout.contains("FAIL"), "verdict line:\n{stdout}");
    assert!(stdout.contains("counter cycles"), "metric named:\n{stdout}");
}

#[test]
fn bench_compare_exits_zero_on_identical_artifacts() {
    let artifact = fixture("same", 1000);
    let baseline_path = temp_path("same_baseline.json");
    let current_path = temp_path("same_current.json");
    artifact.write_file(&baseline_path).unwrap();
    artifact.write_file(&current_path).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg("--baseline")
        .arg(&baseline_path)
        .arg("--current")
        .arg(&current_path)
        .output()
        .expect("bench_compare runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "unchanged counters pass:\n{stdout}"
    );
    assert!(stdout.contains("OK"), "verdict line:\n{stdout}");
}

#[test]
fn bench_compare_fails_cleanly_on_a_missing_baseline() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg("--baseline")
        .arg(temp_path("does_not_exist.json"))
        .arg("--current")
        .arg(temp_path("also_missing.json"))
        .output()
        .expect("bench_compare runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot read artifact"), "{stderr}");
}
