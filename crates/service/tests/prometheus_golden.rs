//! Golden-file snapshot of the Prometheus exposition the service
//! renders for a hand-constructed metrics state, plus structural checks
//! (name legality, bucket monotonicity) over the real document — the
//! contract a scraper depends on.
//!
//! Refresh after an intentional format change with
//! `UPDATE_GOLDEN=1 cargo test -p skilltax-service prometheus` (twice:
//! `include_str!` inlines at compile time).

use skilltax_service::{prometheus_text, ServiceMetrics};

fn sample_metrics() -> ServiceMetrics {
    let mut m = ServiceMetrics {
        submitted: 12,
        admitted: 9,
        rejected_queue_full: 1,
        rejected_quota: 1,
        rejected_oversized: 1,
        in_flight: 1,
        peak_depth: 4,
        trace_events_dropped: 3,
        refused_connections: 2,
        caller_runs: 6,
        worker_runs: 2,
        ..ServiceMetrics::default()
    };
    m.outcomes.insert("completed", 7);
    m.outcomes.insert("timed-out", 1);
    m.per_tenant.insert("acme".into(), (5, 4));
    // A hostile tenant id: quote, backslash and newline must all be
    // escaped or the line-oriented format is corrupted.
    m.per_tenant.insert("evil\"corp\\x\n".into(), (4, 3));
    for wait_ms in [0, 1, 3, 900] {
        m.queue_wait_ms.record(wait_ms);
    }
    for cycles in [64, 100_000] {
        m.run_cycles.record(cycles);
    }
    m
}

#[test]
fn the_exposition_matches_the_golden_file() {
    let rendered = prometheus_text(&sample_metrics());
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom"),
            &rendered,
        )
        .expect("write golden");
    }
    let golden = include_str!("golden/metrics.prom");
    assert_eq!(
        rendered, golden,
        "exposition drifted; UPDATE_GOLDEN=1 refreshes after an intentional change"
    );
}

#[test]
fn every_emitted_name_and_label_line_is_legal() {
    let doc = prometheus_text(&sample_metrics());
    fn legal_name(name: &str) -> bool {
        !name.is_empty()
            && name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    }
    for line in doc.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut words = rest.split_whitespace();
            let keyword = words.next().unwrap_or_default();
            assert!(matches!(keyword, "HELP" | "TYPE"), "{line}");
            assert!(legal_name(words.next().unwrap_or_default()), "{line}");
            continue;
        }
        // Sample line: name[{labels}] value — name up to '{' or space.
        let name_end = line.find(['{', ' ']).expect("sample has a value");
        assert!(legal_name(&line[..name_end]), "{line}");
        // The value (after the last space outside braces) parses.
        let value = line.rsplit(' ').next().unwrap();
        assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
    }
}

#[test]
fn histogram_bucket_series_are_cumulative_and_end_at_inf() {
    let doc = prometheus_text(&sample_metrics());
    for family in ["skilltax_queue_wait_ms", "skilltax_run_cycles"] {
        let prefix = format!("{family}_bucket{{le=\"");
        let counts: Vec<u64> = doc
            .lines()
            .filter(|l| l.starts_with(&prefix))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!counts.is_empty(), "no buckets for {family}");
        assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "{family} buckets not monotone: {counts:?}"
        );
        let inf_line = doc.lines().rfind(|l| l.starts_with(&prefix)).unwrap();
        assert!(inf_line.contains("le=\"+Inf\""), "{inf_line}");
        let count_line = doc
            .lines()
            .find(|l| l.starts_with(&format!("{family}_count")))
            .unwrap();
        assert_eq!(
            counts.last().copied().unwrap(),
            count_line
                .rsplit(' ')
                .next()
                .unwrap()
                .parse::<u64>()
                .unwrap(),
            "+Inf bucket must equal _count for {family}"
        );
    }
}
