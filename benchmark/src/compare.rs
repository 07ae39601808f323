//! `compare <dirA> <dirB>`: two sets of untraced results, side by side.
//!
//! For each workload and end-to-end metric it prints each side's median
//! and quartiles, how many same-seed pairs B won, and a verdict against
//! the metric's bound in `BENCHMARK.json`:
//!
//! * **improved** — B wins at least nine tenths of the pairs and the
//!   medians differ by more than A's quartile spread, or every B run
//!   beats every A run;
//! * **regressed** — B's median is worse than A's by more than the bound;
//! * **unresolved** — either side's quartile spread exceeds the bound;
//! * **unchanged** — otherwise.
//!
//! Comparing two sets of runs of one commit is the repeatability check:
//! every row should read `unchanged`.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::json::{self, Json};

/// `workload → seed → metric → value`.
type ResultSet = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn end_to_end_metrics(spec: &Json) -> Vec<Metric> {
    spec.get("end_to_end")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// Every untraced result file (`result-*.json`) in `dir`.
fn load(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("result-") && name.ends_with(".json")) {
            continue;
        }
        let doc = read_json(&path)?;
        let (Some(workload), Some(seed)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("seed").and_then(Json::as_f64),
        ) else {
            return Err(format!("{}: no workload or seed", path.display()));
        };
        let metrics = doc
            .get("metrics")
            .map_or(&[][..], Json::fields)
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        set.entry(workload.to_string())
            .or_default()
            .insert(seed as u64, metrics);
    }
    if set.is_empty() {
        return Err(format!("{}: no result-*.json files", dir.display()));
    }
    Ok(set)
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles, as Python's `statistics.quantiles(data,
/// n=4)` (the default "exclusive" method) computes them.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(3))
}

struct Side {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        Side {
            median: median(&sorted),
            q1,
            q3,
        }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

pub fn run(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let metrics = end_to_end_metrics(&read_json(Path::new("BENCHMARK.json"))?);
    let (set_a, set_b) = (load(dir_a)?, load(dir_b)?);
    println!(
        "{:<12} {:<16} {:>30} {:>30} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins", "bound"
    );
    let mut regressed = false;
    for (workload, runs_a) in &set_a {
        let Some(runs_b) = set_b.get(workload) else {
            println!("{workload:<12} (missing from {})", dir_b.display());
            continue;
        };
        for metric in &metrics {
            let values = |runs: &BTreeMap<u64, BTreeMap<String, f64>>| -> Vec<(u64, f64)> {
                runs.iter()
                    .filter_map(|(&seed, m)| Some((seed, *m.get(&metric.name)?)))
                    .collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let a = Side::of(&va.iter().map(|v| v.1).collect::<Vec<_>>());
            let b = Side::of(&vb.iter().map(|v| v.1).collect::<Vec<_>>());
            let better = |x: f64, y: f64| {
                if metric.lower_is_better {
                    x < y
                } else {
                    x > y
                }
            };
            let pairs: Vec<(f64, f64)> = va
                .iter()
                .filter_map(|&(seed, x)| Some((x, vb.iter().find(|v| v.0 == seed)?.1)))
                .collect();
            let wins = pairs.iter().filter(|&&(x, y)| better(y, x)).count();
            let every_b_beats_every_a = vb
                .iter()
                .all(|&(_, y)| va.iter().all(|&(_, x)| better(y, x)));
            let change = (b.median - a.median) / a.median;
            let worse_by = if metric.lower_is_better {
                change
            } else {
                -change
            };
            let verdict = if every_b_beats_every_a
                || (better(b.median, a.median)
                    && !pairs.is_empty()
                    && wins * 10 >= pairs.len() * 9
                    && (b.median - a.median).abs() > a.q3 - a.q1)
            {
                "improved"
            } else if worse_by > metric.bound {
                regressed = true;
                "regressed"
            } else if a.spread() > metric.bound || b.spread() > metric.bound {
                "unresolved"
            } else {
                "unchanged"
            };
            let side = |s: &Side| format!("{:.5} [{:.5}, {:.5}]", s.median, s.q1, s.q3);
            println!(
                "{workload:<12} {:<16} {:>30} {:>30} {:>+7.2}% {:>7} {:>5.0}%  {verdict}",
                metric.name,
                side(&a),
                side(&b),
                change * 100.0,
                format!("{wins}/{}", pairs.len()),
                metric.bound * 100.0,
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }
}
