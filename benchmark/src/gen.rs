//! Seeded request generation: the four workload mixes and the engine
//! route each generated request reaches.
//!
//! Every request is a wire body exactly as a client would send it, so
//! the service sees nothing but generated inputs.  Bodies use only the
//! keys that survive the planned API cuts (no `scheduler=`), so those
//! deletions can be measured with this benchmark instead of breaking it.

use std::time::Duration;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// An exponential inter-arrival gap for a Poisson process at `rate_per_s`.
    pub fn exp_gap(&mut self, rate_per_s: f64) -> Duration {
        Duration::from_secs_f64(-self.unit().ln() / rate_per_s)
    }
}

/// The four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    Simulate,
    Faults,
    Burst,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Interactive,
        Workload::Simulate,
        Workload::Faults,
        Workload::Burst,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Simulate => "simulate",
            Workload::Faults => "faults",
            Workload::Burst => "burst",
        }
    }

    /// Default warm-up before the measured window.  Interactive opens
    /// ~15k connections a second: five seconds fill the kernel's
    /// 65,536-entry TIME_WAIT table, after which throughput is steady.
    pub fn default_warmup(self) -> Duration {
        match self {
            Workload::Interactive => Duration::from_secs(5),
            _ => Duration::from_secs(2),
        }
    }
}

/// The engine route a request reaches (which machine layer does the
/// work), mirroring `Engine::execute`'s dispatch.  `Metrics` is the
/// `GET /metrics` read, which never reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Classify,
    Estimate,
    Uni,
    Multi,
    FaultMulti,
    FleetUni,
    FleetArray,
    Metrics,
}

impl Route {
    /// Every route that reaches the engine.
    pub const ENGINE: [Route; 7] = [
        Route::Classify,
        Route::Estimate,
        Route::Uni,
        Route::Multi,
        Route::FaultMulti,
        Route::FleetUni,
        Route::FleetArray,
    ];
    pub const COUNT: usize = 8;

    pub fn index(self) -> usize {
        self as usize
    }

    /// The span name of this route's engine run (`engine.<route>`).
    pub fn engine_span(self) -> &'static str {
        match self {
            Route::Classify => "engine.classify",
            Route::Estimate => "engine.estimate",
            Route::Uni => "engine.uni",
            Route::Multi => "engine.multi",
            Route::FaultMulti => "engine.fault_multi",
            Route::FleetUni => "engine.fleet_uni",
            Route::FleetArray => "engine.fleet_array",
            Route::Metrics => "engine.none",
        }
    }

    /// Terminal outcome labels a served response may carry.  Faulted
    /// multi-core runs complete or degrade; every other job completes.
    pub fn allows(self, outcome: &str) -> bool {
        match self {
            Route::FaultMulti => outcome == "completed" || outcome == "degraded",
            _ => outcome == "completed",
        }
    }
}

/// One generated request.  `body` is empty for a `Metrics` read.
#[derive(Debug, Clone)]
pub struct Req {
    pub body: String,
    pub route: Route,
}

/// The Table III rows the classify and estimate jobs draw from.
pub type Rows = [(String, String)];

pub fn table_iii_rows() -> Vec<(String, String)> {
    skilltax_catalog::regenerate_table_iii()
        .into_iter()
        .map(|row| (row.name, row.structure))
        .collect()
}

/// One client's request stream: request `i` of stream `s` under seed
/// `seed` is the same on every run, pass and commit.
pub struct Stream<'a> {
    rng: Rng,
    workload: Workload,
    rows: &'a Rows,
}

impl<'a> Stream<'a> {
    pub fn new(workload: Workload, seed: u64, stream: u64, rows: &'a Rows) -> Stream<'a> {
        let mut mix = Rng::new(seed ^ 0xB5AD_4ECE_DA1C_E2A9);
        for _ in 0..=stream {
            mix.next_u64();
        }
        Stream {
            rng: Rng::new(mix.next_u64()),
            workload,
            rows,
        }
    }

    pub fn next_req(&mut self) -> Req {
        let rng = &mut self.rng;
        match self.workload {
            Workload::Interactive => {
                let tenant = format!("t{}", rng.below(4));
                if rng.below(100) < 2 {
                    Req {
                        body: String::new(),
                        route: Route::Metrics,
                    }
                } else {
                    ui_job(rng, &tenant, self.rows)
                }
            }
            Workload::Simulate => match rng.below(100) {
                0..=49 => multi_sim(rng, "sim", &[16, 32, 64, 128, 256], 200, 2000),
                50..=79 => {
                    let points = rng.range(32, 256);
                    let iters = rng.range(200, 2000);
                    uni_sweep(points, iters, "sim")
                }
                _ => fault_sweep(rng, "sim", 32, 256, (0, 0), (0, 0)),
            },
            Workload::Faults => {
                if rng.below(100) < 60 {
                    let cores = rng.pick(&[4, 8, 16, 32, 64]);
                    let iters = rng.range(100, 1000);
                    // The seed modulo 3 picks the engine's fault scenario:
                    // stall storm, dead-DP degradation or link-outage retry.
                    let fault_seed = rng.below(1 << 32);
                    Req {
                        body: format!(
                            "tenant=lab&kind=simulate&cores={cores}&iters={iters}\
                             &fault_seed={fault_seed}"
                        ),
                        route: Route::FaultMulti,
                    }
                } else {
                    fault_sweep(rng, "lab", 16, 128, (100_000, 300_000), (10_000, 100_000))
                }
            }
            Workload::Burst => match rng.below(100) {
                0..=59 => ui_job(rng, "ui", self.rows),
                60..=89 => multi_sim(rng, "sim", &[16, 32, 64], 200, 2000),
                // Batch jobs cost 65–129 DRR tokens each.
                _ => {
                    let size = rng.range(64, 128);
                    if rng.below(2) == 0 {
                        let iters = rng.range(200, 2000);
                        uni_sweep(size, iters, "batch")
                    } else {
                        fault_sweep(rng, "batch", size, size, (0, 0), (0, 0))
                    }
                }
            },
        }
    }
}

/// The interactive job mix (classify 35 : estimate 20 : 1-core simulate
/// 35 : small sweep 8).
fn ui_job(rng: &mut Rng, tenant: &str, rows: &Rows) -> Req {
    let (name, row) = &rows[rng.below(rows.len() as u64) as usize];
    match rng.below(98) {
        0..=34 => Req {
            body: format!("tenant={tenant}&kind=classify&name={name}&row={row}"),
            route: Route::Classify,
        },
        35..=54 => Req {
            body: format!("tenant={tenant}&kind=estimate&name={name}&row={row}"),
            route: Route::Estimate,
        },
        55..=89 => {
            let iters = rng.range(50, 2000);
            Req {
                body: format!("tenant={tenant}&kind=simulate&cores=1&iters={iters}"),
                route: Route::Uni,
            }
        }
        _ => {
            let points = rng.range(2, 16);
            let iters = rng.range(50, 2000);
            uni_sweep(points, iters, tenant)
        }
    }
}

fn multi_sim(rng: &mut Rng, tenant: &str, cores: &[u64], lo: u64, hi: u64) -> Req {
    let cores = rng.pick(cores);
    let iters = rng.range(lo, hi);
    Req {
        body: format!("tenant={tenant}&kind=simulate&cores={cores}&iters={iters}"),
        route: Route::Multi,
    }
}

/// An all-single-core sweep, which the engine runs as one `UniFleet`.
fn uni_sweep(points: u64, iters: u64, tenant: &str) -> Req {
    let cores = vec!["1"; points as usize].join(",");
    Req {
        body: format!("tenant={tenant}&kind=sweep&cores={cores}&iters={iters}"),
        route: Route::FleetUni,
    }
}

fn fault_sweep(
    rng: &mut Rng,
    tenant: &str,
    seeds_lo: u64,
    seeds_hi: u64,
    stall_ppm: (u64, u64),
    flip_ppm: (u64, u64),
) -> Req {
    let subtype = rng.pick(&["I", "II", "III", "IV"]);
    let lanes = rng.pick(&[4, 8, 16]);
    let seeds = rng.range(seeds_lo, seeds_hi);
    let seed0 = rng.below(1 << 32);
    let stall = rng.range(stall_ppm.0, stall_ppm.1);
    let flip = rng.range(flip_ppm.0, flip_ppm.1);
    Req {
        body: format!(
            "tenant={tenant}&kind=faultsweep&subtype={subtype}&lanes={lanes}&seeds={seeds}\
             &fault_seed={seed0}&stall_ppm={stall}&flip_ppm={flip}"
        ),
        route: Route::FleetArray,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_between_streams() {
        let rows = table_iii_rows();
        let take = |seed, stream| {
            let mut s = Stream::new(Workload::Interactive, seed, stream, &rows);
            (0..50).map(|_| s.next_req().body).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(7, 1));
        assert_ne!(take(7, 0), take(8, 0));
    }

    #[test]
    fn every_generated_body_parses() {
        let rows = table_iii_rows();
        for workload in Workload::ALL {
            let mut s = Stream::new(workload, 3, 0, &rows);
            for _ in 0..500 {
                let req = s.next_req();
                if req.route != Route::Metrics {
                    skilltax_service::proto::parse_request(&req.body)
                        .unwrap_or_else(|e| panic!("{}: {e}", req.body));
                }
            }
        }
    }
}
