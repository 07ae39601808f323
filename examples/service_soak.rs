//! Chaos soak of the multi-tenant job service.
//!
//! Runs the deterministic chaos harness — a seeded cast of well-behaved,
//! flooding, oversized, deadline-violating and fault-storming tenants —
//! against a real bounded-queue service, then pushes a few requests
//! through the hand-rolled HTTP front end on a loopback socket to show
//! the wire protocol end to end.
//!
//! The soak length is controlled by `SKILLTAX_SOAK_SECONDS` (default 1;
//! the round count is derived from it deterministically, so two runs
//! with the same value replay bit-identically).  Exits non-zero if any
//! invariant is violated.
//!
//! Run with: `cargo run --release --example service_soak`

use std::io::{Read, Write};
use std::sync::Arc;

use skilltax::report::{service_table, ServiceTenantRow};
use skilltax::service::{run_chaos, serve, ChaosConfig, HttpConfig, Service, ServiceConfig};

/// Rounds per configured soak second (each round submits a full tenant
/// cast and drains it; a handful of rounds per second is comfortable in
/// release builds).
const ROUNDS_PER_SECOND: usize = 4;

fn soak_rounds() -> usize {
    let seconds: usize = std::env::var("SKILLTAX_SOAK_SECONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    (seconds * ROUNDS_PER_SECOND).max(3)
}

/// One raw HTTP exchange over loopback (what `curl --data` would send).
fn http(addr: std::net::SocketAddr, body: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect loopback");
    let request = format!(
        "POST /jobs HTTP/1.1\r\nHost: soak\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
        .split("\r\n\r\n")
        .nth(1)
        .unwrap_or(&response)
        .to_string()
}

fn main() {
    let rounds = soak_rounds();
    println!("=== chaos soak: {rounds} rounds ===\n");
    let report = run_chaos(&ChaosConfig {
        rounds,
        ..ChaosConfig::default()
    });
    println!("{}\n", report.summary());

    // Per-tenant ledger through the report crate.
    let rows: Vec<ServiceTenantRow> = report
        .per_tenant
        .iter()
        .map(|(tenant, &(admitted, finished))| {
            let count = |label: &str| {
                report
                    .per_tenant_outcomes
                    .get(tenant)
                    .and_then(|m| m.get(label))
                    .copied()
                    .unwrap_or(0)
            };
            ServiceTenantRow {
                tenant: tenant.clone(),
                admitted,
                finished,
                completed: count("completed"),
                degraded: count("degraded"),
                cancelled: count("cancelled"),
                failed: count("failed"),
            }
        })
        .collect();
    println!("{}", service_table(&rows).render_ascii());

    // A short transcript over the real HTTP front end.
    println!("=== HTTP transcript (loopback) ===\n");
    let service = Arc::new(Service::start(ServiceConfig::default()));
    let server = serve(Arc::clone(&service), HttpConfig::default()).expect("bind HTTP");
    let addr = server.local_addr();
    for body in [
        "tenant=demo&kind=classify&name=MorphoSys&row=1 %7C 64 %7C none %7C 1-64 %7C 1-1 %7C 64-1 %7C 64x64",
        "tenant=demo&kind=simulate&cores=4&iters=200",
        "tenant=demo&kind=simulate&cores=4&iters=1000000&deadline_cycles=50",
        "tenant=demo&kind=simulate&cores=100000",
    ] {
        println!("POST /jobs  {body}");
        println!("  -> {}\n", http(addr, body));
    }
    drop(server);

    if report.passed() {
        println!("soak passed: every invariant held");
    } else {
        println!("soak FAILED:");
        for violation in &report.violations {
            println!("  - {violation}");
        }
        std::process::exit(1);
    }
}
