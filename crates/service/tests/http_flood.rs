//! The HTTP front end under a connection flood: ten times the
//! connection-thread cap of clients that connect and then send nothing.
//! It runs in its own test binary, so the thread census in
//! `/proc/self/task` counts only this server's connection threads.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skilltax_service::http::CONNECTION_RESERVE;
use skilltax_service::{serve, HttpConfig, Service, ServiceConfig};

/// Threads of this process named like connection threads (0 where
/// `/proc` is unavailable).
fn connection_thread_census() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "skilltax-conn")
        .count()
}

fn read_all(stream: &mut TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

fn request(addr: SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("write request");
    read_all(&mut stream)
}

#[test]
fn a_flood_past_the_thread_cap_reads_503_and_the_service_recovers() {
    let service = Arc::new(Service::start(ServiceConfig {
        queue_capacity: 2,
        workers: 1,
        ..ServiceConfig::default()
    }));
    let server = serve(
        Arc::clone(&service),
        HttpConfig {
            addr: "127.0.0.1:0".into(),
            // Long enough that the whole flood is accepted while the
            // first connections still hold every thread.
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            ..HttpConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let cap = service.job_capacity() + CONNECTION_RESERVE;
    let flood = 10 * cap;
    let (peak_live, peak_census) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let flooding = AtomicBool::new(true);
    let responses: Vec<String> = std::thread::scope(|scope| {
        scope.spawn(|| {
            while flooding.load(Ordering::SeqCst) {
                peak_live.fetch_max(server.connection_threads(), Ordering::SeqCst);
                peak_census.fetch_max(connection_thread_census(), Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let stalled: Vec<TcpStream> = (0..flood)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        let responses = stalled
            .into_iter()
            .map(|mut stream| read_all(&mut stream))
            .collect();
        flooding.store(false, Ordering::SeqCst);
        responses
    });
    // The first `cap` held every connection thread until their read
    // timeout answered 408; each one after them was refused at once.
    for (i, response) in responses.iter().enumerate() {
        if i < cap {
            assert!(response.starts_with("HTTP/1.1 408"), "#{i}: {response}");
        } else {
            assert!(response.starts_with("HTTP/1.1 503"), "#{i}: {response}");
            assert!(response.contains("Retry-After: 1\r\n"), "#{i}: {response}");
        }
    }
    // The server's own count and the OS's both reach the cap of serving
    // threads plus the one left in accept to refuse, never more.
    assert_eq!(peak_live.load(Ordering::SeqCst), cap + 1);
    if cfg!(target_os = "linux") {
        assert_eq!(peak_census.load(Ordering::SeqCst), cap + 1);
    }
    let refused = (flood - cap) as u64;
    assert_eq!(service.metrics().refused_connections, refused);

    // The stalled connections have timed out and closed, so the threads
    // are free again: a normal job is served.  A thread can still be
    // finishing its close, so honour Retry-After briefly, as a client
    // would.
    let body = "tenant=t&kind=simulate&iters=20";
    let post = format!(
        "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut response = request(addr, &post);
    while response.starts_with("HTTP/1.1 503") && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        response = request(addr, &post);
    }
    assert!(response.contains("\"outcome\":\"completed\""), "{response}");
    let metrics = request(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    let counted = service.metrics().refused_connections;
    assert!(counted >= refused, "{counted} < {refused}");
    assert!(
        metrics.contains(&format!("\"refused_connections\":{counted}}}")),
        "{metrics}"
    );
}
