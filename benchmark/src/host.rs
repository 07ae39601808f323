//! Readings from `/proc`: process and thread CPU time, peak RSS, load
//! average and the kernel's TIME_WAIT count.  Each reads as 0 where the
//! file is missing, so a run on a kernel without them still completes.

use std::fs;

/// Clock ticks per second of `/proc/*/stat` times (Linux `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// CPU time of the whole process (every thread, live or exited), ms.
pub fn process_cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ * 1e3
}

/// On-CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One-minute load average.
pub fn loadavg1() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// TCP sockets in TIME_WAIT, from `/proc/net/sockstat`.
pub fn tcp_time_wait() -> u64 {
    let sockstat = fs::read_to_string("/proc/net/sockstat").unwrap_or_default();
    sockstat
        .lines()
        .find(|l| l.starts_with("TCP:"))
        .and_then(|l| {
            let mut words = l.split_whitespace();
            words.find(|&w| w == "tw")?;
            words.next()?.parse().ok()
        })
        .unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
