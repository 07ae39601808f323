//! The `SKILLTAX_THREADS` environment override, end to end.
//!
//! Environment mutation is process-global, so this binary holds exactly
//! one test: it walks the knob through forced, zero ("auto"), unparsable
//! and unset states and checks both [`configured_threads`] and the sweep
//! built on it (`sweep::parallel_map`) keep working at every setting.

use skilltax_machine::configured_threads;
use skilltax_machine::sweep::parallel_map;

#[test]
fn skilltax_threads_override_is_honoured_everywhere() {
    let auto = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // A positive value forces that many threads, however large.
    for forced in [1usize, 2, 8] {
        std::env::set_var("SKILLTAX_THREADS", forced.to_string());
        assert_eq!(configured_threads(), forced, "forced {forced}");
        // The sweep still produces correct results at this width.
        let squares = parallel_map((0..33u64).collect(), |&x| x * x);
        assert_eq!(squares, (0..33u64).map(|x| x * x).collect::<Vec<u64>>());
    }

    // Zero, junk, and unset all fall back to available_parallelism.
    for junk in ["0", "-3", "many", ""] {
        std::env::set_var("SKILLTAX_THREADS", junk);
        assert_eq!(configured_threads(), auto, "fallback for {junk:?}");
    }
    std::env::remove_var("SKILLTAX_THREADS");
    assert_eq!(configured_threads(), auto, "fallback when unset");
}
