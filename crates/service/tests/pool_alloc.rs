//! Bounded-memory discipline for the pooled request path.
//!
//! The service's single-core simulate tier must be **allocation-free in
//! steady state**: the pool hands out a reset machine, the request token
//! is installed by cloning an `Arc` (a refcount bump), the spin program
//! comes out of the engine's `Arc` cache, and the run loop itself never
//! touches the heap.  Mirroring the machine crate's `mailbox_alloc` suite,
//! a counting global allocator pins this down two ways: repeated warm
//! requests allocate *zero* bytes, and quadrupling the work per request
//! does not change the allocation count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use skilltax_machine::CancelToken;
use skilltax_service::{Engine, EngineConfig, JobKind, JobOutcome, JobRequest};

/// The system allocator with a global allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// Delegates every call to `System` verbatim and only adds a relaxed
// counter bump on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-wide and the test harness runs tests on
/// parallel threads, so each test holds this lock while it counts; a
/// neighbour's allocations would otherwise land in its window.
static SERIAL: Mutex<()> = Mutex::new(());

fn counting_alone() -> MutexGuard<'static, ()> {
    // The guarded value is `()`, so a panic in another test leaves
    // nothing inconsistent behind.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn simulate(iters: i64) -> JobRequest {
    JobRequest {
        tenant: "alloc".into(),
        kind: JobKind::Simulate {
            cores: 1,
            iters,
            fault_seed: None,
        },
        deadline_cycles: None,
    }
}

/// Allocations attributable to executing one warm pooled request.
fn allocs_for(engine: &Engine, request: &JobRequest, cancel: &CancelToken) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let outcome = engine.execute(request, cancel);
    let after = ALLOCS.load(Ordering::Relaxed);
    match outcome {
        JobOutcome::Completed {
            stats: Some(stats), ..
        } => assert!(stats.cycles > 0),
        other => panic!("pooled simulate failed: {other:?}"),
    }
    after - before
}

#[test]
fn warm_pooled_requests_allocate_nothing() {
    let _alone = counting_alone();
    let engine = Engine::new(EngineConfig::default());
    engine.pool().prewarm(1);
    let cancel = CancelToken::new();
    let short = simulate(400);
    let long = simulate(1_600);
    // Warm up: program cache entries, request construction, lazy statics.
    for _ in 0..3 {
        allocs_for(&engine, &short, &cancel);
        allocs_for(&engine, &long, &cancel);
    }
    let warm_short = allocs_for(&engine, &short, &cancel);
    let warm_long = allocs_for(&engine, &long, &cancel);
    assert_eq!(
        warm_short, 0,
        "a warm pooled request touched the heap ({warm_short} allocations)"
    );
    assert_eq!(
        warm_short, warm_long,
        "allocation count grew with work per request"
    );
    assert_eq!(
        engine.pool().cold_builds(),
        0,
        "the prewarmed pool never cold-builds"
    );
}

#[test]
fn deadline_requests_cost_constant_allocations() {
    // A per-request deadline needs a fresh token per request (one Arc),
    // but the cost must not scale with the work the request does.
    let _alone = counting_alone();
    let engine = Engine::new(EngineConfig::default());
    engine.pool().prewarm(1);
    let with_deadline = |iters: i64| JobRequest {
        deadline_cycles: Some(50),
        ..simulate(iters)
    };
    let run = |iters: i64| {
        let cancel = CancelToken::new();
        let before = ALLOCS.load(Ordering::Relaxed);
        let outcome = engine.execute(&with_deadline(iters), &cancel);
        let after = ALLOCS.load(Ordering::Relaxed);
        assert!(
            matches!(outcome, JobOutcome::Cancelled { at_cycle: 50, .. }),
            "{outcome:?}"
        );
        after - before
    };
    for _ in 0..3 {
        run(4_000);
        run(16_000);
    }
    assert_eq!(
        run(4_000),
        run(16_000),
        "deadline-request allocations grew with work per request"
    );
}
