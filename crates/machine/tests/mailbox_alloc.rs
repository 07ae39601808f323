//! Allocation cost of the mailboxes.
//!
//! IMP-I has no DP–DP switch, so its mailboxes never carry a message: a
//! 256-core IMP-I with 64-word banks must cost its cores and banks
//! (~190 KiB), not another 2 MiB of empty queues.  A machine that does
//! send stores only the channels it uses, so the first send on a
//! 256-core crossbar costs one channel.  A counting global allocator
//! measures the bytes each step asks for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use skilltax_machine::interconnect::{FabricTopology, Mailboxes};
use skilltax_machine::multi::{MultiMachine, MultiSubtype};

/// The system allocator with a global allocated-bytes counter.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY-free wrapper: delegates every call to `System` verbatim and only
// adds a relaxed counter bump on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated while `f` runs (this is the only test in the binary,
/// so no other thread allocates meanwhile).
fn bytes_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (BYTES.load(Ordering::Relaxed) - before, out)
}

#[test]
fn mailboxes_cost_nothing_until_the_first_message() {
    let imp_i = MultiSubtype::from_index(1).unwrap();
    let (bytes, machine) = bytes_during(|| MultiMachine::new(imp_i, 256, 64));
    assert!(
        bytes < 256 * 1024,
        "MultiMachine::new(IMP-I, 256, 64) allocated {bytes} bytes"
    );
    drop(machine);

    let (bytes, mut mb) = bytes_during(|| Mailboxes::new(256, FabricTopology::Crossbar));
    assert_eq!(bytes, 0, "an untouched mailbox set allocates nothing");
    let (bytes, sent) = bytes_during(|| mb.send(3, 7, 1));
    sent.unwrap();
    assert!(
        bytes <= 1024,
        "the first send stores one channel, not the 256 x 256 table ({bytes} bytes)"
    );
    // A ring's worth of channels costs a ring's worth of bytes, and each
    // channel keeps its own FIFO order.
    let (bytes, ()) = bytes_during(|| {
        for core in 0..256 {
            mb.send(core, (core + 1) % 256, core as i64).unwrap();
        }
    });
    assert!(bytes < 64 * 1024, "a 256-core ring allocated {bytes} bytes");
    assert_eq!(mb.recv(7, 3).unwrap(), Some(1));
    assert_eq!(mb.recv(4, 3).unwrap(), Some(3));
    assert_eq!(mb.recv(4, 3).unwrap(), None);
    assert!(mb.any_pending());
}
