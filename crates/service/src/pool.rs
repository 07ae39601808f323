//! Bounded machine-instance pooling.
//!
//! Building a machine allocates (register file, memory banks); a service
//! that builds one per request pays that on every job.  The pool keeps
//! reset-and-reuse [`UniProcessor`] instances so the steady-state
//! request path performs **zero heap allocations**: checkout pops a
//! warm machine, the request token is installed by cloning an `Arc`
//! (a refcount bump, not an allocation), [`UniProcessor::reset`] scrubs
//! state without reallocating, and check-in restores the machine's own
//! house token the same way.  `tests/pool_alloc.rs` pins this with a
//! counting allocator, mirroring the machine crate's `mailbox_alloc`
//! suite.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use skilltax_machine::uniprocessor::UniProcessor;
use skilltax_machine::CancelToken;

/// A pooled machine plus its house token, so check-in can restore a
/// token that no past tenant holds a handle to.
struct PooledUni {
    machine: UniProcessor,
    house: CancelToken,
}

/// A bounded pool of reset-and-reuse uni-processors.
pub struct UniPool {
    slots: Mutex<Vec<PooledUni>>,
    mem_words: usize,
    capacity: usize,
    cold_builds: AtomicU64,
}

impl std::fmt::Debug for UniPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniPool")
            .field("capacity", &self.capacity)
            .field("mem_words", &self.mem_words)
            .field("cold_builds", &self.cold_builds.load(Ordering::Relaxed))
            .finish()
    }
}

impl UniPool {
    /// An empty pool holding at most `capacity` idle machines, each with
    /// `mem_words` of data memory.
    pub fn new(capacity: usize, mem_words: usize) -> UniPool {
        UniPool {
            slots: Mutex::new(Vec::with_capacity(capacity)),
            mem_words,
            capacity,
            cold_builds: AtomicU64::new(0),
        }
    }

    /// Fill the pool with `n` machines up front so the first requests
    /// already hit the warm path.
    pub fn prewarm(&self, n: usize) {
        let mut slots = self.slots.lock().expect("pool lock poisoned");
        while slots.len() < n.min(self.capacity) {
            slots.push(self.build());
        }
    }

    /// Machines built because the pool was empty at checkout (cold
    /// starts; the steady state adds none).
    pub fn cold_builds(&self) -> u64 {
        self.cold_builds.load(Ordering::Relaxed)
    }

    /// Idle machines currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.slots.lock().expect("pool lock poisoned").len()
    }

    fn build(&self) -> PooledUni {
        let house = CancelToken::new();
        PooledUni {
            machine: UniProcessor::new(self.mem_words).with_cancel(house.clone()),
            house,
        }
    }

    /// Run `work` on a pooled machine configured with the request's
    /// watchdog budget and cancellation token, then scrub and return the
    /// machine to the pool.  Steady state (warm pool) allocates nothing.
    pub fn run<R>(
        &self,
        cycle_limit: u64,
        cancel: CancelToken,
        work: impl FnOnce(&mut UniProcessor) -> R,
    ) -> R {
        let slot = self.slots.lock().expect("pool lock poisoned").pop();
        let PooledUni { machine, house } = slot.unwrap_or_else(|| {
            self.cold_builds.fetch_add(1, Ordering::Relaxed);
            self.build()
        });
        // Builder calls move the machine; `cancel` is an Arc clone from
        // the caller, so none of this touches the heap.
        let mut machine = machine.with_cycle_limit(cycle_limit).with_cancel(cancel);
        let result = work(&mut machine);
        machine.reset();
        let machine = machine.with_cancel(house.clone());
        let mut slots = self.slots.lock().expect("pool lock poisoned");
        if slots.len() < self.capacity {
            slots.push(PooledUni { machine, house });
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skilltax_machine::{Assembler, Instr, Word};

    fn spin(iters: Word) -> skilltax_machine::Program {
        let mut asm = Assembler::new();
        asm.movi(0, 0).movi(1, iters);
        asm.label("loop").unwrap();
        asm.emit(Instr::AddI(0, 0, 1));
        asm.blt(0, 1, "loop");
        asm.emit(Instr::Halt);
        asm.assemble().unwrap()
    }

    #[test]
    fn checkout_reuses_a_warm_machine() {
        let pool = UniPool::new(2, 16);
        pool.prewarm(1);
        assert_eq!(pool.idle(), 1);
        let program = spin(10);
        for _ in 0..5 {
            let stats = pool
                .run(1_000, CancelToken::new(), |m| m.run(&program))
                .unwrap();
            assert!(stats.cycles > 10);
        }
        assert_eq!(pool.cold_builds(), 0, "warm pool never builds");
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn empty_pool_cold_builds_and_parks_up_to_capacity() {
        let pool = UniPool::new(1, 16);
        let program = spin(5);
        pool.run(1_000, CancelToken::new(), |m| m.run(&program).unwrap());
        assert_eq!(pool.cold_builds(), 1);
        assert_eq!(pool.idle(), 1, "machine parked after use");
        pool.run(1_000, CancelToken::new(), |m| m.run(&program).unwrap());
        assert_eq!(pool.cold_builds(), 1, "second run reused the park");
    }

    #[test]
    fn state_never_leaks_between_checkouts() {
        let pool = UniPool::new(1, 16);
        let program = spin(10);
        pool.run(1_000, CancelToken::new(), |m| {
            m.run(&program).unwrap();
            assert_eq!(m.reg(0), 10);
        });
        pool.run(1_000, CancelToken::new(), |m| {
            assert_eq!(m.reg(0), 0, "register file leaked between tenants");
        });
    }

    #[test]
    fn a_cancelled_checkout_does_not_poison_the_next() {
        let pool = UniPool::new(1, 16);
        let token = CancelToken::new();
        token.cancel();
        let program = spin(10);
        assert!(pool.run(1_000, token, |m| m.run(&program)).is_err());
        // The raised flag belonged to the request token, not the pool.
        let stats = pool
            .run(1_000, CancelToken::new(), |m| m.run(&program))
            .unwrap();
        assert!(stats.cycles > 10);
    }
}
