//! A small, seeded, dependency-free pseudo-random number generator.
//!
//! The workspace builds hermetically (no external crates), so everything
//! that needs randomness — the synthetic bibliometric dataset, the
//! fault-injection scheduler in `skilltax-machine`, and the deterministic
//! case-sweep test harnesses that replaced `proptest` — draws from this
//! xorshift64* generator.  It is *not* cryptographic; it is deterministic,
//! fast, and good enough to decorrelate case sweeps.

/// A seeded xorshift64* generator.
///
/// The raw seed is pre-mixed with a SplitMix64 step so that seed `0` and
/// adjacent seeds (`1`, `2`, ...) still produce decorrelated streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

/// One SplitMix64 scramble step (used for seeding).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl XorShift64 {
    /// A generator seeded from `seed` (any value, including 0).
    pub fn new(seed: u64) -> XorShift64 {
        // xorshift requires a non-zero state; SplitMix64 maps exactly one
        // input to 0, so re-mix in that single case.
        let mut state = splitmix64(seed);
        if state == 0 {
            state = splitmix64(seed.wrapping_add(1)) | 1;
        }
        XorShift64 { state }
    }

    /// The next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `0..bound` (`bound` must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift bounding; bias is negligible for our bounds.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A `usize` in `0..bound` (`bound` must be non-zero).
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// An `i64` in the half-open range `lo..hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add(self.below(span) as i64)
    }

    /// A `u64` in the half-open range `lo..hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// A `usize` in the half-open range `lo..hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit_f64() * (hi - lo)
    }

    /// A coin flip with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// A reference to one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below_usize(items.len())]
    }

    /// Fork a decorrelated child generator (for per-case seeding in the
    /// sweep test harnesses).
    pub fn fork(&mut self) -> XorShift64 {
        XorShift64::new(self.next_u64())
    }
}

/// Run `cases` deterministic sweep iterations, handing each case its own
/// decorrelated generator: the hermetic stand-in for `proptest!`.
///
/// Panics (test assertion failures) propagate with the case index in the
/// message so a failing case is reproducible from the fixed master seed.
pub fn sweep_cases(master_seed: u64, cases: usize, mut body: impl FnMut(usize, &mut XorShift64)) {
    let mut master = XorShift64::new(master_seed);
    for case in 0..cases {
        let mut rng = master.fork();
        body(case, &mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = XorShift64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = XorShift64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = XorShift64::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn zero_seed_is_legal_and_nonzero_stream() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn bounds_are_respected() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.range_i64(-5, 5);
            assert!((-5..5).contains(&v));
            let f = r.range_f64(-0.05, 0.05);
            assert!((-0.05..0.05).contains(&f));
            let u = r.range_usize(3, 9);
            assert!((3..9).contains(&u));
        }
    }

    #[test]
    fn unit_floats_cover_the_interval() {
        let mut r = XorShift64::new(11);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..1000 {
            let f = r.unit_f64();
            assert!((0.0..1.0).contains(&f));
            lo |= f < 0.25;
            hi |= f > 0.75;
        }
        assert!(lo && hi, "stream never left the middle of [0,1)");
    }

    #[test]
    fn sweep_cases_is_reproducible() {
        let mut first = Vec::new();
        sweep_cases(99, 5, |_, rng| first.push(rng.next_u64()));
        let mut second = Vec::new();
        sweep_cases(99, 5, |_, rng| second.push(rng.next_u64()));
        assert_eq!(first, second);
        assert_eq!(first.len(), 5);
    }

    #[test]
    fn pick_and_chance_behave() {
        let mut r = XorShift64::new(3);
        let items = [1, 2, 3];
        for _ in 0..100 {
            assert!(items.contains(r.pick(&items)));
        }
        let heads = (0..1000).filter(|_| r.chance(0.5)).count();
        assert!((300..700).contains(&heads), "{heads} heads");
    }
}
