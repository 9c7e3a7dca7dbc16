//! The host control: a fixed memory-bound loop whose time moves only
//! with the host, never with the program under test.
//!
//! A dependent pointer chase over a buffer eight times the 4 MiB L2
//! visits a new cache line on every step, so it slows down the way the
//! simulator does when the machine is shared. A pure-arithmetic loop
//! does not: it stays flat while the same simulator work drifts 40%.

use std::time::Instant;

/// Buffer size: 32 MiB of `u64` slots.
const SLOTS: usize = 4 << 20;
/// Dependent loads per timing.
const STEPS: usize = 1 << 20;

/// A single-cycle random permutation to chase, built once per process.
#[derive(Debug)]
pub struct Control {
    next: Vec<u64>,
}

impl Default for Control {
    fn default() -> Self {
        // Sattolo's algorithm gives one cycle through every slot.
        let mut next: Vec<u64> = (0..SLOTS as u64).collect();
        let mut rng = crate::gen::Rng::new(0x5eed, 0);
        for i in (1..SLOTS).rev() {
            let j = rng.below(i as u64) as usize;
            next.swap(i, j);
        }
        Control { next }
    }
}

impl Control {
    /// Milliseconds for [`STEPS`] dependent loads.
    pub fn time_ms(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u64;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        std::hint::black_box(at);
        start.elapsed().as_secs_f64() * 1e3
    }
}
