//! The yardstick: a fixed piece of work, owned by the benchmark, that is
//! timed in between the slices of every pass so that the host's speed at
//! that moment can be divided out of the program's timings.
//!
//! Why: the sandbox shares its host, and the host's speed wanders — by a
//! few percent from one millisecond to the next and by 30–60% from one
//! quarter of an hour to the next (the same binary on the same seed reads
//! 33 k or 55 k operations a second). No statistic of raw times is steady
//! under that: the fastest of many repeats moves with the host's mood
//! just as the median does. What does hold still is the *ratio* of the
//! program's time to the time of other work done on the same core within
//! the same few milliseconds: over an hour of runs that ratio's range was
//! 9–18% of its median while the raw times' range was 34–69%.
//!
//! The work is looking names up in a `HashMap<String, u64>`: hashing,
//! probing, comparing strings — the kind of thing the program spends its
//! time on (of four kernels tried, it tracked the workloads best; a
//! pointer chase and an arithmetic loop did not track them at all). It
//! allocates nothing after [`Yardstick::new`], and every reading first
//! sweeps its table untimed, so that what the program left in the caches
//! — which a change to the program would alter — does not move the
//! reading.

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Names in the table.
const NAMES: usize = 3_000;
/// Untimed sweeps over the table before a reading, and timed ones.
const WARM_SWEEPS: usize = 2;
const TIMED_SWEEPS: usize = 16;

/// What one lookup takes on the host the seed numbers were taken on when
/// nothing disturbs it. Timings are reported as if the yardstick always
/// ran at this speed.
pub const REFERENCE_NS: f64 = 20.0;

pub struct Yardstick {
    names: Vec<String>,
    table: HashMap<String, u64>,
}

impl Yardstick {
    fn new() -> Self {
        let names: Vec<String> = (0..NAMES).map(|i| format!("Product_{i}")).collect();
        let table = names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), i as u64))
            .collect();
        Self { names, table }
    }

    fn sweep(&self, salt: u64) -> u64 {
        self.names
            .iter()
            .fold(salt, |acc, name| acc ^ self.table[name.as_str()])
    }

    /// Nanoseconds per lookup right now.
    fn read(&self) -> f64 {
        let mut acc = 0;
        for sweep in 0..WARM_SWEEPS {
            acc = self.sweep(acc + sweep as u64);
        }
        let t0 = Instant::now();
        for sweep in 0..TIMED_SWEEPS {
            acc = self.sweep(acc + sweep as u64);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        std::hint::black_box(acc);
        ns / (TIMED_SWEEPS * NAMES) as f64
    }
}

/// One reading of the process's yardstick (built on first use).
pub fn read() -> f64 {
    static YARDSTICK: OnceLock<Yardstick> = OnceLock::new();
    YARDSTICK.get_or_init(Yardstick::new).read()
}
