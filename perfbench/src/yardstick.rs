//! The host-speed yardstick: a fixed piece of work, written here and
//! independent of the analysis crates, timed after every analysis of the
//! timed loop.
//!
//! The shared host's speed drifts by tens of percent over minutes, so the
//! wall time of one analysis differs between two runs of the same code by
//! more than any useful bound.  The yardstick slows down and speeds up
//! with the analyses around it; an analysis's time divided by the
//! yardstick's median time nearby is the program's own cost in a unit the
//! host's drift cancels out of.  The yardstick's work never changes, so a
//! change to the analysis crates moves these ratios and the host does not.
//! (A change that speeds up everything the process does alike — a new
//! global allocator, say — would speed up the yardstick too and not show.)
//!
//! The work resembles an analysis step: small heap allocations, an ordered
//! map grown key by key and walked, a hash map hit at random, over a
//! working set of about a megabyte — the analyses' own scale, since a
//! smaller one stays in cache and misses the memory-bound part of the
//! drift.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Keys the yardstick inserts.
const KEYS: u64 = 30_000;

/// Distinct ordered-map keys they fall into.
const BUCKETS: u64 = 12_000;

/// Yardstick samples on each side of an analysis that its ratio is taken
/// against, so the median spans about two passes of a five-program set.
pub const WINDOW: usize = 5;

/// The yardstick's work; returns a checksum so that none of it can be
/// optimised away.
pub fn work() -> u64 {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut ordered: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut hashed: HashMap<u64, u64> = HashMap::new();
    for i in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ordered.entry(x % BUCKETS).or_default().push(i);
        *hashed.entry(x % (BUCKETS * 4)).or_default() += i;
    }
    let mut sum = 0u64;
    for (k, v) in &ordered {
        let copy = v.clone();
        sum = sum.wrapping_add(k ^ copy.iter().sum::<u64>());
        sum = sum.wrapping_add(hashed.get(&(k * 3)).copied().unwrap_or(0));
    }
    black_box(sum)
}

/// One timed run of the yardstick, in seconds.
pub fn time_once() -> f64 {
    let start = Instant::now();
    black_box(work());
    start.elapsed().as_secs_f64()
}

/// The median of `xs` (not empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Each wall time in `walls` divided by the median of the yardstick times
/// `sticks[i - WINDOW ..= i + WINDOW]` (clipped at the ends): the
/// analyses' costs in yardsticks.  `sticks[i]` is the yardstick timed right
/// after the analysis `walls[i]`.
pub fn relative(walls: &[f64], sticks: &[f64]) -> Vec<f64> {
    assert_eq!(walls.len(), sticks.len(), "one yardstick per analysis");
    walls
        .iter()
        .enumerate()
        .map(|(i, wall)| {
            let lo = i.saturating_sub(WINDOW);
            let hi = (i + WINDOW + 1).min(sticks.len());
            wall / median(&sticks[lo..hi])
        })
        .collect()
}
