//! The in-run yardstick that scales timings to one reference host speed.
//!
//! The 2-vCPU host this benchmark was built on switches between a fast and
//! a slow state about 1.5x apart, each lasting seconds; a 20 s run can sit
//! almost wholly in either, so raw timings of the same code differ by 25%
//! between runs. The yardstick is a fixed kernel of the benchmark's own
//! (fill and sort 100k integers, no program code) timed while the program
//! is idle, about once a second. Every timing taken between two yardstick
//! samples is multiplied by `REF_NS / yardstick`, which reads it as it
//! would have been with the host in its fast state. The program cannot
//! move the yardstick, so a change to it still moves the scaled figures
//! in full.

use std::cell::RefCell;
use std::time::Instant;

/// The yardstick's duration in the host's fast state: the reference speed
/// every scaled timing is read at.
pub const REF_NS: f64 = 2_150_000.0;

const LEN: usize = 100_000;

thread_local! {
    static BUF: RefCell<Vec<u32>> = RefCell::new(vec![0; LEN]);
}

fn kernel(buf: &mut [u32], seed: u64) -> u32 {
    let mut x = seed | 1;
    for v in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = x as u32;
    }
    buf.sort_unstable();
    buf[LEN / 2]
}

/// Times the kernel three times and returns the median, in ns.
pub fn sample() -> f64 {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let mut t = [0f64; 3];
        for (i, slot) in t.iter_mut().enumerate() {
            let start = Instant::now();
            std::hint::black_box(kernel(&mut b, 0x9e37_79b9 + i as u64));
            *slot = start.elapsed().as_nanos() as f64;
        }
        t.sort_by(f64::total_cmp);
        t[1]
    })
}

/// The factor that reads a timing taken between yardstick samples `a` and
/// `b` at the reference speed.
pub fn scale(a: f64, b: f64) -> f64 {
    REF_NS / ((a + b) / 2.0)
}

/// Appends `from` to `into`, each time multiplied by `f`.
pub fn append_scaled(into: &mut Vec<u64>, from: &[u64], f: f64) {
    into.extend(from.iter().map(|&ns| (ns as f64 * f) as u64));
}
