//! Host-speed normalisation of the timed figures.
//!
//! The shared host this benchmark was built on speeds up and slows down by
//! 20–80% over seconds to minutes, for reasons outside the process. Every
//! timed stretch of work (a set-up, a training batch, a slice of serve
//! requests) is therefore a *segment*: a short fixed probe runs just before
//! and just after it on every core, and the segment's wall times are scaled
//! by how long the probe took against [`REFERENCE_PROBE_S`]. A segment that
//! ran while the host was 30% slow has its times cut by about 30%; a change
//! to the program changes the segment and not the probe, so it still shows
//! in full. The probe is the benchmark's own code and calls nothing in the
//! program.

use crate::trace;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The probe's median wall time on the reference host (2 vCPUs of a
/// shared x86-64 machine), so a scale of 1 means "as fast as that host
/// usually is". A constant: normalised figures compare across commits.
const REFERENCE_PROBE_S: f64 = 0.015;

/// A probe taken less than this long ago also serves as the next
/// segment's "before" probe.
const PROBE_REUSE: Duration = Duration::from_millis(200);

/// Words, sort keys and floats in one thread's share of the probe.
const PROBE_WORDS: usize = 4000;
const PROBE_KEYS: usize = 60_000;
const PROBE_FLOATS: usize = 200_000;

pub struct Clock {
    threads: usize,
    /// The last probe's wall time and when it ended.
    last: Option<(f64, Instant)>,
    /// Every probe's wall time, in seconds.
    pub probes: Vec<f64>,
}

impl Clock {
    pub fn new(threads: usize) -> Clock {
        Clock { threads, last: None, probes: Vec::new() }
    }

    /// Run `work` as one segment. Returns its result, its raw wall time in
    /// seconds, and the scale that turns its times into reference-host
    /// times (`REFERENCE_PROBE_S` over the mean of the probes around it).
    pub fn segment<R>(&mut self, work: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = match self.last {
            Some((s, at)) if at.elapsed() < PROBE_REUSE => s,
            _ => self.probe(),
        };
        let t = trace::now();
        let out = work();
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.probe();
        (out, raw_s, REFERENCE_PROBE_S / ((before + after) / 2.0))
    }

    /// Run the probe on every core at once; returns its wall time.
    fn probe(&mut self) -> f64 {
        let t = trace::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..self.threads).map(|k| scope.spawn(move || probe_work(k as u64 + 1))).collect();
            for h in handles {
                std::hint::black_box(h.join().expect("a probe thread panicked"));
            }
        });
        let s = t.elapsed().as_secs_f64();
        self.last = Some((s, trace::now()));
        self.probes.push(s);
        s
    }
}

/// One thread's share of the probe, twice over: build and count short
/// words, sort pseudo-random keys, and sweep a float array. String,
/// hashing, branchy and streaming work, like the program's, in fixed
/// amounts.
fn probe_work(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut out = 0u64;
    for rep in 0..2 {
        let mut counts: HashMap<String, u32> = HashMap::new();
        for _ in 0..PROBE_WORDS {
            let n = next();
            let word: String =
                (0..3 + n % 9).map(|i| char::from(b'a' + ((n >> (i * 5)) % 26) as u8)).collect();
            *counts.entry(word).or_default() += 1;
        }
        let mut keys: Vec<u64> = (0..PROBE_KEYS).map(|_| next()).collect();
        keys.sort_unstable();
        let xs: Vec<f64> = (0..PROBE_FLOATS).map(|i| (i as f64).sin()).collect();
        let mut acc = 0.0;
        for r in 0..4 {
            for (i, y) in xs.iter().enumerate() {
                acc += y * xs[(i * 7 + r + rep) % xs.len()];
            }
        }
        out ^= counts.len() as u64 ^ keys[keys.len() / 2] ^ acc.to_bits();
    }
    out
}
