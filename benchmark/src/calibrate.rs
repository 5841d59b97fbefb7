//! The host-speed reference every run carries with it.
//!
//! This benchmark runs on shared two-core virtual machines whose speed is
//! not constant: two sets of ten runs of the *same* code a quarter of an
//! hour apart disagreed by 36–44 % on the CPU-bound set-up of three
//! workloads — code no metric's timed path shares — and took the latency
//! metrics with them. Allocation-, hashing- and string-heavy code (which is
//! what the Fig. 1 pipeline is outside its float kernels) runs ~1.5× slower
//! for seconds or minutes at a time while tight arithmetic loops do not
//! move. No statistic *within* a run can see that; a bound of 25 % cannot
//! survive it. (README.md, *Host normalisation*, has the measurements.)
//!
//! So every run interleaves slices of a fixed reference computation of the
//! same character — tokenise, lowercase and count words in a hash map; fill
//! and probe an integer map — with its measured operations, and divides
//! **every timed sample by the host factor measured around it**: the mean
//! slice time just before and just after the sample, over the time a slice
//! takes on the reference host at full speed. Medians are then taken over
//! the normalised samples. (Per sample, not per run: the slow state comes
//! and goes within a run, and a slice is bimodal — 5 ms or 7.5 ms — so a
//! run-wide median factor flips where the samples do not.) The factor uses
//! nothing from the crates under test, so no change to them can move it.
//! Wall-clock values are kept beside the normalised ones (`wall_*` aliases,
//! `host_factor` fact, `bench.host_factor` metric).

use crate::stats;
use std::collections::HashMap;
use std::time::Instant;

/// Seconds one slice takes on the reference host (2 × Xeon 2.1 GHz vCPU)
/// when it is not slowed: the first decile of three thousand slices. Only a
/// scale: it keeps normalised milliseconds close to wall milliseconds.
pub const REFERENCE_SLICE_S: f64 = 0.0052;

/// Words in the synthetic text one slice tokenises.
const WORDS: usize = 36_000;
const VOCABULARY: u64 = 3_000;
/// Entries of the integer map one slice fills and probes.
const MAP_ENTRIES: u64 = 40_000;

fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference computation and the slice times measured so far.
pub struct Calibrator {
    text: String,
    slices_s: Vec<f64>,
    /// The fastest slice of each [`Calibrator::host_now`] call.
    recent: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        // Pseudo-words of 3–10 letters in mixed case from a fixed stream:
        // every run of every build tokenises the same text.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut text = String::with_capacity(WORDS * 8);
        for _ in 0..WORDS {
            let mut w = next(&mut x) % VOCABULARY;
            let len = 3 + (w % 8) as usize;
            for i in 0..len {
                let c = b'a' + (w % 26) as u8;
                text.push(if i == 0 { c.to_ascii_uppercase() } else { c } as char);
                w = w / 26 + 7 * (i as u64 + 1);
            }
            text.push(' ');
        }
        Calibrator {
            text,
            slices_s: Vec::new(),
            recent: Vec::new(),
        }
    }
}

impl Calibrator {
    /// The host factor right now: the fastest of three slices over the
    /// reference. Above 1 on a slowed host. The fastest, because the first
    /// slice after a timed operation also pays for the caches that
    /// operation emptied — a property of the workload, not of the host —
    /// while a slowed host slows all three.
    pub fn host_now(&mut self) -> f64 {
        let fastest = (0..3).map(|_| self.slice()).fold(f64::INFINITY, f64::min);
        self.recent.push(fastest);
        fastest / REFERENCE_SLICE_S
    }

    /// Run one slice (≈ 5 ms), record and return how long it took.
    pub fn slice(&mut self) -> f64 {
        let t = Instant::now();
        let mut counts: HashMap<String, u32> = HashMap::new();
        for word in self.text.split_whitespace() {
            *counts.entry(word.to_lowercase()).or_insert(0) += 1;
        }
        let mut map: HashMap<u64, u64> = HashMap::new();
        let mut x = 88_172_645_463_325_252u64;
        for i in 0..MAP_ENTRIES {
            map.insert(next(&mut x), i);
        }
        let mut sum = counts.len() as u64;
        x = 88_172_645_463_325_252u64;
        for _ in 0..MAP_ENTRIES {
            sum = sum.wrapping_add(map[&next(&mut x)]);
        }
        std::hint::black_box(sum);
        let s = t.elapsed().as_secs_f64();
        self.slices_s.push(s);
        s
    }

    pub fn slices(&self) -> &[f64] {
        &self.slices_s
    }

    /// Mean of the run's [`Calibrator::host_now`] readings — how slow the
    /// host was on average. 1 when none was taken.
    pub fn host_factor(&self) -> f64 {
        if self.recent.is_empty() {
            1.0
        } else {
            stats::mean(&self.recent) / REFERENCE_SLICE_S
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_is_the_fastest_of_three_slices_over_the_reference() {
        let mut c = Calibrator::default();
        assert_eq!(c.host_factor(), 1.0);
        let now = c.host_now();
        assert_eq!(c.slices().len(), 3);
        let fastest = c.slices().iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(now, fastest / REFERENCE_SLICE_S);
        let again = c.host_now();
        assert!((c.host_factor() - (now + again) / 2.0).abs() < 1e-12);
        assert!(c.host_factor() > 0.0);
    }

    #[test]
    fn the_text_is_the_same_every_time() {
        let (a, b) = (Calibrator::default(), Calibrator::default());
        assert_eq!(a.text, b.text);
        assert_eq!(a.text.split_whitespace().count(), WORDS);
    }
}
