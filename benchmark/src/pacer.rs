//! Open-loop load generation from the single driver thread.
//!
//! A work-conserving pacer: wait until the next request is due, then hand
//! *every* request that is due by now (up to `max_batch`) to the service in
//! one call. Latency is completion minus the request's **scheduled** due
//! time, never the time it was actually sent — so a stall in the service
//! is charged to every request that had to wait behind it, as independent
//! users would experience it.

use crate::stats;
use std::ops::Range;
use std::time::{Duration, Instant};

/// What one paced run measured.
#[derive(Debug, Clone, Default)]
pub struct PacedRun {
    /// Per request, completion − scheduled due time (µs), in request order.
    pub latency_us: Vec<f64>,
    /// Per wait, hand-over − due time (µs): how late the generator itself
    /// ran. Only recorded when the pacer actually waited — when it is behind
    /// schedule the delay is the system's backlog, not the generator's.
    pub lateness_us: Vec<f64>,
    /// Calls into the service.
    pub batches: u64,
    /// Most requests already due but not yet handed over, at any hand-over.
    pub max_backlog: usize,
    /// Requests in batches the service failed.
    pub failed: u64,
    /// First due time → last completion.
    pub wall: Duration,
    /// Last completion − last due time (µs): how long the backlog took to
    /// drain once the schedule ended.
    pub drain_us: f64,
}

impl PacedRun {
    pub fn requests(&self) -> usize {
        self.latency_us.len()
    }

    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.latency_us) / 1e3
    }

    pub fn mean_batch(&self) -> f64 {
        self.requests() as f64 / self.batches.max(1) as f64
    }

    /// Requests answered later than `limit` after they were due. A failed
    /// request misses any limit; it is counted once, by `failed`.
    pub fn later_than(&self, limit: Duration) -> u64 {
        let limit_us = limit.as_secs_f64() * 1e6;
        self.latency_us.iter().filter(|&&l| l > limit_us).count() as u64
    }
}

/// Drive `due_us` (non-decreasing offsets from the start of the run)
/// through `serve`, which answers the requests in the given index range and
/// returns whether the call succeeded.
pub fn run_paced(
    due_us: &[u64],
    max_batch: usize,
    mut serve: impl FnMut(Range<usize>) -> bool,
) -> PacedRun {
    assert!(
        due_us.windows(2).all(|w| w[0] <= w[1]),
        "schedule must be sorted by due time"
    );
    let n = due_us.len();
    let cap = max_batch.max(1);
    let mut run = PacedRun {
        latency_us: vec![0.0; n],
        ..PacedRun::default()
    };
    let start = Instant::now();
    let now_us = |start: &Instant| start.elapsed().as_secs_f64() * 1e6;
    let mut i = 0usize;
    let mut done = 0.0;
    while i < n {
        let due = due_us[i] as f64;
        let mut now = now_us(&start);
        if due > now {
            // Spin, do not sleep: a sleeping vCPU on a shared host is handed
            // to other guests and comes back with cold caches, which put up
            // to 70 % on a run's median latency — on some runs and not on
            // others. (The engine's workers still park between jobs.)
            while now < due {
                std::hint::spin_loop();
                now = now_us(&start);
            }
            run.lateness_us.push(now - due);
        }
        let mut end = i + 1;
        while end < n && end - i < cap && due_us[end] as f64 <= now {
            end += 1;
        }
        let backlog = due_us[end..]
            .iter()
            .take_while(|&&d| d as f64 <= now)
            .count();
        run.max_backlog = run.max_backlog.max(backlog);
        if !serve(i..end) {
            run.failed += (end - i) as u64;
        }
        done = now_us(&start);
        for (latency, &due) in run.latency_us[i..end].iter_mut().zip(&due_us[i..end]) {
            *latency = done - due as f64;
        }
        run.batches += 1;
        i = end;
    }
    run.wall = Duration::from_secs_f64(done / 1e6);
    run.drain_us = due_us.last().map_or(0.0, |&last| done - last as f64);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_measured_from_the_scheduled_time() {
        // Ten requests, one every 5 ms. The fake service stalls 40 ms on
        // the first call and answers instantly afterwards. Measured from
        // *send* time only the first request would look slow; measured from
        // the schedule, everything due during the stall is late too.
        let due: Vec<u64> = (0..10).map(|i| i * 5_000).collect();
        let mut calls = 0;
        let run = run_paced(&due, 64, |_| {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(Duration::from_millis(40));
            }
            true
        });
        assert_eq!(run.requests(), 10);
        assert!(run.latency_us[0] >= 40_000.0, "{:?}", run.latency_us);
        // Request 4 was due at 20 ms, mid-stall: it waited ≥ 20 ms.
        assert!(run.latency_us[4] >= 19_000.0, "{:?}", run.latency_us);
        // Request 7 was due at 35 ms: ≥ 5 ms behind the stall.
        assert!(run.latency_us[7] >= 4_000.0, "{:?}", run.latency_us);
        // The backlog was handed over in one batch once the stall ended.
        assert!(run.batches <= 4, "work-conserving: {} batches", run.batches);
        assert!(run.max_backlog == 0, "cap 64 takes the whole backlog");
        assert_eq!(run.failed, 0);
        assert!(run.later_than(Duration::from_millis(15)) >= 5);
    }

    #[test]
    fn saturated_schedule_respects_the_batch_cap_and_counts_failures() {
        let due = vec![0u64; 100];
        let mut sizes = Vec::new();
        let run = run_paced(&due, 16, |r| {
            sizes.push(r.len());
            sizes.len() != 2
        });
        assert_eq!(sizes, vec![16, 16, 16, 16, 16, 16, 4]);
        assert_eq!(run.failed, 16);
        assert_eq!(run.max_backlog, 84);
        assert!(run.lateness_us.is_empty(), "never waited");
    }
}
