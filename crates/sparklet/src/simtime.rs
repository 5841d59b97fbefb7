//! Virtual-time cost model.
//!
//! The paper's evaluation reports wall-clock minutes on a 14-node Spark
//! cluster. This harness has a single physical core, so the only faithful
//! way to reproduce execution-*time* figures is a deterministic model.
//!
//! Every task attempt accrues a virtual cost:
//!
//! ```text
//! attempt_us = launch_overhead
//!            + ops * op_ns / 1000          (charged by domain code)
//!            + records_out * record_ns / 1000
//!            + shuffle_bytes * shuffle_byte_ns / 1000
//! ```
//!
//! Failed attempts contribute their partial cost plus a retry penalty to the
//! same task (a task's attempts are serial). Per stage, the [`VirtualClock`]
//! records the final per-task durations and the shuffle volume; a
//! longest-processing-time list scheduler then computes the stage makespan
//! for *any* executor topology, plus a per-executor coordination term. This
//! is what lets one recorded run answer "how long would this take on E
//! executors?" — exactly the question the paper's Figs. 6b, 8b, 9 and 10 ask.

use crate::config::CostModelConfig;
use parking_lot::Mutex;
use std::sync::Arc;

/// Cost record of one completed stage.
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// Stage name (action or shuffle-write stage).
    pub name: String,
    /// Final virtual duration of each task in µs (includes retried attempts).
    pub task_us: Vec<u64>,
    /// Bytes this stage moved through the shuffle service.
    pub shuffle_bytes: u64,
    /// Failed attempts across the stage.
    pub retries: u64,
    /// Home partition of each task when the stage ran morsel-driven through
    /// [`crate::Cluster::run_morsel_job`] (morsels of one partition are
    /// contiguous and in order); `None` for whole-partition stages. Present,
    /// it switches makespan queries from LPT list scheduling to the
    /// deterministic steal simulation (`simulate_morsels`).
    pub morsels: Option<Vec<usize>>,
}

impl StageRecord {
    /// Makespan of this stage on `slots` parallel task slots. Morsel stages
    /// replay the owner-queue/steal simulation at the queried width; plain
    /// stages use LPT list scheduling (deterministic, order-independent up
    /// to ties).
    pub fn makespan_us(&self, slots: usize) -> u64 {
        match &self.morsels {
            Some(partition_of) => simulate_morsels(&self.task_us, partition_of, slots).makespan_us,
            None => self.lpt_makespan_us(slots),
        }
    }

    fn lpt_makespan_us(&self, slots: usize) -> u64 {
        let slots = slots.max(1);
        let mut tasks = self.task_us.clone();
        tasks.sort_unstable_by(|a, b| b.cmp(a));
        let mut loads = vec![0u64; slots];
        for t in tasks {
            // Assign to the least-loaded slot.
            let (idx, _) = loads
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| **l)
                .expect("slots >= 1");
            loads[idx] += t;
        }
        loads.into_iter().max().unwrap_or(0)
    }
}

/// Outcome of `simulate_morsels`: the schedule a morsel stage's recorded
/// costs produce on a given number of workers.
#[derive(Debug, Clone, Default)]
pub struct SchedSim {
    /// Virtual completion time of the slowest worker (µs).
    pub makespan_us: u64,
    /// Per-worker busy time (µs).
    pub busy_us: Vec<u64>,
    /// Morsels each worker executed (own + stolen).
    pub morsels_run: Vec<u64>,
    /// Coalesced steal edges `(thief, victim, count)`, ordered by first
    /// occurrence.
    pub steals: Vec<(usize, usize, u64)>,
}

impl SchedSim {
    /// Total morsels that ran away from their home worker.
    pub(crate) fn stolen_count(&self) -> u64 {
        self.steals.iter().map(|&(_, _, n)| n).sum()
    }
}

/// Deterministic owner-queue/steal simulation over recorded per-morsel
/// costs.
///
/// Each worker starts with the queue of morsels whose home partition maps to
/// it (`partition_of[m] % workers`), in morsel order. The event loop always
/// advances the worker with the smallest virtual time (ties: lowest id): it
/// pops the front of its own queue, or — once that is empty — the *tail* of
/// the queue with the most remaining work (ties: lowest victim id).
///
/// A pure function of its inputs, so any recorded run can be replayed at any
/// worker count — the morsel analogue of the LPT query, and the authority
/// for the steal counters and the job report's utilization table.
pub(crate) fn simulate_morsels(
    task_us: &[u64],
    partition_of: &[usize],
    workers: usize,
) -> SchedSim {
    use std::collections::VecDeque;
    let workers = workers.max(1);
    debug_assert_eq!(task_us.len(), partition_of.len());
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
    let mut remaining = vec![0u64; workers];
    for (m, &p) in partition_of.iter().enumerate() {
        let w = p % workers;
        queues[w].push_back(m);
        remaining[w] += task_us[m];
    }
    let mut t = vec![0u64; workers];
    let mut sim = SchedSim {
        busy_us: vec![0; workers],
        morsels_run: vec![0; workers],
        ..SchedSim::default()
    };
    let mut steal_edges: Vec<(usize, usize, u64)> = Vec::new();
    loop {
        if queues.iter().all(|q| q.is_empty()) {
            break;
        }
        // The next worker to act: smallest virtual time, lowest id on ties.
        let actor = (0..workers)
            .min_by_key(|&w| (t[w], w))
            .expect("workers >= 1");
        let morsel = match queues[actor].pop_front() {
            Some(m) => {
                remaining[actor] -= task_us[m];
                m
            }
            None => {
                // Steal the tail morsel of the busiest queue.
                let victim = (0..workers)
                    .filter(|&v| !queues[v].is_empty())
                    .max_by_key(|&v| (remaining[v], std::cmp::Reverse(v)))
                    .expect("some queue is non-empty");
                let m = queues[victim].pop_back().expect("victim queue non-empty");
                remaining[victim] -= task_us[m];
                match steal_edges
                    .iter_mut()
                    .find(|(th, vi, _)| *th == actor && *vi == victim)
                {
                    Some((_, _, n)) => *n += 1,
                    None => steal_edges.push((actor, victim, 1)),
                }
                m
            }
        };
        t[actor] += task_us[morsel];
        sim.busy_us[actor] += task_us[morsel];
        sim.morsels_run[actor] += 1;
    }
    sim.makespan_us = t.iter().copied().max().unwrap_or(0);
    sim.steals = steal_edges;
    sim
}

/// Accumulates [`StageRecord`]s over a run and answers makespan queries.
#[derive(Clone, Default)]
pub struct VirtualClock {
    state: Arc<Mutex<ClockState>>,
}

#[derive(Default)]
struct ClockState {
    stages: Vec<StageRecord>,
    /// Sum of every recorded `task_us`: [`VirtualClock::total_work`].
    total_work_us: u64,
}

/// A virtual duration, reported in microseconds with convenience accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct VirtualDuration {
    /// Microseconds.
    pub us: u64,
}

impl VirtualDuration {
    /// Duration in (virtual) seconds.
    pub(crate) fn secs(&self) -> f64 {
        self.us as f64 / 1e6
    }

    /// Duration in (virtual) minutes — the unit the paper plots.
    pub fn minutes(&self) -> f64 {
        self.secs() / 60.0
    }
}

impl std::ops::Add for VirtualDuration {
    type Output = VirtualDuration;
    fn add(self, rhs: Self) -> Self {
        VirtualDuration {
            us: self.us + rhs.us,
        }
    }
}

impl VirtualClock {
    /// Fresh clock with no recorded stages.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record a completed stage.
    pub(crate) fn record_stage(&self, record: StageRecord) {
        let mut state = self.state.lock();
        state.total_work_us += record.task_us.iter().sum::<u64>();
        state.stages.push(record);
    }

    /// Drop all recorded stages (between experiment configurations).
    pub(crate) fn reset(&self) {
        *self.state.lock() = ClockState::default();
    }

    /// Number of stages recorded so far.
    pub fn stage_count(&self) -> usize {
        self.state.lock().stages.len()
    }

    /// Read the recorded stages in place. The clock stays locked while `f`
    /// runs, so `f` must not call back into the clock; slice from a
    /// [`VirtualClock::stage_count`] mark to read only what ran since.
    pub fn with_stages<R>(&self, f: impl FnOnce(&[StageRecord]) -> R) -> R {
        f(&self.state.lock().stages)
    }

    /// Total virtual elapsed time of the recorded run on a cluster of
    /// `executors * cores_per_executor` slots.
    ///
    /// Per stage: LPT makespan over the slots, plus shuffle transfer spread
    /// over the executors, plus the per-executor coordination term from
    /// `cost`. Stages execute sequentially (the engine materialises shuffle
    /// dependencies before dependent stages run), so stage times sum.
    pub fn makespan(
        &self,
        executors: usize,
        cores_per_executor: usize,
        cost: &CostModelConfig,
    ) -> VirtualDuration {
        let executors = executors.max(1);
        let slots = executors * cores_per_executor.max(1);
        let mut total = 0u64;
        for st in self.state.lock().stages.iter() {
            let compute = st.makespan_us(slots);
            let transfer = st.shuffle_bytes * cost.shuffle_byte_ns / 1000 / executors as u64;
            let coordination = cost.coordination_us_per_executor * executors as u64
                / cores_per_executor.max(1) as u64;
            total += compute + transfer + coordination;
        }
        VirtualDuration { us: total }
    }

    /// Sum of all per-task virtual durations (total work, ignoring
    /// parallelism), kept as a running total of the recorded stages. A
    /// parallelism-independent cost measure, and the virtual "now" that
    /// `AtVirtualTime` kill triggers and ingest commit latencies read.
    pub fn total_work(&self) -> VirtualDuration {
        VirtualDuration {
            us: self.state.lock().total_work_us,
        }
    }
}

impl std::fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("VirtualClock")
            .field("stages", &state.stages.len())
            .field("total_task_us", &state.total_work_us)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModelConfig {
        CostModelConfig {
            task_launch_overhead_us: 0,
            op_ns: 1000,
            record_ns: 0,
            shuffle_byte_ns: 0,
            retry_penalty_us: 0,
            coordination_us_per_executor: 0,
            morsel_dispatch_overhead_us: 0,
            chunk_dispatch_ns: 0,
            spill_write_ns: 0,
            spill_read_ns: 0,
        }
    }

    #[test]
    fn makespan_single_slot_is_sum() {
        let r = StageRecord {
            name: "s".into(),
            task_us: vec![5, 3, 9],
            shuffle_bytes: 0,
            retries: 0,
            morsels: None,
        };
        assert_eq!(r.makespan_us(1), 17);
    }

    #[test]
    fn makespan_many_slots_is_max() {
        let r = StageRecord {
            name: "s".into(),
            task_us: vec![5, 3, 9],
            shuffle_bytes: 0,
            retries: 0,
            morsels: None,
        };
        assert_eq!(r.makespan_us(3), 9);
        assert_eq!(r.makespan_us(100), 9);
    }

    #[test]
    fn makespan_with_more_slots_than_tasks_leaves_slots_idle() {
        // slots > tasks: extra slots stay at load 0 and the makespan is the
        // longest single task — never 0 from an idle slot winning the max.
        let r = StageRecord {
            name: "s".into(),
            task_us: vec![7],
            shuffle_bytes: 0,
            retries: 0,
            morsels: None,
        };
        assert_eq!(r.makespan_us(1), 7);
        assert_eq!(r.makespan_us(2), 7);
        assert_eq!(r.makespan_us(64), 7);
    }

    #[test]
    fn makespan_of_empty_stage_is_zero() {
        let r = StageRecord {
            name: "empty".into(),
            task_us: vec![],
            shuffle_bytes: 0,
            retries: 0,
            morsels: None,
        };
        assert_eq!(r.makespan_us(1), 0);
        assert_eq!(r.makespan_us(8), 0);
        // Degenerate slot count clamps rather than panicking.
        assert_eq!(r.makespan_us(0), 0);
    }

    #[test]
    fn lpt_balances_two_slots() {
        let r = StageRecord {
            name: "s".into(),
            task_us: vec![4, 3, 3, 2],
            shuffle_bytes: 0,
            retries: 0,
            morsels: None,
        };
        // LPT: 4|_, 4|3, 4+2=6? No: loads after 4,3 -> [4,3]; next 3 -> [4,6];
        // next 2 -> [6,6]. Makespan 6 (optimal).
        assert_eq!(r.makespan_us(2), 6);
    }

    #[test]
    fn stealing_balances_a_hot_queue() {
        // All four morsels home on worker 0; worker 1 takes from the tail
        // and the makespan is half the home-queue load of 40.
        let sim = simulate_morsels(&[10, 10, 10, 10], &[0, 0, 0, 0], 2);
        assert_eq!(sim.makespan_us, 20);
        assert_eq!(sim.stolen_count(), 2);
        assert_eq!(sim.steals, vec![(1, 0, 2)]);
        assert_eq!(sim.morsels_run, vec![2, 2]);
    }

    #[test]
    fn steal_victims_are_the_busiest_queue_tail() {
        // Worker 0 is idle; queues 1 (heavy) and 2 (light) have work. The
        // thief must take from 1's tail — the 60 µs morsel, not the head.
        let sim = simulate_morsels(&[100, 60, 5], &[1, 1, 2], 3);
        assert_eq!(sim.steals, vec![(0, 1, 1)]);
        assert_eq!(sim.busy_us, vec![60, 100, 5]);
        assert_eq!(sim.makespan_us, 100);
    }

    #[test]
    fn simulation_is_deterministic_and_conserves_work() {
        let task_us: Vec<u64> = (0..97).map(|i| (i * 37) % 113 + 1).collect();
        let partition_of: Vec<usize> = (0..97).map(|i| i / 13).collect();
        for workers in [1, 2, 5, 8] {
            let a = simulate_morsels(&task_us, &partition_of, workers);
            let b = simulate_morsels(&task_us, &partition_of, workers);
            assert_eq!(a.makespan_us, b.makespan_us);
            assert_eq!(a.busy_us, b.busy_us);
            assert_eq!(a.steals, b.steals);
            let total: u64 = task_us.iter().sum();
            assert_eq!(a.busy_us.iter().sum::<u64>(), total, "work conserved");
            assert!(a.makespan_us >= total / workers as u64);
            assert!(a.makespan_us <= total);
        }
    }

    #[test]
    fn stealing_never_slows_a_stage_down() {
        // Reference: every morsel on its home worker, makespan = the largest
        // home-queue load.
        let task_us: Vec<u64> = (0..64).map(|i| ((i * 29) % 71 + 1) * 10).collect();
        let partition_of: Vec<usize> = (0..64).map(|i| i / 9).collect();
        for workers in [2, 4, 8] {
            let mut home_load = vec![0u64; workers];
            for (m, &p) in partition_of.iter().enumerate() {
                home_load[p % workers] += task_us[m];
            }
            let fixed = home_load.into_iter().max().unwrap_or(0);
            let stealing = simulate_morsels(&task_us, &partition_of, workers).makespan_us;
            assert!(
                stealing <= fixed,
                "{workers} workers: steal {stealing} > home load {fixed}"
            );
        }
    }

    #[test]
    fn empty_simulation_is_zero() {
        let sim = simulate_morsels(&[], &[], 4);
        assert_eq!(sim.makespan_us, 0);
        assert_eq!(sim.busy_us, vec![0; 4]);
        // Degenerate worker count clamps rather than panicking.
        let sim = simulate_morsels(&[5], &[0], 0);
        assert_eq!(sim.makespan_us, 5);
    }

    #[test]
    fn morsel_stage_records_answer_makespans_via_the_simulation() {
        // Owner queues: worker 0 runs 10 then 50, worker 1 runs 40 and finds
        // nothing left to steal — 60, where LPT would pack 50 | 40 + 10.
        let r = StageRecord {
            name: "m".into(),
            task_us: vec![10, 50, 40],
            shuffle_bytes: 0,
            retries: 0,
            morsels: Some(vec![0, 0, 1]),
        };
        assert_eq!(r.makespan_us(2), 60, "steal replay, not LPT");
        let plain = StageRecord { morsels: None, ..r };
        assert_eq!(plain.makespan_us(2), 50);
    }

    #[test]
    fn clock_sums_stages_and_scales_with_executors() {
        let clock = VirtualClock::new();
        clock.record_stage(StageRecord {
            name: "a".into(),
            task_us: vec![10, 10, 10, 10],
            shuffle_bytes: 0,
            retries: 0,
            morsels: None,
        });
        clock.record_stage(StageRecord {
            name: "b".into(),
            task_us: vec![20, 20],
            shuffle_bytes: 0,
            retries: 0,
            morsels: None,
        });
        let c = cost();
        assert_eq!(clock.makespan(1, 1, &c).us, 40 + 40);
        assert_eq!(clock.makespan(2, 1, &c).us, 20 + 20);
        assert_eq!(clock.makespan(4, 1, &c).us, 10 + 20);
    }

    #[test]
    fn coordination_term_penalises_large_clusters() {
        let clock = VirtualClock::new();
        clock.record_stage(StageRecord {
            name: "a".into(),
            task_us: vec![100; 8],
            shuffle_bytes: 0,
            retries: 0,
            morsels: None,
        });
        let mut c = cost();
        c.coordination_us_per_executor = 1000;
        let t8 = clock.makespan(8, 1, &c).us; // 100 + 8000
        let t16 = clock.makespan(16, 1, &c).us; // 100 + 16000 (no extra speedup)
        assert!(t16 > t8, "over-provisioning must not look free");
    }

    #[test]
    fn total_work_is_parallelism_independent() {
        let clock = VirtualClock::new();
        clock.record_stage(StageRecord {
            name: "a".into(),
            task_us: vec![7, 9],
            shuffle_bytes: 0,
            retries: 0,
            morsels: None,
        });
        assert_eq!(clock.total_work().us, 16);
    }

    #[test]
    fn duration_conversions() {
        let d = VirtualDuration { us: 120_000_000 };
        assert!((d.secs() - 120.0).abs() < 1e-9);
        assert!((d.minutes() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_stages() {
        let clock = VirtualClock::new();
        clock.record_stage(StageRecord {
            name: "a".into(),
            task_us: vec![1],
            shuffle_bytes: 0,
            retries: 0,
            morsels: None,
        });
        clock.reset();
        assert_eq!(clock.stage_count(), 0);
        assert_eq!(clock.total_work().us, 0);
    }
}
