//! Executor registry: the failure domain of the engine.
//!
//! Every task attempt is placed on a virtual executor. An executor owns the
//! cache blocks it wrote ([`crate::storage::BlockManager`]) and the shuffle
//! map outputs it produced ([`crate::shuffle::ShuffleService`]); killing it
//! loses both, plus whatever attempts were running on it. Executors restart
//! with a fresh *incarnation* after a kill — results reported by a previous
//! incarnation are stale and discarded by the scheduler — until they exceed
//! [`crate::FaultConfig::max_executor_failures`] and are blacklisted.
//!
//! Placement is deterministic (`(task + attempt) mod alive`), which is what
//! lets a fault schedule reproduce the same ownership, the same losses and
//! the same recovery on every run.

use parking_lot::Mutex;

/// Snapshot of one executor's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorInfo {
    /// Executor id, `0..num_executors`.
    pub id: usize,
    /// Restart count: bumped on every kill that does not blacklist. A task
    /// result is only accepted if its placement incarnation is still
    /// current.
    pub incarnation: u32,
    /// Kills this executor has absorbed.
    pub failures: u32,
    /// Is the executor accepting tasks? `false` once blacklisted.
    pub alive: bool,
}

/// Registry of all executors in a cluster, shared by the scheduler and the
/// fault injector.
pub struct ExecutorRegistry {
    slots: Mutex<Vec<ExecutorInfo>>,
}

impl ExecutorRegistry {
    /// Create a registry of `n` live executors (clamped to at least 1).
    pub(crate) fn new(n: usize) -> Self {
        ExecutorRegistry {
            slots: Mutex::new(
                (0..n.max(1))
                    .map(|id| ExecutorInfo {
                        id,
                        incarnation: 0,
                        failures: 0,
                        alive: true,
                    })
                    .collect(),
            ),
        }
    }

    /// Executors currently accepting tasks.
    pub fn alive_count(&self) -> usize {
        self.slots.lock().iter().filter(|e| e.alive).count()
    }

    /// Snapshot of every executor's state, in id order.
    pub fn snapshot(&self) -> Vec<ExecutorInfo> {
        self.slots.lock().clone()
    }

    /// Deterministically place `(task, attempt)` on an alive executor:
    /// `alive[(task + attempt) mod alive_count]`. Returns the executor id
    /// and its current incarnation, or `None` when every executor is
    /// blacklisted. Rotating by attempt moves retries off the executor
    /// that hosted the previous attempt.
    pub(crate) fn place(&self, task: usize, attempt: u32) -> Option<(usize, u32)> {
        let slots = self.slots.lock();
        let alive: Vec<&ExecutorInfo> = slots.iter().filter(|e| e.alive).collect();
        if alive.is_empty() {
            return None;
        }
        let pick = alive[(task + attempt as usize) % alive.len()];
        Some((pick.id, pick.incarnation))
    }

    /// Is `(executor, incarnation)` still the current, alive incarnation?
    /// The scheduler discards results whose placement fails this check —
    /// they were computed by an executor that has since died.
    pub(crate) fn is_current(&self, executor: usize, incarnation: u32) -> bool {
        self.slots
            .lock()
            .get(executor)
            .map(|e| e.alive && e.incarnation == incarnation)
            .unwrap_or(false)
    }

    /// Kill `executor`: bump its failure count and either restart it with a
    /// new incarnation or blacklist it once `max_failures` is reached.
    /// Returns whether it was blacklisted, or `None` if the executor is
    /// unknown or already blacklisted (the kill is a no-op).
    pub(crate) fn kill(&self, executor: usize, max_failures: u32) -> Option<bool> {
        let mut slots = self.slots.lock();
        let e = slots.get_mut(executor)?;
        if !e.alive {
            return None;
        }
        e.failures += 1;
        let blacklisted = e.failures >= max_failures.max(1);
        if blacklisted {
            e.alive = false;
        } else {
            e.incarnation += 1;
        }
        Some(blacklisted)
    }

    /// Revive every executor with fresh state (between experiment runs).
    pub(crate) fn reset(&self) {
        for e in self.slots.lock().iter_mut() {
            e.incarnation = 0;
            e.failures = 0;
            e.alive = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_round_robin() {
        let r = ExecutorRegistry::new(3);
        let a: Vec<_> = (0..6).map(|t| r.place(t, 0).unwrap().0).collect();
        assert_eq!(a, vec![0, 1, 2, 0, 1, 2]);
        // A retry rotates to the next executor.
        assert_eq!(r.place(0, 1).unwrap().0, 1);
    }

    #[test]
    fn kill_restarts_then_blacklists() {
        let r = ExecutorRegistry::new(2);
        assert!(r.is_current(1, 0));
        assert_eq!(r.kill(1, 2), Some(false), "restarted, not blacklisted");
        assert!(r.is_current(1, 1), "restarted with incarnation 1");
        assert!(!r.is_current(1, 0), "old incarnation is stale");
        assert_eq!(r.kill(1, 2), Some(true), "over the failure budget");
        assert_eq!(r.alive_count(), 1);
        assert!(!r.is_current(1, 1), "blacklisted executor is never current");
        assert!(r.kill(1, 2).is_none(), "killing a dead executor is a no-op");
    }

    #[test]
    fn placement_skips_blacklisted_executors() {
        let r = ExecutorRegistry::new(3);
        r.kill(1, 1); // max_failures 1: immediate blacklist
        let picks: Vec<_> = (0..4).map(|t| r.place(t, 0).unwrap().0).collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn all_blacklisted_means_no_placement() {
        let r = ExecutorRegistry::new(2);
        r.kill(0, 1);
        r.kill(1, 1);
        assert!(r.place(0, 0).is_none());
        assert_eq!(r.alive_count(), 0);
    }

    #[test]
    fn reset_revives_everyone() {
        let r = ExecutorRegistry::new(2);
        r.kill(0, 1);
        r.kill(1, 2);
        r.reset();
        assert_eq!(r.alive_count(), 2);
        assert!(r.is_current(0, 0));
        assert!(r.is_current(1, 0));
        assert_eq!(r.snapshot()[1].failures, 0);
    }

    #[test]
    fn zero_executors_clamps_to_one() {
        let r = ExecutorRegistry::new(0);
        assert_eq!(r.alive_count(), 1);
        assert_eq!(r.place(5, 0), Some((0, 0)));
    }
}
