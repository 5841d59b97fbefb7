//! # bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§5). Each
//! experiment returns [`harness::ExperimentResult`] tables; the binaries in
//! `src/bin/` print them, and `exp_all` additionally rewrites
//! `EXPERIMENTS.md` with paper-vs-measured commentary.
//!
//! ## Scaling
//!
//! The paper runs 1M–5M training pairs on a 14-node Spark cluster. This
//! harness scales all pair counts down ~50× (documented per experiment) and
//! reports **virtual minutes** from the engine's cost model rather than
//! wall-clock: the machine this runs on has a single core, so real elapsed
//! time carries no information about cluster behaviour. The
//! [`harness::paper_cost`] model charges each of our pair comparisons the
//! cost of the ~500 comparisons it stands for at paper scale, landing the
//! virtual times in the paper's ballpark while the *shapes* (who wins,
//! where the knees are) come entirely from measured counts.

pub mod corpora;
pub mod experiments;
pub mod harness;
pub mod ingest;
pub mod prune;
pub mod serve;
pub mod spill;

#[cfg(test)]
#[path = "../../sparklet/tests/common/json.rs"]
mod json_check;
