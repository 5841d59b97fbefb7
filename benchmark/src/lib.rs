//! # adr-benchmark — the repo's wall-clock end-to-end benchmark
//!
//! Five workloads over the Fig. 1 pipeline, timed from outside: the crates
//! are linked as a library user would link them and only calls into their
//! public functions are timed. `README.md` explains the workloads, the
//! metrics and how they interact; `BENCHMARK.json` at the repo root is the
//! machine-readable contract.
//!
//! * [`workloads`] — the five workloads, each with an untraced half
//!   (end-to-end metrics) and a traced half (per-layer metrics);
//! * [`decomposed`] — `DedupSystem`'s pipeline rebuilt from public calls,
//!   a span around each, for the per-layer table;
//! * [`pacer`] — the open-loop load generator (latency from due time);
//! * [`calibrate`] — the host-speed reference timings are normalised by;
//! * [`trace`], [`stats`], [`metrics`], [`json`] — spans, statistics, the
//!   metric vocabulary and the result-file format;
//! * [`compare`] — two result files side by side against the bounds;
//! * [`cli`] — the one command.

pub mod calibrate;
pub mod cli;
pub mod common;
pub mod compare;
pub mod decomposed;
pub mod json;
pub mod metrics;
pub mod pacer;
pub mod stats;
pub mod trace;
pub mod workloads;
