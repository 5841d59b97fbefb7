//! The benchmark's vocabulary: workload names, metric names and units.
//! `BENCHMARK.json` at the repo root repeats these verbatim (a self-test
//! holds the two together).

use crate::json::Json;

/// One named metric. A per-layer name is `<layer>.<what>`, the layer being
/// the crate or module the timed calls go into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The five workloads, in run order.
pub const WORKLOADS: [&str; 5] = [
    "bulk-detect",
    "cold-load",
    "stream-ingest",
    "serve-lookup",
    "serve-refresh",
];

/// What a user of the system sees. Every workload reports every one of
/// these about *its own* timed operation (the driver compares each
/// workload × metric pair with its parent); README.md maps them onto the
/// operation-specific names (`detect_pairs_per_s`, `commit_p50_ms`, …),
/// which the run also prints as aliases.
pub const END_TO_END: [MetricDef; 4] = [
    m("setup_s", "s"),
    m("throughput_per_s", "1/s"),
    m("op_p50_ms", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Single-layer metrics from the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 70] = [
    m("textprep.wall_ms", "ms"),
    m("textprep.us_per_report", "us"),
    m("textprep.reports", "count"),
    m("textprep.tokens", "count"),
    m("blocking.insert_wall_ms", "ms"),
    m("blocking.candidates_wall_ms", "ms"),
    m("blocking.pairs_out", "count"),
    m("blocking.blocks", "count"),
    m("blocking.recall", "share"),
    m("blocking.reduction", "share"),
    m("pairing.pack_wall_ms", "ms"),
    m("pairing.distance_wall_ms", "ms"),
    m("pairing.pairs", "count"),
    m("pairing.ns_per_pair", "ns"),
    m("pairing.memo_hits", "count"),
    m("fastknn.fit_wall_ms", "ms"),
    m("fastknn.classify_wall_ms", "ms"),
    m("fastknn.train_pairs", "count"),
    m("fastknn.test_pairs", "count"),
    m("fastknn.ns_per_test_pair", "ns"),
    m("fastknn.evals_done", "count"),
    m("fastknn.evals_avoided", "count"),
    m("fastknn.avoided_share", "share"),
    m("store.training_pairs_wall_ms", "ms"),
    m("store.feedback_wall_ms", "ms"),
    m("store.snapshot_wall_ms", "ms"),
    m("store.snapshot_bytes", "bytes"),
    m("store.restore_wall_ms", "ms"),
    m("store.duplicates", "count"),
    m("store.non_duplicates", "count"),
    m("sparklet.jobs", "count"),
    m("sparklet.tasks", "count"),
    m("sparklet.tasks_failed", "count"),
    m("sparklet.shuffle_bytes", "bytes"),
    m("sparklet.virtual_us", "us"),
    m("sparklet.virtual_over_wall", "ratio"),
    m("sparklet.empty_job_wall_us", "us"),
    m("sparklet.speedup_vs_1", "ratio"),
    m("system.detect_wall_ms", "ms"),
    m("system.self_wall_ms", "ms"),
    m("system.trace_overhead_share", "share"),
    m("system.detect_aupr", "share"),
    m("ingest.first10_commit_ms", "ms"),
    m("ingest.last10_commit_ms", "ms"),
    m("ingest.commit_p90_ms", "ms"),
    m("ingest.growth_ratio", "ratio"),
    m("ingest.checkpoint_bytes", "bytes"),
    m("ingest.retries", "count"),
    m("ingest.f1", "share"),
    m("ingest.recover_wall_ms", "ms"),
    m("serve.attach_wall_ms", "ms"),
    m("serve.refresh_wall_ms", "ms"),
    m("serve.dup_call_us_p50", "us"),
    m("serve.signal_call_us_p50", "us"),
    m("serve.first_decile_call_us", "us"),
    m("serve.last_decile_call_us", "us"),
    m("serve.drift_ratio", "ratio"),
    m("serve.batches", "count"),
    m("serve.mean_batch", "count"),
    m("serve.max_backlog", "count"),
    m("serve.memo_hit_share", "share"),
    m("serve.lookup_p90_ms", "ms"),
    m("serve.p99_ms", "ms"),
    m("serve.sustained_rps", "1/s"),
    m("serve.virtual_p50_us", "us"),
    m("bench.failed_share", "share"),
    m("bench.lateness_p50_us", "us"),
    m("bench.lateness_max_us", "us"),
    m("bench.tail_percentile", "share"),
    m("bench.host_factor", "ratio"),
];

fn well_formed(name: &str, extra: &str, max: usize) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

/// Start-up check: every workload and metric name matches
/// `[A-Za-z0-9][A-Za-z0-9_.-]*`, every unit `[A-Za-z0-9_/%.-]+`, and no
/// name is used twice.
pub fn validate_vocabulary() -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    let defs = END_TO_END.iter().chain(PER_LAYER.iter());
    for (name, unit) in WORKLOADS
        .iter()
        .map(|w| (*w, "count"))
        .chain(defs.map(|d| (d.name, d.unit)))
    {
        let starts_ok = name.starts_with(|c: char| c.is_ascii_alphanumeric());
        if !starts_ok || !well_formed(name, "_.-", 64) {
            return Err(format!("malformed name {name:?}"));
        }
        if !well_formed(unit, "_/%.-", 16) {
            return Err(format!("malformed unit {unit:?} for {name}"));
        }
        if seen.contains(&name) {
            return Err(format!("name {name:?} used twice"));
        }
        seen.push(name);
    }
    Ok(())
}

/// Values for one class of metrics. Setting an unknown name or setting a
/// name twice is a bug in the benchmark and panics, so "every metric is
/// emitted exactly once" holds by construction.
#[derive(Debug, Clone)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    pub fn end_to_end() -> Self {
        Self::over(&END_TO_END)
    }

    pub fn per_layer() -> Self {
        Self::over(&PER_LAYER)
    }

    fn over(defs: &'static [MetricDef]) -> Self {
        MetricSet {
            defs,
            values: vec![None; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the vocabulary"));
        assert!(self.values[i].is_none(), "metric {name:?} set twice");
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.defs.iter().position(|d| d.name == name)?;
        self.values[i]
    }

    /// Names never set. End-to-end sets must be complete; per-layer sets
    /// report the rest as 0 (layer not exercised by this workload).
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(d, _)| d.name)
            .collect()
    }

    /// `(definition, value)` for every metric of the class, unset ones as 0.
    pub fn rows(&self) -> impl Iterator<Item = (MetricDef, f64)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| (*d, v.unwrap_or(0.0)))
    }

    /// `{"name": {"value": v, "unit": u}, …}` — the contract's shape.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.rows()
                .map(|(d, v)| {
                    let cell = Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]);
                    (d.name.to_string(), cell)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_is_well_formed() {
        validate_vocabulary().unwrap();
        assert!(!well_formed("has space", "_.-", 64));
        assert!(!well_formed("", "_.-", 64));
        assert!(well_formed("1/s", "_/%.-", 16));
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn setting_a_metric_twice_panics() {
        let mut s = MetricSet::end_to_end();
        s.set("setup_s", 1.0);
        s.set("setup_s", 2.0);
    }

    #[test]
    fn unset_layer_metrics_read_zero_and_are_listed() {
        let mut s = MetricSet::per_layer();
        s.set("textprep.wall_ms", 12.5);
        assert_eq!(s.missing().len(), PER_LAYER.len() - 1);
        assert_eq!(s.rows().count(), PER_LAYER.len());
        let doc = s.to_json();
        let cell = doc.get("textprep.wall_ms").unwrap();
        assert_eq!(cell.get("value").unwrap().as_f64(), Some(12.5));
        assert_eq!(cell.get("unit").unwrap().as_str(), Some("ms"));
        assert_eq!(
            doc.get("serve.p99_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
