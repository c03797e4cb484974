//! The result of one workload run and the one-line JSON it is printed as.
//!
//! Every run reports the same metric names, declared here with their units:
//! the end-to-end metrics when untraced, the per-layer metrics when traced.
//! A layer a workload never calls reports 0 for its metrics.

use std::collections::BTreeMap;

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("accuracy", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vision.segment_us", "us"),
    ("vision.label_components_us", "us"),
    ("vision.extract_blobs_us", "us"),
    ("vision.tracker_us", "us"),
    ("vision.histogram_us", "us"),
    ("vision.to_signature_us", "us"),
    ("vision.objects_per_frame", "count"),
    ("camera.frame_us", "us"),
    ("som.winner_us", "us"),
    ("engine.classify_us", "us"),
    ("engine.signatures_per_classify", "count"),
    ("engine.worker_panics", "count"),
    ("engine.feed_us", "us"),
    ("engine.publish_us", "us"),
    ("engine.snapshot_versions", "count"),
    ("registry.feed_us", "us"),
    ("registry.train_tick_us", "us"),
    ("registry.classify_us", "us"),
    ("registry.steps_per_tick", "count"),
    ("registry.reload_ratio", "ratio"),
    ("registry.evictions", "count"),
    ("registry.reloads", "count"),
    ("checkpoint.spill_bytes", "bytes"),
    ("checkpoint.evict_us", "us"),
    ("checkpoint.reload_us", "us"),
    ("checkpoint.spill_share", "ratio"),
    ("scheduler.batch_mean", "count"),
    ("scheduler.delay_us", "us"),
    ("scheduler.shed", "count"),
    ("scheduler.p50_light_ms", "ms"),
    ("scheduler.p50_heavy_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("loadgen.late_ms", "ms"),
    ("loadgen.achieved_ratio", "ratio"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.traced_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Operation counts of a run: every operation attempted, those that failed
/// (error, shed, panic, tick failure or wrong answer), and the wrong answers
/// among them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed for any reason.
    pub failed: u64,
    /// Operations whose output differed from the oracle.
    pub mismatches: u64,
}

impl Counts {
    /// Records one operation that failed without a wrong answer.
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Records one operation whose output differed from the oracle.
    pub fn mismatch(&mut self) {
        self.failed += 1;
        self.mismatches += 1;
    }

    /// Adds another run's counts.
    pub fn merge(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation counts.
    pub counts: Counts,
    /// Metric values by name; names absent here report 0.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable diagnostics printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds one diagnostic line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// `true` when operations ran and no output differed from its oracle.
    pub fn correct(&self) -> bool {
        self.counts.attempted > 0 && self.counts.mismatches == 0
    }

    /// Prints the diagnostics, one `name value unit` line per metric of
    /// `table`, and finally the one-line JSON result.
    pub fn print(&self, workload: &str, table: &[(&'static str, &'static str)]) {
        for note in &self.notes {
            println!("{workload}: {note}");
        }
        println!(
            "{workload}: attempted {} failed {} mismatched {}",
            self.counts.attempted, self.counts.failed, self.counts.mismatches
        );
        for (name, unit) in table {
            println!("{workload}: {name} = {} {unit}", self.value(name));
        }
        println!("{}", self.json(table));
    }

    fn value(&self, name: &str) -> f64 {
        let value = self.values.get(name).copied().unwrap_or(0.0);
        if value.is_finite() {
            value
        } else {
            0.0
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric of
    /// `table` with its unit.
    pub fn json(&self, table: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.value(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.counts.attempted,
            self.counts.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with all its digits.
fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_every_metric_with_its_unit() {
        let mut outcome = Outcome::default();
        outcome.counts.attempted = 10;
        outcome.counts.mismatch();
        outcome.set("p50_ms", 1.25);
        outcome.set("accuracy", f64::NAN);
        let line = outcome.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"));
        assert!(line.contains("\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"accuracy\": {\"value\": 0.0, \"unit\": \"ratio\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
