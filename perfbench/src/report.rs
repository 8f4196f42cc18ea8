//! The result line: operation counts and named metrics with units.

use std::fmt::Write as _;

/// Operations attempted and failed. Solves, events and self-checks each
/// count as one operation; a failed check is logged to stderr.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts `n` operations that completed without error.
    pub fn done(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one self-check, logging `what` when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.0.iter().all(|(n, ..)| *n != name), "metric {name} reported twice");
        self.0.push((name, value, unit));
    }

    /// Convenience for counts.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.put(name, value as f64, "count");
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|&(n, ..)| n)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| *n == name).map(|&(_, v, _)| v)
    }
}

/// Renders the one-line JSON result object.
pub fn render(ops: &Ops, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failed == 0,
        ops.attempted,
        ops.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counts_and_metrics_in_order() {
        let mut ops = Ops::default();
        ops.done(3);
        ops.check(true, String::new);
        let mut m = Metrics::default();
        m.put("solve_s", 1.25, "s");
        m.count("trees", 7);
        assert_eq!(
            render(&ops, &m),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"solve_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"trees\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
        ops.check(false, || "expected".into());
        assert!(
            render(&ops, &m).starts_with("{\"correct\": false, \"attempted\": 5, \"failed\": 1")
        );
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn rejects_duplicate_names() {
        let mut m = Metrics::default();
        m.count("x", 1);
        m.count("x", 2);
    }
}
