//! Named metrics and the result line.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in output order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Add a metric; non-finite values (an empty ratio) are stored as 0.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric { name: name.into(), value, unit });
    }

    /// One `name = value unit` line per metric.
    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for m in &self.0 {
            println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The JSON object the benchmark prints as its last line. Values are
/// printed in Rust's shortest round-trip form, so every digit measured is
/// kept.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ =
            write!(out, "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_keeps_full_precision() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.203_412_345_678_9, "ms");
        m.push("empty", f64::NAN, "frac");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034123456789, \"unit\": \"ms\"}, \
             \"empty\": {\"value\": 0.0, \"unit\": \"frac\"}}}"
        );
    }
}
