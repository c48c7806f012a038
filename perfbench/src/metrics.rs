//! Metric values, the statistics behind them, and the one-line JSON result.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A named value with its unit.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// The end-to-end metrics of an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("pass_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("iter_et_ns_geomean", "sim_ns"),
    ("iter_luts", "count"),
    ("iter_ffs", "count"),
    ("iter_levels_met", "count"),
    ("pass_rate", "ratio"),
];

/// `num / den`, or 0 when the base is 0 (nothing was attempted).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Geometric mean; 0 for an empty set or when any value is not positive
/// (a zero base has no logarithm).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median (mean of the middle pair for even counts); 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-');
    (1..=64).contains(&name.len())
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(ok)
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. Values are written with every
/// digit Rust's shortest round-trip formatting gives. A value that is not
/// finite cannot be written as JSON; it is written as 0 and the run is
/// marked incorrect.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Adding 0.0 turns an empty float sum's -0 into 0.
            let v = if m.value.is_finite() {
                m.value + 0.0
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_geomean_handle_zero_bases() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[4.0, 0.0]), 0.0);
        assert_eq!(geomean(&[4.0, -1.0]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[7598.9]) - 7598.9).abs() < 1e-9);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn names_are_checked() {
        for (name, _) in END_TO_END {
            assert!(valid_name(name), "{name}");
        }
        assert!(valid_name("milp.prev.nodes"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            9,
            0,
            &[
                Metric::new("pass_ref_s", "s", 1.5),
                Metric::new("iter_luts", "count", 15407.0),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": \
             {\"pass_ref_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"iter_luts\": {\"value\": 15407, \"unit\": \"count\"}}}"
        );
        let zero = result_line(true, 1, 0, &[Metric::new("x", "s", -0.0)]);
        assert!(zero.contains("{\"value\": 0, "), "{zero}");
        let bad = result_line(true, 1, 0, &[Metric::new("x", "s", f64::NAN)]);
        assert!(bad.starts_with("{\"correct\": false"));
        assert!(bad.contains("{\"value\": 0, \"unit\": \"s\"}"));
    }
}
