//! JSON emission for the result line and the context line. Writing only —
//! the benchmark never parses JSON, so there is no reader here.

use db_telemetry::export::json_escape as escape;
use std::fmt::Write as _;

/// One measured metric: its name and unit as `BENCHMARK.json` declares
/// them, and the value as measured, with all its digits.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// A finite `f64` as a JSON number (Rust's shortest round-trip decimal,
/// never exponent form). A non-finite value is a measurement bug, not a
/// result, so it is refused instead of being written as invalid JSON.
pub fn number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("metric `{name}` is not finite ({v})"))
    }
}

/// The result line: exactly the keys `correct`, `attempted`, `failed` and
/// `metrics`, the metrics in the order given.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            escape(m.name),
            number(m.name, m.value)?,
            escape(m.unit)
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// A flat JSON object from `(key, already-rendered JSON value)` pairs.
pub fn object(fields: &[(&str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", escape(k));
    }
    out.push('}');
    out
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_in_order() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric {
                    name: "op_p25_us",
                    unit: "us",
                    value: 1.2034,
                },
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.8127,
                },
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\
             \"op_p25_us\":{\"value\":1.2034,\"unit\":\"us\"},\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_every_digit_and_never_use_exponent_form() {
        assert_eq!(number("x", 854321.0987654321).unwrap(), "854321.0987654321");
        assert_eq!(number("x", 1e-7).unwrap(), "0.0000001");
        assert_eq!(number("x", 3.0).unwrap(), "3");
    }

    #[test]
    fn non_finite_values_are_refused() {
        assert!(number("x", f64::NAN).is_err());
        assert!(result_line(
            true,
            1,
            0,
            &[Metric {
                name: "bad",
                unit: "s",
                value: f64::INFINITY
            }]
        )
        .is_err());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(
            object(&[("k", string("v")), ("n", "1".into())]),
            "{\"k\":\"v\",\"n\":1}"
        );
    }
}
