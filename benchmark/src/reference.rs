//! The paper's reported values (`reference.json`) and the error of the
//! simulated headline values against them.

use crate::json::{self, Value};

const REFERENCE_JSON: &str = include_str!("../reference.json");

/// The paper's value for every key under `values` in `reference.json`.
pub fn paper_values() -> Result<Vec<(String, f64)>, String> {
    let doc = json::parse(REFERENCE_JSON)?;
    let Some(Value::Object(values)) = doc.get("values") else {
        return Err("reference.json has no \"values\" object".into());
    };
    values
        .iter()
        .map(|(key, entry)| {
            entry
                .get("paper")
                .and_then(Value::as_f64)
                .filter(|paper| *paper > 0.0)
                .map(|paper| (key.clone(), paper))
                .ok_or_else(|| format!("reference.json: {key} has no positive \"paper\" number"))
        })
        .collect()
}

/// Mean absolute relative error, in percent, of `(simulated, paper)` pairs.
pub fn mean_abs_rel_err_pct(pairs: &[(f64, f64)]) -> f64 {
    assert!(!pairs.is_empty(), "no headline value to compare");
    let sum: f64 = pairs
        .iter()
        .map(|(sim, paper)| ((sim - paper) / paper).abs())
        .sum();
    100.0 * sum / pairs.len() as f64
}

/// `model_err_pct` of a workload's headline values. Every headline key
/// must have a paper value: a missing one is a bug in the benchmark.
pub fn model_err_pct(headline: &[(String, f64)]) -> Result<f64, String> {
    let paper = paper_values()?;
    let pairs = headline
        .iter()
        .map(|(key, sim)| {
            paper
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, paper)| (*sim, *paper))
                .ok_or_else(|| format!("reference.json has no value for {key}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(mean_abs_rel_err_pct(&pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_the_mean_of_absolute_relative_errors() {
        // 10 % under, 30 % over, exact.
        let pairs = [(90.0, 100.0), (2.6, 2.0), (7.0, 7.0)];
        assert!((mean_abs_rel_err_pct(&pairs) - 40.0 / 3.0).abs() < 1e-12);
        assert_eq!(mean_abs_rel_err_pct(&[(5.5e3, 8e3)]), 31.25);
    }

    #[test]
    fn every_reference_entry_has_a_source_and_a_positive_value() {
        let doc = json::parse(REFERENCE_JSON).unwrap();
        let Some(Value::Object(values)) = doc.get("values") else {
            panic!("values object")
        };
        assert_eq!(paper_values().unwrap().len(), values.len());
        for (key, entry) in values {
            for field in ["unit", "source", "conversion"] {
                assert!(
                    matches!(entry.get(field), Some(Value::String(s)) if !s.is_empty()),
                    "{key} lacks {field}"
                );
            }
        }
    }

    #[test]
    fn a_headline_key_without_a_paper_value_is_an_error() {
        assert!(model_err_pct(&[("no.such.key".into(), 1.0)]).is_err());
        let got = model_err_pct(&[("iops_closed.s3_standard.read.ok_iops".into(), 5500.0)]);
        assert_eq!(got, Ok(31.25));
    }
}
