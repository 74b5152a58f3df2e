//! Experiment results: JSON persistence and terminal plotting.
//!
//! The paper's driver "stores the results in a JSON file and hands them
//! to a plotter for visualization" (Sec. 3.1). Ours renders ASCII charts
//! and writes CSV/JSON artifacts under `results/`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A named data series: `(x, y)` points.
#[derive(Debug, Clone)]
pub struct NamedSeries {
    /// Series label.
    pub name: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}
serde::impl_json! { struct NamedSeries { name, points } }

impl NamedSeries {
    /// Shorthand constructor.
    pub fn new(name: &str, points: Vec<(f64, f64)>) -> Self {
        NamedSeries {
            name: name.to_string(),
            points,
        }
    }
}

/// The persisted outcome of one experiment run.
#[derive(Debug, Clone, Default)]
pub struct ExperimentResult {
    /// Experiment id: "fig05", "table07", ...
    pub id: String,
    /// Free-form description.
    pub title: String,
    /// Parameters used.
    pub params: BTreeMap<String, String>,
    /// Plotted series.
    pub series: Vec<NamedSeries>,
    /// Scalar findings (break-evens, medians, ...).
    pub scalars: BTreeMap<String, f64>,
}
serde::impl_json! { struct ExperimentResult { id, title, params, series, scalars } }

impl ExperimentResult {
    /// Start a result for an experiment id.
    pub fn new(id: &str, title: &str) -> Self {
        ExperimentResult {
            id: id.to_string(),
            title: title.to_string(),
            ..ExperimentResult::default()
        }
    }

    /// Record a parameter.
    pub fn param(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.params.insert(key.to_string(), value.to_string());
        self
    }

    /// Record a scalar finding.
    pub fn scalar(&mut self, key: &str, value: f64) -> &mut Self {
        self.scalars.insert(key.to_string(), value);
        self
    }

    /// Add a series.
    pub fn push_series(&mut self, series: NamedSeries) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("results serialise")
    }

    /// Write the result as `<id>.json` under `dir`.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.json", self.id)), self.to_json())
    }
}

/// Render series as a fixed-size ASCII chart (shared x-axis).
pub fn ascii_chart(series: &[NamedSeries], width: usize, height: usize) -> String {
    let glyphs = ['*', 'o', '+', 'x', '#', '@'];
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (0.0f64, f64::NEG_INFINITY);
    for s in series {
        for &(x, y) in &s.points {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
            y_min = y_min.min(y);
            y_max = y_max.max(y);
        }
    }
    if !x_min.is_finite() || !y_max.is_finite() || series.is_empty() {
        return String::from("(no data)\n");
    }
    if (x_max - x_min).abs() < 1e-12 {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < 1e-12 {
        y_max = y_min + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let g = glyphs[si % glyphs.len()];
        for &(x, y) in &s.points {
            let cx = (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y_min) / (y_max - y_min)) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = g;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{y_max:>12.3e} +{}", "-".repeat(width));
    for row in grid {
        let line: String = row.into_iter().collect();
        let _ = writeln!(out, "{:>12} |{line}", "");
    }
    let _ = writeln!(out, "{y_min:>12.3e} +{}", "-".repeat(width));
    let _ = writeln!(
        out,
        "{:>13}{:<width$}",
        "",
        format!("x: {x_min:.3} .. {x_max:.3}")
    );
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "{:>14} {} = {}", "", glyphs[si % glyphs.len()], s.name);
    }
    out
}

/// Render aligned rows as a text table (first row = header).
pub fn text_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(Vec::len).max().expect("non-empty");
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
        }
        let _ = writeln!(out);
        if ri == 0 {
            let total: usize = widths.iter().map(|w| w + 2).sum();
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_roundtrip_and_builders() {
        let mut r = ExperimentResult::new("fig05", "Function network throughput");
        r.param("duration", "5s")
            .scalar("burst_gib_s", 1.2)
            .push_series(NamedSeries::new("inbound", vec![(0.0, 1.0), (1.0, 0.5)]));
        let json = r.to_json();
        let back: ExperimentResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, "fig05");
        assert_eq!(back.series.len(), 1);
        assert_eq!(back.scalars["burst_gib_s"], 1.2);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a host test writing real files needs the host's temp dir; no simulation reads it"
    )]
    fn save_writes_json_and_csv() {
        let dir = std::env::temp_dir().join("skyrise-test-results");
        let _ = std::fs::remove_dir_all(&dir);
        let mut r = ExperimentResult::new("t1", "test");
        r.push_series(NamedSeries::new("a b", vec![(1.0, 2.0)]));
        r.save(&dir).unwrap();
        assert!(dir.join("t1.json").exists());
        // The series lives in the JSON only: no per-series CSV beside it.
        let csvs = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension() == Some("csv".as_ref()))
            .count();
        assert_eq!(csvs, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ascii_chart_renders_all_series() {
        let s = vec![
            NamedSeries::new("up", (0..10).map(|i| (i as f64, i as f64)).collect()),
            NamedSeries::new(
                "down",
                (0..10).map(|i| (i as f64, 9.0 - i as f64)).collect(),
            ),
        ];
        let chart = ascii_chart(&s, 40, 10);
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
        assert!(chart.contains("up"));
        assert!(chart.contains("down"));
    }

    #[test]
    fn ascii_chart_handles_degenerate_input() {
        assert_eq!(ascii_chart(&[], 10, 5), "(no data)\n");
        let flat = vec![NamedSeries::new("flat", vec![(1.0, 1.0), (1.0, 1.0)])];
        let chart = ascii_chart(&flat, 10, 5);
        assert!(chart.contains('*'));
    }

    #[test]
    fn text_table_aligns() {
        let t = text_table(&[
            vec!["Service".into(), "IOPS".into()],
            vec!["S3".into(), "5500".into()],
            vec!["DynamoDB".into(), "16000".into()],
        ]);
        assert!(t.contains("Service"));
        assert!(t.lines().count() >= 4);
        let lines: Vec<&str> = t.lines().collect();
        // Columns aligned: "5500" and "16000" start at the same offset.
        let c1 = lines[2].find("5500").unwrap();
        let c2 = lines[3].find("16000").unwrap();
        assert_eq!(c1, c2);
    }
}
