//! The paper's findings as data, checked on the result files.
//!
//! The paper states its findings as shapes (Secs. 4–5): who wins, by what
//! factor, where crossovers and break-evens fall. Each row of [`FINDINGS`]
//! is one such shape: a claim quoting the paper, a value read from one
//! experiment's result file (a scalar, or the ratio or difference of two),
//! and an inclusive band that may be open at either end. A row this
//! reproduction is known to contradict says since when and why (`broken`)
//! and must fail, so that a fix flips it on purpose.
//!
//! `failures` names every row that fails the gate; `fresh_failures` does
//! the same for one experiment's freshly run result; `render` shows each
//! row's measured value and verdict. `skyrise-bench` renders the table
//! against the directory it just wrote (`results/findings.md`), and the
//! tier-1 tests below check the committed `results/` against it.

use crate::experiments::ALL;
use skyrise::micro::ExperimentResult;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// What a row reads from its experiment's scalars.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// One scalar.
    Scalar(&'static str),
    /// The first scalar over the second.
    Ratio(&'static str, &'static str),
    /// The first scalar minus the second.
    Difference(&'static str, &'static str),
}

/// One finding of the paper, checked on one experiment's result.
#[derive(Debug, Clone, Copy)]
pub struct Finding {
    /// The experiment, by its name in [`ALL`].
    pub experiment: &'static str,
    /// One line, quoting the paper's value.
    pub claim: &'static str,
    /// What is measured.
    pub value: Value,
    /// Inclusive lower bound, if any.
    pub min: Option<f64>,
    /// Inclusive upper bound, if any.
    pub max: Option<f64>,
    /// `(since, why)` for a finding the results are known to contradict.
    pub broken: Option<(&'static str, &'static str)>,
}

/// A row's experiment and claim; the builders below add the rest.
const fn row(experiment: &'static str, claim: &'static str) -> Finding {
    Finding {
        experiment,
        claim,
        value: Value::Scalar(""),
        min: None,
        max: None,
        broken: None,
    }
}

impl Finding {
    const fn scalar(mut self, key: &'static str) -> Self {
        self.value = Value::Scalar(key);
        self
    }

    const fn ratio(mut self, num: &'static str, den: &'static str) -> Self {
        self.value = Value::Ratio(num, den);
        self
    }

    const fn difference(mut self, a: &'static str, b: &'static str) -> Self {
        self.value = Value::Difference(a, b);
        self
    }

    const fn at_least(mut self, min: f64) -> Self {
        self.min = Some(min);
        self
    }

    const fn at_most(mut self, max: f64) -> Self {
        self.max = Some(max);
        self
    }

    const fn within(self, min: f64, max: f64) -> Self {
        self.at_least(min).at_most(max)
    }

    const fn broken(mut self, since: &'static str, why: &'static str) -> Self {
        self.broken = Some((since, why));
        self
    }

    /// How failures and `EXPERIMENTS.md` name the row.
    fn name(&self) -> String {
        format!("{}: {}", self.experiment, self.claim)
    }

    fn measure(&self, results: &Results) -> Result<f64, String> {
        let result = match results.get(self.experiment) {
            Some(Ok(result)) => result,
            Some(Err(e)) => return Err(e.clone()),
            None => return Err(format!("no result for `{}`", self.experiment)),
        };
        let get = |key: &str| {
            result
                .scalars
                .get(key)
                .copied()
                .ok_or_else(|| format!("{}.json has no scalar `{key}`", self.experiment))
        };
        Ok(match self.value {
            Value::Scalar(key) => get(key)?,
            Value::Ratio(num, den) => get(num)? / get(den)?,
            Value::Difference(a, b) => get(a)? - get(b)?,
        })
    }

    fn in_band(&self, v: f64) -> bool {
        self.min.map_or(true, |min| v >= min) && self.max.map_or(true, |max| v <= max)
    }

    fn band(&self) -> String {
        match (self.min, self.max) {
            (Some(min), Some(max)) => format!("[{min}, {max}]"),
            (Some(min), None) => format!("≥ {min}"),
            (None, Some(max)) => format!("≤ {max}"),
            (None, None) => "any".into(),
        }
    }

    /// The row's measured value, and the gate's complaint when it fails:
    /// no value, a value outside the band, or a known-broken row that holds.
    fn check(&self, results: &Results) -> (Result<f64, String>, Option<String>) {
        let measured = self.measure(results);
        let complaint = match (&measured, self.broken) {
            (Err(e), _) => Some(e.clone()),
            (Ok(v), None) if !self.in_band(*v) => {
                Some(format!("measured {} outside {}", num(*v), self.band()))
            }
            (Ok(v), Some((since, _))) if self.in_band(*v) => Some(format!(
                "measured {} holds, but the row is marked broken since {since}: flip it",
                num(*v)
            )),
            (Ok(_), _) => None,
        };
        (measured, complaint)
    }
}

/// Each experiment's result file, read once: the result, or why it could
/// not be had.
pub(crate) type Results = BTreeMap<&'static str, Result<ExperimentResult, String>>;

/// Read every registered experiment's `<name>.json` under `dir`. A file
/// that is missing or does not parse is an error naming it, not a panic.
pub(crate) fn read_results(dir: &Path) -> Results {
    ALL.iter()
        .map(|&(name, _)| {
            let parsed = std::fs::read_to_string(dir.join(format!("{name}.json")))
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
                .map_err(|e| format!("{name}.json: {e}"));
            (name, parsed)
        })
        .collect()
}

/// Every row of `table` that fails the gate on `results`, by name.
pub(crate) fn failures(table: &[Finding], results: &Results) -> Vec<String> {
    table
        .iter()
        .filter_map(|row| {
            let complaint = row.check(results).1?;
            Some(format!("{}: {complaint}", row.name()))
        })
        .collect()
}

/// Every row of [`FINDINGS`] on `result`'s experiment that fails the gate
/// on `result` itself, by name: the check on a fresh run, with no file.
/// An experiment that no row names fails too, so the check is never
/// vacuous.
pub fn fresh_failures(result: &ExperimentResult) -> Vec<String> {
    let rows: Vec<Finding> = FINDINGS
        .iter()
        .filter(|row| row.experiment == result.id)
        .copied()
        .collect();
    if rows.is_empty() {
        return vec![format!("no finding names `{}`", result.id)];
    }
    let results = Results::from([(rows[0].experiment, Ok(result.clone()))]);
    failures(&rows, &results)
}

/// The table as markdown: each row's claim, measured value, band and
/// verdict, under a count of each verdict.
pub(crate) fn render(table: &[Finding], results: &Results) -> String {
    let mut rows = String::new();
    let (mut holds, mut broken, mut fails) = (0, 0, 0);
    for row in table {
        let (measured, complaint) = row.check(results);
        let verdict = match (complaint, row.broken) {
            (Some(complaint), _) => {
                fails += 1;
                format!("**FAILS**: {complaint}")
            }
            (None, Some((since, why))) => {
                broken += 1;
                format!("known broken since {since}: {why}")
            }
            (None, None) => {
                holds += 1;
                "holds".into()
            }
        };
        let measured = measured.map_or_else(|_| "—".into(), num);
        let _ = writeln!(
            rows,
            "| {} | {} | {measured} | {} | {verdict} |",
            row.experiment,
            row.claim,
            row.band()
        );
    }
    format!(
        "# Paper findings on `results/`\n\n\
         Rendered by `skyrise-bench` from the result files beside this one and\n\
         the table in `crates/bench/src/findings.rs`; edit the table, not this\n\
         file. `cargo test -p skyrise-bench --lib findings` fails when a row\n\
         that should hold does not, or when a known-broken row holds.\n\n\
         {} rows: {holds} hold, {broken} known broken, {fails} fail.\n\n\
         | experiment | claim | measured | band | verdict |\n\
         |---|---|---|---|---|\n{rows}",
        table.len()
    )
}

/// Render [`FINDINGS`] against the result files under `dir` into
/// `dir/findings.md`; returns the failing rows, by name.
pub fn write_report(dir: &Path) -> std::io::Result<Vec<String>> {
    let results = read_results(dir);
    std::fs::write(dir.join("findings.md"), render(FINDINGS, &results))?;
    Ok(failures(FINDINGS, &results))
}

/// A measured value to four or so significant digits.
fn num(v: f64) -> String {
    match v.abs() {
        a if a >= 100.0 => format!("{v:.0}"),
        a if a >= 1.0 => format!("{v:.2}"),
        _ => format!("{v:.3}"),
    }
}

/// The paper's findings, in paper order.
#[rustfmt::skip] // one row per line
pub const FINDINGS: &[Finding] = &[
    row("table01", "Lambda memory 2.5–5.9× EC2's price (paper)").scalar("lambda_to_ec2_memory_price_ratio").within(2.5, 5.9),
    row("table02", "warm S3 at 100K IOPS costs $144/h (paper)").scalar("s3_warm_100k_iops_usd_per_hour").within(143.0, 145.0),
    row("table04", "lineitem 100–320 GiB (paper: 177.4)").scalar("h_lineitem_sf1000_gib").within(100.0, 320.0),
    row("table04", "lineitem > 2.5× orders (paper: 177/45 GiB)").ratio("h_lineitem_sf1000_gib", "h_orders_sf1000_gib").at_least(2.5),
    row("table04", "lineitem larger than orders (paper)").ratio("h_lineitem_sf1000_gib", "h_orders_sf1000_gib").at_least(1.0),
    row("table04", "item < 1 GiB (paper: 0.08 GiB)").scalar("bb_item_sf1000_gib").at_most(1.0),
    row("fig05", "inbound burst 1.2 GiB/s (paper: 1.2)").scalar("inbound_burst_gib_s").within(1.1, 1.3),
    row("fig05", "outbound burst below inbound (paper)").ratio("outbound_burst_gib_s", "inbound_burst_gib_s").at_most(1.0),
    row("fig05", "baseline 75 MiB/s (paper: 75)").scalar("inbound_baseline_mib_s").within(60.0, 90.0),
    row("fig06", "4xlarge bucket > 3× medium's (paper: grows)").ratio("c6g.4xlarge_bucket_gib", "c6g.medium_bucket_gib").at_least(3.0),
    row("fig06", "Lambda bucket < 0.5 GiB (paper: ~0.3)").scalar("lambda_bucket_gib").at_most(0.5),
    row("fig06", "16xlarge sustains 25 Gbps (paper)").scalar("c6g.16xlarge_burst_gbps").within(23.0, 27.0),
    row("fig07", "256 fns > 200 GiB/s without VPC (paper)").scalar("no_vpc_burst_at_256_gib_s").at_least(200.0),
    row("fig07", "256 fns < 25 GiB/s in a VPC (paper: ~20)").scalar("vpc_burst_at_256_gib_s").at_most(25.0),
    row("fig08", "S3 reads > 10× DynamoDB's (paper)").ratio("S3_Standard_read_gib_s_at_max_clients", "DynamoDB_read_gib_s_at_max_clients").at_least(10.0),
    row("fig08", "S3 reads > 2× EFS's (paper)").ratio("S3_Standard_read_gib_s_at_max_clients", "EFS_read_gib_s_at_max_clients").at_least(2.0),
    row("fig08", "DynamoDB reads near 0.37 GiB/s (paper)").scalar("DynamoDB_read_gib_s_at_max_clients").within(0.25, 0.45),
    row("fig08", "EFS reads near their 20 GiB/s (paper)").scalar("EFS_read_gib_s_at_max_clients").within(10.0, 22.0),
    row("fig08", "S3 writes slower than reads (paper)").ratio("S3_Standard_write_gib_s_at_max_clients", "S3_Standard_read_gib_s_at_max_clients").at_most(1.0),
    row("fig09", "S3 Express > DynamoDB read IOPS (paper)").ratio("S3_Express_read_iops", "DynamoDB_read_iops").at_least(1.0),
    row("fig09", "S3 Express > 150K IOPS (paper: 220K)").scalar("S3_Express_read_iops").at_least(150_000.0),
    row("fig09", "EFS misses its 55K quota > 10× (paper)").scalar("EFS_1_read_iops").at_most(5_500.0),
    row("fig09", "EFS-2 doubles EFS-1 reads (paper: 2×)").ratio("EFS_2_read_iops", "EFS_1_read_iops").within(1.6, 2.4),
    row("fig09", "S3 Standard reads at quota (paper: 8K)").scalar("S3_Standard_read_iops").within(4_500.0, 8_500.0)
        .broken("seed", "reads sit below the 5.5K quota the model admits"),
    row("fig10", "S3 read median 20–35 ms (paper: 27)").scalar("S3_Standard_read_p50_ms").within(20.0, 35.0),
    row("fig10", "S3 Express read median < 8 ms (paper: ~5)").scalar("S3_Express_read_p50_ms").at_most(8.0),
    row("fig10", "DynamoDB read median < 8 ms (paper: ~5)").scalar("DynamoDB_read_p50_ms").at_most(8.0),
    row("fig10", "EFS read median < 8 ms (paper: ~5)").scalar("EFS_read_p50_ms").at_most(8.0),
    row("fig10", "EFS writes 2–3× its reads (paper)").ratio("EFS_write_p50_ms", "EFS_read_p50_ms").within(1.8, 3.5),
    row("fig10", "S3 read tail > 600 ms (paper: ~10 s)").scalar("S3_Standard_read_max_ms").at_least(600.0),
    row("fig11", "ramp reaches ≥ 4 partitions (paper: 5)").scalar("final_partitions").at_least(4.0),
    row("fig11", "peak > 20K IOPS (paper: 27.5K)").scalar("peak_iops").at_least(20_000.0),
    row("fig11", "error rate 1–50% (paper: ~10%)").scalar("error_rate").within(0.01, 0.5),
    row("fig12", "100K IOPS > 2× 50K's time (paper: 9/2 h)").ratio("hours_to_100k", "hours_to_50k").at_least(2.0),
    row("fig12", "100K > 2.5× 50K's budget (paper: $1094/228)").ratio("usd_to_100k", "usd_to_50k").at_least(2.5),
    row("fig13", "first probe > 20K IOPS (paper: 27.5K)").scalar("hourly_first_probe_iops").at_least(20_000.0),
    row("fig13", "hourly probes end < 9K IOPS (paper: 5.5K)").scalar("hourly_final_iops").at_most(9_000.0),
    row("fig13", "daily probes end < 9K IOPS (paper: 5.5K)").scalar("daily_final_iops").at_most(9_000.0),
    row("fig14", "network model above the query (paper)").ratio("model_tput_within_gib_s", "query_tput_within_gib_s").at_least(1.0),
    row("fig14", "burst-aware speedup 1.25–4× (paper: 1.53×)").scalar("within_budget_speedup").within(1.25, 4.0),
    row("fig15", "warmed shuffle beats a fresh one (paper)").ratio("s3_standard_new_shuffle_secs", "s3_standard_warmed_shuffle_secs").at_least(1.0),
    row("fig15", "Express shuffle beats a fresh one (paper)").ratio("s3_standard_new_shuffle_secs", "s3_express_shuffle_secs").at_least(1.0),
    row("fig15", "warmed shuffle gain > 1.2× (paper: ~2×)").ratio("s3_standard_new_shuffle_secs", "s3_standard_warmed_shuffle_secs").at_least(1.2)
        .broken("d341c1c", "warmed partitions barely speed up the shuffle"),
    row("fig15", "warmed query beats a fresh one (paper: −20%)").ratio("s3_standard_new_query_secs", "s3_standard_warmed_query_secs").at_least(1.0)
        .broken("d341c1c", "the warmed query runs slower than the fresh one"),
    row("table05", "EU cold MR > 1.15 (paper: 1.48)").scalar("eu_cold_mr").at_least(1.15),
    row("table05", "AP cold MR 0.85–1.1 (paper: 0.95)").scalar("ap_cold_mr").within(0.85, 1.1),
    row("table05", "US cold CoV above warm (paper: 22.7%)").ratio("us_cold_cov", "us_warm_cov").at_least(1.0)
        .broken("seed", "US cold runs vary less than warm ones"),
    row("table05", "AP cold CoV above warm (paper)").ratio("ap_cold_cov", "ap_warm_cov").at_least(1.0),
    row("table06", "Q6 FaaS 1–1.6× IaaS time (paper: 1.06–1.1)").scalar("q6_slowdown").within(1.0, 1.6),
    row("table06", "Q12 FaaS 1–1.6× IaaS time (paper: 1.06–1.1)").scalar("q12_slowdown").within(1.0, 1.6),
    row("table06", "Q6 breaks even above Q12 (paper: 558/128)").ratio("q6_break_even_qph", "q12_break_even_qph").at_least(1.0),
    row("table06", "Q12 peak-to-average 1.5–4× (paper: 2.43)").scalar("q12_peak_to_avg").within(1.5, 4.0),
    row("table06", "Q12 > 1,000 storage requests (paper: 30K)").scalar("q12_storage_requests").at_least(1_000.0),
    row("table07", "RAM/SSD at 4 KiB < 2 min (paper: 38 s)").scalar("RAM_SSD_4096b_secs").at_most(120.0),
    row("table07", "RAM/S3 at 4 KiB > 1 day (paper: 2 d)").scalar("RAM_S3_Standard_4096b_secs").at_least(86_400.0),
    row("table08", "c6gn reserved > 2× on-demand (paper: 16/7)").ratio("s3std_c6gn.xlarge_reserved_mb", "s3std_c6gn.xlarge_on-demand_mb").at_least(2.0),
    row("ablation_combining", "combine 8 cuts requests > 30%").ratio("combine8_requests", "combine1_requests").at_most(0.7),
    row("ablation_combining", "combine 8 objects > 2.5× larger").ratio("combine8_mean_obj_kib", "combine1_mean_obj_kib").at_least(2.5),
    row("ablation_combining", "combine 8 cuts request cost").ratio("combine8_cost_cents", "combine1_cost_cents").at_most(1.0),
    row("ablation_binary_size", "256 MiB starts > 4 s after 2 MiB").difference("startup_256mib_secs", "startup_2mib_secs").at_least(4.0),
    row("extra_observations", "hashed keys split alike (paper)").ratio("hashed_prefix_partitions", "plain_prefix_partitions").within(1.0, 1.0),
    row("extra_observations", "overload splits ≥ 3 partitions").scalar("plain_prefix_partitions").at_least(3.0),
    row("extra_observations", "reads leave write IOPS ±15%").ratio("write_iops_with_5_read_partitions", "write_iops_baseline").within(0.85, 1.15),
    row("extra_observations", "writes stay < 500 IOPS (scaled)").scalar("write_iops_baseline").at_most(500.0),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `results/` of this checkout.
    fn committed() -> Results {
        read_results(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results"
        )))
    }

    #[test]
    fn committed_results_hold_every_finding() {
        let failures = failures(FINDINGS, &committed());
        assert!(
            failures.is_empty(),
            "{} finding(s) fail on results/:\n{}",
            failures.len(),
            failures.join("\n")
        );
    }

    #[test]
    fn committed_findings_md_is_fresh() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/findings.md");
        let committed_md = std::fs::read_to_string(path).expect("results/findings.md");
        assert!(
            committed_md == render(FINDINGS, &committed()),
            "results/findings.md is stale: rerun skyrise-bench"
        );
    }

    fn results_of(id: &'static str, scalars: &[(&str, f64)]) -> Results {
        let mut result = ExperimentResult::new(id, "probe");
        for &(key, value) in scalars {
            result.scalar(key, value);
        }
        Results::from([(id, Ok(result))])
    }

    const EXPRESS: Finding = row("fig09", "S3 Express > 150K IOPS")
        .scalar("S3_Express_read_iops")
        .at_least(150_000.0);

    #[test]
    fn a_missing_scalar_fails_by_row_name() {
        let other = results_of("fig09", &[("DynamoDB_read_iops", 1.0)]);
        let fails = failures(&[EXPRESS], &other);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].starts_with("fig09: S3 Express > 150K IOPS: "));
        assert!(fails[0].contains("S3_Express_read_iops"), "{}", fails[0]);
        // A missing file, or no entry at all, names the row the same way.
        let unreadable = Results::from([("fig09", Err("fig09.json: not found".into()))]);
        for results in [unreadable, Results::new()] {
            let fails = failures(&[EXPRESS], &results);
            assert!(fails[0].starts_with("fig09: S3 Express > 150K IOPS: "));
        }
        // A fresh result that no row reads fails rather than passing empty.
        let unnamed = ExperimentResult::new("probe", "probe");
        assert_eq!(fresh_failures(&unnamed), ["no finding names `probe`"]);
    }

    #[test]
    fn a_known_broken_row_that_holds_says_to_flip_it() {
        let broken = EXPRESS.broken("seed", "too slow");
        let slow = results_of("fig09", &[("S3_Express_read_iops", 100_000.0)]);
        assert!(failures(&[broken], &slow).is_empty());
        assert!(render(&[broken], &slow).contains("known broken since seed: too slow"));
        let fixed = results_of("fig09", &[("S3_Express_read_iops", 220_000.0)]);
        let fails = failures(&[broken], &fixed);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].starts_with("fig09: S3 Express > 150K IOPS: "));
        assert!(
            fails[0].contains("broken since seed: flip it"),
            "{}",
            fails[0]
        );
    }

    #[test]
    fn a_value_outside_its_band_fails_by_name() {
        let ratio = row("fig09", "EFS-2 doubles EFS-1")
            .ratio("EFS_2_read_iops", "EFS_1_read_iops")
            .within(1.6, 2.4);
        let lead = row("fig09", "Express leads EFS by < 200K")
            .difference("S3_Express_read_iops", "EFS_1_read_iops")
            .at_most(200_000.0);
        let table = [EXPRESS, ratio, lead];
        let at = |express, efs2| {
            let scalars = [
                ("S3_Express_read_iops", express),
                ("EFS_1_read_iops", 1_000.0),
                ("EFS_2_read_iops", efs2),
            ];
            failures(&table, &results_of("fig09", &scalars))
        };
        // Bands are inclusive at both ends.
        assert!(at(150_000.0, 1_600.0).is_empty());
        assert!(at(201_000.0, 2_400.0).is_empty());
        assert_eq!(
            at(149_999.0, 2_000.0),
            ["fig09: S3 Express > 150K IOPS: measured 149999 outside ≥ 150000"]
        );
        assert_eq!(
            at(150_000.0, 1_500.0),
            ["fig09: EFS-2 doubles EFS-1: measured 1.50 outside [1.6, 2.4]"]
        );
        assert_eq!(
            at(201_001.0, 2_000.0),
            ["fig09: Express leads EFS by < 200K: measured 200001 outside ≤ 200000"]
        );
    }

    #[test]
    fn every_row_names_a_registered_experiment_and_a_bound() {
        for row in FINDINGS {
            assert!(
                ALL.iter().any(|&(name, _)| name == row.experiment),
                "{}",
                row.name()
            );
            let keys = match row.value {
                Value::Scalar(key) => [key, key],
                Value::Ratio(a, b) | Value::Difference(a, b) => [a, b],
            };
            assert!(
                keys.iter().all(|key| !key.is_empty()),
                "{} reads nothing",
                row.name()
            );
            assert!(
                row.min.is_some() || row.max.is_some(),
                "{} has no bound",
                row.name()
            );
        }
    }
}
