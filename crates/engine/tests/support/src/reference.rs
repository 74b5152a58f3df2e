//! Row-at-a-time reference implementations of the query suite.
//!
//! Independent of the distributed engine (no shared operator code), these
//! compute every query's answer directly over in-memory tables; the
//! integration tests assert the engine matches them.

use skyrise_data::{date, Batch, Value};
use std::collections::BTreeMap;

/// TPC-H Q1 over LINEITEM. Output rows match the engine plan's columns:
/// `(returnflag, linestatus, sum_qty, sum_base_price, sum_disc_price,
/// sum_charge, avg_qty, avg_price, avg_disc, count_order)`.
pub fn q1(lineitem: &Batch) -> Vec<Vec<Value>> {
    let cutoff = date::from_ymd(1998, 12, 1) - 90;
    let flag = lineitem.column("l_returnflag").as_str();
    let status = lineitem.column("l_linestatus").as_str();
    let qty = lineitem.column("l_quantity").as_f64();
    let price = lineitem.column("l_extendedprice").as_f64();
    let disc = lineitem.column("l_discount").as_f64();
    let tax = lineitem.column("l_tax").as_f64();
    let ship = lineitem.column("l_shipdate").as_i64();

    #[derive(Default)]
    struct Acc {
        sum_qty: f64,
        sum_base: f64,
        sum_disc_price: f64,
        sum_charge: f64,
        sum_disc: f64,
        count: i64,
    }
    let mut groups: BTreeMap<(String, String), Acc> = BTreeMap::new();
    for i in 0..lineitem.num_rows() {
        if ship[i] > cutoff {
            continue;
        }
        let acc = groups
            .entry((flag[i].to_owned(), status[i].to_owned()))
            .or_default();
        acc.sum_qty += qty[i];
        acc.sum_base += price[i];
        acc.sum_disc_price += price[i] * (1.0 - disc[i]);
        acc.sum_charge += price[i] * (1.0 - disc[i]) * (1.0 + tax[i]);
        acc.sum_disc += disc[i];
        acc.count += 1;
    }
    groups
        .into_iter()
        .map(|((f, s), a)| {
            vec![
                Value::Utf8(f),
                Value::Utf8(s),
                Value::Float64(a.sum_qty),
                Value::Float64(a.sum_base),
                Value::Float64(a.sum_disc_price),
                Value::Float64(a.sum_charge),
                Value::Float64(a.sum_qty / a.count as f64),
                Value::Float64(a.sum_base / a.count as f64),
                Value::Float64(a.sum_disc / a.count as f64),
                Value::Int64(a.count),
            ]
        })
        .collect()
}

/// TPC-H Q6: the revenue scalar.
pub fn q6(lineitem: &Batch) -> f64 {
    let lo = date::from_ymd(1994, 1, 1);
    let hi = date::from_ymd(1995, 1, 1);
    let qty = lineitem.column("l_quantity").as_f64();
    let price = lineitem.column("l_extendedprice").as_f64();
    let disc = lineitem.column("l_discount").as_f64();
    let ship = lineitem.column("l_shipdate").as_i64();
    let mut revenue = 0.0;
    for i in 0..lineitem.num_rows() {
        if ship[i] >= lo && ship[i] < hi && disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24.0 {
            revenue += price[i] * disc[i];
        }
    }
    revenue
}

/// TPC-H Q12: `(shipmode, high_line_count, low_line_count)` sorted by
/// ship mode.
pub fn q12(lineitem: &Batch, orders: &Batch) -> Vec<Vec<Value>> {
    let lo = date::from_ymd(1994, 1, 1);
    let hi = date::from_ymd(1995, 1, 1);
    let priorities: std::collections::BTreeMap<i64, &str> = orders
        .column("o_orderkey")
        .as_i64()
        .iter()
        .copied()
        .zip(orders.column("o_orderpriority").as_str().iter())
        .collect();

    let okey = lineitem.column("l_orderkey").as_i64();
    let mode = lineitem.column("l_shipmode").as_str();
    let commit = lineitem.column("l_commitdate").as_i64();
    let receipt = lineitem.column("l_receiptdate").as_i64();
    let ship = lineitem.column("l_shipdate").as_i64();

    let mut groups: BTreeMap<String, (i64, i64)> = BTreeMap::new();
    for i in 0..lineitem.num_rows() {
        if !(&mode[i] == "MAIL" || &mode[i] == "SHIP") {
            continue;
        }
        if !(commit[i] < receipt[i] && ship[i] < commit[i]) {
            continue;
        }
        if !(receipt[i] >= lo && receipt[i] < hi) {
            continue;
        }
        let Some(priority) = priorities.get(&okey[i]) else {
            continue;
        };
        let high = *priority == "1-URGENT" || *priority == "2-HIGH";
        let e = groups.entry(mode[i].to_owned()).or_default();
        if high {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }
    groups
        .into_iter()
        .map(|(m, (h, l))| vec![Value::Utf8(m), Value::Int64(h), Value::Int64(l)])
        .collect()
}

/// TPCx-BB Q3 (the simplified semantics of `Op::SessionizeQ3`):
/// `(item_sk, views)` for the top `top_n` category items viewed within
/// `window` clicks before a category purchase, sorted by views descending
/// then item ascending.
pub fn bb_q3(
    clickstreams: &Batch,
    item: &Batch,
    category: &str,
    window: usize,
    top_n: usize,
) -> Vec<Vec<Value>> {
    let cat_items: std::collections::BTreeSet<i64> = item
        .column("i_item_sk")
        .as_i64()
        .iter()
        .copied()
        .zip(item.column("i_category").as_str().iter())
        .filter(|&(_, c)| c == category)
        .map(|(sk, _)| sk)
        .collect();

    let users = clickstreams.column("wcs_user_sk").as_i64();
    let dates = clickstreams.column("wcs_click_date_sk").as_i64();
    let times = clickstreams.column("wcs_click_time_sk").as_i64();
    let items = clickstreams.column("wcs_item_sk").as_i64();
    let sales = clickstreams.column("wcs_sales_sk").as_i64();

    let mut idx: Vec<usize> = (0..clickstreams.num_rows()).collect();
    idx.sort_by_key(|&i| (users[i], dates[i], times[i]));

    let mut views: BTreeMap<i64, i64> = BTreeMap::new();
    let mut start = 0;
    while start < idx.len() {
        let user = users[idx[start]];
        let mut end = start;
        while end < idx.len() && users[idx[end]] == user {
            end += 1;
        }
        let session = &idx[start..end];
        for (pos, &click) in session.iter().enumerate() {
            if sales[click] == 0 || !cat_items.contains(&items[click]) {
                continue;
            }
            for &prior in &session[pos.saturating_sub(window)..pos] {
                if cat_items.contains(&items[prior]) {
                    *views.entry(items[prior]).or_insert(0) += 1;
                }
            }
        }
        start = end;
    }

    let mut rows: Vec<(i64, i64)> = views.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(top_n);
    rows.into_iter()
        .map(|(item, v)| vec![Value::Int64(item), Value::Int64(v)])
        .collect()
}

/// Compare two row sets with a relative tolerance for floats (distributed
/// float summation is order-sensitive).
pub fn rows_approx_eq(a: &[Vec<Value>], b: &[Vec<Value>], rel_tol: f64) -> bool {
    if a.len() != b.len() {
        return false;
    }
    for (ra, rb) in a.iter().zip(b) {
        if ra.len() != rb.len() {
            return false;
        }
        for (va, vb) in ra.iter().zip(rb) {
            let ok = match (va, vb) {
                (Value::Float64(x), Value::Float64(y)) => {
                    let scale = x.abs().max(y.abs()).max(1e-12);
                    (x - y).abs() / scale <= rel_tol
                }
                // Sum over ints travels as float through the engine.
                (Value::Float64(x), Value::Int64(y)) | (Value::Int64(y), Value::Float64(x)) => {
                    (x - *y as f64).abs() <= rel_tol * (x.abs().max(1.0))
                }
                _ => va == vb,
            };
            if !ok {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyrise_data::{tpch, tpcxbb};

    #[test]
    fn q1_groups_cover_flag_status_combos() {
        let t = tpch::generate(0.005, 3);
        let rows = q1(&t.lineitem);
        // A/F, N/F, N/O, R/F are the standard four groups.
        assert_eq!(rows.len(), 4);
        let Value::Int64(total) =
            rows.iter()
                .map(|r| r[9].clone())
                .fold(Value::Int64(0), |acc, v| match (acc, v) {
                    (Value::Int64(a), Value::Int64(b)) => Value::Int64(a + b),
                    _ => unreachable!(),
                })
        else {
            unreachable!()
        };
        assert!(total > 0 && (total as usize) <= t.lineitem.num_rows());
    }

    #[test]
    fn q6_is_positive_and_stable() {
        let t = tpch::generate(0.005, 3);
        let r1 = q6(&t.lineitem);
        let r2 = q6(&t.lineitem);
        assert!(r1 > 0.0);
        assert_eq!(r1, r2);
    }

    #[test]
    fn q12_produces_mail_and_ship() {
        let t = tpch::generate(0.01, 3);
        let rows = q12(&t.lineitem, &t.orders);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Utf8("MAIL".into()));
        assert_eq!(rows[1][0], Value::Utf8("SHIP".into()));
    }

    #[test]
    fn bb_q3_top_n_is_sorted() {
        let t = tpcxbb::generate(0.1, 3);
        let rows = bb_q3(&t.clickstreams, &t.item, "Electronics", 10, 15);
        assert!(!rows.is_empty() && rows.len() <= 15);
        for w in rows.windows(2) {
            let (Value::Int64(v1), Value::Int64(v2)) = (&w[0][1], &w[1][1]) else {
                unreachable!()
            };
            assert!(v1 >= v2, "descending by views");
        }
    }

    #[test]
    fn rows_approx_eq_tolerates_float_noise() {
        let a = vec![vec![Value::Float64(100.0), Value::Int64(5)]];
        let b = vec![vec![Value::Float64(100.0 + 1e-9), Value::Int64(5)]];
        assert!(rows_approx_eq(&a, &b, 1e-9));
        let c = vec![vec![Value::Float64(101.0), Value::Int64(5)]];
        assert!(!rows_approx_eq(&a, &c, 1e-9));
        assert!(!rows_approx_eq(&a, &[], 1e-9));
    }
}
