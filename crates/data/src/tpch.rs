//! Deterministic TPC-H data generation for the columns the paper's query
//! suite (Q1, Q6, Q12) touches.
//!
//! Follows the TPC-H specification's distributions for the generated
//! columns: LINEITEM has SF x 6M rows spread over SF x 1.5M orders (1–7
//! lines each), dates span 1992-01-01 .. 1998-12-31, discounts are 0–10%,
//! quantities 1–50, and RETURNFLAG/LINESTATUS derive from the dates
//! exactly as dbgen does. Generation is a pure function of `(sf, seed)`.

use crate::columnar::{date, Batch, Column, DataType, Field, Schema, Utf8Column};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// The seven TPC-H ship modes.
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
/// The five TPC-H order priorities.
pub const ORDER_PRIORITIES: [&str; 5] =
    ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// LINEITEM schema (the query-relevant subset, in spec order).
pub fn lineitem_schema() -> Rc<Schema> {
    Schema::new(vec![
        Field::new("l_orderkey", DataType::Int64),
        Field::new("l_quantity", DataType::Float64),
        Field::new("l_extendedprice", DataType::Float64),
        Field::new("l_discount", DataType::Float64),
        Field::new("l_tax", DataType::Float64),
        Field::new("l_returnflag", DataType::Utf8),
        Field::new("l_linestatus", DataType::Utf8),
        Field::new("l_shipdate", DataType::Date),
        Field::new("l_commitdate", DataType::Date),
        Field::new("l_receiptdate", DataType::Date),
        Field::new("l_shipmode", DataType::Utf8),
    ])
}

/// ORDERS schema (query-relevant subset).
pub fn orders_schema() -> Rc<Schema> {
    Schema::new(vec![
        Field::new("o_orderkey", DataType::Int64),
        Field::new("o_custkey", DataType::Int64),
        Field::new("o_totalprice", DataType::Float64),
        Field::new("o_orderdate", DataType::Date),
        Field::new("o_orderpriority", DataType::Utf8),
    ])
}

/// Number of orders at a scale factor.
pub fn orders_rows(sf: f64) -> u64 {
    (sf * 1_500_000.0).round() as u64
}

/// Both tables generated together so their keys agree.
pub struct TpchTables {
    /// The ORDERS table.
    pub orders: Batch,
    /// The LINEITEM table.
    pub lineitem: Batch,
}

/// Generate ORDERS and LINEITEM at scale factor `sf` (a pure function of
/// `(sf, seed)`).
pub fn generate(sf: f64, seed: u64) -> TpchTables {
    let n_orders = orders_rows(sf) as usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7063_4854);

    let start_date = date::from_ymd(1992, 1, 1);
    // Latest order date leaves room for shipping intervals (spec: -151 days).
    let end_date = date::from_ymd(1998, 12, 31) - 151;
    let date_range = (end_date - start_date) as u64;
    let cutoff = date::from_ymd(1995, 6, 17);
    // String columns are generated as codes into sorted dictionaries.
    let dictionary = |values: &[&str]| Rc::clone(Utf8Column::from_iter(values).dict());
    let (modes, priorities) = (dictionary(&SHIP_MODES), dictionary(&ORDER_PRIORITIES));
    let (flags, statuses) = (dictionary(&["A", "N", "R"]), dictionary(&["F", "O"]));
    let code = |dict: &[String], s: &str| {
        dict.binary_search_by(|d| d.as_str().cmp(s))
            .expect("in the dictionary") as u32
    };

    let mut o_orderkey = Vec::with_capacity(n_orders);
    let mut o_custkey = Vec::with_capacity(n_orders);
    let mut o_totalprice = Vec::with_capacity(n_orders);
    let mut o_orderdate = Vec::with_capacity(n_orders);
    let mut o_orderpriority = Vec::with_capacity(n_orders);

    let est_lines = n_orders * 4;
    let mut l_orderkey = Vec::with_capacity(est_lines);
    let mut l_quantity = Vec::with_capacity(est_lines);
    let mut l_extendedprice = Vec::with_capacity(est_lines);
    let mut l_discount = Vec::with_capacity(est_lines);
    let mut l_tax = Vec::with_capacity(est_lines);
    let mut l_returnflag = Vec::with_capacity(est_lines);
    let mut l_linestatus = Vec::with_capacity(est_lines);
    let mut l_shipdate = Vec::with_capacity(est_lines);
    let mut l_commitdate = Vec::with_capacity(est_lines);
    let mut l_receiptdate = Vec::with_capacity(est_lines);
    let mut l_shipmode = Vec::with_capacity(est_lines);

    for i in 0..n_orders {
        // dbgen spreads order keys sparsely; dense keys serve the same
        // queries and join exactly as well.
        let orderkey = (i as i64) * 4 + 1;
        let orderdate = start_date + rng.gen_range(0..=date_range) as i64;
        let priority = ORDER_PRIORITIES[rng.gen_range(0..ORDER_PRIORITIES.len())];
        let lines = rng.gen_range(1..=7);
        let mut total = 0.0f64;

        for _ in 0..lines {
            let quantity = rng.gen_range(1..=50) as f64;
            // Simplified part price in the spec's 901.00..104,949.50 range.
            let part_price = rng.gen_range(901.00..105_000.00f64);
            let extendedprice = (quantity * part_price * 100.0).round() / 100.0;
            let discount = rng.gen_range(0..=10) as f64 / 100.0;
            let tax = rng.gen_range(0..=8) as f64 / 100.0;
            let shipdate = orderdate + rng.gen_range(1..=121i64);
            let commitdate = orderdate + rng.gen_range(30..=90i64);
            let receiptdate = shipdate + rng.gen_range(1..=30i64);
            let returnflag = if receiptdate <= cutoff {
                if rng.gen_bool(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            let linestatus = if shipdate > cutoff { "O" } else { "F" };
            let shipmode = SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())];

            l_orderkey.push(orderkey);
            l_quantity.push(quantity);
            l_extendedprice.push(extendedprice);
            l_discount.push(discount);
            l_tax.push(tax);
            l_returnflag.push(code(&flags, returnflag));
            l_linestatus.push(code(&statuses, linestatus));
            l_shipdate.push(shipdate);
            l_commitdate.push(commitdate);
            l_receiptdate.push(receiptdate);
            l_shipmode.push(code(&modes, shipmode));
            total += extendedprice * (1.0 - discount) * (1.0 + tax);
        }

        o_orderkey.push(orderkey);
        o_custkey.push(rng.gen_range(1..=(150_000f64 * sf.max(0.01)) as i64));
        o_totalprice.push((total * 100.0).round() / 100.0);
        o_orderdate.push(orderdate);
        o_orderpriority.push(code(&priorities, priority));
    }

    TpchTables {
        orders: Batch::new(
            orders_schema(),
            vec![
                Column::Int64(o_orderkey),
                Column::Int64(o_custkey),
                Column::Float64(o_totalprice),
                Column::Int64(o_orderdate),
                Column::Utf8(Utf8Column::new(priorities, o_orderpriority)),
            ],
        ),
        lineitem: Batch::new(
            lineitem_schema(),
            vec![
                Column::Int64(l_orderkey),
                Column::Float64(l_quantity),
                Column::Float64(l_extendedprice),
                Column::Float64(l_discount),
                Column::Float64(l_tax),
                Column::Utf8(Utf8Column::new(flags, l_returnflag)),
                Column::Utf8(Utf8Column::new(statuses, l_linestatus)),
                Column::Int64(l_shipdate),
                Column::Int64(l_commitdate),
                Column::Int64(l_receiptdate),
                Column::Utf8(Utf8Column::new(modes, l_shipmode)),
            ],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_match_scale_factor() {
        let t = generate(0.01, 1);
        assert_eq!(t.orders.num_rows(), 15_000);
        let lines = t.lineitem.num_rows();
        assert!((45_000..=75_000).contains(&lines), "lines {lines}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(0.001, 42);
        let b = generate(0.001, 42);
        let c = generate(0.001, 43);
        assert_eq!(a.lineitem.columns, b.lineitem.columns);
        assert_ne!(a.lineitem.columns, c.lineitem.columns);
    }

    #[test]
    fn value_domains_match_spec() {
        let t = generate(0.005, 7);
        for &q in t.lineitem.column("l_quantity").as_f64() {
            assert!((1.0..=50.0).contains(&q));
        }
        for &d in t.lineitem.column("l_discount").as_f64() {
            assert!((0.0..=0.10001).contains(&d));
        }
        for &t_ in t.lineitem.column("l_tax").as_f64() {
            assert!((0.0..=0.08001).contains(&t_));
        }
        let start = date::from_ymd(1992, 1, 1);
        let end = date::from_ymd(1999, 12, 31);
        for &d in t.lineitem.column("l_shipdate").as_i64() {
            assert!(d > start && d < end);
        }
        for m in t.lineitem.column("l_shipmode").as_str().iter() {
            assert!(SHIP_MODES.contains(&m));
        }
    }

    #[test]
    fn flags_derive_from_dates() {
        let t = generate(0.005, 9);
        let cutoff = date::from_ymd(1995, 6, 17);
        let flags = t.lineitem.column("l_returnflag").as_str();
        let status = t.lineitem.column("l_linestatus").as_str();
        let ship = t.lineitem.column("l_shipdate").as_i64();
        let receipt = t.lineitem.column("l_receiptdate").as_i64();
        for i in 0..t.lineitem.num_rows() {
            if receipt[i] <= cutoff {
                assert!(&flags[i] == "R" || &flags[i] == "A");
            } else {
                assert_eq!(&flags[i], "N");
            }
            assert_eq!(&status[i], if ship[i] > cutoff { "O" } else { "F" });
        }
    }

    #[test]
    fn every_lineitem_joins_to_an_order() {
        let t = generate(0.002, 11);
        let orders: std::collections::BTreeSet<i64> = t
            .orders
            .column("o_orderkey")
            .as_i64()
            .iter()
            .copied()
            .collect();
        for &k in t.lineitem.column("l_orderkey").as_i64() {
            assert!(orders.contains(&k));
        }
    }

    #[test]
    fn q6_style_selectivity_is_nontrivial() {
        // The Q6 predicate should select a small but non-empty fraction.
        let t = generate(0.01, 13);
        let ship = t.lineitem.column("l_shipdate").as_i64();
        let disc = t.lineitem.column("l_discount").as_f64();
        let qty = t.lineitem.column("l_quantity").as_f64();
        let lo = date::from_ymd(1994, 1, 1);
        let hi = date::from_ymd(1995, 1, 1);
        let hits = (0..t.lineitem.num_rows())
            .filter(|&i| {
                ship[i] >= lo && ship[i] < hi && disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24.0
            })
            .count();
        let frac = hits as f64 / t.lineitem.num_rows() as f64;
        assert!(frac > 0.005 && frac < 0.08, "selectivity {frac}");
    }
}
