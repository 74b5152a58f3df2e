//! Deterministic TPCx-BB data generation for query Q3 (clickstream
//! analysis).
//!
//! TPCx-BB Q3 asks, for a given item category, which items users viewed in
//! their last clicks before purchasing an item — an I/O-bound,
//! MapReduce-style sessionisation over `web_clickstreams` joined with
//! `item`. We generate the two tables with the query-relevant columns:
//! users produce click sessions ordered by time, and a fraction of clicks
//! carry a sales key (a purchase).

use crate::columnar::{Batch, Column, DataType, Field, Schema};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// Item categories (subset of the official 10).
pub const CATEGORIES: [&str; 8] = [
    "Books",
    "Electronics",
    "Home & Kitchen",
    "Toys & Games",
    "Sports",
    "Clothing",
    "Music",
    "Jewelry",
];

/// WEB_CLICKSTREAMS schema (query-relevant subset).
pub fn clickstreams_schema() -> Rc<Schema> {
    Schema::new(vec![
        Field::new("wcs_user_sk", DataType::Int64),
        Field::new("wcs_click_date_sk", DataType::Date),
        Field::new("wcs_click_time_sk", DataType::Int64),
        Field::new("wcs_item_sk", DataType::Int64),
        // 0 encodes NULL (no purchase on this click).
        Field::new("wcs_sales_sk", DataType::Int64),
    ])
}

/// ITEM schema (query-relevant subset).
pub fn item_schema() -> Rc<Schema> {
    Schema::new(vec![
        Field::new("i_item_sk", DataType::Int64),
        Field::new("i_category_id", DataType::Int64),
        Field::new("i_category", DataType::Utf8),
    ])
}

/// Items at a scale factor.
pub fn item_rows(sf: f64) -> u64 {
    ((sf * 1_000.0).round() as u64).clamp(80, 400_000)
}

/// Clickstream rows at a scale factor (~6.6B at SF1000).
pub fn clickstream_rows(sf: f64) -> u64 {
    (sf * 6_600_000.0).round() as u64
}

/// Both tables, generated together so item keys agree.
pub struct TpcxBbTables {
    /// The WEB_CLICKSTREAMS table.
    pub clickstreams: Batch,
    /// The ITEM table.
    pub item: Batch,
}

/// Generate ITEM and WEB_CLICKSTREAMS at scale factor `sf`.
pub fn generate(sf: f64, seed: u64) -> TpcxBbTables {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6262_5133);
    let n_items = item_rows(sf) as i64;
    let n_clicks = clickstream_rows(sf) as usize;

    // ITEM.
    let mut i_item_sk = Vec::with_capacity(n_items as usize);
    let mut i_category_id = Vec::with_capacity(n_items as usize);
    let mut i_category: Vec<String> = Vec::with_capacity(n_items as usize);
    for sk in 1..=n_items {
        let cat = rng.gen_range(0..CATEGORIES.len());
        i_item_sk.push(sk);
        i_category_id.push(cat as i64 + 1);
        i_category.push(CATEGORIES[cat].to_string());
    }

    // WEB_CLICKSTREAMS: users click in sessions; ~4% of clicks purchase.
    let n_users = ((n_clicks / 50).max(4)) as i64;
    let mut wcs_user = Vec::with_capacity(n_clicks);
    let mut wcs_date = Vec::with_capacity(n_clicks);
    let mut wcs_time = Vec::with_capacity(n_clicks);
    let mut wcs_item = Vec::with_capacity(n_clicks);
    let mut wcs_sales = Vec::with_capacity(n_clicks);
    let mut next_sales_sk = 1i64;

    let mut produced = 0usize;
    while produced < n_clicks {
        let user = rng.gen_range(1..=n_users);
        let date = crate::columnar::date::from_ymd(2023, 1, 1) + rng.gen_range(0..365i64);
        let mut time = rng.gen_range(0..80_000i64);
        let session_len = rng.gen_range(3..=20usize).min(n_clicks - produced);
        for _ in 0..session_len {
            time += rng.gen_range(5..120i64);
            let item = rng.gen_range(1..=n_items);
            let sales = if rng.gen_bool(0.04) {
                let sk = next_sales_sk;
                next_sales_sk += 1;
                sk
            } else {
                0
            };
            wcs_user.push(user);
            wcs_date.push(date);
            wcs_time.push(time);
            wcs_item.push(item);
            wcs_sales.push(sales);
            produced += 1;
        }
    }

    TpcxBbTables {
        clickstreams: Batch::new(
            clickstreams_schema(),
            vec![
                Column::Int64(wcs_user),
                Column::Int64(wcs_date),
                Column::Int64(wcs_time),
                Column::Int64(wcs_item),
                Column::Int64(wcs_sales),
            ],
        ),
        item: Batch::new(
            item_schema(),
            vec![
                Column::Int64(i_item_sk),
                Column::Int64(i_category_id),
                Column::Utf8(i_category),
            ],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_scale() {
        let t = generate(0.01, 1);
        assert_eq!(t.clickstreams.num_rows(), 66_000);
        assert_eq!(t.item.num_rows(), 80); // clamped minimum
        let big = generate(0.5, 1);
        assert_eq!(big.item.num_rows(), 500);
    }

    #[test]
    fn determinism() {
        let a = generate(0.01, 5);
        let b = generate(0.01, 5);
        assert_eq!(a.clickstreams.columns, b.clickstreams.columns);
        assert_eq!(a.item.columns, b.item.columns);
    }

    #[test]
    fn purchases_are_a_small_fraction_with_unique_keys() {
        let t = generate(0.05, 3);
        let sales = t.clickstreams.column("wcs_sales_sk").as_i64();
        let purchases: Vec<i64> = sales.iter().copied().filter(|&s| s != 0).collect();
        let frac = purchases.len() as f64 / sales.len() as f64;
        assert!(frac > 0.02 && frac < 0.07, "purchase fraction {frac}");
        let unique: std::collections::BTreeSet<i64> = purchases.iter().copied().collect();
        assert_eq!(unique.len(), purchases.len());
    }

    #[test]
    fn clicks_reference_valid_items() {
        let t = generate(0.02, 4);
        let n_items = t.item.num_rows() as i64;
        for &i in t.clickstreams.column("wcs_item_sk").as_i64() {
            assert!(i >= 1 && i <= n_items);
        }
    }

    #[test]
    fn every_category_is_populated() {
        let t = generate(0.1, 6);
        let cats: std::collections::BTreeSet<&str> = t
            .item
            .column("i_category")
            .as_str()
            .iter()
            .map(String::as_str)
            .collect();
        assert_eq!(cats.len(), CATEGORIES.len());
    }
}
