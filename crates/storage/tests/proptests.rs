//! Property-based invariants of the storage simulations.

use proptest::prelude::*;
use skyrise_pricing::{shared_meter, StorageService};
use skyrise_sim::{join_all, Sim, SimDuration, SimTime};
use skyrise_storage::{
    Blob, ByteRange, DynamoConfig, DynamoTable, KeyedStore, RequestOpts, S3Bucket, Storage,
    StorageError,
};
use std::collections::BTreeMap;
use std::rc::Rc;

proptest! {
    // These tests spin up whole simulations; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every issued request is metered, successes and failures alike
    /// (the paper's accounting hook "counts all requests, including
    /// failures and retries").
    #[test]
    fn all_requests_are_metered(reads in 1usize..300, writes in 0usize..100) {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let meter2 = meter.clone();
        sim.spawn(async move {
            let bucket = S3Bucket::standard(&ctx, &meter2);
            bucket.backdoor().put("k", Blob::synthetic(512));
            let opts = RequestOpts::default();
            let mut handles = Vec::new();
            for _ in 0..reads {
                let b = Rc::clone(&bucket);
                handles.push(ctx.spawn(async move {
                    let _ = b.read("k", ByteRange::Full, &RequestOpts::default()).await;
                }));
            }
            for i in 0..writes {
                let b = Rc::clone(&bucket);
                handles.push(ctx.spawn(async move {
                    let _ = b
                        .put(&format!("w{i}"), Blob::synthetic(256), &RequestOpts::default())
                        .await;
                }));
            }
            join_all(handles).await;
            let _ = opts;
        });
        sim.run();
        let m = meter.borrow();
        let u = &m.storage[&StorageService::S3Standard];
        prop_assert_eq!(u.read_requests as usize, reads);
        prop_assert_eq!(u.write_requests as usize, writes);
        // Billed exactly per the price list.
        let expect = reads as f64 * 4e-7 + writes as f64 * 5e-6;
        let got = m.report().storage_request_usd;
        prop_assert!((got - expect).abs() < 1e-10, "{got} vs {expect}");
    }

    /// Admission control: successful ops never exceed the configured
    /// sustained rate plus the burst allowance, for any offered load.
    #[test]
    fn dynamo_successes_bounded_by_capacity(
        rate in 10.0f64..200.0,
        offered in 50u64..600,
        duration_s in 1u64..5,
    ) {
        let mut sim = Sim::new(11);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let cfg = DynamoConfig {
                read_iops: rate,
                burst_seconds: 0.5,
                ..DynamoConfig::default()
            };
            let table = DynamoTable::new(ctx.clone(), meter, cfg, None);
            table.backdoor().put("k", Blob::synthetic(256));
            let gap = SimDuration::from_secs_f64(duration_s as f64 / offered as f64);
            let t0 = ctx.now();
            let handles: Vec<_> = (0..offered)
                .map(|i| {
                    let t = Rc::clone(&table);
                    let ctx2 = ctx.clone();
                    let at = t0 + gap * i;
                    ctx.spawn(async move {
                        ctx2.sleep_until(at).await;
                        t.read("k", ByteRange::Full, &RequestOpts::default()).await.is_ok()
                    })
                })
                .collect();
            join_all(handles).await.iter().filter(|&&ok| ok).count() as f64
        });
        sim.run();
        let ok = h.try_take().expect("done");
        let budget = rate * (duration_s as f64 + 1.0) + rate * 0.5 + 1.0;
        prop_assert!(ok <= budget, "ok {ok} > budget {budget}");
    }

    /// Blob logical arithmetic: slices keep the scale, and logical sizes
    /// add up across any split of the payload.
    #[test]
    fn blob_slices_partition_logical_size(
        len in 1u64..10_000,
        cut in 0u64..10_000,
        scale in 1.0f64..5_000.0,
    ) {
        let cut = cut.min(len);
        let blob = Blob::scaled(vec![0u8; len as usize], scale);
        let a = blob.slice(0, cut).unwrap();
        let b = blob.slice(cut, len - cut).unwrap();
        let sum = a.logical_len() + b.logical_len();
        // Rounding may cost at most one byte per part.
        prop_assert!((sum as i64 - blob.logical_len() as i64).abs() <= 2);
    }

    /// S3 responses preserve payload bytes exactly (no corruption through
    /// the admission/latency/transfer pipeline).
    #[test]
    fn payloads_round_trip(data in prop::collection::vec(any::<u8>(), 1..2_000)) {
        let mut sim = Sim::new(13);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let expected = data.clone();
        let h = sim.spawn(async move {
            let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
            let opts = RequestOpts::default();
            storage.put("obj", Blob::new(data), &opts).await.unwrap();
            storage.get("obj", &opts).await.unwrap().bytes.to_vec()
        });
        sim.run();
        prop_assert_eq!(h.try_take().expect("done"), expected);
    }

    /// Latency is always positive and bounded by the model cap.
    #[test]
    fn latencies_respect_the_cap(n in 1usize..120) {
        let mut sim = Sim::new(17);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let bucket = S3Bucket::standard(&ctx, &meter);
            bucket.backdoor().put("k", Blob::synthetic(64));
            let mut worst: f64 = 0.0;
            for _ in 0..n {
                let t0 = ctx.now();
                bucket.read("k", ByteRange::Full, &RequestOpts::default()).await.unwrap();
                worst = worst.max((ctx.now() - t0).as_secs_f64());
                ctx.sleep(SimDuration::from_millis(2)).await;
            }
            worst
        });
        sim.run();
        let worst = h.try_take().expect("done");
        prop_assert!(worst > 0.0);
        prop_assert!(worst < 11.0, "cap ~10.5 s: {worst}");
        let _ = SimTime::ZERO;
    }
}

/// Shared prefixes of 0 to 32 bytes: with a suffix of up to 8 a key is
/// 0–40 bytes long, and keys of one prefix differ only in their tail word.
const PREFIXES: [&str; 4] = [
    "",
    "k",
    "bench/c001/t002/o",
    "shuffle/q12/stage-0003/part-0000",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The store's index answers every put, overwrite and get exactly as
    /// an ordered map does, across growths of its table (short suffixes
    /// repeat, long ones mostly do not: up to ~1.4 K distinct keys), and an
    /// absent key is `NotFound` naming that key.
    #[test]
    fn keyed_store_matches_an_ordered_map(ops in prop::collection::vec(
        (any::<bool>(), 0usize..PREFIXES.len(), "[abc]{0,8}", 0usize..64),
        1..5_000,
    )) {
        let store = KeyedStore::new();
        let mut oracle = BTreeMap::<String, Blob>::new();
        for (i, (put, prefix, suffix, len)) in ops.into_iter().enumerate() {
            let key = format!("{}{suffix}", PREFIXES[prefix]);
            if put {
                let blob = Blob::scaled(vec![i as u8; len], 1.0 + i as f64);
                store.put(&key, blob.clone());
                oracle.insert(key, blob);
                continue;
            }
            match (store.get(&key), oracle.get(&key)) {
                (Ok(got), Some(want)) => {
                    prop_assert_eq!(&got.bytes, &want.bytes, "bytes under {:?}", key);
                    prop_assert_eq!(got.logical_scale, want.logical_scale, "scale under {:?}", key);
                }
                (Err(StorageError::NotFound { key: missing }), None) => {
                    prop_assert_eq!(missing, key);
                }
                (got, want) => prop_assert!(false, "{key:?}: store {got:?}, oracle {want:?}"),
            }
        }
    }
}
