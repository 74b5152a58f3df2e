//! The storage request path, pinned.
//!
//! One mixed scenario over all four services drives every branch of the
//! request lifecycle (`ServiceCore::request`): whole, ranged and suffix
//! reads, writes, an oversize write, a missing key, closed-loop threads
//! drawing 503s on every backend, EFS connection rejects, and a retrying
//! client under injected throttles and timeouts. Its sanitizer digest,
//! telemetry digest and metered usage are asserted against constants
//! recorded by running the same scenario on e992fde (the commit before the
//! lifecycle was unified), so a refactor of the path that moves a clock
//! read, an RNG draw, a metric or a billed byte fails here by name.

use skyrise_pricing::{shared_meter, StorageService};
use skyrise_sim::{join_all, FaultConfig, Sim, SimCtx};
use skyrise_storage::{
    Blob, ByteRange, DynamoConfig, DynamoTable, EfsConfig, EfsFilesystem, RequestOpts, RetryPolicy,
    RetryingClient, S3Bucket, S3Class, S3Config, Storage, StorageError,
};
use std::cell::Cell;
use std::rc::Rc;

/// The four services with quotas scaled down ~100x so a few dozen
/// closed-loop threads draw 503s, and an EFS connection ceiling below the
/// thread count.
fn services(ctx: &SimCtx, meter: &skyrise_pricing::SharedMeter) -> [Storage; 4] {
    let s3 = |class| {
        let base = match class {
            S3Class::Standard => S3Config::standard(),
            S3Class::Express => S3Config::express(),
        };
        Storage::S3(S3Bucket::new(
            ctx.clone(),
            Rc::clone(meter),
            S3Config {
                read_iops_per_partition: 55.0,
                write_iops: 35.0,
                express_read_iops: 220.0,
                express_write_iops: 42.0,
                ..base
            },
        ))
    };
    [
        s3(S3Class::Standard),
        s3(S3Class::Express),
        Storage::Dynamo(DynamoTable::new(
            ctx.clone(),
            Rc::clone(meter),
            DynamoConfig {
                read_iops: 160.0,
                write_iops: 96.0,
                burst_seconds: 0.1,
                ..DynamoConfig::default()
            },
            None,
        )),
        Storage::Efs(EfsFilesystem::new(
            ctx.clone(),
            Rc::clone(meter),
            EfsConfig {
                read_iops: 45.0,
                write_iops: 19.0,
                max_inflight: 12,
                burst_seconds: 0.1,
                ..EfsConfig::default()
            },
            None,
        )),
    ]
}

/// Whole, ranged and suffix reads, a write, an oversize write and a
/// missing key against one service; the assertions are the former
/// per-verb unit tests.
async fn verbs(s: &Storage, opts: &RequestOpts) {
    let native = matches!(s, Storage::S3(_));
    let name = s.name();
    let data: Vec<u8> = (0..=255u8).collect();
    s.backdoor_put("obj", Blob::scaled(data.clone(), 4.0));
    s.put("w", Blob::new(vec![7u8; 1024]), opts).await.unwrap();
    let whole = s.read("w", ByteRange::Full, opts).await.unwrap();
    assert_eq!(&whole.blob.bytes[..], &[7u8; 1024][..], "{name}");
    assert_eq!(whole.transferred, 1024, "{name}");

    let part = s
        .read("obj", ByteRange::Bytes { offset: 16, len: 4 }, opts)
        .await
        .unwrap();
    assert_eq!(&part.blob.bytes[..], &[16, 17, 18, 19], "{name}");
    assert_eq!(part.transferred, if native { 16 } else { 1024 }, "{name}");

    let tail = s.read("obj", ByteRange::Suffix(8), opts).await.unwrap();
    assert_eq!(&tail.blob.bytes[..], &data[248..], "{name}");
    assert_eq!(tail.object_len, 256, "{name}");
    assert_eq!(tail.transferred, if native { 32 } else { 1024 }, "{name}");

    // An over-long suffix clamps to the whole object.
    let all = s.read("obj", ByteRange::Suffix(9999), opts).await.unwrap();
    assert_eq!(all.blob.len(), 256, "{name}");
    assert_eq!(all.transferred, 1024, "{name}");

    assert!(
        matches!(
            s.read(
                "obj",
                ByteRange::Bytes {
                    offset: 250,
                    len: 10
                },
                opts
            )
            .await,
            Err(StorageError::InvalidRange { .. })
        ),
        "{name}"
    );
    assert!(
        matches!(
            s.read("missing", ByteRange::Full, opts).await,
            Err(StorageError::NotFound { .. })
        ),
        "{name}"
    );
    let oversize = match s {
        Storage::S3(_) => Some(6u64 << 40),
        Storage::Dynamo(_) => Some(500 << 10),
        Storage::Efs(_) => None,
    };
    if let Some(n) = oversize {
        assert!(
            matches!(
                s.put("big", Blob::synthetic(n), opts).await,
                Err(StorageError::TooLarge { .. })
            ),
            "{name}"
        );
    }
}

#[derive(Default)]
struct Tally {
    ok: Cell<u64>,
    throttled: Cell<u64>,
    conn_rejected: Cell<u64>,
}

/// `threads` closed-loop clients, each alternating reads and writes with
/// no think time for `rounds` attempts.
async fn closed_loop(ctx: &SimCtx, s: &Storage, threads: usize, rounds: usize) -> Rc<Tally> {
    let tally = Rc::new(Tally::default());
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let (s, tally) = (s.clone(), Rc::clone(&tally));
            ctx.spawn(async move {
                let opts = RequestOpts::default();
                let key = format!("cl/{t}");
                s.backdoor_put(&key, Blob::synthetic(1024));
                for i in 0..rounds {
                    let out = if (i + t) % 3 == 0 {
                        s.put(&key, Blob::synthetic(1024), &opts).await
                    } else {
                        let range = match i % 3 {
                            0 => ByteRange::Full,
                            1 => ByteRange::Bytes { offset: 8, len: 64 },
                            _ => ByteRange::Suffix(32),
                        };
                        s.read(&key, range, &opts).await.map(drop)
                    };
                    let slot = match out {
                        Ok(()) => &tally.ok,
                        Err(StorageError::Throttled) => &tally.throttled,
                        Err(StorageError::ConnectionRejected) => &tally.conn_rejected,
                        Err(e) => panic!("unexpected {e}"),
                    };
                    slot.set(slot.get() + 1);
                }
            })
        })
        .collect();
    join_all(handles).await;
    tally
}

#[test]
fn request_path_digest_is_pinned() {
    let mut sim = Sim::new(16);
    let plan = sim.install_faults(FaultConfig {
        storage_throttle_prob: 0.2,
        storage_timeout_prob: 0.2,
        ..FaultConfig::default()
    });
    let reg = sim.install_metrics();
    let san = sim.enable_sanitizer();
    let ctx = sim.ctx();
    let meter = shared_meter();
    let meter2 = Rc::clone(&meter);
    let root = sim.spawn(async move {
        let stores = services(&ctx, &meter2);
        let opts = RequestOpts::default();
        for s in &stores {
            verbs(s, &opts).await;
        }
        for s in &stores {
            let t = closed_loop(&ctx, s, 16, 30).await;
            assert!(t.ok.get() > 0, "{}", s.name());
            assert!(t.throttled.get() > 0, "{} drew no 503", s.name());
            assert_eq!(
                t.conn_rejected.get() > 0,
                matches!(s, Storage::Efs(_)),
                "{}",
                s.name()
            );
        }
        // One retrying client on S3 Standard under injected faults.
        let client = RetryingClient::new(
            stores[0].clone(),
            ctx.clone(),
            RetryPolicy {
                max_attempts: 12,
                ..RetryPolicy::eager()
            },
        );
        let mut attempts = 0;
        for i in 0..8u64 {
            let range = match i % 3 {
                0 => ByteRange::Full,
                1 => ByteRange::Bytes { offset: i, len: 16 },
                _ => ByteRange::Suffix(16),
            };
            let (got, st) = client.read("obj", range, 1024, &opts).await.unwrap();
            assert!(got.transferred <= 1024);
            attempts += st.attempts;
            attempts += client
                .put("cw", Blob::synthetic(2048), &opts)
                .await
                .unwrap()
                .attempts;
        }
        attempts
    });
    sim.run();
    let attempts = root.try_take().expect("scenario finished");
    let faults = plan.stats();
    assert!(faults.storage_throttles > 0 && faults.storage_timeouts > 0);

    assert_eq!(
        (faults.storage_throttles, faults.storage_timeouts, attempts),
        (2, 4, 22)
    );

    let report = san.report().expect("enabled");
    assert_eq!(report.events, 6646);
    assert_eq!(
        report.digest, 0x0e3c_3f3e_2f43_1be1,
        "{:#018x}",
        report.digest
    );
    let snap = reg.snapshot();
    assert_eq!(
        snap.digest(),
        0xd4de_137f_4b02_a926,
        "{:#018x}",
        snap.digest()
    );
    assert_eq!(snap.counters["storage.efs.conn_rejects"], 120);
    // [read requests, write requests, failed, bytes read, bytes written]
    let m = meter.borrow();
    for (service, expect) in [
        (StorageService::S3Standard, [332, 169, 422, 25_904, 39_936]),
        (StorageService::S3Express, [324, 161, 396, 33_840, 14_336]),
        (StorageService::DynamoDb, [325, 161, 423, 41_984, 22_528]),
        (StorageService::Efs, [245, 121, 345, 16_384, 5_120]),
    ] {
        let u = &m.storage[&service];
        assert_eq!(
            [
                u.read_requests,
                u.write_requests,
                u.failed_requests,
                u.bytes_read,
                u.bytes_written
            ],
            expect,
            "{service:?}"
        );
    }
}

/// Run `f` in a fresh simulation and return its output with the meter.
fn in_sim<T: 'static, Fut: std::future::Future<Output = T> + 'static>(
    f: impl FnOnce(SimCtx, skyrise_pricing::SharedMeter) -> Fut,
) -> (T, skyrise_pricing::SharedMeter) {
    let mut sim = Sim::new(3);
    let meter = shared_meter();
    let h = sim.spawn(f(sim.ctx(), Rc::clone(&meter)));
    sim.run();
    (h.try_take().expect("finished"), meter)
}

/// Where a request fails decides whether it is billed. A range S3 cannot
/// serve is refused before admission; DynamoDB has already sent (and
/// billed) the whole item when the client finds the range does not fit.
#[test]
fn a_bad_range_is_billed_only_where_the_client_cuts_it() {
    let bad = ByteRange::Bytes {
        offset: 250,
        len: 10,
    };
    let ((), meter) = in_sim(move |ctx, meter| async move {
        let opts = RequestOpts::default();
        for s in [
            Storage::S3(S3Bucket::standard(&ctx, &meter)),
            Storage::Dynamo(DynamoTable::on_demand(&ctx, &meter)),
        ] {
            s.backdoor_put("obj", Blob::scaled(vec![0u8; 256], 4.0));
            let err = s.read("obj", bad, &opts).await.unwrap_err();
            assert!(matches!(err, StorageError::InvalidRange { .. }), "{err}");
        }
    });
    let m = meter.borrow();
    assert!(!m.storage.contains_key(&StorageService::S3Standard));
    let dynamo = &m.storage[&StorageService::DynamoDb];
    assert_eq!((dynamo.read_requests, dynamo.bytes_read), (1, 1024));
}

#[test]
fn missing_keys_and_oversize_writes_are_not_metered() {
    let ((), meter) = in_sim(|ctx, meter| async move {
        let opts = RequestOpts::default();
        for s in services(&ctx, &meter) {
            let err = s.read("nope", ByteRange::Full, &opts).await.unwrap_err();
            assert!(matches!(err, StorageError::NotFound { .. }), "{err}");
        }
        let table = Storage::Dynamo(DynamoTable::on_demand(&ctx, &meter));
        let err = table.put("big", Blob::synthetic(401 << 10), &opts).await;
        assert!(matches!(err, Err(StorageError::TooLarge { .. })), "{err:?}");
    });
    assert!(meter.borrow().storage.is_empty());
}

/// EFS refuses a connection past its in-flight ceiling: the refusal takes
/// the 4 ms reject round trip and is not a request the meter ever sees.
#[test]
fn a_refused_connection_costs_a_round_trip_and_no_request() {
    let (refused, meter) = in_sim(|ctx, meter| async move {
        let fs = EfsFilesystem::new(
            ctx.clone(),
            meter,
            EfsConfig {
                max_inflight: 2,
                ..EfsConfig::default()
            },
            None,
        );
        fs.backdoor().put("/k", Blob::synthetic(64));
        let handles: Vec<_> = (0..5)
            .map(|_| {
                let (fs, ctx2) = (Rc::clone(&fs), ctx.clone());
                ctx.spawn(async move {
                    let out = fs
                        .read("/k", ByteRange::Full, &RequestOpts::default())
                        .await;
                    (out.map(drop), ctx2.now().as_secs_f64())
                })
            })
            .collect();
        join_all(handles).await
    });
    let refusals: Vec<f64> = refused
        .iter()
        .filter(|(out, _)| *out == Err(StorageError::ConnectionRejected))
        .map(|&(_, at)| at)
        .collect();
    assert_eq!(refusals, [0.004; 3]);
    let m = meter.borrow();
    let efs = &m.storage[&StorageService::Efs];
    assert_eq!((efs.read_requests, efs.failed_requests), (2, 0));
}

/// The ramp experiments hold one request future per request in flight,
/// tens of thousands at a time, so its size is their memory. 648 and 688
/// bytes when this was written, against 616 and 712 before the lifecycle
/// was unified; an `async fn` wrapped around the lifecycle costs 64 more
/// each, and it took four of them to fail the benchmark's memory bound.
#[test]
fn a_request_future_stays_small() {
    let sim = Sim::new(1);
    let s = Storage::S3(S3Bucket::standard(&sim.ctx(), &shared_meter()));
    let opts = RequestOpts::default();
    let get = std::mem::size_of_val(&s.get("k", &opts));
    let put = std::mem::size_of_val(&s.put("k", Blob::synthetic(8), &opts));
    assert!(get <= 704 && put <= 744, "get {get} B, put {put} B");
}
