//! The JSON the engine sends and the suite writes, pinned byte for byte.
//! Plans and worker payloads cross the invocation path as JSON, and their
//! lengths are the `payload_bytes` a trace records; a dataset's catalog
//! entry is a modelled S3 object, billed by its length; result files and
//! telemetry snapshots are committed and digested. The constants were
//! recorded at commit 09e6a5d, when a proc macro derived the impls. A
//! change to how the impls are written leaves them alone.

use skyrise::data::Value;
use skyrise::engine::coordinator::FanoutRequest;
use skyrise::engine::worker::InputAssignment;
use skyrise::engine::{
    queries, DatasetMeta, InputSpec, PartitionMeta, PhysicalPlan, QueryConfig, QueryRequest,
    QueryResponse, StageStats, TaskPolicy, WorkerTask,
};
use skyrise::micro::{ExperimentResult, NamedSeries};
use skyrise::pricing::StorageService;
use skyrise::sim::{fnv1a64, MetricRegistry, MetricsSnapshot, SimDuration, SimTime};

fn partitions(dataset: &str, n: u64) -> Vec<PartitionMeta> {
    (0..n)
        .map(|i| PartitionMeta {
            key: format!("data/{dataset}/part-{i:05}.spf"),
            payload_bytes: 96_133 + i,
            logical_bytes: 191_889_408 + i,
            payload_rows: 30_000,
            logical_rows: 6_001_215 * (i + 1),
        })
        .collect()
}

/// A fragment of Q6's scan pipeline.
fn scan_task() -> WorkerTask {
    WorkerTask {
        query_id: "tpch-q6-0".into(),
        pipeline: queries::q6().pipelines[0].clone(),
        fragment: 3,
        n_fragments: 8,
        downstream_fragments: 1,
        inputs: vec![InputAssignment::Scan {
            partitions: partitions("h_lineitem", 2),
        }],
        expected_input_bytes: 383_778_817,
    }
}

/// A fragment of TPCx-BB Q3's sessionize pipeline: a shuffle input beside
/// a broadcast scan.
fn shuffle_task() -> WorkerTask {
    let pipeline = queries::bb_q3("Electronics", 10, 30).pipelines[1].clone();
    let inputs = pipeline
        .inputs
        .iter()
        .map(|input| match input {
            InputSpec::Shuffle { from_pipeline } => InputAssignment::Shuffle {
                from_pipeline: *from_pipeline,
                upstream_fragments: 16,
                combine: 2,
            },
            InputSpec::Scan { dataset, .. } => InputAssignment::Scan {
                partitions: partitions(dataset, 1),
            },
        })
        .collect();
    WorkerTask {
        query_id: "tpcxbb-q3-1".into(),
        pipeline,
        fragment: 0,
        n_fragments: 4,
        downstream_fragments: 1,
        inputs,
        expected_input_bytes: 0,
    }
}

fn fanout() -> FanoutRequest {
    FanoutRequest {
        tasks: vec![scan_task(), shuffle_task()],
        policy: TaskPolicy::disabled(),
    }
}

fn query_request() -> QueryRequest {
    QueryRequest {
        query_id: "tpch-q12-0".into(),
        plan: queries::q12(),
        config: QueryConfig::default(),
    }
}

/// Floats that print differently: a shortest round trip, an exponent, a
/// whole number, a non-finite value (`null`).
fn stage() -> StageStats {
    StageStats {
        pipeline: 2,
        fragments: 16,
        downstream_fragments: 1,
        start_secs: 0.1 + 0.2,
        duration_secs: 1e21,
        cumulative_worker_secs: 12.5e-3,
        io_secs_total: 3.0,
        cpu_secs_total: 1e-7,
        logical_bytes_read: u64::MAX,
        logical_bytes_written: 0,
        storage_requests: 73_175,
        rows_in: 6_001_215,
        rows_out: 4,
        cold_starts: 16,
        task_retries: 1,
        speculative_invokes: 0,
        failed_attempt_secs: f64::NAN,
    }
}

fn response() -> QueryResponse {
    QueryResponse {
        query_id: "tpch-q12-0".into(),
        result_key: "results/tpch-q12-0/part-00000.spf".into(),
        runtime_secs: 9.136,
        cumulative_worker_secs: 301.25,
        stages: vec![stage(), StageStats::default()],
        rows: Some(vec![
            vec![
                Value::Utf8("MAIL \"x\"\n\u{1}é".into()),
                Value::Int64(-7),
                Value::Float64(0.5),
                Value::Bool(false),
            ],
            vec![Value::Float64(f64::INFINITY)],
        ]),
    }
}

fn dataset() -> DatasetMeta {
    DatasetMeta {
        name: "h_lineitem".into(),
        partitions: partitions("h_lineitem", 3),
    }
}

const SERVICES: [StorageService; 4] = [
    StorageService::S3Standard,
    StorageService::S3Express,
    StorageService::DynamoDb,
    StorageService::Efs,
];

fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new("fig05", "Function network \"throughput\"");
    r.param("duration", "5s")
        .param("flows", 4)
        .scalar("burst_gib_s", 1.2)
        .scalar("undefined", f64::NAN)
        .push_series(NamedSeries::new("inbound", vec![(0.0, 1.0), (1.0, 0.5)]))
        .push_series(NamedSeries::new("empty", vec![]));
    r
}

fn snapshot() -> MetricsSnapshot {
    let reg = MetricRegistry::new();
    reg.counter("faas.sandbox.cold_starts").add(2);
    reg.gauge("faas.pool.warm_size").set(4.5);
    let h = reg.histogram("storage.s3_standard.op_secs");
    for i in 1..=100 {
        h.record(i as f64 / 100.0);
    }
    let t = reg.timeline("net.lane.s3", SimDuration::from_millis(10));
    for i in 0..1100u64 {
        t.record(SimTime::from_nanos(i * 10_000_000), (i % 7) as f64);
    }
    reg.snapshot()
}

/// Compact JSON of `$v`.
macro_rules! compact {
    ($v:expr) => {
        serde_json::to_string(&$v).expect("serializes")
    };
}

/// Parses a document and writes it again.
type Reparse = fn(&str) -> String;

/// `$v` as a compact document named `$name`, parsed back as `$ty`.
macro_rules! doc {
    ($name:expr, $v:expr, $ty:ty) => {{
        let reparse: Reparse =
            |doc| compact!(serde_json::from_str::<$ty>(doc).expect(stringify!($ty)));
        ($name.to_string(), compact!($v), Some(reparse))
    }};
}

/// Every pinned document, by name, with how to parse it back.
fn documents() -> Vec<(String, String, Option<Reparse>)> {
    let mut docs: Vec<_> = queries::suite()
        .iter()
        .map(|plan| doc!(plan.name, plan, PhysicalPlan))
        .collect();
    let reparse_result: Reparse = |doc| {
        let back: ExperimentResult = serde_json::from_str(doc).expect("ExperimentResult");
        back.to_json()
    };
    docs.extend([
        doc!("scan task", scan_task(), WorkerTask),
        doc!("shuffle task", shuffle_task(), WorkerTask),
        doc!("fanout request", fanout(), FanoutRequest),
        doc!("query request", query_request(), QueryRequest),
        doc!("stage stats", stage(), StageStats),
        doc!("query response", response(), QueryResponse),
        doc!("dataset meta", dataset(), DatasetMeta),
        doc!("storage services", SERVICES[..], Vec<StorageService>),
        (
            "experiment result".into(),
            result().to_json(),
            Some(reparse_result),
        ),
        ("metrics snapshot".into(), snapshot().canonical_json(), None),
    ]);
    docs
}

/// `(name, length, FNV-1a 64)` of each document.
const PINNED: [(&str, usize, u64); 14] = [
    ("tpch-q1", 2516, 0xc1b2a88ad062959e),
    ("tpch-q6", 1131, 0x8a12898f402d5c36),
    ("tpch-q12", 2043, 0xa58818f3309d5be2),
    ("tpcxbb-q3", 1079, 0xa85d372823c0506d),
    ("scan task", 1314, 0x1dc36cccf846def8),
    ("shuffle task", 841, 0x7103f0251dc142b1),
    ("fanout request", 2290, 0xacb5923623b70148),
    ("query request", 2292, 0x2a8793b8f764cef8),
    ("stage stats", 416, 0xce777ca0db3d9e42),
    ("query response", 1000, 0x6008aa96321999b9),
    ("dataset meta", 437, 0x752bec5f7a6dedf2),
    ("storage services", 43, 0x5139cdcfdb70d116),
    ("experiment result", 425, 0xb9cff6e99132eebe),
    ("metrics snapshot", 2482, 0xac5077d801912381),
];

#[test]
fn json_bytes_are_pinned() {
    let got: Vec<(String, usize, u64)> = documents()
        .into_iter()
        .map(|(name, doc, _)| (name, doc.len(), fnv1a64(doc.as_bytes())))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, len, digest)| format!("    ({name:?}, {len}, {digest:#018x}),\n"))
        .collect();
    let want: Vec<(String, usize, u64)> = PINNED
        .iter()
        .map(|&(name, len, digest)| (name.to_string(), len, digest))
        .collect();
    assert_eq!(got, want, "the documents now read:\n{table}");
}

#[test]
fn every_wire_type_round_trips() {
    for (name, doc, reparse) in documents() {
        if let Some(reparse) = reparse {
            assert_eq!(reparse(&doc), doc, "{name} does not round-trip");
        }
    }
}

/// `doc` without the members named in `keys`, at any depth.
fn without(doc: &str, keys: &[&str]) -> String {
    fn strip(v: &mut serde_json::Value, keys: &[&str]) {
        match v {
            serde_json::Value::Object(m) => {
                m.retain(|k, _| !keys.contains(&k.as_str()));
                m.values_mut().for_each(|v| strip(v, keys));
            }
            serde_json::Value::Array(a) => a.iter_mut().for_each(|v| strip(v, keys)),
            _ => {}
        }
    }
    let mut v = serde_json::from_str(doc).expect("parses");
    strip(&mut v, keys);
    v.to_string()
}

/// The five defaulted members read back as their defaults when absent,
/// an absent `Option` as `None`, and any other absent member is an error.
#[test]
fn absent_members_read_as_defaults() {
    let mut request = FanoutRequest {
        policy: TaskPolicy::default(),
        ..fanout()
    };
    for task in &mut request.tasks {
        task.expected_input_bytes = 0;
        task.pipeline.fragments = None;
    }
    request.tasks[1].inputs[0] = InputAssignment::Shuffle {
        from_pipeline: 0,
        upstream_fragments: 16,
        combine: 1,
    };
    let full = compact!(request);
    assert!(full.contains(r#"{"ShuffleWrite":{"combine":1,"#), "{full}");
    let sparse = without(
        &full,
        &["policy", "expected_input_bytes", "combine", "fragments"],
    );
    let back: FanoutRequest = serde_json::from_str(&sparse).expect("defaults");
    assert_eq!(compact!(back), full);

    let full = compact!(query_request());
    let back: QueryRequest =
        serde_json::from_str(&without(&full, &["task_policy"])).expect("defaults");
    assert_eq!(compact!(back), full);

    let sparse = without(&compact!(response()), &["rows"]);
    let back: QueryResponse = serde_json::from_str(&sparse).expect("defaults");
    assert!(back.rows.is_none());

    let err = serde_json::from_str::<StageStats>("{}").expect_err("a plain member is required");
    assert!(err.to_string().contains("missing field"), "{err}");
}
