//! Every name the benchmark reports: workloads, end-to-end metrics, and
//! per-layer metrics with the end-to-end metric and workloads each should
//! move. `BENCHMARK.json` is this table printed by `--describe`.

use crate::json;

pub const RUN_SECONDS: u64 = 12;

/// Workloads and why each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "query_suite",
        "q1, q6, q12, bb_q3 one at a time on cold Lambda + S3 Standard: the only workload where engine, data and compute work, and the only one with a meaningful virtual latency and bill",
    ),
    (
        "iops_closed",
        "Fig. 9's point at 1024 closed-loop clients of 1 KiB on four backends, reads beside writes: request-path cost per attempt, seven arms of 503 rejects and one of successes; net and engine idle",
    ),
    (
        "s3_ramp",
        "Fig. 12's point, open loop at 1.05 x capacity until 12 partitions: one spawned task per request, nearly all successes, the same storage layer as iops_closed used differently",
    ),
    (
        "bulk_transfer",
        "Fig. 8's point, 4096 closed-loop clients moving 64 MiB objects through NICs: net slicing and token buckets do the work, so a request-path optimisation should change nothing here",
    ),
];

/// The clock is part of every unit. `s` and `us` are host time that every
/// run measures; `host_s` and `host_us` are host time of a phase only one
/// workload has (0 elsewhere); `virt_s` is virtual seconds, which repeat
/// exactly at equal seed.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "host_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "virtual_s",
        unit: "virt_s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cost_usd",
        unit: "USD",
        better: "lower",
        bound: 0.03,
    },
    EndToEnd {
        name: "model_err_pct",
        unit: "%",
        better: "lower",
        bound: 0.06,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric this one should move...
    pub moves: &'static str,
    /// ...and the workloads it should move it on.
    pub on: &'static [&'static str],
}

pub const BACKENDS: [&str; 4] = ["s3_standard", "s3_express", "dynamodb", "efs"];
pub const DIRECTIONS: [&str; 2] = ["read", "write"];
pub const QUERIES: [&str; 4] = ["q1", "q6", "q12", "bb_q3"];
pub const KERNELS: [&str; 6] = [
    "agg_string_keys",
    "agg_int_key",
    "join_orderkey",
    "sort_multi_key",
    "filter_agg_fused",
    "partition_32",
];

const Q: &[&str] = &["query_suite"];
const IOPS: &[&str] = &["iops_closed"];
const RAMP: &[&str] = &["s3_ramp"];
const BULK: &[&str] = &["bulk_transfer"];
const REQUEST_PATH: &[&str] = &["iops_closed", "s3_ramp"];
const TRANSFER_PATH: &[&str] = &["bulk_transfer", "query_suite"];
const SUCCESS_PATH: &[&str] = &["s3_ramp", "query_suite"];
const ALL: &[&str] = &["query_suite", "iops_closed", "s3_ramp", "bulk_transfer"];

/// The per-layer metrics, grouped by the module each measures.
pub fn per_layer() -> Vec<Layer> {
    let mut out = Vec::new();
    let mut add = |name: String, unit, better, moves, on| {
        out.push(Layer {
            name,
            unit,
            better,
            moves,
            on,
        });
    };

    // sim
    for name in ["sim.timer_inserts", "sim.polls", "sim.tasks_spawned"] {
        add(
            name.into(),
            "count",
            "lower",
            "host_us_per_op",
            REQUEST_PATH,
        );
    }
    for name in ["sim.timers_per_op", "sim.polls_per_op"] {
        add(name.into(), "1/op", "lower", "host_us_per_op", REQUEST_PATH);
    }
    for name in ["sim.probe.sleep_chain_mev_s", "sim.probe.spawn_join_mev_s"] {
        add(name.into(), "Mev/s", "higher", "wall_s", RAMP);
    }

    // net
    for name in ["net.transfers", "net.stalled_slices", "net.throttle_onsets"] {
        add(name.into(), "count", "lower", "wall_s", TRANSFER_PATH);
    }
    add("net.bytes".into(), "B", "lower", "wall_s", TRANSFER_PATH);
    add(
        "net.probe.bulk_us".into(),
        "us",
        "lower",
        "wall_s",
        TRANSFER_PATH,
    );
    add(
        "net.probe.small_us".into(),
        "us",
        "lower",
        "host_us_per_op",
        RAMP,
    );

    // storage
    for backend in BACKENDS {
        add(
            format!("storage.{backend}.ops_ok"),
            "count",
            "higher",
            "model_err_pct",
            IOPS,
        );
        add(
            format!("storage.{backend}.ops_failed"),
            "count",
            "lower",
            "host_us_per_op",
            IOPS,
        );
        for dir in DIRECTIONS {
            add(
                format!("storage.{backend}.{dir}.host_us_per_op"),
                "host_us",
                "lower",
                "host_us_per_op",
                IOPS,
            );
            add(
                format!("storage.{backend}.{dir}.ok_iops"),
                "1/s",
                "higher",
                "model_err_pct",
                IOPS,
            );
        }
    }
    add(
        "storage.reject_share".into(),
        "ratio",
        "lower",
        "host_us_per_op",
        IOPS,
    );
    for name in ["retries", "throttles", "timeouts"] {
        add(
            format!("storage.client.{name}"),
            "count",
            "lower",
            "virtual_s",
            Q,
        );
    }
    add(
        "storage.ramp.requests".into(),
        "count",
        "lower",
        "model_err_pct",
        RAMP,
    );
    add(
        "storage.ramp.virtual_s".into(),
        "virt_s",
        "lower",
        "model_err_pct",
        RAMP,
    );
    add(
        "storage.ramp.partitions".into(),
        "count",
        "higher",
        "model_err_pct",
        RAMP,
    );
    add(
        "storage.ramp.usd".into(),
        "USD",
        "lower",
        "model_err_pct",
        RAMP,
    );
    for backend in &BACKENDS[..2] {
        for dir in DIRECTIONS {
            add(
                format!("storage.bulk.{backend}.{dir}.host_s"),
                "host_s",
                "lower",
                "wall_s",
                BULK,
            );
            add(
                format!("storage.bulk.{backend}.{dir}.gib_s"),
                "GiB/s",
                "higher",
                "model_err_pct",
                BULK,
            );
        }
    }
    for name in ["storage.probe.get_ok_us", "storage.probe.put_ok_us"] {
        add(name.into(), "us", "lower", "host_us_per_op", SUCCESS_PATH);
    }

    // pricing
    for name in [
        "lambda_compute",
        "lambda_request",
        "storage_request",
        "storage_capacity",
        "ec2",
    ] {
        add(format!("pricing.{name}_usd"), "USD", "lower", "cost_usd", Q);
    }

    // compute
    for name in [
        "compute.invokes",
        "compute.cold_starts",
        "compute.warm_starts",
    ] {
        add(name.into(), "count", "lower", "cost_usd", Q);
    }
    add(
        "compute.coldstart_virtual_s".into(),
        "virt_s",
        "lower",
        "virtual_s",
        Q,
    );
    add(
        "compute.coldstart_share".into(),
        "ratio",
        "lower",
        "virtual_s",
        Q,
    );

    // data
    for name in ["data.tpch_gen_mrows_s", "data.bb_gen_mrows_s"] {
        add(name.into(), "Mrows/s", "higher", "setup_s", Q);
    }
    add(
        "data.spf_encode_mib_s".into(),
        "MiB/s",
        "higher",
        "setup_s",
        Q,
    );
    add(
        "data.load_dataset_s".into(),
        "host_s",
        "lower",
        "setup_s",
        Q,
    );
    for name in ["data.spf_decode_mib_s", "data.spf_decode_proj_mib_s"] {
        add(name.into(), "MiB/s", "higher", "wall_s", Q);
    }

    // engine
    for q in QUERIES {
        add(
            format!("engine.{q}.virtual_s"),
            "virt_s",
            "lower",
            "virtual_s",
            Q,
        );
        add(format!("engine.{q}.host_s"), "host_s", "lower", "wall_s", Q);
        add(
            format!("engine.{q}.requests"),
            "count",
            "lower",
            "host_us_per_op",
            Q,
        );
        add(format!("engine.{q}.usd"), "USD", "lower", "cost_usd", Q);
    }
    for k in KERNELS {
        add(
            format!("engine.kernel.{k}.mrows_s"),
            "Mrows/s",
            "higher",
            "wall_s",
            Q,
        );
    }
    for name in ["bytes_read", "bytes_decoded", "bytes_pruned"] {
        add(
            format!("engine.shuffle.{name}"),
            "B",
            "lower",
            "virtual_s",
            Q,
        );
    }
    add(
        "engine.arena.bytes_allocated".into(),
        "B",
        "lower",
        "wall_s",
        Q,
    );
    for name in [
        "engine.io_virtual_s",
        "engine.cpu_virtual_s",
        "engine.worker_virtual_s",
    ] {
        add(name.into(), "virt_s", "lower", "virtual_s", Q);
    }
    add(
        "engine.task_retries".into(),
        "count",
        "lower",
        "cost_usd",
        Q,
    );

    add("trace.overhead_pct".into(), "%", "lower", "wall_s", ALL);
    out
}

/// The text of `BENCHMARK.json`.
pub fn describe() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    out.push_str(&format!(
        "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    ));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::string(name),
                json::string(why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better),
                json::number(m.bound)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::string(&m.name),
                json::string(m.unit),
                json::string(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The contract's rule for a name: `[A-Za-z0-9_.-]+`, starting with a
    /// letter or digit, at most 64 long.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn the_name_rule_is_the_contracts() {
        for good in [
            "wall_s",
            "storage.s3_standard.read.ok_iops",
            "a-b",
            "9lives",
            "A.b_c-d",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "_under",
            "has space",
            "µs",
            "a/b",
            "a%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn every_unit_is_within_the_contracts_alphabet() {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        let layers = per_layer();
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers.iter().map(|m| m.unit))
        {
            assert!(
                (1..=16).contains(&unit.len()) && unit.chars().all(ok),
                "{unit}"
            );
        }
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let layers = per_layer();
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(layers.iter().map(|m| m.name.as_str()))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
    }

    #[test]
    fn the_tables_fit_the_contracts_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&per_layer().len()));
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(describe().len() <= 64 * 1024);
    }

    #[test]
    fn every_layer_metric_names_what_it_should_move_and_where() {
        for m in per_layer() {
            assert!(
                END_TO_END.iter().any(|e| e.name == m.moves),
                "{} moves {}",
                m.name,
                m.moves
            );
            assert!(!m.on.is_empty(), "{} names no workload", m.name);
            for w in m.on {
                assert!(
                    WORKLOADS.iter().any(|(name, _)| name == w),
                    "{} on {w}",
                    m.name
                );
            }
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        }
    }

    #[test]
    fn the_description_is_json_with_exactly_the_contracts_keys() {
        let doc = json::parse(&describe()).expect("describe() is JSON");
        let json::Value::Object(map) = doc else {
            panic!("an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
