//! The query worker function.
//!
//! "A worker parses its query fragment and schedules the operators for
//! execution. Workers use a vectorized execution model. The execution
//! includes reading input data partitions in batches from shared storage,
//! generating partitioned outputs, and writing them back to storage."
//! (paper Sec. 3.2)
//!
//! Reads follow the paper's efficient-access techniques: the SPF footer is
//! fetched first, zone maps prune row groups against the pushed-down
//! predicate, column chunks are fetched as parallel ranged requests, and
//! stragglers are retried under a size-based timeout.
//!
//! Shuffle reads use the same playbook: a segment's bucket directory picks
//! this consumer's row groups, zone-pruned against its leading predicates
//! and projected to the columns its chain binds. Only the first fetch
//! varies — the whole object where nothing narrows it, a suffix sized to
//! reach the consumer's bucket otherwise.

use crate::bind::{execute_chain_sel, partition_sel, SelBatch};
use crate::catalog::PartitionMeta;
use crate::coordinator::StageStats;
use crate::cpu;
use crate::error::EngineError;
use crate::expr::{evaluate_mask, Expr, UdfRegistry};
use crate::plan::{InputSpec, Op, Pipeline, Sink};
use skyrise_compute::ExecEnv;
use skyrise_data::columnar::{Batch, Schema};
use skyrise_data::spf;
use skyrise_data::Value;
use skyrise_sim::sync::Semaphore;
use skyrise_storage::{
    Blob, ByteRange, ObjectRead, RequestOpts, RetryPolicy, RetryStats, RetryingClient, Storage,
};
use std::future::Future;
use std::rc::Rc;

/// Input assignment for one worker fragment, parallel to the pipeline's
/// `inputs`.
#[derive(Debug, Clone)]
pub enum InputAssignment {
    /// Read these partition objects (input 0: this fragment's share;
    /// other inputs: a broadcast of the whole dataset).
    Scan {
        /// The partition objects to read.
        partitions: Vec<PartitionMeta>,
    },
    /// Read this fragment's bucket from every upstream fragment. With
    /// `combine > 1`, `combine` buckets share one object and the object's
    /// bucket directory says which row groups are this fragment's.
    Shuffle {
        /// Producing pipeline id.
        from_pipeline: u32,
        /// Fragment count of the producing pipeline.
        upstream_fragments: u32,
        /// Buckets per object written upstream.
        combine: u32,
    },
}
serde::impl_json! { enum InputAssignment {
    Scan { partitions },
    Shuffle { from_pipeline, upstream_fragments, combine = 1 },
} }

/// The task payload a worker receives (JSON over the invocation path).
#[derive(Debug, Clone)]
pub struct WorkerTask {
    /// Query this fragment belongs to.
    pub query_id: String,
    /// The pipeline to execute (self-contained).
    pub pipeline: Pipeline,
    /// This worker's fragment index.
    pub fragment: u32,
    /// Total fragments of this pipeline.
    pub n_fragments: u32,
    /// Fragment count of the consuming pipeline (shuffle bucket count).
    pub downstream_fragments: u32,
    /// Input assignments, parallel to `pipeline.inputs`.
    pub inputs: Vec<InputAssignment>,
    /// Logical bytes this fragment is expected to read (coordinator's
    /// estimate; sizes the straggler re-trigger timeout).
    pub expected_input_bytes: u64,
}
serde::impl_json! { struct WorkerTask {
    query_id, pipeline, fragment, n_fragments, downstream_fragments, inputs,
    expected_input_bytes = 0,
} }

/// Concurrent ranged chunk requests per worker.
pub const CHUNK_CONCURRENCY: usize = 8;

/// Concurrent in-flight shuffle-segment reads per worker: two in flight
/// mirrors real workers, which interleave shuffle reads with decoding and
/// joining rather than issuing them all up front.
const SHUFFLE_READ_FANIN: usize = 2;

/// Speculative suffix length for the layout probe of a shuffle read: one
/// GET that lands the trailer, footer, and bucket directory — and for
/// marker-sized segments the whole object — without a prior HEAD. Paid
/// once per (consumer, shuffle input), not per segment: sibling segments
/// are then fetched with a suffix sized from the probed layout. Payload
/// bytes (logical scaling does not change the wire layout); shuffle
/// segments carry the producing stream's logical scale, so the probe's
/// speculative bytes are billed at that multiplier — 4 KiB covers typical
/// multi-bucket footers in one request while staying a sliver of any
/// segment worth ranging into.
pub const SHUFFLE_TAIL_HINT: u64 = 4096;

/// Shuffle object key: `query/pipeline/source fragment/destination bucket
/// group` (a group holds `combine` consecutive buckets).
pub fn shuffle_key(query_id: &str, pipeline: u32, src_fragment: u32, dst_group: u32) -> String {
    format!("shuffle/{query_id}/p{pipeline}/f{src_fragment}/b{dst_group}")
}

/// Result object key for a query.
pub fn result_key(query_id: &str, fragment: u32) -> String {
    format!("results/{query_id}/part-{fragment:05}.spf")
}

/// Barrier object key.
pub fn barrier_key(name: &str) -> String {
    format!("barriers/{name}")
}

/// What a worker's storage reads add up to; every fetch is folded in
/// with [`ReadTally::add`], every object and input with
/// [`ReadTally::merge`]. Shuffle inputs' tallies also feed the
/// `engine.shuffle.*` counters (DESIGN.md §10), `transferred` as
/// `bytes_read`.
#[derive(Debug, Clone, Copy, Default)]
struct ReadTally {
    /// Storage requests issued (including retries).
    requests: u64,
    /// Logical bytes the requests moved, as the service metered them: the
    /// whole object per request on stores without native ranged reads.
    transferred: u64,
    /// Logical bytes of the ranges handed back.
    logical: u64,
    /// Payload bytes of the ranges handed back.
    payload: u64,
    /// Logical bytes a whole-object read of the same shuffle segments
    /// would have transferred.
    whole_object: u64,
    /// Logical bytes of this consumer's own bucket pages that a ranged
    /// shuffle fetch skipped by column projection and zone-map pruning.
    pruned: u64,
    /// Logical bytes the modelled shuffle reader decodes: everything a
    /// whole-object fetch moved, only this bucket's kept projected pages
    /// after a ranged one. Drives the worker's decode CPU charge.
    decoded: u64,
}

impl ReadTally {
    fn add(&mut self, read: &ObjectRead, stats: RetryStats) {
        self.requests += stats.attempts as u64;
        self.transferred += read.transferred;
        self.logical += read.blob.logical_len();
        self.payload += read.blob.len() as u64;
    }

    fn merge(&mut self, other: &ReadTally) {
        self.requests += other.requests;
        self.transferred += other.transferred;
        self.logical += other.logical;
        self.payload += other.payload;
        self.whole_object += other.whole_object;
        self.pruned += other.pruned;
        self.decoded += other.decoded;
    }

    /// logical/payload ratio of what was read (1.0 for unscaled data).
    fn scale(&self) -> f64 {
        if self.payload > 0 {
            self.logical as f64 / self.payload as f64
        } else {
            1.0
        }
    }
}

fn bytes(offset: u64, len: u64) -> ByteRange {
    ByteRange::Bytes { offset, len }
}

/// A piece of one input as it was fetched: stored bytes, decoded only by
/// [`materialise`] where the chain runs. The bytes are zero-copy slices of
/// the stored object (a suffix and a corrective prefix joined are the one
/// copy), so a worker waiting on storage holds no decoded columns.
enum Fetched {
    /// One scan row group: its projected chunks, and the residual filter
    /// its zone maps could not apply.
    RowGroup {
        schema: Rc<Schema>,
        chunks: Vec<(spf::ChunkMeta, bytes::Bytes)>,
        predicate: Option<Rc<Expr>>,
    },
    /// One shuffle segment's kept row groups of this consumer's bucket:
    /// `footer` lists only those, `window` is the file from offset `base`.
    Segment {
        footer: spf::Footer,
        proj: Vec<usize>,
        base: u64,
        window: bytes::Bytes,
    },
    /// The typed marker batch of an input no row group survived.
    Empty(Rc<Schema>),
}

/// Decode an input's fetched pages into the chain's batches, in fetch
/// order. The virtual decode charge was made from the read tally as the
/// pages landed; this is host work only.
fn materialise(pages: Vec<Fetched>, udfs: &UdfRegistry) -> Result<Vec<Batch>, EngineError> {
    let mut batches = Vec::with_capacity(pages.len());
    for page in pages {
        match page {
            Fetched::RowGroup {
                schema,
                chunks,
                predicate,
            } => {
                let columns = chunks
                    .iter()
                    .map(|(meta, data)| spf::decode_chunk(meta, data))
                    .collect::<Result<_, _>>()?;
                let batch = Batch::new(schema, columns);
                // Residual filter (zone maps are row-group granular).
                batches.push(match predicate {
                    Some(pred) => batch.filter(&evaluate_mask(&pred, &batch, udfs)?),
                    None => batch,
                });
            }
            Fetched::Segment {
                footer,
                proj,
                base,
                window,
            } => batches.extend(spf::decode_row_groups(
                &footer,
                &footer.row_groups,
                &proj,
                base,
                &window,
            )?),
            Fetched::Empty(schema) => batches.push(Batch::empty(schema)),
        }
    }
    Ok(batches)
}

/// What reading one input, or one object of it, produced.
#[derive(Default)]
struct ReadOutcome {
    pages: Vec<Fetched>,
    /// Projected schema of a shuffle segment that kept no row group (its
    /// bucket empty or pruned away), so that an input without any page can
    /// still hand the chain a typed marker batch.
    schema: Option<Rc<Schema>>,
    tally: ReadTally,
}

impl ReadOutcome {
    /// Append what `part` read.
    fn absorb(&mut self, part: ReadOutcome) {
        self.pages.extend(part.pages);
        self.schema = self.schema.take().or(part.schema);
        self.tally.merge(&part.tally);
    }
}

/// Wait for a slot of `gate`, then run the read `start` makes. The read's
/// future is built and boxed only once the slot is held: a worker spawns
/// all its gated reads at once, and a queued one then holds its captures,
/// not the request's whole state machine.
async fn gated<F: Future>(gate: &Semaphore, start: impl FnOnce() -> F) -> F::Output {
    let _slot = gate.acquire().await;
    Box::pin(start()).await
}

/// Run one worker fragment to completion. Base tables and results live on
/// `scan_storage`; intermediates move through `shuffle_storage` (the two
/// differ in the paper's Fig. 15 experiment arms).
pub async fn run_worker(
    env: &ExecEnv,
    scan_storage: &Storage,
    shuffle_storage: &Storage,
    udfs: &UdfRegistry,
    task: &WorkerTask,
) -> Result<StageStats, EngineError> {
    // Chunked scans run CHUNK_CONCURRENCY ranged requests in parallel per
    // partition over one sandbox NIC, so a chunk's expected bandwidth is
    // the 75 MiB/s worst-case baseline divided by the fan-in.
    let scan_policy = RetryPolicy {
        expected_bw: 75.0 * 1024.0 * 1024.0 / CHUNK_CONCURRENCY as f64,
        timeout_slack: 3.0,
        max_attempts: 40,
        ..RetryPolicy::eager()
    };
    let client = RetryingClient::new(scan_storage.clone(), env.ctx.clone(), scan_policy);
    // Shuffle objects have no advertised size, so the shuffle client uses
    // a patient timeout and relies on throttle retries (which return fast).
    let shuffle_policy = RetryPolicy {
        base_timeout: skyrise_sim::SimDuration::from_secs(120),
        // Large shuffles intentionally exceed object-storage IOPS (paper
        // Sec. 4.5.2: Q12's shuffle is "constrained by default rate
        // limiting"); workers keep retrying until the partition drains.
        max_attempts: 40,
        // Cap backoff low: exponential sleeps past a couple of seconds
        // leave the rate-limited partition idle between attempts and
        // stretch the shuffle far beyond its queue-drain time.
        backoff_cap: skyrise_sim::SimDuration::from_secs(2),
        ..RetryPolicy::eager()
    };
    let shuffle_client =
        RetryingClient::new(shuffle_storage.clone(), env.ctx.clone(), shuffle_policy);
    let opts = RequestOpts::from_nic(&env.nic);
    let tracer = env.ctx.tracer();
    let lane = tracer.next_lane();
    let worker_span = tracer.span(&env.ctx, "worker", lane, "fragment");
    worker_span
        .attr("query", task.query_id.as_str())
        .attr("pipeline", task.pipeline.id)
        .attr("fragment", task.fragment)
        .attr("cold", env.cold_start)
        .attr("instance", env.instance_id);

    // Barriers first (subflow isolation; see plan::Op::Barrier).
    for op in &task.pipeline.ops {
        if let Op::Barrier { name } = op {
            wait_barrier(&client, &opts, name).await?;
        }
    }

    // Materialise inputs.
    let io_started = env.ctx.now();
    let mut stream: Vec<Fetched> = Vec::new();
    let mut builds: Vec<Vec<Fetched>> = Vec::new();
    // What every input read, and what the shuffle inputs read alone.
    let (mut reads, mut shuffle_reads) = (ReadTally::default(), ReadTally::default());
    let mut stream_scale = 1.0f64;
    for (idx, assignment) in task.inputs.iter().enumerate() {
        let spec = task
            .pipeline
            .inputs
            .get(idx)
            .ok_or_else(|| EngineError::Plan("assignment without input spec".into()))?;
        let read_name: &'static str = match assignment {
            InputAssignment::Scan { .. } => "scan-read",
            InputAssignment::Shuffle { .. } => "shuffle-read",
        };
        let read_span = tracer.span(&env.ctx, "worker", lane, read_name);
        read_span.attr("query", task.query_id.as_str());
        let outcome = match assignment {
            InputAssignment::Scan { partitions } => {
                let (projection, predicate) = match spec {
                    InputSpec::Scan {
                        projection,
                        predicate,
                        ..
                    } => (projection.clone(), predicate.clone()),
                    InputSpec::Shuffle { .. } => {
                        return Err(EngineError::Plan(
                            "scan assignment for shuffle input".into(),
                        ))
                    }
                };
                read_scan(
                    &client,
                    &opts,
                    env,
                    partitions,
                    &projection,
                    predicate.as_ref(),
                )
                .await?
            }
            InputAssignment::Shuffle {
                from_pipeline,
                upstream_fragments,
                combine,
            } => {
                // Push the consumer chain's bound column set into the read;
                // leading filters prune row groups on the stream input only
                // (build sides are consumed unfiltered).
                let projection = crate::pushdown::shuffle_projection(&task.pipeline.ops, idx);
                let predicates: Vec<Expr> = if idx == 0 {
                    crate::pushdown::leading_predicates(&task.pipeline.ops)
                        .into_iter()
                        .cloned()
                        .collect()
                } else {
                    Vec::new()
                };
                let outcome = read_shuffle(
                    &shuffle_client,
                    &opts,
                    &task.query_id,
                    *from_pipeline,
                    *upstream_fragments,
                    task.fragment,
                    task.n_fragments,
                    (*combine).max(1),
                    projection.as_deref(),
                    &predicates,
                    env.vcpus,
                )
                .await?;
                shuffle_reads.merge(&outcome.tally);
                outcome
            }
        };
        reads.merge(&outcome.tally);
        read_span
            .attr("bytes", outcome.tally.transferred)
            .attr("requests", outcome.tally.requests);
        read_span.end();
        if idx == 0 {
            stream_scale = outcome.tally.scale();
            stream = outcome.pages;
        } else {
            builds.push(outcome.pages);
        }
    }
    // I/O-stack CPU charge for ingesting the inputs.
    let io_span = tracer.span(&env.ctx, "worker", lane, "io-stack");
    io_span
        .attr("query", task.query_id.as_str())
        .attr("bytes", reads.transferred);
    env.ctx
        .sleep(cpu::io_stack_cost(
            reads.transferred as f64,
            reads.requests,
            env.vcpus,
        ))
        .await;
    io_span.end();
    let io_secs = (env.ctx.now() - io_started).as_secs_f64();

    // Decode the inputs here, where the chain runs, not as each page
    // landed: the fleet's workers share one host, and one waiting on
    // storage then holds stored bytes, not columns.
    let stream = materialise(stream, udfs)?;
    let builds = builds
        .into_iter()
        .map(|pages| materialise(pages, udfs))
        .collect::<Result<Vec<_>, _>>()?;

    // Execute the operator chain, charging virtual CPU for logical rows.
    let cpu_started = env.ctx.now();
    let (output, stats, arena_report) =
        execute_chain_sel(&task.pipeline.ops, stream, &builds, udfs)?;
    let logical_rows = stats.rows_in as f64 * stream_scale;
    env.ctx
        .sleep(cpu::chain_cost(&task.pipeline.ops, logical_rows, env.vcpus))
        .await;
    // Lay per-operator spans over the chain charge: the single sleep above
    // keeps timing identical, the spans slice it at each operator's share.
    if tracer.enabled() {
        let mut cursor = cpu_started;
        for op in &task.pipeline.ops {
            let end = cursor.saturating_add(cpu::op_cost(op, logical_rows, env.vcpus));
            let op_span = tracer.span_at(cursor, end, "worker", lane, op.label());
            op_span
                .attr("query", task.query_id.as_str())
                .attr("rows", logical_rows as u64)
                .attr("pipeline", task.pipeline.id)
                .attr("fragment", task.fragment);
            op_span.end();
            cursor = end;
        }
    }
    let cpu_secs = (env.ctx.now() - cpu_started).as_secs_f64();

    // Sink.
    let (mut written, mut write_requests) = (0u64, 0u64);
    match &task.pipeline.sink {
        Sink::ShuffleWrite {
            partition_by,
            combine,
        } => {
            let sink_span = tracer.span(&env.ctx, "worker", lane, "shuffle-write");
            sink_span.attr("query", task.query_id.as_str());
            let combine = (*combine).max(1) as usize;
            let n_buckets = task.downstream_fragments.max(1) as usize;
            // Empty output still writes (empty) markers for every bucket
            // so downstream readers never block on missing objects.
            let schema = match output.first() {
                Some(sb) => Rc::clone(&sb.batch().schema),
                None => {
                    return Err(EngineError::Plan(
                        "pipeline produced no output batches (operator bug)".into(),
                    ))
                }
            };
            // Partition straight off the selection vectors — no
            // concat/materialise of the chain output.
            let buckets = partition_sel(output, partition_by, n_buckets)?;
            // Logical scaling applies to shuffled *data*, not to the fixed
            // SPF file overhead — otherwise empty buckets would masquerade
            // as hundreds of kilobytes.
            let empty = Batch::empty(Rc::clone(&schema));
            let n_groups = n_buckets.div_ceil(combine);
            let mut puts = Vec::with_capacity(n_groups);
            // (bucket count, size) of the last file of empty buckets encoded:
            // every group but possibly the last has the same count, so this
            // is encoded once or twice, not once per group.
            let mut empty_file = (0, 0.0);
            for (group, chunk) in buckets.chunks(combine).enumerate() {
                // Write combining: `combine` consecutive buckets share one
                // (larger) multiplexed object. The per-bucket directory in
                // the footer lets each reader range-GET only its own pages.
                // The file order rotates with the writer's fragment id so
                // every consumer's bucket takes each file position equally
                // often across the source fleet: suffix readers then pull
                // ~the same byte volume instead of the front bucket's
                // reader re-reading nearly whole segments.
                let rotation = task.fragment as usize % chunk.len().max(1);
                if empty_file.0 != chunk.len() {
                    let empties = vec![empty.clone(); chunk.len()];
                    empty_file = (
                        chunk.len(),
                        spf::write_bucketed(&empties, 8192).len() as f64,
                    );
                }
                let overhead = empty_file.1;
                let encoded = spf::write_bucketed_rotated(chunk, 8192, rotation);
                let len = encoded.len() as f64;
                let logical = overhead + stream_scale.max(1.0) * (len - overhead).max(0.0);
                let blob = Blob::scaled(encoded, (logical / len).max(1e-9));
                written += blob.logical_len();
                let key = shuffle_key(
                    &task.query_id,
                    task.pipeline.id,
                    task.fragment,
                    group as u32,
                );
                let client = shuffle_client.clone();
                let opts = opts.clone();
                puts.push(
                    env.ctx
                        .spawn(async move { client.put(&key, blob, &opts).await }),
                );
            }
            // Every bucket is encoded into a PUT by now: release the
            // decoded partitions rather than hold them across the PUTs'
            // virtual duration.
            drop(buckets);
            for p in skyrise_sim::join_all(puts).await {
                write_requests += p?.attempts as u64;
            }
            sink_span.attr("bytes", written).attr("objects", n_groups);
            sink_span.end();
        }
        Sink::Result => {
            let batches: Vec<Batch> = output.into_iter().map(SelBatch::materialise).collect();
            let part = if batches.is_empty() {
                Batch::empty(skyrise_data::Schema::new(vec![]))
            } else {
                Batch::concat(&batches)
            };
            let encoded = spf::write(std::slice::from_ref(&part), 8192);
            let blob = Blob::new(encoded);
            written += blob.logical_len();
            let sink_span = tracer.span(&env.ctx, "worker", lane, "result-write");
            sink_span
                .attr("query", task.query_id.as_str())
                .attr("bytes", blob.logical_len());
            let stats = client
                .put(&result_key(&task.query_id, task.fragment), blob, &opts)
                .await?;
            sink_span.end();
            write_requests += stats.attempts as u64;
        }
    }
    let report = StageStats {
        fragments: 1,
        cumulative_worker_secs: io_secs + cpu_secs,
        io_secs_total: io_secs,
        cpu_secs_total: cpu_secs,
        logical_bytes_read: reads.transferred,
        logical_bytes_written: written,
        storage_requests: reads.requests + write_requests,
        rows_in: (stats.rows_in as f64 * stream_scale) as u64,
        rows_out: (stats.rows_out as f64 * stream_scale) as u64,
        cold_starts: u32::from(env.cold_start),
        ..StageStats::default()
    };

    // Per-operator and per-fragment telemetry (DESIGN.md §10). Resolved
    // here rather than cached: a worker fragment runs once per invocation.
    let metrics = env.ctx.metrics();
    if metrics.enabled() {
        metrics.counter("engine.worker.fragments").inc();
        metrics.counter("engine.worker.rows_in").add(report.rows_in);
        metrics
            .counter("engine.worker.rows_out")
            .add(report.rows_out);
        metrics
            .counter("engine.worker.bytes_read")
            .add(report.logical_bytes_read);
        metrics
            .counter("engine.worker.bytes_written")
            .add(report.logical_bytes_written);
        metrics
            .counter("engine.worker.storage_requests")
            .add(report.storage_requests);
        let reads_shuffle = |a: &InputAssignment| matches!(a, InputAssignment::Shuffle { .. });
        if task.inputs.iter().any(reads_shuffle) {
            metrics
                .counter("engine.shuffle.bytes_read")
                .add(shuffle_reads.transferred);
            metrics
                .counter("engine.shuffle.bytes_whole_object")
                .add(shuffle_reads.whole_object);
            metrics
                .counter("engine.shuffle.bytes_pruned")
                .add(shuffle_reads.pruned);
            metrics
                .counter("engine.shuffle.bytes_decoded")
                .add(shuffle_reads.decoded);
        }
        metrics
            .histogram("engine.worker.io_secs")
            .record(report.io_secs_total);
        metrics
            .histogram("engine.worker.cpu_secs")
            .record(report.cpu_secs_total);
        for op in &task.pipeline.ops {
            let label = op.label();
            metrics
                .counter(&format!("engine.op.{label}.invocations"))
                .inc();
            metrics
                .counter(&format!("engine.op.{label}.rows"))
                .add(logical_rows as u64);
        }
        metrics
            .counter("engine.arena.bytes_allocated")
            .add(arena_report.bytes_allocated);
        for (label, bytes) in &arena_report.per_op {
            metrics
                .counter(&format!("engine.op.{label}.arena_bytes"))
                .add(*bytes);
        }
    }

    worker_span
        .attr("rows_in", report.rows_in)
        .attr("rows_out", report.rows_out)
        .attr("bytes_read", report.logical_bytes_read)
        .attr("bytes_written", report.logical_bytes_written);
    Ok(report)
}

async fn read_scan(
    client: &RetryingClient,
    opts: &RequestOpts,
    env: &ExecEnv,
    partitions: &[PartitionMeta],
    projection: &[String],
    predicate: Option<&Expr>,
) -> Result<ReadOutcome, EngineError> {
    let mut outcome = ReadOutcome::default();

    // Partitions are fetched concurrently ("divides large storage requests
    // into smaller chunks to process them in parallel"), but the worker
    // bounds in-flight ranged requests so each gets a predictable share of
    // the sandbox NIC (and its size-based timeout stays meaningful).
    let chunk_gate = Rc::new(Semaphore::new(CHUNK_CONCURRENCY));
    let predicate = predicate.cloned().map(Rc::new);
    let mut handles = Vec::with_capacity(partitions.len());
    for part in partitions {
        let client = client.clone();
        let opts = opts.clone();
        let part = part.clone();
        let projection = projection.to_vec();
        let predicate = predicate.clone();
        let ctx = env.ctx.clone();
        let vcpus = env.vcpus;
        let gate = Rc::clone(&chunk_gate);
        handles.push(env.ctx.spawn(async move {
            read_partition(
                &client,
                &opts,
                &ctx,
                vcpus,
                &part,
                &projection,
                predicate.as_ref(),
                &gate,
            )
            .await
        }));
    }
    for h in skyrise_sim::join_all(handles).await {
        outcome.absorb(h?);
    }
    Ok(outcome)
}

#[allow(
    clippy::too_many_arguments,
    reason = "independent inputs of one worker task; a struct made for this one call would \
              only rename them"
)]
async fn read_partition(
    client: &RetryingClient,
    opts: &RequestOpts,
    ctx: &skyrise_sim::SimCtx,
    vcpus: f64,
    part: &PartitionMeta,
    projection: &[String],
    predicate: Option<&Rc<Expr>>,
    chunk_gate: &Rc<Semaphore>,
) -> Result<ReadOutcome, EngineError> {
    let mut outcome = ReadOutcome::default();
    let tally = &mut outcome.tally;
    // Ranged reads move `len x scale` logical bytes; timeouts must size
    // against that, not the payload length.
    let scale = (part.logical_bytes as f64 / part.payload_bytes.max(1) as f64).max(1.0);
    let expected = |len: u64| (len as f64 * scale) as u64;

    // 1.+2. Trailer, then footer. The trailer is the object's last bytes
    // whatever size the catalog entry claims.
    let trailer = ByteRange::Suffix(spf::TRAILER_LEN);
    let footer = read_segment_meta(client, opts, &part.key, trailer, expected, tally)
        .await?
        .footer;

    let proj = footer
        .schema
        .indices_of((!projection.is_empty()).then_some(projection))
        .map_err(|n| EngineError::Plan(format!("unknown scan column {n}")))?;

    // 3. Column chunks, zone-map pruned, fetched in parallel per row group.
    let schema = footer.schema.project(&proj);
    for rg in &footer.row_groups {
        if let Some(pred) = predicate {
            if crate::pushdown::prune_row_group(pred, &footer.schema, rg) {
                continue;
            }
        }
        let mut chunk_handles = Vec::with_capacity(proj.len());
        for &ci in &proj {
            let meta = rg.chunks[ci].clone();
            let client = client.clone();
            let opts = opts.clone();
            let key = part.key.clone();
            let gate = Rc::clone(chunk_gate);
            let exp = expected(meta.len);
            let range = bytes(meta.offset, meta.len);
            chunk_handles.push(ctx.spawn(async move {
                gated(&gate, || client.read(&key, range, exp, &opts))
                    .await
                    .map(|(read, stats)| (meta, read, stats))
            }));
        }
        let mut chunks = Vec::with_capacity(proj.len());
        for h in skyrise_sim::join_all(chunk_handles).await {
            let (meta, read, stats) = h?;
            tally.add(&read, stats);
            chunks.push((meta, read.blob.bytes));
        }
        outcome.pages.push(Fetched::RowGroup {
            schema: Rc::clone(&schema),
            chunks,
            predicate: predicate.cloned(),
        });
    }

    // Zone maps may prune every row group; keep the schema alive with an
    // empty batch so downstream operators see consistent shapes.
    if outcome.pages.is_empty() {
        outcome.pages.push(Fetched::Empty(schema));
    }

    // Decode CPU charge for the logical bytes materialised.
    ctx.sleep(cpu::decode_cost(tally.logical as f64, vcpus))
        .await;
    Ok(outcome)
}

/// What a reader knows of an SPF object once its first fetch is in: the
/// footer, the bucket directory if it has one, and the fetched window.
struct SegmentMeta {
    /// The first fetch's bytes, which run to the end of the object.
    tail_bytes: bytes::Bytes,
    /// File offset of the first tail byte (0 after a whole-object fetch).
    tail_start: u64,
    object_len: u64,
    /// Logical-to-payload multiplier of the object's blob.
    scale: f64,
    footer: spf::Footer,
    index: Option<spf::BucketIndex>,
}

impl SegmentMeta {
    /// Byte layout by *file position* for a segment written by source
    /// fragment `src` (writers rotate bucket ids across positions, so
    /// positions — not bucket ids — transfer between sibling segments).
    fn layout(&self, src: u32) -> Option<ShuffleLayout> {
        let index = self.index.as_ref()?;
        let n = index.buckets.len();
        if n == 0 {
            return None;
        }
        let rotation = src as usize % n;
        Some(ShuffleLayout {
            object_len: self.object_len,
            starts: (0..n)
                .map(|position| index.buckets[(position + rotation) % n].byte_start)
                .collect(),
        })
    }
}

/// Byte layout of one shuffle segment by file position, learned from a
/// sibling's bucket directory.
struct ShuffleLayout {
    object_len: u64,
    /// First data byte of the bucket at each file position.
    starts: Vec<u64>,
}

impl ShuffleLayout {
    /// Suffix length expected to cover `my_bucket`'s pages plus the footer
    /// in the segment written by source fragment `src`, with headroom for
    /// size jitter between segments.
    fn suffix_hint(&self, my_bucket: usize, src: u32) -> u64 {
        let n = self.starts.len().max(1);
        let position = (my_bucket + n - src as usize % n) % n;
        (self.object_len - self.starts[position.min(n - 1)]) + self.object_len / 16 + 128
    }
}

/// Fetch an SPF object's footer: the `first` fetch, which must reach the
/// object's last byte (the whole object, a suffix, or just the trailer),
/// plus one ranged footer GET only when it stopped short of the footer.
/// `expected` sizes a fetch's timeout from its payload length. Transfers
/// accrue on `tally`.
async fn read_segment_meta(
    client: &RetryingClient,
    opts: &RequestOpts,
    key: &str,
    first: ByteRange,
    expected: impl Fn(u64) -> u64,
    tally: &mut ReadTally,
) -> Result<SegmentMeta, EngineError> {
    let asked = match first {
        ByteRange::Bytes { len, .. } | ByteRange::Suffix(len) => len,
        ByteRange::Full => 0, // unknown before it arrives
    };
    let (tail, s1) = client.read(key, first, expected(asked), opts).await?;
    tally.add(&tail, s1);
    let object_len = tail.object_len;
    let tail_bytes = tail.blob.bytes;
    let tail_start = object_len - tail_bytes.len() as u64;
    if tail_bytes.len() < spf::TRAILER_LEN as usize {
        return Err(spf::SpfError::Corrupt("object shorter than SPF trailer").into());
    }
    let trailer = &tail_bytes[tail_bytes.len() - spf::TRAILER_LEN as usize..];
    let (fstart, flen) = spf::footer_range(trailer, object_len)?;
    let (footer, index) = if fstart >= tail_start {
        let a = (fstart - tail_start) as usize;
        spf::parse_footer_indexed(&tail_bytes[a..a + flen as usize])?
    } else {
        let (fb, s2) = client
            .read(key, bytes(fstart, flen), expected(flen), opts)
            .await?;
        tally.add(&fb, s2);
        spf::parse_footer_indexed(&fb.blob.bytes)?
    };
    // A bucket's pages lie before the footer; `ShuffleLayout` subtracts
    // their offsets from the object's length.
    if index
        .iter()
        .flat_map(|i| &i.buckets)
        .any(|b| b.byte_end > fstart)
    {
        return Err(spf::SpfError::Corrupt("bucket past the footer").into());
    }
    Ok(SegmentMeta {
        tail_bytes,
        tail_start,
        object_len,
        scale: tail.blob.logical_scale,
        footer,
        index,
    })
}

fn scaled(payload: u64, scale: f64) -> u64 {
    (payload as f64 * scale).round() as u64
}

#[allow(
    clippy::too_many_arguments,
    reason = "independent inputs of one worker task; a struct made for this one call would \
              only rename them"
)]
async fn read_shuffle(
    client: &RetryingClient,
    opts: &RequestOpts,
    query_id: &str,
    from_pipeline: u32,
    upstream_fragments: u32,
    my_fragment: u32,
    n_fragments: u32,
    combine: u32,
    projection: Option<&[String]>,
    predicates: &[Expr],
    vcpus: f64,
) -> Result<ReadOutcome, EngineError> {
    let my_group = my_fragment / combine;
    let my_bucket = (my_fragment - my_group * combine) as usize;
    // The first fetch is the whole object when nothing narrows it: this
    // group's segments hold a single bucket (combine == 1, or the trailing
    // group of an uneven fan-out) and no pushed predicate can zone-prune
    // it, so every data page is this consumer's anyway and one GET beats a
    // suffix probe + ranged read; or the store has no native byte ranges —
    // DynamoDB and EFS bill a full get per range, so splitting the fetch
    // there would multiply cost, not cut it.
    let group_buckets = combine
        .min(n_fragments.saturating_sub(my_group * combine))
        .max(1);
    let whole = !client.storage.native_ranges() || (group_buckets == 1 && predicates.is_empty());
    // Otherwise the first segment's tail and footer are probed inline — one
    // small suffix GET, no data pages — because its bucket directory reveals
    // the layout every sibling segment shares (the upstream fleet writes
    // similarly-shaped objects). All segment reads, including finishing
    // the first, then fan out below with ONE suffix GET sized to cover
    // this consumer's bucket and the footer. Steady state is a single
    // request per segment, the same count as a whole-object read, so
    // shuffles that are rate-limit-bound (paper Sec. 4.5.2) see fewer
    // bytes, not more requests.
    let mut probed: Option<(SegmentMeta, ReadTally)> = None;
    if !whole && upstream_fragments > 0 {
        let key = shuffle_key(query_id, from_pipeline, 0, my_group);
        let mut tally = ReadTally::default();
        let hint = ByteRange::Suffix(SHUFFLE_TAIL_HINT);
        let meta = read_segment_meta(client, opts, &key, hint, |_| 0, &mut tally).await?;
        probed = Some((meta, tally));
    }
    let layout = probed.as_ref().and_then(|(meta, _)| meta.layout(0));
    // Bounded fan-in: a worker pulls its buckets a few at a time rather
    // than hammering the storage service with one request per upstream
    // fragment simultaneously.
    let gate = Rc::new(Semaphore::new(SHUFFLE_READ_FANIN));
    let mut handles = Vec::with_capacity(upstream_fragments as usize);
    for src in 0..upstream_fragments {
        let key = shuffle_key(query_id, from_pipeline, src, my_group);
        let client = client.clone();
        let opts = opts.clone();
        let gate = Rc::clone(&gate);
        let projection: Option<Vec<String>> = projection.map(<[String]>::to_vec);
        let predicates = predicates.to_vec();
        let first = if whole {
            ByteRange::Full
        } else {
            let hint = layout.as_ref().map(|l| l.suffix_hint(my_bucket, src));
            ByteRange::Suffix(hint.unwrap_or(SHUFFLE_TAIL_HINT))
        };
        let probed = if src == 0 { probed.take() } else { None };
        handles.push(client.ctx.clone().spawn(async move {
            gated(&gate, || {
                read_shuffle_object(
                    &client,
                    &opts,
                    &key,
                    first,
                    probed,
                    my_bucket,
                    projection.as_deref(),
                    &predicates,
                )
            })
            .await
        }));
    }
    let mut outcome = ReadOutcome::default();
    for h in skyrise_sim::join_all(handles).await {
        outcome.absorb(h?);
    }
    // Bucket-indexed segments carry no marker row group for empty buckets;
    // keep the schema alive so the chain sees consistent shapes.
    if outcome.pages.is_empty() {
        if let Some(s) = &outcome.schema {
            outcome.pages.push(Fetched::Empty(Rc::clone(s)));
        }
    }
    // Decompression + deserialisation CPU for what the modelled reader
    // decodes, charged once against the worker's vCPU share — the
    // late-materialisation win is CPU as much as bytes (decode-and-discard
    // work the ranged fetch never does).
    client
        .ctx
        .sleep(cpu::decode_cost(outcome.tally.decoded as f64, vcpus))
        .await;
    Ok(outcome)
}

/// Read one shuffle segment: the `first` fetch — the whole object, or a
/// suffix sized by a sibling's layout to reach this consumer's bucket —
/// topped up with at most one footer GET and one corrective byte-range GET
/// when a suffix fell short. With a good hint that is a single request per
/// segment, the same count as a whole-object read, so rate-limit-bound
/// shuffles pay fewer bytes without paying more requests. The bucket
/// directory then picks this consumer's row groups whatever was fetched; a
/// segment without one is refused as corrupt.
///
/// `probed` carries a tail + footer that the caller already fetched (the
/// layout-learning read of the first segment) together with its transfer
/// accounting; the data pages are still fetched here, under the fan-in
/// gate like every other segment.
#[allow(
    clippy::too_many_arguments,
    reason = "independent inputs of one worker task; a struct made for this one call would \
              only rename them"
)]
async fn read_shuffle_object(
    client: &RetryingClient,
    opts: &RequestOpts,
    key: &str,
    first: ByteRange,
    probed: Option<(SegmentMeta, ReadTally)>,
    my_bucket: usize,
    projection: Option<&[String]>,
    predicates: &[Expr],
) -> Result<ReadOutcome, EngineError> {
    // 1.+2. Tail, footer, bucket directory — pre-probed or fetched now.
    let mut obj = ReadOutcome::default();
    let meta = match probed {
        Some((meta, tally)) => {
            obj.tally = tally;
            meta
        }
        None => read_segment_meta(client, opts, key, first, |_| 0, &mut obj.tally).await?,
    };
    let SegmentMeta {
        tail_bytes,
        tail_start,
        object_len,
        scale,
        footer,
        index,
    } = meta;
    obj.tally.whole_object = scaled(object_len, scale);

    let proj = footer
        .schema
        .indices_of(projection)
        .map_err(|n| EngineError::Plan(format!("unknown shuffle column {n}")))?;

    // Every segment is written by `spf::write_bucketed_rotated`, so one
    // without a directory is not a shuffle segment of this program.
    let index = index.ok_or(spf::SpfError::Corrupt(
        "shuffle segment without bucket directory",
    ))?;

    if index.buckets.len() <= my_bucket {
        return Err(spf::SpfError::Corrupt("bucket missing from segment directory").into());
    }

    // 3. Select this bucket's row groups, zone-pruned against the pushed
    //    predicates (pruning only — the chain's filters still run).
    let mut kept: Vec<spf::RowGroupMeta> = Vec::new();
    let (mut kept_bytes, mut pruned_bytes) = (0, 0);
    for rg in index.row_groups(&footer, my_bucket) {
        let keep = !predicates
            .iter()
            .any(|p| crate::pushdown::prune_row_group(p, &footer.schema, rg));
        for (ci, c) in rg.chunks.iter().enumerate() {
            if keep && proj.contains(&ci) {
                kept_bytes += scaled(c.len, scale);
            } else {
                pruned_bytes += scaled(c.len, scale);
            }
        }
        if keep {
            kept.push(rg.clone());
        }
    }

    // 4. Corrective prefix GET only when a suffix fell short of the first
    //    wanted byte of this bucket's projected, unpruned pages; otherwise
    //    every wanted page is already local.
    let wanted = kept
        .iter()
        .flat_map(|rg| proj.iter().map(|&ci| &rg.chunks[ci]));
    let (base, window) = match wanted.map(|c| c.offset).min() {
        Some(lo) if lo < tail_start => {
            let prefix = bytes(lo, tail_start - lo);
            let (rb, s3) = client.read(key, prefix, 0, opts).await?;
            obj.tally.add(&rb, s3);
            let joined = [&rb.blob.bytes[..], &tail_bytes[..]].concat();
            (lo, bytes::Bytes::from(joined))
        }
        _ => (tail_start, tail_bytes),
    };

    // The modelled reader (DESIGN.md §5, Accounting): a whole-object fetch
    // is charged for every byte it moved and prunes nothing, a ranged one
    // for the pages it kept.
    (obj.tally.decoded, obj.tally.pruned) = match first {
        ByteRange::Full => (obj.tally.transferred, 0),
        _ => (kept_bytes, pruned_bytes),
    };

    // 5. Late materialisation: the kept pages decode where the chain runs,
    //    dictionary chunks as codes into their sorted dictionaries.
    if kept.is_empty() {
        obj.schema = Some(footer.schema.project(&proj));
    } else {
        obj.pages.push(Fetched::Segment {
            footer: spf::Footer {
                schema: footer.schema,
                row_groups: kept,
            },
            proj,
            base,
            window,
        });
    }
    Ok(obj)
}

async fn wait_barrier(
    client: &RetryingClient,
    opts: &RequestOpts,
    name: &str,
) -> Result<(), EngineError> {
    // "implemented as an extra operator that polls a shared queue for a
    // barrier condition"
    let key = barrier_key(name);
    loop {
        match client.storage.get(&key, opts).await {
            Ok(_) => return Ok(()),
            Err(skyrise_storage::StorageError::NotFound { .. }) => {
                client
                    .ctx
                    .sleep(skyrise_sim::SimDuration::from_millis(100))
                    .await;
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Helper for the coordinator: extract a `Value` row representation of
/// a result batch for JSON responses.
pub fn batch_to_rows(batch: &Batch) -> Vec<Vec<Value>> {
    (0..batch.num_rows()).map(|i| batch.row(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_layouts_are_stable() {
        assert_eq!(shuffle_key("q1", 2, 3, 4), "shuffle/q1/p2/f3/b4");
        assert_eq!(result_key("q1", 0), "results/q1/part-00000.spf");
        assert_eq!(barrier_key("scan"), "barriers/scan");
    }

    fn test_env(ctx: skyrise_sim::SimCtx) -> ExecEnv {
        ExecEnv {
            ctx,
            nic: skyrise_net::presets::lambda_nic(),
            cold_start: false,
            vcpus: 1.0,
            memory_mib: 1024,
            instance_id: 0,
        }
    }

    /// 1,000 rows of columns `k` and `v`.
    fn thousand_rows_batch() -> Batch {
        use skyrise_data::{Column, DataType, Field};
        Batch::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Float64),
            ]),
            vec![
                Column::Int64((0..1_000).collect()),
                Column::Float64((0..1_000).map(|i| i as f64).collect()),
            ],
        )
    }

    /// [`thousand_rows_batch`] as an SPF object of four row groups.
    fn thousand_rows() -> Vec<u8> {
        spf::write(&[thousand_rows_batch()], 250).to_vec()
    }

    /// Overwrite the bytes of chunk `column` of row group `group` of the
    /// SPF object `file` with unterminated varints.
    fn damage_chunk(file: &mut [u8], group: usize, column: usize) {
        let footer = spf::read_footer(file).expect("intact footer");
        let c = &footer.row_groups[group].chunks[column];
        assert_eq!(c.encoding, spf::Encoding::DeltaVarint);
        file[c.offset as usize..(c.offset + c.len) as usize].fill(0x80);
    }

    /// The one partition of dataset `t`, 1,000 rows: `object`, stored on
    /// `storage` and described to the worker as `payload_bytes` long
    /// (`None`: its true length).
    fn partition(storage: &Storage, object: Vec<u8>, payload_bytes: Option<u64>) -> PartitionMeta {
        let blob = Blob::new(object);
        let partition = PartitionMeta {
            key: "t/part-0.spf".into(),
            payload_bytes: payload_bytes.unwrap_or(blob.len() as u64),
            logical_bytes: blob.logical_len(),
            payload_rows: 1_000,
            logical_rows: 1_000,
        };
        storage.backdoor_put(&partition.key, blob);
        partition
    }

    /// Scan `object` as the one [`partition`] of dataset `t`, stored on the
    /// storage `store` builds. Returns the worker's result and the usage
    /// meter.
    fn scan_object(
        store: impl FnOnce(&skyrise_sim::SimCtx, &skyrise_pricing::SharedMeter) -> Storage,
        object: Vec<u8>,
        payload_bytes: Option<u64>,
    ) -> (
        Result<StageStats, EngineError>,
        skyrise_pricing::SharedMeter,
    ) {
        let mut sim = skyrise_sim::Sim::new(7);
        let ctx = sim.ctx();
        let meter = skyrise_pricing::shared_meter();
        let storage = store(&ctx, &meter);
        let worker = sim.spawn(async move {
            let partition = partition(&storage, object, payload_bytes);
            let task = WorkerTask {
                query_id: "q".into(),
                pipeline: Pipeline {
                    id: 0,
                    inputs: vec![InputSpec::Scan {
                        dataset: "t".into(),
                        projection: vec![],
                        predicate: None,
                    }],
                    ops: vec![],
                    sink: Sink::Result,
                    fragments: None,
                },
                fragment: 0,
                n_fragments: 1,
                downstream_fragments: 1,
                inputs: vec![InputAssignment::Scan {
                    partitions: vec![partition],
                }],
                expected_input_bytes: 0,
            };
            let env = test_env(ctx);
            run_worker(&env, &storage, &storage, &UdfRegistry::new(), &task).await
        });
        sim.run();
        let report = worker.try_take().expect("worker ran to completion");
        (report, meter)
    }

    /// [`scan_object`] of the intact [`thousand_rows`], which must succeed.
    fn scan_thousand_rows(
        store: impl FnOnce(&skyrise_sim::SimCtx, &skyrise_pricing::SharedMeter) -> Storage,
        payload_bytes: Option<u64>,
    ) -> (StageStats, skyrise_pricing::SharedMeter) {
        let (report, meter) = scan_object(store, thousand_rows(), payload_bytes);
        (report.expect("scan succeeds"), meter)
    }

    fn s3(ctx: &skyrise_sim::SimCtx, meter: &skyrise_pricing::SharedMeter) -> Storage {
        Storage::S3(skyrise_storage::S3Bucket::standard(ctx, meter))
    }

    /// Fragment `fragment` of `n_fragments` consumers reading pipeline 0's
    /// shuffle output straight into a result object.
    fn consumer_task(fragment: u32, n_fragments: u32, upstream: u32, combine: u32) -> WorkerTask {
        WorkerTask {
            query_id: "q".into(),
            pipeline: Pipeline {
                id: 1,
                inputs: vec![InputSpec::Shuffle { from_pipeline: 0 }],
                ops: vec![],
                sink: Sink::Result,
                fragments: None,
            },
            fragment,
            n_fragments,
            downstream_fragments: 1,
            inputs: vec![InputAssignment::Shuffle {
                from_pipeline: 0,
                upstream_fragments: upstream,
                combine,
            }],
            expected_input_bytes: 0,
        }
    }

    /// Run consumer `task` on S3 with `segment` stored as the one upstream
    /// fragment's object of bucket group 0.
    fn read_one_segment(segment: Vec<u8>, task: WorkerTask) -> Result<StageStats, EngineError> {
        let mut sim = skyrise_sim::Sim::new(7);
        let ctx = sim.ctx();
        let meter = skyrise_pricing::shared_meter();
        let storage = s3(&ctx, &meter);
        storage.backdoor_put(&shuffle_key("q", 0, 0, 0), Blob::new(segment));
        let worker = sim.spawn(async move {
            let env = test_env(ctx);
            run_worker(&env, &storage, &storage, &UdfRegistry::new(), &task).await
        });
        sim.run();
        worker.try_take().expect("worker ran to completion")
    }

    /// A shuffle key holding a plain `spf::write` object — no bucket
    /// directory — is not something this program's sink can have produced:
    /// the reader must refuse it whatever its first fetch was, a suffix
    /// (`combine = 2`) or the whole object (`combine = 1`), not guess at a
    /// demultiplex or decode it as if it were one bucket.
    #[test]
    fn shuffle_segment_without_directory_is_a_typed_error() {
        use skyrise_data::{Column, DataType, Field};
        for combine in [2, 1] {
            let batch = Batch::new(
                Schema::new(vec![Field::new("k", DataType::Int64)]),
                vec![Column::Int64(vec![1, 2, 3])],
            );
            let segment = spf::write(&[batch], 1024).to_vec();
            let err = read_one_segment(segment, consumer_task(0, 2, 1, combine))
                .expect_err("an index-less segment must not be read");
            assert!(
                matches!(
                    err,
                    EngineError::Format(spf::SpfError::Corrupt(
                        "shuffle segment without bucket directory"
                    ))
                ),
                "combine {combine}: {err}"
            );
        }
    }

    /// A multi-bucket segment behind a whole-object fetch: EFS serves no
    /// ranges, so consumers of a `combine = 3` shuffle fetch each segment
    /// whole and the bucket directory picks their rows out of it. Two
    /// producers write for four consumers (groups of three buckets and of
    /// one); each consumer must receive exactly the rows `partition_batch`
    /// assigns it. Requests, bytes and I/O time are pinned to what b9f4e68
    /// reported for this test (its task also named `partition_by`), where
    /// the case took the hash re-partition this reader replaced.
    #[test]
    fn combined_segments_on_efs_hand_each_consumer_its_bucket() {
        use crate::operators::partition_batch;
        use skyrise_data::{Column, DataType, Field};
        const CONSUMERS: u32 = 4;
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("tag", DataType::Utf8),
            Field::new("v", DataType::Float64),
        ]);
        let produced: Vec<Batch> = (0..2i64)
            .map(|src| {
                let keys = (0..600).map(|i| i * 7 + src * 13);
                Batch::new(
                    Rc::clone(&schema),
                    vec![
                        Column::Int64(keys.clone().collect()),
                        Column::utf8(keys.clone().map(|k| format!("t{}", k % 5))),
                        Column::Float64(keys.map(|k| k as f64 * 0.25).collect()),
                    ],
                )
            })
            .collect();
        let by = vec!["k".to_string()];

        let mut sim = skyrise_sim::Sim::new(7);
        let ctx = sim.ctx();
        let meter = skyrise_pricing::shared_meter();
        let efs = skyrise_storage::EfsFilesystem::elastic(&ctx, &meter);
        let storage = Storage::Efs(Rc::clone(&efs));
        let inputs = produced.clone();
        let run = sim.spawn(async move {
            let env = test_env(ctx);
            let udfs = UdfRegistry::new();
            for (src, batch) in inputs.into_iter().enumerate() {
                let blob = Blob::new(spf::write(&[batch], 256));
                let partition = PartitionMeta {
                    key: format!("t/part-{src}.spf"),
                    payload_bytes: blob.len() as u64,
                    logical_bytes: blob.logical_len(),
                    payload_rows: 600,
                    logical_rows: 600,
                };
                storage.backdoor_put(&partition.key, blob);
                let producer = WorkerTask {
                    query_id: "q".into(),
                    pipeline: Pipeline {
                        id: 0,
                        inputs: vec![InputSpec::Scan {
                            dataset: "t".into(),
                            projection: vec![],
                            predicate: None,
                        }],
                        ops: vec![],
                        sink: Sink::ShuffleWrite {
                            partition_by: vec!["k".into()],
                            combine: 3,
                        },
                        fragments: None,
                    },
                    fragment: src as u32,
                    n_fragments: 2,
                    downstream_fragments: CONSUMERS,
                    inputs: vec![InputAssignment::Scan {
                        partitions: vec![partition],
                    }],
                    expected_input_bytes: 0,
                };
                run_worker(&env, &storage, &storage, &udfs, &producer)
                    .await
                    .expect("producer runs");
            }
            let mut reports = Vec::new();
            for fragment in 0..CONSUMERS {
                let task = consumer_task(fragment, CONSUMERS, 2, 3);
                let report = run_worker(&env, &storage, &storage, &udfs, &task).await;
                reports.push(report.expect("consumer runs"));
            }
            reports
        });
        sim.run();
        let reports = run.try_take().expect("workers ran to completion");

        let pinned: [(u64, u64, u64); CONSUMERS as usize] = [
            (3, 10364, 0x3f870ae66b8cf478),
            (3, 10364, 0x3f8a350ea1fbb53a),
            (3, 10364, 0x3f80926061b6f699),
            (3, 3401, 0x3f8c040dc57f3f6a),
        ];
        for (fragment, report) in reports.iter().enumerate() {
            let mine: Vec<Batch> = produced
                .iter()
                .map(|b| partition_batch(b, &by, CONSUMERS as usize).unwrap()[fragment].clone())
                .collect();
            let expected = Batch::concat(&mine);
            assert!(expected.num_rows() > 0, "fragment {fragment} has rows");
            let result = efs
                .backdoor()
                .get(&result_key("q", fragment as u32))
                .expect("result written");
            let got = Batch::concat(&spf::read_all(&result.bytes, None).unwrap());
            assert_eq!(got.columns, expected.columns, "fragment {fragment}");
            assert_eq!(report.rows_in, expected.num_rows() as u64);
            assert_eq!(
                (
                    report.storage_requests,
                    report.logical_bytes_read,
                    report.io_secs_total.to_bits()
                ),
                pinned[fragment],
                "fragment {fragment}"
            );
        }
    }

    /// EFS streams and bills the whole file for every ranged chunk read;
    /// the worker's report must say what the meter says, not the sum of
    /// the slices it asked for.
    #[test]
    fn scan_on_efs_reports_the_bytes_the_meter_billed() {
        let efs =
            |ctx: &_, meter: &_| Storage::Efs(skyrise_storage::EfsFilesystem::elastic(ctx, meter));
        let (report, meter) = scan_thousand_rows(efs, None);
        assert_eq!(report.rows_in, 1_000);
        let billed = meter.borrow().storage[&skyrise_pricing::StorageService::Efs].bytes_read;
        // Trailer + footer + 4 row groups x 2 columns: 10 whole-file reads.
        assert_eq!(report.storage_requests, 10 + 1);
        assert_eq!(report.logical_bytes_read, billed);
    }

    /// A catalog entry is parsed from a storage object, so its sizes may be
    /// damaged. One that claims fewer bytes than an SPF trailer must not
    /// steer the scan: the trailer is the object's last bytes, and the
    /// footer it points to lists every row group.
    #[test]
    fn scan_finds_the_trailer_whatever_size_the_catalog_claims() {
        let (report, _) = scan_thousand_rows(s3, Some(3));
        assert_eq!(report.rows_in, 1_000);
    }

    /// A scan decodes its pages where the chain runs, after the I/O-stack
    /// charge; a damaged chunk found there is still a typed format error.
    #[test]
    fn damaged_scan_chunk_is_a_typed_error() {
        let mut object = thousand_rows();
        damage_chunk(&mut object, 1, 0);
        let (report, _) = scan_object(s3, object, None);
        let err = report.expect_err("a damaged chunk must not decode");
        assert!(matches!(err, EngineError::Format(_)), "{err}");
    }

    /// The same for a damaged page of a shuffle segment, fetched whole.
    #[test]
    fn damaged_shuffle_page_is_a_typed_error() {
        let mut segment = spf::write_bucketed(&[thousand_rows_batch()], 250).to_vec();
        damage_chunk(&mut segment, 0, 0);
        let err = read_one_segment(segment, consumer_task(0, 1, 1, 1))
            .expect_err("a damaged page must not decode");
        assert!(matches!(err, EngineError::Format(_)), "{err}");
    }

    /// A bucket directory whose entries point past the footer is refused as
    /// the first fetch lands, before a sibling's suffix is sized from it.
    #[test]
    fn bucket_directory_past_the_footer_is_a_typed_error() {
        let empty = Batch::empty(thousand_rows_batch().schema);
        let mut segment = spf::write_bucketed(&[empty.clone(), empty], 250).to_vec();
        // The directory's two 32-byte entries end the footer, right before
        // the 8-byte trailer; each ends with `byte_start` and `byte_end`.
        let trailer = segment.len() - spf::TRAILER_LEN as usize;
        for entry_end in [trailer - 32, trailer] {
            for field in [entry_end - 16, entry_end - 8] {
                segment[field..field + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
            }
        }
        let err = read_one_segment(segment, consumer_task(0, 2, 1, 2))
            .expect_err("a directory past the footer must not be read");
        assert!(
            matches!(
                err,
                EngineError::Format(spf::SpfError::Corrupt("bucket past the footer"))
            ),
            "{err}"
        );
    }

    /// A scan row group waits for the chain as slices of the stored object,
    /// not as a copy of it.
    #[test]
    fn fetched_row_group_shares_the_stored_allocation() {
        let mut sim = skyrise_sim::Sim::new(7);
        let ctx = sim.ctx();
        let meter = skyrise_pricing::shared_meter();
        let bucket = skyrise_storage::S3Bucket::standard(&ctx, &meter);
        let storage = Storage::S3(Rc::clone(&bucket));
        let read = sim.spawn(async move {
            let partition = partition(&storage, thousand_rows(), None);
            let stored = bucket.backdoor().get(&partition.key).expect("stored");
            let client = RetryingClient::new(storage, ctx.clone(), RetryPolicy::eager());
            let opts = RequestOpts::from_nic(&skyrise_net::presets::lambda_nic());
            let gate = Rc::new(Semaphore::new(CHUNK_CONCURRENCY));
            let outcome = read_partition(&client, &opts, &ctx, 1.0, &partition, &[], None, &gate)
                .await
                .expect("scan reads");
            (stored.bytes, outcome.pages)
        });
        sim.run();
        let (stored, pages) = read.try_take().expect("read ran to completion");
        let within = stored.as_ptr_range();
        assert_eq!(pages.len(), 4);
        for page in &pages {
            let Fetched::RowGroup { chunks, .. } = page else {
                panic!("a scan page is a row group");
            };
            for (_, data) in chunks {
                let range = data.as_ptr_range();
                assert!(
                    within.start <= range.start && range.end <= within.end,
                    "chunk bytes copied out of the stored object"
                );
            }
        }
    }

    /// A read queued behind a gate is a few captures; the segment read it
    /// wraps is the request's whole state machine, built once it may run.
    #[test]
    fn a_queued_gated_read_is_small() {
        let sim = skyrise_sim::Sim::new(7);
        let ctx = sim.ctx();
        let meter = skyrise_pricing::shared_meter();
        let client = RetryingClient::new(s3(&ctx, &meter), ctx, RetryPolicy::eager());
        let opts = RequestOpts::from_nic(&skyrise_net::presets::lambda_nic());
        let read = || read_shuffle_object(&client, &opts, "k", ByteRange::Full, None, 0, None, &[]);
        let wrapped = std::mem::size_of_val(&read());
        let gate = Semaphore::new(SHUFFLE_READ_FANIN);
        let queued = std::mem::size_of_val(&gated(&gate, read));
        assert!(
            wrapped > 1536 && queued < 512,
            "segment read {wrapped} B, queued behind its gate {queued} B"
        );
    }

    #[test]
    fn task_json_round_trip() {
        let task = WorkerTask {
            query_id: "q".into(),
            pipeline: Pipeline {
                id: 0,
                inputs: vec![],
                ops: vec![],
                sink: Sink::Result,
                fragments: None,
            },
            fragment: 1,
            n_fragments: 8,
            downstream_fragments: 4,
            inputs: vec![InputAssignment::Shuffle {
                from_pipeline: 0,
                upstream_fragments: 2,
                combine: 1,
            }],
            expected_input_bytes: 64 << 20,
        };
        let json = serde_json::to_string(&task).unwrap();
        let back: WorkerTask = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fragment, 1);
        assert!(matches!(
            back.inputs[0],
            InputAssignment::Shuffle {
                upstream_fragments: 2,
                ..
            }
        ));
    }
}
