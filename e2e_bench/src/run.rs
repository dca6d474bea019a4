//! One benchmark run: set-up, reference results, and the closed client
//! loop, untraced (end-to-end metrics) or traced (per-layer metrics).

use crate::check;
use crate::heap;
use crate::stats::{self, median, percentile, ratio};
use crate::trace::Tracer;
use crate::workload::{Schedule, Workload, SCALE_FACTOR};
use quokka::batch::codec::{decode_partition, encode_partition};
use quokka::plan::{Catalog, StageGraph};
use quokka::{tpch::queries::sql::sql_text, TpchGenerator};
use quokka::{Batch, EngineConfig, FailureSpec, LogicalPlan, QueryOutcome, QuokkaSession};
use std::time::{Duration, Instant};

/// Set-ups per client process; `setup_s` is the median over a run's.
pub const SETUP_REPS: usize = 2;

/// The tail percentile reported as `latency_p90_ms`.
pub const TAIL: f64 = 90.0;

/// A run stops starting rounds after this long in total even if it has too
/// few samples, so it always ends inside three minutes.
const HARD_STOP: Duration = Duration::from_secs(150);

const MIB: f64 = 1024.0 * 1024.0;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Report lines: the schedule followed (to replay it), failures, notes.
    pub lines: Vec<String>,
}

/// One of the workload's queries, planned once with its reference result.
struct Prepared {
    number: usize,
    text: &'static str,
    reference: Batch,
    /// Base-table rows the optimized plan scans (a table scanned twice
    /// counts twice).
    rows_read: u64,
    /// Base tables the engine loads for the query.
    tables: Vec<String>,
}

struct Runner {
    schedule: Schedule,
    session: QuokkaSession,
    queries: Vec<Prepared>,
    attempted: u64,
    failures: Vec<String>,
    /// Queries issued so far; indexes the kill schedule.
    issued: u64,
    orders: Vec<Vec<usize>>,
    kills: Vec<FailureSpec>,
}

/// Build a fresh session `SETUP_REPS` times, timing each, and keep the
/// last one.
fn setup(
    workload: Workload,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> quokka::Result<(QuokkaSession, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for _ in 0..SETUP_REPS {
        // Free the previous catalog first, so peak memory holds one.
        drop(session.take());
        let start = Instant::now();
        let fresh = QuokkaSession::new(workload.config());
        let generator = TpchGenerator::new(SCALE_FACTOR, seed);
        match tracer.as_deref_mut() {
            Some(t) => {
                t.span("tpch.register_all", 0, None, || generator.register_all(fresh.catalog())).0
            }
            None => generator.register_all(fresh.catalog()),
        }?;
        times.push(start.elapsed().as_secs_f64());
        session = Some(fresh);
    }
    Ok((session.expect("at least one set-up"), times))
}

fn scanned_rows(plan: &LogicalPlan, catalog: &dyn Catalog) -> quokka::Result<u64> {
    let own = match plan {
        LogicalPlan::Scan { table, .. } => catalog.table_rows(table)? as u64,
        _ => 0,
    };
    plan.children().into_iter().try_fold(own, |sum, child| Ok(sum + scanned_rows(child, catalog)?))
}

impl Runner {
    fn new(
        workload: Workload,
        seed: u64,
        part: u64,
        tracer: Option<&mut Tracer>,
    ) -> quokka::Result<(Self, Vec<f64>)> {
        let (session, setup_times) = setup(workload, seed, tracer)?;
        let mut queries = Vec::new();
        for &number in workload.queries() {
            let text = sql_text(number).expect("workload queries are TPC-H 1-22");
            // Planning here also fills the plan cache, as a long-running
            // session's would be.
            let handle = session.sql(text)?;
            let reference = handle.collect_reference()?;
            let optimized = session.optimize(handle.plan())?;
            queries.push(Prepared {
                number,
                text,
                reference,
                rows_read: scanned_rows(&optimized, session.catalog())?,
                tables: optimized.referenced_tables(),
            });
        }
        let runner = Runner {
            schedule: Schedule { workload, seed, part },
            session,
            queries,
            attempted: 0,
            failures: Vec::new(),
            issued: 0,
            orders: Vec::new(),
            kills: Vec::new(),
        };
        Ok((runner, setup_times))
    }

    fn prepared(&self, number: usize) -> usize {
        self.queries.iter().position(|q| q.number == number).expect("scheduled query is prepared")
    }

    /// The failure for the next query, advancing the kill schedule.
    fn next_kill(&mut self) -> Option<FailureSpec> {
        let kill = self.schedule.kill(self.issued);
        self.issued += 1;
        self.kills.extend(kill);
        kill
    }

    fn config(&self, kill: Option<FailureSpec>) -> EngineConfig {
        let config = self.session.config().clone();
        match kill {
            Some(spec) => config.with_failure(spec),
            None => config,
        }
    }

    /// Run one query through the SQL entry point, returning the wall clock
    /// from the `sql()` call until `collect_with` returns.
    fn execute(&self, text: &str, config: &EngineConfig) -> (f64, quokka::Result<QueryOutcome>) {
        let start = Instant::now();
        let result = self.session.sql(text).and_then(|h| h.collect_with(config));
        (start.elapsed().as_secs_f64() * 1e3, result)
    }

    /// Check an execution against the reference (and, under a kill,
    /// that the failure fired and was recovered); record any failure.
    fn verify(
        &mut self,
        index: usize,
        kill: Option<FailureSpec>,
        result: &quokka::Result<QueryOutcome>,
    ) -> bool {
        self.attempted += 1;
        let query = &self.queries[index];
        let verdict = match result {
            Err(e) => Err(format!("error: {e}")),
            Ok(outcome) => check::compare(&outcome.batch, &query.reference).and_then(|()| {
                let m = &outcome.metrics;
                match kill {
                    Some(_) if m.failures != 1 || m.recovery_tasks == 0 => Err(format!(
                        "expected one recovered failure, got failures={} recovery_tasks={}",
                        m.failures, m.recovery_tasks
                    )),
                    _ => Ok(()),
                }
            }),
        };
        if let Err(reason) = verdict {
            let kill = kill.map_or("no kill".to_string(), |k| {
                format!("kill worker {} at {}", k.worker, k.at_progress)
            });
            self.failures.push(format!(
                "query #{} Q{} ({kill}, seed {}): {reason}",
                self.issued.saturating_sub(1),
                query.number,
                self.schedule.seed
            ));
            return false;
        }
        true
    }

    /// Run the schedule's first round untimed, so lazy set-up (threads,
    /// allocator pools) is done before timing starts. Returns the peak live
    /// heap of each query that ran correctly, MiB (0 unless heap counting
    /// is on).
    fn warm_up(&mut self) -> Vec<f64> {
        let mut peaks = Vec::new();
        for number in self.start_round() {
            let index = self.prepared(number);
            let kill = self.next_kill();
            let config = self.config(kill);
            heap::reset_peak();
            let (_, result) = self.execute(self.queries[index].text, &config);
            let peak = heap::peak_bytes() as f64 / MIB;
            if self.verify(index, kill, &result) {
                peaks.push(peak);
            }
        }
        peaks
    }

    /// The next round's query order.
    fn start_round(&mut self) -> Vec<usize> {
        let order = self.schedule.round_order(self.orders.len() as u64);
        self.orders.push(order.clone());
        order
    }

    fn replay(&self) -> String {
        let rounds: Vec<String> = self
            .orders
            .iter()
            .map(|o| o.iter().map(|q| format!("Q{q}")).collect::<Vec<_>>().join(","))
            .collect();
        let kills: Vec<String> =
            self.kills.iter().map(|k| format!("w{}@{}", k.worker, k.at_progress)).collect();
        format!(
            "replay: workload={} seed={} part={} queries={} order=[{}] kills=[{}]",
            self.schedule.workload.name(),
            self.schedule.seed,
            self.schedule.part,
            self.issued,
            rounds.join(" | "),
            kills.join(" ")
        )
    }
}

/// Whether a client loop that started at `start` and has sent `sent`
/// queries starts another round: until it has lasted `seconds` and sent
/// `min_queries`, and never once it has lasted `hard_stop`.
fn another_round(
    start: Instant,
    sent: u64,
    seconds: Duration,
    min_queries: u64,
    hard_stop: Duration,
) -> bool {
    let elapsed = start.elapsed();
    elapsed < hard_stop && (elapsed < seconds || sent < min_queries)
}

/// What one client process of an untraced run measured. A run is
/// [`PARTS`] such processes one after another; the parent pools them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Part {
    /// Wall clock of each query that completed with a correct result, ms.
    pub latencies: Vec<f64>,
    /// Base-table rows those queries read.
    pub rows: u64,
    /// Wall clock of the client loop, s.
    pub wall: f64,
    /// Each set-up's time, s.
    pub setup: Vec<f64>,
    /// Peak live heap during each correct query of the warm-up round, MiB.
    pub heap_peaks: Vec<f64>,
    /// The process's VmHWM at the end, MiB.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Part {
    const PREFIX: &'static str = "part:";

    /// The line a client process prints last, for its parent to parse.
    pub fn to_line(&self) -> String {
        let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        format!(
            "{} latencies={} rows={} wall={} setup={} heap_peaks={} peak_rss_mb={} attempted={} failed={}",
            Self::PREFIX,
            list(&self.latencies),
            self.rows,
            self.wall,
            list(&self.setup),
            list(&self.heap_peaks),
            self.peak_rss_mb,
            self.attempted,
            self.failed
        )
    }

    pub fn parse(line: &str) -> Option<Part> {
        let list = |v: &str| -> Option<Vec<f64>> {
            v.split(',').filter(|x| !x.is_empty()).map(|x| x.parse().ok()).collect()
        };
        let mut part = Part::default();
        for field in line.strip_prefix(Self::PREFIX)?.split_whitespace() {
            let (key, value) = field.split_once('=')?;
            match key {
                "latencies" => part.latencies = list(value)?,
                "rows" => part.rows = value.parse().ok()?,
                "wall" => part.wall = value.parse().ok()?,
                "setup" => part.setup = list(value)?,
                "heap_peaks" => part.heap_peaks = list(value)?,
                "peak_rss_mb" => part.peak_rss_mb = value.parse().ok()?,
                "attempted" => part.attempted = value.parse().ok()?,
                "failed" => part.failed = value.parse().ok()?,
                _ => return None,
            }
        }
        Some(part)
    }
}

/// Client processes per untraced run. Peak memory differs from one process
/// to the next (heap layout, allocator arenas, thread timing) by more than
/// a regression worth catching, so a run samples several processes, and
/// pools set-up times and latencies over them.
pub const PARTS: u64 = 4;

/// One client process of an untraced run: part `part` of [`PARTS`], which
/// measures for its share of `seconds` and its share of the samples the
/// tail percentile needs. Returns the part and its report lines.
pub fn client(
    workload: Workload,
    seed: u64,
    part: u64,
    seconds: Duration,
) -> quokka::Result<(Part, Vec<String>)> {
    // Heap counting runs from the start (so the live count is absolute)
    // through the warm-up round, which samples the heap peaks, and is off
    // while latencies are timed: counting slowed `scan` queries by 5-15%.
    heap::set_counting(true);
    let (mut runner, setup) = Runner::new(workload, seed, part, None)?;
    let heap_peaks = runner.warm_up();
    heap::set_counting(false);
    let min_queries = (stats::samples_needed(TAIL) as u64).div_ceil(PARTS);
    let mut latencies = Vec::new();
    let mut per_query: Vec<Vec<f64>> = vec![Vec::new(); runner.queries.len()];
    let (mut rows, mut sent) = (0u64, 0u64);
    let start = Instant::now();
    while another_round(start, sent, seconds / PARTS as u32, min_queries, HARD_STOP / PARTS as u32)
    {
        for number in runner.start_round() {
            let index = runner.prepared(number);
            let kill = runner.next_kill();
            let config = runner.config(kill);
            let (latency, result) = runner.execute(runner.queries[index].text, &config);
            sent += 1;
            if runner.verify(index, kill, &result) {
                latencies.push(latency);
                per_query[index].push(latency);
                rows += runner.queries[index].rows_read;
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let mut lines = vec![runner.replay()];
    lines.extend(runner.failures.iter().map(|f| format!("FAILED {f}")));
    lines.extend(runner.queries.iter().zip(&per_query).map(|(q, l)| {
        format!("Q{:<3} p50 {:>9.3} ms over {} runs", q.number, median(l).unwrap_or(0.0), l.len())
    }));
    let part = Part {
        latencies,
        rows,
        wall,
        setup,
        heap_peaks,
        peak_rss_mb: peak_rss_mb(),
        attempted: runner.attempted,
        failed: runner.failures.len() as u64,
    };
    Ok((part, lines))
}

/// The end-to-end metrics of a run, pooled over its client processes.
pub fn end_to_end(parts: &[Part]) -> Outcome {
    let latencies: Vec<f64> = parts.iter().flat_map(|p| p.latencies.iter().copied()).collect();
    let setup: Vec<f64> = parts.iter().flat_map(|p| p.setup.iter().copied()).collect();
    let heap_peaks: Vec<f64> = parts.iter().flat_map(|p| p.heap_peaks.iter().copied()).collect();
    let rss: Vec<f64> = parts.iter().map(|p| p.peak_rss_mb).collect();
    let rows: u64 = parts.iter().map(|p| p.rows).sum();
    let wall: f64 = parts.iter().map(|p| p.wall).sum();
    let (attempted, failed) =
        parts.iter().fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed));
    let beyond = stats::samples_beyond(latencies.len(), TAIL);
    let mut notes = vec![format!(
        "{} latency samples from {} processes, {beyond} beyond p{TAIL}; error_rate {} ({failed} of {attempted} attempted)",
        latencies.len(),
        parts.len(),
        ratio(failed as f64, attempted as f64),
    )];
    notes.push(format!("set-up times (s): {setup:.3?}; peak RSS per process (MiB): {rss:.1?}"));
    if beyond < stats::MIN_BEYOND {
        notes.push(format!("warning: too few samples for p{TAIL}"));
    }
    let metrics = vec![
        ("latency_p50_ms", percentile(&latencies, 50.0).unwrap_or(0.0), "ms"),
        ("latency_p90_ms", percentile(&latencies, TAIL).unwrap_or(0.0), "ms"),
        ("throughput_rows_per_s", ratio(rows as f64, wall), "rows/s"),
        ("setup_s", median(&setup).unwrap_or(0.0), "s"),
        ("peak_heap_mb", median(&heap_peaks).unwrap_or(0.0), "MiB"),
    ];
    Outcome { attempted, failed, metrics, lines: notes }
}

/// Sums over the traced query executions, averaged per query at the end.
#[derive(Default)]
struct LayerSums {
    queries: f64,
    sql_us: f64,
    load_ms: f64,
    runtime_ms: f64,
    tasks: f64,
    gcs_transactions: f64,
    lineage_bytes: f64,
    backup_bytes: f64,
    shuffle_bytes: f64,
    shuffle_raw_bytes: f64,
    wire_bytes_sent: f64,
    send_queue_peak: f64,
    recovery_tasks: f64,
    recovery_planning_ms: f64,
    push_retries: f64,
    replay_requeues: f64,
    lost_ms: f64,
    optimize_ms: f64,
    compile_ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    split_bytes: f64,
    split_plain_bytes: f64,
    reference_ms: f64,
    distributed_ms: f64,
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// The traced run: per-layer metrics. Each query executes untraced, then
/// traced (spans around `sql()`, `collect_with` and the result check),
/// then the benchmark times the layers the engine calls internally by
/// calling their public functions itself: the optimizer, the stage
/// compiler, the split codec and the reference executor. Under
/// `recovery` a clean run of the same query gives the time the kill lost.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    tracer: &mut Tracer,
) -> quokka::Result<Outcome> {
    let (mut runner, _) = Runner::new(workload, seed, 0, Some(&mut *tracer))?;
    runner.warm_up();
    let clean = runner.config(None);
    let mut sums = LayerSums::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (start, mut sent) = (Instant::now(), 0u64);
    while another_round(start, sent, seconds, 1, HARD_STOP) {
        for number in runner.start_round() {
            sent += 1;
            let index = runner.prepared(number);
            let text = runner.queries[index].text;
            let kill = runner.next_kill();
            let config = runner.config(kill);
            let qid = runner.issued;

            let (untraced_ms, result) = runner.execute(text, &config);
            runner.verify(index, kill, &result);

            let root = tracer.begin("bench.query", qid, None);
            let (handle, plan_ns) =
                tracer.span("sql.plan", qid, Some(root), || runner.session.sql(text));
            let handle = handle?;
            let (result, collect_ns) =
                tracer.span("engine.collect", qid, Some(root), || handle.collect_with(&config));
            let (ok, _) =
                tracer.span("bench.check", qid, Some(root), || runner.verify(index, kill, &result));
            tracer.end(root);
            untraced.push(untraced_ms);
            traced.push(ms(plan_ns + collect_ns));
            let Ok(outcome) = result else { continue };
            if !ok {
                continue;
            }

            let m = &outcome.metrics;
            sums.queries += 1.0;
            sums.sql_us += plan_ns as f64 / 1e3;
            sums.runtime_ms += m.runtime.as_secs_f64() * 1e3;
            sums.load_ms += ms(collect_ns) - m.runtime.as_secs_f64() * 1e3;
            sums.tasks += m.tasks_executed as f64;
            sums.gcs_transactions += m.gcs_transactions as f64;
            sums.lineage_bytes += m.lineage_bytes as f64;
            sums.backup_bytes += m.backup_bytes as f64;
            sums.shuffle_bytes += m.shuffle_bytes as f64;
            sums.shuffle_raw_bytes += m.shuffle_raw_bytes as f64;
            sums.wire_bytes_sent +=
                m.transport_peers.iter().map(|p| p.bytes_sent as f64).sum::<f64>();
            sums.send_queue_peak +=
                m.transport_peers.iter().map(|p| p.send_queue_peak).max().unwrap_or(0) as f64;
            sums.recovery_tasks += m.recovery_tasks as f64;
            sums.recovery_planning_ms += m.recovery_planning.as_secs_f64() * 1e3;
            sums.push_retries += m.push_retries as f64;
            sums.replay_requeues += m.replay_requeues as f64;
            sums.distributed_ms += untraced_ms;

            let (optimized, optimize_ns) =
                tracer.span("plan.optimize", qid, None, || runner.session.optimize(handle.plan()));
            let optimized = optimized?;
            let (graph, compile_ns) =
                tracer.span("plan.compile", qid, None, || StageGraph::compile(&optimized));
            graph?;
            sums.optimize_ms += ms(optimize_ns);
            sums.compile_ms += ms(compile_ns);

            // The per-query table load, as the engine does it: every split
            // of every referenced table encoded on its own, then decoded.
            let mut splits = Vec::new();
            for table in &runner.queries[index].tables {
                splits.extend(runner.session.catalog().table_batches(table)?);
            }
            let (encoded, encode_ns) = tracer.span("batch.split_encode", qid, None, || {
                splits.iter().map(|b| encode_partition(std::slice::from_ref(b))).collect::<Vec<_>>()
            });
            let (decoded, decode_ns) = tracer.span("batch.split_decode", qid, None, || {
                encoded.iter().map(|e| decode_partition(e)).collect::<quokka::Result<Vec<_>>>()
            });
            decoded?;
            sums.encode_ms += ms(encode_ns);
            sums.decode_ms += ms(decode_ns);
            sums.split_bytes += encoded.iter().map(|e| e.len() as f64).sum::<f64>();
            sums.split_plain_bytes += splits.iter().map(|b| b.byte_size() as f64).sum::<f64>();

            let (reference, reference_ns) =
                tracer.span("plan.reference", qid, None, || handle.collect_reference());
            reference?;
            sums.reference_ms += ms(reference_ns);

            if kill.is_some() {
                let (clean_ms, result) = runner.execute(text, &clean);
                runner.verify(index, None, &result);
                sums.lost_ms += untraced_ms - clean_ms;
            }
        }
    }

    let n = sums.queries.max(1.0);
    let per_query = |v: f64| v / n;
    let cache = runner.session.plan_cache().stats();
    let self_ns = tracer.layer_self_times();
    let self_ms = |layer: &str, per: f64| ms(self_ns.get(layer).copied().unwrap_or(0)) / per;
    let overhead_ms = median(&traced).unwrap_or(0.0) - median(&untraced).unwrap_or(0.0);
    let metrics = vec![
        ("batch.split_encode_ms", per_query(sums.encode_ms), "ms"),
        ("batch.split_decode_ms", per_query(sums.decode_ms), "ms"),
        (
            "batch.split_bytes_per_plain_byte",
            ratio(sums.split_bytes, sums.split_plain_bytes),
            "ratio",
        ),
        ("batch.shuffle_compression", ratio(sums.shuffle_raw_bytes, sums.shuffle_bytes), "ratio"),
        ("engine.load_ms", per_query(sums.load_ms), "ms"),
        ("engine.runtime_ms", per_query(sums.runtime_ms), "ms"),
        ("engine.tasks", per_query(sums.tasks), "count"),
        ("engine.overhead_vs_reference", ratio(sums.distributed_ms, sums.reference_ms), "ratio"),
        ("gcs.transactions", per_query(sums.gcs_transactions), "count"),
        ("gcs.transactions_per_task", ratio(sums.gcs_transactions, sums.tasks), "ratio"),
        ("gcs.lineage_bytes", per_query(sums.lineage_bytes), "bytes"),
        ("storage.backup_bytes", per_query(sums.backup_bytes), "bytes"),
        ("net.wire_bytes_sent", per_query(sums.wire_bytes_sent), "bytes"),
        ("net.send_queue_peak", per_query(sums.send_queue_peak), "frames"),
        ("recovery.tasks", per_query(sums.recovery_tasks), "count"),
        ("recovery.task_share", ratio(sums.recovery_tasks, sums.tasks), "ratio"),
        ("recovery.planning_ms", per_query(sums.recovery_planning_ms), "ms"),
        ("recovery.push_retries", per_query(sums.push_retries), "count"),
        ("recovery.replay_requeues", per_query(sums.replay_requeues), "count"),
        ("recovery.lost_ms", per_query(sums.lost_ms), "ms"),
        ("sql.plan_us", per_query(sums.sql_us), "us"),
        (
            "sql.plan_cache_hit_ratio",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
            "ratio",
        ),
        ("plan.optimize_ms", per_query(sums.optimize_ms), "ms"),
        ("plan.compile_ms", per_query(sums.compile_ms), "ms"),
        ("plan.reference_ms", per_query(sums.reference_ms), "ms"),
        ("trace.overhead_ms", overhead_ms, "ms"),
        ("tpch.self_ms", self_ms("tpch", SETUP_REPS as f64), "ms"),
        ("sql.self_ms", self_ms("sql", n), "ms"),
        ("plan.self_ms", self_ms("plan", n), "ms"),
        ("engine.self_ms", self_ms("engine", n), "ms"),
        ("batch.self_ms", self_ms("batch", n), "ms"),
        ("bench.self_ms", self_ms("bench", n), "ms"),
    ];
    let mut notes = vec![runner.replay()];
    notes.extend(runner.failures.iter().map(|f| format!("FAILED {f}")));
    notes.push(format!(
        "{} traced queries; self time per layer (tpch per set-up, others per query):",
        sums.queries
    ));
    notes.extend(self_ns.keys().map(|layer| {
        let per = if *layer == "tpch" { SETUP_REPS as f64 } else { n };
        format!("  {layer:<8} {:>10.3} ms", self_ms(layer, per))
    }));
    notes.push(format!(
        "tracing overhead: traced p50 {:.3} ms - untraced p50 {:.3} ms = {overhead_ms:.3} ms",
        median(&traced).unwrap_or(0.0),
        median(&untraced).unwrap_or(0.0)
    ));
    Ok(Outcome {
        attempted: runner.attempted,
        failed: runner.failures.len() as u64,
        metrics,
        lines: notes,
    })
}

/// This process's peak resident set size (VmHWM) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / MIB)
}
