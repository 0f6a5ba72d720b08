//! Per-layer measurements for the traced run. Each times calls into the
//! program's public functions (recording a span around each) or diffs
//! counters the program already exports; nothing here adds a span inside
//! the program. Server-side `SET trace` spans are read from the tracer's
//! ring while the traced slices of the window run.

use crate::common::{
    self, median, median_self_ns, self_times, Env, Lat, Recorder, Span, Tally, Window,
};
use crate::{Ctx, Metrics, OP_KINDS};
use neurdb_core::{
    execute_plan_instrumented, plan_select_with, Database, OpMetrics, PhysicalPlan, PlannerConfig,
    SessionContext,
};
use neurdb_obs::trace::FinishedTrace;
use neurdb_obs::Snapshot;
use neurdb_qo::{NeurQo, Optimizer};
use neurdb_server::Client;
use neurdb_sql::{parse, Statement};
use neurdb_storage::{BufferStats, Value};
use neurdb_wal::WalStats;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Counter readings at the start of a phase.
pub struct Phase {
    snap: Snapshot,
    buf: BufferStats,
    wal: WalStats,
}

/// Counter deltas over a phase.
pub struct Delta {
    pub snap: Snapshot,
    pub buf: BufferStats,
    pub wal: WalStats,
}

impl Delta {
    pub fn counter(&self, name: &str) -> f64 {
        self.snap.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Add a later phase's deltas (gauges and pool size keep the later
    /// reading).
    pub fn absorb(&mut self, o: Delta) {
        for (k, v) in o.snap.counters {
            *self.snap.counters.entry(k).or_default() += v;
        }
        for (k, h) in o.snap.histograms {
            let merged = match self.snap.histograms.get(&k) {
                Some(prev) => prev.merge(&h),
                None => h,
            };
            self.snap.histograms.insert(k, merged);
        }
        self.snap.gauges = o.snap.gauges;
        let (b, ob) = (&mut self.buf, o.buf);
        b.hits += ob.hits;
        b.misses += ob.misses;
        b.evictions += ob.evictions;
        b.point_hits += ob.point_hits;
        b.point_misses += ob.point_misses;
        b.capacity = ob.capacity;
        b.resident = ob.resident;
        let (w, ow) = (&mut self.wal, o.wal);
        w.appended_records += ow.appended_records;
        w.appended_bytes += ow.appended_bytes;
        w.flushes += ow.flushes;
        w.fsyncs += ow.fsyncs;
        w.group_rides += ow.group_rides;
    }
}

impl Phase {
    pub fn begin(db: &Database) -> Phase {
        Phase {
            snap: db.metrics().snapshot(),
            buf: db.buffer_stats(),
            wal: db.wal_stats().unwrap_or_default(),
        }
    }

    pub fn counters(self, db: &Database) -> Delta {
        let b = db.buffer_stats();
        let w = db.wal_stats().unwrap_or_default();
        Delta {
            snap: db.metrics().snapshot().delta(&self.snap),
            buf: BufferStats {
                hits: b.hits - self.buf.hits,
                misses: b.misses - self.buf.misses,
                evictions: b.evictions - self.buf.evictions,
                point_hits: b.point_hits - self.buf.point_hits,
                point_misses: b.point_misses - self.buf.point_misses,
                capacity: b.capacity,
                resident: b.resident,
            },
            wal: WalStats {
                appended_records: w.appended_records - self.wal.appended_records,
                appended_bytes: w.appended_bytes - self.wal.appended_bytes,
                flushes: w.flushes - self.wal.flushes,
                fsyncs: w.fsyncs - self.wal.fsyncs,
                group_rides: w.group_rides - self.wal.group_rides,
            },
        }
    }
}

/// Polls the tracer's ring of finished statement traces while a traced
/// window runs, keeping each trace once.
pub struct SpanCollector {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<Arc<FinishedTrace>>>,
}

impl SpanCollector {
    pub fn start(db: Arc<Database>) -> SpanCollector {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut seen: BTreeMap<String, Arc<FinishedTrace>> = BTreeMap::new();
            loop {
                let last = flag.load(Ordering::SeqCst);
                for t in db.tracer().recent() {
                    seen.entry(t.id.clone()).or_insert(t);
                }
                if last {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            seen.into_values().collect()
        });
        SpanCollector { stop, handle }
    }

    pub fn stop(self) -> Vec<Arc<FinishedTrace>> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("span collector")
    }
}

/// Key of a `… WHERE id = k` statement.
fn trailing_key(sql: &str) -> i64 {
    sql.rsplit(' ')
        .next()
        .and_then(|k| k.parse().ok())
        .expect("point statement ends in its key")
}

/// Resolve a SELECT's tables for the planner.
fn resolve(
    db: &Database,
    stmt: &neurdb_sql::SelectStmt,
) -> Vec<(String, Arc<neurdb_storage::Table>)> {
    stmt.from
        .iter()
        .map(|t| {
            (
                t.binding().to_string(),
                db.table(&t.name).expect("table exists"),
            )
        })
        .collect()
}

fn select(sql: &str) -> neurdb_sql::SelectStmt {
    match parse(sql).expect("benchmark SQL parses") {
        Statement::Select(s) => s,
        _ => panic!("not a SELECT: {sql}"),
    }
}

/// Layers on the point-lookup path: wire overhead, parse, plan, B-tree.
/// `points` are `SELECT … FROM table WHERE id = k`; `sample` is a mix of
/// the workload's statement texts for the parser.
pub fn point_layers(
    env: &Env,
    m: &mut Metrics,
    rec: &mut Recorder,
    points: &[String],
    table: &str,
    sample: &[String],
) {
    let db = &env.db;
    let mut c = env.connect();
    let mut session = SessionContext::new();
    for (i, sql) in points.iter().enumerate() {
        let req = 1_000_000 + i as u64;
        rec.time("wire.point", None, req, || {
            c.query(sql).expect("point SELECT")
        });
        rec.time("embedded.point", None, req, || {
            db.execute_in_session(&mut session, sql)
                .expect("point SELECT")
        });
    }
    let _ = c.close();
    for (i, sql) in sample.iter().enumerate() {
        rec.time("sql.parse", None, 2_000_000 + i as u64, || {
            parse(sql).expect("parses")
        });
    }
    let t = db.table(table).expect("point table");
    let config = PlannerConfig::default();
    for (i, sql) in points.iter().enumerate() {
        let stmt = select(sql);
        let tables = resolve(db, &stmt);
        rec.time("planner.plan_select", None, 3_000_000 + i as u64, || {
            plan_select_with(&stmt, &tables, None, &config).expect("plans")
        });
        let key = Value::Int(trailing_key(sql));
        rec.time("storage.btree_lookup", None, 4_000_000 + i as u64, || {
            t.lookup(0, &key).expect("lookup")
        });
    }
    let selfs = self_times(&rec.spans);
    let wire = median_self_ns(&rec.spans, &selfs, "wire.point");
    let embedded = median_self_ns(&rec.spans, &selfs, "embedded.point");
    m.set("server.overhead_us", (wire - embedded) / 1e3);
    m.set(
        "sql.parse_ns",
        median_self_ns(&rec.spans, &selfs, "sql.parse"),
    );
    m.set(
        "planner.point_ns",
        median_self_ns(&rec.spans, &selfs, "planner.plan_select"),
    );
    m.set(
        "btree.lookup_ns",
        median_self_ns(&rec.spans, &selfs, "storage.btree_lookup"),
    );
}

/// Child plans in the pre-order `execute_plan_instrumented` reports.
fn children(p: &PhysicalPlan) -> Vec<&PhysicalPlan> {
    match p {
        PhysicalPlan::SeqScan { .. } | PhysicalPlan::IndexScan { .. } => vec![],
        PhysicalPlan::Exchange { input, .. }
        | PhysicalPlan::PartialHashAggregate { input, .. }
        | PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Reorder { input, .. }
        | PhysicalPlan::HashAggregate { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. } => vec![input],
        PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::NestedLoopJoin { left, right, .. } => vec![left, right],
        PhysicalPlan::PartitionedHashJoin { probe, build, .. } => vec![probe, build],
    }
}

fn kind(p: &PhysicalPlan) -> &'static str {
    match p {
        PhysicalPlan::SeqScan { .. } => "SeqScan",
        PhysicalPlan::IndexScan { .. } => "IndexScan",
        PhysicalPlan::Exchange { .. } => "Exchange",
        PhysicalPlan::PartialHashAggregate { .. } => "PartialHashAggregate",
        PhysicalPlan::HashJoin { .. } => "HashJoin",
        PhysicalPlan::PartitionedHashJoin { .. } => "PartitionedHashJoin",
        PhysicalPlan::NestedLoopJoin { .. } => "NestedLoopJoin",
        PhysicalPlan::Filter { .. } => "Filter",
        PhysicalPlan::Reorder { .. } => "Reorder",
        PhysicalPlan::HashAggregate { .. } => "HashAggregate",
        PhysicalPlan::Project { .. } => "Project",
        PhysicalPlan::Sort { .. } => "Sort",
        PhysicalPlan::Limit { .. } => "Limit",
    }
}

/// Self time per operator kind (inclusive time minus the children's),
/// accumulated into `self_ns`; returns the rows the scan leaves emitted.
fn walk(
    p: &PhysicalPlan,
    ms: &[OpMetrics],
    at: &mut usize,
    self_ns: &mut BTreeMap<&'static str, f64>,
) -> (u128, u64) {
    let Some(me) = ms.get(*at) else {
        return (0, 0);
    };
    *at += 1;
    let mut child_ns = 0u128;
    let mut scanned = 0u64;
    for ch in children(p) {
        if *at >= ms.len() {
            break;
        }
        let (ns, rows) = walk(ch, ms, at, self_ns);
        child_ns += ns;
        scanned += rows;
    }
    let k = kind(p);
    *self_ns.entry(k).or_default() += me.nanos.saturating_sub(child_ns) as f64;
    if matches!(k, "SeqScan" | "IndexScan") {
        scanned += me.rows_out;
    }
    (me.nanos, scanned)
}

/// Plan and run `sqls` embedded with per-operator metrics: self time per
/// operator kind (per query), rows examined per row returned, worker
/// busy share, and (for multi-table SELECTs) planning time.
pub fn exec_layers(
    env: &Env,
    m: &mut Metrics,
    rec: &mut Recorder,
    sqls: &[String],
    dop: usize,
    mut learned: Option<&mut NeurQo>,
) {
    let db = &env.db;
    let config = PlannerConfig {
        parallelism: dop,
        system: db.system_conditions(),
        ..PlannerConfig::default()
    };
    let mut self_ns: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut scanned, mut out) = (0u64, 0u64);
    let (mut busy, mut wait) = (0u128, 0u128);
    for (i, sql) in sqls.iter().enumerate() {
        let req = 5_000_000 + i as u64;
        let stmt = select(sql);
        let tables = resolve(db, &stmt);
        let name = if tables.len() > 1 {
            "planner.plan_join"
        } else {
            "planner.plan_scan"
        };
        let opt: Option<&mut dyn Optimizer> = match learned.as_mut() {
            Some(q) if tables.len() >= 3 => Some(&mut **q),
            _ => None,
        };
        let (planned, _) = rec.time(name, None, req, || {
            plan_select_with(&stmt, &tables, opt, &config).expect("plans")
        });
        let ((res, ms), _) = rec.time("exec.execute_plan", None, req, || {
            execute_plan_instrumented(&planned.plan).expect("executes")
        });
        let mut at = 0;
        let (_, rows) = walk(&planned.plan, &ms, &mut at, &mut self_ns);
        scanned += rows;
        out += res.rows.len() as u64;
        for op in &ms {
            busy += op.busy_ns;
            wait += op.wait_ns;
        }
    }
    let n = sqls.len().max(1) as f64;
    for k in OP_KINDS {
        m.set(
            format!("exec.op.{k}_ns"),
            self_ns.get(k).copied().unwrap_or(0.0) / n,
        );
    }
    m.set(
        "exec.rows_examined_per_row_out",
        scanned as f64 / out.max(1) as f64,
    );
    m.set(
        "exec.worker_busy_share",
        if busy + wait == 0 {
            0.0
        } else {
            busy as f64 / (busy + wait) as f64
        },
    );
    let selfs = self_times(&rec.spans);
    let join = median_self_ns(&rec.spans, &selfs, "planner.plan_join");
    m.0.entry("planner.join_ns".into()).or_insert(join);
}

/// Time one full `Table::scan_batches` sweep per page.
pub fn heap_scan(env: &Env, m: &mut Metrics, rec: &mut Recorder, table: &str) {
    let t = env.db.table(table).expect("scan table");
    let mut per_page = Vec::new();
    for i in 0..3 {
        let (_, d) = rec.time("storage.heap_sweep", None, 6_000_000 + i, || {
            let mut scan = t.scan_batches(1024);
            let mut rows = 0;
            while let Some(b) = scan.next_batch().expect("scan batch") {
                rows += b.len();
            }
            rows
        });
        per_page.push(d.as_nanos() as f64 / t.num_pages().max(1) as f64);
    }
    m.set("heap.scan_ns_per_page", median(&mut per_page));
}

/// Buffer-pool pages touched (hits + misses) per autocommit UPDATE, one
/// client, nothing else running. `sql` must leave the row's values as
/// they are (`SET v = v + 0`): the output checks run after it.
pub fn pages_per_update(env: &Env, m: &mut Metrics, sql: impl Fn(u64) -> String) {
    let mut c = env.connect();
    let mut pages = Vec::new();
    for i in 0..10 {
        let before = env.db.buffer_stats();
        c.affected(&sql(i)).expect("UPDATE");
        let after = env.db.buffer_stats();
        pages.push(((after.hits + after.misses) - (before.hits + before.misses)) as f64);
    }
    let _ = c.close();
    m.set("buffer.pages_per_update", median(&mut pages));
}

/// User bytes a write of each latency kind carries: an UPDATE changes one
/// INT (8 B); an INSERT writes three INTs and a 40-byte pad.
fn user_bytes(lat: &Lat) -> (u64, u64) {
    let updates = lat.count("update") as u64;
    let inserts = lat.count("insert") as u64;
    (updates + inserts, 8 * updates + 64 * inserts)
}

/// Layers read from the untraced slices' counter deltas and the traced
/// slices' server spans.
pub fn window_layers(m: &mut Metrics, w: &Window, d: &Delta, server: &[Arc<FinishedTrace>]) {
    let ops = w.ops.max(1) as f64;
    m.set(
        "server.bytes_per_op",
        (d.counter("srv.bytes_in") + d.counter("srv.bytes_out")) / ops,
    );
    let touched = d.buf.hits + d.buf.misses;
    m.set(
        "buffer.hit_ratio",
        if touched == 0 {
            1.0
        } else {
            d.buf.hits as f64 / touched as f64
        },
    );
    m.set("buffer.misses_per_query", d.buf.misses as f64 / ops);
    m.set("buffer.evictions_per_query", d.buf.evictions as f64 / ops);

    let (commits, bytes) = user_bytes(&w.lat);
    let per_commit = |x: u64| {
        if commits == 0 {
            0.0
        } else {
            x as f64 / commits as f64
        }
    };
    m.set("wal.fsyncs_per_commit", per_commit(d.wal.fsyncs));
    m.set("wal.group_ride_ratio", per_commit(d.wal.group_rides));
    m.set(
        "wal.fsync_ns_p50",
        d.snap
            .histograms
            .get("wal.fsync_ns")
            .and_then(|h| h.quantile(0.5))
            .unwrap_or(0) as f64,
    );
    m.set(
        "wal.bytes_per_user_byte",
        if bytes == 0 {
            0.0
        } else {
            d.wal.appended_bytes as f64 / bytes as f64
        },
    );

    // Mean, not median: most writes find the lock free, and the ones
    // that queue behind a long holder carry the cost.
    let (mut waited, mut n) = (0u64, 0u64);
    for t in server {
        let mut found = Vec::new();
        t.root.find_all("txn.commit_lock_wait", &mut found);
        waited += found.iter().map(|s| s.dur_ns).sum::<u64>();
        n += found.len() as u64;
    }
    m.set("txn.commit_lock_wait_ns", waited as f64 / n.max(1) as f64);
}

/// Concurrency-control outcome over a phase that ran transactions.
pub fn cc_layers(m: &mut Metrics, d: &Delta, tally: &Tally, committed: u64) {
    m.set(
        "cc.abort_ratio",
        tally.retries as f64 / (tally.retries + committed).max(1) as f64,
    );
    m.set("cc.adaptations", d.counter("cc.adaptations"));
    m.set("cc.decisions", d.counter("cc.decisions"));
    m.set("txn.abandoned", tally.abandoned as f64);
}

/// In-transaction statement and COMMIT latencies of recorded transfers.
pub fn txn_layers(m: &mut Metrics, lat: &mut Lat) {
    let mut stmts: Vec<f64> = ["txn.select", "txn.update"]
        .iter()
        .flat_map(|k| lat.by_kind.get(*k).cloned().unwrap_or_default())
        .map(|ns| ns as f64)
        .collect();
    m.set("txn.in_txn_stmt_us", median(&mut stmts) / 1e3);
    m.set("txn.commit_us", lat.pct("txn.commit", 0.5) / 1e3);
}

/// The same SELECT/UPDATE statements a transfer issues, in autocommit.
pub fn autocommit_stmt(c: &mut Client, m: &mut Metrics, table: &str, key: impl Fn(u64) -> i64) {
    let mut v = Vec::new();
    for i in 0..20 {
        let k = key(i);
        let t0 = Instant::now();
        c.query(&format!("SELECT v FROM {table} WHERE id = {k}"))
            .expect("autocommit SELECT");
        v.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        c.affected(&format!("UPDATE {table} SET v = v + 0 WHERE id = {k}"))
            .expect("autocommit UPDATE");
        v.push(t0.elapsed().as_nanos() as f64);
    }
    m.set("txn.autocommit_stmt_us", median(&mut v) / 1e3);
}

/// Layers that only a multi-join workload exercises read 0 elsewhere.
pub fn zero_join_layers(m: &mut Metrics) {
    for k in ["planner.join_ns", "qo.choose_ns", "qo.dp_ns", "qo.regret"] {
        m.0.entry(k.into()).or_insert(0.0);
    }
}

/// Reopen a closed database from its files; returns the seconds taken.
pub fn reopen_s(dir: &Path) -> f64 {
    let t0 = Instant::now();
    let db = Database::open(dir).expect("reopen database");
    let s = t0.elapsed().as_secs_f64();
    drop(db);
    s
}

/// Write the run's spans (client side and per-layer) at the end.
pub fn write_trace(ctx: &Ctx, spans: &[Span]) {
    if let Err(e) = common::write_spans(&ctx.trace_out, spans) {
        eprintln!("perfbench: could not write spans: {e}");
    }
}
