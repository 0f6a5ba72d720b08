//! NeurDB-RS benchmark: three closed-loop workloads driven over the TCP
//! server against a durable database, with a traced per-layer breakdown.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload oltp_point --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Workloads,
//! sizes and the per-layer → end-to-end mapping are described in
//! `perfbench/README.md`.

mod analytics;
mod common;
mod layers;
mod oltp;
mod predict;
mod probe;
mod txn;

use common::{Args, Env, Tally, Window};
use layers::{Delta, Phase, SpanCollector};
use neurdb_obs::trace::FinishedTrace;
use probe::Probe;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// End-to-end metrics (name, unit), reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_tmean_us", "us"),
    ("read_p90_us", "us"),
    ("update_tmean_us", "us"),
    ("update_p90_us", "us"),
    ("insert_tmean_us", "us"),
    ("insert_p90_us", "us"),
    ("txn_tmean_us", "us"),
    ("txn_p90_us", "us"),
    ("query_tmean_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("train_s", "s"),
    ("infer_tmean_ms", "ms"),
    ("predict_rmse", "score"),
];

/// Physical operator kinds whose self time is reported per query.
pub const OP_KINDS: &[&str] = &[
    "SeqScan",
    "IndexScan",
    "Exchange",
    "PartialHashAggregate",
    "HashJoin",
    "PartitionedHashJoin",
    "NestedLoopJoin",
    "Filter",
    "Reorder",
    "HashAggregate",
    "Project",
    "Sort",
    "Limit",
];

/// Per-layer metrics (name, unit), reported with `--trace 1`; the
/// `exec.op.<kind>_ns` family is appended from [`OP_KINDS`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.overhead_us", "us"),
    ("server.bytes_per_op", "B"),
    ("sql.parse_ns", "ns"),
    ("planner.point_ns", "ns"),
    ("planner.join_ns", "ns"),
    ("qo.choose_ns", "ns"),
    ("qo.dp_ns", "ns"),
    ("qo.regret", "ratio"),
    ("exec.rows_examined_per_row_out", "ratio"),
    ("exec.worker_busy_share", "ratio"),
    ("buffer.hit_ratio", "ratio"),
    ("buffer.misses_per_query", "count"),
    ("buffer.evictions_per_query", "count"),
    ("buffer.pages_per_update", "count"),
    ("btree.lookup_ns", "ns"),
    ("heap.scan_ns_per_page", "ns"),
    ("wal.fsyncs_per_commit", "ratio"),
    ("wal.group_ride_ratio", "ratio"),
    ("wal.fsync_ns_p50", "ns"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.recovery_s", "s"),
    ("txn.commit_lock_wait_ns", "ns"),
    ("txn.in_txn_stmt_us", "us"),
    ("txn.autocommit_stmt_us", "us"),
    ("txn.commit_us", "us"),
    ("txn.abandoned", "count"),
    ("cc.abort_ratio", "ratio"),
    ("cc.adaptations", "count"),
    ("cc.decisions", "count"),
    ("engine.train_compute_s", "s"),
    ("engine.stream_wait_s", "s"),
    ("engine.train_samples_per_s", "1/s"),
    ("nn.infer_us_per_row", "us"),
    ("predict.scan_share", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

/// Metric values by name, filled in by a workload run.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// What one run hands back to `main`; it is correct when no operation or
/// check failed.
pub struct Report {
    pub tally: Tally,
    pub metrics: Metrics,
}

/// Per-run context shared by the workloads.
pub struct Ctx {
    pub args: Args,
    /// Scratch directory for this run's databases (removed at exit).
    pub dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
}

/// Time `SETUP_REPEATS` full set-ups into fresh directories and keep the
/// last; returns it with the median set-up time.
pub fn setup_repeated<E>(ctx: &Ctx, mut setup: impl FnMut(&Path) -> E) -> (E, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        let dir = ctx.dir.join(format!("setup{i}"));
        let t0 = Instant::now();
        let env = setup(&dir);
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUP_REPEATS {
            kept = Some(env);
        } else {
            drop(env);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    (
        kept.expect("at least one set-up"),
        common::median(&mut times),
    )
}

/// What the measured window produced.
pub struct Measured {
    /// The untraced slices: all of them with `--trace 0`, every other
    /// one with `--trace 1`.
    pub plain: Window,
    /// `--trace 1` only: the traced slices, the counter deltas of the
    /// untraced ones, and the server's statement traces.
    pub traced: Option<(Window, Delta, Vec<Arc<FinishedTrace>>)>,
}

/// Run the measured window; `window(i, seconds, traced)` runs one slice.
/// The window runs in [`probe::ROUNDS`] slices, each followed by one
/// probe round, so the workload's and the probe's samples both spread
/// over the whole run: the tuning machine's speed drifts over seconds.
/// With `--trace 1` every other slice is traced, so first-use work and
/// drift fall on both sides of `obs.trace_overhead` alike.
pub fn measure(
    ctx: &Ctx,
    env: &Env,
    probe: &mut Probe,
    tally: &mut Tally,
    m: &mut Metrics,
    mut window: impl FnMut(usize, f64, bool) -> Window,
) -> Measured {
    let trace = ctx.args.trace;
    let secs = ctx.args.seconds / probe::ROUNDS as f64;
    let collector = trace.then(|| SpanCollector::start(env.db.clone()));
    let (mut plain, mut traced) = (Window::default(), Window::default());
    let mut delta: Option<Delta> = None;
    for i in 0..probe::ROUNDS {
        let on = trace && i % 2 == 1;
        let phase = Phase::begin(&env.db);
        let mut w = window(i, secs, on);
        w.slice_rates = vec![w.ops_per_s()];
        if on {
            traced.absorb(w);
        } else {
            let d = phase.counters(&env.db);
            match &mut delta {
                Some(acc) => acc.absorb(d),
                None => delta = Some(d),
            }
            plain.absorb(w);
        }
        probe.round();
    }
    tally.merge(plain.tally);
    tally.merge(traced.tally);
    let traced = collector.map(|c| {
        m.set("obs.trace_overhead", traced.ops_per_s() / plain.ops_per_s());
        (traced, delta.expect("an untraced slice ran"), c.stop())
    });
    Measured { plain, traced }
}

fn render(report: &Report, trace: bool) -> Result<String, String> {
    let mut names: Vec<(String, &str)> = Vec::new();
    if trace {
        names.extend(PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)));
        names.extend(OP_KINDS.iter().map(|k| (format!("exec.op.{k}_ns"), "ns")));
    } else {
        names.extend(END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)));
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = *report
            .metrics
            .0
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    Ok(out)
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cwd = std::env::current_dir().expect("current directory");
    let dir = cwd
        .join(".perfbench")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let trace_out = cwd
        .join(".perfbench")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let trace = args.trace;
    let ctx = Ctx {
        args,
        dir: dir.clone(),
        trace_out,
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match ctx.args.workload.as_str() {
            "oltp_point" => Ok(oltp::run(&ctx)),
            "analytics_join" => Ok(analytics::run(&ctx)),
            "predict_ai" => Ok(predict::run(&ctx)),
            other => Err(format!("unknown workload {other}")),
        }
    }));
    let _ = std::fs::remove_dir_all(&dir);
    let line = match outcome {
        Ok(Ok(report)) => render(&report, trace),
        Ok(Err(e)) => Err(e),
        Err(_) => Err("workload panicked".to_string()),
    };
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
