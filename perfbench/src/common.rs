//! Shared harness: arguments, the durable database + TCP server under
//! test, wire clients, latency summaries, seeded generators and the
//! benchmark's own span recorder.

use neurdb_core::Database;
use neurdb_server::{Client, ClientError, Server, ServerConfig, ServerHandle};
use neurdb_storage::Value;
use neurdb_wal::DurableStoreOptions;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command-line arguments (`--workload --seed --seconds --trace`).
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
                "--seconds" => seconds = value.parse().map_err(|_| "bad --seconds")?,
                "--trace" => trace = value == "1",
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// splitmix64: the seeded hash every generator derives column values from.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A durable database behind a TCP server on an ephemeral localhost port.
pub struct Env {
    pub dir: PathBuf,
    pub db: Arc<Database>,
    pub server: Option<ServerHandle>,
    pub addr: SocketAddr,
}

impl Env {
    /// Open a fresh durable database in `dir` with `frames` buffer frames
    /// (0 keeps the default 4096) and the default WAL options: group
    /// commit with a 1 ms fsync interval.
    pub fn open(dir: &Path, frames: usize) -> Env {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create data dir");
        let opts = DurableStoreOptions {
            frames,
            ..Default::default()
        };
        let db = Arc::new(Database::open_with(dir, opts).expect("open durable database"));
        let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default())
            .expect("start server on localhost");
        let addr = server.local_addr();
        Env {
            dir: dir.to_path_buf(),
            db,
            server: Some(server),
            addr,
        }
    }

    pub fn connect(&self) -> Client {
        Client::connect(self.addr).expect("connect to server")
    }

    /// Drain the server and drop the database, leaving its files.
    pub fn close(mut self) -> PathBuf {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        self.dir.clone()
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// Bulk-load rows over the wire with multi-row INSERTs.
pub fn load(c: &mut Client, table: &str, n: usize, mut row: impl FnMut(usize) -> String) {
    let mut next = 0;
    while next < n {
        let end = (next + 1000).min(n);
        let mut sql = format!("INSERT INTO {table} VALUES ");
        for i in next..end {
            if i > next {
                sql.push(',');
            }
            let _ = write!(sql, "({})", row(i));
        }
        let got = c.affected(&sql).expect("bulk insert");
        assert_eq!(got as usize, end - next, "bulk insert count");
        next = end;
    }
}

/// Integer value of a result cell (INT, or an integral FLOAT).
pub fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
        _ => None,
    }
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn pct(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of an unsorted sample of floats.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Per-kind latency samples in nanoseconds.
#[derive(Default)]
pub struct Lat {
    pub by_kind: BTreeMap<&'static str, Vec<u64>>,
}

impl Lat {
    pub fn add(&mut self, kind: &'static str, d: Duration) {
        self.by_kind
            .entry(kind)
            .or_default()
            .push(d.as_nanos() as u64);
    }

    pub fn merge(&mut self, other: Lat) {
        for (k, mut v) in other.by_kind {
            self.by_kind.entry(k).or_default().append(&mut v);
        }
    }

    pub fn count(&self, kind: &str) -> usize {
        self.by_kind.get(kind).map_or(0, Vec::len)
    }

    /// Trimmed mean of `kind` in nanoseconds: the mean of the samples
    /// left after dropping the lowest and the highest tenth (0 when
    /// unsampled). Unlike the median it moves smoothly when latencies are
    /// bimodal, as they are when a share of operations waits behind
    /// another client's scan or runs while the machine is slower.
    pub fn tmean(&mut self, kind: &str) -> f64 {
        match self.by_kind.get_mut(kind) {
            Some(v) if !v.is_empty() => {
                v.sort_unstable();
                let cut = v.len() / 10;
                let kept = &v[cut..v.len() - cut];
                kept.iter().sum::<u64>() as f64 / kept.len() as f64
            }
            _ => 0.0,
        }
    }

    /// `q`-percentile of `kind` in nanoseconds (0 when unsampled).
    pub fn pct(&mut self, kind: &str, q: f64) -> f64 {
        match self.by_kind.get_mut(kind) {
            Some(v) => {
                v.sort_unstable();
                pct(v, q)
            }
            None => 0.0,
        }
    }
}

/// Outcome counters of a closed loop: operations attempted and failed
/// (errors, wrong answers, or transactions given up after retries).
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Aborted transaction attempts that were retried.
    pub retries: u64,
    /// Transactions still aborting at their deadline, rolled back and
    /// neither committed nor counted failed.
    pub abandoned: u64,
}

impl Tally {
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.retries += o.retries;
        self.abandoned += o.abandoned;
    }

    /// Count one transfer: abandoned ones are not attempts.
    pub fn transfer(&mut self, t: &crate::txn::Transfer) {
        self.retries += u64::from(t.aborts);
        if t.abandoned {
            self.abandoned += 1;
        } else {
            self.op(t.ok);
        }
    }
}

/// Everything one measured window produced.
#[derive(Default)]
pub struct Window {
    pub lat: Lat,
    pub tally: Tally,
    /// Operations counted by `ops_per_s`.
    pub ops: u64,
    pub elapsed: f64,
    pub spans: Vec<Span>,
    /// Operations per second of each slice, when run in slices.
    pub slice_rates: Vec<f64>,
}

impl Window {
    /// The median of the per-slice rates when the window ran in slices,
    /// so a stall confined to a few slices does not swing the figure.
    pub fn ops_per_s(&self) -> f64 {
        if self.slice_rates.is_empty() {
            self.ops as f64 / self.elapsed.max(1e-9)
        } else {
            median(&mut self.slice_rates.clone())
        }
    }

    /// Append a later window of the same run.
    pub fn absorb(&mut self, o: Window) {
        self.lat.merge(o.lat);
        self.tally.merge(o.tally);
        self.ops += o.ops;
        self.elapsed += o.elapsed;
        self.spans.extend(o.spans);
        self.slice_rates.extend(o.slice_rates);
    }
}

/// Draws from a fixed multiset in shuffled rounds: every round deals each
/// card once, so a run's operation mix matches its stated shares exactly
/// and only the order is random.
#[derive(Clone)]
pub struct Deck<T: Copy> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(cards: Vec<T>) -> Deck<T> {
        Deck {
            next: cards.len(),
            cards,
        }
    }

    pub fn draw(&mut self, rng: &mut impl rand::Rng) -> T {
        use rand::seq::SliceRandom;
        if self.next == self.cards.len() {
            self.cards.shuffle(rng);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Is `e` a transaction abort the client should retry?
pub fn is_abort(e: &ClientError) -> bool {
    matches!(e, ClientError::TxnAborted(_))
}

// ----------------------------- spans ---------------------------------

/// One span the benchmark recorded around a call into the program.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Request id shared by every span of one client operation.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span recorder: spans stay in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    /// Disjoint id space per thread (`thread << 40`).
    next: u64,
    on: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: u64, on: bool) -> Recorder {
        Recorder {
            epoch,
            next: thread << 40,
            on,
            spans: Vec::new(),
        }
    }

    /// Allocate a span id for a parent span opened before its children.
    pub fn open(&mut self) -> (u64, u64) {
        self.next += 1;
        (self.next, self.epoch.elapsed().as_nanos() as u64)
    }

    /// Close a span opened with [`Recorder::open`].
    pub fn close(
        &mut self,
        id: u64,
        parent: Option<u64>,
        req: u64,
        name: &'static str,
        start: u64,
    ) {
        if self.on {
            let end = self.epoch.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent,
                req,
                name,
                start_ns: start,
                end_ns: end,
            });
        }
    }

    /// Time `f` as a span; the elapsed time is returned either way.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let (id, start) = self.open();
        let t0 = Instant::now();
        let out = f();
        let d = t0.elapsed();
        self.close(id, parent, req, name, start);
        (out, d)
    }
}

/// Self time per span id: duration minus the union of its children.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(ch) = children.get_mut(&s.id) {
                ch.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in ch.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Median self time (ns) of the spans named `name`; 0 when none.
pub fn median_self_ns(spans: &[Span], selfs: &BTreeMap<u64, u64>, name: &str) -> f64 {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64)
        .collect();
    median(&mut v)
}

/// Write spans as one JSON object per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req,
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

// ---------------------------- keep-awake -----------------------------

/// One idle-priority spinning thread per core while it lives, so no core
/// halts while a client waits for its server thread: the user-space
/// counterpart of booting a latency benchmark host with `idle=poll`. On
/// the 2-vCPU tuning VM, single-connection point reads read p90 ≈ 100 µs
/// with it and 150–290 µs without, swinging with the host's load, while
/// inference and analytic query latencies did not move. It is not used
/// for whole runs: with every vCPU always busy, set-up read 20–30% slower.
/// `SCHED_IDLE` threads run only on a core no other thread wants, and a
/// waking thread preempts them at once.
pub struct KeepAwake {
    stop: Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

#[cfg(target_os = "linux")]
fn make_idle_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread and `param` outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn make_idle_priority() -> bool {
    false
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cores)
            .map(|_| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    // Spinning at normal priority would take CPU from the
                    // program under test: without idle priority, do nothing.
                    if !make_idle_priority() {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

// --------------------------- closed loop ------------------------------

/// How often a closed-loop client replaces its connection.
pub const RECONNECT_EVERY: Duration = Duration::from_millis(500);

/// Per-client state handed to a workload's step function.
pub struct Worker<S> {
    pub client: Client,
    pub rng: rand::rngs::StdRng,
    pub rec: Recorder,
    pub lat: Lat,
    pub tally: Tally,
    /// Next request id (`client << 32 | n`).
    pub req: u64,
    pub state: S,
}

impl<S> Worker<S> {
    pub fn next_req(&mut self) -> u64 {
        self.req += 1;
        self.req
    }
}

/// Drive `clients` closed-loop clients for `seconds`: each sends its next
/// operation only after the previous one answered. `step` runs one
/// operation and returns how many operations it counts for `ops_per_s`.
#[allow(clippy::too_many_arguments)]
pub fn drive<S>(
    env: &Env,
    clients: usize,
    seconds: f64,
    seed: u64,
    traced: bool,
    epoch: Instant,
    session: &[&str],
    init: impl Fn(usize) -> S + Sync,
    step: impl Fn(&mut Worker<S>) -> u64 + Sync,
) -> Window {
    use rand::SeedableRng;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Lat, Tally, u64, Vec<Span>, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let (init, step) = (&init, &step);
                s.spawn(move || {
                    let connect = || {
                        let mut c = env.connect();
                        if traced {
                            c.affected("SET trace = on").expect("arm tracing");
                        }
                        for sql in session {
                            c.affected(sql).expect("session setting");
                        }
                        c
                    };
                    let mut w = Worker {
                        client: connect(),
                        rng: rand::rngs::StdRng::seed_from_u64(
                            mix(seed ^ ((id as u64 + 1) * 0x51)),
                        ),
                        rec: Recorder::new(epoch, id as u64 + 1, traced),
                        lat: Lat::default(),
                        tally: Tally::default(),
                        req: (id as u64 + 1) << 32,
                        state: init(id),
                    };
                    let mut ops = 0;
                    let mut reconnect = Instant::now() + RECONNECT_EVERY;
                    while Instant::now() < deadline {
                        ops += step(&mut w);
                        if Instant::now() >= reconnect {
                            // A fresh connection gets a fresh server worker
                            // thread, so one run averages over where the
                            // scheduler places the client/worker pair.
                            let _ = std::mem::replace(&mut w.client, connect()).close();
                            reconnect += RECONNECT_EVERY;
                        }
                    }
                    let done = Instant::now();
                    if traced {
                        let _ = w.client.affected("SET trace = off");
                    }
                    let _ = w.client.close();
                    (w.lat, w.tally, ops, w.rec.spans, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut window = Window::default();
    let mut end = start;
    for (lat, tally, ops, spans, done) in results {
        end = end.max(done);
        window.absorb(Window {
            lat,
            tally,
            ops,
            spans,
            ..Window::default()
        });
    }
    window.elapsed = (end - start).as_secs_f64();
    window
}
