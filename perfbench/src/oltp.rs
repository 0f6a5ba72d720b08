//! `oltp_point`: a YCSB-style short-statement mix (90% point SELECT, 5%
//! UPDATE by key, 5% INSERT of a new key, zipf(0.99) keys) from two
//! clients against a 100k-row indexed table that fits the buffer pool.

use crate::common::{self, drive, int, mix, Deck, Env, Recorder, Tally, Worker};
use crate::layers;
use crate::probe::{self, Fam, Probe};
use crate::{measure, setup_repeated, Ctx, Metrics, Report};
use neurdb_core::Database;
use neurdb_server::Client;
use neurdb_storage::Value;
use neurdb_workloads::Zipf;
use rand::Rng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub const ROWS: usize = 100_000;
pub const CLIENTS: usize = 2;
const THETA: f64 = 0.99;
/// First key handed out to INSERTs; client `c` uses `NEW_KEY_BASE * (c + 1) + n`.
const NEW_KEY_BASE: i64 = 10_000_000;
const NATIVE: &[Fam] = &[Fam::Read, Fam::Update, Fam::Insert];

/// Column values of a key-value row: `(grp, v0, pad)`.
pub fn row(seed: u64, id: i64) -> (i64, i64, String) {
    let h = mix(seed ^ (id as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
    let pad = format!("{:016x}{:016x}{:08x}", mix(h), mix(h ^ 1), h as u32);
    (id % 100, (h % 1000) as i64, pad)
}

/// `CREATE TABLE name (id INT PRIMARY KEY, grp INT, v INT, pad TEXT)`,
/// loaded with `n` rows and indexed on `id`.
pub fn create(c: &mut Client, name: &str, n: usize, seed: u64) {
    c.affected(&format!(
        "CREATE TABLE {name} (id INT PRIMARY KEY, grp INT, v INT, pad TEXT)"
    ))
    .expect("create table");
    common::load(c, name, n, |i| {
        let (grp, v, pad) = row(seed, i as i64);
        format!("{i}, {grp}, {v}, '{pad}'")
    });
    c.affected(&format!("CREATE INDEX ON {name} (id)"))
        .expect("create index");
}

/// Does a point-SELECT answer match the generator, with `v` in `lo..=hi`?
pub fn row_ok(rs: &neurdb_server::RowSet, seed: u64, id: i64, (lo, hi): (i64, i64)) -> bool {
    if rs.rows.len() != 1 {
        return false;
    }
    let r = &rs.rows[0];
    let (grp, _, pad) = row(seed, id);
    let v = int(&r[2]).unwrap_or(i64::MIN);
    int(&r[0]) == Some(id)
        && int(&r[1]) == Some(grp)
        && r[3] == Value::Text(pad)
        && (lo..=hi).contains(&v)
}

pub fn point_sql(table: &str, id: i64) -> String {
    format!("SELECT id, grp, v, pad FROM {table} WHERE id = {id}")
}

pub fn update_sql(table: &str, id: i64) -> String {
    format!("UPDATE {table} SET v = v + 1 WHERE id = {id}")
}

/// An UPDATE that finds and rewrites its row but leaves `v` as it is, for
/// per-layer measurements that run before the output checks.
pub fn noop_update_sql(table: &str, id: i64) -> String {
    format!("UPDATE {table} SET v = v + 0 WHERE id = {id}")
}

pub fn insert_sql(table: &str, seed: u64, id: i64) -> String {
    let (grp, _, pad) = row(seed, id);
    format!("INSERT INTO {table} VALUES ({id}, {grp}, 0, '{pad}')")
}

/// Scrambled zipf keys, so the hot set depends on the seed.
pub struct Keys {
    zipf: Zipf,
    n: u64,
    offset: u64,
}

impl Keys {
    pub fn new(n: usize, theta: f64, seed: u64) -> Keys {
        Keys {
            zipf: Zipf::new(n as u64, theta),
            n: n as u64,
            offset: mix(seed) % n as u64,
        }
    }

    pub fn next(&self, rng: &mut impl Rng) -> i64 {
        let rank = self.zipf.sample(rng);
        ((rank.wrapping_mul(48_271) + self.offset) % self.n) as i64
    }
}

/// Shared bookkeeping the checks need: UPDATEs issued/acknowledged per
/// key and acknowledged INSERT keys.
struct Book {
    issued: Vec<AtomicU32>,
    acked: Vec<AtomicU32>,
    inserted: Mutex<Vec<i64>>,
}

#[derive(Clone, Copy)]
enum Op {
    Read,
    Update,
    Insert,
}

struct ClientState {
    next_new: i64,
    /// 18 reads, 1 update, 1 insert per 20 operations.
    mix: Deck<Op>,
}

/// One operation of the mix. Returns 1 (every statement counts).
fn step(w: &mut Worker<ClientState>, keys: &Keys, book: &Book, seed: u64) -> u64 {
    let req = w.next_req();
    let op = w.state.mix.draw(&mut w.rng);
    if let Op::Read = op {
        let k = keys.next(&mut w.rng);
        let sql = point_sql("kv", k);
        let (res, d) = w.rec.time("wire.read", None, req, || w.client.query(&sql));
        let ok = match res {
            Ok(rs) => {
                // v grew by at most the UPDATEs issued to k so far.
                let v0 = row(seed, k).1;
                let issued = book.issued[k as usize].load(Ordering::SeqCst);
                row_ok(&rs, seed, k, (v0, v0 + i64::from(issued)))
            }
            Err(_) => false,
        };
        w.tally.op(ok);
        w.lat.add("read", d);
    } else if let Op::Update = op {
        let k = keys.next(&mut w.rng);
        book.issued[k as usize].fetch_add(1, Ordering::SeqCst);
        let sql = update_sql("kv", k);
        let (res, d) = w
            .rec
            .time("wire.update", None, req, || w.client.affected(&sql));
        let ok = matches!(res, Ok(1));
        if ok {
            book.acked[k as usize].fetch_add(1, Ordering::SeqCst);
        }
        w.tally.op(ok);
        w.lat.add("update", d);
    } else {
        let id = w.state.next_new;
        w.state.next_new += 1;
        let sql = insert_sql("kv", seed, id);
        let (res, d) = w
            .rec
            .time("wire.insert", None, req, || w.client.affected(&sql));
        let ok = matches!(res, Ok(1));
        if ok {
            book.inserted.lock().expect("inserted keys").push(id);
        }
        w.tally.op(ok);
        w.lat.add("insert", d);
    }
    1
}

/// Reopen the database from its files alone and check every row of `kv`:
/// a loaded row holds its loaded `v` plus its acknowledged increments,
/// every other row is an acknowledged INSERT, and none is missing. This
/// runs after the traced run's per-layer writes too, so it also checks
/// that those left the data as it was. Returns the reopen time.
fn durability(dir: &std::path::Path, seed: u64, book: &Book, tally: &mut Tally) -> f64 {
    let t0 = Instant::now();
    let db = Database::open(dir).expect("reopen database");
    let recovery_s = t0.elapsed().as_secs_f64();
    let mut s = neurdb_core::SessionContext::new();
    let rows: Vec<(Option<i64>, Option<i64>)> = db
        .execute_in_session(&mut s, "SELECT id, v FROM kv")
        .ok()
        .and_then(|o| {
            o.rows().map(|r| {
                r.rows
                    .iter()
                    .map(|t| (int(&t.values[0]), int(&t.values[1])))
                    .collect()
            })
        })
        .unwrap_or_default();
    let inserted: std::collections::HashSet<i64> = book
        .inserted
        .lock()
        .expect("inserted keys")
        .iter()
        .copied()
        .collect();
    let (mut loaded, mut new) = (0, 0);
    for (id, v) in rows {
        let ok = match (id, v) {
            (Some(k), Some(v)) if (0..ROWS as i64).contains(&k) => {
                loaded += 1;
                let acked = book.acked[k as usize].load(Ordering::SeqCst);
                v == row(seed, k).1 + i64::from(acked)
            }
            (Some(k), Some(v)) => {
                new += 1;
                inserted.contains(&k) && v == 0
            }
            _ => false,
        };
        tally.op(ok);
    }
    tally.op(loaded == ROWS && new == inserted.len());
    recovery_s
}

pub fn run(ctx: &Ctx) -> Report {
    let seed = ctx.args.seed;
    let (env, setup_s) = setup_repeated(ctx, |dir| {
        let env = Env::open(dir, 0);
        let mut c = env.connect();
        create(&mut c, "kv", ROWS, seed);
        let _ = c.close();
        env.db.checkpoint().expect("checkpoint after load");
        env
    });
    // Not timed: the probe's side tables are not the workload's set-up.
    probe::setup(&env, seed, NATIVE);
    let keys = Keys::new(ROWS, THETA, seed);
    let book = Book {
        issued: (0..ROWS).map(|_| AtomicU32::new(0)).collect(),
        acked: (0..ROWS).map(|_| AtomicU32::new(0)).collect(),
        inserted: Mutex::new(Vec::new()),
    };
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    let window = |i: usize, secs: f64, traced: bool| {
        drive(
            &env,
            CLIENTS,
            secs,
            seed ^ (i as u64 + 1),
            traced,
            epoch,
            &[],
            |id| ClientState {
                next_new: NEW_KEY_BASE * (id as i64 + 1) + (i as i64 + 1) * 1_000_000,
                mix: Deck::new([[Op::Read; 18].as_slice(), &[Op::Update, Op::Insert]].concat()),
            },
            |w| step(w, &keys, &book, seed),
        )
    };

    // Warm-up: connections, caches and the zipf hot set.
    tally.merge(window(100, 1.0, false).tally);
    let mut probe = Probe::new(&env, seed, NATIVE);
    let mut measured = measure(ctx, &env, &mut probe, &mut tally, &mut m, window);
    m.set("ops_per_s", measured.plain.ops_per_s());
    let lat = &mut measured.plain.lat;
    m.set("read_tmean_us", lat.tmean("read") / 1e3);
    m.set("read_p90_us", lat.pct("read", 0.90) / 1e3);
    m.set("update_tmean_us", lat.tmean("update") / 1e3);
    m.set("update_p90_us", lat.pct("update", 0.90) / 1e3);
    m.set("insert_tmean_us", lat.tmean("insert") / 1e3);
    m.set("insert_p90_us", lat.pct("insert", 0.90) / 1e3);
    eprintln!(
        "oltp_point: {} reads, {} updates, {} inserts in {:.1} s",
        lat.count("read"),
        lat.count("update"),
        lat.count("insert"),
        measured.plain.elapsed
    );

    // Families this workload does not exercise come from the probe suite.
    probe.finish(ctx.args.trace, &mut m, &mut tally);

    if let Some((traced, delta, server)) = measured.traced {
        let key = |i: u64| (mix(seed ^ i) % ROWS as u64) as i64;
        let points: Vec<String> = (0..300).map(|i| point_sql("kv", key(i))).collect();
        let sample: Vec<String> = (0..400u64)
            .map(|i| match i % 20 {
                0 => update_sql("kv", key(i)),
                1 => insert_sql("kv", seed, NEW_KEY_BASE * 9 + i as i64),
                _ => point_sql("kv", key(i)),
            })
            .collect();
        let mut rec = Recorder::new(epoch, 20, true);
        layers::point_layers(&env, &mut m, &mut rec, &points, "kv", &sample);
        layers::exec_layers(&env, &mut m, &mut rec, &points[..100], 1, None);
        layers::heap_scan(&env, &mut m, &mut rec, "kv");
        layers::window_layers(&mut m, &measured.plain, &delta, &server);
        layers::pages_per_update(&env, &mut m, |i| noop_update_sql("kv", key(i + 1000)));
        layers::zero_join_layers(&mut m);
        let mut spans = traced.spans;
        spans.extend(rec.spans);
        layers::write_trace(ctx, &spans);
    }

    // Durability: drop the server and database, reopen from files.
    let dir = env.close();
    m.set("wal.recovery_s", durability(&dir, seed, &book, &mut tally));
    Report { tally, metrics: m }
}
