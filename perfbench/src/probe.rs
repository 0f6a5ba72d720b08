//! The probe suite: every workload reports every end-to-end metric, so
//! operation kinds a workload's own mix does not issue are measured here,
//! by one client in rounds between the slices of the workload's window,
//! against small side tables created after the workload's timed set-up,
//! in the same database and buffer pool. The probe's figures therefore
//! read the cost of that operation kind beside the workload's state, not
//! the workload's own traffic.

use crate::common::{int, mix, Deck, Env, KeepAwake, Lat, Recorder, Tally};
use crate::layers;
use crate::oltp::{self, Keys};
use crate::predict::{self, Tables};
use crate::txn;
use crate::Metrics;
use neurdb_server::Client;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Fam {
    Read,
    Update,
    Insert,
    Txn,
    Query,
    Predict,
}

pub const KV: &str = "probe_kv";
pub const KV_ROWS: usize = 2_000;
/// Samples per latency family: the reported tail percentile keeps at
/// least 10 samples beyond it.
const READS: usize = 3_000;
const WRITES: usize = 400;
const TXNS: usize = 400;
const QUERIES: usize = 1_000;
const INFERS: usize = 600;
const AI_ROWS: usize = 4_000;
/// Probe PREDICT tables, one first-use training each.
const AI_TABLES: usize = 10;
/// Time one round's transfers may take: a transfer still aborting then is
/// abandoned and the round starts no more (bounds a run under an abort
/// storm of the learned CC policy).
const TXN_BUDGET: std::time::Duration = std::time::Duration::from_secs(2);
/// Probe rounds; one runs after each slice of the workload's window.
pub const ROUNDS: usize = 10;
/// Operations one probe connection serves before it is replaced. A fresh
/// connection gets a fresh server worker thread, so a round's samples
/// average over where the scheduler places the client/worker pair
/// instead of taking one placement for the whole round.
const OPS_PER_CONN: usize = 10;

/// Replace `c` before operation `i` of a family when its share is used up.
fn recycle(env: &Env, c: &mut Client, i: usize) {
    if i > 0 && i.is_multiple_of(OPS_PER_CONN) {
        let _ = std::mem::replace(c, env.connect()).close();
    }
}

fn ai_tables() -> Tables {
    Tables {
        prefix: "probe_ai".into(),
        rows: AI_ROWS,
        regression: AI_TABLES,
        classify: false,
    }
}

/// Create the side tables for the families `native` leaves out, after
/// the workload's timed set-up, and checkpoint them.
pub fn setup(env: &Env, seed: u64, native: &[Fam]) {
    let mut c = env.connect();
    // The key-value table also serves the per-layer point lookups.
    oltp::create(&mut c, KV, KV_ROWS, seed);
    if !native.contains(&Fam::Predict) {
        ai_tables().create(&mut c, seed);
    }
    let _ = c.close();
    env.db.checkpoint().expect("checkpoint after probe load");
}

/// Expected `(grp, COUNT(*))` of `SELECT grp, COUNT(*) FROM probe_kv
/// WHERE id < x GROUP BY grp`.
fn group_counts(x: i64) -> Vec<(i64, i64)> {
    (0..100)
        .filter(|&g| g < x)
        .map(|g| (g, (x - 1 - g) / 100 + 1))
        .collect()
}

/// The probe's running state: it runs in rounds, one after each slice of
/// the workload's window, so its samples spread over the whole run.
pub struct Probe<'a> {
    env: &'a Env,
    seed: u64,
    native: &'static [Fam],
    rng: StdRng,
    rec: Recorder,
    lat: Lat,
    tally: Tally,
    keys: Keys,
    /// Exact `v` of every probe_kv row: the probe is its only writer.
    v: Vec<i64>,
    inserted: i64,
    /// The `x` of each round's grouped aggregates: the same evenly spaced
    /// values every round, so every round does the same work.
    bounds: Deck<i64>,
    tables: Tables,
    trained: usize,
    filters: Deck<(usize, i64)>,
    errs: Vec<f64>,
    /// Counter deltas over the rounds' transactions.
    cc: Option<layers::Delta>,
    /// Rounds run so far.
    done: usize,
}

impl<'a> Probe<'a> {
    pub fn new(env: &'a Env, seed: u64, native: &'static [Fam]) -> Probe<'a> {
        let tables = ai_tables();
        Probe {
            env,
            seed,
            native,
            rng: StdRng::seed_from_u64(mix(seed ^ 0x9120BE)),
            rec: Recorder::new(Instant::now(), 7, false),
            lat: Lat::default(),
            tally: Tally::default(),
            keys: Keys::new(KV_ROWS, 0.9, seed),
            v: (0..KV_ROWS as i64).map(|k| oltp::row(seed, k).1).collect(),
            inserted: 0,
            bounds: {
                let per = QUERIES / ROUNDS;
                let step = (KV_ROWS / per) as i64;
                let off = (mix(seed) % step as u64) as i64;
                Deck::new((0..per as i64).map(|j| 1 + j * step + off).collect())
            },
            filters: tables.filters(0),
            tables,
            trained: 0,
            errs: Vec::new(),
            cc: None,
            done: 0,
        }
    }

    fn want(&self, f: Fam) -> bool {
        !self.native.contains(&f)
    }

    /// One round: 1/[`ROUNDS`] of each family's samples, with every core
    /// kept awake (see [`KeepAwake`]): the probe's single connection
    /// leaves a core idle while it waits for each answer.
    pub fn round(&mut self) {
        let seed = self.seed;
        self.done += 1;
        let _awake = KeepAwake::start();
        let mut c = self.env.connect();
        if self.want(Fam::Read) {
            for i in 0..READS / ROUNDS {
                recycle(self.env, &mut c, i);
                let k = self.keys.next(&mut self.rng);
                let t0 = Instant::now();
                let res = c.query(&oltp::point_sql(KV, k));
                self.lat.add("read", t0.elapsed());
                let v = self.v[k as usize];
                self.tally
                    .op(res.is_ok_and(|rs| oltp::row_ok(&rs, seed, k, (v, v))));
            }
        }
        if self.want(Fam::Update) {
            for i in 0..WRITES / ROUNDS {
                recycle(self.env, &mut c, i);
                let k = self.keys.next(&mut self.rng);
                let t0 = Instant::now();
                let res = c.affected(&oltp::update_sql(KV, k));
                self.lat.add("update", t0.elapsed());
                let ok = matches!(res, Ok(1));
                if ok {
                    self.v[k as usize] += 1;
                }
                self.tally.op(ok);
            }
        }
        if self.want(Fam::Insert) {
            for i in 0..WRITES / ROUNDS {
                recycle(self.env, &mut c, i);
                let id = 1_000_000 + self.inserted;
                self.inserted += 1;
                let t0 = Instant::now();
                let res = c.affected(&oltp::insert_sql(KV, seed, id));
                self.lat.add("insert", t0.elapsed());
                self.tally.op(matches!(res, Ok(1)));
            }
        }
        if self.want(Fam::Txn) {
            let phase = layers::Phase::begin(&self.env.db);
            let deadline = Instant::now() + TXN_BUDGET;
            for i in 0..TXNS / ROUNDS {
                recycle(self.env, &mut c, i);
                if Instant::now() >= deadline {
                    break;
                }
                let (k1, k2, d) = txn::pick(&self.keys, &mut self.rng);
                let t = txn::transfer(
                    &mut c,
                    &mut self.rng,
                    &mut self.rec,
                    &mut self.lat,
                    i as u64,
                    KV,
                    (k1, k2, d),
                    deadline,
                );
                if t.ok {
                    self.v[k1 as usize] -= d;
                    self.v[k2 as usize] += d;
                }
                self.tally.transfer(&t);
            }
            let d = phase.counters(&self.env.db);
            match &mut self.cc {
                Some(acc) => acc.absorb(d),
                None => self.cc = Some(d),
            }
        }
        if self.want(Fam::Query) {
            for i in 0..QUERIES / ROUNDS {
                recycle(self.env, &mut c, i);
                let x = self.bounds.draw(&mut self.rng);
                let sql = format!("SELECT grp, COUNT(*) FROM {KV} WHERE id < {x} GROUP BY grp");
                let t0 = Instant::now();
                let res = c.query(&sql);
                self.lat.add("query", t0.elapsed());
                let ok = res.is_ok_and(|rs| {
                    let mut got: Vec<(i64, i64)> = rs
                        .rows
                        .iter()
                        .filter_map(|r| Some((int(&r[0])?, int(&r[1])?)))
                        .collect();
                    got.sort_unstable();
                    got == group_counts(x)
                });
                self.tally.op(ok);
            }
        }
        if self.want(Fam::Predict) {
            // First-use trainings are spread over the rounds too: one each.
            if self.trained < AI_TABLES {
                let errs = self.tables.train_one(
                    &mut c,
                    seed,
                    self.trained,
                    &mut self.lat,
                    &mut self.tally,
                    &mut self.rec,
                );
                self.errs.extend(errs);
                self.trained += 1;
                self.filters = self.tables.filters(self.trained);
            }
            for i in 0..INFERS / ROUNDS {
                recycle(self.env, &mut c, i);
                let filter = self.filters.draw(&mut self.rng);
                self.tables.infer(
                    &mut c,
                    seed,
                    filter,
                    &mut self.lat,
                    &mut self.tally,
                    &mut self.rec,
                    i as u64,
                );
            }
        }
        let _ = c.close();
    }

    /// Check what the probe wrote, and set the end-to-end metrics of the
    /// families it measured (and, when `trace`, the per-layer metrics only
    /// it exercises).
    pub fn finish(mut self, trace: bool, m: &mut Metrics, tally: &mut Tally) {
        assert_eq!(self.done, ROUNDS, "every probe round ran");
        let (env, seed, lat) = (self.env, self.seed, &mut self.lat);
        // Inserted rows carry v = 0, so SUM(v) is the tracked sum.
        let mut c = env.connect();
        let want_sum = (self.v.iter().sum(), KV_ROWS as i64 + self.inserted);
        self.tally.op(txn::sum_count(&mut c, KV) == Some(want_sum));
        let want = |f: Fam| !self.native.contains(&f);
        if want(Fam::Read) {
            m.set("read_tmean_us", lat.tmean("read") / 1e3);
            m.set("read_p90_us", lat.pct("read", 0.90) / 1e3);
        }
        if want(Fam::Update) {
            m.set("update_tmean_us", lat.tmean("update") / 1e3);
            m.set("update_p90_us", lat.pct("update", 0.90) / 1e3);
        }
        if want(Fam::Insert) {
            m.set("insert_tmean_us", lat.tmean("insert") / 1e3);
            m.set("insert_p90_us", lat.pct("insert", 0.90) / 1e3);
        }
        if want(Fam::Txn) {
            m.set("txn_tmean_us", lat.tmean("txn") / 1e3);
            m.set("txn_p90_us", lat.pct("txn", 0.90) / 1e3);
            if trace {
                let delta = self.cc.take().expect("probe ran transactions");
                layers::cc_layers(m, &delta, &self.tally, lat.count("txn") as u64);
                layers::txn_layers(m, lat);
                layers::autocommit_stmt(&mut c, m, KV, |i| (mix(seed ^ i) % KV_ROWS as u64) as i64);
            }
        }
        if want(Fam::Query) {
            m.set("query_tmean_ms", lat.tmean("query") / 1e6);
            m.set("query_p90_ms", lat.pct("query", 0.90) / 1e6);
        }
        if want(Fam::Predict) {
            m.set("train_s", lat.tmean("train") / 1e9);
            m.set("predict_rmse", Tables::rmse(&self.errs, &mut self.tally));
            m.set("infer_tmean_ms", lat.tmean("infer") / 1e6);
            if trace {
                predict::engine_layers(env, m, seed, AI_ROWS);
            }
        }
        let _ = c.close();
        tally.merge(self.tally);
    }
}
