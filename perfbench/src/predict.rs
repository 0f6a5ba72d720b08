//! `predict_ai`: the paper's Listing 1 served over the wire. Each run
//! trains one model per fresh 20k-row table on its first-use `PREDICT …
//! TRAIN ON * WITH …`, then streams inference PREDICTs with varying
//! WHERE filters; one table is a `PREDICT CLASS OF` task.

use crate::common::{self, drive, mix, Deck, Env, Lat, Recorder, Tally, Window, Worker};
use crate::layers;
use crate::probe::{self, Fam, Probe};
use crate::{measure, setup_repeated, Ctx, Metrics, Report};
use neurdb_core::{Output, SessionContext};
use neurdb_server::{Client, Response, RowSet};
use neurdb_storage::Value;
use std::time::Instant;

pub const ROWS: usize = 20_000;
const REGRESSION_TABLES: usize = 9;
/// Held-out brand: its target is NULL and is what PREDICT fills in.
const HELD_OUT: &str = "brand0";
/// Fixed correctness bounds on the held-out rows.
pub const MAX_RMSE: f64 = 1.2;
pub const MIN_ACCURACY: f64 = 0.75;
const NATIVE: &[Fam] = &[Fam::Predict];

/// Features of row `id`: `(brand, stars 1..=5, helpful 0..=19, region 0..=9)`.
fn features(seed: u64, table: u64, id: i64) -> (u64, i64, i64, i64) {
    let h = mix(seed ^ table.wrapping_mul(0x9E37) ^ (id as u64).wrapping_mul(0x2545_F491));
    (
        h % 5,
        (h >> 8) as i64 % 5 + 1,
        (h >> 16) as i64 % 20,
        (h >> 24) as i64 % 10,
    )
}

/// The generator's noiseless target of regression table `variant`.
pub fn target(variant: u64, stars: i64, helpful: i64, region: i64) -> f64 {
    let (s, h, r) = (stars as f64, helpful as f64, region as f64);
    match variant % 3 {
        0 => 0.8 * s + 0.1 * h,
        1 => 0.5 * s + 0.3 * r,
        _ => s * s / 5.0 + 0.05 * h * r,
    }
}

/// The generator's noiseless label of the classification table.
fn label(stars: i64, helpful: i64) -> bool {
    stars * 4 + helpful > 22
}

/// A regression table after Listing 1:
/// `(id, brand_name, stars, helpful, region, score)`; the held-out
/// brand's score is NULL. Returns the held-out row count.
pub fn create_regression(c: &mut Client, name: &str, variant: u64, n: usize, seed: u64) -> usize {
    c.affected(&format!(
        "CREATE TABLE {name} (id INT PRIMARY KEY, brand_name TEXT, stars INT, \
         helpful INT, region INT, score FLOAT)"
    ))
    .expect("create table");
    let mut held = 0;
    common::load(c, name, n, |i| {
        let (b, s, h, r) = features(seed, variant, i as i64);
        let score = if b == 0 {
            held += 1;
            "NULL".to_string()
        } else {
            let noise = (mix(seed ^ 0xA11CE ^ i as u64) % 1000) as f64 / 1000.0 - 0.5;
            format!("{:.4}", target(variant, s, h, r) + 0.4 * noise)
        };
        format!("{i}, 'brand{b}', {s}, {h}, {r}, {score}")
    });
    held
}

/// The classification table `(id, brand_name, stars, helpful, region,
/// good BOOL)`; held-out rows have a NULL label.
fn create_classification(c: &mut Client, name: &str, n: usize, seed: u64) -> usize {
    c.affected(&format!(
        "CREATE TABLE {name} (id INT PRIMARY KEY, brand_name TEXT, stars INT, \
         helpful INT, region INT, good BOOL)"
    ))
    .expect("create table");
    let mut held = 0;
    common::load(c, name, n, |i| {
        let (b, s, h, r) = features(seed, 99, i as i64);
        let good = if b == 0 {
            held += 1;
            "NULL".to_string()
        } else {
            label(s, h).to_string()
        };
        format!("{i}, 'brand{b}', {s}, {h}, {r}, {good}")
    });
    held
}

/// Rows of table `variant` the filter `brand = held-out AND stars = s` selects.
fn held_count(seed: u64, variant: u64, n: usize, stars: Option<i64>) -> usize {
    (0..n as i64)
        .filter(|&i| {
            let (b, s, _, _) = features(seed, variant, i);
            b == 0 && stars.is_none_or(|x| x == s)
        })
        .count()
}

fn col(rs: &RowSet, name: &str) -> Option<usize> {
    rs.columns.iter().position(|c| c == name)
}

/// Squared errors of regression predictions against the noiseless target.
fn squared_errors(rs: &RowSet, variant: u64) -> Option<Vec<f64>> {
    let (s, h, r, p) = (
        col(rs, "stars")?,
        col(rs, "helpful")?,
        col(rs, "region")?,
        col(rs, "predicted_score")?,
    );
    rs.rows
        .iter()
        .map(|row| {
            let pred = row[p].as_f64()?;
            let want = target(
                variant,
                common::int(&row[s])?,
                common::int(&row[h])?,
                common::int(&row[r])?,
            );
            pred.is_finite().then_some((pred - want).powi(2))
        })
        .collect()
}

fn regression_sql(table: &str, filter: &str) -> String {
    format!(
        "PREDICT VALUE OF score FROM {table} WHERE brand_name = '{HELD_OUT}'{filter} \
         TRAIN ON * WITH brand_name <> '{HELD_OUT}'"
    )
}

/// One PREDICT over the wire: `(trained, rows)` on success.
fn predict(c: &mut Client, sql: &str) -> Option<(bool, RowSet)> {
    match c.execute(sql) {
        Ok(Response::Prediction { trained, rows, .. }) => Some((trained, rows)),
        _ => None,
    }
}

/// A set of PREDICT tables and what their checks need.
pub struct Tables {
    pub prefix: String,
    pub rows: usize,
    /// Regression tables `<prefix>0..`.
    pub regression: usize,
    /// Whether a classification table `<prefix>c` exists.
    pub classify: bool,
}

impl Tables {
    fn name(&self, i: usize) -> String {
        format!("{}{i}", self.prefix)
    }

    fn class_name(&self) -> String {
        format!("{}c", self.prefix)
    }

    pub fn create(&self, c: &mut Client, seed: u64) {
        for i in 0..self.regression {
            create_regression(c, &self.name(i), i as u64, self.rows, seed);
        }
        if self.classify {
            create_classification(c, &self.class_name(), self.rows, seed);
        }
    }

    /// First-use `PREDICT CLASS OF` on the classification table: trains
    /// its model; checks row count and accuracy on the held-out rows.
    pub fn train_class(
        &self,
        c: &mut Client,
        seed: u64,
        lat: &mut Lat,
        tally: &mut Tally,
        rec: &mut Recorder,
    ) {
        {
            let table = self.class_name();
            let sql = format!(
                "PREDICT CLASS OF good FROM {table} WHERE brand_name = '{HELD_OUT}' \
                 TRAIN ON * WITH brand_name <> '{HELD_OUT}'"
            );
            let (res, d) = rec.time("wire.predict_train", None, 100, || predict(c, &sql));
            lat.add("train", d);
            let ok = res.is_some_and(|(trained, rs)| {
                let (Some(s), Some(h), Some(p)) = (
                    col(&rs, "stars"),
                    col(&rs, "helpful"),
                    col(&rs, "predicted_good"),
                ) else {
                    return false;
                };
                let right = rs
                    .rows
                    .iter()
                    .filter(|r| {
                        let want = label(
                            common::int(&r[s]).unwrap_or(0),
                            common::int(&r[h]).unwrap_or(0),
                        );
                        r[p] == Value::Bool(want)
                    })
                    .count();
                let accuracy = right as f64 / rs.rows.len().max(1) as f64;
                trained
                    && rs.rows.len() == held_count(seed, 99, self.rows, None)
                    && accuracy >= MIN_ACCURACY
            });
            tally.op(ok);
        }
    }

    /// Every `(regression table, stars filter)` pair an inference may use
    /// once the first `trained` tables have their models.
    pub fn filters(&self, trained: usize) -> Deck<(usize, i64)> {
        Deck::new(
            (0..trained.max(1))
                .flat_map(|i| (1..=5).map(move |s| (i, s)))
                .collect(),
        )
    }

    /// First-use PREDICT on regression table `i`: trains its model and
    /// predicts the held-out rows; returns their squared errors.
    pub fn train_one(
        &self,
        c: &mut Client,
        seed: u64,
        i: usize,
        lat: &mut Lat,
        tally: &mut Tally,
        rec: &mut Recorder,
    ) -> Vec<f64> {
        let sql = regression_sql(&self.name(i), "");
        let (res, d) = rec.time("wire.predict_train", None, 1 + i as u64, || {
            predict(c, &sql)
        });
        lat.add("train", d);
        let errs = match res {
            Some((true, rs)) if rs.rows.len() == held_count(seed, i as u64, self.rows, None) => {
                squared_errors(&rs, i as u64)
            }
            _ => None,
        };
        tally.op(errs.is_some());
        errs.unwrap_or_default()
    }

    /// One inference PREDICT on a trained regression table, filtered to
    /// one stars value (the model is already trained, so nothing trains).
    #[allow(clippy::too_many_arguments)]
    pub fn infer(
        &self,
        c: &mut Client,
        seed: u64,
        (i, stars): (usize, i64),
        lat: &mut Lat,
        tally: &mut Tally,
        rec: &mut Recorder,
        req: u64,
    ) {
        let sql = regression_sql(&self.name(i), &format!(" AND stars = {stars}"));
        let (res, d) = rec.time("wire.predict_infer", None, req, || predict(c, &sql));
        lat.add("infer", d);
        let want = held_count(seed, i as u64, self.rows, Some(stars));
        let ok = res.is_some_and(|(trained, rs)| {
            !trained
                && rs.rows.len() == want
                && squared_errors(&rs, i as u64).is_some_and(|e| e.iter().all(|x| x.is_finite()))
        });
        tally.op(ok);
    }

    /// Root mean squared error of pooled squared errors, checked against
    /// [`MAX_RMSE`].
    pub fn rmse(errs: &[f64], tally: &mut Tally) -> f64 {
        let rmse = (errs.iter().sum::<f64>() / errs.len().max(1) as f64).sqrt();
        tally.op(!errs.is_empty() && rmse <= MAX_RMSE);
        rmse
    }
}

/// Per-layer metrics of the AI engine, from an embedded replay: a fresh
/// copy of regression table 0 trained through `Database::execute_in_session`
/// (its `PredictionReport.train_outcome`), then `PREDICT … VALUES`
/// inference and the scan share of a filtered PREDICT.
pub fn engine_layers(env: &Env, m: &mut Metrics, seed: u64, rows: usize) {
    let table = "replay_t";
    let mut c = env.connect();
    create_regression(&mut c, table, 0, rows, seed);
    let _ = c.close();
    let db = &env.db;
    let mut s = SessionContext::new();
    let out = db
        .execute_in_session(&mut s, &regression_sql(table, ""))
        .expect("embedded first-use PREDICT");
    let Output::Prediction(report) = out else {
        panic!("PREDICT returned no prediction")
    };
    let t = report.train_outcome.expect("first use trains");
    m.set("engine.train_compute_s", t.compute_seconds);
    m.set("engine.stream_wait_s", t.wait_seconds);
    m.set("engine.train_samples_per_s", t.throughput());

    // Inference without a scan: 256 feature rows inline.
    let values: Vec<String> = (0..256)
        .map(|i| {
            let (_, st, h, r) = features(seed, 0, i);
            format!("('brand{}', {st}, {h}, {r})", 1 + i % 4)
        })
        .collect();
    let values_sql = format!(
        "PREDICT VALUE OF score FROM {table} TRAIN ON * WITH brand_name <> '{HELD_OUT}' VALUES {}",
        values.join(", ")
    );
    let mut per_row = Vec::new();
    let mut scan = Vec::new();
    let mut full = Vec::new();
    for i in 0..15 {
        let t0 = Instant::now();
        let out = db
            .execute_in_session(&mut s, &values_sql)
            .expect("VALUES PREDICT");
        per_row.push(t0.elapsed().as_secs_f64() * 1e6 / 256.0);
        assert_eq!(out.rows().map(|r| r.rows.len()), Some(256));
        let stars = 1 + i % 5;
        let t0 = Instant::now();
        db.execute_in_session(
            &mut s,
            &format!(
                "SELECT brand_name, stars, helpful, region FROM {table} \
                 WHERE brand_name = '{HELD_OUT}' AND stars = {stars}"
            ),
        )
        .expect("scan SELECT");
        scan.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        db.execute_in_session(
            &mut s,
            &regression_sql(table, &format!(" AND stars = {stars}")),
        )
        .expect("filtered PREDICT");
        full.push(t0.elapsed().as_secs_f64());
    }
    m.set("nn.infer_us_per_row", common::median(&mut per_row));
    m.set(
        "predict.scan_share",
        common::median(&mut scan) / common::median(&mut full),
    );
}

pub fn run(ctx: &Ctx) -> Report {
    let seed = ctx.args.seed;
    let tables = Tables {
        prefix: "review".into(),
        rows: ROWS,
        regression: REGRESSION_TABLES,
        classify: true,
    };
    let (env, setup_s) = setup_repeated(ctx, |dir| {
        let env = Env::open(dir, 0);
        let mut c = env.connect();
        tables.create(&mut c, seed);
        let _ = c.close();
        env.db.checkpoint().expect("checkpoint after load");
        env
    });
    // Not timed: the probe's side tables are not the workload's set-up.
    probe::setup(&env, seed, NATIVE);
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);

    // First use trains one model per table inside the measured window:
    // the trainings are spread over its slices, and inference uses
    // trained tables only.
    let models = REGRESSION_TABLES + 1;
    let mut trained = 0;
    let mut errs = Vec::new();
    let mut train_rec = Recorder::new(epoch, 9, ctx.args.trace);
    let window = |i: usize, secs: f64, traced: bool| {
        let due = ((i + 1) * models).div_ceil(probe::ROUNDS);
        let mut w = Window::default();
        let t0 = Instant::now();
        let mut c = env.connect();
        while trained < due.min(models) {
            if trained < REGRESSION_TABLES {
                errs.extend(tables.train_one(
                    &mut c,
                    seed,
                    trained,
                    &mut w.lat,
                    &mut w.tally,
                    &mut train_rec,
                ));
            } else {
                tables.train_class(&mut c, seed, &mut w.lat, &mut w.tally, &mut train_rec);
            }
            trained += 1;
            w.ops += 1;
        }
        let _ = c.close();
        w.elapsed = t0.elapsed().as_secs_f64();
        let filters = tables.filters(trained.min(REGRESSION_TABLES));
        w.absorb(drive(
            &env,
            1,
            (secs - w.elapsed).max(secs / 2.0),
            seed ^ (i as u64 + 1),
            traced,
            epoch,
            &[],
            |_| Deck::clone(&filters),
            |w: &mut Worker<Deck<(usize, i64)>>| {
                let req = w.next_req();
                let filter = w.state.draw(&mut w.rng);
                tables.infer(
                    &mut w.client,
                    seed,
                    filter,
                    &mut w.lat,
                    &mut w.tally,
                    &mut w.rec,
                    req,
                );
                1
            },
        ));
        w
    };

    let mut probe = Probe::new(&env, seed, NATIVE);
    let mut measured = measure(ctx, &env, &mut probe, &mut tally, &mut m, window);
    let rmse = Tables::rmse(&errs, &mut tally);
    m.set("ops_per_s", measured.plain.ops_per_s());
    let lat = &mut measured.plain.lat;
    m.set("train_s", lat.tmean("train") / 1e9);
    m.set("infer_tmean_ms", lat.tmean("infer") / 1e6);
    m.set("predict_rmse", rmse);
    eprintln!(
        "predict_ai: {} trainings, {} inferences in {:.1} s, rmse {rmse:.4}",
        lat.count("train"),
        lat.count("infer"),
        measured.plain.elapsed
    );

    probe.finish(ctx.args.trace, &mut m, &mut tally);

    if let Some((traced, delta, server)) = measured.traced {
        let filter = |i: usize| format!(" AND stars = {}", 1 + i % 5);
        let sample: Vec<String> = (0..200)
            .map(|i| regression_sql(&tables.name(i % REGRESSION_TABLES), &filter(i)))
            .collect();
        let key = |i: u64| (mix(seed ^ i) % probe::KV_ROWS as u64) as i64;
        let points: Vec<String> = (0..300)
            .map(|i| crate::oltp::point_sql(probe::KV, key(i)))
            .collect();
        let scans: Vec<String> = (0..20)
            .map(|i| {
                format!(
                    "SELECT brand_name, stars, helpful, region FROM {} \
                     WHERE brand_name = '{HELD_OUT}'{}",
                    tables.name(i % REGRESSION_TABLES),
                    filter(i)
                )
            })
            .collect();
        let mut rec = Recorder::new(epoch, 20, true);
        layers::point_layers(&env, &mut m, &mut rec, &points, probe::KV, &sample);
        layers::exec_layers(&env, &mut m, &mut rec, &scans, 1, None);
        layers::heap_scan(&env, &mut m, &mut rec, &tables.name(0));
        layers::window_layers(&mut m, &measured.plain, &delta, &server);
        layers::pages_per_update(&env, &mut m, |i| {
            crate::oltp::noop_update_sql(probe::KV, key(i + 1000))
        });
        layers::zero_join_layers(&mut m);
        engine_layers(&env, &mut m, seed, ROWS);
        let mut spans = traced.spans;
        spans.extend(train_rec.spans);
        spans.extend(rec.spans);
        layers::write_trace(ctx, &spans);
        let dir = env.close();
        m.set("wal.recovery_s", layers::reopen_s(&dir));
    }
    Report { tally, metrics: m }
}
