//! `analytics_join`: one client at `SET parallelism = 2` with the learned
//! join-order optimizer installed, over a fact table larger than the
//! buffer pool plus two small dimension tables. The mix is a filtered
//! COUNT, a GROUP BY aggregate, a 2-way join + aggregate, a 3-way join
//! whose order the learned optimizer picks, and an ORDER BY … LIMIT.
//! Every answer is checked against closed forms from the generator.

use crate::common::{self, drive, int, mix, Deck, Env, Recorder, Tally, Worker};
use crate::layers;
use crate::probe::{self, Fam, Probe};
use crate::{measure, setup_repeated, Ctx, Metrics, Report};
use neurdb_core::{plan_select_with, PlannerConfig};
use neurdb_qo::{cost_plan, dp_best_plan, NeurQo, Optimizer, PretrainConfig};
use neurdb_server::RowSet;
use neurdb_sql::{parse, Statement};
use rand::Rng;
use std::time::Instant;

pub const FACT_ROWS: usize = 130_000;
/// Buffer frames: fewer than the fact table's pages, so scans evict.
pub const POOL_FRAMES: usize = 512;
const DIM1_ROWS: usize = 1_000;
const DIM2_ROWS: usize = 100;
const REGIONS: usize = 10;
const CATS: usize = 5;
const QO_SEED: u64 = 7;
const NATIVE: &[Fam] = &[Fam::Query];

/// Fact row `id`: `(d1, d2, qty 1..=100, price 0..1000)`.
fn fact(seed: u64, id: u64) -> (usize, usize, usize, u64) {
    let h = mix(seed ^ id.wrapping_mul(0xF00D_F00D));
    (
        (h % DIM1_ROWS as u64) as usize,
        ((h >> 16) % DIM2_ROWS as u64) as usize,
        ((h >> 32) % 100) as usize + 1,
        (h >> 44) % 1000,
    )
}

fn region(seed: u64, d1: usize) -> usize {
    (mix(seed ^ 0xD1 ^ (d1 as u64) << 8) % REGIONS as u64) as usize
}

fn cat(seed: u64, d2: usize) -> usize {
    (mix(seed ^ 0xD2 ^ (d2 as u64) << 8) % CATS as u64) as usize
}

/// Answers of every query instance, computed from the generator.
struct Expected {
    /// `[qty] -> rows with that qty`.
    by_qty: Vec<i64>,
    /// `[d2][qty] -> (rows, SUM(price))`.
    d2_qty: Vec<Vec<(i64, i64)>>,
    /// `[region][qty] -> (rows, SUM(qty))`.
    region_qty: Vec<Vec<(i64, i64)>>,
    /// `[region][cat] -> (rows, SUM(price))`.
    region_cat: Vec<Vec<(i64, i64)>>,
    /// `[d2] -> prices, descending`.
    top: Vec<Vec<i64>>,
}

impl Expected {
    fn new(seed: u64) -> Expected {
        let mut e = Expected {
            by_qty: vec![0; 101],
            d2_qty: vec![vec![(0, 0); 101]; DIM2_ROWS],
            region_qty: vec![vec![(0, 0); 101]; REGIONS],
            region_cat: vec![vec![(0, 0); CATS]; REGIONS],
            top: vec![Vec::new(); DIM2_ROWS],
        };
        let regions: Vec<usize> = (0..DIM1_ROWS).map(|d| region(seed, d)).collect();
        let cats: Vec<usize> = (0..DIM2_ROWS).map(|d| cat(seed, d)).collect();
        for id in 0..FACT_ROWS as u64 {
            let (d1, d2, q, p) = fact(seed, id);
            let (r, c, p) = (regions[d1], cats[d2], p as i64);
            e.by_qty[q] += 1;
            e.d2_qty[d2][q].0 += 1;
            e.d2_qty[d2][q].1 += p;
            e.region_qty[r][q].0 += 1;
            e.region_qty[r][q].1 += q as i64;
            e.region_cat[r][c].0 += 1;
            e.region_cat[r][c].1 += p;
            e.top[d2].push(p);
        }
        for t in &mut e.top {
            t.sort_unstable_by(|a, b| b.cmp(a));
            t.truncate(10);
        }
        e
    }
}

/// Sorted `(key, count, sum)` triples of a grouped answer.
fn triples(rs: &RowSet) -> Option<Vec<(i64, i64, i64)>> {
    let mut v: Vec<(i64, i64, i64)> = rs
        .rows
        .iter()
        .map(|r| Some((int(&r[0])?, int(&r[1])?, int(&r[2])?)))
        .collect::<Option<_>>()?;
    v.sort_unstable();
    Some(v)
}

/// Prefix of `(rows, sum)` cells over `qty <= x`, grouped.
fn grouped(cells: &[Vec<(i64, i64)>], x: usize) -> Vec<(i64, i64, i64)> {
    cells
        .iter()
        .enumerate()
        .filter_map(|(k, row)| {
            let (n, s) = row[1..=x]
                .iter()
                .fold((0, 0), |(n, s), &(a, b)| (n + a, s + b));
            (n > 0).then_some((k as i64, n, s))
        })
        .collect()
}

/// One query instance: its SQL and the check of its answer.
struct Query {
    kind: &'static str,
    sql: String,
    x: usize,
    r: usize,
    c: usize,
}

/// The query kinds of the mix, dealt in equal shares.
const KINDS: [&str; 5] = ["count", "group", "join2", "join3", "topk"];

fn draw(kind: usize, rng: &mut impl Rng) -> Query {
    let kind = KINDS[kind];
    let (x, r, c) = (
        rng.gen_range(1..=100),
        rng.gen_range(0..REGIONS),
        rng.gen_range(0..CATS),
    );
    let sql = match kind {
        "count" => format!("SELECT COUNT(*) FROM fact WHERE qty <= {x}"),
        "group" => {
            format!("SELECT d2, COUNT(*), SUM(price) FROM fact WHERE qty <= {x} GROUP BY d2")
        }
        "join2" => format!(
            "SELECT dim1.region, COUNT(*), SUM(fact.qty) FROM fact, dim1 \
             WHERE fact.d1 = dim1.id AND fact.qty <= {x} GROUP BY dim1.region"
        ),
        "join3" => format!(
            "SELECT COUNT(*), SUM(fact.price) FROM fact, dim1, dim2 \
             WHERE fact.d1 = dim1.id AND fact.d2 = dim2.id \
             AND dim1.region = {r} AND dim2.cat = {c}"
        ),
        _ => format!(
            "SELECT id, price FROM fact WHERE d2 = {} ORDER BY price DESC LIMIT 10",
            x - 1
        ),
    };
    Query { kind, sql, x, r, c }
}

fn check(q: &Query, rs: &RowSet, e: &Expected, seed: u64) -> bool {
    match q.kind {
        "count" => {
            let want: i64 = e.by_qty[1..=q.x].iter().sum();
            rs.rows.len() == 1 && int(&rs.rows[0][0]) == Some(want)
        }
        "group" => triples(rs) == Some(grouped(&e.d2_qty, q.x)),
        "join2" => triples(rs) == Some(grouped(&e.region_qty, q.x)),
        "join3" => {
            let (n, s) = e.region_cat[q.r][q.c];
            rs.rows.len() == 1
                && int(&rs.rows[0][0]) == Some(n)
                && (n == 0 || int(&rs.rows[0][1]) == Some(s))
        }
        _ => {
            let d2 = q.x - 1;
            let prices: Option<Vec<i64>> = rs.rows.iter().map(|r| int(&r[1])).collect();
            let rows_consistent = rs.rows.iter().all(|r| {
                int(&r[0]).is_some_and(|id| {
                    let (_, d, _, p) = fact(seed, id as u64);
                    d == d2 && Some(p as i64) == int(&r[1])
                })
            });
            prices.as_ref() == Some(&e.top[d2]) && rows_consistent
        }
    }
}

/// The learned optimizer the benchmark installs (and, for the per-layer
/// QO timings, a second identically pre-trained copy).
fn pretrained_qo() -> NeurQo {
    NeurQo::pretrained(PretrainConfig::default(), QO_SEED).0
}

/// QO layers on the 3-way join's graph: choose vs. DP time, and the
/// regret of the chosen plan's true cost over the DP-best plan's.
fn qo_layers(env: &Env, m: &mut Metrics, rec: &mut Recorder, qo: &mut NeurQo, seed: u64) {
    let mut choose = Vec::new();
    let mut dp = Vec::new();
    let mut regret = Vec::new();
    let config = PlannerConfig {
        parallelism: 2,
        system: env.db.system_conditions(),
        ..PlannerConfig::default()
    };
    for i in 0..20u64 {
        let (r, c) = (
            (mix(seed ^ i) % REGIONS as u64),
            (mix(seed ^ i ^ 1) % CATS as u64),
        );
        let sql = format!(
            "SELECT COUNT(*), SUM(fact.price) FROM fact, dim1, dim2 \
             WHERE fact.d1 = dim1.id AND fact.d2 = dim2.id AND dim1.region = {r} AND dim2.cat = {c}"
        );
        let Ok(Statement::Select(stmt)) = parse(&sql) else {
            panic!("join query parses")
        };
        let tables: Vec<_> = stmt
            .from
            .iter()
            .map(|t| {
                (
                    t.binding().to_string(),
                    env.db.table(&t.name).expect("table"),
                )
            })
            .collect();
        let planned = plan_select_with(&stmt, &tables, None, &config).expect("plans");
        let graph = planned.graph.expect("multi-table SELECT has a join graph");
        let req = 7_000_000 + i;
        let (chosen, d) = rec.time("qo.choose_plan", None, req, || qo.choose_plan(&graph));
        choose.push(d.as_nanos() as f64);
        let (best, d) = rec.time("qo.dp_best_plan", None, req, || dp_best_plan(&graph));
        dp.push(d.as_nanos() as f64);
        regret.push(cost_plan(&chosen, &graph, true).cost / cost_plan(&best, &graph, true).cost);
    }
    m.set("qo.choose_ns", common::median(&mut choose));
    m.set("qo.dp_ns", common::median(&mut dp));
    m.set("qo.regret", common::median(&mut regret));
}

pub fn run(ctx: &Ctx) -> Report {
    let seed = ctx.args.seed;
    let expected = Expected::new(seed);
    let (env, setup_s) = setup_repeated(ctx, |dir| {
        let env = Env::open(dir, POOL_FRAMES);
        let mut c = env.connect();
        c.affected("CREATE TABLE fact (id INT PRIMARY KEY, d1 INT, d2 INT, qty INT, price INT)")
            .expect("create fact");
        common::load(&mut c, "fact", FACT_ROWS, |i| {
            let (d1, d2, q, p) = fact(seed, i as u64);
            format!("{i}, {d1}, {d2}, {q}, {p}")
        });
        c.affected("CREATE TABLE dim1 (id INT PRIMARY KEY, region INT, w INT)")
            .expect("create dim1");
        common::load(&mut c, "dim1", DIM1_ROWS, |i| {
            format!("{i}, {}, 0", region(seed, i))
        });
        c.affected("CREATE INDEX ON dim1 (id)").expect("index dim1");
        c.affected("CREATE TABLE dim2 (id INT PRIMARY KEY, cat INT)")
            .expect("create dim2");
        common::load(&mut c, "dim2", DIM2_ROWS, |i| {
            format!("{i}, {}", cat(seed, i))
        });
        let _ = c.close();
        env.db.set_join_optimizer(Box::new(pretrained_qo()));
        env.db.checkpoint().expect("checkpoint after load");
        env
    });
    // Not timed: the probe's side tables are not the workload's set-up.
    probe::setup(&env, seed, NATIVE);
    eprintln!(
        "analytics_join: fact {} pages, pool {} frames",
        env.db.table("fact").map(|t| t.num_pages()).unwrap_or(0),
        POOL_FRAMES
    );
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    let window = |i: usize, secs: f64, traced: bool| {
        drive(
            &env,
            1,
            secs,
            seed ^ (i as u64 + 1),
            traced,
            epoch,
            &["SET parallelism = 2"],
            |_| Deck::new((0..KINDS.len()).collect()),
            |w: &mut Worker<Deck<usize>>| {
                let req = w.next_req();
                let kind = w.state.draw(&mut w.rng);
                let q = draw(kind, &mut w.rng);
                let (res, d) = w
                    .rec
                    .time("wire.query", None, req, || w.client.query(&q.sql));
                w.lat.add("query", d);
                w.lat.add(q.kind, d);
                w.tally
                    .op(res.is_ok_and(|rs| check(&q, &rs, &expected, seed)));
                1
            },
        )
    };

    tally.merge(window(100, 1.0, false).tally);
    let mut probe = Probe::new(&env, seed, NATIVE);
    let mut measured = measure(ctx, &env, &mut probe, &mut tally, &mut m, window);
    m.set("ops_per_s", measured.plain.ops_per_s());
    let lat = &mut measured.plain.lat;
    m.set("query_tmean_ms", lat.tmean("query") / 1e6);
    m.set("query_p90_ms", lat.pct("query", 0.90) / 1e6);
    let medians: Vec<String> = KINDS
        .iter()
        .map(|k| format!("{k} {:.1}", lat.pct(k, 0.5) / 1e6))
        .collect();
    eprintln!(
        "analytics_join: {} queries in {:.1} s (median ms: {})",
        lat.count("query"),
        measured.plain.elapsed,
        medians.join(", ")
    );

    probe.finish(ctx.args.trace, &mut m, &mut tally);

    if let Some((traced, delta, server)) = measured.traced {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(mix(seed ^ 0xE1));
        let queries: Vec<String> = (0..10)
            .map(|i| draw(i % KINDS.len(), &mut rng).sql)
            .collect();
        let points: Vec<String> = (0..300)
            .map(|i| {
                format!(
                    "SELECT id, region, w FROM dim1 WHERE id = {}",
                    mix(seed ^ i) % DIM1_ROWS as u64
                )
            })
            .collect();
        let mut rec = Recorder::new(epoch, 20, true);
        let mut qo = pretrained_qo();
        layers::point_layers(&env, &mut m, &mut rec, &points, "dim1", &queries);
        layers::exec_layers(&env, &mut m, &mut rec, &queries, 2, Some(&mut qo));
        layers::heap_scan(&env, &mut m, &mut rec, "fact");
        layers::window_layers(&mut m, &measured.plain, &delta, &server);
        layers::pages_per_update(&env, &mut m, |i| {
            format!(
                "UPDATE dim1 SET w = w + 0 WHERE id = {}",
                mix(seed ^ (i + 1000)) % DIM1_ROWS as u64
            )
        });
        qo_layers(&env, &mut m, &mut rec, &mut qo, seed);
        let mut spans = traced.spans;
        spans.extend(rec.spans);
        layers::write_trace(ctx, &spans);
        let dir = env.close();
        m.set("wal.recovery_s", layers::reopen_s(&dir));
    }
    Report { tally, metrics: m }
}
