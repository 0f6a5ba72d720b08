//! Read-modify-write transfer transactions for the probe suite:
//! `BEGIN; SELECT; UPDATE; UPDATE; COMMIT` under the default learned
//! concurrency-control policy, aborts retried after a seeded, jittered
//! backoff.

use crate::common::{self, int, Lat, Recorder};
use crate::oltp::Keys;
use neurdb_server::Client;
use rand::Rng;
use std::time::{Duration, Instant};

/// `(SUM(v), COUNT(*))` of a table, over the wire.
pub fn sum_count(c: &mut Client, table: &str) -> Option<(i64, i64)> {
    let rs = c
        .query(&format!("SELECT SUM(v), COUNT(*) FROM {table}"))
        .ok()?;
    let r = rs.rows.first()?;
    Some((int(&r[0])?, int(&r[1])?))
}

/// Outcome of one transfer: aborted attempts, whether it committed, and
/// whether it was still being retried when its deadline passed.
pub struct Transfer {
    pub aborts: u32,
    pub ok: bool,
    pub abandoned: bool,
}

/// Move `d` from `k1` to `k2` in one transaction:
/// `BEGIN; SELECT v …k1; UPDATE …k1; UPDATE …k2; COMMIT`, retrying
/// aborts after a jittered backoff drawn from `rng` until `deadline`; a
/// transfer still aborting then is rolled back and abandoned (under the
/// learned policy one transaction can abort hundreds of times in a row,
/// with no other transaction running). Records latencies by
/// kind: `txn` (first BEGIN to successful COMMIT, retries included),
/// `txn.select`, `txn.update` and `txn.commit`.
#[allow(clippy::too_many_arguments)]
pub fn transfer(
    c: &mut Client,
    rng: &mut impl Rng,
    rec: &mut Recorder,
    lat: &mut Lat,
    req: u64,
    table: &str,
    (k1, k2, d): (i64, i64, i64),
    deadline: Instant,
) -> Transfer {
    let (txn_id, txn_start) = rec.open();
    let t0 = Instant::now();
    let stmts = [
        format!("SELECT v FROM {table} WHERE id = {k1}"),
        format!("UPDATE {table} SET v = v - {d} WHERE id = {k1}"),
        format!("UPDATE {table} SET v = v + {d} WHERE id = {k2}"),
    ];
    let mut aborts = 0u32;
    let mut ok = false;
    let mut failed = false;
    while aborts == 0 || Instant::now() < deadline {
        if aborts > 0 {
            // Backoff with seeded jitter, growing to at most 4 ms.
            let cap = 1000 * u64::from(aborts.min(4));
            let pause = Duration::from_micros(rng.gen_range(0..cap));
            rec.time("client.backoff", Some(txn_id), req, || {
                std::thread::sleep(pause)
            });
        }
        match attempt_once(c, rec, lat, req, txn_id, &stmts) {
            Attempt::Committed => {
                ok = true;
                break;
            }
            Attempt::Aborted => {
                aborts += 1;
                let _ = rec.time("wire.rollback", Some(txn_id), req, || {
                    c.affected("ROLLBACK")
                });
            }
            Attempt::Failed => {
                let _ = c.affected("ROLLBACK");
                failed = true;
                break;
            }
        }
    }
    let abandoned = !ok && !failed;
    if ok {
        lat.add("txn", t0.elapsed());
    } else if abandoned {
        eprintln!(
            "transfer {k1} -> {k2} abandoned at its deadline after {aborts} aborted attempts"
        );
    }
    rec.close(txn_id, None, req, "client.txn", txn_start);
    Transfer {
        aborts,
        ok,
        abandoned,
    }
}

enum Attempt {
    Committed,
    Aborted,
    Failed,
}

fn attempt_once(
    c: &mut Client,
    rec: &mut Recorder,
    lat: &mut Lat,
    req: u64,
    parent: u64,
    stmts: &[String; 3],
) -> Attempt {
    let p = Some(parent);
    if let Err(e) = rec.time("wire.begin", p, req, || c.affected("BEGIN")).0 {
        return failed(&e);
    }
    let (res, d) = rec.time("wire.txn_select", p, req, || c.query(&stmts[0]));
    match res {
        Ok(rs) if rs.rows.len() == 1 && int(&rs.rows[0][0]).is_some() => lat.add("txn.select", d),
        Ok(rs) => {
            eprintln!("transfer: {} returned {:?}", stmts[0], rs.rows);
            return Attempt::Failed;
        }
        Err(e) if common::is_abort(&e) => return Attempt::Aborted,
        Err(e) => return failed(&e),
    }
    for sql in &stmts[1..] {
        let (res, d) = rec.time("wire.txn_update", p, req, || c.affected(sql));
        match res {
            Ok(1) => lat.add("txn.update", d),
            Ok(n) => {
                eprintln!("transfer: {sql} affected {n} rows");
                return Attempt::Failed;
            }
            Err(e) if common::is_abort(&e) => return Attempt::Aborted,
            Err(e) => return failed(&e),
        }
    }
    let (res, d) = rec.time("wire.commit", p, req, || c.affected("COMMIT"));
    match res {
        Ok(_) => {
            lat.add("txn.commit", d);
            Attempt::Committed
        }
        Err(e) if common::is_abort(&e) => Attempt::Aborted,
        Err(e) => failed(&e),
    }
}

fn failed(e: &neurdb_server::ClientError) -> Attempt {
    eprintln!("transfer: {e}");
    Attempt::Failed
}

/// Two distinct keys and an amount.
pub fn pick(keys: &Keys, rng: &mut impl Rng) -> (i64, i64, i64) {
    let k1 = keys.next(rng);
    let mut k2 = keys.next(rng);
    while k2 == k1 {
        k2 = keys.next(rng);
    }
    (k1, k2, rng.gen_range(1..=10))
}
