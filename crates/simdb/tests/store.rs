//! Store integration tests: transactions under concurrency, committed in
//! table-name lock order, and scans resumed by key.

use std::sync::Arc;

use beldi_simdb::{Database, DbError, PrimaryKey, ScanRequest, TableSchema, TransactOp};
use beldi_value::{vmap, Cond, Update, Value};

/// A tiny deterministic PRNG (xorshift64*), so the stress tests need no
/// external randomness source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn accounts_db(accounts: usize, balance: i64) -> Arc<Database> {
    let db = Database::for_tests();
    db.create_table("acct", TableSchema::hash_only("Id"))
        .unwrap();
    db.create_table("audit", TableSchema::hash_only("Id"))
        .unwrap();
    for a in 0..accounts {
        db.put("acct", vmap! { "Id" => format!("a{a}"), "Bal" => balance })
            .unwrap();
    }
    db
}

fn total_balance(db: &Database, accounts: usize) -> i64 {
    (0..accounts)
        .map(|a| {
            db.get("acct", &PrimaryKey::hash(format!("a{a}")), None)
                .unwrap()
                .unwrap()
                .get_int("Bal")
                .unwrap()
        })
        .sum()
}

/// Randomized transfers between accounts: money is conserved
/// (atomicity), no balance goes negative (condition enforcement at the
/// commit point), and the run terminates (no deadlock among concurrent
/// lock holders).
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a stress test of real parallelism over a zero-latency store: nothing in it waits on a clock"
)]
fn concurrent_transfers_conserve_money_without_deadlock() {
    const ACCOUNTS: usize = 16;
    const BALANCE: i64 = 100;
    const THREADS: u64 = 8;
    const TRANSFERS: u64 = 60;
    let db = accounts_db(ACCOUNTS, BALANCE);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = &db;
            s.spawn(move || {
                let mut rng = Rng(0x9e37_79b9 + t);
                for _ in 0..TRANSFERS {
                    let src = rng.below(ACCOUNTS as u64);
                    let mut dst = rng.below(ACCOUNTS as u64);
                    if dst == src {
                        dst = (dst + 1) % ACCOUNTS as u64;
                    }
                    let amount = 1 + rng.below(5) as i64;
                    let result = db.transact_write(&[
                        TransactOp::Update {
                            table: "acct".into(),
                            key: PrimaryKey::hash(format!("a{src}")),
                            cond: Cond::ge("Bal", amount),
                            update: Update::new().inc("Bal", -amount),
                        },
                        TransactOp::Update {
                            table: "acct".into(),
                            key: PrimaryKey::hash(format!("a{dst}")),
                            cond: Cond::exists("Id"),
                            update: Update::new().inc("Bal", amount),
                        },
                    ]);
                    match result {
                        Ok(()) | Err(DbError::TransactionCanceled { .. }) => {}
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            });
        }
    });
    assert_eq!(
        total_balance(&db, ACCOUNTS),
        ACCOUNTS as i64 * BALANCE,
        "transfers lost or minted money"
    );
    for a in 0..ACCOUNTS {
        let bal = db
            .get("acct", &PrimaryKey::hash(format!("a{a}")), None)
            .unwrap()
            .unwrap()
            .get_int("Bal")
            .unwrap();
        assert!(bal >= 0, "a{a} overdrawn to {bal}");
    }
}

/// A transaction whose last condition fails applies none of its earlier
/// ops, even when those ops land in another table and race concurrent
/// committers.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a stress test of real parallelism over a zero-latency store: nothing in it waits on a clock"
)]
fn failed_transactions_are_isolated_across_tables() {
    let db = accounts_db(8, 100);
    std::thread::scope(|s| {
        // Saboteurs: transactions that always cancel on their final op.
        for t in 0..4u64 {
            let db = &db;
            s.spawn(move || {
                let mut rng = Rng(0xdead_beef + t);
                for _ in 0..50 {
                    let a = rng.below(8);
                    let err = db
                        .transact_write(&[
                            TransactOp::Update {
                                table: "acct".into(),
                                key: PrimaryKey::hash(format!("a{a}")),
                                cond: Cond::exists("Id"),
                                update: Update::new().inc("Bal", 1_000),
                            },
                            TransactOp::Put {
                                table: "audit".into(),
                                item: vmap! { "Id" => "marker" },
                                cond: Cond::exists("Id"), // empty row: always false
                            },
                        ])
                        .unwrap_err();
                    assert_eq!(err, DbError::TransactionCanceled { failed_op: 1 });
                }
            });
        }
        // Committers: small legitimate increments.
        for t in 0..4u64 {
            let db = &db;
            s.spawn(move || {
                let mut rng = Rng(0x00c0_ffee + t);
                for _ in 0..50 {
                    let a = rng.below(8);
                    db.transact_write(&[TransactOp::Update {
                        table: "acct".into(),
                        key: PrimaryKey::hash(format!("a{a}")),
                        cond: Cond::exists("Id"),
                        update: Update::new().inc("Bal", 1),
                    }])
                    .unwrap();
                }
            });
        }
    });
    // Exactly the committed increments are visible: 4 threads × 50 ops of
    // +1; no +1000 from a canceled transaction ever landed.
    assert_eq!(total_balance(&db, 8), 8 * 100 + 4 * 50);
    assert!(db
        .get("audit", &PrimaryKey::hash("marker"), None)
        .unwrap()
        .is_none());
}

/// Pages through `table` with `limit` items a page, resuming each page
/// after the last key the previous one examined, which `between` is
/// given before the next page is read. Returns `Id/Row` of each item, in
/// the order the pages held them.
fn scan_ids(db: &Database, limit: usize, mut between: impl FnMut(&PrimaryKey)) -> Vec<String> {
    let mut seen = Vec::new();
    let mut req = ScanRequest::all().with_limit(limit);
    loop {
        let page = db.scan_page("t", &req).unwrap();
        for item in &page.items {
            let (id, row) = (item.get_str("Id").unwrap(), item.get_int("Row").unwrap());
            seen.push(format!("{id}/{row}"));
        }
        let Some(last) = page.last_key else {
            return seen;
        };
        between(&last);
        req = req.with_start_after(last);
    }
}

/// Paging with the one resume key visits every row exactly once, in key
/// order, for page sizes that do and do not divide the row count, with
/// rows spread over several hash keys; a query resumes where a scan does;
/// and a scan resumes after its resume row even when that row is gone.
#[test]
fn scan_cursor_covers_each_row_exactly_once() {
    const KEYS: i64 = 20;
    const ROWS_PER_KEY: i64 = 5;
    let db = Database::for_tests();
    db.create_table("t", TableSchema::hash_and_sort("Id", "Row"))
        .unwrap();
    for row in 0..ROWS_PER_KEY {
        for k in 0..KEYS {
            db.put("t", vmap! { "Id" => format!("k{k:03}"), "Row" => row })
                .unwrap();
        }
    }
    let in_key_order: Vec<String> = (0..KEYS)
        .flat_map(|k| (0..ROWS_PER_KEY).map(move |row| format!("k{k:03}/{row}")))
        .collect();
    for limit in [1usize, 7, 32, 100, 1000] {
        assert_eq!(scan_ids(&db, limit, |_| {}), in_key_order, "limit {limit}");
    }

    // A query and a scan given the same resume key resume at the same row.
    let req = ScanRequest::all()
        .with_limit(2)
        .with_start_after(PrimaryKey::hash_sort("k004", 2i64));
    let queried = db.query("t", &Value::from("k004"), &req).unwrap();
    let scanned = db.scan_page("t", &req).unwrap().items;
    assert_eq!(queried, scanned);
    assert_eq!(queried[0].get_int("Row"), Some(3));

    // Each page's resume row is deleted before the next page is read.
    let mut deleted = 0;
    let seen = scan_ids(&db, 7, |last| {
        db.delete("t", last, &Cond::True).unwrap();
        deleted += 1;
    });
    assert_eq!(seen, in_key_order, "each row once, in key order");
    assert_eq!(deleted, in_key_order.len() / 7);
    assert_eq!(db.row_count("t").unwrap(), in_key_order.len() - deleted);
}

/// Single-row readers racing a two-row transaction never see it torn: the
/// transaction's two writes land atomically.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a stress test of real parallelism over a zero-latency store: nothing in it waits on a clock"
)]
fn single_row_writers_never_observe_torn_transactions() {
    let db = Database::for_tests();
    db.create_table("pair", TableSchema::hash_only("Id"))
        .unwrap();
    db.put("pair", vmap! { "Id" => "left", "Gen" => 0i64 })
        .unwrap();
    db.put("pair", vmap! { "Id" => "right", "Gen" => 0i64 })
        .unwrap();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        // Writer: bumps both generations in one transaction.
        s.spawn(|| {
            for _ in 0..200 {
                db.transact_write(&[
                    TransactOp::Update {
                        table: "pair".into(),
                        key: PrimaryKey::hash("left"),
                        cond: Cond::exists("Id"),
                        update: Update::new().inc("Gen", 1),
                    },
                    TransactOp::Update {
                        table: "pair".into(),
                        key: PrimaryKey::hash("right"),
                        cond: Cond::exists("Id"),
                        update: Update::new().inc("Gen", 1),
                    },
                ])
                .unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        // Reader: commits are atomic, so the only reachable states are
        // (n, n). Reading left first and right later can only see right at
        // an *equal or newer* generation; observing right behind left
        // would mean the reader caught a transaction half-applied.
        s.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let l = db
                    .get("pair", &PrimaryKey::hash("left"), None)
                    .unwrap()
                    .unwrap()
                    .get_int("Gen")
                    .unwrap();
                let r = db
                    .get("pair", &PrimaryKey::hash("right"), None)
                    .unwrap()
                    .unwrap()
                    .get_int("Gen")
                    .unwrap();
                assert!(r >= l, "torn transaction observed: left={l} right={r}");
            }
        });
    });
    let l = db
        .get("pair", &PrimaryKey::hash("left"), None)
        .unwrap()
        .unwrap()
        .get_int("Gen")
        .unwrap();
    let r = db
        .get("pair", &PrimaryKey::hash("right"), None)
        .unwrap()
        .unwrap()
        .get_int("Gen")
        .unwrap();
    assert_eq!((l, r), (200, 200));
}
