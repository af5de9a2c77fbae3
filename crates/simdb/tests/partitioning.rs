//! Partitioned-store integration tests: ordered multi-partition commits
//! under concurrency, partition-count determinism, and scan-cursor
//! coverage.

use std::sync::Arc;

use beldi_simdb::{
    Database, DbError, PrimaryKey, Projection, ScanRequest, TableSchema, TransactOp,
};
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

fn accounts_db(partitions: usize, accounts: usize, balance: i64) -> Arc<Database> {
    let db = Database::for_tests_with_partitions(partitions);
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

/// Randomized transfers between accounts spread over every partition:
/// money is conserved (atomicity), no balance goes negative (condition
/// enforcement at the commit point), and the run terminates (no deadlock
/// among concurrent multi-partition lock holders).
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
    for partitions in [1usize, 4, 8] {
        let db = accounts_db(partitions, ACCOUNTS, BALANCE);
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
            "P={partitions}: transfers lost or minted money"
        );
        for a in 0..ACCOUNTS {
            let bal = db
                .get("acct", &PrimaryKey::hash(format!("a{a}")), None)
                .unwrap()
                .unwrap()
                .get_int("Bal")
                .unwrap();
            assert!(bal >= 0, "P={partitions}: a{a} overdrawn to {bal}");
        }
    }
}

/// A transaction whose last condition fails applies none of its earlier
/// ops, even when those ops land in other partitions and race concurrent
/// committers.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a stress test of real parallelism over a zero-latency store: nothing in it waits on a clock"
)]
fn failed_transactions_are_isolated_across_partitions() {
    let db = accounts_db(8, 8, 100);
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

/// Runs a fixed op sequence and records every observable result.
fn run_fixed_sequence(partitions: usize) -> Vec<String> {
    let db = Database::for_tests_with_partitions(partitions);
    db.create_table("t", TableSchema::hash_and_sort("Key", "RowId"))
        .unwrap();
    db.create_table("ix", TableSchema::hash_only("Id").with_index("Done"))
        .unwrap();
    let mut log: Vec<String> = Vec::new();
    let mut push = |label: &str, r: String| log.push(format!("{label}: {r}"));

    for i in 0..40i64 {
        let r = db.put(
            "t",
            vmap! { "Key" => format!("k{}", i % 10), "RowId" => i / 10, "V" => i },
        );
        push("put", format!("{r:?}"));
    }
    for i in 0..10i64 {
        let key = PrimaryKey::hash_sort(format!("k{i}"), 0i64);
        let r = db.update(
            "t",
            &key,
            &Cond::ge("V", 5i64),
            &Update::new().inc("V", 100),
        );
        push("update", format!("{r:?}"));
        push("get", format!("{:?}", db.get("t", &key, None)));
    }
    let r = db.delete(
        "t",
        &PrimaryKey::hash_sort("k3", 1i64),
        &Cond::exists("Key"),
    );
    push("delete", format!("{r:?}"));
    for i in 0..6i64 {
        let r = db.put(
            "ix",
            vmap! { "Id" => format!("i{i}"), "Done" => i % 2 == 0 },
        );
        push("ixput", format!("{r:?}"));
    }
    let r = db.transact_write(&[
        TransactOp::Update {
            table: "t".into(),
            key: PrimaryKey::hash_sort("k0", 0i64),
            cond: Cond::exists("Key"),
            update: Update::new().set("T", 1i64),
        },
        TransactOp::Put {
            table: "ix".into(),
            item: vmap! { "Id" => "txn", "Done" => false },
            cond: Cond::not_exists("Id"),
        },
    ]);
    push("txn-commit", format!("{r:?}"));
    let r = db.transact_write(&[TransactOp::Update {
        table: "t".into(),
        key: PrimaryKey::hash_sort("k0", 0i64),
        cond: Cond::eq("V", -1i64),
        update: Update::new().set("T", 2i64),
    }]);
    push("txn-cancel", format!("{r:?}"));

    for i in 0..10i64 {
        let rows = db
            .query("t", &Value::from(format!("k{i}")), &ScanRequest::all())
            .unwrap();
        push("query", format!("{rows:?}"));
    }
    push(
        "index",
        format!(
            "{:?}",
            db.index_query("ix", "Done", &Value::Bool(true), &ScanRequest::all())
        ),
    );
    // A multi-page index read (over two pages of matches), filtered and
    // keys-only: the same items and the same bill whatever the layout.
    for i in 0..70i64 {
        let r = db.put(
            "ix",
            vmap! { "Id" => format!("p{i:02}"), "Done" => "paged", "V" => i },
        );
        push("ixput", format!("{r:?}"));
    }
    let before = db.metrics();
    let req = ScanRequest::all()
        .with_filter(Cond::ge("V", 3i64))
        .with_projection(Projection::attrs(["Id"]));
    push(
        "index-paged",
        format!(
            "{:?}",
            db.index_query("ix", "Done", &Value::from("paged"), &req)
        ),
    );
    let bill = db.metrics().delta(&before);
    push(
        "index-paged-bill",
        format!(
            "{} ops, {} rows, {} bytes",
            bill.queries, bill.rows_scanned, bill.bytes_read
        ),
    );
    push(
        "distinct",
        format!("{:?}", db.distinct_hash_keys("t").unwrap()),
    );
    // Scan order is partition-major by design, so compare the *sorted*
    // item set: contents must match across partition counts even though
    // page order does not.
    let mut scanned: Vec<String> = db
        .scan_all("t", &ScanRequest::all())
        .unwrap()
        .iter()
        .map(|v| format!("{v:?}"))
        .collect();
    scanned.sort();
    push("scan-sorted", scanned.join(" | "));
    log
}

/// Partitioning is an internal layout choice: the same op sequence must
/// yield identical observable results at `P = 1` and `P = 8`.
#[test]
fn fixed_sequence_is_partition_count_invariant() {
    let one = run_fixed_sequence(1);
    let eight = run_fixed_sequence(8);
    assert_eq!(one.len(), eight.len());
    for (a, b) in one.iter().zip(eight.iter()) {
        assert_eq!(a, b);
    }
}

/// Paging with the partition-aware cursor visits every row exactly once,
/// for page sizes that do and do not divide the row count.
#[test]
fn scan_cursor_covers_each_row_exactly_once() {
    let db = Database::for_tests_with_partitions(8);
    db.create_table("t", TableSchema::hash_only("Id")).unwrap();
    const ROWS: usize = 100;
    for i in 0..ROWS {
        db.put("t", vmap! { "Id" => format!("k{i:03}") }).unwrap();
    }
    for limit in [1usize, 7, 32, 100] {
        let mut seen: Vec<String> = Vec::new();
        let mut req = ScanRequest::all().with_limit(limit);
        loop {
            let page = db.scan_page("t", &req).unwrap();
            for item in &page.items {
                seen.push(item.get_str("Id").unwrap().to_owned());
            }
            match page.cursor {
                Some(c) => req = req.with_cursor(c),
                None => break,
            }
        }
        assert_eq!(seen.len(), ROWS, "limit {limit}: duplicated or lost rows");
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ROWS, "limit {limit}: duplicate ids");
    }
}

/// Single-row writers racing a multi-partition transaction on the same
/// rows never tear it: the transaction's two writes land atomically.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a stress test of real parallelism over a zero-latency store: nothing in it waits on a clock"
)]
fn single_row_writers_never_observe_torn_transactions() {
    let db = Database::for_tests_with_partitions(8);
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
