//! Store integration tests: transactions under concurrency, committed in
//! table-name lock order.

use std::sync::Arc;

use beldi_simdb::{Database, DbError, PrimaryKey, TableSchema, TransactOp};
use beldi_value::{vmap, Cond, Update};

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
