//! Canaries for the static checks that live in `clippy.toml` and in
//! lint attributes (DESIGN.md §11): one expected violation for every
//! configured path and every lint that no sanctioned site in the tree
//! expects on its own. An `#[expect]` that excuses nothing is an error
//! under `-D warnings`, so a deleted `clippy.toml`, a deleted entry, a
//! lost `#[must_use]` or a lint switched off fails
//! `cargo clippy --all-targets` here. (A misspelt path needs no canary:
//! clippy reports one that resolves to nothing. The store's write
//! surface has its canary in `beldi-apps`, where it is configured.)

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use crate::Semaphore;

#[test]
fn host_time_and_host_waits_are_disallowed_methods() {
    #[expect(clippy::disallowed_methods, reason = "canary: SystemTime::now")]
    let _now = std::time::SystemTime::now();
    #[expect(clippy::disallowed_methods, reason = "canary: thread::sleep")]
    std::thread::sleep(Duration::ZERO);
    // An unpark that comes first makes the park return at once.
    std::thread::current().unpark();
    #[expect(clippy::disallowed_methods, reason = "canary: thread::park_timeout")]
    std::thread::park_timeout(Duration::ZERO);
    std::thread::current().unpark();
    #[expect(clippy::disallowed_methods, reason = "canary: thread::park")]
    std::thread::park();
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    #[expect(clippy::disallowed_methods, reason = "canary: Receiver::recv_timeout")]
    let _empty = rx.recv_timeout(Duration::ZERO);
    // A message already sent makes the receive return at once.
    tx.send(()).ok();
    #[expect(clippy::disallowed_methods, reason = "canary: Receiver::recv")]
    let _sent = rx.recv();
}

#[test]
fn hash_order_is_a_disallowed_method() {
    let mut map = HashMap::from([(1u8, 1u8)]);
    #[expect(clippy::disallowed_methods, reason = "canary: HashMap::values")]
    let _sum: u32 = map.values().map(|&v| u32::from(v)).sum();
    #[expect(clippy::disallowed_methods, reason = "canary: HashMap::values_mut")]
    map.values_mut().for_each(|v| *v += 1);
    #[expect(clippy::disallowed_methods, reason = "canary: HashMap::into_keys")]
    let _keys: Vec<u8> = map.clone().into_keys().collect();
    #[expect(clippy::disallowed_methods, reason = "canary: HashMap::into_values")]
    let _values: Vec<u8> = map.clone().into_values().collect();
    #[expect(clippy::disallowed_methods, reason = "canary: HashMap::drain")]
    map.drain().for_each(drop);
    let mut set = HashSet::from([1u8]);
    #[expect(clippy::disallowed_methods, reason = "canary: HashSet::iter")]
    let _first = set.iter().next().copied();
    #[expect(clippy::disallowed_methods, reason = "canary: HashSet::drain")]
    set.drain().for_each(drop);
}

#[test]
fn sockets_are_disallowed_types() {
    #[expect(clippy::disallowed_types, reason = "canary: TcpStream")]
    let _stream: Option<std::net::TcpStream> = None;
    #[expect(clippy::disallowed_types, reason = "canary: TcpListener")]
    let _listener: Option<std::net::TcpListener> = None;
    #[expect(clippy::disallowed_types, reason = "canary: UdpSocket")]
    let _socket: Option<std::net::UdpSocket> = None;
}

async fn tick() {}

#[expect(
    clippy::await_holding_invalid_type,
    reason = "canary: a MutexGuard live across an `.await`"
)]
async fn mutex_guard_across_await(m: &Mutex<u32>) {
    let guard = m.lock();
    tick().await;
    drop(guard);
}

#[expect(
    clippy::await_holding_invalid_type,
    reason = "canary: a guard taken inside a nested block, which the lexical rule missed"
)]
async fn read_guard_across_await_in_a_nested_block(l: &RwLock<u32>, deep: bool) {
    if deep {
        let guard = l.read();
        tick().await;
        drop(guard);
    }
}

#[expect(
    clippy::await_holding_invalid_type,
    reason = "canary: a RwLockWriteGuard live across an `.await`"
)]
async fn write_guard_across_await(l: &RwLock<u32>) {
    let guard = l.write();
    tick().await;
    drop(guard);
}

#[test]
fn a_guard_across_an_await_is_an_invalid_type() {
    // The lint reads the bodies above; nothing needs to poll them.
    let (m, l) = (Mutex::new(0), RwLock::new(0));
    drop(mutex_guard_across_await(&m));
    drop(read_guard_across_await_in_a_nested_block(&l, true));
    drop(write_guard_across_await(&l));
}

#[test]
fn a_permit_bound_to_underscore_is_a_dropped_must_use() {
    let sem = Semaphore::new(1);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "canary: `#[must_use]` on `try_acquire` — the permit is released on this line"
    )]
    let _ = sem.try_acquire();
    assert_eq!(
        sem.available(),
        1,
        "which is why binding it to `_` is a bug"
    );
    #[expect(
        clippy::let_underscore_must_use,
        reason = "canary: `#[must_use]` on `Permit`"
    )]
    let _ = sem.try_acquire().expect("one free");
    assert_eq!(sem.available(), 1);
}
