//! Fixture: a helper crate that launders a direct DB write. The direct
//! mutation is legal *here* (only apps are confined to the logged API);
//! the violation is the app-side call that routes through it.

pub fn stash(ctx: &mut SsfContext, v: Value) -> Result<Value> {
    ctx.env.db.put("state", "k", v)
}

/// One more hop, to prove the propagation reaches a fixpoint.
pub fn stash_indirect(ctx: &mut SsfContext, v: Value) -> Result<Value> {
    stash(ctx, v)
}

// async-safety/blocking-in-task, off every executor path: library code
// that waits or starts threads behind the workspace clock's back.
pub fn fan_out(jobs: Vec<Job>) {
    let worker = std::thread::spawn(move || run_all(jobs)); // planted: raw-spawn
    std::thread::scope(|s| drain(s)); // planted: raw-scope
    let named = std::thread::Builder::new().name("w".into()); // planted: raw-builder
    std::thread::park_timeout(Duration::from_micros(200)); // planted: raw-park
    finish(worker, named);
}
