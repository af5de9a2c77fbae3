//! Fixture: one planted violation per core-scoped rule, plus one waiver
//! that excuses nothing and one that cannot be parsed.

use crate::Label;

// determinism/hashmap-iter (no sort, no BTree in sight)
pub fn visit(reg: &HashMap<String, u64>) -> Vec<String> {
    let mut out = Vec::new();
    for k in reg.keys() {
        out.push(k.clone());
    }
    out
}

// crash-points/coverage: mutation with no probes at all
pub fn unprobed_write(ctx: &Ctx, key: &str, v: Value) -> Result<()> {
    ctx.db.update("table", key, v)
}

// crash-points/conditional: OpExit is not work-dependent
pub fn conditional_probe(ctx: &Ctx, found: bool) {
    if found {
        ctx.crash(Label::OpExit);
    }
}

// waiver/unused: nothing on the next line mutates the database
// beldi-lint: allow(crash-points/coverage, a probe brackets this in the caller)
pub fn reads_only(ctx: &Ctx) -> usize {
    ctx.db.count("table")
}

// waiver/malformed: no reason given
// beldi-lint: allow(crash-points/coverage)
pub fn unexplained() {}
