//! Fixture: a well-behaved core mutation path.
//!
//! The canary test deletes the `OpExit` probe line below and asserts
//! the coverage rule fires — proving a silently-dropped crash point
//! fails the build.

use crate::Label;

pub fn logged_write(ctx: &Ctx, key: &str, v: Value) -> Result<()> {
    ctx.crash(Label::OpEnter);
    ctx.db.update("table", key, v)?;
    ctx.crash(Label::OpExit); // canary: coverage probe after the mutation
    Ok(())
}

pub fn sweep(ctx: &Ctx, items: &[Item]) -> Result<()> {
    ctx.crash(Label::OpEnter);
    for it in items {
        ctx.crash(Label::OpPerItem);
        ctx.db.delete("table", &it.key)?;
    }
    ctx.crash(Label::OpExit);
    Ok(())
}

pub fn replay_order(reg: &HashMap<String, u64>) -> Vec<String> {
    let mut names: Vec<String> = reg.keys().cloned().collect();
    names.sort();
    names
}
