//! The `front` subcommand: serve a benchmark app's SSFs over HTTP/1.1
//! (`POST /invoke/{ssf}` with a JSON body) until killed (DESIGN.md §14).
//! The served environment runs on its seeded `SimClock`. `drive
//! --smoke`'s front door row drives a seeded stream through such a door
//! and checks it against an in-process replay.

use std::sync::Arc;

use crate::cli::{run_error, usage_error, Args, Cli};
use crate::front::FrontDoor;

pub(crate) fn flags(cli: Cli) -> Cli {
    cli.app_flag("media")
        .mode_flag("beldi")
        .flag(
            "--addr",
            "HOST:PORT",
            "127.0.0.1:0",
            "bind address (0 = ephemeral port)",
        )
        .seed_flag()
}

pub(crate) fn main(args: &Args) {
    let kind = args.str("--app");
    let &[mode] = args.modes().as_slice() else {
        usage_error("front: --mode takes one system");
    };
    let Some(app) = beldi_apps::bench_app(&kind, mode, beldi_apps::MixProfile::Default) else {
        usage_error(format!(
            "unknown app {kind:?} (expected media, social, or travel)"
        ))
    };

    let env = Arc::new(crate::front_env(mode));
    app.setup(&env);
    let door = FrontDoor::start(Arc::clone(&env), &args.str("--addr"), args.get("--seed"))
        .unwrap_or_else(|e| run_error(format!("front: bind the front door: {e}")));
    println!("front door listening on http://{}", door.addr());
    println!("  entry point: POST /invoke/{}", app.entry_point());
    for ssf in env.ssf_names() {
        println!("  ssf: {ssf}");
    }
    // Serve until the process is killed: this thread, the clock's first
    // participant, waits for the door on the clock.
    door.wait();
}
