//! The `front` subcommand: serve a benchmark app's SSFs over HTTP/1.1
//! (`POST /invoke/{ssf}` with a JSON body, until killed), or, with
//! `--smoke`, run the CI gate — drive a seeded stream through real
//! sockets, replay it in-process, and fail unless the state digests match
//! and the door sustained a nonzero request rate (DESIGN.md §14). The
//! served environment runs on its seeded `SimClock`, so a smoke report is
//! the same on every run but `wall_ms` and `rps`.

use std::sync::Arc;

use crate::cli::{run_error, usage_error, Args, Cli};
use crate::front::{front_smoke, FrontDoor};

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
        .switch("--smoke", "run the digest-equivalence smoke gate and exit")
        .flag(
            "--requests",
            "N",
            "64",
            "smoke: requests driven through the door",
        )
        .flag(
            "--clients",
            "N",
            "4",
            "smoke: concurrent client connections",
        )
        .json_flag()
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
    let seed: u64 = args.get("--seed");

    if args.flag("--smoke") {
        let requests = args.get("--requests");
        let clients = args.get("--clients");
        let report = front_smoke(&kind, mode, requests, clients, seed)
            .unwrap_or_else(|e| run_error(format!("front: smoke run: {e}")));
        report.print_summary();
        if let Some(path) = args.value("--json") {
            let written = std::fs::write(&path, report.to_json());
            written.unwrap_or_else(|e| run_error(format!("writing {path}: {e}")));
            println!("  report written to {path}");
        }
        if !report.digest_match() {
            println!("\nFAIL: networked state diverged from the in-process run");
            std::process::exit(1);
        }
        if report.run.errors > 0 || report.rps <= 0.0 {
            println!("\nFAIL: the door dropped requests or served at zero rps");
            std::process::exit(1);
        }
        println!("\nsmoke gate passed: exactly-once held across the network boundary");
        return;
    }

    let env = Arc::new(crate::front_env(mode));
    app.setup(&env);
    let door = FrontDoor::start(Arc::clone(&env), &args.str("--addr"), seed)
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
