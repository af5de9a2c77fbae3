//! The experiment harness: one executable, `beldi-bench <subcommand>`,
//! plus the library code its subcommands share and the HTTP front door
//! ([`front`]).
//!
//! [`cli::subcommands`] lists what the executable runs: a subcommand per
//! row of the experiment table (`cmd/figures.rs`, DESIGN.md §4: each of
//! the paper's figures and the claim its printed cells must bear out,
//! with no flags), then the harnesses `drive`, `gate`, `explore` and
//! `front`, whose flags `beldi-bench <subcommand> --help` lists.

#![warn(clippy::let_underscore_must_use)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cli;
mod cmd;
pub mod front;

use beldi::{BeldiConfig, BeldiEnv, Mode};
use beldi_simfaas::PlatformConfig;
use beldi_workload::driver::driver_platform;

/// The seed of every harness environment and its clock's schedule.
const HARNESS_SEED: u64 = 42;

/// The builder every harness environment here starts from: DynamoDB-shaped
/// latencies, seed 42 (the substrate's and, on the default clock, the
/// schedule's), and the given configuration and platform.
///
/// Like every environment here, it runs on the builder's default clock,
/// a fresh [`SimClock`](beldi::simclock::SimClock): the calling thread is
/// the clock's first participant, and any other thread that touches the
/// environment must be started with `env.clock().spawn`.
fn harness(cfg: BeldiConfig, platform: PlatformConfig) -> beldi::EnvBuilder {
    BeldiEnv::builder(cfg)
        .latency(beldi_simdb::LatencyModel::dynamo())
        .platform(platform)
        .seed(HARNESS_SEED)
}

/// The HTTP front door's environment: 100-entry DAAL rows on the workload
/// driver's platform, reached only through the door's admission
/// participant, a thread of this clock (`front`'s module docs).
pub fn front_env(mode: Mode) -> BeldiEnv {
    let cfg = BeldiConfig::for_mode(mode).with_row_capacity(100);
    harness(cfg, driver_platform(None)).build()
}

/// Renders a row-oriented table to stdout (the harnesses' output format:
/// greppable columns, one row per series point).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n# {title}");
    println!("{}", headers.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use beldi::value::Value;
    use beldi::Mode;

    use crate::cmd::figures::{
        experiment_env, measure_op, micro_payload, prepopulate_daal, register_micro_ops,
    };

    #[test]
    fn micro_env_runs_every_op() {
        let env = experiment_env(Mode::Beldi, 5, false);
        register_micro_ops(&env);
        for op in ["read", "write", "condwrite"] {
            let h = measure_op(&env, "micro", &micro_payload(op), 3, 1).unwrap();
            assert_eq!(h.len(), 3, "{op}");
            assert!(h.max() > Duration::ZERO, "{op} should cost time");
        }
        let h = measure_op(&env, "op-invoke", &Value::Null, 3, 1).unwrap();
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn prepopulate_grows_the_chain() {
        let env = experiment_env(Mode::Beldi, 5, false);
        register_micro_ops(&env);
        prepopulate_daal(&env, 4, 5).unwrap();
        let len = env.daal_chain_len("micro", "t", "k").unwrap();
        assert!(len >= 4, "expected >= 4 rows, got {len}");
    }

    #[test]
    fn all_three_systems_run_the_micro_ops() {
        for mode in [Mode::Baseline, Mode::Beldi, Mode::CrossTable] {
            let env = experiment_env(mode, 5, false);
            register_micro_ops(&env);
            let h = measure_op(&env, "micro", &micro_payload("write"), 2, 1).unwrap();
            assert_eq!(h.len(), 2, "{}", mode.name());
        }
    }
}
