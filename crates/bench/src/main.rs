//! `beldi-bench <subcommand> [flags]`: every experiment, gate and harness
//! of the reproduction behind one executable (`beldi_bench::cli`).

fn main() {
    std::process::exit(beldi_bench::cli::dispatch(
        std::env::args().skip(1).collect(),
    ));
}
