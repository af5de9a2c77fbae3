//! The experiment table (`figures`, a subcommand per row) and a module
//! per harness: `flags` declares its flag table, `main` runs it.

pub(crate) mod drive;
pub(crate) mod explore;
pub(crate) mod figures;
pub(crate) mod gate;
pub(crate) mod serve;
