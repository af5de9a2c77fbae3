//! The subcommand bodies, one module each: `flags` declares the
//! subcommand's flag table, `main` runs it on the parsed arguments
//! (`crate::cli::SUBCOMMANDS` is the index).

pub(crate) mod costs;
pub(crate) mod drive;
pub(crate) mod explore;
pub(crate) mod fig13;
pub(crate) mod fig16;
pub(crate) mod gate;
pub(crate) mod serve;
pub(crate) mod sweeps;
