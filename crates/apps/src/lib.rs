//! Case-study applications for the Beldi reproduction (§7.1).
//!
//! Three applications adapted from DeathStarBench and ported to stateful
//! serverless functions, exactly as the paper's evaluation does:
//!
//! - [`travel`] — a travel reservation service (10 SSFs, Fig. 22) with a
//!   **cross-SSF transaction** reserving a hotel room and a flight seat
//!   atomically;
//! - [`media`] — a movie review service (13 SSFs, Fig. 23);
//! - [`social`] — a social media site (13 SSFs, Fig. 24).
//!
//! Each module exposes an `*App` type with the same shape:
//!
//! - `install(&env)` registers every SSF of the workflow;
//! - `seed(&env)` loads the dataset (hotels, movies, users, follow graph);
//! - `request(&mut rng)` draws one frontend request from the
//!   DeathStarBench-derived mix;
//! - `entry()` names the workflow's frontend SSF.
//!
//! The same application code runs unmodified in all three modes (Beldi,
//! cross-table, baseline) because it only speaks the
//! [`beldi::SsfContext`] API — this is what the paper's latency/throughput
//! comparisons rely on.

pub mod media;
pub mod rng;
pub mod social;
pub mod travel;

pub use media::MediaApp;
pub use social::SocialApp;
pub use travel::TravelApp;

use beldi::value::Value;
use beldi::BeldiEnv;
use rand::rngs::SmallRng;

/// A uniform interface over the three case-study applications, used by
/// the crash-schedule explorer (`beldi-workload`) to drive any workflow
/// generically and to check exactly-once semantics after recovery.
///
/// The two verification hooks are the contract that makes the explorer's
/// oracle comparison sound:
///
/// - [`WorkflowApp::canonical_state`] projects the application's final
///   state into a [`Value`] that is *identical* between a crash-free run
///   and any crashed-and-recovered run of the same request sequence.
///   Identifiers minted via `logged_uuid` can legitimately differ when a
///   crash lands before the id was logged (the re-execution draws a fresh
///   one), so the projection replaces uuid-valued ids with the content
///   they point to and keeps only deterministic fields.
/// - [`WorkflowApp::effect_count`] totals the externally visible side
///   effects recorded in state (rows stored, list entries appended,
///   inventory consumed). A duplicated effect — the failure exactly-once
///   semantics rule out — changes the count even if it escapes the
///   canonical projection.
pub trait WorkflowApp: Send + Sync {
    /// Short app name ("media", "social", "travel").
    fn kind(&self) -> &'static str;

    /// The workflow's frontend SSF.
    fn entry_point(&self) -> &'static str;

    /// Installs every SSF and seeds the dataset.
    fn setup(&self, env: &BeldiEnv);

    /// Draws one frontend request from the app's mix.
    fn gen_request(&self, rng: &mut SmallRng) -> Value;

    /// Draws one frontend request from the app's *production* mix (the
    /// DeathStarBench-derived weights, honoring the app's mix knobs).
    ///
    /// The crash-schedule explorer uses [`WorkflowApp::gen_request`],
    /// which over-weights writes so short sequences sensitize
    /// exactly-once bugs; the closed-loop workload driver uses this
    /// method, which preserves the paper's measured traffic shape.
    /// Defaults to the explorer mix for apps without a separate one.
    fn gen_load_request(&self, rng: &mut SmallRng) -> Value {
        self.gen_request(rng)
    }

    /// Canonical post-run application state (see trait docs).
    fn canonical_state(&self, env: &BeldiEnv) -> Value;

    /// An *interleaving-invariant* projection of the final state for the
    /// workload driver: with a fixed multiset of requests, this value is
    /// identical no matter how concurrent workers interleaved (and so can
    /// be digested and compared across runs for seed-stability checks).
    ///
    /// Defaults to [`WorkflowApp::canonical_state`], which is the right
    /// answer whenever that projection is already order-free (travel's
    /// per-key inventory); apps with append-order lists override it with
    /// counts.
    fn bench_fingerprint(&self, env: &BeldiEnv) -> Value {
        self.canonical_state(env)
    }

    /// Total externally visible effects recorded in state.
    fn effect_count(&self, env: &BeldiEnv) -> i64;
}

/// Builds the explorer-sized instance of an app by name
/// (`media` / `social` / `travel`) for the given mode.
///
/// Travel normally wraps reservations in a cross-SSF transaction; that
/// machinery is implemented over the DAAL/shadow tables and is
/// unsupported in cross-table logging mode, so there the factory returns
/// the paper's "fault-tolerance without transactions" configuration
/// (§7.4) instead.
pub fn small_app(kind: &str, mode: beldi::Mode) -> Option<Box<dyn WorkflowApp>> {
    match kind {
        "media" => Some(Box::new(MediaApp::small())),
        "social" => Some(Box::new(SocialApp::small())),
        "travel" => {
            let mut app = TravelApp::small();
            if mode == beldi::Mode::CrossTable {
                app.transactional = false;
            }
            Some(Box::new(app))
        }
        _ => None,
    }
}

/// Which request-mix preset a benchmark run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MixProfile {
    /// The paper's DeathStarBench-derived (read-heavy) weights.
    #[default]
    Default,
    /// Write-heavy weights stressing the exactly-once write paths.
    WriteHeavy,
}

impl MixProfile {
    /// Parses the driver's `--mix` flag spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "default" => Some(MixProfile::Default),
            "write-heavy" | "write_heavy" => Some(MixProfile::WriteHeavy),
            _ => None,
        }
    }

    /// The flag spelling (inverse of [`MixProfile::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            MixProfile::Default => "default",
            MixProfile::WriteHeavy => "write-heavy",
        }
    }
}

/// Builds the benchmark-sized instance of an app by name for the
/// closed-loop workload driver (`beldi-workload::driver`).
///
/// Differences from [`small_app`]:
///
/// - **catalog sizes** target concurrent load: enough distinct keys that
///   partitioning matters, small enough that seeding stays cheap;
/// - **travel inventory is effectively unbounded** (no sell-outs), so
///   every reservation decrements exactly one room and one seat — the
///   invariant behind the driver's conservation checks and the reason
///   its final state is deterministic for a fixed request multiset;
/// - the `mix` preset is applied ([`MixProfile::WriteHeavy`] maps to each
///   app's `*_MIX_WRITE_HEAVY` weights).
///
/// As in [`small_app`], travel drops its cross-SSF transaction in
/// cross-table mode (unsupported there, §7.4).
pub fn bench_app(kind: &str, mode: beldi::Mode, mix: MixProfile) -> Option<Box<dyn WorkflowApp>> {
    let heavy = mix == MixProfile::WriteHeavy;
    match kind {
        "media" => Some(Box::new(MediaApp {
            movies: 40,
            users: 20,
            mix: if heavy {
                media::MEDIA_MIX_WRITE_HEAVY
            } else {
                media::MEDIA_MIX_DEFAULT
            },
        })),
        "social" => Some(Box::new(SocialApp {
            users: 40,
            follows_per_user: 4,
            mix: if heavy {
                social::SOCIAL_MIX_WRITE_HEAVY
            } else {
                social::SOCIAL_MIX_DEFAULT
            },
        })),
        "travel" => Some(Box::new(TravelApp {
            hotels: 25,
            flights: 25,
            users: 20,
            rooms_per_hotel: 1_000_000,
            seats_per_flight: 1_000_000,
            transactional: mode != beldi::Mode::CrossTable,
            // Contention aborts are retried so the final inventory is a
            // pure function of the request multiset (seed-stability).
            retry_contention: true,
            mix: if heavy {
                travel::TRAVEL_MIX_WRITE_HEAVY
            } else {
                travel::TRAVEL_MIX_DEFAULT
            },
        })),
        _ => None,
    }
}

/// The static half of "an application mutates state only through the
/// logged API" is this crate's `clippy.toml` (DESIGN.md §11).
#[cfg(test)]
mod clippy_canaries {
    use beldi::value::{vmap, Cond, Update};
    use beldi::BeldiEnv;
    use beldi_simdb::PrimaryKey;

    /// What a seeding helper that went around `SsfContext` would look
    /// like. Clippy resolves the callee, so it is caught in a helper, at
    /// any depth, as surely as in a handler body.
    fn helper_that_writes_around_the_log(env: &BeldiEnv) {
        let key = PrimaryKey::hash("k");
        #[expect(clippy::disallowed_methods, reason = "canary: Database::put")]
        env.db().put("t", vmap! { "Id" => "k" }).ok();
        #[expect(clippy::disallowed_methods, reason = "canary: Database::update")]
        env.db()
            .update("t", &key, &Cond::True, &Update::new().inc("N", 1))
            .ok();
        #[expect(clippy::disallowed_methods, reason = "canary: Database::delete")]
        env.db().delete("t", &key, &Cond::True).ok();
        #[expect(
            clippy::disallowed_methods,
            reason = "canary: Database::transact_write"
        )]
        env.db().transact_write(&[]).ok();
    }

    /// An expectation that excuses nothing fails `cargo clippy
    /// --all-targets -- -D warnings`: that is the test. Running the
    /// helper only keeps it from being dead code.
    #[test]
    fn the_store_write_surface_is_disallowed_in_this_crate() {
        helper_that_writes_around_the_log(&BeldiEnv::for_tests());
    }

    fn paths(toml: &str) -> Vec<&str> {
        toml.lines()
            .filter(|l| l.trim_start().starts_with("{ path = "))
            .collect()
    }

    /// Clippy reads the nearest `clippy.toml` and does not merge, so this
    /// crate's file and `beldi`'s must each carry every entry of the
    /// root's, plus the store's write surface.
    #[test]
    fn clippy_toml_repeats_the_root() {
        let root = paths(include_str!("../../../clippy.toml"));
        assert!(root.len() >= 25);
        for (crate_name, file) in [
            ("beldi-apps", include_str!("../clippy.toml")),
            ("beldi", include_str!("../../core/clippy.toml")),
        ] {
            let mine = paths(file);
            for entry in &root {
                assert!(mine.contains(entry), "missing in {crate_name}: {entry}");
            }
            let own: Vec<_> = mine.iter().filter(|e| !root.contains(e)).collect();
            assert_eq!(
                own.len(),
                4,
                "{crate_name}: put, update, delete, transact_write: {own:?}"
            );
            assert!(own.iter().all(|e| e.contains("beldi_simdb::Database::")));
        }
    }
}
