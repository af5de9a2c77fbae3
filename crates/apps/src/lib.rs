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
//! - [`WorkflowApp::install`] registers every SSF of the workflow;
//! - [`WorkflowApp::seed`] loads the dataset (hotels, movies, users,
//!   follow graph);
//! - `request(&mut rng)` draws one frontend request from the
//!   DeathStarBench-derived mix;
//! - `entry()` names the workflow's frontend SSF.
//!
//! The same application code runs unmodified in all three modes (Beldi,
//! cross-table, baseline) because it only speaks the
//! [`beldi::SsfContext`] API — this is what the paper's latency/throughput
//! comparisons rely on.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod media;
pub mod rng;
pub mod social;
pub mod travel;

pub use media::MediaApp;
pub use social::SocialApp;
pub use travel::TravelApp;

use beldi::value::Value;
use beldi::{BeldiEnv, BeldiResult, SsfContext};
use rand::rngs::SmallRng;

/// A uniform interface over the three case-study applications, used by
/// the crash-schedule explorer (`beldi-workload`) to drive any workflow
/// generically and to check exactly-once semantics after recovery.
///
/// [`WorkflowApp::canonical_state`] is the contract that makes the
/// explorer's oracle comparison sound: it projects the application's final
/// state into a [`Value`] that is *identical* between a crash-free run and
/// any crashed-and-recovered run of the same request sequence. A
/// re-execution mints the `logged_uuid` its step minted, but a run whose
/// roots are named otherwise mints others, so the projection replaces
/// uuid-valued ids with the content they point to and keeps only
/// deterministic fields. A step applied twice is judged from
/// the run record, app-independently (`beldi_workload::history`).
pub trait WorkflowApp: Send + Sync {
    /// Short app name ("media", "social", "travel").
    fn kind(&self) -> &'static str;

    /// The workflow's frontend SSF.
    fn entry_point(&self) -> &'static str;

    /// Registers every SSF of the workflow.
    fn install(&self, env: &BeldiEnv);

    /// Loads the dataset into the installed SSFs' tables; the default
    /// loads none. Errors: the store's, on a seeding write it rejects.
    fn seed(&self, _env: &BeldiEnv) -> BeldiResult<()> {
        Ok(())
    }

    /// Installs every SSF and seeds the dataset: the one place a seeding
    /// error panics.
    #[expect(
        clippy::expect_used,
        reason = "a fresh environment, and the workloads that set one up have no error path: a \
                  seeding write the store rejects is a bug in the app's dataset"
    )]
    fn setup(&self, env: &BeldiEnv) {
        self.install(env);
        self.seed(env).expect("seeding a freshly installed app");
    }

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
}

/// Builds the explorer-sized instance of an app by name
/// (`media` / `social` / `travel`). Every app runs in every mode.
pub fn small_app(kind: &str) -> Option<Box<dyn WorkflowApp>> {
    match kind {
        "media" => Some(Box::new(MediaApp::small())),
        "social" => Some(Box::new(SocialApp::small())),
        "travel" => Some(Box::new(TravelApp::small())),
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
/// closed-loop workload driver (`beldi-workload::driver`). Every app runs
/// in every mode, so `_mode` is unused.
///
/// Differences from [`small_app`]:
///
/// - **catalog sizes** target concurrent load: enough distinct keys that
///   concurrent requests spread over many items, small enough that seeding
///   stays cheap;
/// - **travel inventory is effectively unbounded** (no sell-outs), so
///   every reservation decrements exactly one room and one seat — the
///   invariant behind the driver's conservation checks and the reason
///   its final state is deterministic for a fixed request multiset;
/// - the `mix` preset is applied ([`MixProfile::WriteHeavy`] maps to each
///   app's `*_MIX_WRITE_HEAVY` weights).
pub fn bench_app(kind: &str, _mode: beldi::Mode, mix: MixProfile) -> Option<Box<dyn WorkflowApp>> {
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
        "travel" => Some(Box::new(bench_travel(if heavy {
            travel::TRAVEL_MIX_WRITE_HEAVY
        } else {
            travel::TRAVEL_MIX_DEFAULT
        }))),
        _ => None,
    }
}

/// [`bench_app`]'s travel app under `mix`.
fn bench_travel(mix: [u32; 4]) -> TravelApp {
    TravelApp {
        hotels: 25,
        flights: 25,
        users: 20,
        rooms_per_hotel: 1_000_000,
        seats_per_flight: 1_000_000,
        transactional: true,
        // Contention aborts are retried so the final inventory is a
        // pure function of the request multiset (seed-stability).
        retry_contention: true,
        mix,
    }
}

/// The contended shape of `drive --smoke`'s golden matrix: [`bench_app`]'s
/// travel app with as few hotels and flights as [`TravelApp::small`] and
/// the write-heavy mix, so concurrent reservations meet on their items
/// and wait-die decides who waits.
pub fn contended_travel() -> TravelApp {
    let small = TravelApp::small();
    TravelApp {
        hotels: small.hotels,
        flights: small.flights,
        ..bench_travel(travel::TRAVEL_MIX_WRITE_HEAVY)
    }
}

/// The one locked read-modify-write (§6.1): locks `key` in `table`, reads
/// it, writes what `f` makes of the current value, if anything, unlocks,
/// and returns whether it wrote. Inside a transaction the read already
/// takes the item's 2PL lock and `unlock` is refused, so there it only
/// reads and writes. The only caller of `lock`/`unlock` in this crate.
pub fn update_locked(
    ctx: &mut SsfContext,
    table: &str,
    key: &str,
    f: impl FnOnce(Value) -> Option<Value>,
) -> BeldiResult<bool> {
    let locked = !ctx.in_txn();
    if locked {
        ctx.lock(table, key)?;
    }
    let wrote = match f(ctx.read(table, key)?) {
        Some(value) => ctx.write(table, key, value).map(|()| true)?,
        None => false,
    };
    if locked {
        ctx.unlock(table, key)?;
    }
    Ok(wrote)
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
        #[expect(
            clippy::disallowed_methods,
            reason = "canary: Database::update_returning"
        )]
        env.db()
            .update_returning("t", &key, &Cond::True, &Update::new(), &Default::default())
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

    /// The entries and settings of a `clippy.toml`: its non-comment
    /// lines but the list brackets.
    fn paths(toml: &str) -> Vec<&str> {
        toml.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.ends_with('[') && *l != "]")
            .collect()
    }

    /// Clippy reads the nearest `clippy.toml` and does not merge, so this
    /// crate's file and `beldi`'s must each carry every entry and setting
    /// of the root's, plus the store's write surface.
    #[test]
    fn clippy_toml_repeats_the_root() {
        let root = paths(include_str!("../../../clippy.toml"));
        assert!(root.len() >= 25);
        assert!(root.contains(&"allow-unwrap-in-tests = true"));
        assert!(root.contains(&"allow-expect-in-tests = true"));
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
                5,
                "{crate_name}: put, update, update_returning, delete, transact_write: {own:?}"
            );
            assert!(own.iter().all(|e| e.contains("beldi_simdb::Database::")));
        }
    }
}
