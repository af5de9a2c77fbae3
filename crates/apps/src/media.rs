//! The movie review service (Fig. 23; cf. IMDB / DeathStarBench
//! `mediaMicroservices`).
//!
//! Workflow (13 SSFs):
//!
//! ```text
//! client → frontend → { compose-review, page }
//!          compose-review → { unique-id, user, movie-id, text }
//!                         → review-storage → { user-review, movie-review }
//!          page           → { movie-info, movie-review, cast-info, plot }
//!          movie-review   → review-storage
//! ```
//!
//! Users create accounts, read reviews, view the plot and cast of movies,
//! and write their own movie reviews (§7.1). Review-list appends take the
//! item lock so concurrent composes against a hot movie never lose
//! entries.

use std::sync::Arc;

use beldi::value::{vmap, Value};
use beldi::{BeldiEnv, BeldiError, BeldiResult};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::rng::pick_mix;
use crate::update_locked;

/// Names of the media workflow's SSFs.
pub const SSFS: [&str; 13] = [
    "media-frontend",
    "media-compose-review",
    "media-unique-id",
    "media-user",
    "media-movie-id",
    "media-text",
    "media-review-storage",
    "media-user-review",
    "media-movie-review",
    "media-page",
    "media-movie-info",
    "media-cast-info",
    "media-plot",
];

/// How many reviews a movie/user list retains (DSB keeps a window too;
/// this also bounds row size, as the paper's 400 KB cap would).
const REVIEW_WINDOW: usize = 20;

/// Configuration and request generator for the movie review app.
#[derive(Debug, Clone)]
pub struct MediaApp {
    /// Number of seeded movies.
    pub movies: usize,
    /// Number of registered users.
    pub users: usize,
    /// Request-mix weights: `[page, compose]` percentages (default: the
    /// read-heavy DeathStarBench 90/10).
    pub mix: [u32; 2],
}

/// The read-heavy DeathStarBench media mix.
pub const MEDIA_MIX_DEFAULT: [u32; 2] = [90, 10];

/// A compose-heavy mix for stress/bench runs.
pub const MEDIA_MIX_WRITE_HEAVY: [u32; 2] = [40, 60];

impl Default for MediaApp {
    fn default() -> Self {
        MediaApp {
            movies: 100,
            users: 100,
            mix: MEDIA_MIX_DEFAULT,
        }
    }
}

fn movie_key(i: usize) -> String {
    format!("movie-{i}")
}

fn title_of(i: usize) -> String {
    format!("Title {i}")
}

fn user_key(i: usize) -> String {
    format!("user-{i}")
}

impl MediaApp {
    /// A small configuration for the crash-schedule explorer: enough
    /// movies/users for the request mix, cheap to re-seed hundreds of
    /// times.
    pub fn small() -> Self {
        MediaApp {
            movies: 6,
            users: 4,
            ..MediaApp::default()
        }
    }

    /// The workflow's entry SSF.
    pub fn entry(&self) -> &'static str {
        "media-frontend"
    }

    /// Draws one frontend request from [`MediaApp::mix`] (default: 90%
    /// page views, 10% review composes — the read-heavy DeathStarBench
    /// media mix).
    pub fn request(&self, rng: &mut SmallRng) -> Value {
        match pick_mix(rng, &self.mix) {
            0 => vmap! {
                "op" => "page",
                "movie_id" => movie_key(rng.gen_range(0..self.movies)),
            },
            _ => self.compose_request(rng),
        }
    }

    /// A review-compose request.
    fn compose_request(&self, rng: &mut SmallRng) -> Value {
        vmap! {
            "op" => "compose",
            "user" => user_key(rng.gen_range(0..self.users)),
            "title" => title_of(rng.gen_range(0..self.movies)),
            "text" => "A review with depth and nuance. ",
            "rating" => rng.gen_range(0..11i64),
        }
    }
}

impl crate::WorkflowApp for MediaApp {
    fn kind(&self) -> &'static str {
        "media"
    }

    fn entry_point(&self) -> &'static str {
        self.entry()
    }

    /// Registers all thirteen SSFs.
    fn install(&self, env: &BeldiEnv) {
        install_unique_id(env);
        install_user(env);
        install_movie_id(env);
        install_text(env);
        install_review_storage(env);
        install_list_append(env, "media-user-review", "byuser");
        install_list_append(env, "media-movie-review", "bymovie");
        install_info_service(env, "media-movie-info", "info");
        install_info_service(env, "media-cast-info", "cast");
        install_info_service(env, "media-plot", "plots");
        install_compose(env);
        install_page(env);
        install_frontend(env);
    }

    /// Seeds movies (titles, info, cast, plots) and users.
    fn seed(&self, env: &BeldiEnv) -> BeldiResult<()> {
        for i in 0..self.movies {
            let id = movie_key(i);
            env.seed(
                "media-movie-id",
                "titles",
                &title_of(i),
                vmap! { "movie_id" => id.as_str() },
            )?;
            env.seed(
                "media-movie-info",
                "info",
                &id,
                vmap! { "title" => title_of(i), "year" => 1980 + (i % 45) as i64 },
            )?;
            env.seed(
                "media-cast-info",
                "cast",
                &id,
                Value::List(
                    (0..4)
                        .map(|c| Value::from(format!("actor-{}", (i * 4 + c) % 50)))
                        .collect(),
                ),
            )?;
            env.seed(
                "media-plot",
                "plots",
                &id,
                Value::from(format!("The plot of {} thickens.", title_of(i))),
            )?;
        }
        for u in 0..self.users {
            env.seed(
                "media-user",
                "users",
                &user_key(u),
                vmap! { "user_id" => format!("uid-{u}") },
            )?;
        }
        Ok(())
    }

    /// The explorer over-weights composes (50% instead of the mix's 10%)
    /// so short request sequences exercise the write-heavy path — the one
    /// exactly-once semantics actually protect.
    fn gen_request(&self, rng: &mut SmallRng) -> Value {
        if rng.gen_range(0..2usize) == 0 {
            self.compose_request(rng)
        } else {
            self.request(rng)
        }
    }

    /// The production mix (honoring [`MediaApp::mix`]) — what the
    /// closed-loop driver issues.
    fn gen_load_request(&self, rng: &mut SmallRng) -> Value {
        self.request(rng)
    }

    /// Interleaving-invariant load fingerprint: stored-review row count
    /// plus per-movie and per-user list *lengths*. Review lists are
    /// windowed append-order lists, so their contents depend on how
    /// concurrent composes interleave — but with a fixed request multiset
    /// the *counts* do not, which is what lets the driver assert
    /// seed-stability across concurrent runs.
    fn bench_fingerprint(&self, env: &BeldiEnv) -> Value {
        let list_len = |ssf: &str, table: &str, key: &str| -> i64 {
            env.read_current(ssf, table, key)
                .ok()
                .and_then(|v| v.as_list().map(Vec::len))
                .unwrap_or(0) as i64
        };
        let mut by_movie = beldi::value::Map::new();
        for i in 0..self.movies {
            let key = movie_key(i);
            let n = list_len("media-movie-review", "bymovie", &key);
            by_movie.insert(key, Value::Int(n));
        }
        let mut by_user = beldi::value::Map::new();
        for u in 0..self.users {
            let uid = format!("uid-{u}");
            let n = list_len("media-user-review", "byuser", &uid);
            by_user.insert(uid, Value::Int(n));
        }
        let review_rows = env
            .db()
            .distinct_hash_keys(&beldi::schema::data_table(
                "media-review-storage",
                "reviews",
            ))
            .map(|k| k.len())
            .unwrap_or(0);
        vmap! {
            "review_rows" => review_rows as i64,
            "by_movie_len" => Value::Map(by_movie),
            "by_user_len" => Value::Map(by_user),
        }
    }

    /// Review ids are `logged_uuid`s, named after the roots, so
    /// the projection resolves each id in the per-movie and per-user lists
    /// to the review's deterministic content (user, movie, rating, text)
    /// and adds the review-storage row count. A re-executed store of a
    /// review lands on the row its id names, so that count does not show
    /// it; a step applied twice is judged by `beldi_workload::history`.
    fn canonical_state(&self, env: &BeldiEnv) -> Value {
        let project = |id: &Value| -> Value {
            let Some(id) = id.as_str() else {
                return Value::Null;
            };
            let r = env
                .read_current("media-review-storage", "reviews", id)
                .unwrap_or(Value::Null);
            vmap! {
                "user" => r.get_str("user_id").unwrap_or_default(),
                "movie" => r.get_str("movie_id").unwrap_or_default(),
                "rating" => r.get_int("rating").unwrap_or(-1),
                "text" => r.get_attr("text").cloned().unwrap_or(Value::Null),
            }
        };
        let list_of = |ssf: &str, table: &str, key: &str| -> Value {
            let ids = env
                .read_current(ssf, table, key)
                .unwrap_or(Value::Null)
                .as_list()
                .cloned()
                .unwrap_or_default();
            Value::List(ids.iter().map(project).collect())
        };
        let mut by_movie = beldi::value::Map::new();
        for i in 0..self.movies {
            let key = movie_key(i);
            by_movie.insert(key.clone(), list_of("media-movie-review", "bymovie", &key));
        }
        let mut by_user = beldi::value::Map::new();
        for u in 0..self.users {
            let uid = format!("uid-{u}");
            by_user.insert(uid.clone(), list_of("media-user-review", "byuser", &uid));
        }
        let review_rows = env
            .db()
            .distinct_hash_keys(&beldi::schema::data_table(
                "media-review-storage",
                "reviews",
            ))
            .map(|k| k.len())
            .unwrap_or(0);
        vmap! {
            "by_movie" => Value::Map(by_movie),
            "by_user" => Value::Map(by_user),
            "review_rows" => review_rows as i64,
        }
    }
}

// ---- SSF bodies ----

fn install_unique_id(env: &BeldiEnv) {
    env.register_ssf(
        "media-unique-id",
        &[],
        // Nondeterminism flows through the logged helper so re-executions
        // mint the same id.
        Arc::new(|ctx, _| Ok(Value::from(ctx.logged_uuid()))),
    );
}

fn install_user(env: &BeldiEnv) {
    env.register_ssf(
        "media-user",
        &["users"],
        Arc::new(|ctx, input| {
            let user = input.get_str("user").unwrap_or_default().to_owned();
            let rec = ctx.read("users", &user)?;
            match rec.get_str("user_id") {
                Some(uid) => Ok(Value::from(uid)),
                None => Err(BeldiError::Protocol(format!("unknown user {user}"))),
            }
        }),
    );
}

fn install_movie_id(env: &BeldiEnv) {
    env.register_ssf(
        "media-movie-id",
        &["titles"],
        Arc::new(|ctx, input| {
            let title = input.get_str("title").unwrap_or_default().to_owned();
            let rec = ctx.read("titles", &title)?;
            match rec.get_str("movie_id") {
                Some(id) => Ok(Value::from(id)),
                None => Err(BeldiError::Protocol(format!("unknown title {title}"))),
            }
        }),
    );
}

fn install_text(env: &BeldiEnv) {
    env.register_ssf(
        "media-text",
        &[],
        Arc::new(|_, input| {
            let text = input.get_str("text").unwrap_or_default().trim().to_owned();
            let words = text.split_whitespace().count() as i64;
            Ok(vmap! { "text" => text, "words" => words })
        }),
    );
}

fn install_review_storage(env: &BeldiEnv) {
    env.register_ssf(
        "media-review-storage",
        &["reviews"],
        Arc::new(|ctx, input| match input.get_str("op") {
            Some("store") => {
                let id = input.get_str("review_id").unwrap_or_default().to_owned();
                let review = input.get_attr("review").cloned().unwrap_or(Value::Null);
                ctx.write("reviews", &id, review)?;
                Ok(Value::from(id))
            }
            Some("fetch") => {
                let ids = input.get_list("ids").cloned().unwrap_or_default();
                let mut out = Vec::with_capacity(ids.len());
                for id in ids {
                    let Some(id) = id.as_str() else { continue };
                    out.push(ctx.read("reviews", id)?);
                }
                Ok(Value::List(out))
            }
            other => Err(BeldiError::Protocol(format!(
                "unknown review-storage op {other:?}"
            ))),
        }),
    );
}

/// `media-user-review` and `media-movie-review` share one body: append a
/// review id to the keyed list (or return it), under the item lock.
fn install_list_append(env: &BeldiEnv, ssf: &'static str, table: &'static str) {
    env.register_ssf(
        ssf,
        &[table],
        Arc::new(move |ctx, input| {
            let key = input.get_str("key").unwrap_or_default().to_owned();
            match input.get_str("op") {
                Some("append") => {
                    let review_id = input.get_str("review_id").unwrap_or_default();
                    update_locked(ctx, table, &key, |current| {
                        let mut list = current.as_list().cloned().unwrap_or_default();
                        list.push(Value::from(review_id));
                        list.drain(..list.len().saturating_sub(REVIEW_WINDOW));
                        Some(Value::List(list))
                    })?;
                    Ok(Value::Null)
                }
                Some("read") => ctx.read(table, &key),
                other => Err(BeldiError::Protocol(format!("unknown list op {other:?}"))),
            }
        }),
    );
}

/// `media-movie-info`, `media-cast-info`, and `media-plot` are simple
/// keyed lookups over their own tables.
fn install_info_service(env: &BeldiEnv, ssf: &'static str, table: &'static str) {
    env.register_ssf(
        ssf,
        &[table],
        Arc::new(move |ctx, input| {
            let id = input.get_str("movie_id").unwrap_or_default().to_owned();
            ctx.read(table, &id)
        }),
    );
}

fn install_compose(env: &BeldiEnv) {
    env.register_ssf(
        "media-compose-review",
        &[],
        Arc::new(|ctx, input| {
            let review_id = ctx.sync_invoke("media-unique-id", Value::Null)?;
            let user_id = ctx.sync_invoke("media-user", input.clone())?;
            let movie_id = ctx.sync_invoke("media-movie-id", input.clone())?;
            let text = ctx.sync_invoke("media-text", input.clone())?;
            let review = vmap! {
                "review_id" => review_id.clone(),
                "user_id" => user_id.clone(),
                "movie_id" => movie_id.clone(),
                "text" => text,
                "rating" => input.get_int("rating").unwrap_or(0),
            };
            ctx.sync_invoke(
                "media-review-storage",
                vmap! { "op" => "store", "review_id" => review_id.clone(), "review" => review },
            )?;
            ctx.sync_invoke(
                "media-user-review",
                vmap! { "op" => "append", "key" => user_id, "review_id" => review_id.clone() },
            )?;
            ctx.sync_invoke(
                "media-movie-review",
                vmap! { "op" => "append", "key" => movie_id, "review_id" => review_id.clone() },
            )?;
            Ok(review_id)
        }),
    );
}

fn install_page(env: &BeldiEnv) {
    env.register_ssf(
        "media-page",
        &[],
        Arc::new(|ctx, input| {
            let info = ctx.sync_invoke("media-movie-info", input.clone())?;
            let cast = ctx.sync_invoke("media-cast-info", input.clone())?;
            let plot = ctx.sync_invoke("media-plot", input.clone())?;
            let movie_id = input.get_str("movie_id").unwrap_or_default();
            let review_ids = ctx.sync_invoke(
                "media-movie-review",
                vmap! { "op" => "read", "key" => movie_id },
            )?;
            let reviews = ctx.sync_invoke(
                "media-review-storage",
                vmap! { "op" => "fetch", "ids" => review_ids },
            )?;
            Ok(vmap! {
                "info" => info,
                "cast" => cast,
                "plot" => plot,
                "reviews" => reviews,
            })
        }),
    );
}

fn install_frontend(env: &BeldiEnv) {
    env.register_ssf(
        "media-frontend",
        &[],
        Arc::new(|ctx, input| match input.get_str("op") {
            Some("compose") => ctx.sync_invoke("media-compose-review", input),
            Some("page") => ctx.sync_invoke("media-page", input),
            other => Err(BeldiError::Protocol(format!("unknown media op {other:?}"))),
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::request_rng;
    use crate::WorkflowApp;

    fn installed_env() -> (BeldiEnv, MediaApp) {
        let env = BeldiEnv::for_tests();
        let app = MediaApp {
            movies: 8,
            users: 4,
            ..MediaApp::default()
        };
        app.setup(&env);
        (env, app)
    }

    fn compose(env: &BeldiEnv, app: &MediaApp, user: &str, movie: usize) -> Value {
        env.invoke(
            app.entry(),
            vmap! {
                "op" => "compose",
                "user" => user,
                "title" => title_of(movie),
                "text" => " insightful critique ",
                "rating" => 8i64,
            },
        )
        .unwrap()
    }

    #[test]
    fn page_of_fresh_movie_has_metadata_and_no_reviews() {
        let (env, app) = installed_env();
        let page = env
            .invoke(
                app.entry(),
                vmap! { "op" => "page", "movie_id" => "movie-3" },
            )
            .unwrap();
        assert_eq!(
            page.get_attr("info").unwrap().get_str("title"),
            Some("Title 3")
        );
        assert_eq!(page.get_attr("cast").unwrap().as_list().unwrap().len(), 4);
        assert!(page
            .get_attr("plot")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("Title 3"));
        assert_eq!(page.get_list("reviews").unwrap().len(), 0);
    }

    #[test]
    fn composed_review_appears_on_the_movie_page() {
        let (env, app) = installed_env();
        let review_id = compose(&env, &app, "user-1", 3);
        assert!(review_id.as_str().is_some());
        let page = env
            .invoke(
                app.entry(),
                vmap! { "op" => "page", "movie_id" => "movie-3" },
            )
            .unwrap();
        let reviews = page.get_list("reviews").unwrap();
        assert_eq!(reviews.len(), 1);
        assert_eq!(reviews[0].get_str("user_id"), Some("uid-1"));
        assert_eq!(reviews[0].get_int("rating"), Some(8));
        assert_eq!(
            reviews[0].get_attr("text").unwrap().get_str("text"),
            Some("insightful critique")
        );
    }

    #[test]
    fn reviews_accumulate_per_movie_and_user() {
        let (env, app) = installed_env();
        compose(&env, &app, "user-0", 2);
        compose(&env, &app, "user-1", 2);
        compose(&env, &app, "user-0", 5);
        let by_movie = env
            .read_current("media-movie-review", "bymovie", "movie-2")
            .unwrap();
        assert_eq!(by_movie.as_list().unwrap().len(), 2);
        let by_user = env
            .read_current("media-user-review", "byuser", "uid-0")
            .unwrap();
        assert_eq!(by_user.as_list().unwrap().len(), 2);
    }

    #[test]
    fn review_window_bounds_list_growth() {
        let (env, app) = installed_env();
        for _ in 0..(REVIEW_WINDOW + 5) {
            compose(&env, &app, "user-2", 7);
        }
        let list = env
            .read_current("media-movie-review", "bymovie", "movie-7")
            .unwrap();
        assert_eq!(list.as_list().unwrap().len(), REVIEW_WINDOW);
    }

    #[test]
    fn unknown_user_fails_compose() {
        let (env, app) = installed_env();
        let r = env.invoke(
            app.entry(),
            vmap! {
                "op" => "compose", "user" => "ghost", "title" => title_of(0),
                "text" => "x", "rating" => 1i64,
            },
        );
        assert!(matches!(r, Err(BeldiError::Protocol(_))));
    }

    #[test]
    fn concurrent_composes_on_one_movie_lose_nothing() {
        let (env, app) = installed_env();
        let env = std::sync::Arc::new(env);
        let threads: Vec<_> = (0..4)
            .map(|u| {
                let (e, app) = (std::sync::Arc::clone(&env), app.clone());
                let client = move || {
                    for _ in 0..3 {
                        compose(&e, &app, &format!("user-{u}"), 1);
                    }
                };
                env.clock().spawn(format!("client-{u}"), Box::new(client))
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let list = env
            .read_current("media-movie-review", "bymovie", "movie-1")
            .unwrap();
        assert_eq!(
            list.as_list().unwrap().len(),
            12,
            "no append lost under locks"
        );
    }

    #[test]
    fn request_mix_is_read_heavy() {
        let app = MediaApp::default();
        let mut rng = request_rng(3);
        let mut pages = 0;
        for _ in 0..500 {
            if app.request(&mut rng).get_str("op") == Some("page") {
                pages += 1;
            }
        }
        assert!(pages > 400, "expected ~90% pages, got {pages}/500");
    }
}
