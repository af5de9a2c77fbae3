//! The social media site (Fig. 24; cf. Twitter / DeathStarBench
//! `socialNetwork`).
//!
//! Workflow (13 SSFs):
//!
//! ```text
//! client → frontend → { compose-post, user-timeline, home-timeline }
//!          compose-post → { unique-id, text, media, user }
//!          text         → { url-shorten, user-mention }
//!          compose-post → post-storage
//!                       → social-graph (followers)
//!                       → timeline-storage (author + follower fan-out)
//!          user-timeline / home-timeline → timeline-storage → post-storage
//! ```
//!
//! Users log in, see their timeline, and create posts that tag other
//! users, attach media, and link URLs (§7.1). Timeline appends happen
//! under item locks so a fan-out never loses entries.

use std::sync::Arc;

use beldi::value::{vmap, Value};
use beldi::{BeldiEnv, BeldiError, BeldiResult};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::rng::pick_mix;
use crate::update_locked;

/// Names of the social workflow's SSFs.
pub const SSFS: [&str; 13] = [
    "social-frontend",
    "social-compose-post",
    "social-unique-id",
    "social-url-shorten",
    "social-media",
    "social-text",
    "social-user-mention",
    "social-user",
    "social-post-storage",
    "social-graph",
    "social-timeline-storage",
    "social-user-timeline",
    "social-home-timeline",
];

/// Timeline window retained per user (bounds row growth, like the paper's
/// 400 KB row cap would force).
const TIMELINE_WINDOW: usize = 20;

/// Configuration and request generator for the social app.
#[derive(Debug, Clone)]
pub struct SocialApp {
    /// Number of registered users.
    pub users: usize,
    /// Follows per user (ring topology offsets — deterministic).
    pub follows_per_user: usize,
    /// Request-mix weights: `[home-timeline, user-timeline, compose]`
    /// percentages (default: the DeathStarBench 60/30/10).
    pub mix: [u32; 3],
}

/// The DeathStarBench social mix.
pub const SOCIAL_MIX_DEFAULT: [u32; 3] = [60, 30, 10];

/// A compose-heavy mix for stress/bench runs (exercises the locked
/// timeline fan-out).
pub const SOCIAL_MIX_WRITE_HEAVY: [u32; 3] = [25, 15, 60];

impl Default for SocialApp {
    fn default() -> Self {
        SocialApp {
            users: 100,
            follows_per_user: 8,
            mix: SOCIAL_MIX_DEFAULT,
        }
    }
}

fn user_key(i: usize) -> String {
    format!("user-{i}")
}

impl SocialApp {
    /// A small configuration for the crash-schedule explorer.
    pub fn small() -> Self {
        SocialApp {
            users: 5,
            follows_per_user: 2,
            ..SocialApp::default()
        }
    }

    /// The workflow's entry SSF.
    pub fn entry(&self) -> &'static str {
        "social-frontend"
    }

    /// Draws one frontend request from [`SocialApp::mix`] (default: 60%
    /// home-timeline reads, 30% user-timeline reads, 10% composes — the
    /// DeathStarBench social mix).
    pub fn request(&self, rng: &mut SmallRng) -> Value {
        let user = user_key(rng.gen_range(0..self.users));
        match pick_mix(rng, &self.mix) {
            0 => vmap! { "op" => "home-timeline", "user" => user },
            1 => vmap! { "op" => "user-timeline", "user" => user },
            _ => self.compose_request(user, rng),
        }
    }

    /// A post-compose request by `user`, mentioning another user.
    fn compose_request(&self, user: String, rng: &mut SmallRng) -> Value {
        let mention = user_key(rng.gen_range(0..self.users));
        vmap! {
            "op" => "compose",
            "user" => user,
            "text" => format!("hello @{mention} see http://long.example/{}", rng.gen_range(0..10_000)),
            "media" => Value::List(vec![Value::from(format!("img-{}", rng.gen_range(0..100)))]),
        }
    }
}

impl crate::WorkflowApp for SocialApp {
    fn kind(&self) -> &'static str {
        "social"
    }

    fn entry_point(&self) -> &'static str {
        self.entry()
    }

    /// Registers all thirteen SSFs.
    fn install(&self, env: &BeldiEnv) {
        install_unique_id(env);
        install_url_shorten(env);
        install_user_mention(env);
        install_media(env);
        install_text(env);
        install_user(env);
        install_post_storage(env);
        install_social_graph(env);
        install_timeline_storage(env);
        install_timeline_reader(env, "social-user-timeline", "read-user");
        install_timeline_reader(env, "social-home-timeline", "read-home");
        install_compose(env);
        install_frontend(env);
    }

    /// Seeds users and the follow graph (each user follows the next
    /// `follows_per_user` users in a ring — deterministic and connected).
    fn seed(&self, env: &BeldiEnv) -> BeldiResult<()> {
        for u in 0..self.users {
            env.seed(
                "social-user",
                "users",
                &user_key(u),
                vmap! { "user_id" => user_key(u), "name" => format!("User {u}") },
            )?;
            let followers: Vec<Value> = (1..=self.follows_per_user)
                .map(|d| Value::from(user_key((u + self.users - d) % self.users)))
                .collect();
            env.seed(
                "social-graph",
                "followers",
                &user_key(u),
                Value::List(followers),
            )?;
        }
        Ok(())
    }

    /// The explorer over-weights composes (50% instead of the mix's 10%)
    /// so short request sequences exercise posting — storage writes, the
    /// url shortener, and the locked timeline fan-out.
    fn gen_request(&self, rng: &mut SmallRng) -> Value {
        if rng.gen_range(0..2usize) == 0 {
            let user = user_key(rng.gen_range(0..self.users));
            self.compose_request(user, rng)
        } else {
            self.request(rng)
        }
    }

    /// The production mix (honoring [`SocialApp::mix`]) — what the
    /// closed-loop driver issues.
    fn gen_load_request(&self, rng: &mut SmallRng) -> Value {
        self.request(rng)
    }

    /// Interleaving-invariant load fingerprint: stored post and url row
    /// counts plus per-user timeline *lengths*. Timelines are windowed
    /// append-order lists whose contents depend on compose interleaving,
    /// but with a fixed request multiset the counts do not — the property
    /// the driver's seed-stability check relies on.
    fn bench_fingerprint(&self, env: &BeldiEnv) -> Value {
        let row_count = |ssf: &str, table: &str| -> i64 {
            env.db()
                .distinct_hash_keys(&beldi::schema::data_table(ssf, table))
                .map(|k| k.len())
                .unwrap_or(0) as i64
        };
        let tl_len = |table: &str, user: &str| -> i64 {
            env.read_current("social-timeline-storage", table, user)
                .ok()
                .and_then(|v| v.as_list().map(Vec::len))
                .unwrap_or(0) as i64
        };
        let mut timelines = beldi::value::Map::new();
        for u in 0..self.users {
            let user = user_key(u);
            let v = vmap! {
                "usertl" => tl_len("usertl", &user),
                "hometl" => tl_len("hometl", &user),
            };
            timelines.insert(user, v);
        }
        vmap! {
            "post_rows" => row_count("social-post-storage", "posts"),
            "url_rows" => row_count("social-url-shorten", "urls"),
            "timeline_len" => Value::Map(timelines),
        }
    }

    /// Post ids and shortened links are `logged_uuid`s, named after the
    /// roots, so timelines are projected id → post content, with
    /// `s.ly/<uuid8>` tokens normalized to `s.ly/~`; the url table
    /// contributes its (deterministic) original URLs sorted, plus row
    /// counts for posts and urls. A re-executed store of a post or a link
    /// lands on the row its id names, so those counts do not show it; a
    /// step applied twice is judged by `beldi_workload::history`.
    fn canonical_state(&self, env: &BeldiEnv) -> Value {
        let project_post = |id: &Value| -> Value {
            let Some(id) = id.as_str() else {
                return Value::Null;
            };
            let p = env
                .read_current("social-post-storage", "posts", id)
                .unwrap_or(Value::Null);
            let text = normalize_short_links(p.get_str("text").unwrap_or_default());
            vmap! {
                "creator" => p.get_attr("creator").cloned().unwrap_or(Value::Null),
                "text" => text,
                "media" => p.get_attr("media").cloned().unwrap_or(Value::Null),
            }
        };
        let timeline = |table: &str, user: &str| -> Value {
            let ids = env
                .read_current("social-timeline-storage", table, user)
                .unwrap_or(Value::Null)
                .as_list()
                .cloned()
                .unwrap_or_default();
            Value::List(ids.iter().map(project_post).collect())
        };
        let mut user_tls = beldi::value::Map::new();
        let mut home_tls = beldi::value::Map::new();
        for u in 0..self.users {
            let user = user_key(u);
            user_tls.insert(user.clone(), timeline("usertl", &user));
            home_tls.insert(user.clone(), timeline("hometl", &user));
        }
        let row_count = |ssf: &str, table: &str| -> i64 {
            env.db()
                .distinct_hash_keys(&beldi::schema::data_table(ssf, table))
                .map(|k| k.len())
                .unwrap_or(0) as i64
        };
        let mut urls: Vec<Value> = Vec::new();
        if let Ok(keys) = env
            .db()
            .distinct_hash_keys(&beldi::schema::data_table("social-url-shorten", "urls"))
        {
            for k in keys {
                if let Some(short) = k.as_str() {
                    urls.push(
                        env.read_current("social-url-shorten", "urls", short)
                            .unwrap_or(Value::Null),
                    );
                }
            }
        }
        urls.sort_by_key(|v| v.to_string());
        vmap! {
            "user_timelines" => Value::Map(user_tls),
            "home_timelines" => Value::Map(home_tls),
            "post_rows" => row_count("social-post-storage", "posts"),
            "url_rows" => row_count("social-url-shorten", "urls"),
            "url_targets" => Value::List(urls),
        }
    }
}

/// Replaces shortened-link tokens (`s.ly/<logged uuid prefix>`) with a
/// stable placeholder so canonical text compares across recoveries.
fn normalize_short_links(text: &str) -> String {
    text.split_whitespace()
        .map(|w| if w.starts_with("s.ly/") { "s.ly/~" } else { w })
        .collect::<Vec<&str>>()
        .join(" ")
}

// ---- SSF bodies ----

fn install_unique_id(env: &BeldiEnv) {
    env.register_ssf(
        "social-unique-id",
        &[],
        Arc::new(|ctx, _| Ok(Value::from(ctx.logged_uuid()))),
    );
}

fn install_url_shorten(env: &BeldiEnv) {
    env.register_ssf(
        "social-url-shorten",
        &["urls"],
        Arc::new(|ctx, input| {
            let url = input.get_str("url").unwrap_or_default().to_owned();
            let short = format!("s.ly/{}", &ctx.logged_uuid()[..8]);
            // Persist the mapping so the short link resolves later.
            ctx.write("urls", &short, Value::from(url))?;
            Ok(Value::from(short))
        }),
    );
}

fn install_user_mention(env: &BeldiEnv) {
    env.register_ssf(
        "social-user-mention",
        &[],
        Arc::new(|_, input| {
            let text = input.get_str("text").unwrap_or_default();
            let mentions: Vec<Value> = text
                .split_whitespace()
                .filter_map(|w| w.strip_prefix('@'))
                .map(|m| {
                    Value::from(m.trim_end_matches(|c: char| !c.is_alphanumeric() && c != '-'))
                })
                .collect();
            Ok(Value::List(mentions))
        }),
    );
}

fn install_media(env: &BeldiEnv) {
    env.register_ssf(
        "social-media",
        &[],
        Arc::new(|_, input| {
            let ids = input.get_list("media").cloned().unwrap_or_default();
            let resolved: Vec<Value> = ids
                .iter()
                .filter_map(Value::as_str)
                .map(|id| vmap! { "id" => id, "url" => format!("cdn.example/{id}") })
                .collect();
            Ok(Value::List(resolved))
        }),
    );
}

fn install_text(env: &BeldiEnv) {
    env.register_ssf(
        "social-text",
        &[],
        Arc::new(|ctx, input| {
            let text = input.get_str("text").unwrap_or_default().to_owned();
            // Shorten every URL (via the url-shorten SSF) and collect
            // mentions (via the user-mention SSF) — the Fig. 24 fan-out.
            let mentions = ctx.sync_invoke("social-user-mention", input.clone())?;
            let mut rendered = Vec::new();
            for word in text.split_whitespace() {
                if word.starts_with("http://") || word.starts_with("https://") {
                    let short = ctx.sync_invoke("social-url-shorten", vmap! { "url" => word })?;
                    rendered.push(short.as_str().unwrap_or(word).to_owned());
                } else {
                    rendered.push(word.to_owned());
                }
            }
            Ok(vmap! {
                "text" => rendered.join(" "),
                "mentions" => mentions,
            })
        }),
    );
}

fn install_user(env: &BeldiEnv) {
    env.register_ssf(
        "social-user",
        &["users"],
        Arc::new(|ctx, input| {
            let user = input.get_str("user").unwrap_or_default().to_owned();
            let rec = ctx.read("users", &user)?;
            if rec.is_null() {
                return Err(BeldiError::Protocol(format!("unknown user {user}")));
            }
            Ok(rec)
        }),
    );
}

fn install_post_storage(env: &BeldiEnv) {
    env.register_ssf(
        "social-post-storage",
        &["posts"],
        Arc::new(|ctx, input| match input.get_str("op") {
            Some("store") => {
                let id = input.get_str("post_id").unwrap_or_default().to_owned();
                ctx.write(
                    "posts",
                    &id,
                    input.get_attr("post").cloned().unwrap_or(Value::Null),
                )?;
                Ok(Value::from(id))
            }
            Some("fetch") => {
                let ids = input.get_list("ids").cloned().unwrap_or_default();
                let mut out = Vec::with_capacity(ids.len());
                for id in ids {
                    let Some(id) = id.as_str() else { continue };
                    out.push(ctx.read("posts", id)?);
                }
                Ok(Value::List(out))
            }
            other => Err(BeldiError::Protocol(format!(
                "unknown post-storage op {other:?}"
            ))),
        }),
    );
}

fn install_social_graph(env: &BeldiEnv) {
    env.register_ssf(
        "social-graph",
        &["followers"],
        Arc::new(|ctx, input| match input.get_str("op") {
            Some("followers") => {
                let user = input.get_str("user").unwrap_or_default().to_owned();
                ctx.read("followers", &user)
            }
            Some("follow") => {
                let follower = input.get_str("follower").unwrap_or_default();
                let followee = input.get_str("followee").unwrap_or_default().to_owned();
                update_locked(ctx, "followers", &followee, |current| {
                    let mut list = current.as_list().cloned().unwrap_or_default();
                    if !list.iter().any(|v| v.as_str() == Some(follower)) {
                        list.push(Value::from(follower));
                    }
                    Some(Value::List(list))
                })?;
                Ok(Value::Null)
            }
            other => Err(BeldiError::Protocol(format!(
                "unknown social-graph op {other:?}"
            ))),
        }),
    );
}

fn install_timeline_storage(env: &BeldiEnv) {
    env.register_ssf(
        "social-timeline-storage",
        &["hometl", "usertl"],
        Arc::new(|ctx, input| {
            let table = match input.get_str("timeline") {
                Some("home") => "hometl",
                Some("user") => "usertl",
                other => return Err(BeldiError::Protocol(format!("unknown timeline {other:?}"))),
            };
            match input.get_str("op") {
                Some("append") => {
                    let post_id = input.get_str("post_id").unwrap_or_default();
                    let users = input.get_list("users").cloned().unwrap_or_default();
                    for user in users {
                        let Some(user) = user.as_str().map(str::to_owned) else {
                            continue;
                        };
                        update_locked(ctx, table, &user, |current| {
                            let mut tl = current.as_list().cloned().unwrap_or_default();
                            tl.push(Value::from(post_id));
                            tl.drain(..tl.len().saturating_sub(TIMELINE_WINDOW));
                            Some(Value::List(tl))
                        })?;
                    }
                    Ok(Value::Null)
                }
                Some("read") => {
                    let user = input.get_str("user").unwrap_or_default().to_owned();
                    ctx.read(table, &user)
                }
                other => Err(BeldiError::Protocol(format!(
                    "unknown timeline-storage op {other:?}"
                ))),
            }
        }),
    );
}

/// `social-user-timeline` and `social-home-timeline` read post ids from
/// timeline storage and hydrate them from post storage.
fn install_timeline_reader(env: &BeldiEnv, ssf: &'static str, op: &'static str) {
    let timeline = if op == "read-home" { "home" } else { "user" };
    env.register_ssf(
        ssf,
        &[],
        Arc::new(move |ctx, input| {
            let user = input.get_str("user").unwrap_or_default();
            let ids = ctx.sync_invoke(
                "social-timeline-storage",
                vmap! { "op" => "read", "timeline" => timeline, "user" => user },
            )?;
            ctx.sync_invoke(
                "social-post-storage",
                vmap! { "op" => "fetch", "ids" => ids },
            )
        }),
    );
}

fn install_compose(env: &BeldiEnv) {
    env.register_ssf(
        "social-compose-post",
        &[],
        Arc::new(|ctx, input| {
            let author = input.get_str("user").unwrap_or_default().to_owned();
            let post_id = ctx.sync_invoke("social-unique-id", Value::Null)?;
            let creator = ctx.sync_invoke("social-user", input.clone())?;
            let text = ctx.sync_invoke("social-text", input.clone())?;
            let media = ctx.sync_invoke("social-media", input.clone())?;
            let post = vmap! {
                "post_id" => post_id.clone(),
                "creator" => creator,
                "text" => text.get_str("text").unwrap_or_default(),
                "media" => media,
            };
            ctx.sync_invoke(
                "social-post-storage",
                vmap! { "op" => "store", "post_id" => post_id.clone(), "post" => post },
            )?;
            // Author's own timeline.
            ctx.sync_invoke(
                "social-timeline-storage",
                vmap! {
                    "op" => "append", "timeline" => "user",
                    "post_id" => post_id.clone(),
                    "users" => Value::List(vec![Value::from(author.as_str())]),
                },
            )?;
            // Fan out to followers and mentioned users' home timelines.
            let followers = ctx.sync_invoke(
                "social-graph",
                vmap! { "op" => "followers", "user" => author },
            )?;
            let mut fanout: Vec<Value> = followers.as_list().cloned().unwrap_or_default();
            if let Some(mentions) = text.get_list("mentions") {
                for m in mentions {
                    if !fanout.contains(m) {
                        fanout.push(m.clone());
                    }
                }
            }
            ctx.sync_invoke(
                "social-timeline-storage",
                vmap! {
                    "op" => "append", "timeline" => "home",
                    "post_id" => post_id.clone(),
                    "users" => Value::List(fanout),
                },
            )?;
            Ok(post_id)
        }),
    );
}

fn install_frontend(env: &BeldiEnv) {
    env.register_ssf(
        "social-frontend",
        &[],
        Arc::new(|ctx, input| match input.get_str("op") {
            Some("compose") => ctx.sync_invoke("social-compose-post", input),
            Some("user-timeline") => ctx.sync_invoke("social-user-timeline", input),
            Some("home-timeline") => ctx.sync_invoke("social-home-timeline", input),
            other => Err(BeldiError::Protocol(format!("unknown social op {other:?}"))),
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::request_rng;
    use crate::WorkflowApp;

    fn installed_env() -> (BeldiEnv, SocialApp) {
        let env = BeldiEnv::for_tests();
        let app = SocialApp {
            users: 10,
            follows_per_user: 3,
            ..SocialApp::default()
        };
        app.setup(&env);
        (env, app)
    }

    fn compose(env: &BeldiEnv, app: &SocialApp, user: &str, text: &str) -> Value {
        env.invoke(
            app.entry(),
            vmap! {
                "op" => "compose",
                "user" => user,
                "text" => text,
                "media" => Value::List(vec![Value::from("img-1")]),
            },
        )
        .unwrap()
    }

    #[test]
    fn compose_lands_on_author_and_follower_timelines() {
        let (env, app) = installed_env();
        let post_id = compose(&env, &app, "user-5", "plain text post");
        assert!(post_id.as_str().is_some());
        // Author's user timeline.
        let user_tl = env
            .invoke(
                app.entry(),
                vmap! { "op" => "user-timeline", "user" => "user-5" },
            )
            .unwrap();
        assert_eq!(user_tl.as_list().unwrap().len(), 1);
        // user-6 follows user-5 (ring topology: followers of 5 are 4,3,2 —
        // wait, followers(u) are the ring predecessors; check one of them).
        let followers = env
            .read_current("social-graph", "followers", "user-5")
            .unwrap();
        let first_follower = followers.as_list().unwrap()[0].as_str().unwrap().to_owned();
        let home = env
            .invoke(
                app.entry(),
                vmap! { "op" => "home-timeline", "user" => first_follower.as_str() },
            )
            .unwrap();
        assert_eq!(home.as_list().unwrap().len(), 1);
        assert_eq!(
            home.as_list().unwrap()[0].get_str("post_id"),
            post_id.as_str()
        );
    }

    #[test]
    fn urls_are_shortened_and_resolvable() {
        let (env, app) = installed_env();
        compose(
            &env,
            &app,
            "user-0",
            "look http://example.com/very/long/path here",
        );
        let tl = env
            .invoke(
                app.entry(),
                vmap! { "op" => "user-timeline", "user" => "user-0" },
            )
            .unwrap();
        let text = tl.as_list().unwrap()[0].get_str("text").unwrap().to_owned();
        assert!(text.contains("s.ly/"), "shortened: {text}");
        assert!(!text.contains("example.com"), "original gone: {text}");
        // The mapping persists in the url-shorten SSF's table.
        let short = text
            .split_whitespace()
            .find(|w| w.starts_with("s.ly/"))
            .unwrap();
        let resolved = env
            .read_current("social-url-shorten", "urls", short)
            .unwrap();
        assert_eq!(resolved.as_str(), Some("http://example.com/very/long/path"));
    }

    /// Every link of a post gets its own short link, and so its own
    /// `urls` row: the links are minted by sibling calls of one root, so
    /// an id whose first digits came from the caller's log key would give
    /// them all one.
    #[test]
    fn each_link_of_a_post_stores_its_own_url_row() {
        let (env, app) = installed_env();
        let links = [
            "http://a.example/1",
            "http://b.example/2",
            "https://c.example/3",
        ];
        compose(
            &env,
            &app,
            "user-3",
            &format!("see {}", links.join(" and ")),
        );
        let table = beldi::schema::data_table("social-url-shorten", "urls");
        let shorts = env.db().distinct_hash_keys(&table).unwrap();
        assert_eq!(shorts.len(), links.len(), "{shorts:?}");
        let mut targets: Vec<Value> = shorts
            .iter()
            .map(|short| {
                env.read_current("social-url-shorten", "urls", short.as_str().unwrap())
                    .unwrap()
            })
            .collect();
        targets.sort_by_key(Value::to_string);
        assert_eq!(targets, links.map(Value::from));
    }

    #[test]
    fn mentions_reach_home_timelines_of_non_followers() {
        let (env, app) = installed_env();
        // user-1 does not follow user-8 (ring of 3 predecessors), but a
        // mention must still deliver.
        compose(&env, &app, "user-8", "hey @user-1 !");
        let home = env
            .invoke(
                app.entry(),
                vmap! { "op" => "home-timeline", "user" => "user-1" },
            )
            .unwrap();
        assert_eq!(home.as_list().unwrap().len(), 1);
    }

    #[test]
    fn timeline_window_is_bounded() {
        let (env, app) = installed_env();
        for i in 0..(TIMELINE_WINDOW + 5) {
            compose(&env, &app, "user-2", &format!("post {i}"));
        }
        let tl = env
            .invoke(
                app.entry(),
                vmap! { "op" => "user-timeline", "user" => "user-2" },
            )
            .unwrap();
        assert_eq!(tl.as_list().unwrap().len(), TIMELINE_WINDOW);
    }

    #[test]
    fn follow_updates_the_graph() {
        let (env, _) = installed_env();
        env.invoke(
            "social-graph",
            vmap! { "op" => "follow", "follower" => "user-9", "followee" => "user-0" },
        )
        .unwrap();
        let followers = env
            .read_current("social-graph", "followers", "user-0")
            .unwrap();
        assert!(followers
            .as_list()
            .unwrap()
            .iter()
            .any(|v| v.as_str() == Some("user-9")));
    }

    #[test]
    fn concurrent_composes_fan_out_losslessly() {
        let (env, app) = installed_env();
        let env = std::sync::Arc::new(env);
        // All of user-1's followers receive every one of 8 concurrent
        // posts (locked appends).
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let (e, app) = (std::sync::Arc::clone(&env), app.clone());
                let client = move || {
                    for i in 0..2 {
                        compose(&e, &app, "user-1", &format!("p{t}-{i}"));
                    }
                };
                env.clock().spawn(format!("client-{t}"), Box::new(client))
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let followers = env
            .read_current("social-graph", "followers", "user-1")
            .unwrap();
        for f in followers.as_list().unwrap() {
            let home = env
                .read_current("social-timeline-storage", "hometl", f.as_str().unwrap())
                .unwrap();
            assert_eq!(home.as_list().unwrap().len(), 8, "follower {f}");
        }
    }

    #[test]
    fn request_mix_covers_all_ops() {
        let app = SocialApp::default();
        let mut rng = request_rng(4);
        let mut ops = std::collections::HashSet::new();
        for _ in 0..300 {
            ops.insert(app.request(&mut rng).get_str("op").unwrap().to_owned());
        }
        for op in ["compose", "user-timeline", "home-timeline"] {
            assert!(ops.contains(op), "mix never produced {op}");
        }
    }
}
