//! Social feed demo: the 13-SSF social network workflow (Fig. 24) with
//! background intent and garbage collectors running on their timers, a
//! crash injected mid-compose, and the feed converging anyway.
//!
//! ```text
//! cargo run --example social_feed
//! ```

use std::time::Duration;

use beldi_repro::apps::{SocialApp, WorkflowApp};
use beldi_repro::beldi::{BeldiConfig, BeldiEnv, StormPolicy};
use beldi_repro::simclock::Metric;
use beldi_repro::value::vmap;

fn main() {
    beldi_repro::beldi::silence_crash_backtraces();
    // The paper's deployment: 1-minute collector timers, 26 of them for
    // the workflow's 13 SSFs. Time is virtual: a minute passes when this
    // thread sleeps a minute on the environment's clock.
    let config = BeldiConfig::beldi()
        .with_t_max(Duration::from_secs(120))
        .with_ic_restart_delay(Duration::from_secs(30))
        .with_collector_period(Duration::from_secs(60));
    let env = BeldiEnv::for_tests_with(config);
    let app = SocialApp {
        users: 12,
        follows_per_user: 4,
        ..SocialApp::default()
    };
    app.setup(&env);
    env.start_collectors();

    println!("== Composing posts (with a 2% crash storm running) ==");
    env.platform().faults().set_storm_policy(Some(StormPolicy {
        ssf_prob: 0.02,
        collector_prob: 0.02,
        max_crashes: 50,
        seed: 0x50C1A1,
    }));
    for i in 0..6 {
        let post_id = env
            .invoke(
                app.entry(),
                vmap! {
                    "op" => "compose",
                    "user" => format!("user-{}", i % 3),
                    "text" => format!("post {i}: hi @user-7, read https://example.com/{i}"),
                    "media" => beldi_repro::value::Value::List(vec![]),
                },
            )
            .expect("compose");
        println!("   composed post {i}: {post_id}");
    }
    env.platform().faults().set_storm_policy(None);
    println!(
        "   crashes injected along the way: {}\n",
        env.platform().faults().injected_count()
    );

    // Two virtual minutes: every collector fires twice and finishes
    // whatever the storm left unfinished.
    env.clock().sleep(Duration::from_secs(120));
    println!(
        "   collector passes two minutes later: {} intent, {} garbage\n",
        env.telemetry().get(Metric::IcPasses),
        env.telemetry().get(Metric::GcPasses)
    );

    println!("== Reading timelines ==");
    // user-7 was mentioned in every post: all six must be on their home
    // timeline, exactly once each, despite the crash storm.
    let home = env
        .invoke(
            app.entry(),
            vmap! { "op" => "home-timeline", "user" => "user-7" },
        )
        .expect("home timeline");
    let posts = home.as_list().unwrap();
    println!("   user-7 home timeline has {} posts", posts.len());
    for p in posts {
        let text = p.get_str("text").unwrap_or("?");
        println!("     - {text}");
        assert!(text.contains("s.ly/"), "URLs are shortened");
    }
    assert_eq!(posts.len(), 6, "every mention delivered exactly once");

    // Author timelines hold their own posts.
    for u in 0..3 {
        let tl = env
            .invoke(
                app.entry(),
                vmap! { "op" => "user-timeline", "user" => format!("user-{u}") },
            )
            .expect("user timeline");
        println!("   user-{u} posted {} times", tl.as_list().unwrap().len());
    }
    env.stop_collectors();
    println!("\nok: fan-out, mentions, URL shortening — all exactly once under crashes.");
}
