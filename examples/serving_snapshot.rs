//! Serving + warm restart, end to end:
//!
//! 1. drive a serving [`Session`] through the same command language the
//!    `rpq` REPL and TCP front-ends speak — generate a graph, run queries
//!    that share one RTC, apply a delta online;
//! 2. `save` an engine snapshot (graph + the keys of the warm cache) to
//!    disk;
//! 3. "restart" into a fresh session, `load` the snapshot — which rebuilds
//!    every cached structure — and show the first query being answered
//!    from a `Fresh` cache hit.
//!
//! ```bash
//! cargo run --release --example serving_snapshot
//! ```

use rtc_rpq::server::session::Session;

fn drive(session: &mut Session, line: &str) {
    if let Some(response) = session.execute(line) {
        println!("rpq> {line}");
        print!("{}", response.render());
    }
}

fn main() {
    let dir = std::env::temp_dir().join("rtc_rpq_serving_example");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let snap = dir.join("engine.snap");
    let snap_str = snap.to_str().expect("utf-8 temp path");

    println!("--- serving session 1: build state ---");
    let mut session = Session::new();
    drive(&mut session, "gen paper");
    drive(&mut session, "query d.(b.c)+.c"); // computes the (b.c) RTC
    drive(&mut session, "query a.(b.c)+"); // shares it (cache hit)
    drive(&mut session, "delta ins 6 b 8 ins 8 c 6");
    drive(&mut session, "query (b.c)+"); // stale: b and c moved -> rebuilt
    drive(&mut session, "cache");
    drive(&mut session, &format!("save {snap_str}"));

    println!();
    println!("--- serving session 2: warm restart ---");
    let mut restarted = Session::new();
    drive(&mut restarted, &format!("load {snap_str}"));
    drive(&mut restarted, "query (b.c)+"); // Fresh hit: rebuilt at load
    drive(&mut restarted, "cache");

    let engine = restarted.engine();
    let cache = engine.cache();
    assert_eq!(cache.misses(), 0, "warm restart must not miss");
    assert!(cache.hits() >= 1, "warm restart must hit the restored RTC");
    println!();
    println!(
        "warm restart served {} hit(s), {} misses — the RTC survived the restart",
        cache.hits(),
        cache.misses()
    );
    drop(engine);

    std::fs::remove_file(&snap).ok();
}
