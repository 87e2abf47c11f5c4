//! Integration: engine snapshots warm-restart the serving state.
//!
//! The acceptance bar for the serving layer: after `save` → (process
//! death) → `load`, the first query over the restored engine is answered
//! from a **`Fresh`** cache entry — zero misses, zero stale refreshes,
//! zero rebuilds. Tarjan and the closure sweep run again, but at load,
//! where the snapshot's closure-body keys are rebuilt, not at the first
//! query.

use rtc_rpq::core::{snapshot, Engine, EngineConfig, SharingKind, Strategy};
use rtc_rpq::graph::{fixtures::paper_graph, GraphDelta};
use rtc_rpq::prelude::*;
use rtc_rpq::server::session::{Session, Status};

#[test]
fn warm_restart_answers_from_fresh_cache() {
    // A serving session: several queries sharing two closure bodies, plus
    // an online delta, all through one long-lived engine.
    let mut engine = Engine::new_dynamic(paper_graph());
    let queries = [
        Regex::parse("(b.c)+").unwrap(),
        Regex::parse("d.(b.c)+.c").unwrap(),
        Regex::parse("c.(a.b)+.b").unwrap(),
    ];
    let before: Vec<PairSet> = queries
        .iter()
        .map(|q| engine.evaluate(q).unwrap())
        .collect();
    let mut delta = GraphDelta::new();
    delta.insert(6, "b", 8).insert(8, "c", 6);
    engine.apply_delta(&delta);
    let after: Vec<PairSet> = queries
        .iter()
        .map(|q| engine.evaluate(q).unwrap())
        .collect();
    assert_ne!(before[0], after[0], "delta must change (b.c)+ results");
    assert_eq!(engine.epoch(), 1);
    assert_eq!(engine.cache().totals(SharingKind::Rtc).entries, 2); // b·c and a·b

    let mut bytes = Vec::new();
    snapshot::write_snapshot(&engine, &mut bytes).unwrap();

    // "Restart": a brand-new engine from the snapshot alone.
    let mut warm = snapshot::read_snapshot(&bytes[..], EngineConfig::default()).unwrap();
    assert_eq!(warm.epoch(), 1);
    assert_eq!(warm.cache().totals(SharingKind::Rtc).entries, 2);

    let restored: Vec<PairSet> = queries.iter().map(|q| warm.evaluate(q).unwrap()).collect();
    assert_eq!(restored, after, "warm engine must answer identically");
    // The Fresh-hit criterion: nothing was recomputed after the load.
    assert_eq!(warm.cache().misses(), 0, "a miss means an RTC was rebuilt");
    assert_eq!(
        warm.cache().stale_hits(),
        0,
        "a stale hit means a refresh ran"
    );
    assert!(warm.cache().hits() >= 2);
    let maintenance = warm.maintenance_metrics();
    assert_eq!(
        maintenance.unchanged_refreshes + maintenance.rebuild_refreshes,
        0
    );

    // The warm engine is a full citizen: later deltas stale + refresh.
    let mut delta = GraphDelta::new();
    delta.delete(6, "b", 8);
    warm.apply_delta(&delta);
    let reverted = warm.evaluate(&queries[0]).unwrap();
    assert_eq!(reverted, before[0]);
}

#[test]
fn warm_restart_matches_cold_engine_for_all_strategies() {
    for strategy in Strategy::ALL {
        let config = EngineConfig {
            strategy,
            ..EngineConfig::default()
        };
        let engine = Engine::with_config_versioned(
            rtc_rpq::graph::VersionedGraph::new(paper_graph()),
            config,
        );
        let q = Regex::parse("d.(b.c)+.c").unwrap();
        let expected = engine.evaluate(&q).unwrap();

        let mut bytes = Vec::new();
        snapshot::write_snapshot(&engine, &mut bytes).unwrap();
        let warm = snapshot::read_snapshot(&bytes[..], config).unwrap();
        assert_eq!(warm.evaluate(&q).unwrap(), expected, "{strategy}");
        if strategy != Strategy::NoSharing {
            assert_eq!(warm.cache().misses(), 0, "{strategy}");
        }
    }
}

#[test]
fn serving_session_snapshot_flow() {
    // The same flow through the serving front-end's command language.
    let dir = std::env::temp_dir().join("rtc_rpq_warm_restart_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flow.snap");
    let path_str = path.to_str().unwrap();

    let mut session = Session::new();
    session.execute("gen paper").unwrap();
    session.execute("query d.(b.c)+.c").unwrap();
    session.execute("delta ins 6 b 8 ins 8 c 6").unwrap();
    session.execute("query d.(b.c)+.c").unwrap(); // refreshes at epoch 1
    let saved = session.execute(&format!("save {path_str}")).unwrap();
    assert!(matches!(saved.status, Status::Ok(_)), "{saved:?}");

    let mut restarted = Session::new();
    let loaded = restarted.execute(&format!("load {path_str}")).unwrap();
    match &loaded.status {
        Status::Ok(m) => assert!(m.starts_with("warm restart"), "{m}"),
        Status::Err(e) => panic!("load failed: {e}"),
    }
    restarted.execute("query d.(b.c)+.c").unwrap();
    assert_eq!(restarted.engine().cache().misses(), 0);
    assert!(restarted.engine().cache().hits() >= 1);
    assert_eq!(restarted.engine().epoch(), 1);
    std::fs::remove_file(&path).ok();
}
