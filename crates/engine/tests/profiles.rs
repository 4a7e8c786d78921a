//! Plan-coverage suite for the explain surface: every [`Plan::ALL`] entry
//! must yield a well-formed [`QueryProfile`] — named stages with nonzero
//! spans, stage timings that sum to the profile's wall time (within 10%),
//! a rationale, and an output identical to the unprofiled path.

use rpq_core::predicate::Predicate;
use rpq_core::reach::ProbeReach;
use rpq_core::rq::Rq;
use rpq_core::{canonical_pq, canonical_rq, JoinMatch};
use rpq_engine::{
    Algo, Backend, EngineConfig, Plan, Query, QueryEngine, QueryProfile, UpdatableEngine,
};
use rpq_graph::gen::essembly;
use rpq_graph::Graph;
use rpq_index::{CountingProbe, DistProbe, GraphProbe};
use std::sync::Arc;
use std::time::Duration;

fn rq(g: &Graph) -> Query {
    Query::parse_rq(
        "job = \"biologist\" && sp = \"cloning\"",
        "job = \"doctor\"",
        "fa^2 fn",
        g,
    )
    .unwrap()
}

fn pq(g: &Graph) -> Query {
    Query::parse_pq("node a: job = \"doctor\"; node b; edge a -> b: fn+", g).unwrap()
}

/// The matrix-regime engine (default config on a small graph).
fn matrix_engine() -> QueryEngine {
    QueryEngine::new(Arc::new(essembly()))
}

/// A label-regime engine: matrix disabled, the single hop index built.
fn hop_engine() -> QueryEngine {
    let config = EngineConfig::builder()
        .matrix_node_limit(0)
        .build()
        .unwrap();
    let engine = QueryEngine::with_config(Arc::new(essembly()), config);
    assert!(engine.hop().is_some(), "unbudgeted build fits");
    engine
}

/// A sharded-regime engine: matrix and single hop index disabled.
fn sharded_engine() -> QueryEngine {
    let config = EngineConfig::builder()
        .matrix_node_limit(0)
        .hop_label_budget(0)
        .shards(2)
        .build()
        .unwrap();
    let engine = QueryEngine::with_config(Arc::new(essembly()), config);
    assert!(engine.sharded().is_some(), "unbudgeted build fits");
    engine
}

/// The well-formedness contract every profile must satisfy.
fn assert_well_formed(profile: &QueryProfile, plan: Plan) {
    assert_eq!(profile.plan, plan.name(), "profile names the driven plan");
    assert!(
        !profile.rationale.is_empty(),
        "{}: profile carries a rationale",
        plan.name()
    );
    assert!(
        profile.stages.len() >= 2,
        "{}: at least plan + eval stages, got {}",
        plan.name(),
        profile.stages.len()
    );
    for stage in &profile.stages {
        assert!(!stage.name.is_empty());
    }
    let last = profile.stages.last().unwrap();
    assert!(
        last.duration > Duration::ZERO,
        "{}: the evaluation stage span must be nonzero",
        plan.name()
    );
    assert!(profile.wall > Duration::ZERO);
    // stage timings are contiguous sub-intervals of one clock, so their
    // sum must land within 10% of the reported wall time
    let sum = profile.stage_total().as_secs_f64();
    let wall = profile.wall.as_secs_f64();
    assert!(
        (sum - wall).abs() <= 0.1 * wall,
        "{}: stage sum {sum}s vs wall {wall}s drifts past 10%",
        plan.name()
    );
    let json = profile.to_json();
    assert!(json.contains(&format!("\"plan\":\"{}\"", plan.name())));
}

/// Force `plan` on `engine`, check well-formedness and output parity
/// against the engine's own planner-chosen evaluation.
fn drive(engine: &QueryEngine, query: &Query, plan: Plan) -> QueryProfile {
    let (out, profile) = engine.run_query_with_plan_profiled(query, plan);
    assert_well_formed(&profile, plan);
    assert_eq!(
        out,
        engine.run_query(query),
        "{}: profiled output must equal the unprofiled path",
        plan.name()
    );
    assert_eq!(profile.matches, out.match_count() as u64);
    profile
}

/// A fresh engine serving `backend`. The match is exhaustive on
/// purpose: a new [`Backend`] does not compile until it is given an
/// engine here.
fn engine_on(backend: Backend) -> QueryEngine {
    match backend {
        // searches need no index: any engine evaluates them
        Backend::Matrix | Backend::Search => matrix_engine(),
        Backend::Hop => hop_engine(),
        Backend::Sharded => sharded_engine(),
    }
}

const INDEX_BACKENDS: [Backend; 3] = [Backend::Matrix, Backend::Hop, Backend::Sharded];

/// Drive every [`Plan::ALL`] entry the engine evaluates on `backend`
/// (all but `standing`, which the snapshot layer serves). The match on
/// [`Algo`] is exhaustive on purpose, like [`engine_on`]'s: a future plan
/// cannot dodge profile coverage.
fn drive_backend(backend: Backend) -> Vec<(Plan, QueryProfile)> {
    let engine = engine_on(backend);
    let g = engine.graph();
    Plan::ALL
        .into_iter()
        .filter(|plan| plan.backend() == backend)
        .filter_map(|plan| {
            let query = match plan.algo() {
                Algo::RqDm | Algo::RqBiBfs => rq(g),
                Algo::Join | Algo::Split => pq(g),
                Algo::Standing => return None,
            };
            Some((plan, drive(&engine, &query, plan)))
        })
        .collect()
}

#[test]
fn matrix_backed_plans_profile_with_probe_counts() {
    let driven = drive_backend(Backend::Matrix);
    assert!(!driven.is_empty());
    for (plan, p) in driven {
        assert!(p.probes > 0, "{}: DM evaluation must probe", plan.name());
        assert_eq!(p.shard_fanout, 0);
    }
}

#[test]
fn search_plans_probe_the_graph_and_bibfs_probes_nothing() {
    let driven = drive_backend(Backend::Search);
    assert!(!driven.is_empty());
    for (plan, p) in driven {
        if plan.algo() == Algo::RqBiBfs {
            assert_eq!(p.probes, 0, "biBFS searches the product space");
        } else {
            assert!(
                p.probes > 0,
                "{}: the graph answers the probes",
                plan.name()
            );
        }
        assert_eq!(p.shard_fanout, 0);
    }
}

#[test]
fn hop_backed_plans_profile_with_probe_counts() {
    let driven = drive_backend(Backend::Hop);
    assert!(!driven.is_empty());
    for (plan, p) in driven {
        assert!(p.probes > 0, "{}: hop evaluation must probe", plan.name());
        assert_eq!(p.shard_fanout, 0);
    }
}

#[test]
fn sharded_plans_profile_with_fanout() {
    let driven = drive_backend(Backend::Sharded);
    assert!(!driven.is_empty());
    for (plan, p) in driven {
        assert!(
            p.probes > 0,
            "{}: sharded evaluation must probe",
            plan.name()
        );
        assert_eq!(p.shard_fanout, 2, "{}: fan-out = shard count", plan.name());
    }
}

#[test]
fn standing_plan_profiles_through_the_snapshot() {
    let engine = UpdatableEngine::new(essembly());
    let g = engine.snapshot().graph().clone();
    let Query::Pq(pattern) = pq(&g) else {
        unreachable!()
    };
    engine.register_pq(pattern.clone());
    let snapshot = engine.snapshot();
    let stage_names = |p: &QueryProfile| p.stages.iter().map(|s| s.name).collect::<Vec<_>>();
    // every plan `drive_backend` leaves to the snapshot layer
    for plan in Plan::ALL.into_iter().filter(|p| p.algo() == Algo::Standing) {
        let (out, profile) = snapshot.run_query_profiled(&Query::Pq(pattern.clone()));
        assert_well_formed(&profile, plan);
        assert_eq!(stage_names(&profile), ["plan", "standing-answer"]);
        assert_eq!(profile.probes, 0, "a standing answer probes nothing");
        assert_eq!(out, snapshot.run_query(&Query::Pq(pattern.clone())));
    }

    // profiles travel in the batch items: never on the hot path, on
    // every item of a profiled run
    let other = Query::parse_pq("node a: job = \"biologist\"; node b; edge a -> b: fn+", &g);
    let queries = [Query::Pq(pattern.clone()), rq(&g), other.unwrap()];
    let served = snapshot.run_batch(&queries);
    assert!(served.items().iter().all(|item| item.profile.is_none()));
    let profiled = snapshot.run_batch_profiled(&queries);
    let items = profiled.items().iter().zip(served.items());
    for ((item, plain), query) in items.zip(&queries) {
        assert_eq!((&item.output, item.plan), (&plain.output, plain.plan));
        let profile = item.profile.as_deref().expect("a profiled run fills it");
        assert_well_formed(profile, item.plan);
        assert_eq!(profile.matches, item.output.match_count() as u64);
        // `run_query_profiled` is a batch of one through the same loop,
        // returning its item's profile
        let (out, single) = snapshot.run_query_profiled(query);
        assert_eq!(out, item.output);
        let shape = |p: &QueryProfile| {
            let (plan, why, query) = (p.plan.clone(), p.rationale.clone(), p.query.clone());
            (
                plan,
                why,
                query,
                stage_names(p),
                p.probes,
                p.semcache.clone(),
            )
        };
        assert_eq!(shape(&single), shape(profile));
    }
}

#[test]
fn planner_path_profiles_with_planner_rationale() {
    let engine = matrix_engine();
    let g = engine.graph();
    let query = rq(g);
    let (out, profile) = engine.run_query_profiled(&query);
    assert_eq!(out.match_count(), 4, "paper Example 2.2 ground truth");
    assert_eq!(profile.plan, engine.plan_query(&query).name());
    assert!(
        profile.rationale.contains("matrix"),
        "planner rationale explains the signal: {}",
        profile.rationale
    );
    assert!(profile.query.starts_with("rq: "), "{}", profile.query);
}

/// The engine's memo is visible in profiles on every index backend: a
/// cold RQ populates it, the repeat is an exact hit, a narrower source
/// predicate is answered by subsumption — all bit-identical to search.
#[test]
fn profiles_report_engine_memo_hits_on_every_index_backend() {
    for backend in INDEX_BACKENDS {
        let engine = engine_on(backend);
        let g = engine.graph();
        let broad =
            Query::parse_rq("job = \"biologist\"", "job = \"doctor\"", "fa^2 fn", g).unwrap();
        assert_eq!(engine.plan_query(&broad).backend(), backend);

        let (out0, p0) = engine.run_query_profiled(&broad);
        assert_eq!(p0.semcache, "miss", "{backend:?}: cold query populates");
        let (out1, p1) = engine.run_query_profiled(&broad);
        assert_eq!(out0, out1);
        assert_eq!(p1.semcache, "exact_hit", "{backend:?}");
        assert_eq!(p1.probes, 0, "{backend:?}: served without the index");
        let stats = engine.semantic_stats();
        assert_eq!((stats.exact_hits, stats.misses), (1, 1), "{backend:?}");

        let narrow = rq(g);
        let (out2, p2) = engine.run_query_profiled(&narrow);
        assert_eq!(p2.semcache, "subsumption_hit", "{backend:?}");
        assert_eq!(engine.semantic_stats().subsumption_hits, 1);
        let Query::Rq(reference) = &narrow else {
            unreachable!()
        };
        assert_eq!(
            out2.as_rq().unwrap(),
            &reference.eval_bfs(g),
            "{backend:?}: subsumption answer is bit-identical to direct evaluation"
        );
    }
}

/// A forced plan evaluates against a scratch memo: however warm the
/// engine's memo is, the harness entry exercises the plan's index and
/// leaves the engine's counters alone.
#[test]
fn forced_plans_bypass_the_engine_memo() {
    for backend in INDEX_BACKENDS {
        let engine = engine_on(backend);
        let query = rq(engine.graph());
        let warm = engine.run_query(&query);
        let stats = engine.semantic_stats();
        assert_eq!(stats.misses, 1, "{backend:?}: the warm-up populated");
        let forced = Plan::ALL
            .into_iter()
            .filter(|p| p.backend() == backend && p.algo() == Algo::RqDm);
        for plan in forced {
            let (out, profile) = engine.run_query_with_plan_profiled(&query, plan);
            assert_eq!(out, warm);
            assert!(profile.probes > 0, "{}: served from a cache", plan.name());
            assert_eq!(profile.semcache, "miss", "{}", plan.name());
        }
        assert_eq!(engine.semantic_stats(), stats, "{backend:?}");
    }
}

/// A profile's probe count is exactly one count per top-level probe call
/// of the core evaluator over the regime's probe: the miss path's
/// target-widened `Rq::eval_with_dist` for an RQ, `JoinMatch::eval` for a
/// PQ. A probe counted twice, or not at all, breaks the equality.
#[test]
fn profiles_count_each_probe_call_once() {
    for backend in [
        Backend::Matrix,
        Backend::Hop,
        Backend::Sharded,
        Backend::Search,
    ] {
        let engine = engine_on(backend);
        let g = engine.graph();
        let graph = GraphProbe::new(g);
        let probe: &dyn DistProbe = match backend {
            Backend::Matrix => engine.matrix().unwrap(),
            Backend::Hop => engine.hop().unwrap(),
            Backend::Sharded => engine.sharded().unwrap(),
            Backend::Search => &graph,
        };
        let plan = |algo| {
            let mut plans = Plan::ALL.into_iter();
            plans
                .find(|p| p.backend() == backend && p.algo() == algo)
                .unwrap()
        };
        let (Query::Rq(rq_query), Query::Pq(pq_query)) = (rq(g), pq(g)) else {
            unreachable!()
        };

        let rq_query = canonical_rq(&rq_query);
        let wide = Rq::new(
            rq_query.from.clone(),
            Predicate::always_true(),
            rq_query.regex.clone(),
        );
        let counting = CountingProbe::new(probe);
        wide.eval_with_dist(g, &counting);
        let (_, profile) =
            engine.run_query_with_plan_profiled(&Query::Rq(rq_query), plan(Algo::RqDm));
        assert_eq!(profile.semcache, "miss", "{backend:?}");
        assert!(counting.probes() > 0, "{backend:?}: the RQ probes");
        assert_eq!(profile.probes, counting.probes(), "{backend:?}: RQ");

        let pq_query = canonical_pq(&pq_query);
        let counting = CountingProbe::new(probe);
        JoinMatch::eval(&pq_query, g, &mut ProbeReach::new(&counting));
        let (_, profile) =
            engine.run_query_with_plan_profiled(&Query::Pq(pq_query), plan(Algo::Join));
        assert!(counting.probes() > 0, "{backend:?}: the PQ probes");
        assert_eq!(profile.probes, counting.probes(), "{backend:?}: PQ");
    }
}
