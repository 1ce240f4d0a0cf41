//! Property-based tests (proptest) of the core invariants, run over randomly
//! generated DAGs, processor networks and cost distributions.

mod reference;

use optsched::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a small random DAG described by (nodes, ccr-index, seed).
/// Sizes stay small enough that even the un-pruned exact search (which the
/// optimality property exercises) finishes quickly in debug builds.
fn dag_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (4usize..=8, 0usize..3, any::<u64>())
}

fn make_dag(nodes: usize, ccr_idx: usize, seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    generate_random_dag(
        &RandomDagConfig { nodes, ccr: PAPER_CCRS[ccr_idx], ..Default::default() },
        &mut rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Level attributes: every parent has a strictly larger b-level than each
    /// of its children, t-levels are non-decreasing along edges, the static
    /// level never exceeds the b-level, and the critical path length is the
    /// maximum b-level of an entry node.
    #[test]
    fn level_invariants((nodes, ccr_idx, seed) in dag_params()) {
        let g = make_dag(nodes, ccr_idx, seed);
        let levels = GraphLevels::compute(&g);
        for e in g.edges() {
            prop_assert!(levels.b_level(e.src) > levels.b_level(e.dst));
            prop_assert!(levels.t_level(e.src) < levels.t_level(e.dst));
        }
        for n in g.node_ids() {
            prop_assert!(levels.static_level(n) <= levels.b_level(n));
            prop_assert!(levels.b_level(n) + levels.alap(n) == levels.critical_path_length());
        }
        let cp_from_entries =
            g.entry_nodes().iter().map(|&n| levels.b_level(n)).max().unwrap();
        prop_assert_eq!(cp_from_entries, levels.critical_path_length());
    }

    /// Every list-scheduling configuration produces a feasible schedule whose
    /// length lies between the computation-only critical path and the fully
    /// serial execution plus all communication.
    #[test]
    fn heuristic_schedules_are_feasible((nodes, ccr_idx, seed) in dag_params(), procs in 1usize..=4) {
        let g = make_dag(nodes, ccr_idx, seed);
        let net = ProcNetwork::fully_connected(procs);
        let s = upper_bound_schedule(&g, &net);
        prop_assert!(s.validate(&g, &net).is_ok());
        prop_assert!(s.makespan() >= g.schedule_length_lower_bound());
        prop_assert!(s.makespan() <= g.total_computation() + g.total_communication());
    }

    /// The A* search returns a feasible schedule that is optimal: no longer
    /// than the list heuristic, no shorter than the static critical path, and
    /// identical in length for every pruning configuration.
    #[test]
    fn astar_optimality_invariants((nodes, ccr_idx, seed) in dag_params(), procs in 2usize..=3) {
        let g = make_dag(nodes, ccr_idx, seed);
        let problem = SchedulingProblem::new(g.clone(), ProcNetwork::fully_connected(procs));
        let pruned = AStarScheduler::new(&problem).run();
        prop_assert!(pruned.is_optimal());
        prop_assert!(pruned.expect_schedule().validate(&g, problem.network()).is_ok());
        prop_assert!(pruned.schedule_length <= problem.upper_bound());
        prop_assert!(pruned.schedule_length >= problem.lower_bound());

        let none = SearchConfig { pruning: PruningConfig::none(), ..Default::default() };
        let unpruned = AStarScheduler::new(&problem).with_config(none).run();
        prop_assert_eq!(unpruned.schedule_length, pruned.schedule_length);

        let tight_h =
            SearchConfig { heuristic: HeuristicKind::TightStaticLevel, ..Default::default() };
        let tight = AStarScheduler::new(&problem).with_config(tight_h).run();
        prop_assert_eq!(tight.schedule_length, pruned.schedule_length);
    }

    /// Aε* never returns a schedule shorter than optimal or longer than
    /// (1+ε) times optimal.
    #[test]
    fn aeps_bound_holds((nodes, ccr_idx, seed) in dag_params(), eps_pct in 0u32..=60) {
        let g = make_dag(nodes, ccr_idx, seed);
        let problem = SchedulingProblem::new(g, ProcNetwork::fully_connected(2));
        let eps = f64::from(eps_pct) / 100.0;
        let optimal = AStarScheduler::new(&problem).run().schedule_length;
        let approx = AEpsScheduler::new(&problem, eps).run().schedule_length;
        prop_assert!(approx >= optimal);
        prop_assert!((approx as f64) <= (optimal as f64) * (1.0 + eps) + 1e-9);
    }

    /// The parallel scheduler is exact for any PPE count, topology choice and
    /// duplicate-detection mode.
    #[test]
    fn parallel_astar_is_exact((nodes, ccr_idx, seed) in dag_params(), q in 1usize..=4) {
        let g = make_dag(nodes, ccr_idx, seed);
        let problem = SchedulingProblem::new(g.clone(), ProcNetwork::ring(3));
        let serial = AStarScheduler::new(&problem).run().schedule_length;
        for mode in [DuplicateDetection::Local, DuplicateDetection::ShardedGlobal] {
            let cfg = ParallelConfig::exact(q).with_duplicate_detection(mode);
            let parallel = ParallelAStarScheduler::new(&problem, cfg).run();
            prop_assert_eq!(parallel.schedule_length(), serial, "mode={}", mode);
            prop_assert!(parallel.schedule.validate(&g, problem.network()).is_ok());
        }
    }

    /// The per-PPE state store is a pure memory/time trade: under random
    /// load-share + election schedules (random instances, random PPE counts,
    /// eager communication so transfers actually fly, plus whatever thread
    /// interleaving this run happens to produce), a parallel run on delta
    /// arenas returns a valid schedule with the optimum of the eager
    /// clone-per-state reference A\* (`tests/reference/`), in both
    /// duplicate-detection modes — while holding at most roots, scratch
    /// states and adopted snapshots live per PPE.
    #[test]
    fn parallel_arena_store_matches_eager_store(
        (nodes, ccr_idx, seed) in (4usize..=7, 0usize..3, any::<u64>()),
        q in 2usize..=4,
        comm_period in 1u64..=2,
    ) {
        let g = make_dag(nodes, ccr_idx, seed);
        let problem = SchedulingProblem::new(g.clone(), ProcNetwork::fully_connected(3));
        let eager =
            reference::astar(&problem, PruningConfig::all(), HeuristicKind::PaperStaticLevel);
        for mode in [DuplicateDetection::Local, DuplicateDetection::ShardedGlobal] {
            let cfg = ParallelConfig {
                num_ppes: q,
                min_comm_period: comm_period,
                ..Default::default()
            }
            .with_duplicate_detection(mode);
            let arena = ParallelAStarScheduler::new(&problem, cfg).run();
            prop_assert!(arena.is_optimal(), "mode={}", mode);
            prop_assert_eq!(arena.schedule_length(), eager.schedule_length, "mode={}", mode);
            prop_assert!(arena.schedule.validate(&g, problem.network()).is_ok());
            // The per-PPE stores hold roots, scratch states and adopted
            // snapshot transfers — always a subset of the live records; the
            // airtight headline `peak_live_states()` additionally folds in
            // the in-flight transfer peak.
            prop_assert!(
                arena.total_stats().peak_live_states
                    <= arena.total_stats().peak_live_records
                        + q as u64, // one scratch state per PPE is not a record
                "mode={}: arena held {} live full states over {} records",
                mode,
                arena.total_stats().peak_live_states,
                arena.total_stats().peak_live_records
            );
            prop_assert_eq!(
                arena.peak_live_states(),
                arena.total_stats().peak_live_states + arena.peak_in_flight,
                "mode={}", mode
            );
        }
    }

    /// Arena lifecycle bookkeeping under random generate / materialise /
    /// release / ship schedules: the refcount books stay balanced at every
    /// step (every allocated record is either live or reclaimed — nothing
    /// leaks, nothing is double-freed), and releasing every outstanding
    /// handle drains the arena back to exactly its pinned root, no matter
    /// the order the handles die in.
    #[test]
    fn arena_refcount_books_stay_balanced(
        (nodes, ccr_idx, seed) in dag_params(),
        op_seed in any::<u64>(),
    ) {
        use optsched::core::engine::StateArena;
        use optsched::core::SearchState;
        use rand::Rng;
        let g = make_dag(nodes, ccr_idx, seed);
        let problem = SchedulingProblem::new(g, ProcNetwork::fully_connected(2));
        let h = HeuristicKind::PaperStaticLevel;
        let mut arena = StateArena::new(&problem);
        let mut handles = vec![arena.insert_root(SearchState::initial(&problem))];
        let mut allocs: u64 = 1;

        let mut op_rng = StdRng::seed_from_u64(op_seed);
        for _ in 0..80 {
            let op = op_rng.next_u32();
            prop_assert_eq!(
                arena.live_records() as u64 + arena.reclaimed_records(),
                allocs,
                "books out of balance mid-run"
            );
            if handles.is_empty() {
                break;
            }
            let pick = (op as usize / 4) % handles.len();
            match op % 4 {
                // Expand: store a child of a random held state (two op codes,
                // so trees grow often enough to exercise deep cascades).
                0 | 1 => {
                    let parent = arena.materialise(handles[pick]).clone();
                    let ready = parent.ready_nodes(&problem);
                    if !ready.is_empty() {
                        let n = ready[(op as usize / 8) % ready.len()];
                        let p = ProcId((op / 16) % problem.num_procs() as u32);
                        let d = parent.peek_child(&problem, n, p, h);
                        handles.push(arena.insert_child(handles[pick], &d));
                        allocs += 1;
                    }
                }
                // Prune: drop the handle (reclamation may cascade).
                2 => arena.release(handles.swap_remove(pick)),
                // Ship: extract the wire chain, release the local copy, adopt
                // it back — a loop-back transfer through the chain-shipping
                // wire format.  (Depth-0 states are never shipped.)
                _ => {
                    let id = handles[pick];
                    if arena.materialise(id).depth() > 0 {
                        let wire = arena.extract_chain(id);
                        handles.swap_remove(pick);
                        arena.release(id);
                        handles.push(arena.adopt_chain(&wire));
                        allocs += wire.len() as u64;
                    }
                }
            }
        }

        for id in handles.drain(..) {
            arena.release(id);
        }
        prop_assert_eq!(arena.live_records(), 1, "only the pinned root survives the drain");
        prop_assert_eq!(arena.live_records() as u64 + arena.reclaimed_records(), allocs);
    }

    /// The arena's lifecycle machinery — refcounted reclamation and the
    /// materialisation path-cache — is behaviour-preserving: on every
    /// instance the engine expands, generates and drops exactly what the
    /// clone-per-state reference A\* (`tests/reference/`), which has
    /// neither, does, and reaches the same optimum.  Reclamation keeps the
    /// record high-water mark below everything ever generated.
    #[test]
    fn gc_and_path_cache_never_change_the_search(
        (nodes, ccr_idx, seed) in dag_params(),
        procs in 2usize..=3,
    ) {
        let g = make_dag(nodes, ccr_idx, seed);
        let problem = SchedulingProblem::new(g, ProcNetwork::fully_connected(procs));
        let engine = AStarScheduler::new(&problem).run();
        let clones =
            reference::astar(&problem, PruningConfig::all(), HeuristicKind::PaperStaticLevel);
        prop_assert_eq!(engine.schedule_length, clones.schedule_length);
        prop_assert_eq!(
            (engine.stats.expanded, engine.stats.generated, engine.stats.duplicates),
            (clones.expanded, clones.generated, clones.duplicates)
        );
        prop_assert!(
            engine.stats.peak_live_records <= engine.stats.generated,
            "reclamation bounds the record high-water mark ({} vs {} generated)",
            engine.stats.peak_live_records, engine.stats.generated
        );
    }

    /// Adding a processor never makes the optimal schedule longer.
    #[test]
    fn more_processors_never_hurt((nodes, ccr_idx, seed) in dag_params()) {
        let g = make_dag(nodes, ccr_idx, seed);
        let mut previous = Cost::MAX;
        for p in 1..=3 {
            let problem = SchedulingProblem::new(g.clone(), ProcNetwork::fully_connected(p));
            let len = AStarScheduler::new(&problem).run().schedule_length;
            prop_assert!(len <= previous, "p={} gave {} > {}", p, len, previous);
            previous = len;
        }
    }

    /// Scaling every node and edge weight by a constant scales the optimal
    /// schedule length by exactly the same constant.
    #[test]
    fn optimal_length_scales_linearly((nodes, ccr_idx, seed) in dag_params(), factor in 2u64..=5) {
        let g = make_dag(nodes, ccr_idx, seed);
        let mut scaled = GraphBuilder::with_capacity(g.num_nodes());
        for n in g.node_ids() {
            scaled.add_node(g.weight(n) * factor);
        }
        for e in g.edges() {
            scaled.add_edge(e.src, e.dst, e.weight * factor).unwrap();
        }
        let scaled = scaled.build().unwrap();

        let p1 = SchedulingProblem::new(g, ProcNetwork::fully_connected(2));
        let p2 = SchedulingProblem::new(scaled, ProcNetwork::fully_connected(2));
        let len1 = AStarScheduler::new(&p1).run().schedule_length;
        let len2 = AStarScheduler::new(&p2).run().schedule_length;
        prop_assert_eq!(len1 * factor, len2);
    }

    /// Every schedule returned by any scheduler in the workspace is *valid*:
    /// complete, precedence and communication delays respected, no two tasks
    /// overlapping on a processor (all enforced by `Schedule::validate`), and
    /// the reported makespan equal to the maximum finish time over the tasks.
    /// The bounded schedulers additionally respect their guarantees:
    /// exact ones return the optimum, Aε* stays within (1+ε)·optimum, and the
    /// list heuristic is never better than the optimum.
    #[test]
    fn every_scheduler_returns_a_valid_schedule(
        (nodes, ccr_idx, seed) in dag_params(),
        procs in 2usize..=3,
        eps_pct in 0u32..=50,
    ) {
        let g = make_dag(nodes, ccr_idx, seed);
        let net = ProcNetwork::fully_connected(procs);
        let problem = SchedulingProblem::new(g.clone(), net.clone());
        let eps = f64::from(eps_pct) / 100.0;

        let astar = AStarScheduler::new(&problem).run();
        prop_assert!(astar.is_optimal());
        let optimum = astar.schedule_length;

        let aeps = AEpsScheduler::new(&problem, eps).run();
        let aeps_bound = ((optimum as f64) * (1.0 + eps)).floor() as Cost;
        prop_assert!(aeps.schedule_length >= optimum);
        prop_assert!(
            aeps.schedule_length <= aeps_bound,
            "Aε*({}) returned {} > bound {}", eps, aeps.schedule_length, aeps_bound
        );

        let mut schedules: Vec<(String, Schedule)> = vec![
            ("list".into(), upper_bound_schedule(&g, &net)),
            ("astar".into(), astar.expect_schedule().clone()),
            ("aeps".into(), aeps.expect_schedule().clone()),
            ("chenyu".into(), ChenYuScheduler::new(&problem).run().expect_schedule().clone()),
        ];
        for mode in [DuplicateDetection::Local, DuplicateDetection::ShardedGlobal] {
            let cfg = ParallelConfig::exact(2).with_duplicate_detection(mode);
            let r = ParallelAStarScheduler::new(&problem, cfg).run();
            prop_assert_eq!(r.schedule_length(), optimum, "parallel mode={}", mode);
            schedules.push((format!("parallel-{mode}"), r.schedule));
        }

        for (name, s) in &schedules {
            prop_assert!(s.is_complete(), "{}: incomplete schedule", name);
            // Precedence + communication delays + per-processor exclusivity.
            if let Err(e) = s.validate(&g, &net) {
                panic!("{name}: invalid schedule: {e}");
            }
            // The reported makespan is exactly the latest finish time.
            let max_finish = s.tasks().map(|t| t.finish).max().unwrap_or(0);
            prop_assert_eq!(s.makespan(), max_finish, "{}", name);
            // No schedule beats the optimum; the exact ones attain it.
            prop_assert!(s.makespan() >= optimum, "{}: beats the optimum", name);
        }
        prop_assert_eq!(schedules[1].1.makespan(), optimum);
        prop_assert_eq!(schedules[3].1.makespan(), optimum, "chenyu");
    }

    /// The random workload generator respects its contract: node count, at
    /// least one edge, weights within the uniform-distribution bounds.
    #[test]
    fn workload_generator_contract(nodes in 2usize..=40, ccr_idx in 0usize..3, seed in any::<u64>()) {
        let g = make_dag(nodes, ccr_idx, seed);
        prop_assert_eq!(g.num_nodes(), nodes);
        prop_assert!(g.num_edges() >= 1);
        for n in g.node_ids() {
            prop_assert!((1..=79).contains(&g.weight(n)));
        }
        // Acyclicity is guaranteed by construction: a topological order exists.
        prop_assert!(optsched::taskgraph::TopoOrder::compute(&g).is_some());
    }

    /// The service wire format round-trips: an `Instance` (task graph +
    /// processor network in the validated wire formats) survives JSON
    /// serialisation bit-for-bit, with an unchanged canonical signature —
    /// the service's cache interning must not depend on which side of the
    /// wire an instance came from.
    #[test]
    fn instance_json_round_trips(
        (nodes, ccr_idx, seed) in dag_params(),
        procs in 1usize..=4,
        topo in 0usize..3,
    ) {
        use optsched_service::{canonical_signature, Instance};
        let g = make_dag(nodes, ccr_idx, seed);
        let net = match topo {
            0 => ProcNetwork::fully_connected(procs),
            1 => ProcNetwork::ring(procs.max(2)),
            _ => ProcNetwork::star(procs.max(2)),
        };
        let inst = Instance::new(g, net);
        let json = serde_json::to_string(&inst).expect("instances serialise");
        let back: Instance = serde_json::from_str(&json).expect("instances parse back");
        prop_assert_eq!(&back, &inst);
        prop_assert_eq!(canonical_signature(&back), canonical_signature(&inst));
        // Pretty-printing (different whitespace, same content) parses to the
        // same instance too.
        let pretty: Instance =
            serde_json::from_str(&serde_json::to_string_pretty(&inst).expect("pretty"))
                .expect("pretty parses");
        prop_assert_eq!(&pretty, &inst);
    }

    /// `Schedule` JSON round-trips for real schedules of every shape the
    /// service can produce (here: the list heuristic over random instances).
    #[test]
    fn schedule_json_round_trips((nodes, ccr_idx, seed) in dag_params(), procs in 1usize..=4) {
        let g = make_dag(nodes, ccr_idx, seed);
        let net = ProcNetwork::fully_connected(procs);
        let s = upper_bound_schedule(&g, &net);
        let json = serde_json::to_string(&s).expect("schedules serialise");
        let back: Schedule = serde_json::from_str(&json).expect("schedules parse back");
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(back.makespan(), s.makespan());
        prop_assert!(back.validate(&g, &net).is_ok());
    }
}

/// The service answers malformed requests with a *structured error* —
/// `ok == false`, an error message, the fallback id — instead of dying,
/// for every flavour of malformed: not JSON at all, JSON of the wrong
/// shape, a request whose instance violates graph invariants, and an
/// unknown algorithm on a well-formed instance.
#[test]
fn service_answers_malformed_requests_with_structured_errors() {
    use optsched_service::{SchedulingService, ServiceConfig};

    let svc = SchedulingService::new(ServiceConfig::default());
    let cyclic_instance = r#"{"instance": {"graph": {"nodes": [{"weight": 1, "label": null},
        {"weight": 1, "label": null}], "edges": [{"src": 0, "dst": 1, "weight": 1},
        {"src": 1, "dst": 0, "weight": 1}]},
        "network": {"procs": [{"cycle_time": 1, "label": null}], "links": []}}}"#;
    for (line, needle) in [
        ("this is not json", "malformed"),
        ("{\"id\": 3}", "instance"),
        ("[1, 2, 3]", "malformed"),
        (cyclic_instance, "cycle"),
    ] {
        let resp = svc.handle_line(line, 77);
        assert!(!resp.ok, "{line}");
        assert_eq!(resp.id, 77);
        let err = resp.error.expect("structured error message");
        assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        assert!(resp.schedule.is_none());
    }

    // A well-formed instance with an unknown algorithm is also an error
    // response, not a death.
    let mut req = optsched_service::Request::new(optsched_service::Instance::new(
        paper_example_dag(),
        ProcNetwork::ring(3),
    ));
    req.algorithm = Some("quantum".to_string());
    let resp = svc.handle_request(&req, 5);
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("unknown algorithm"));

    // And the service still works afterwards.
    req.algorithm = Some("astar".to_string());
    let resp = svc.handle_request(&req, 6);
    assert!(resp.ok);
    assert_eq!(resp.schedule_length, Some(14));
}

// ---------------------------------------------------------------------------
// Service result-cache properties: the LRU + max_age cache against a
// reference model.
// ---------------------------------------------------------------------------

/// A shared single-shard cache setup for the cache properties: one canonical
/// instance, entries distinguished by their algorithm string (distinct cache
/// keys in one shard without building many instances).
fn cache_fixture() -> (u64, optsched_service::CanonicalInstance, optsched_service::CachedResult) {
    use optsched_service::{canonical_signature, CachedResult, CanonicalInstance, Instance};
    let inst = Instance::new(paper_example_dag(), ProcNetwork::ring(3));
    let result = CachedResult {
        schedule: Schedule::new(1, 1),
        schedule_length: 14,
        quality: "optimal".to_string(),
        algorithm: "astar".to_string(),
        expanded: 0,
        peak_live_records: 0,
    };
    (canonical_signature(&inst), CanonicalInstance::of(&inst), result)
}

/// Deterministic op stream: (is_lookup, key index) pairs from a SplitMix64
/// walk, so every proptest case replays exactly.
fn cache_ops(seed: u64, n: usize) -> Vec<(bool, usize)> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    (0..n).map(|_| ((next() % 2) == 0, (next() % 6) as usize)).collect()
}

/// A long admission stream takes the interned seen-set through several
/// index growths and storage chunks, answering like the hash-set model
/// throughout.
#[test]
fn signature_set_matches_the_model_across_growths() {
    let r = reference::signatures::replay(10, 4, 64, 40_000, 7);
    assert!(r.distinct > 4 * 1024, "{r:?}");
    assert!(r.duplicates > 0, "{r:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The interned seen-set gives the answer of a plain
    /// `HashSet<StateSignature>` on every admission, and the same duplicate
    /// count, over small value ranges dense in repeats and in children that
    /// differ from a stored signature in one word.
    #[test]
    fn signature_set_matches_a_hash_set_model(
        seed in any::<u64>(),
        width in 4usize..=12,
        procs in 1u32..=3,
        starts in 1u64..=8,
    ) {
        let r = reference::signatures::replay(width, procs, starts, 3000, seed);
        prop_assert!(r.duplicates > 0, "{:?}", r);
    }

    /// The LRU cache against a reference model: for any op sequence the
    /// shard never exceeds its capacity, lookups hit exactly when the model
    /// says the key is live, the evicted key is always the least-recently
    /// *used* one, and the hit/miss/eviction counters balance exactly.
    #[test]
    fn cache_lru_matches_a_reference_model(capacity in 1usize..=4, seed in any::<u64>()) {
        use optsched_service::ResultCache;
        use std::collections::HashMap;

        let (sig, canon, result) = cache_fixture();
        let cache = ResultCache::bounded(1, capacity); // one shard: capacity == shard capacity
        // The model mirrors the shard: key -> recency stamp, one clock tick
        // per operation (the cache's shard clock advances on every lookup
        // *and* insert), evict the minimum stamp on overflow.
        let mut model: HashMap<usize, u64> = HashMap::new();
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        let mut lookups = 0u64;

        for (clock, (is_lookup, k)) in cache_ops(seed, 48).into_iter().enumerate() {
            let alg = format!("alg{k}");
            let stamp = clock as u64;
            if is_lookup {
                lookups += 1;
                let got = cache.lookup(sig, &canon, &alg, 0).is_some();
                let expected = model.contains_key(&k);
                prop_assert_eq!(got, expected, "lookup of key {} disagrees with the model", k);
                if expected {
                    model.insert(k, stamp); // a hit refreshes recency
                    hits += 1;
                } else {
                    misses += 1;
                }
            } else {
                cache.insert(sig, &canon, &alg, 0, result.clone());
                model.insert(k, stamp); // re-insert refreshes in place
                if model.len() > capacity {
                    let victim = *model.iter().min_by_key(|(_, s)| **s).unwrap().0;
                    model.remove(&victim);
                    evictions += 1;
                }
            }
            prop_assert!(
                cache.stats().entries <= capacity,
                "the shard exceeded its capacity"
            );
        }

        let stats = cache.stats();
        prop_assert_eq!(stats.entries, model.len(), "live entries match the model");
        prop_assert_eq!(stats.hits, hits);
        prop_assert_eq!(stats.misses, misses);
        prop_assert_eq!(stats.evictions, evictions);
        prop_assert_eq!(stats.expired, 0, "no TTL, no expiry");
        prop_assert_eq!(stats.hits + stats.misses, lookups, "counters balance");
    }

    /// `max_age = ZERO` makes every entry stale by its first lookup: for any
    /// op sequence not a single lookup is served, stale entries are expired
    /// (never LRU-evicted), and the shard still respects its capacity.
    #[test]
    fn cache_expired_entries_are_never_served(capacity in 1usize..=4, seed in any::<u64>()) {
        use optsched_service::ResultCache;
        use std::time::Duration;

        let (sig, canon, result) = cache_fixture();
        let cache = ResultCache::with_max_age(1, capacity, Some(Duration::ZERO));
        let mut lookups = 0u64;
        for (is_lookup, k) in cache_ops(seed, 48) {
            let alg = format!("alg{k}");
            if is_lookup {
                lookups += 1;
                prop_assert!(
                    cache.lookup(sig, &canon, &alg, 0).is_none(),
                    "an expired entry was served"
                );
            } else {
                cache.insert(sig, &canon, &alg, 0, result.clone());
            }
            prop_assert!(cache.stats().entries <= capacity);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, 0, "nothing stale is ever a hit");
        prop_assert_eq!(stats.misses, lookups);
        prop_assert_eq!(stats.evictions, 0, "stale entries expire instead of evicting");
        prop_assert!(stats.entries <= capacity);
    }

    /// The lock-free CLOSED table against the `Mutex<HashMap>` reference
    /// model (`tests/reference/claims.rs`) under real 4-thread
    /// interleavings: for any op stream, run concurrently through both, the
    /// two end with the same contents (every distinct signature present, its
    /// stored `g` equal to the minimum ever submitted for it — probed in the
    /// table via the claim protocol itself, which must answer `Duplicate`,
    /// never `Claimed`, at that minimum) and the table keeps the
    /// order-independent counter totals (`entries == misses ==` distinct
    /// signatures; hits + reopens account for every remaining claim).
    #[test]
    fn closed_table_backends_agree_under_concurrency(
        seed in any::<u64>(),
        shards in 1usize..=4,
    ) {
        use optsched::core::SearchState;
        use optsched::parallel::{ClaimOutcome, ShardedClosedTable};
        use reference::claims::ClaimModel;
        use std::collections::HashMap;

        // Key universe: distinct real signatures (the paper DAG's initial
        // state with one extra assignment each).
        let problem = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
        let base = SearchState::initial(&problem).signature();
        let keys: Vec<_> = (0..12u32)
            .map(|i| base.with_assignment(NodeId(i % 6), ProcId(i / 6), Cost::from(i) * 3))
            .collect();

        // Deterministic op stream (key index, g); thread t executes ops
        // i ≡ t (mod 4), so all four threads race on the shared key set.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let ops: Vec<(usize, Cost)> =
            (0..160).map(|_| ((next() % 12) as usize, (next() % 8) + 1)).collect();

        let mut min_g: HashMap<usize, Cost> = HashMap::new();
        for &(k, g) in &ops {
            min_g.entry(k).and_modify(|m| *m = (*m).min(g)).or_insert(g);
        }

        let table = ShardedClosedTable::new(shards);
        let model = ClaimModel::new();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (table, model, ops, keys) = (&table, &model, &ops, &keys);
                scope.spawn(move || {
                    for (i, &(k, g)) in ops.iter().enumerate() {
                        if i % 4 == t {
                            table.try_claim(keys[k].clone(), g, t);
                            model.try_claim(k, g, t).ok();
                        }
                    }
                });
            }
        });

        // Order-independent counter totals, checked before the probe claims
        // below disturb them.
        let stats = table.stats();
        let entries: u64 = stats.per_shard.iter().map(|s| s.entries as u64).sum();
        let hits: u64 = stats.per_shard.iter().map(|s| s.hits).sum();
        let misses: u64 = stats.per_shard.iter().map(|s| s.misses).sum();
        let reopens: u64 = stats.per_shard.iter().map(|s| s.reopens).sum();
        prop_assert_eq!(table.len(), model.len(), "one entry per distinct signature");
        prop_assert_eq!(model.len(), min_g.len());
        prop_assert_eq!(entries, min_g.len() as u64);
        prop_assert_eq!(misses, entries, "every entry began as a miss");
        prop_assert_eq!(hits + misses + reopens, ops.len() as u64, "every claim accounted");

        // Final contents: each signature present, its stored g equal to the
        // best ever submitted — the model says so directly; the table must
        // resolve a claim at that minimum as a duplicate, never a win.
        for (&k, &mg) in &min_g {
            prop_assert_eq!(model.best_g(&k), Some(mg), "model: key {}", k);
            prop_assert!(table.contains(&keys[k]), "key {} missing", k);
            let outcome = table.try_claim(keys[k].clone(), mg, 7);
            prop_assert!(
                matches!(
                    outcome,
                    ClaimOutcome::DuplicateSameOwner | ClaimOutcome::DuplicateOtherOwner
                ),
                "stored g for key {} is worse than the submitted minimum {}",
                k, mg
            );
        }
    }

    /// Arena compaction under random grow/release schedules: every live id
    /// materialises to the same state after `compact()` as before it, and
    /// draining the arena back to its root then compacting shrinks the slot
    /// capacity — after which the arena still accepts and materialises new
    /// children correctly.
    #[test]
    fn arena_compaction_preserves_live_states_and_shrinks(
        (nodes, ccr_idx, seed) in dag_params(),
        op_seed in any::<u64>(),
    ) {
        use optsched::core::engine::StateArena;
        use optsched::core::SearchState;
        use rand::Rng;

        let g = make_dag(nodes, ccr_idx, seed);
        let problem = SchedulingProblem::new(g, ProcNetwork::fully_connected(2));
        let h = HeuristicKind::PaperStaticLevel;
        let mut arena = StateArena::new(&problem);
        let root = arena.insert_root(SearchState::initial(&problem));
        let mut handles = vec![root];

        let mut op_rng = StdRng::seed_from_u64(op_seed);
        for _ in 0..60 {
            let op = op_rng.next_u32();
            if op % 3 < 2 {
                // Grow: store a child of a random held state.
                let pick = (op as usize / 4) % handles.len();
                let parent = arena.materialise(handles[pick]).clone();
                let ready = parent.ready_nodes(&problem);
                if !ready.is_empty() {
                    let n = ready[(op as usize / 8) % ready.len()];
                    let p = ProcId((op / 16) % problem.num_procs() as u32);
                    let d = parent.peek_child(&problem, n, p, h);
                    handles.push(arena.insert_child(handles[pick], &d));
                }
            } else if handles.len() > 1 {
                // Release a random non-root handle.
                let pick = 1 + (op as usize / 4) % (handles.len() - 1);
                arena.release(handles.swap_remove(pick));
            }
        }

        // Snapshot every live state, compact, verify nothing moved.
        let expected: Vec<_> = handles
            .iter()
            .map(|&id| {
                let s = arena.materialise(id);
                (id, s.signature(), s.g())
            })
            .collect();
        let cap_before = arena.capacity();
        arena.compact();
        prop_assert!(arena.capacity() <= cap_before, "compaction never grows the arena");
        for (id, sig, cost) in &expected {
            let s = arena.materialise(*id);
            prop_assert_eq!(&s.signature(), sig, "live id survived with a different state");
            prop_assert_eq!(s.g(), *cost);
        }

        // Drain to the root and compact: the capacity collapses with it.
        let cap_full = arena.capacity();
        for id in handles.drain(1..) {
            arena.release(id);
        }
        arena.compact();
        prop_assert_eq!(arena.live_records(), 1, "only the pinned root survives the drain");
        prop_assert!(
            arena.capacity() < cap_full || cap_full <= 2,
            "a drained arena must shrink ({} -> {})",
            cap_full,
            arena.capacity()
        );

        // And the compacted arena still works end to end.
        let root_state = arena.materialise(root).clone();
        let ready = root_state.ready_nodes(&problem);
        prop_assert!(!ready.is_empty());
        let d = root_state.peek_child(&problem, ready[0], ProcId(0), h);
        let fresh = arena.insert_child(root, &d);
        prop_assert_eq!(
            arena.materialise(fresh).signature(),
            root_state.apply_delta(&problem, &d).signature(),
            "a post-compaction insert materialises correctly"
        );
    }

    /// A generous `max_age` is behaviourally identical to no TTL: the same
    /// op sequence produces the same lookup outcomes and the same counters.
    #[test]
    fn cache_long_max_age_behaves_like_no_ttl(capacity in 1usize..=4, seed in any::<u64>()) {
        use optsched_service::ResultCache;
        use std::time::Duration;

        let (sig, canon, result) = cache_fixture();
        let plain = ResultCache::bounded(1, capacity);
        let aged = ResultCache::with_max_age(1, capacity, Some(Duration::from_secs(3600)));
        for (is_lookup, k) in cache_ops(seed, 48) {
            let alg = format!("alg{k}");
            if is_lookup {
                prop_assert_eq!(
                    plain.lookup(sig, &canon, &alg, 0).is_some(),
                    aged.lookup(sig, &canon, &alg, 0).is_some(),
                    "a long TTL changed a lookup outcome"
                );
            } else {
                plain.insert(sig, &canon, &alg, 0, result.clone());
                aged.insert(sig, &canon, &alg, 0, result.clone());
            }
        }
        let (p, a) = (plain.stats(), aged.stats());
        prop_assert_eq!(p.entries, a.entries);
        prop_assert_eq!(p.hits, a.hits);
        prop_assert_eq!(p.misses, a.misses);
        prop_assert_eq!(p.evictions, a.evictions);
        prop_assert_eq!(a.expired, 0);
    }
}
