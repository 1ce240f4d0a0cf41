//! Reproduce a slice of the paper's experimental set-up (Section 4.1) on a
//! single random task graph: generate a graph with a chosen CCR, then compare
//!
//! * the list-scheduling heuristics (polynomial time, no guarantee),
//! * the Chen & Yu branch-and-bound baseline,
//! * the serial A* with and without the pruning techniques, and
//! * the parallel A* on several PPE counts,
//!
//! reporting schedule lengths, state counts and wall-clock times.
//!
//! Run with: `cargo run --release --example random_workload -- [nodes] [ccr] [seed]`
//! (defaults: 10 nodes, CCR 1.0, seed 7; sizes much above 12 make the
//! un-pruned search very slow, which is precisely the paper's point).

use std::env;

use optsched::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut args = env::args().skip(1);
    let nodes: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);
    let ccr: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1.0);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);

    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generate_random_dag(
        &RandomDagConfig { nodes, ccr, ..Default::default() },
        &mut rng,
    );
    println!(
        "random DAG: v = {}, e = {}, requested CCR = {}, measured CCR = {:.2}, CP = {}",
        graph.num_nodes(),
        graph.num_edges(),
        ccr,
        graph.ccr(),
        graph.critical_path_length()
    );

    // The paper lets the search use up to v target processors but observes
    // that far fewer are needed; four fully connected TPEs keep this example
    // fast while leaving room for real parallelism.
    let network = ProcNetwork::fully_connected(4);
    let problem = SchedulingProblem::new(graph.clone(), network.clone());

    println!("\n{:<38} {:>8} {:>12} {:>12} {:>10}", "algorithm", "length", "generated", "expanded", "time (ms)");
    let row = |name: &str, len: Cost, generated: u64, expanded: u64, ms: f64| {
        println!("{name:<38} {len:>8} {generated:>12} {expanded:>12} {ms:>10.1}");
    };

    let (hname, hsched) = best_heuristic_schedule(&graph, &network);
    row(&format!("list heuristic ({hname})"), hsched.makespan(), 0, 0, 0.0);

    let chen = ChenYuScheduler::new(&problem).run();
    row("Chen & Yu branch-and-bound", chen.schedule_length, chen.stats.generated, chen.stats.expanded, chen.elapsed.as_secs_f64() * 1e3);

    let unpruned = SearchConfig { pruning: PruningConfig::none(), ..Default::default() };
    let full = AStarScheduler::new(&problem).with_config(unpruned).run();
    row("A* without pruning", full.schedule_length, full.stats.generated, full.stats.expanded, full.elapsed.as_secs_f64() * 1e3);

    let pruned = AStarScheduler::new(&problem).run();
    row("A* with pruning", pruned.schedule_length, pruned.stats.generated, pruned.stats.expanded, pruned.elapsed.as_secs_f64() * 1e3);

    for eps in [0.2, 0.5] {
        let approx = AEpsScheduler::new(&problem, eps).run();
        row(
            &format!("Aε* (ε = {eps})"),
            approx.schedule_length,
            approx.stats.generated,
            approx.stats.expanded,
            approx.elapsed.as_secs_f64() * 1e3,
        );
    }

    for q in [2, 4] {
        let par = ParallelAStarScheduler::new(&problem, ParallelConfig::exact(q)).run();
        row(
            &format!("parallel A* ({q} PPEs)"),
            par.schedule_length(),
            par.total_stats().generated,
            par.total_expanded(),
            par.elapsed.as_secs_f64() * 1e3,
        );
    }

    assert_eq!(pruned.schedule_length, full.schedule_length, "pruning never changes the optimum");
    assert_eq!(pruned.schedule_length, chen.schedule_length, "both exact algorithms agree");
    println!(
        "\noptimal = {}, heuristic degradation = {:+.1}%",
        pruned.schedule_length,
        100.0 * (hsched.makespan() as f64 - pruned.schedule_length as f64)
            / pruned.schedule_length as f64
    );
}
