//! Regenerates **Table 1** of the paper: running time of the Chen & Yu
//! branch-and-bound baseline, the A* scheduler *without* pruning ("A* full")
//! and the A* scheduler *with* all pruning techniques, on random task graphs
//! with CCR ∈ {0.1, 1.0, 10.0} and increasing node counts.
//!
//! The paper reports seconds on one Intel Paragon node for 10–32 nodes; this
//! binary reports milliseconds on the host plus the machine-independent
//! number of states generated.  Configurations that exceed the per-run time
//! budget are cut off and printed as `>budget`, mirroring the "—" entry of
//! the original table.  The expected *shape* is: Chen & Yu slowest, A*
//! without pruning in the middle, A* with pruning fastest; times grow with
//! CCR for every algorithm.
//!
//! Usage: `cargo run --release -p optsched-bench --bin table1 -- [--sizes 10,12,...] [--budget-ms N] [--tpes P] [--seed S]`

use optsched_bench::{fmt_ms, workload_problem, CsvWriter, ExperimentOptions, CCRS};
use optsched_core::{
    AStarScheduler, ChenYuScheduler, PruningConfig, SearchConfig, SearchLimits, SearchOutcome,
};

fn main() {
    let opts = ExperimentOptions::parse(std::env::args().skip(1));
    let limits = SearchLimits { max_millis: opts.budget_ms, ..Default::default() };
    let mut csv = CsvWriter::new(
        "ccr,size,algorithm,schedule_length,optimal,states_generated,states_expanded,time_ms,timed_out",
    );

    println!("Table 1 reproduction — running time (ms) and states generated");
    println!("TPEs = {}, per-run budget = {:?} ms, seed = {}", opts.num_tpes, opts.budget_ms, opts.seed);

    for &ccr in &CCRS {
        println!("\nCCR = {ccr}");
        println!(
            "{:>5} | {:>14} {:>12} | {:>14} {:>12} | {:>14} {:>12}",
            "size", "Chen ms", "states", "A*full ms", "states", "A* ms", "states"
        );
        for &size in &opts.sizes {
            let problem = workload_problem(size, ccr, &opts);

            let limited = SearchConfig::limited(limits);
            let unpruned = SearchConfig { pruning: PruningConfig::none(), ..limited.clone() };
            let chen = ChenYuScheduler::new(&problem).with_config(limited.clone()).run();
            let full = AStarScheduler::new(&problem).with_config(unpruned).run();
            let pruned = AStarScheduler::new(&problem).with_config(limited).run();

            let cell = |r: &optsched_core::SearchResult| {
                if r.outcome == SearchOutcome::LimitReached {
                    (format!(">{}", opts.budget_ms.unwrap_or(0)), r.stats.generated)
                } else {
                    (fmt_ms(r.elapsed), r.stats.generated)
                }
            };
            let (chen_ms, chen_states) = cell(&chen);
            let (full_ms, full_states) = cell(&full);
            let (pruned_ms, pruned_states) = cell(&pruned);
            println!(
                "{:>5} | {:>14} {:>12} | {:>14} {:>12} | {:>14} {:>12}",
                size, chen_ms, chen_states, full_ms, full_states, pruned_ms, pruned_states
            );

            for (name, r) in [("chen_yu", &chen), ("astar_full", &full), ("astar_pruned", &pruned)] {
                csv.row(&[
                    ccr.to_string(),
                    size.to_string(),
                    name.to_string(),
                    r.schedule_length.to_string(),
                    (r.outcome == SearchOutcome::Optimal).to_string(),
                    r.stats.generated.to_string(),
                    r.stats.expanded.to_string(),
                    format!("{:.3}", r.elapsed.as_secs_f64() * 1e3),
                    (r.outcome == SearchOutcome::LimitReached).to_string(),
                ]);
            }

            // Sanity: whenever both exact runs finished, they agree.
            if chen.outcome == SearchOutcome::Optimal && pruned.outcome == SearchOutcome::Optimal {
                assert_eq!(chen.schedule_length, pruned.schedule_length, "exact algorithms disagree");
            }
            if full.outcome == SearchOutcome::Optimal && pruned.outcome == SearchOutcome::Optimal {
                assert_eq!(full.schedule_length, pruned.schedule_length, "pruning changed the optimum");
            }
        }
    }

    match csv.write("table1.csv") {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write results CSV: {e}"),
    }
}
