//! Ablation study of the four state-space pruning techniques of Section 3.2.
//!
//! Table 1 of the paper only contrasts "no pruning" with "all pruning"
//! (observing a roughly 20 % running-time reduction); this binary breaks the
//! effect down per technique: for every CCR it runs the serial A* with
//! (a) no pruning, (b) each single technique on its own, (c) all-but-one, and
//! (d) all techniques, reporting states generated/expanded and time.  All
//! configurations must agree on the optimal schedule length — pruning only
//! ever removes redundant work.
//!
//! Usage: `cargo run --release -p optsched-bench --bin ablation_pruning -- [--sizes ...] [--budget-ms N]`

use optsched_bench::{fmt_ms, workload_problem, CsvWriter, ExperimentOptions, CCRS};
use optsched_core::{AStarScheduler, PruningConfig, SearchConfig, SearchLimits, SearchOutcome};

fn configurations() -> Vec<(&'static str, PruningConfig)> {
    let none = PruningConfig::none();
    let all = PruningConfig::all();
    vec![
        ("none", none),
        ("only processor isomorphism", PruningConfig { processor_isomorphism: true, ..none }),
        ("only node equivalence", PruningConfig { node_equivalence: true, ..none }),
        ("only upper bound", PruningConfig { upper_bound_pruning: true, ..none }),
        ("only priority ordering", PruningConfig { priority_ordering: true, ..none }),
        ("all minus processor isomorphism", PruningConfig { processor_isomorphism: false, ..all }),
        ("all minus node equivalence", PruningConfig { node_equivalence: false, ..all }),
        ("all minus upper bound", PruningConfig { upper_bound_pruning: false, ..all }),
        ("all minus priority ordering", PruningConfig { priority_ordering: false, ..all }),
        ("all", all),
    ]
}

fn main() {
    let mut opts = ExperimentOptions::parse(std::env::args().skip(1));
    if opts.sizes == ExperimentOptions::default().sizes {
        // The full cross product is expensive; default to two representative sizes.
        opts.sizes = vec![10, 12];
    }
    let limits = SearchLimits { max_millis: opts.budget_ms, ..Default::default() };
    let mut csv = CsvWriter::new("ccr,size,configuration,schedule_length,generated,expanded,time_ms,timed_out");

    println!("Pruning-technique ablation (serial A*)");
    for &ccr in &CCRS {
        for &size in &opts.sizes {
            let problem = workload_problem(size, ccr, &opts);
            println!("\nCCR = {ccr}, v = {size}");
            println!("{:<36} {:>10} {:>12} {:>12} {:>12}", "configuration", "length", "generated", "expanded", "time ms");
            let mut optimal = None;
            for (name, cfg) in configurations() {
                let config = SearchConfig { pruning: cfg, limits, ..SearchConfig::default() };
                let r = AStarScheduler::new(&problem).with_config(config).run();
                let timed_out = r.outcome == SearchOutcome::LimitReached;
                if !timed_out {
                    match optimal {
                        None => optimal = Some(r.schedule_length),
                        Some(o) => assert_eq!(o, r.schedule_length, "pruning changed the optimum ({name})"),
                    }
                }
                println!(
                    "{:<36} {:>10} {:>12} {:>12} {:>12}",
                    name,
                    r.schedule_length,
                    r.stats.generated,
                    r.stats.expanded,
                    if timed_out { format!(">{}", opts.budget_ms.unwrap_or(0)) } else { fmt_ms(r.elapsed) }
                );
                csv.row(&[
                    ccr.to_string(),
                    size.to_string(),
                    name.replace(' ', "_"),
                    r.schedule_length.to_string(),
                    r.stats.generated.to_string(),
                    r.stats.expanded.to_string(),
                    format!("{:.3}", r.elapsed.as_secs_f64() * 1e3),
                    timed_out.to_string(),
                ]);
            }
        }
    }

    match csv.write("ablation_pruning.csv") {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write results CSV: {e}"),
    }
}
