//! Regenerates **Figure 6** of the paper: speedup of the parallel A*
//! scheduler over the serial A* scheduler for 2, 4, 8 and 16 PPEs, one plot
//! per CCR ∈ {0.1, 1.0, 10.0}.
//!
//! The paper's PPEs are Intel Paragon nodes; here they are threads of the PPE
//! simulator (see DESIGN.md), so the *wall-clock* speedup depends entirely on
//! how many hardware cores the host offers (on a single-core machine it
//! cannot exceed 1).  The primary reported metric is therefore the
//! **work-based simulated speedup**: the number of states the serial search
//! expands divided by the largest number of states any single PPE expands —
//! i.e. the speedup the run would achieve if every PPE had its own core, the
//! quantity the Paragon measurements reflect.  Wall-clock times and the
//! redundant-work ratio (total parallel expansions / serial expansions) are
//! reported alongside.  The expected shape is sub-linear speedup that
//! degrades slightly for the largest graphs and becomes more irregular at
//! high CCR.
//!
//! Both duplicate-detection modes of the parallel scheduler are swept (the
//! paper's per-PPE private CLOSED lists and the sharded global table), and
//! every datapoint is tagged with its mode in the CSV and in the JSON series
//! written to `results/figure6.json`.
//!
//! Usage: `cargo run --release -p optsched-bench --bin figure6 -- [--sizes ...] [--budget-ms N] [--tpes P] [--seed S]`

use optsched_bench::{workload_problem, write_json_rows, CsvWriter, ExperimentOptions, CCRS};
use optsched_core::{AStarScheduler, SearchConfig, SearchLimits, SearchOutcome};
use optsched_parallel::{DuplicateDetection, ParallelAStarScheduler, ParallelConfig};

const PPE_COUNTS: [usize; 4] = [2, 4, 8, 16];
const DUP_MODES: [DuplicateDetection; 2] =
    [DuplicateDetection::Local, DuplicateDetection::ShardedGlobal];

fn main() {
    let opts = ExperimentOptions::parse(std::env::args().skip(1));
    let limits = SearchLimits { max_millis: opts.budget_ms, ..Default::default() };
    let mut csv = CsvWriter::new(
        "ccr,size,ppes,dup_mode,serial_ms,parallel_ms,wallclock_speedup,simulated_speedup,serial_expanded,parallel_expanded,max_ppe_expanded,redundant_work,schedule_length",
    );
    let mut json_rows: Vec<String> = Vec::new();

    println!("Figure 6 reproduction — parallel A* speedup over serial A*");
    println!(
        "TPEs = {}, PPE counts = {:?}, dup modes = [local, sharded], host threads = {}, seed = {}",
        opts.num_tpes,
        PPE_COUNTS,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        opts.seed
    );

    for &ccr in &CCRS {
        println!("\nCCR = {ccr}  (S(q) = work-based simulated speedup with q PPEs)");
        println!(
            "{:>5} {:>12} | {}",
            "size",
            "serial ms",
            DUP_MODES
                .map(|m| {
                    format!("{m}: {}", PPE_COUNTS.map(|q| format!("{:>8}", format!("S({q})"))).join(" "))
                })
                .join(" | ")
        );
        for &size in &opts.sizes {
            // The serial baseline does not depend on the duplicate-detection
            // mode: run it once per instance so both mode sweeps are
            // measured against the same denominator.
            let problem = workload_problem(size, ccr, &opts);
            let serial =
                AStarScheduler::new(&problem).with_config(SearchConfig::limited(limits)).run();
            if serial.outcome != SearchOutcome::Optimal {
                println!(
                    "{size:>5} {:>12} | (serial search exceeded the budget, skipped)",
                    ">budget"
                );
                continue;
            }
            let serial_ms = serial.elapsed.as_secs_f64() * 1e3;

            let mut mode_cells = Vec::new();
            for mode in DUP_MODES {
                let mut cells = Vec::new();
                for &q in &PPE_COUNTS {
                    let cfg = ParallelConfig { limits, ..ParallelConfig::paragon_like(q) }
                        .with_duplicate_detection(mode);
                    let par = ParallelAStarScheduler::new(&problem, cfg).run();
                    let par_ms = par.elapsed.as_secs_f64() * 1e3;
                    let wallclock = serial_ms / par_ms.max(1e-6);
                    let max_ppe_expanded =
                        par.per_ppe_stats.iter().map(|s| s.expanded).max().unwrap_or(0);
                    let simulated =
                        serial.stats.expanded as f64 / max_ppe_expanded.max(1) as f64;
                    let redundant =
                        par.total_expanded() as f64 / serial.stats.expanded.max(1) as f64;
                    if par.outcome == SearchOutcome::Optimal {
                        assert_eq!(
                            par.schedule_length(),
                            serial.schedule_length,
                            "parallel A* must stay optimal (size {size}, ccr {ccr}, q {q}, {mode})"
                        );
                    }
                    cells.push(format!("{simulated:>8.2}"));
                    csv.row(&[
                        ccr.to_string(),
                        size.to_string(),
                        q.to_string(),
                        mode.to_string(),
                        format!("{serial_ms:.3}"),
                        format!("{par_ms:.3}"),
                        format!("{wallclock:.3}"),
                        format!("{simulated:.3}"),
                        serial.stats.expanded.to_string(),
                        par.total_expanded().to_string(),
                        max_ppe_expanded.to_string(),
                        format!("{redundant:.3}"),
                        par.schedule_length().to_string(),
                    ]);
                    json_rows.push(format!(
                        "{{\"ccr\": {ccr}, \"size\": {size}, \"ppes\": {q}, \
                         \"dup_mode\": \"{mode}\", \"serial_ms\": {serial_ms:.3}, \
                         \"parallel_ms\": {par_ms:.3}, \"wallclock_speedup\": {wallclock:.3}, \
                         \"simulated_speedup\": {simulated:.3}, \
                         \"serial_expanded\": {}, \"parallel_expanded\": {}, \
                         \"max_ppe_expanded\": {max_ppe_expanded}, \
                         \"redundant_work\": {redundant:.3}, \"schedule_length\": {}}}",
                        serial.stats.expanded,
                        par.total_expanded(),
                        par.schedule_length()
                    ));
                }
                mode_cells.push(cells.join(" "));
            }
            println!("{size:>5} {serial_ms:>12.1} | {}", mode_cells.join(" | "));
        }
    }

    match csv.write("figure6.csv") {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write results CSV: {e}"),
    }
    match write_json_rows("figure6.json", &json_rows) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
