//! Criterion micro-version of the pruning ablation: serial A* with no
//! pruning, each technique alone, and all techniques, on one CCR = 1 graph.
//! The experiment binary `ablation_pruning` covers more sizes and CCRs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use optsched_bench::{workload_problem, ExperimentOptions};
use optsched_core::{AStarScheduler, PruningConfig, SearchConfig};

fn bench_pruning(c: &mut Criterion) {
    let opts = ExperimentOptions::default();
    let problem = workload_problem(10, 1.0, &opts);
    let none = PruningConfig::none();

    let configs = [
        ("none", none),
        ("proc_iso", PruningConfig { processor_isomorphism: true, ..none }),
        ("node_equiv", PruningConfig { node_equivalence: true, ..none }),
        ("upper_bound", PruningConfig { upper_bound_pruning: true, ..none }),
        ("priority", PruningConfig { priority_ordering: true, ..none }),
        ("all", PruningConfig::all()),
    ];

    let mut group = c.benchmark_group("pruning_ablation");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (name, pruning) in configs {
        let config = SearchConfig { pruning, ..SearchConfig::default() };
        group.bench_function(name, |b| {
            b.iter(|| {
                let scheduler = AStarScheduler::new(&problem).with_config(config.clone());
                black_box(scheduler.run().schedule_length)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pruning);
criterion_main!(benches);
