//! Criterion micro-version of Table 1: time per complete scheduling run for
//! the Chen & Yu branch-and-bound, A* without pruning and A* with pruning on
//! one small random graph per CCR.  The experiment binary `table1` sweeps the
//! larger sizes; this bench exists so `cargo bench` tracks regressions of the
//! three code paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use optsched_bench::{workload_problem, ExperimentOptions, CCRS};
use optsched_core::{AStarScheduler, ChenYuScheduler, PruningConfig, SearchConfig};

fn bench_table1(c: &mut Criterion) {
    let opts = ExperimentOptions::default();
    let size = 9;
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    for &ccr in &CCRS {
        let problem = workload_problem(size, ccr, &opts);
        group.bench_with_input(BenchmarkId::new("chen_yu", ccr), &problem, |b, p| {
            b.iter(|| black_box(ChenYuScheduler::new(p).run().schedule_length))
        });
        group.bench_with_input(BenchmarkId::new("astar_full", ccr), &problem, |b, p| {
            b.iter(|| {
                let full = SearchConfig { pruning: PruningConfig::none(), ..Default::default() };
                black_box(AStarScheduler::new(p).with_config(full).run().schedule_length)
            })
        });
        group.bench_with_input(BenchmarkId::new("astar_pruned", ccr), &problem, |b, p| {
            b.iter(|| black_box(AStarScheduler::new(p).run().schedule_length))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
