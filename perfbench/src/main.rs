//! Runs one workload of the optsched benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <exact_grid|parallel_exact|service_hot|service_auto> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's metadata, realised input mix and every metric with its
//! unit and sample count, then one JSON result object as the last line.
//! Exits 1 when an output check fails.  The run record and, for traced runs,
//! the Chrome trace are written under `.bench_out/`.

use std::process::ExitCode;

use optsched_perfbench::counts::OUT_DIR;
use optsched_perfbench::exact::{self, ExactKind};
use optsched_perfbench::heap;
use optsched_perfbench::report::git_rev;
use optsched_perfbench::service::{self, ServiceKind};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let kept = heap::keep_freed_memory();
    let (mut report, tracer) = match args.workload.as_str() {
        "exact_grid" => exact::run(ExactKind::Grid, args.seed, args.seconds, args.trace),
        "parallel_exact" => exact::run(ExactKind::Parallel, args.seed, args.seconds, args.trace),
        "service_hot" => service::run(ServiceKind::Hot, args.seed, args.seconds, args.trace),
        "service_auto" => service::run(ServiceKind::Auto, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut meta = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("nproc".to_string(), nproc.to_string()),
        ("malloc_keeps_freed_memory".to_string(), kept.to_string()),
        ("git_rev".to_string(), git_rev()),
    ];
    meta.append(&mut report.meta);
    report.meta = meta;

    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if std::fs::create_dir_all(OUT_DIR).is_ok() {
        let _ = std::fs::write(format!("{stem}.json"), report.record_json(args.trace));
        if args.trace {
            let _ = std::fs::write(format!("{stem}.trace.json"), tracer.chrome_json());
            report
                .notes
                .push(format!("chrome trace: {stem}.trace.json"));
        }
    }
    print!("{}", report.text(args.trace));
    println!("{}", report.result_json(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
