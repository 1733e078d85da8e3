//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mrt_pipeline|archive_query|paper_all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the library from outside, at full scale,
//! through its public API. `--trace 0` times the workload untraced and
//! reports the end-to-end metrics. `--trace 1` is the separate traced
//! run: whatever the workload, it calls every layer once under a span
//! profile and reports the per-layer metrics, so each per-layer metric
//! is measured in every traced run. The last line of
//! stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; every line before it starts with `#`. See `README.md`
//! for the workloads, the metric definitions and the predictions.

mod archive_query;
mod common;
mod mrt_pipeline;
mod paper_all;
mod serve_mix;

use common::{Args, Bench, PathProfile};
use std::sync::Arc;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // Batch stages run on one worker, the setting ROADMAP targets are
    // stated in. Set before any thread exists; `bgpsim::par` reads it
    // on every fan-out.
    std::env::set_var("DRYWELLS_THREADS", "1");
    common::stamp(&args);
    let mut bench = Bench::new(&args);
    let run = match args.workload.as_str() {
        "mrt_pipeline" => mrt_pipeline::run,
        "archive_query" => archive_query::run,
        "paper_all" => paper_all::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        trace_layers(&mut bench)
    } else {
        run(&mut bench)
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    bench.finish();
}

/// The traced run: every layer once, under one span profile. The MRT
/// layers' archive feeds the query layers.
fn trace_layers(b: &mut Bench) -> Result<(), String> {
    let profile = Arc::new(PathProfile::default());
    let (inputs, archive) = mrt_pipeline::trace(b, &profile)?;
    archive_query::trace(b, &profile, &inputs.world, &archive)?;
    drop((inputs, archive));
    serve_mix::trace(b, &profile)?;
    paper_all::trace(b, &profile)?;
    profile.print();
    let world = profile.leaf("scenario.world_generate");
    b.metric(
        "scenario.world_generate_ms",
        common::secs(world.total) * 1e3 / world.count.max(1) as f64,
    );
    Ok(())
}
