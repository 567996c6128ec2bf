//! End-to-end and per-layer benchmark of the TSE service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <point_rw|scan|evolve_under_load> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every workload is a closed loop against a self-hosted `TseServer` on a
//! loopback port. Durable stores live in a scratch directory under the
//! current directory, removed on exit. With `--trace 0` the run prints the
//! end-to-end metrics: `setup_s`, and the `get` and scan p50s counted in
//! bare loopback round trips timed in the same run (`read_p50_rtt`,
//! `scan_p50_rtt`; see `host.rs`). With `--trace 1` it prints the
//! per-layer metrics of the layer ladder (see `ladder.rs`). The last
//! stdout line is the result object; the line before it records the seed,
//! the environment, the sample counts behind every latency, and the
//! workload's further metrics (the same p50s in µs and ms, the round trip
//! itself, throughput, tails, write and evolve latency, recovery time, peak
//! RSS), which the result object leaves out because on a small shared host
//! they vary too much from run to run to gate on. A failed correctness
//! check exits with code 1 and prints no result.
//!
//! Workloads, and why each was chosen:
//! - `point_rw`: single-object `get`/`set`/create+delete over a durable
//!   store on two connections — the wire, server dispatch, sessions,
//!   telemetry and WAL group commit do almost all the work. Its scan
//!   latency comes from a probe in slices between parts of the timed
//!   phase, through another user's view.
//! - `scan`: `select_where` at 1/10/50% selectivity and `extent` through a
//!   virtual class, over an in-memory population several times the buffer
//!   pool, beside single-row fetches and value writes — extent derivation,
//!   predicate evaluation and page access dominate.
//! - `evolve_under_load`: an admin replays a seeded evolution trace while
//!   a data connection keeps reading and writing through its pinned
//!   pre-evolution view — the control plane does the work, and the data
//!   connection's latencies test the paper's transparency claim.

mod common;
mod drive;
mod host;
mod ladder;
mod stats;
mod workloads;

use std::path::PathBuf;

use tse_telemetry::JsonValue;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// `{name: {"value": v, "unit": u}, ...}`
fn metric_map(metrics: &[workloads::Metric]) -> JsonValue {
    JsonValue::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = vec![
                    ("value", JsonValue::F64(*value)),
                    ("unit", JsonValue::from(*unit)),
                ];
                (name.to_string(), JsonValue::obj(entry))
            })
            .collect(),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let work = PathBuf::from(format!(
        ".perfbench_work/{}-{}",
        args.workload,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create work dir");

    let outcome = if args.trace {
        ladder::run(&spec, args.seed, args.seconds, &work)
    } else {
        workloads::run(&spec, args.seed, args.seconds, &work)
    };
    let fsync_us = ladder::fsync_probe_us(&work.join("env_probe"));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");

    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} check failed: {e}", spec.name);
            std::process::exit(1);
        }
    };

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut diag = vec![
        ("workload", JsonValue::from(spec.name)),
        ("seed", JsonValue::U64(args.seed)),
        ("seconds", JsonValue::F64(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        (
            "env",
            JsonValue::obj(vec![
                ("cpu_cores", JsonValue::U64(cores as u64)),
                ("fsync_probe_us", JsonValue::F64(fsync_us)),
                (
                    "build_profile",
                    JsonValue::from(if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }),
                ),
                (
                    "write_latency_note",
                    JsonValue::from(
                        "durable writes are acked after fsync on this host's filesystem, \
                         as the fsync probe shows; they are not a storage device's latency",
                    ),
                ),
            ]),
        ),
    ];
    diag.extend(outcome.diag);
    if !outcome.reported.is_empty() {
        diag.push(("further_metrics", metric_map(&outcome.reported)));
    }
    println!("{}", JsonValue::obj(diag).render());

    let result = JsonValue::obj(vec![
        ("correct", JsonValue::Bool(true)),
        ("attempted", JsonValue::U64(outcome.attempted)),
        ("failed", JsonValue::U64(outcome.failed)),
        ("metrics", metric_map(&outcome.metrics)),
    ]);
    println!("{}", result.render());
}
