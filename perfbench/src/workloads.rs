//! The untraced runs: each workload's timed closed loop over loopback, its
//! correctness checks, and its end-to-end metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tse_core::{SharedSystem, TseClient, TseReader};
use tse_object_model::{Oid, Value};
use tse_server::{ClientConfig, RemoteClient, TseServer};
use tse_telemetry::JsonValue;
use tse_workload::{generate_and_apply_trace, TraceMix};

use crate::common::*;
use crate::drive::*;
use crate::host::Echo;
use crate::stats::{median, sorted, tail, trimmed_mean, MIN_BEYOND};

/// Everything a workload is defined by.
#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub shape: Shape,
    /// Durable (WAL + snapshots in a directory) or in memory.
    pub durable: bool,
    /// Client threads, each with its own connection.
    pub threads: usize,
    pub mix: Mix,
    /// Ops per thread at each rung of the traced run's ladder.
    pub ladder_ops: u64,
}

pub const POINT_RW: Spec = Spec {
    name: "point_rw",
    // 2000 objects fit the default 256-page buffer pool many times over.
    shape: Shape {
        population: 2000,
        buffer_pages: 256,
        virtual_class: false,
    },
    durable: true,
    threads: 2,
    mix: POINT_MIX,
    ladder_ops: 40_000,
};

pub const SCAN: Spec = Spec {
    name: "scan",
    // 3000 objects take about four times the 4-page-per-stripe pool, so
    // every scan pages.
    shape: Shape {
        population: 3000,
        buffer_pages: 4,
        virtual_class: true,
    },
    durable: false,
    threads: 2,
    mix: SCAN_MIX,
    ladder_ops: 1500,
};

pub const EVOLVE_UNDER_LOAD: Spec = Spec {
    name: "evolve_under_load",
    shape: Shape {
        population: 1000,
        buffer_pages: 256,
        virtual_class: false,
    },
    durable: false,
    threads: 1,
    mix: POINT_MIX,
    ladder_ops: 40_000,
};

pub fn spec(name: &str) -> Option<Spec> {
    [POINT_RW, SCAN, EVOLVE_UNDER_LOAD]
        .into_iter()
        .find(|s| s.name == name)
}

/// Recoveries per run (each of its own copy of the final directory);
/// `recovery_s` is their median.
const RECOVERY_REPS: usize = 9;
/// Writes replayed after the final checkpoint, so every run leaves a
/// durable state of the same size: recovery work is fixed by op count.
const TAIL_OPS: u64 = 1000;
pub const TAIL_MIX: Mix = Mix {
    get: 0,
    set: 80,
    churn: 20,
    select: 0,
    extent: 0,
    refresh_every: 64,
};
/// The scan probe of workloads whose own mix has no scans runs in many
/// short slices spread over the whole run, each on a connection of its
/// own. A small shared host runs at one of two speeds about 1.5x apart,
/// for stretches from under a second to tens of seconds; many slices
/// spread over the run sample both as the load does.
const PROBE_SLICE: Duration = Duration::from_millis(125);
/// Parts a steady workload's run is cut into (see `steady`).
const STEADY_SLICES: u64 = 80;
const SCAN_PROBE_MIX: Mix = Mix {
    get: 0,
    set: 0,
    churn: 0,
    select: 75,
    extent: 25,
    refresh_every: 16,
};

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// A finished run: the metrics `BENCHMARK.json` lists (every workload
/// reports all of them), the further metrics this workload's mix
/// produces, op counts and diagnostics.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub reported: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub diag: Vec<(&'static str, JsonValue)>,
}

/// A live workload system: the fixture, its server and one client rung
/// per thread.
pub struct Live {
    pub fixture: Fixture,
    pub server: TseServer,
    pub rungs: Vec<ClientRung<RemoteClient>>,
}

impl Live {
    /// Close the clients, then drain the server: every connection thread
    /// has ended when this returns.
    pub fn close(mut self) -> Fixture {
        drop(self.rungs);
        self.server.drain();
        self.fixture
    }
}

/// Drop a system and remove its directory.
fn discard(fixture: Fixture) {
    drop(fixture.sys);
    if let Some(dir) = fixture.dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// What every set-up of one run starts from. A durable workload's
/// population is made once, untimed, and checkpointed; each set-up opens a
/// copy of that directory. Populating object by object would time the
/// disk's fsync of every create rather than the program: on a shared host
/// that doubled between minutes.
pub struct Base {
    spec: Spec,
    seed: u64,
    /// The checkpointed directory of a durable workload, with its oids and
    /// their ages.
    durable: Option<(PathBuf, Vec<Oid>, Vec<i64>)>,
}

impl Base {
    pub fn new(spec: &Spec, work: &Path, seed: u64) -> Base {
        let durable = spec.durable.then(|| {
            let dir = work.join("base");
            let f = build_system(Some(&dir), spec.shape, &mut Rng::new(seed, 1), spec.threads);
            f.sys.checkpoint().expect("checkpoint the base");
            drop(f.sys);
            (dir, f.keys, f.ages)
        });
        Base {
            spec: *spec,
            seed,
            durable,
        }
    }

    /// Build the workload's system: store, schema and population (for a
    /// durable workload, by opening a copy of the base in `dir`), server
    /// and connected clients. This is what `setup_s` times.
    pub fn set_up(&self, dir: &Path) -> Live {
        let spec = &self.spec;
        let fixture = match &self.durable {
            Some((base, keys, ages)) => {
                copy_dir(base, dir);
                Fixture {
                    sys: open_durable(dir, spec.shape).expect("open a copy of the base"),
                    dir: Some(dir.to_path_buf()),
                    keys: keys.clone(),
                    ages: ages.clone(),
                }
            }
            None => build_system(None, spec.shape, &mut Rng::new(self.seed, 1), spec.threads),
        };
        let server = serve(&fixture.sys);
        let rungs = (0..spec.threads)
            .map(|i| {
                ClientRung::open(connect(
                    &server,
                    &format!("c{i}"),
                    FAMILY,
                    ClientConfig::default(),
                ))
            })
            .collect();
        Live {
            fixture,
            server,
            rungs,
        }
    }
}

/// Set the workload up in `dir`, timed. `setup_s` is the median of the
/// set-ups a run makes, spread over the whole run rather than bunched at
/// its start, so the median follows the host over the run, as the other
/// metrics do, and not the host of its first second.
fn set_up_timed(base: &Base, dir: &Path) -> (Live, f64) {
    let t = Instant::now();
    let live = base.set_up(dir);
    (live, t.elapsed().as_secs_f64())
}

fn floats(v: &[f64]) -> JsonValue {
    JsonValue::Arr(
        v.iter()
            .map(|x| JsonValue::F64((x * 1000.0).round() / 1000.0))
            .collect(),
    )
}

/// A latency metric pair and the evidence behind it.
struct Latency {
    p50: f64,
    tail: f64,
    diag: JsonValue,
}

/// Trimmed mean over time windows of the p50 and of the tail at `pct`. Each
/// tail window holds enough samples (on average) for `pct` to have at
/// least ten beyond it; the diagnostics give the sample count, the
/// per-window values and the percentile the pooled samples support.
fn latency(series: &Series, span: f64, pct: f64) -> Latency {
    let per_tail_window = ((MIN_BEYOND as f64) * 100.0 / (100.0 - pct)).ceil() as usize;
    let (p50, p50_windows) = series.windowed(span, 100, median);
    let (tail_v, tail_windows) = series.windowed(span, per_tail_window, |w| tail(w, pct).value);
    let pooled = tail(&sorted(series.v.clone()), pct);
    Latency {
        p50,
        tail: tail_v,
        diag: JsonValue::obj(vec![
            ("samples", JsonValue::U64(series.v.len() as u64)),
            ("p50_windows", floats(&p50_windows)),
            ("tail_windows", floats(&tail_windows)),
            ("pooled_tail_pct", JsonValue::F64(pooled.pct)),
            ("pooled_beyond_tail", JsonValue::U64(pooled.beyond as u64)),
        ]),
    }
}

/// Normalise the durable state (checkpoint, then a fixed write tail),
/// close everything, and recover `RECOVERY_REPS` copies of the directory,
/// each timed from open to the first successful read. Returns the first
/// recovered system and the recovery times.
fn finish_and_recover(
    spec: &Spec,
    mut live: Live,
    parts: &mut [Partition],
    seed: u64,
    work: &Path,
) -> Result<(SharedSystem, Vec<f64>), String> {
    live.fixture
        .sys
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let mut rng = Rng::new(seed, 3);
    let tail = drive(
        &mut live.rungs[0],
        &mut parts[0],
        TAIL_MIX,
        &mut rng,
        Stop::Ops(TAIL_OPS),
    );
    if tail.failed > 0 {
        return Err(format!("write tail failed: {:?}", tail.errors));
    }
    let fixture = live.close();
    let dir = fixture.dir.clone().expect("durable workload");
    drop(fixture.sys);

    let probe = parts[0]
        .oracle
        .live
        .keys()
        .next()
        .copied()
        .ok_or("no live key")?;
    let mut times = Vec::new();
    let mut first = None;
    for r in 0..RECOVERY_REPS {
        let copy = work.join(format!("rec{r}"));
        copy_dir(&dir, &copy);
        let t = Instant::now();
        let sys = open_durable(&copy, spec.shape).map_err(|e| format!("recovery open: {e}"))?;
        let session = sys.session();
        let view = session
            .current_view(SCAN_FAMILY)
            .map_err(|e| e.to_string())?
            .id;
        session
            .get(view, probe, CLASS, "age")
            .map_err(|e| format!("first read: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        drop(session);
        if first.is_none() {
            first = Some(sys);
        } else {
            drop(sys);
            let _ = std::fs::remove_dir_all(&copy);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok((first.expect("one recovery"), times))
}

/// Acked ⇒ durable: a fresh session on the recovered system reads back
/// the last acked `age` of every live object, and no deleted object.
fn check_durable(sys: &SharedSystem, parts: &[Partition]) -> Result<(), String> {
    let session = sys.session();
    let view = session
        .current_view(SCAN_FAMILY)
        .map_err(|e| e.to_string())?
        .id;
    for part in parts {
        for (&oid, &age) in &part.oracle.live {
            match session.get(view, oid, CLASS, "age") {
                Ok(Value::Int(v)) if v == age => {}
                other => {
                    return Err(format!(
                        "acked write lost: {oid:?} expected age {age}, read {other:?}"
                    ))
                }
            }
        }
        for &oid in &part.oracle.deleted {
            if session.get(view, oid, CLASS, "age").is_ok() {
                return Err(format!(
                    "acked delete lost: {oid:?} is readable after recovery"
                ));
            }
        }
    }
    Ok(())
}

/// `select_where` agrees with a client-side filter of `extent` + `get`,
/// all through one reader pinned at one version.
fn check_scans(server: &TseServer) -> Result<(), String> {
    let client = connect(server, "checker", FAMILY, ClientConfig::default());
    let reader = client.session().map_err(|e| e.to_string())?;
    let members = reader.extent(CLASS).map_err(|e| e.to_string())?;
    let mut ages = Vec::with_capacity(members.len());
    for &oid in &members {
        match reader.get(oid, CLASS, "age").map_err(|e| e.to_string())? {
            Value::Int(a) => ages.push((oid, a)),
            other => return Err(format!("{oid:?}: age is {other:?}")),
        }
    }
    for (expr, bound) in SELECTIVITIES.iter().zip([1, 10, 50]) {
        let mut got = reader
            .select_where(CLASS, expr)
            .map_err(|e| e.to_string())?;
        got.sort();
        let mut want: Vec<Oid> = ages
            .iter()
            .filter(|(_, a)| *a < bound)
            .map(|(o, _)| *o)
            .collect();
        want.sort();
        if got != want {
            return Err(format!(
                "select_where({expr}) returned {} objects, the client-side filter {}",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// Scans through `SCAN_FAMILY` on a connection of their own, for one
/// slice of the probe.
fn scan_probe(server: &TseServer, keys: &[Oid], seed: u64, slice: u64) -> Samples {
    let mut rung = ClientRung::open(connect(
        server,
        "scanner",
        SCAN_FAMILY,
        ClientConfig::default(),
    ));
    let mut part = Partition {
        keys: keys.to_vec(),
        oracle: Oracle::default(),
        next_id: 0,
    };
    let mut rng = Rng::new(seed, 200 + slice);
    drive(
        &mut rung,
        &mut part,
        SCAN_PROBE_MIX,
        &mut rng,
        Stop::At(Instant::now() + PROBE_SLICE),
    )
}

/// Replay `trace` through an admin connection; evolve latencies in ms.
fn replay_trace(admin: &RemoteClient, trace: &[String]) -> Result<Vec<f64>, String> {
    trace
        .iter()
        .map(|cmd| {
            let t = Instant::now();
            admin
                .evolve(cmd)
                .map_err(|e| format!("evolve {cmd:?}: {e}"))?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// The attribute side of Sjøberg's observation that attribute growth
/// dominates schema change (`TraceMix::default()` weights). Class and edge
/// changes are left out: their cost depends on which classes the seed
/// happens to pick, by up to 10x between seeds, so a run's evolve
/// latencies would measure the seed rather than the program.
const TRACE_MIX: TraceMix = TraceMix {
    add_attribute: 10,
    delete_attribute: 3,
    add_method: 2,
    add_class: 0,
    delete_class: 0,
    add_edge: 0,
    delete_edge: 0,
};

/// The seeded evolution trace for `spec`, rendered as commands and
/// validated by applying it, in order, on a scratch system.
pub fn trace_for(spec: &Spec, seed: u64) -> Vec<String> {
    // The workload's schema without its population.
    let empty = Shape {
        population: 0,
        ..spec.shape
    };
    let (mut scratch, _, _) = build_plain(empty, &mut Rng::new(seed, 1));
    generate_and_apply_trace(&mut scratch, FAMILY, TRACE_LEN, &TRACE_MIX, seed)
        .expect("the trace applies on the scratch system")
        .changes
        .iter()
        .map(|c| c.render().expect("trace change renders"))
        .collect()
}

/// What a workload's timed phase leaves behind.
struct Timed {
    live: Live,
    parts: Vec<Partition>,
    load: Samples,
    /// Evolve latencies (ms), one entry per replay of the trace.
    rounds: Vec<Vec<f64>>,
    setups: Vec<f64>,
    /// The scan probe of a mix without scans.
    probe: Option<Samples>,
    /// Loopback round trips (µs, see `host`), one sample per part or
    /// round of the run.
    rtt: Vec<f64>,
}

/// Rounds of: a fresh system, then the whole trace replayed by an admin
/// while one data connection runs the point mix through its pre-evolution
/// view; rounds repeat until `secs` of rounds have passed. Every round's
/// set-up is timed, and every round starts with a sample of the loopback
/// round trip and a slice of the scan probe. Checks each round: the family
/// ends at `1 + TRACE_LEN` versions and the data connection saw no error.
fn evolve_rounds(spec: &Spec, seed: u64, secs: f64, work: &Path) -> Result<Timed, String> {
    let trace = trace_for(spec, seed);
    let base = Base::new(spec, work, seed);
    let (mut load, mut rounds) = (Samples::default(), Vec::new());
    let (mut probe, mut setups) = (Samples::default(), Vec::new());
    let (mut echo, mut rtt) = (Echo::start(), Vec::new());
    let mut last: Option<(Live, Vec<Partition>)> = None;
    let mut end = Instant::now() + Duration::from_secs_f64(secs);
    let mut round = 0u64;
    while last.is_none() || Instant::now() < end {
        if let Some((old, _)) = last.take() {
            discard(old.close());
        }
        let (mut l, setup) = set_up_timed(&base, &work.join("round"));
        setups.push(setup);
        rtt.push(echo.rtt_us());
        let admin = connect(&l.server, "admin", FAMILY, ClientConfig::default());
        let p = scan_probe(&l.server, &l.fixture.keys, seed, round);
        end += Duration::from_secs_f64(p.elapsed_s);
        probe.merge_sequential(p);
        let mut p = Partition::split(&l.fixture.keys, &l.fixture.ages, spec.threads);
        let done = AtomicBool::new(false);
        let (data, evolved) = std::thread::scope(|s| {
            let rung = &mut l.rungs[0];
            let part = &mut p[0];
            let done = &done;
            let data = s.spawn(move || {
                let mut rng = Rng::new(seed, 100 + round);
                drive(rung, part, spec.mix, &mut rng, Stop::Flag(done))
            });
            let evolved = replay_trace(&admin, &trace);
            done.store(true, Ordering::Release);
            (data.join().expect("data thread"), evolved)
        });
        rounds.push(evolved?);
        if data.failed > 0 || !data.errors.is_empty() {
            return Err(format!(
                "pinned data connection saw errors: {:?}",
                data.errors
            ));
        }
        let versions = admin.versions().map_err(|e| e.to_string())?;
        if versions as usize != 1 + TRACE_LEN {
            return Err(format!(
                "family ended at {versions} versions, not {}",
                1 + TRACE_LEN
            ));
        }
        drop(admin);
        load.merge_sequential(data);
        last = Some((l, p));
        round += 1;
    }
    let (live, parts) = last.expect("one round");
    Ok(Timed {
        live,
        parts,
        load,
        rounds,
        setups,
        probe: Some(probe),
        rtt,
    })
}

/// Set up (timed), then drive the mix from every client thread for
/// `secs`, in `STEADY_SLICES` parts. Each part starts with a sample of
/// the loopback round trip and is followed by a timed set-up of a
/// throwaway system and, for a mix without scans, a slice of the scan
/// probe (10 s of probing in all). The probe scans a second, idle copy of
/// the system: the load's create+delete churn leaves dead entries behind,
/// and scans over them would measure how much churn the run got through.
fn steady(spec: &Spec, seed: u64, secs: f64, work: &Path) -> Timed {
    let base = Base::new(spec, work, seed);
    let (mut live, setup) = set_up_timed(&base, &work.join("sys"));
    let mut setups = vec![setup];
    let mut probe = (spec.mix.select + spec.mix.extent == 0).then(Samples::default);
    let idle = probe.is_some().then(|| base.set_up(&work.join("idle")));
    let mut parts = Partition::split(&live.fixture.keys, &live.fixture.ages, spec.threads);
    let mut load = Samples::default();
    let (mut echo, mut rtt) = (Echo::start(), Vec::new());
    for k in 0..STEADY_SLICES {
        rtt.push(echo.rtt_us());
        load.merge_sequential(drive_all(
            &mut live.rungs,
            &mut parts,
            spec.mix,
            seed,
            20 + k,
            deadline(secs / STEADY_SLICES as f64),
        ));
        let (spare, setup) = set_up_timed(&base, &work.join("spare"));
        setups.push(setup);
        discard(spare.close());
        if let (Some(p), Some(idle)) = (&mut probe, &idle) {
            p.merge_sequential(scan_probe(&idle.server, &idle.fixture.keys, seed, k));
        }
    }
    if let Some(idle) = idle {
        discard(idle.close());
    }
    Timed {
        live,
        parts,
        load,
        rounds: Vec::new(),
        setups,
        probe,
        rtt,
    }
}

/// Run one workload for `secs` seconds of timed load.
pub fn run(spec: &Spec, seed: u64, secs: f64, work: &Path) -> Result<Outcome, String> {
    let Timed {
        live,
        mut parts,
        load,
        rounds,
        setups,
        probe,
        rtt,
    } = if spec.name == EVOLVE_UNDER_LOAD.name {
        evolve_rounds(spec, seed, secs, work)?
    } else {
        steady(spec, seed, secs, work)
    };
    if load.failed > 0 {
        return Err(format!("{} ops failed: {:?}", load.failed, load.errors));
    }
    if load.read.v.is_empty() || load.write.v.is_empty() {
        return Err("the mix produced no reads or no writes".into());
    }
    let population_pages = live.fixture.sys.session().store_bytes().div_ceil(PAGE_SIZE);
    let pool_pages = spec.shape.buffer_pages * live.fixture.sys.store_stripes();
    if spec.name == SCAN.name {
        check_scans(&live.server)?;
    }

    // Every workload reports scan latency; those whose mix has no scans
    // measure it with the probe, through another user's view.
    let (scan, scan_span) = match probe {
        Some(p) if p.failed > 0 => return Err(format!("scan probe failed: {:?}", p.errors)),
        Some(p) => (p.scan, p.elapsed_s),
        None => (load.scan.clone(), load.elapsed_s),
    };

    let recovery = if spec.durable {
        let (sys, times) = finish_and_recover(spec, live, &mut parts, seed, work)?;
        check_durable(&sys, &parts)?;
        Some(times)
    } else {
        discard(live.close());
        None
    };

    let span = load.elapsed_s;
    let read = latency(&load.read, span, 99.0);
    let write = latency(&load.write, span, 99.0);
    let scan = latency(&scan, scan_span, 99.0);
    // The gated latencies are counted in loopback round trips (see `host`).
    let rtt_us = trimmed_mean(&sorted(rtt.clone()));
    let metrics = vec![
        ("setup_s", median(&sorted(setups.clone())), "s"),
        ("read_p50_rtt", read.p50 / rtt_us, "rtt"),
        ("scan_p50_rtt", scan.p50 * 1e3 / rtt_us, "rtt"),
    ];
    let mut reported = vec![
        ("read_p50_us", read.p50, "us"),
        ("scan_p50_ms", scan.p50, "ms"),
        ("loopback_rtt_us", rtt_us, "us"),
        ("throughput_ops_s", load.throughput(), "1/s"),
        ("read_p99_us", read.tail, "us"),
        ("write_p50_us", write.p50, "us"),
        ("write_p99_us", write.tail, "us"),
        ("scan_p99_ms", scan.tail, "ms"),
    ];
    let mut samples = vec![
        ("read", read.diag),
        ("write", write.diag),
        ("scan", scan.diag),
    ];
    if !rounds.is_empty() {
        // One window per replay of the trace.
        let mut evolve = Series::default();
        for (round, ms) in rounds.iter().enumerate() {
            evolve.v.extend(ms);
            evolve
                .at
                .extend(std::iter::repeat_n(round as f64, ms.len()));
        }
        let evolve = latency(&evolve, rounds.len() as f64, 90.0);
        reported.push(("evolve_p50_ms", evolve.p50, "ms"));
        reported.push(("evolve_p90_ms", evolve.tail, "ms"));
        samples.push(("evolve", evolve.diag));
    }
    if let Some(times) = &recovery {
        reported.push(("recovery_s", median(&sorted(times.clone())), "s"));
    }
    reported.push(("peak_rss_mb", peak_rss_mb(), "MiB"));
    let diag = vec![
        ("latency_samples", JsonValue::obj(samples)),
        (
            "failed_ratio",
            JsonValue::F64(load.failed as f64 / load.attempted.max(1) as f64),
        ),
        (
            "population_objects",
            JsonValue::U64(spec.shape.population as u64),
        ),
        ("population_pages", JsonValue::U64(population_pages as u64)),
        ("buffer_pool_pages", JsonValue::U64(pool_pages as u64)),
        ("client_threads", JsonValue::U64(spec.threads as u64)),
        ("durable", JsonValue::Bool(spec.durable)),
        (
            "setup_ms_each",
            floats(&setups.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
        ),
        ("trace_rounds", JsonValue::U64(rounds.len() as u64)),
        ("loopback_rtt_us_each", floats(&rtt)),
    ];
    Ok(Outcome {
        metrics,
        reported,
        attempted: load.attempted,
        failed: load.failed,
        diag,
    })
}
