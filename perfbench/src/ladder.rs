//! The traced run: per-layer metrics, measured from outside the program.
//!
//! The same seeded op sequence is replayed at each rung of a layer ladder
//! — plain `TseSystem`, `SharedSystem` sessions, `LocalClient`,
//! `RemoteClient` over loopback — and a layer's cost is the difference
//! between the medians of adjacent rungs. The rest comes from values the
//! program already exposes: `Telemetry::snapshot()`, `StoreStats` and
//! `EvolutionReport::timings`, plus direct timing of public functions
//! (wire codec, name resolution, WAL append, telemetry calls).

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use tse_core::{LocalClient, SharedSystem, TseClient};
use tse_object_model::Value;
use tse_server::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use tse_server::ClientConfig;
use tse_storage::durable::Wal;
use tse_storage::FailpointRegistry;
use tse_telemetry::{MetricsSnapshot, Telemetry};

use crate::common::*;
use crate::drive::*;
use crate::stats::{hist_delta, median, sorted, HistDelta};
use crate::workloads::{trace_for, Base, Outcome, Spec, TAIL_MIX};

/// Interleaved rounds of the ladder.
const LADDER_ROUNDS: u64 = 20;
/// Writes per client thread in the write-ahead-log burst.
const WAL_BURST_OPS: u64 = 1000;

/// Medians of one rung's replay.
struct RungCost {
    get_us: f64,
    set_us: f64,
    ops_per_s: f64,
}

fn cost(s: &Samples) -> RungCost {
    RungCost {
        get_us: median(&sorted(s.read.v.clone())),
        set_us: median(&sorted(s.set.v.clone())),
        ops_per_s: s.attempted as f64 / s.elapsed_s,
    }
}

fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> HistDelta {
    match after.histograms.get(name) {
        Some(h) => hist_delta(before.histograms.get(name), h),
        None => HistDelta {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
        },
    }
}

/// Nanoseconds per call of `f`, over `n` calls.
fn ns_per_call(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Per-call cost of a telemetry operation on a private registry, with one
/// thread and with two threads calling at once.
fn telemetry_cost(op: fn(&Telemetry, u64)) -> (f64, f64) {
    const N: u64 = 200_000;
    let t = Telemetry::new();
    let one = ns_per_call(N, |i| op(&t, i));
    let t2 = Telemetry::new();
    let two = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2)
            .map(|_| s.spawn(|| ns_per_call(N, |i| op(&t2, i))))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("telemetry thread"))
            .sum::<f64>()
            / 2.0
    });
    (one, two)
}

/// Median latency of a raw WAL append + fsync in `dir`, µs: the device
/// probe every durable write latency sits on.
pub fn fsync_probe_us(dir: &Path) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create probe dir");
    let (mut wal, _) = Wal::open(dir, FailpointRegistry::new()).expect("open probe wal");
    let payload = [0x5au8; 64];
    let mut v: Vec<f64> = (0..64)
        .map(|_| {
            let t = Instant::now();
            wal.append(&payload).expect("probe append");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    median(&v)
}

/// Encode+decode cost and frame size of the request/response pairs the
/// workload's mix sends, with realistic payloads taken from `results`.
fn codec_cost(
    spec: &Spec,
    seed: u64,
    keys: &[tse_object_model::Oid],
    scans: &[Vec<tse_object_model::Oid>],
) -> (f64, f64) {
    let mut rng = Rng::new(seed, 2 * 64);
    let class = CLASS.to_string();
    let mut pairs = Vec::new();
    for i in 0..2000u64 {
        let oid = |k: usize| keys[k % keys.len()];
        let age = |v: i64| vec![("age".to_string(), Value::Int(v))];
        match spec.mix.draw(&mut rng, keys.len()) {
            Op::Get(k) => pairs.push((
                Request::Get {
                    sid: 1,
                    oid: oid(k),
                    class: class.clone(),
                    attr: "age".into(),
                },
                Response::Val(Value::Int(42)),
            )),
            Op::Set(k, v) => pairs.push((
                Request::SetAttrs {
                    wid: 1,
                    idem: i,
                    oid: oid(k),
                    class: class.clone(),
                    assignments: age(v),
                },
                Response::Unit,
            )),
            Op::Churn(v) => {
                let values = person_values(i, v)
                    .into_iter()
                    .map(|(n, v)| (n.to_string(), v))
                    .collect();
                let created = tse_object_model::Oid(1_000_000 + i);
                pairs.push((
                    Request::Create {
                        wid: 1,
                        idem: i,
                        class: class.clone(),
                        values,
                    },
                    Response::OidIs(created),
                ));
                pairs.push((
                    Request::Delete {
                        wid: 1,
                        idem: i,
                        oids: vec![created],
                    },
                    Response::Unit,
                ));
            }
            Op::Select(s) => pairs.push((
                Request::SelectWhere {
                    sid: 1,
                    class: class.clone(),
                    expr: SELECTIVITIES[s].into(),
                },
                Response::Oids(scans[s].clone()),
            )),
            Op::Extent => pairs.push((
                Request::Extent {
                    sid: 1,
                    class: class.clone(),
                },
                Response::Oids(keys.to_vec()),
            )),
        }
    }
    let mut bytes = 0usize;
    let t = Instant::now();
    for (req, resp) in &pairs {
        let a = encode_request(req);
        let b = encode_response(resp);
        bytes += a.len() + b.len();
        std::hint::black_box(decode_request(&a).expect("decode request"));
        std::hint::black_box(decode_response(&b).expect("decode response"));
    }
    let ns = t.elapsed().as_nanos() as f64 / pairs.len() as f64;
    (ns, bytes as f64 / pairs.len() as f64)
}

/// One rung's timed burst in a round of the ladder, after an untimed
/// warm-up a tenth its length, so the burst starts on warm connections
/// and caches.
fn burst<R: Rung + Send>(
    rungs: &mut [R],
    parts: &mut [Partition],
    spec: &Spec,
    seed: u64,
    stream: u64,
) -> Result<Samples, String> {
    let ops = spec.ladder_ops / LADDER_ROUNDS;
    let warm = drive_all(
        rungs,
        parts,
        spec.mix,
        seed,
        1000 + stream,
        Stop::Ops(ops / 10),
    );
    if warm.failed > 0 {
        return Err(format!("ladder warm-up failed ops: {:?}", warm.errors));
    }
    Ok(drive_all(
        rungs,
        parts,
        spec.mix,
        seed,
        stream,
        Stop::Ops(ops),
    ))
}

/// Run the traced measurement of one workload.
pub fn run(spec: &Spec, seed: u64, secs: f64, work: &Path) -> Result<Outcome, String> {
    let fsync_us = fsync_probe_us(&work.join("fsync_probe"));
    let mut live = Base::new(spec, work, seed).set_up(&work.join("traced"));
    let sys: SharedSystem = live.fixture.sys.clone();
    let mut parts = Partition::split(&live.fixture.keys, &live.fixture.ages, spec.threads);

    // The ladder. Each round runs a slice of the untraced pass — the
    // workload's data mix on its own clients, untraced, `secs` in all —
    // then the rungs D (remote), T, A (plain), B (session) and C (local),
    // so the host's shifts in speed land on the pass and every rung alike
    // instead of on whichever ran last. Within a round every rung replays
    // the same seeded op sequence. D has the untraced run's client
    // configuration: the layer costs A, B−A, C−B, D−C sum to D's get, which
    // `bench.ladder_get_explained_pct` holds against the untraced pass. T
    // is D with the client's counters attached, the traced run's overhead.
    let (tse, plain_keys, plain_ages) = build_plain(spec.shape, &mut Rng::new(seed, 1));
    let view = tse.current_view(FAMILY).map_err(|e| e.to_string())?.id;
    let mut plain_parts = Partition::split(&plain_keys, &plain_ages, spec.threads);
    let mut plain: Vec<PlainRung> = (0..spec.threads)
        .map(|_| PlainRung { tse: &tse, view })
        .collect();
    let traced = ClientConfig {
        telemetry: Some(sys.telemetry()),
        ..ClientConfig::default()
    };
    let remote_rung = |user: &str, config: &ClientConfig| -> Vec<_> {
        (0..spec.threads)
            .map(|i| {
                ClientRung::open(connect(
                    &live.server,
                    &format!("{user}{i}"),
                    FAMILY,
                    config.clone(),
                ))
            })
            .collect()
    };
    let mut remotes = remote_rung("r", &ClientConfig::default());
    let mut traced_remotes = remote_rung("t", &traced);
    let tel = sys.telemetry();
    let snap0 = tel.snapshot();
    let stats0 = sys.session().stats();
    let [mut untraced, mut a, mut b, mut c, mut d, mut t] =
        std::array::from_fn(|_| Samples::default());
    for round in 0..LADDER_ROUNDS {
        untraced.merge_sequential(drive_all(
            &mut live.rungs,
            &mut parts,
            spec.mix,
            seed,
            40 + round,
            deadline(secs / LADDER_ROUNDS as f64),
        ));
        let stream = 10 + round;
        d.merge_sequential(burst(&mut remotes, &mut parts, spec, seed, stream)?);
        t.merge_sequential(burst(&mut traced_remotes, &mut parts, spec, seed, stream)?);
        a.merge_sequential(burst(&mut plain, &mut plain_parts, spec, seed, stream)?);
        let mut sessions: Vec<SessionRung> = (0..spec.threads)
            .map(|_| SessionRung::open(&sys, FAMILY))
            .collect();
        b.merge_sequential(burst(&mut sessions, &mut parts, spec, seed, stream)?);
        drop(sessions);
        let mut locals: Vec<ClientRung<LocalClient>> = (0..spec.threads)
            .map(|i| {
                let mut c = sys.client(&format!("l{i}"));
                c.bind(FAMILY).expect("bind local client");
                ClientRung::open(c)
            })
            .collect();
        c.merge_sequential(burst(&mut locals, &mut parts, spec, seed, stream)?);
        drop(locals);
    }
    let stats1 = sys.session().stats();
    let snap1 = tel.snapshot();
    drop(remotes);
    drop(traced_remotes);
    drop(std::mem::take(&mut live.rungs));
    for (rung, s) in [
        ("untraced pass", &untraced),
        ("plain", &a),
        ("session", &b),
        ("local", &c),
        ("remote", &d),
        ("traced remote", &t),
    ] {
        if s.failed > 0 {
            return Err(format!("{rung} rung failed ops: {:?}", s.errors));
        }
    }
    let (ca, cb, cc, cd, ct) = (cost(&a), cost(&b), cost(&c), cost(&d), cost(&t));
    // Windowed like the untraced run's `read_p50_us`.
    let (untraced_read, _) = untraced.read.windowed(untraced.elapsed_s, 100, median);
    let untraced_tput = untraced.attempted as f64 / untraced.elapsed_s;
    // Stationarity: the pass's read p50 over its first and second half.
    let half = untraced.elapsed_s / 2.0;
    let read = &untraced.read;
    let half_p50 = |first: bool| {
        let half: Vec<f64> = read
            .v
            .iter()
            .zip(&read.at)
            .filter(|(_, at)| (**at < half) == first)
            .map(|(v, _)| *v)
            .collect();
        median(&sorted(half))
    };
    let (first_half, second_half) = (half_p50(true), half_p50(false));
    let store = stats1.delta_since(&stats0);
    // Ops that reached the workload's system while the deltas were taken.
    let system_ops =
        (untraced.attempted + b.attempted + c.attempted + d.attempted + t.attempted).max(1) as f64;

    // Plain-core probes: select cost per object, cold and warm extents.
    let extent_len = tse.extent(view, CLASS).map_err(|e| e.to_string())?.len() as f64;
    let mut per_object = Vec::new();
    let mut scans = Vec::new();
    for expr in SELECTIVITIES {
        for _ in 0..10 {
            let t = Instant::now();
            let r = tse
                .select_where(view, CLASS, expr)
                .map_err(|e| e.to_string())?;
            per_object.push(t.elapsed().as_nanos() as f64 / extent_len);
            scans.push(r);
        }
    }
    let scan_results: Vec<_> = (0..SELECTIVITIES.len())
        .map(|i| scans[i * 10].clone())
        .collect();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for i in 0..50u64 {
        // A create+delete pair changes membership, invalidating extents.
        let oid = tse
            .create(view, CLASS, &person_values(9_000_000_000 + i, 1))
            .map_err(|e| e.to_string())?;
        tse.delete_objects(&[oid]).map_err(|e| e.to_string())?;
        for v in [&mut cold, &mut warm] {
            let t = Instant::now();
            std::hint::black_box(tse.extent(view, CLASS).map_err(|e| e.to_string())?);
            v.push(t.elapsed().as_nanos() as f64);
        }
    }
    let (codec_ns, bytes_per_req) = codec_cost(spec, seed, &plain_keys, &scan_results);
    drop(plain);
    drop(tse);

    // Name resolution against a published metadata snapshot.
    let session = sys.session();
    let meta_view = session.current_view(FAMILY).map_err(|e| e.to_string())?.id;
    let resolve_ns = ns_per_call(100_000, |_| {
        std::hint::black_box(session.meta().resolve(meta_view, CLASS).expect("resolve"));
    });
    drop(session);

    // The write-ahead log, on a durable system of the workload's shape
    // whether or not the workload itself is durable: checkpoint cost, then
    // a burst of writes from every client thread (so group commit can
    // batch) for fsync, commit-wait, group size and log growth per write.
    let wal_sys = build_system(
        Some(&work.join("wal")),
        spec.shape,
        &mut Rng::new(seed, 1),
        spec.threads,
    );
    let checkpoint_ms = time_median(3, || {
        wal_sys.sys.checkpoint().expect("checkpoint");
    }) * 1e3;
    let wal_tel = wal_sys.sys.telemetry();
    let wal0 = wal_sys.sys.wal_len().unwrap_or(0);
    let snap_w0 = wal_tel.snapshot();
    let mut wal_parts = Partition::split(&wal_sys.keys, &wal_sys.ages, spec.threads);
    let mut wal_writers: Vec<SessionRung> = (0..spec.threads)
        .map(|_| SessionRung::open(&wal_sys.sys, FAMILY))
        .collect();
    let burst = drive_all(
        &mut wal_writers,
        &mut wal_parts,
        TAIL_MIX,
        seed,
        3,
        Stop::Ops(WAL_BURST_OPS),
    );
    if burst.failed > 0 {
        return Err(format!("WAL burst failed: {:?}", burst.errors));
    }
    let snap_w1 = wal_tel.snapshot();
    let wal_bytes_per_write =
        (wal_sys.sys.wal_len().unwrap_or(0) - wal0) as f64 / burst.write.v.len().max(1) as f64;
    let wal = |name: &str| delta(&snap_w0, &snap_w1, name);
    let (wal_fsync, wal_commit_wait, wal_group) = (
        wal("wal.fsync_ns"),
        wal("wal.commit_wait_ns"),
        wal("wal.group_size"),
    );
    drop(wal_writers);
    drop(wal_sys);

    // In-process replay of the evolution trace beside one writer, for the
    // control plane's phase timings and its lock waits.
    let trace = trace_for(spec, seed);
    let mut writer = SessionRung::open(&sys, FAMILY);
    let snap2 = tel.snapshot();
    let done = AtomicBool::new(false);
    let reports = std::thread::scope(|s| {
        let part = &mut parts[0];
        let done = &done;
        let w = s.spawn(move || {
            let mut rng = Rng::new(seed, 7);
            let mix = Mix {
                get: 50,
                set: 50,
                churn: 0,
                select: 0,
                extent: 0,
                refresh_every: 64,
            };
            drive(&mut writer, part, mix, &mut rng, Stop::Flag(done))
        });
        let reports: Result<Vec<_>, String> = trace
            .iter()
            .map(|cmd| {
                sys.evolve_cmd(FAMILY, cmd)
                    .map_err(|e| format!("evolve {cmd:?}: {e}"))
            })
            .collect();
        done.store(true, Ordering::Release);
        let w = w.join().expect("writer thread");
        reports.and_then(|r| {
            if w.failed > 0 {
                Err(format!("writer failed: {:?}", w.errors))
            } else {
                Ok(r)
            }
        })
    })?;
    let snap3 = tel.snapshot();
    let phase = |f: fn(&tse_core::PhaseTimings) -> u64| {
        median(&sorted(
            reports.iter().map(|r| f(&r.timings) as f64).collect(),
        ))
    };
    let classes_total = sys.session().meta().schema().live_class_count() as f64;

    let (observe_1t, observe_2t) = telemetry_cost(|t, i| t.observe_op("get", 1000 + (i & 1023)));
    let (incr_1t, incr_2t) = telemetry_cost(|t, _| t.incr("bench.probe", 1));

    live.server.drain();
    drop(live.fixture);
    drop(sys);

    let ns = |v: Option<f64>| v.unwrap_or(0.0);
    let metrics = vec![
        ("server.wire_overhead_us", cd.get_us - cc.get_us, "us"),
        ("server.codec_ns_per_req", codec_ns, "ns"),
        ("server.bytes_per_req", bytes_per_req, "bytes"),
        (
            "server.request_ns_p50",
            ns(delta(&snap0, &snap1, "server.request_ns").quantile(0.5)),
            "ns",
        ),
        ("core.client_api_ns", (cc.get_us - cb.get_us) * 1e3, "ns"),
        ("core.session_get_ns", (cb.get_us - ca.get_us) * 1e3, "ns"),
        ("core.session_set_ns", (cb.set_us - ca.set_us) * 1e3, "ns"),
        (
            "core.lock_write_wait_ns_p99",
            ns(delta(&snap2, &snap3, "lock.write_wait_ns").quantile(0.99)),
            "ns",
        ),
        (
            "core.evolve_exclusive_ns",
            ns(delta(&snap2, &snap3, "evolve.exclusive_ns").quantile(0.5)),
            "ns",
        ),
        ("core.evolve_translate_ns", phase(|t| t.translate_ns), "ns"),
        ("core.evolve_swap_in_ns", phase(|t| t.swap_in_ns), "ns"),
        ("view.resolve_ns", resolve_ns, "ns"),
        ("view.view_regen_ns", phase(|t| t.view_regen_ns), "ns"),
        ("classifier.classify_ns", phase(|t| t.classify_ns), "ns"),
        ("classifier.classes_total", classes_total, "count"),
        (
            "algebra.select_ns_per_object",
            median(&sorted(per_object)),
            "ns",
        ),
        ("algebra.set_ns", ca.set_us * 1e3, "ns"),
        ("object_model.get_ns", ca.get_us * 1e3, "ns"),
        ("object_model.extent_cold_ns", median(&sorted(cold)), "ns"),
        ("object_model.extent_warm_ns", median(&sorted(warm)), "ns"),
        (
            "storage.page_misses_per_op",
            store.page_misses as f64 / system_ops,
            "count",
        ),
        (
            "storage.record_reads_per_op",
            store.record_reads as f64 / system_ops,
            "count",
        ),
        (
            "storage.mvcc_versions",
            snap3.counter("mvcc.versions") as f64,
            "count",
        ),
        ("storage.fsync_probe_us", fsync_us, "us"),
        (
            "storage.wal_fsync_us",
            ns(wal_fsync.quantile(0.5)) / 1e3,
            "us",
        ),
        (
            "storage.wal_commit_wait_us",
            ns(wal_commit_wait.quantile(0.5)) / 1e3,
            "us",
        ),
        ("storage.wal_group_size", ns(wal_group.mean()), "count"),
        ("storage.wal_bytes_per_write", wal_bytes_per_write, "bytes"),
        ("storage.checkpoint_ms", checkpoint_ms, "ms"),
        ("telemetry.observe_op_ns", observe_1t, "ns"),
        ("telemetry.observe_op_ns_2t", observe_2t, "ns"),
        ("telemetry.incr_ns", incr_1t, "ns"),
        ("telemetry.incr_ns_2t", incr_2t, "ns"),
        (
            "client.retries",
            snap1.counter("client.retries") as f64,
            "count",
        ),
        (
            "server.rejected",
            snap1.counter("server.rejected") as f64,
            "count",
        ),
        (
            "bench.trace_overhead_pct",
            100.0 * (cd.ops_per_s / ct.ops_per_s - 1.0),
            "%",
        ),
        (
            "bench.trace_get_overhead_pct",
            100.0 * (ct.get_us / cd.get_us - 1.0),
            "%",
        ),
        // The per-layer get costs (plain core, then session, client API and
        // wire on top) telescope to the remote rung's get: their sum against
        // the untraced pass's `read_p50_us`.
        (
            "bench.ladder_get_explained_pct",
            100.0 * cd.get_us / untraced_read,
            "%",
        ),
        ("bench.read_p50_first_half_us", first_half, "us"),
        ("bench.read_p50_second_half_us", second_half, "us"),
        (
            "bench.read_p50_drift_pct",
            100.0 * (second_half / first_half - 1.0),
            "%",
        ),
    ];
    let rung = |r: &RungCost| {
        tse_telemetry::JsonValue::obj(vec![
            ("get_p50_us", tse_telemetry::JsonValue::F64(r.get_us)),
            ("set_p50_us", tse_telemetry::JsonValue::F64(r.set_us)),
            ("ops_per_s", tse_telemetry::JsonValue::F64(r.ops_per_s)),
        ])
    };
    let diag = vec![(
        "ladder",
        tse_telemetry::JsonValue::obj(vec![
            ("plain", rung(&ca)),
            ("session", rung(&cb)),
            ("local", rung(&cc)),
            ("remote", rung(&cd)),
            ("traced_remote", rung(&ct)),
            (
                "untraced_pass_read_p50_us",
                tse_telemetry::JsonValue::F64(untraced_read),
            ),
            (
                "untraced_pass_ops_per_s",
                tse_telemetry::JsonValue::F64(untraced_tput),
            ),
            (
                "ops_per_thread",
                tse_telemetry::JsonValue::U64(spec.ladder_ops),
            ),
        ]),
    )];
    let attempted =
        untraced.attempted + a.attempted + b.attempted + c.attempted + d.attempted + t.attempted;
    Ok(Outcome {
        metrics,
        reported: Vec::new(),
        attempted,
        failed: 0,
        diag,
    })
}
