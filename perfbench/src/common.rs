//! Inputs and fixtures shared by every workload: the seeded generator, the
//! schema, durable system set-up and the self-hosted server.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tse_core::{SharedSystem, TseClient, TseResult, TseSystem};
use tse_object_model::{Oid, PendingProp, PropertyDef, Value, ValueType};
use tse_server::{ClientConfig, RemoteClient, ServerConfig, TseServer};
use tse_storage::StoreConfig;

/// The view family every data client binds to.
pub const FAMILY: &str = "VS";
/// A second family over the same base class, used for scans on
/// workloads whose `VS` family evolves: another user's view, which the
/// paper says a schema change must leave untouched.
pub const SCAN_FAMILY: &str = "SCANV";
/// The base class all objects belong to.
pub const CLASS: &str = "Person";
/// Changes in one replay of the evolution trace: enough that p90 has
/// more than ten samples beyond it.
pub const TRACE_LEN: usize = 120;
/// Page size of every store.
pub const PAGE_SIZE: usize = 4096;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Attributes of `Person`. `age` is uniform over 0..100, so the scan
/// predicates `age < k` select k% of the population.
fn person_props() -> Vec<PendingProp> {
    vec![
        PropertyDef::stored("name", ValueType::Str, Value::Null),
        PropertyDef::stored("age", ValueType::Int, Value::Int(0)),
    ]
}

/// Initial values of a new object (fixed-width name, so the durable state
/// has the same size whichever objects a run created).
pub fn person_values(id: u64, age: i64) -> Vec<(&'static str, Value)> {
    vec![
        ("name", Value::Str(format!("p{:011}", id % 100_000_000_000))),
        ("age", Value::Int(age)),
    ]
}

/// Sizing of one workload's store.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Objects created at set-up and kept constant afterwards.
    pub population: usize,
    /// Buffer-pool pages per stripe.
    pub buffer_pages: usize,
    /// Evolve `add_attribute rating` at set-up, so `Person` in the `VS`
    /// view is a virtual class derived from the base class.
    pub virtual_class: bool,
}

impl Shape {
    /// The store configuration this shape runs with.
    pub fn store_config(&self) -> StoreConfig {
        StoreConfig {
            page_size: PAGE_SIZE,
            buffer_pages: self.buffer_pages,
            ..StoreConfig::default()
        }
    }
}

/// The set-up-time evolution that derives the virtual class.
pub const SETUP_EVOLVE: &str = "add_attribute rating: int to Person";

/// A populated system, with the oids in creation order.
pub struct Fixture {
    pub sys: SharedSystem,
    /// The backing directory of a durable system.
    pub dir: Option<PathBuf>,
    pub keys: Vec<Oid>,
    /// The acked `age` of each key.
    pub ages: Vec<i64>,
}

/// Open a fresh system — durable in `dir`, or in memory — define the
/// schema and views, and create the population from `threads` in-process
/// writers.
pub fn build_system(dir: Option<&Path>, shape: Shape, rng: &mut Rng, threads: usize) -> Fixture {
    let builder = match dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).expect("create system dir");
            TseSystem::builder(dir)
        }
        None => SharedSystem::builder(),
    };
    let sys = builder
        .page_size(PAGE_SIZE)
        .buffer_pages(shape.buffer_pages)
        .open()
        .expect("open system");
    sys.define_base_class(CLASS, &[], person_props())
        .expect("define Person");
    sys.create_view(FAMILY, &[CLASS]).expect("create view");
    sys.create_view(SCAN_FAMILY, &[CLASS])
        .expect("create scan view");
    if shape.virtual_class {
        sys.evolve_cmd(FAMILY, SETUP_EVOLVE).expect("set-up evolve");
    }
    let ages: Vec<i64> = (0..shape.population)
        .map(|_| rng.below(100) as i64)
        .collect();
    let keys = populate(shape.population, threads, &ages, |i, age| {
        let w = sys.writer();
        // Through the base class: a create through the virtual class
        // would also pay its derivation, which is not set-up work.
        let view = w.meta().current_view(SCAN_FAMILY).expect("base view").id;
        w.create(view, CLASS, &person_values(i as u64, age))
            .expect("populate")
    });
    Fixture {
        sys,
        dir: dir.map(Path::to_path_buf),
        keys,
        ages,
    }
}

/// Open the durable system in `dir` with `shape`'s store sizing.
pub fn open_durable(dir: &Path, shape: Shape) -> TseResult<SharedSystem> {
    TseSystem::builder(dir)
        .page_size(PAGE_SIZE)
        .buffer_pages(shape.buffer_pages)
        .open()
}

/// The same schema and population on a plain in-memory [`TseSystem`]
/// (the bottom rung of the layer ladder).
pub fn build_plain(shape: Shape, rng: &mut Rng) -> (TseSystem, Vec<Oid>, Vec<i64>) {
    let mut tse = TseSystem::with_config(shape.store_config());
    tse.define_base_class(CLASS, &[], person_props())
        .expect("define Person");
    tse.create_view(FAMILY, &[CLASS]).expect("create view");
    tse.create_view(SCAN_FAMILY, &[CLASS])
        .expect("create scan view");
    if shape.virtual_class {
        tse.evolve_cmd(FAMILY, SETUP_EVOLVE).expect("set-up evolve");
    }
    let view = tse.current_view(SCAN_FAMILY).expect("base view").id;
    let ages: Vec<i64> = (0..shape.population)
        .map(|_| rng.below(100) as i64)
        .collect();
    let keys = ages
        .iter()
        .enumerate()
        .map(|(i, &age)| {
            tse.create(view, CLASS, &person_values(i as u64, age))
                .expect("populate")
        })
        .collect();
    (tse, keys, ages)
}

/// Create `n` objects from `threads` threads; `create(i, age)` makes
/// object `i`. Returns the oids in index order.
fn populate(
    n: usize,
    threads: usize,
    ages: &[i64],
    create: impl Fn(usize, i64) -> Oid + Sync,
) -> Vec<Oid> {
    let threads = threads.max(1);
    let mut keys = vec![Oid(0); n];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let create = &create;
                s.spawn(move || {
                    (t..n)
                        .step_by(threads)
                        .map(|i| (i, create(i, ages[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, oid) in h.join().expect("populate thread") {
                keys[i] = oid;
            }
        }
    });
    keys
}

/// A self-hosted server on an ephemeral loopback port.
pub fn serve(sys: &SharedSystem) -> TseServer {
    TseServer::start(sys.clone(), "127.0.0.1:0", ServerConfig::default()).expect("start server")
}

/// A remote client for `user`, bound to `family`.
pub fn connect(server: &TseServer, user: &str, family: &str, config: ClientConfig) -> RemoteClient {
    let mut c = RemoteClient::open_with(server.addr().to_string(), user, config).expect("connect");
    c.bind(family).expect("bind");
    c
}

/// Copy every file of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read system dir") {
        let entry = entry.expect("dir entry");
        if entry.file_type().expect("file type").is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
        }
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Median wall time of `f` over `reps` calls, seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v[v.len() / 2]
}

/// What a run's acked writes promise about each object: its last acked
/// `age`, or that it was deleted.
#[derive(Default)]
pub struct Oracle {
    pub live: HashMap<Oid, i64>,
    pub deleted: Vec<Oid>,
}
