//! The data-plane op mixes and the closed loop that drives them through
//! any layer of the system.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tse_core::{
    ReadSession, SharedSystem, TseClient, TseReader, TseSystem, TseWriter, WriteSession,
};
use tse_object_model::{Oid, Value};
use tse_view::ViewId;

use crate::common::{person_values, Oracle, Rng, CLASS};
use crate::stats::{sorted, trimmed_mean};

/// One entry point into the system: the same operations, issued through a
/// different layer. Each rung of the layer ladder implements it.
pub trait Rung {
    fn get(&self, oid: Oid) -> Result<Value, String>;
    fn set(&self, oid: Oid, age: i64) -> Result<(), String>;
    fn create(&self, id: u64, age: i64) -> Result<Oid, String>;
    fn delete(&self, oid: Oid) -> Result<(), String>;
    fn select(&self, expr: &str) -> Result<Vec<Oid>, String>;
    fn extent(&self) -> Result<Vec<Oid>, String>;
    /// Re-pin the read side to the newest data (the view stays pinned).
    fn refresh(&mut self) -> Result<(), String>;
}

fn age(v: i64) -> [(&'static str, Value); 1] {
    [("age", Value::Int(v))]
}

/// Bottom rung: the in-memory paper core, no sessions, locks or wire.
pub struct PlainRung<'a> {
    pub tse: &'a TseSystem,
    pub view: ViewId,
}

impl Rung for PlainRung<'_> {
    fn get(&self, oid: Oid) -> Result<Value, String> {
        self.tse
            .get(self.view, oid, CLASS, "age")
            .map_err(|e| e.to_string())
    }
    fn set(&self, oid: Oid, v: i64) -> Result<(), String> {
        self.tse
            .set(self.view, oid, CLASS, &age(v))
            .map_err(|e| e.to_string())
    }
    fn create(&self, id: u64, v: i64) -> Result<Oid, String> {
        self.tse
            .create(self.view, CLASS, &person_values(id, v))
            .map_err(|e| e.to_string())
    }
    fn delete(&self, oid: Oid) -> Result<(), String> {
        self.tse.delete_objects(&[oid]).map_err(|e| e.to_string())
    }
    fn select(&self, expr: &str) -> Result<Vec<Oid>, String> {
        self.tse
            .select_where(self.view, CLASS, expr)
            .map_err(|e| e.to_string())
    }
    fn extent(&self) -> Result<Vec<Oid>, String> {
        self.tse.extent(self.view, CLASS).map_err(|e| e.to_string())
    }
    fn refresh(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Session rung: `SharedSystem` read and write sessions, in process.
pub struct SessionRung {
    read: ReadSession,
    write: WriteSession,
    view: ViewId,
}

impl SessionRung {
    pub fn open(sys: &SharedSystem, family: &str) -> SessionRung {
        let read = sys.session();
        let view = read.current_view(family).expect("family view").id;
        SessionRung {
            read,
            write: sys.writer(),
            view,
        }
    }
}

impl Rung for SessionRung {
    fn get(&self, oid: Oid) -> Result<Value, String> {
        self.read
            .get(self.view, oid, CLASS, "age")
            .map_err(|e| e.to_string())
    }
    fn set(&self, oid: Oid, v: i64) -> Result<(), String> {
        self.write
            .set(self.view, oid, CLASS, &age(v))
            .map_err(|e| e.to_string())
    }
    fn create(&self, id: u64, v: i64) -> Result<Oid, String> {
        self.write
            .create(self.view, CLASS, &person_values(id, v))
            .map_err(|e| e.to_string())
    }
    fn delete(&self, oid: Oid) -> Result<(), String> {
        self.write.delete_objects(&[oid]).map_err(|e| e.to_string())
    }
    fn select(&self, expr: &str) -> Result<Vec<Oid>, String> {
        self.read
            .select_where(self.view, CLASS, expr)
            .map_err(|e| e.to_string())
    }
    fn extent(&self) -> Result<Vec<Oid>, String> {
        self.read
            .extent(self.view, CLASS)
            .map_err(|e| e.to_string())
    }
    fn refresh(&mut self) -> Result<(), String> {
        self.read.refresh();
        Ok(())
    }
}

/// Client rung: a `TseClient`'s reader and writer — `LocalClient` in
/// process, or `RemoteClient` over loopback TCP.
pub struct ClientRung<C: TseClient> {
    reader: C::Reader,
    writer: C::Writer,
    // Declared last so the handles close before the client does.
    _client: C,
}

impl<C: TseClient> ClientRung<C> {
    pub fn open(client: C) -> ClientRung<C> {
        ClientRung {
            reader: client.session().expect("open reader"),
            writer: client.writer().expect("open writer"),
            _client: client,
        }
    }
}

impl<C: TseClient> Rung for ClientRung<C> {
    fn get(&self, oid: Oid) -> Result<Value, String> {
        self.reader
            .get(oid, CLASS, "age")
            .map_err(|e| e.to_string())
    }
    fn set(&self, oid: Oid, v: i64) -> Result<(), String> {
        self.writer
            .set(oid, CLASS, &age(v))
            .map_err(|e| e.to_string())
    }
    fn create(&self, id: u64, v: i64) -> Result<Oid, String> {
        self.writer
            .create(CLASS, &person_values(id, v))
            .map_err(|e| e.to_string())
    }
    fn delete(&self, oid: Oid) -> Result<(), String> {
        self.writer
            .delete_objects(&[oid])
            .map_err(|e| e.to_string())
    }
    fn select(&self, expr: &str) -> Result<Vec<Oid>, String> {
        self.reader
            .select_where(CLASS, expr)
            .map_err(|e| e.to_string())
    }
    fn extent(&self) -> Result<Vec<Oid>, String> {
        self.reader.extent(CLASS).map_err(|e| e.to_string())
    }
    fn refresh(&mut self) -> Result<(), String> {
        self.reader.refresh().map_err(|e| e.to_string())
    }
}

/// Scan predicates: `age` is uniform over 0..100, so these select 1%,
/// 10% and 50% of the population.
pub const SELECTIVITIES: [&str; 3] = ["age < 1", "age < 10", "age < 50"];

/// A data-plane operation. Indices address the issuing thread's own
/// partition of the population, so threads never delete each other's keys.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Get(usize),
    Set(usize, i64),
    /// Create an object, then delete it: the population stays constant
    /// and reads only ever address objects every snapshot holds.
    Churn(i64),
    Select(usize),
    Extent,
}

/// An op mix: weights out of 100 and the read-refresh cadence.
#[derive(Clone, Copy)]
pub struct Mix {
    pub get: u64,
    pub set: u64,
    pub churn: u64,
    pub select: u64,
    pub extent: u64,
    /// Re-pin the reader every this many ops.
    pub refresh_every: u64,
}

/// Point reads and writes: mostly `get`, then `set`, a few create+delete
/// pairs; no scans.
pub const POINT_MIX: Mix = Mix {
    get: 80,
    set: 15,
    churn: 5,
    select: 0,
    extent: 0,
    refresh_every: 64,
};
/// Scans at three selectivities plus `extent`, the fetch of single rows,
/// and a minority of value writes.
pub const SCAN_MIX: Mix = Mix {
    get: 30,
    set: 25,
    churn: 0,
    select: 35,
    extent: 10,
    refresh_every: 16,
};

impl Mix {
    /// Draw the next op for a partition of `n` keys.
    pub fn draw(&self, rng: &mut Rng, n: usize) -> Op {
        let roll = rng.below(self.get + self.set + self.churn + self.select + self.extent);
        let key = rng.below(n as u64) as usize;
        let value = rng.below(100) as i64;
        if roll < self.get {
            Op::Get(key)
        } else if roll < self.get + self.set {
            Op::Set(key, value)
        } else if roll < self.get + self.set + self.churn {
            Op::Churn(value)
        } else if roll < self.get + self.set + self.churn + self.select {
            Op::Select(rng.below(SELECTIVITIES.len() as u64) as usize)
        } else {
            Op::Extent
        }
    }
}

/// When a load loop stops.
#[derive(Clone, Copy)]
pub enum Stop<'a> {
    /// After this many ops.
    Ops(u64),
    /// At this instant.
    At(Instant),
    /// When the flag is raised.
    Flag(&'a AtomicBool),
}

/// Latencies of one op class, each with its completion time (seconds
/// from the start of the loop that issued it).
#[derive(Default, Clone)]
pub struct Series {
    pub v: Vec<f64>,
    pub at: Vec<f64>,
}

impl Series {
    fn push(&mut self, v: f64, at: f64) {
        self.v.push(v);
        self.at.push(at);
    }

    fn extend(&mut self, o: Series, offset: f64) {
        self.v.extend(o.v);
        self.at.extend(o.at.into_iter().map(|t| t + offset));
    }

    /// `stat` of each of up to `MAX_WINDOWS` equal time windows of
    /// `[0, span)` holding at least `per_window` samples on average, then
    /// the trimmed mean over windows. Trimming drops a window spoiled by a
    /// stall of the host; the mean, unlike a median, moves smoothly with
    /// the share of the run the host spent in a slower state, rather than
    /// jumping between the two states' values when that share is near a
    /// half. Returns the trimmed mean and the per-window values.
    pub fn windowed(
        &self,
        span: f64,
        per_window: usize,
        stat: impl Fn(&[f64]) -> f64,
    ) -> (f64, Vec<f64>) {
        let w = (self.v.len() / per_window.max(1)).clamp(1, MAX_WINDOWS);
        let mut windows = vec![Vec::new(); w];
        for (&v, &at) in self.v.iter().zip(&self.at) {
            let i = ((at / span) * w as f64) as usize;
            windows[i.min(w - 1)].push(v);
        }
        let stats: Vec<f64> = windows
            .into_iter()
            .filter(|x| !x.is_empty())
            .map(|x| stat(&sorted(x)))
            .collect();
        (trimmed_mean(&sorted(stats.clone())), stats)
    }
}

/// Most windows a run's samples are cut into.
pub const MAX_WINDOWS: usize = 40;

/// Latencies and counts from one load loop.
#[derive(Default)]
pub struct Samples {
    /// `get` latencies, µs.
    pub read: Series,
    /// Acked `set`/`create`/`delete` latencies, µs.
    pub write: Series,
    /// `set` latencies alone, µs (the ladder's per-layer set cost).
    pub set: Series,
    /// `select_where`/`extent` latencies, ms.
    pub scan: Series,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub elapsed_s: f64,
}

impl Samples {
    /// Fold in a loop that ran concurrently with this one.
    pub fn merge(&mut self, o: Samples) {
        let elapsed = self.elapsed_s.max(o.elapsed_s);
        self.fold(o, 0.0);
        self.elapsed_s = elapsed;
    }

    /// Fold in a loop that ran after this one: its times continue ours.
    pub fn merge_sequential(&mut self, o: Samples) {
        let offset = self.elapsed_s;
        let elapsed = self.elapsed_s + o.elapsed_s;
        self.fold(o, offset);
        self.elapsed_s = elapsed;
    }

    /// Count one failure, keeping the first few messages.
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    fn fold(&mut self, o: Samples, offset: f64) {
        self.read.extend(o.read, offset);
        self.write.extend(o.write, offset);
        self.set.extend(o.set, offset);
        self.scan.extend(o.scan, offset);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors);
    }

    /// Completed ops per second, as the trimmed mean over time windows.
    pub fn throughput(&self) -> f64 {
        let mut all = Series::default();
        for s in [&self.read, &self.write, &self.scan] {
            all.extend(s.clone(), 0.0);
        }
        let w = MAX_WINDOWS.min(all.v.len().max(1));
        let mut counts = vec![0u64; w];
        for &at in &all.at {
            counts[(((at / self.elapsed_s) * w as f64) as usize).min(w - 1)] += 1;
        }
        let per_s: Vec<f64> = counts
            .iter()
            .map(|&c| c as f64 * w as f64 / self.elapsed_s)
            .collect();
        trimmed_mean(&sorted(per_s))
    }
}

/// One thread's share of the population and what its acked writes promise.
pub struct Partition {
    pub keys: Vec<Oid>,
    pub oracle: Oracle,
    /// Ids for created objects' names, unique per partition.
    pub next_id: u64,
}

impl Partition {
    /// Split `keys` (with their acked ages) into `n` interleaved partitions.
    pub fn split(keys: &[Oid], ages: &[i64], n: usize) -> Vec<Partition> {
        (0..n)
            .map(|p| {
                let mine: Vec<usize> = (p..keys.len()).step_by(n).collect();
                let mut oracle = Oracle::default();
                for &i in &mine {
                    oracle.live.insert(keys[i], ages[i]);
                }
                Partition {
                    keys: mine.iter().map(|&i| keys[i]).collect(),
                    oracle,
                    next_id: 1_000_000_000 * (p as u64 + 1),
                }
            })
            .collect()
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Run `mix` through `rung` on `part` until `stop`: a closed loop, each op
/// issued only after the previous one returned.
pub fn drive(
    rung: &mut dyn Rung,
    part: &mut Partition,
    mix: Mix,
    rng: &mut Rng,
    stop: Stop,
) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    let mut n = 0u64;
    loop {
        let done = match stop {
            Stop::Ops(max) => n >= max,
            Stop::At(t) => Instant::now() >= t,
            Stop::Flag(f) => f.load(Ordering::Acquire),
        };
        if done {
            break;
        }
        n += 1;
        // A failed re-pin fails the run like a failed op: the reader would
        // go on reading from a stale pin.
        if n.is_multiple_of(mix.refresh_every) {
            if let Err(e) = rung.refresh() {
                s.fail(e);
            }
        }
        let op = mix.draw(rng, part.keys.len());
        s.attempted += 1;
        let t = Instant::now();
        let ok: Result<(), String> = match op {
            Op::Get(k) => rung.get(part.keys[k]).map(|v| {
                std::hint::black_box(v);
                s.read.push(us(t), secs(start));
            }),
            Op::Set(k, v) => rung.set(part.keys[k], v).map(|()| {
                let l = us(t);
                s.write.push(l, secs(start));
                s.set.push(l, secs(start));
                part.oracle.live.insert(part.keys[k], v);
            }),
            Op::Churn(v) => {
                let id = part.next_id;
                part.next_id += 1;
                match rung.create(id, v) {
                    Ok(oid) => {
                        s.write.push(us(t), secs(start));
                        s.attempted += 1;
                        let t = Instant::now();
                        rung.delete(oid).map(|()| {
                            s.write.push(us(t), secs(start));
                            part.oracle.deleted.push(oid);
                        })
                    }
                    Err(e) => Err(e),
                }
            }
            Op::Select(i) => rung.select(SELECTIVITIES[i]).map(|r| {
                std::hint::black_box(r);
                s.scan.push(us(t) / 1e3, secs(start));
            }),
            Op::Extent => rung.extent().map(|r| {
                std::hint::black_box(r);
                s.scan.push(us(t) / 1e3, secs(start));
            }),
        };
        if let Err(e) = ok {
            s.fail(e);
        }
    }
    s.elapsed_s = start.elapsed().as_secs_f64();
    s
}

/// Run one load loop per (rung, partition) pair on its own thread, all
/// started together, and fold their samples.
pub fn drive_all<R: Rung + Send>(
    rungs: &mut [R],
    parts: &mut [Partition],
    mix: Mix,
    seed: u64,
    stream: u64,
    stop: Stop,
) -> Samples {
    let mut all = Samples::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = rungs
            .iter_mut()
            .zip(parts.iter_mut())
            .enumerate()
            .map(|(i, (rung, part))| {
                let mut rng = Rng::new(seed, stream * 64 + i as u64);
                s.spawn(move || drive(rung, part, mix, &mut rng, stop))
            })
            .collect();
        for h in handles {
            all.merge(h.join().expect("load thread"));
        }
    });
    all
}

/// A deadline `secs` from now.
pub fn deadline(secs: f64) -> Stop<'static> {
    Stop::At(Instant::now() + Duration::from_secs_f64(secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;

    #[test]
    fn windowed_mean_ignores_one_stalled_window() {
        // Ten windows of 100 samples at 10.0, except one stalled at 1000.0.
        let mut s = Series::default();
        for i in 0..1000 {
            let at = i as f64 / 100.0;
            s.push(
                if (300..400).contains(&i) {
                    1000.0
                } else {
                    10.0
                },
                at,
            );
        }
        let (m, windows) = s.windowed(10.0, 100, median);
        assert_eq!(windows.len(), 10);
        assert_eq!(m, 10.0);
        // With too few samples for two windows there is one.
        let (_, windows) = s.windowed(10.0, 1000, median);
        assert_eq!(windows.len(), 1);
    }
}
