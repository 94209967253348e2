//! Observability for the CORD reproduction: a bounded run-event trace
//! and a unified metrics registry.
//!
//! The paper's argument is quantitative — overhead is counted in bus
//! transactions, walker evictions, and race-check traffic — so the
//! simulator and detector expose *when* those events happen, not just
//! end-of-run totals. This crate provides the shared vocabulary:
//!
//! * [`TraceHandle`] / [`EventRing`]: a clonable, thread-safe handle to
//!   a bounded drop-oldest ring buffer of [`TraceEvent`]s. A disabled
//!   handle (the default everywhere) is a `None` and costs one branch
//!   per emission site — payload construction is behind a closure and
//!   never runs.
//! * [`MetricsRegistry`]: additive named counters and float gauges that
//!   merge `SimStats`, `CordStats`, pool progress, and sweep profiling
//!   into one JSON-serializable snapshot.
//! * [`DurStat`] / [`SweepProfile`]: wall-clock profiling aggregates
//!   for the parallel sweep runner (per-job run time, queue wait,
//!   checkpoint-flush time per worker).
//!
//! `cord-obs` depends only on `cord-json`; the simulator, detector, and
//! bench crates depend on it (never the reverse), so the hook methods
//! that feed the registry live next to the stats they read.

#![warn(missing_docs)]

pub mod events;
pub mod wire;

pub use events::{
    AccessEvent, AccessKind, AccessPath, CoreId, Level, LineRemoval, MemoryObserver, NullObserver,
    ObserverOutcome, RemovalCause,
};
pub use wire::{kind_name, StreamEvent, StreamGeometry, StreamHeader, WireError, WIRE_VERSION};

use cord_json::{obj, FromJson, Json, JsonError, ToJson};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// Which bus a traced transaction occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusKind {
    /// The data bus (line transfers between caches and memory).
    Data,
    /// The address/snoop bus.
    Addr,
    /// The timestamp bus CORD adds (§3.1).
    Ts,
    /// The memory bus.
    Mem,
}

impl BusKind {
    fn name(self) -> &'static str {
        match self {
            BusKind::Data => "data",
            BusKind::Addr => "addr",
            BusKind::Ts => "ts",
            BusKind::Mem => "mem",
        }
    }

    fn from_name(name: &str) -> Option<BusKind> {
        Some(match name {
            "data" => BusKind::Data,
            "addr" => BusKind::Addr,
            "ts" => BusKind::Ts,
            "mem" => BusKind::Mem,
            _ => return None,
        })
    }
}

/// What a single trace event records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A memory access that occupied a bus (miss, upgrade, or fill).
    Bus {
        /// The bus occupied.
        bus: BusKind,
        /// The cache line involved.
        line: u64,
    },
    /// A cache line filled into a core's cache.
    Fill {
        /// Destination core.
        core: u8,
        /// Cache level (1 or 2).
        level: u8,
        /// The line filled.
        line: u64,
    },
    /// A cache line removed from a core's cache.
    Remove {
        /// Source core.
        core: u8,
        /// Cache level (1 or 2).
        level: u8,
        /// The line removed.
        line: u64,
        /// Whether the line was dirty.
        dirty: bool,
        /// `true` for an invalidation, `false` for a capacity eviction.
        invalidation: bool,
    },
    /// An explicit race-check broadcast on the timestamp bus (§2.7.2).
    RaceCheck {
        /// The line checked.
        line: u64,
        /// Number of check requests issued.
        requests: u32,
    },
    /// A memory-timestamp update broadcast (§2.5).
    MemtsBroadcast {
        /// Posted timestamp-bus transactions.
        count: u32,
    },
    /// A periodic cache-walker pass (§2.7.5).
    WalkerPass {
        /// History entries evicted by this pass.
        evicted: u64,
        /// The eviction bound (stamps below it were folded to memory).
        bound: u64,
    },
    /// A fault-injection target fired (a sync instance was removed).
    Injection {
        /// The dynamic instance index removed.
        instance: u64,
        /// `true` when a release (flag set) was removed, `false` for an
        /// acquire (lock acquisition / flag wait).
        release: bool,
    },
    /// A thread migrated between cores.
    Migration {
        /// Source core.
        from: u8,
        /// Destination core.
        to: u8,
    },
    /// A data race was reported by the detector.
    Race {
        /// The racing byte address.
        addr: u64,
        /// The core whose cached timestamp conflicted.
        other_core: u8,
    },
}

impl EventKind {
    fn name(&self) -> &'static str {
        match self {
            EventKind::Bus { .. } => "bus",
            EventKind::Fill { .. } => "fill",
            EventKind::Remove { .. } => "remove",
            EventKind::RaceCheck { .. } => "race_check",
            EventKind::MemtsBroadcast { .. } => "memts_broadcast",
            EventKind::WalkerPass { .. } => "walker_pass",
            EventKind::Injection { .. } => "injection",
            EventKind::Migration { .. } => "migration",
            EventKind::Race { .. } => "race",
        }
    }
}

/// Sentinel for events with no originating thread (e.g. walker passes).
pub const NO_THREAD: u16 = u16::MAX;

/// One timestamped entry in the run-event trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle at which the event occurred.
    pub cycle: u64,
    /// Originating thread, or [`NO_THREAD`].
    pub thread: u16,
    /// The payload.
    pub kind: EventKind,
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("cycle", self.cycle.to_json()),
            ("thread", self.thread.to_json()),
            ("kind", self.kind.name().to_json()),
        ];
        match &self.kind {
            EventKind::Bus { bus, line } => {
                fields.push(("bus", bus.name().to_json()));
                fields.push(("line", line.to_json()));
            }
            EventKind::Fill { core, level, line } => {
                fields.push(("core", core.to_json()));
                fields.push(("level", level.to_json()));
                fields.push(("line", line.to_json()));
            }
            EventKind::Remove {
                core,
                level,
                line,
                dirty,
                invalidation,
            } => {
                fields.push(("core", core.to_json()));
                fields.push(("level", level.to_json()));
                fields.push(("line", line.to_json()));
                fields.push(("dirty", dirty.to_json()));
                fields.push(("invalidation", invalidation.to_json()));
            }
            EventKind::RaceCheck { line, requests } => {
                fields.push(("line", line.to_json()));
                fields.push(("requests", Json::UInt(u64::from(*requests))));
            }
            EventKind::MemtsBroadcast { count } => {
                fields.push(("count", Json::UInt(u64::from(*count))));
            }
            EventKind::WalkerPass { evicted, bound } => {
                fields.push(("evicted", evicted.to_json()));
                fields.push(("bound", bound.to_json()));
            }
            EventKind::Injection { instance, release } => {
                fields.push(("instance", instance.to_json()));
                fields.push(("release", release.to_json()));
            }
            EventKind::Migration { from, to } => {
                fields.push(("from", from.to_json()));
                fields.push(("to", to.to_json()));
            }
            EventKind::Race { addr, other_core } => {
                fields.push(("addr", addr.to_json()));
                fields.push(("other_core", other_core.to_json()));
            }
        }
        obj(fields)
    }
}

impl FromJson for TraceEvent {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let kind_name = v.field("kind")?.as_str()?;
        let kind = match kind_name {
            "bus" => {
                let bus_name = v.field("bus")?.as_str()?;
                EventKind::Bus {
                    bus: BusKind::from_name(bus_name)
                        .ok_or_else(|| JsonError::new(format!("unknown bus `{bus_name}`")))?,
                    line: FromJson::from_json(v.field("line")?)?,
                }
            }
            "fill" => EventKind::Fill {
                core: FromJson::from_json(v.field("core")?)?,
                level: FromJson::from_json(v.field("level")?)?,
                line: FromJson::from_json(v.field("line")?)?,
            },
            "remove" => EventKind::Remove {
                core: FromJson::from_json(v.field("core")?)?,
                level: FromJson::from_json(v.field("level")?)?,
                line: FromJson::from_json(v.field("line")?)?,
                dirty: FromJson::from_json(v.field("dirty")?)?,
                invalidation: FromJson::from_json(v.field("invalidation")?)?,
            },
            "race_check" => EventKind::RaceCheck {
                line: FromJson::from_json(v.field("line")?)?,
                requests: FromJson::from_json(v.field("requests")?)?,
            },
            "memts_broadcast" => EventKind::MemtsBroadcast {
                count: FromJson::from_json(v.field("count")?)?,
            },
            "walker_pass" => EventKind::WalkerPass {
                evicted: FromJson::from_json(v.field("evicted")?)?,
                bound: FromJson::from_json(v.field("bound")?)?,
            },
            "injection" => EventKind::Injection {
                instance: FromJson::from_json(v.field("instance")?)?,
                release: FromJson::from_json(v.field("release")?)?,
            },
            "migration" => EventKind::Migration {
                from: FromJson::from_json(v.field("from")?)?,
                to: FromJson::from_json(v.field("to")?)?,
            },
            "race" => EventKind::Race {
                addr: FromJson::from_json(v.field("addr")?)?,
                other_core: FromJson::from_json(v.field("other_core")?)?,
            },
            other => {
                return Err(JsonError::new(format!(
                    "unknown trace event kind `{other}`"
                )));
            }
        };
        Ok(TraceEvent {
            cycle: FromJson::from_json(v.field("cycle")?)?,
            thread: FromJson::from_json(v.field("thread")?)?,
            kind,
        })
    }
}

/// A bounded drop-oldest buffer of [`TraceEvent`]s.
#[derive(Debug)]
pub struct EventRing {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends an event, dropping the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serializes the ring: `{"dropped": N, "events": [...]}`.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("dropped", self.dropped.to_json()),
            (
                "events",
                Json::Array(self.buf.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

/// A clonable, thread-safe handle to an [`EventRing`] — or nothing.
///
/// The disabled handle is the default everywhere; emission sites pay a
/// single `Option` branch and never construct the event payload:
///
/// ```
/// use cord_obs::{TraceHandle, TraceEvent, EventKind, NO_THREAD};
///
/// let off = TraceHandle::disabled();
/// off.emit(|| unreachable!("payload closure must not run"));
///
/// let on = TraceHandle::bounded(16);
/// on.emit(|| TraceEvent {
///     cycle: 3,
///     thread: NO_THREAD,
///     kind: EventKind::WalkerPass { evicted: 2, bound: 100 },
/// });
/// assert_eq!(on.snapshot().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceHandle(Option<Arc<Mutex<EventRing>>>);

impl TraceHandle {
    /// The no-op handle: emissions are a branch and nothing else.
    pub fn disabled() -> Self {
        TraceHandle(None)
    }

    /// A handle backed by a fresh ring of `capacity` events.
    pub fn bounded(capacity: usize) -> Self {
        TraceHandle(Some(Arc::new(Mutex::new(EventRing::new(capacity)))))
    }

    /// Whether events are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records the event built by `f` — which is only called when the
    /// handle is enabled.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(ring) = &self.0 {
            lock_ring(ring).push(f());
        }
    }

    /// A copy of the retained events, oldest first (empty if disabled).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        match &self.0 {
            Some(ring) => lock_ring(ring).events().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Serializes the ring, or `Json::Null` when disabled.
    pub fn to_json(&self) -> Json {
        match &self.0 {
            Some(ring) => lock_ring(ring).to_json(),
            None => Json::Null,
        }
    }
}

fn lock_ring(ring: &Mutex<EventRing>) -> MutexGuard<'_, EventRing> {
    // A panic while holding the ring lock cannot leave it inconsistent
    // (push is a pop+push); keep collecting rather than poisoning the
    // whole trace.
    match ring.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Additive named counters plus float gauges, the unified snapshot the
/// sweep writes as its aggregate metrics JSON.
///
/// Counter names are dotted paths by convention (`sim.data_reads`,
/// `cord.walker_evictions`, `sweep.jobs_failed`); merging two
/// registries adds counters pointwise and keeps the maximum of each
/// gauge unless overwritten.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the counter `name` (creating it at 0).
    pub fn add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += v;
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_owned(), v);
    }

    /// The current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The current value of a gauge, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Folds `other` into `self`: counters add, gauges overwrite.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }
}

impl ToJson for MetricsRegistry {
    fn to_json(&self) -> Json {
        obj(vec![
            ("counters", self.counters.to_json()),
            (
                "gauges",
                Json::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for MetricsRegistry {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(MetricsRegistry {
            counters: FromJson::from_json(v.field("counters")?)?,
            gauges: FromJson::from_json(v.field("gauges")?)?,
        })
    }
}

/// Aggregate of a wall-clock duration series: count, total, maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DurStat {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples, in seconds.
    pub total_s: f64,
    /// Largest sample, in seconds.
    pub max_s: f64,
}

impl DurStat {
    /// Records one duration sample (in seconds).
    pub fn record(&mut self, secs: f64) {
        self.count += 1;
        self.total_s += secs;
        if secs > self.max_s {
            self.max_s = secs;
        }
    }

    /// Mean sample length in seconds (0 with no samples).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &DurStat) {
        self.count += other.count;
        self.total_s += other.total_s;
        if other.max_s > self.max_s {
            self.max_s = other.max_s;
        }
    }
}

impl ToJson for DurStat {
    fn to_json(&self) -> Json {
        obj(vec![
            ("count", self.count.to_json()),
            ("total_s", self.total_s.to_json()),
            ("mean_s", self.mean_s().to_json()),
            ("max_s", self.max_s.to_json()),
        ])
    }
}

/// A log-bucketed latency histogram with tail quantiles — the
/// distribution-shaped sibling of [`DurStat`].
///
/// Samples are nanosecond latencies. Buckets are powers of two (bucket
/// `i` holds samples in `[2^(i-1), 2^i)`, bucket 0 holds zeros), so the
/// histogram is fixed-size, allocation-free to record into, and merges
/// pointwise across workers. Quantiles are resolved to a bucket's upper
/// bound, which bounds the relative error at 2× — plenty for the
/// order-of-magnitude questions the hot-path work asks (is the p999 a
/// cache miss or a walker pass?).
///
/// Like [`DurStat`], a histogram is timing-dependent and must only ever
/// be surfaced through the profile/finalize side of sweep output, never
/// through the deterministic merged metrics that byte-identity checks
/// cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts; bucket `i` covers `[2^(i-1), 2^i)` ns.
    buckets: [u64; 64],
    /// Total samples recorded.
    count: u64,
    /// Smallest sample seen, in ns.
    min_ns: u64,
    /// Largest sample seen, in ns.
    max_ns: u64,
    /// Sum of all samples, in ns.
    total_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            total_ns: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bucket_of(ns: u64) -> usize {
        (64 - ns.leading_zeros()) as usize
    }

    /// Upper bound (exclusive) of bucket `i` in nanoseconds, saturating
    /// at `u64::MAX` for the last bucket.
    fn bucket_upper_ns(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Records one latency sample, in nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns).min(63)] += 1;
        self.count += 1;
        self.total_ns += ns;
        if ns < self.min_ns {
            self.min_ns = ns;
        }
        if ns > self.max_ns {
            self.max_ns = ns;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample in nanoseconds (0 with no samples).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Largest sample in nanoseconds (0 with no samples).
    pub fn max_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max_ns
        }
    }

    /// Smallest sample in nanoseconds (0 with no samples).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as a bucket upper bound in
    /// nanoseconds, clamped to the observed max. Returns 0 with no
    /// samples.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_ns(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median latency (see [`Histogram::quantile_ns`]).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 99th-percentile latency.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// 99.9th-percentile latency.
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }

    /// Folds `other` into `self` pointwise.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        if other.count > 0 {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        // Sparse bucket encoding: only non-empty buckets, as
        // [index, count] pairs, so empty histograms stay tiny.
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| Json::Array(vec![(i as u64).to_json(), c.to_json()]))
            .collect();
        obj(vec![
            ("count", self.count.to_json()),
            ("min_ns", self.min_ns().to_json()),
            ("mean_ns", self.mean_ns().to_json()),
            ("p50_ns", self.p50_ns().to_json()),
            ("p99_ns", self.p99_ns().to_json()),
            ("p999_ns", self.p999_ns().to_json()),
            ("max_ns", self.max_ns().to_json()),
            ("buckets", Json::Array(buckets)),
        ])
    }
}

/// Wall-clock profile of one parallel sweep: how long jobs ran, how
/// long they waited for a worker, and how long each worker spent
/// flushing checkpoints.
#[derive(Debug, Clone, Default)]
pub struct SweepProfile {
    /// Per-job execution wall-clock.
    pub job_run: DurStat,
    /// Per-job wait between batch submission and job start.
    pub queue_wait: DurStat,
    /// Checkpoint-flush time, keyed by worker thread name.
    pub flush_by_worker: BTreeMap<String, DurStat>,
    /// Per-access detector latency across all observed runs (merged
    /// pointwise from each run's [`Histogram`]); empty unless the sweep
    /// ran with observability enabled.
    pub access_latency: Histogram,
}

impl SweepProfile {
    /// Records a checkpoint flush performed by `worker`.
    pub fn record_flush(&mut self, worker: &str, secs: f64) {
        self.flush_by_worker
            .entry(worker.to_owned())
            .or_default()
            .record(secs);
    }

    /// Writes the profile's aggregates into `reg` under `sweep.*`.
    pub fn record_into(&self, reg: &mut MetricsRegistry) {
        reg.add("sweep.jobs_profiled", self.job_run.count);
        reg.gauge("sweep.job_run_total_s", self.job_run.total_s);
        reg.gauge("sweep.job_run_mean_s", self.job_run.mean_s());
        reg.gauge("sweep.job_run_max_s", self.job_run.max_s);
        reg.gauge("sweep.queue_wait_mean_s", self.queue_wait.mean_s());
        reg.gauge("sweep.queue_wait_max_s", self.queue_wait.max_s);
        let mut flush = DurStat::default();
        for stat in self.flush_by_worker.values() {
            flush.merge(stat);
        }
        reg.add("sweep.checkpoint_flushes", flush.count);
        reg.gauge("sweep.checkpoint_flush_total_s", flush.total_s);
        reg.gauge("sweep.checkpoint_flush_max_s", flush.max_s);
        reg.add("sweep.access_latency_samples", self.access_latency.count());
        if !self.access_latency.is_empty() {
            let lat = &self.access_latency;
            reg.gauge("sweep.access_latency_mean_ns", lat.mean_ns());
            reg.gauge("sweep.access_latency_p50_ns", lat.p50_ns() as f64);
            reg.gauge("sweep.access_latency_p99_ns", lat.p99_ns() as f64);
            reg.gauge("sweep.access_latency_p999_ns", lat.p999_ns() as f64);
            reg.gauge("sweep.access_latency_max_ns", lat.max_ns() as f64);
        }
    }
}

impl ToJson for SweepProfile {
    fn to_json(&self) -> Json {
        obj(vec![
            ("job_run", self.job_run.to_json()),
            ("queue_wait", self.queue_wait.to_json()),
            (
                "flush_by_worker",
                Json::Object(
                    self.flush_by_worker
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            ("access_latency", self.access_latency.to_json()),
        ])
    }
}

/// Wall-clock and failure profile of one supervised, multi-process
/// sharded campaign (the cord-shard coordinator): worker retries,
/// heartbeat misses, backoff sleeps, abandonments, and per-shard
/// worker wall-time.
///
/// Everything here is timing- or failure-dependent, so the coordinator
/// records it into a *separate* supervision document, never into the
/// deterministic merged metrics that byte-identity is checked over.
#[derive(Debug, Clone, Default)]
pub struct SupervisionProfile {
    /// Worker respawns after a crash or hang (chaos kills included).
    pub retries: u64,
    /// Heartbeat timeouts that led to a worker being killed.
    pub heartbeat_misses: u64,
    /// Shards abandoned after exhausting their retry budget.
    pub abandoned: u64,
    /// Workers killed by chaos mode (subset of `retries`' causes).
    pub chaos_kills: u64,
    /// Total milliseconds spent sleeping in retry backoff.
    pub backoff_ms: u64,
    /// Worker wall-clock across all shard attempts.
    pub shard_wall: DurStat,
    /// Worker wall-clock keyed by shard label (e.g. `"shard-3"`).
    pub shard_wall_by_shard: BTreeMap<String, DurStat>,
}

impl SupervisionProfile {
    /// Records one worker attempt for `shard` that ran `secs` seconds.
    pub fn record_shard_wall(&mut self, shard: &str, secs: f64) {
        self.shard_wall.record(secs);
        self.shard_wall_by_shard
            .entry(shard.to_owned())
            .or_default()
            .record(secs);
    }

    /// Writes the profile's aggregates into `reg` under `shard.*`.
    pub fn record_into(&self, reg: &mut MetricsRegistry) {
        reg.add("shard.retries", self.retries);
        reg.add("shard.heartbeat_misses", self.heartbeat_misses);
        reg.add("shard.abandoned", self.abandoned);
        reg.add("shard.chaos_kills", self.chaos_kills);
        reg.add("shard.backoff_ms", self.backoff_ms);
        reg.add("shard.worker_attempts", self.shard_wall.count);
        reg.gauge("shard.worker_wall_total_s", self.shard_wall.total_s);
        reg.gauge("shard.worker_wall_mean_s", self.shard_wall.mean_s());
        reg.gauge("shard.worker_wall_max_s", self.shard_wall.max_s);
        for (shard, stat) in &self.shard_wall_by_shard {
            reg.gauge(&format!("shard.worker_wall_s.{shard}"), stat.total_s);
        }
    }
}

impl ToJson for SupervisionProfile {
    fn to_json(&self) -> Json {
        obj(vec![
            ("retries", self.retries.to_json()),
            ("heartbeat_misses", self.heartbeat_misses.to_json()),
            ("abandoned", self.abandoned.to_json()),
            ("chaos_kills", self.chaos_kills.to_json()),
            ("backoff_ms", self.backoff_ms.to_json()),
            ("shard_wall", self.shard_wall.to_json()),
            (
                "shard_wall_by_shard",
                Json::Object(
                    self.shard_wall_by_shard
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            thread: 0,
            kind: EventKind::MemtsBroadcast { count: 1 },
        }
    }

    #[test]
    fn histogram_empty_reports_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.p999_ns(), 0);
    }

    #[test]
    fn histogram_records_and_buckets_log2() {
        let mut h = Histogram::new();
        for ns in [0, 1, 3, 100, 1000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 1000);
        assert_eq!(h.mean_ns(), 1104.0 / 5.0);
        // 3 → bucket [2,4): upper bound 4; the median of
        // {0, 1, 3, 100, 1000} lands there.
        assert_eq!(h.p50_ns(), 4);
        // Tail quantiles resolve to the top bucket, clamped to the
        // observed max (1024-bucket upper bound would overshoot).
        assert_eq!(h.p99_ns(), 1000);
        assert_eq!(h.p999_ns(), 1000);
    }

    #[test]
    fn histogram_quantile_error_is_bounded_by_bucket_width() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record_ns(700);
        }
        // All mass in bucket [512, 1024): every quantile reports the
        // bucket's upper bound clamped to the observed max — within 2×
        // of the true value.
        for q in [0.01, 0.5, 0.99, 0.999] {
            assert_eq!(h.quantile_ns(q), 700);
        }
        h.record_ns(10_000_000);
        assert_eq!(h.p50_ns(), 1024); // now unclamped: true upper bound
        assert_eq!(h.p999_ns(), 1024);
        assert_eq!(h.max_ns(), 10_000_000);
    }

    #[test]
    fn histogram_merge_is_pointwise_and_preserves_extrema() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_ns(10);
        a.record_ns(20);
        b.record_ns(5);
        b.record_ns(40_000);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.min_ns(), 5);
        assert_eq!(merged.max_ns(), 40_000);
        // Merging an empty histogram is the identity.
        let before = merged.clone();
        merged.merge(&Histogram::new());
        assert_eq!(merged, before);
        // Merge order does not matter.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(other, merged);
    }

    #[test]
    fn histogram_json_uses_sparse_buckets() {
        let mut h = Histogram::new();
        h.record_ns(3);
        h.record_ns(3);
        h.record_ns(1000);
        let doc = h.to_json();
        let uint = |j: &Json| match j {
            Json::UInt(u) => *u,
            other => panic!("expected integer, got {other:?}"),
        };
        assert_eq!(uint(doc.field("count").expect("count")), 3);
        assert_eq!(uint(doc.field("min_ns").expect("min_ns")), 3);
        assert_eq!(uint(doc.field("max_ns").expect("max_ns")), 1000);
        let buckets = doc
            .field("buckets")
            .expect("buckets")
            .as_array()
            .expect("buckets array");
        // Two non-empty buckets: [2,4) with 2 samples, [512,1024) with 1.
        assert_eq!(buckets.len(), 2);
        let pair = buckets[0].as_array().expect("pair");
        assert_eq!(uint(&pair[0]), 2);
        assert_eq!(uint(&pair[1]), 2);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = EventRing::new(2);
        r.push(ev(1));
        r.push(ev(2));
        r.push(ev(3));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        let cycles: Vec<u64> = r.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3]);
    }

    #[test]
    fn disabled_handle_never_builds_payloads() {
        let h = TraceHandle::disabled();
        assert!(!h.is_enabled());
        h.emit(|| unreachable!("disabled handle must not call the closure"));
        assert!(h.snapshot().is_empty());
        assert_eq!(h.to_json(), Json::Null);
    }

    #[test]
    fn clones_share_one_ring() {
        let a = TraceHandle::bounded(8);
        let b = a.clone();
        a.emit(|| ev(1));
        b.emit(|| ev(2));
        assert_eq!(a.snapshot().len(), 2);
        assert_eq!(b.snapshot().len(), 2);
    }

    #[test]
    fn events_serialize_with_kind_tag() {
        let e = TraceEvent {
            cycle: 7,
            thread: 3,
            kind: EventKind::Bus {
                bus: BusKind::Ts,
                line: 42,
            },
        };
        let text = e.to_json().to_string_compact();
        assert_eq!(
            text,
            "{\"cycle\":7,\"thread\":3,\"kind\":\"bus\",\"bus\":\"ts\",\"line\":42}"
        );
    }

    #[test]
    fn registry_adds_merges_and_roundtrips() {
        let mut a = MetricsRegistry::new();
        a.add("sim.data_reads", 5);
        a.add("sim.data_reads", 2);
        a.gauge("sweep.job_run_max_s", 0.25);
        let mut b = MetricsRegistry::new();
        b.add("sim.data_reads", 3);
        b.add("cord.data_races", 1);
        a.merge(&b);
        assert_eq!(a.counter("sim.data_reads"), 10);
        assert_eq!(a.counter("cord.data_races"), 1);
        assert_eq!(a.counter("absent"), 0);
        let back = MetricsRegistry::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn dur_stat_tracks_mean_and_max() {
        let mut d = DurStat::default();
        d.record(0.5);
        d.record(1.5);
        assert_eq!(d.count, 2);
        assert!((d.mean_s() - 1.0).abs() < 1e-12);
        assert!((d.max_s - 1.5).abs() < 1e-12);
        let mut p = SweepProfile {
            job_run: d,
            ..SweepProfile::default()
        };
        p.record_flush("cord-pool-0", 0.01);
        p.record_flush("cord-pool-0", 0.03);
        p.record_flush("cord-pool-1", 0.02);
        let mut reg = MetricsRegistry::new();
        p.record_into(&mut reg);
        assert_eq!(reg.counter("sweep.checkpoint_flushes"), 3);
        assert_eq!(reg.gauge_value("sweep.job_run_max_s"), Some(1.5));
    }

    #[test]
    fn supervision_profile_records_shard_metrics() {
        let mut p = SupervisionProfile {
            retries: 3,
            heartbeat_misses: 1,
            abandoned: 1,
            chaos_kills: 2,
            backoff_ms: 750,
            ..SupervisionProfile::default()
        };
        p.record_shard_wall("shard-0", 1.0);
        p.record_shard_wall("shard-0", 2.0);
        p.record_shard_wall("shard-1", 0.5);
        let mut reg = MetricsRegistry::new();
        p.record_into(&mut reg);
        assert_eq!(reg.counter("shard.retries"), 3);
        assert_eq!(reg.counter("shard.heartbeat_misses"), 1);
        assert_eq!(reg.counter("shard.abandoned"), 1);
        assert_eq!(reg.counter("shard.chaos_kills"), 2);
        assert_eq!(reg.counter("shard.backoff_ms"), 750);
        assert_eq!(reg.counter("shard.worker_attempts"), 3);
        assert_eq!(reg.gauge_value("shard.worker_wall_max_s"), Some(2.0));
        assert_eq!(reg.gauge_value("shard.worker_wall_s.shard-0"), Some(3.0));
        // JSON render keeps per-shard breakdown.
        let j = p.to_json().to_string_compact();
        assert!(j.contains("\"shard-1\""), "{j}");
    }
}
