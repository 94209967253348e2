//! Detectors as event-stream sinks.
//!
//! A detector is a [`DetectorSink`]: a `MemoryObserver` that can also
//! consume [`StreamEvent`]s one at a time, whether they come from a
//! live simulator, a capture file, or a socket. The Machine-coupled
//! path is a thin adapter — [`SinkObserver`] forwards each callback to
//! the sink — and [`DetectorSink::ingest`] routes each reified event to
//! the same callback, so inline detection and stream replay execute the
//! *same* detector code on the *same* event sequence. That is what
//! makes the capture→replay byte-identity contract (enforced by the
//! cord-fuzz oracle and the cord-serve smoke) hold by construction.
//!
//! * [`ObsCtx`] — observability wiring handed to
//!   `DetectorConfig::build_sink()` at construction time, replacing the
//!   old post-construction `set_trace`/`record_metrics` mutation pair.
//! * [`SinkReport`] — what [`DetectorSink::drain`] returns: the race
//!   report plus metrics, with a canonical byte serialization
//!   ([`SinkReport::to_bytes`]) that replay legs compare bit-for-bit.
//! * [`apply_stream_event`] — the one dispatch table from reified
//!   events back to observer callbacks.
//! * [`CaptureObserver`] — tee: records the event stream while
//!   forwarding it, without perturbing the inner observer.
//! * [`FanOutObserver`] — several observers on one machine run: a
//!   leader whose outcome reaches the machine, and passive followers.

use cord_json::{obj, FromJson, Json, JsonError, ToJson};
use cord_obs::{MetricsRegistry, ObserverOutcome, StreamEvent, TraceHandle};
use cord_sim::observer::{AccessEvent, CoreId, Level, LineRemoval, MemoryObserver};
use cord_trace::types::{LineAddr, ThreadId};

/// Observability context handed to a sink at construction time: one
/// value instead of the old `set_trace` + `record_metrics` mutation
/// pair. Metrics now travel *out* of the sink (in
/// [`SinkReport::metrics`]); the trace handle travels *in* here.
#[derive(Debug, Clone, Default)]
pub struct ObsCtx {
    /// Run-event trace sink; [`TraceHandle::disabled`] for no tracing.
    pub trace: TraceHandle,
}

impl ObsCtx {
    /// No observability: disabled trace handle.
    pub fn disabled() -> Self {
        ObsCtx::default()
    }

    /// Wires a trace handle in.
    pub fn with_trace(trace: TraceHandle) -> Self {
        ObsCtx { trace }
    }
}

/// The drained result of a detector sink: who checked, what it found,
/// and the counters it accumulated.
///
/// The compact-JSON byte serialization ([`SinkReport::to_bytes`]) is
/// the unit of the capture→replay contract: a daemon replaying a
/// captured stream must drain to bytes identical to inline detection.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkReport {
    /// Detector label (e.g. `"CORD-D16"`).
    pub detector: String,
    /// Number of races reported.
    pub race_count: u64,
    /// Per-race records, detector-specific but stably serialized.
    pub races: Vec<Json>,
    /// Detector counters (empty for detectors without structured stats).
    pub metrics: MetricsRegistry,
}

impl SinkReport {
    /// An empty report for `detector`.
    pub fn new(detector: impl Into<String>) -> Self {
        SinkReport {
            detector: detector.into(),
            race_count: 0,
            races: Vec::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Canonical byte serialization (compact JSON). Two reports are
    /// *the same report* iff these bytes are equal.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_json().to_string_compact().into_bytes()
    }
}

impl ToJson for SinkReport {
    fn to_json(&self) -> Json {
        obj(vec![
            ("detector", self.detector.to_json()),
            ("race_count", self.race_count.to_json()),
            ("races", Json::Array(self.races.clone())),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

impl FromJson for SinkReport {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(SinkReport {
            detector: FromJson::from_json(v.field("detector")?)?,
            race_count: FromJson::from_json(v.field("race_count")?)?,
            races: v.field("races")?.as_array()?.to_vec(),
            metrics: FromJson::from_json(v.field("metrics")?)?,
        })
    }
}

/// A race detector: a [`MemoryObserver`] that can also consume reified
/// [`StreamEvent`]s and report what it found. This is the one detector
/// trait, shared by inline simulation, capture replay, and the
/// cord-serve daemon.
///
/// Inline detection calls the `MemoryObserver` callbacks directly (via
/// [`SinkObserver`]); replay calls [`DetectorSink::ingest`], which
/// routes each event to the same callbacks through
/// [`apply_stream_event`]. Both routes therefore make the same calls in
/// the same order, which is what the capture→replay byte-identity
/// contract rests on.
///
/// `Send` is a supertrait because sinks are built on one thread and
/// driven on another (sweep workers, daemon sessions).
pub trait DetectorSink: MemoryObserver + Send {
    /// Number of data races reported so far.
    fn race_count(&self) -> u64;

    /// Consumes one event, returning any extra bus work it caused (only
    /// meaningful to a live simulator; replay drivers ignore it).
    #[inline]
    fn ingest(&mut self, ev: &StreamEvent) -> ObserverOutcome {
        apply_stream_event(self, ev)
    }

    /// A synchronization point: any buffered work must be applied
    /// before `flush` returns. The default is a no-op for sinks that
    /// apply events eagerly.
    fn flush(&mut self) {}

    /// Produces the race report accumulated so far. Does not reset the
    /// sink; draining twice yields the same report.
    fn drain(&mut self) -> SinkReport;
}

/// Dispatches one reified event to the matching [`MemoryObserver`]
/// callback — the single translation table between the wire vocabulary
/// and the callback vocabulary. [`StreamEvent::Trace`] passthroughs are
/// not detector inputs and are ignored.
pub fn apply_stream_event<O: MemoryObserver + ?Sized>(
    obs: &mut O,
    ev: &StreamEvent,
) -> ObserverOutcome {
    match ev {
        StreamEvent::Access(a) => obs.on_access(a),
        StreamEvent::LineFilled { core, level, line } => {
            obs.on_line_filled(*core, *level, *line);
            ObserverOutcome::NONE
        }
        StreamEvent::LineRemoved(r) => obs.on_line_removed(r),
        StreamEvent::ThreadMigrated { thread, from, to } => {
            obs.on_thread_migrated(*thread, *from, *to);
            ObserverOutcome::NONE
        }
        StreamEvent::RunEnd { instr_counts } => {
            obs.on_run_end(instr_counts);
            ObserverOutcome::NONE
        }
        StreamEvent::Trace(_) => ObserverOutcome::NONE,
    }
}

/// The thin adapter that attaches a sink to a `Machine`: each observer
/// callback goes straight to the sink's own `MemoryObserver` method,
/// and the run's end also calls [`DetectorSink::flush`]. Replaying a
/// capture through [`DetectorSink::ingest`] makes the same calls in the
/// same order.
#[derive(Debug)]
pub struct SinkObserver<S> {
    sink: S,
}

impl<S> SinkObserver<S> {
    /// Wraps a sink for attachment to a `Machine`.
    pub fn new(sink: S) -> Self {
        SinkObserver { sink }
    }

    /// The wrapped sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The wrapped sink, mutably.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Unwraps the sink.
    pub fn into_inner(self) -> S {
        self.sink
    }
}

impl<S: DetectorSink> MemoryObserver for SinkObserver<S> {
    #[inline]
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        self.sink.on_access(ev)
    }

    #[inline]
    fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
        self.sink.on_line_filled(core, level, line);
    }

    #[inline]
    fn on_line_removed(&mut self, removal: &LineRemoval) -> ObserverOutcome {
        self.sink.on_line_removed(removal)
    }

    #[inline]
    fn on_thread_migrated(&mut self, thread: ThreadId, from: CoreId, to: CoreId) {
        self.sink.on_thread_migrated(thread, from, to);
    }

    fn on_run_end(&mut self, final_instr_counts: &[u64]) {
        self.sink.on_run_end(final_instr_counts);
        self.sink.flush();
    }
}

/// Several observers on one machine run, led by the first: each
/// callback goes to every member, in member order, and the leader's
/// [`ObserverOutcome`] is what the machine sees. The leader may act
/// (charge the bus, as CORD does); every follower must be passive — a
/// follower that charged the bus would change the interleaving its
/// siblings see — so the fan-out panics unless each follower returns
/// [`ObserverOutcome::NONE`]. Followers thus observe exactly the run the
/// leader would have had alone. Members are [`SinkObserver`]s (or
/// wrappers of them), so the run's end reaches each member's
/// `on_run_end` and then its sink's [`DetectorSink::flush`].
#[derive(Debug)]
pub struct FanOutObserver<O> {
    leader: O,
    followers: Vec<O>,
}

impl<O> FanOutObserver<O> {
    /// Attaches `members` to one run; `members[0]` leads.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty: a fan-out needs a leader.
    pub fn new(members: Vec<O>) -> Self {
        let mut members = members.into_iter();
        let leader = members.next().expect("a fan-out needs a leader");
        FanOutObserver {
            leader,
            followers: members.collect(),
        }
    }

    /// Unwraps the members, in order, leader first.
    pub fn into_members(self) -> Vec<O> {
        std::iter::once(self.leader).chain(self.followers).collect()
    }
}

impl<O: MemoryObserver> FanOutObserver<O> {
    /// Hands one callback to every follower. The loop stays out of line
    /// so that a lone leader's run keeps the leader's own hot path.
    #[inline]
    fn follow(&mut self, f: impl FnMut(&mut O) -> ObserverOutcome) {
        if !self.followers.is_empty() {
            follow_all(&mut self.followers, f);
        }
    }
}

/// Calls `f` on each follower, asserting that none charges the bus.
#[inline(never)]
fn follow_all<O>(followers: &mut [O], mut f: impl FnMut(&mut O) -> ObserverOutcome) {
    for m in followers {
        assert_eq!(
            f(m),
            ObserverOutcome::NONE,
            "a fan-out follower charged the bus; only passive observers may follow a machine run"
        );
    }
}

impl<O: MemoryObserver> MemoryObserver for FanOutObserver<O> {
    #[inline]
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        let out = self.leader.on_access(ev);
        self.follow(|m| m.on_access(ev));
        out
    }

    #[inline]
    fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
        self.leader.on_line_filled(core, level, line);
        self.follow(|m| {
            m.on_line_filled(core, level, line);
            ObserverOutcome::NONE
        });
    }

    #[inline]
    fn on_line_removed(&mut self, removal: &LineRemoval) -> ObserverOutcome {
        let out = self.leader.on_line_removed(removal);
        self.follow(|m| m.on_line_removed(removal));
        out
    }

    #[inline]
    fn on_thread_migrated(&mut self, thread: ThreadId, from: CoreId, to: CoreId) {
        self.leader.on_thread_migrated(thread, from, to);
        self.follow(|m| {
            m.on_thread_migrated(thread, from, to);
            ObserverOutcome::NONE
        });
    }

    fn on_run_end(&mut self, final_instr_counts: &[u64]) {
        self.leader.on_run_end(final_instr_counts);
        self.follow(|m| {
            m.on_run_end(final_instr_counts);
            ObserverOutcome::NONE
        });
    }
}

/// A per-access latency profiler: times each `on_access` callback of
/// the wrapped observer and records it into a
/// [`Histogram`](cord_obs::Histogram), forwarding everything unchanged.
///
/// This wrapper exists so the hot path stays provably zero-cost when
/// profiling is off: instead of a branch (or worse, a clock read) inside
/// every access, the sweep instantiates `Machine<LatencyObserver<...>>`
/// only when observability is enabled, and the plain
/// `Machine<SinkObserver<...>>` otherwise — the disabled path never even
/// contains the timing code. Latencies are timing-dependent by nature,
/// so the harvested histogram must only flow into the profile side of
/// sweep output, never into deterministic results.
#[derive(Debug)]
pub struct LatencyObserver<O> {
    inner: O,
    hist: cord_obs::Histogram,
}

impl<O> LatencyObserver<O> {
    /// Wraps `inner` with an empty histogram.
    pub fn new(inner: O) -> Self {
        LatencyObserver {
            inner,
            hist: cord_obs::Histogram::new(),
        }
    }

    /// The wrapped observer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The latency histogram collected so far.
    pub fn histogram(&self) -> &cord_obs::Histogram {
        &self.hist
    }

    /// Unwraps into `(inner, histogram)`.
    pub fn into_parts(self) -> (O, cord_obs::Histogram) {
        (self.inner, self.hist)
    }
}

impl<O: MemoryObserver> MemoryObserver for LatencyObserver<O> {
    #[inline]
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        let start = std::time::Instant::now();
        let out = self.inner.on_access(ev);
        self.hist.record_ns(start.elapsed().as_nanos() as u64);
        out
    }

    #[inline]
    fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
        self.inner.on_line_filled(core, level, line);
    }

    #[inline]
    fn on_line_removed(&mut self, removal: &LineRemoval) -> ObserverOutcome {
        self.inner.on_line_removed(removal)
    }

    #[inline]
    fn on_thread_migrated(&mut self, thread: ThreadId, from: CoreId, to: CoreId) {
        self.inner.on_thread_migrated(thread, from, to);
    }

    fn on_run_end(&mut self, final_instr_counts: &[u64]) {
        self.inner.on_run_end(final_instr_counts);
    }
}

/// A tee observer: records every event as a [`StreamEvent`] while
/// forwarding it (and its outcome) unchanged to the inner observer.
/// Wrapping a detector in a capture changes nothing about the run —
/// which is exactly why a capture replayed through a fresh sink must
/// reproduce the inline result bit-for-bit.
#[derive(Debug)]
pub struct CaptureObserver<O> {
    inner: O,
    events: Vec<StreamEvent>,
}

impl<O> CaptureObserver<O> {
    /// Wraps `inner`, capturing into an empty buffer.
    pub fn new(inner: O) -> Self {
        CaptureObserver {
            inner,
            events: Vec::new(),
        }
    }

    /// The captured events so far.
    pub fn events(&self) -> &[StreamEvent] {
        &self.events
    }

    /// The wrapped observer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps into `(inner, captured events)`.
    pub fn into_parts(self) -> (O, Vec<StreamEvent>) {
        (self.inner, self.events)
    }
}

impl<O: MemoryObserver> MemoryObserver for CaptureObserver<O> {
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        self.events.push(StreamEvent::Access(*ev));
        self.inner.on_access(ev)
    }

    fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
        self.events
            .push(StreamEvent::LineFilled { core, level, line });
        self.inner.on_line_filled(core, level, line)
    }

    fn on_line_removed(&mut self, removal: &LineRemoval) -> ObserverOutcome {
        self.events.push(StreamEvent::LineRemoved(*removal));
        self.inner.on_line_removed(removal)
    }

    fn on_thread_migrated(&mut self, thread: ThreadId, from: CoreId, to: CoreId) {
        self.events
            .push(StreamEvent::ThreadMigrated { thread, from, to });
        self.inner.on_thread_migrated(thread, from, to)
    }

    fn on_run_end(&mut self, final_instr_counts: &[u64]) {
        self.events.push(StreamEvent::RunEnd {
            instr_counts: final_instr_counts.to_vec(),
        });
        self.inner.on_run_end(final_instr_counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_obs::AccessKind;
    use cord_trace::types::Addr;
    use std::sync::{Arc, Mutex};

    /// A sink that logs every callback it receives, in order.
    #[derive(Default)]
    struct LoggingSink {
        calls: Vec<&'static str>,
    }

    impl MemoryObserver for LoggingSink {
        fn on_access(&mut self, _ev: &AccessEvent) -> ObserverOutcome {
            self.calls.push("access");
            ObserverOutcome::NONE
        }

        fn on_line_filled(&mut self, _core: CoreId, _level: Level, _line: LineAddr) {
            self.calls.push("filled");
        }

        fn on_line_removed(&mut self, _removal: &LineRemoval) -> ObserverOutcome {
            self.calls.push("removed");
            ObserverOutcome::NONE
        }

        fn on_thread_migrated(&mut self, _thread: ThreadId, _from: CoreId, _to: CoreId) {
            self.calls.push("migrated");
        }

        fn on_run_end(&mut self, _final_instr_counts: &[u64]) {
            self.calls.push("run_end");
        }
    }

    impl DetectorSink for LoggingSink {
        fn race_count(&self) -> u64 {
            0
        }

        fn flush(&mut self) {
            self.calls.push("flush");
        }

        fn drain(&mut self) -> SinkReport {
            let mut r = SinkReport::new("logging");
            r.metrics.add("test.calls", self.calls.len() as u64);
            r
        }
    }

    fn access(addr: u64) -> AccessEvent {
        AccessEvent {
            core: CoreId(0),
            thread: ThreadId(0),
            addr: Addr::new(addr),
            kind: AccessKind::DataRead,
            path: cord_obs::AccessPath::L1Hit,
            instr_index: 0,
            cycle: 0,
        }
    }

    #[test]
    fn sink_observer_forwards_every_callback_then_flushes() {
        let mut obs = SinkObserver::new(LoggingSink::default());
        obs.on_access(&access(0x40));
        obs.on_line_filled(CoreId(1), Level::L2, LineAddr(3));
        obs.on_line_removed(&LineRemoval {
            core: CoreId(1),
            level: Level::L2,
            line: LineAddr(3),
            cause: cord_obs::RemovalCause::Capacity,
            dirty: false,
        });
        obs.on_thread_migrated(ThreadId(0), CoreId(0), CoreId(1));
        obs.on_run_end(&[5, 5]);
        assert_eq!(
            obs.into_inner().calls,
            ["access", "filled", "removed", "migrated", "run_end", "flush"],
            "each callback forwarded once, in order, and run end flushes"
        );
    }

    /// Callbacks as (member id, call), in the order members saw them.
    type CallLog = Arc<Mutex<Vec<(usize, &'static str)>>>;

    /// Logs each callback with its member's id into a log shared by
    /// every member, so cross-member order is visible.
    struct SharedLogSink {
        id: usize,
        log: CallLog,
        outcome: ObserverOutcome,
    }

    impl SharedLogSink {
        fn push(&self, call: &'static str) {
            self.log.lock().expect("log lock").push((self.id, call));
        }
    }

    impl MemoryObserver for SharedLogSink {
        fn on_access(&mut self, _ev: &AccessEvent) -> ObserverOutcome {
            self.push("access");
            self.outcome
        }

        fn on_line_filled(&mut self, _core: CoreId, _level: Level, _line: LineAddr) {
            self.push("filled");
        }

        fn on_line_removed(&mut self, _removal: &LineRemoval) -> ObserverOutcome {
            self.push("removed");
            ObserverOutcome::NONE
        }

        fn on_thread_migrated(&mut self, _thread: ThreadId, _from: CoreId, _to: CoreId) {
            self.push("migrated");
        }

        fn on_run_end(&mut self, _final_instr_counts: &[u64]) {
            self.push("run_end");
        }
    }

    impl DetectorSink for SharedLogSink {
        fn race_count(&self) -> u64 {
            0
        }

        fn flush(&mut self) {
            self.push("flush");
        }

        fn drain(&mut self) -> SinkReport {
            SinkReport::new("shared-log")
        }
    }

    fn fan_out(
        outcomes: &[ObserverOutcome],
    ) -> (FanOutObserver<SinkObserver<SharedLogSink>>, CallLog) {
        let log = CallLog::default();
        let members = outcomes
            .iter()
            .enumerate()
            .map(|(id, &outcome)| {
                SinkObserver::new(SharedLogSink {
                    id,
                    log: Arc::clone(&log),
                    outcome,
                })
            })
            .collect();
        (FanOutObserver::new(members), log)
    }

    #[test]
    fn fan_out_forwards_every_callback_to_every_member_in_order() {
        let (mut fan, log) = fan_out(&[ObserverOutcome::NONE, ObserverOutcome::NONE]);
        assert_eq!(fan.on_access(&access(0x40)), ObserverOutcome::NONE);
        fan.on_line_filled(CoreId(1), Level::L2, LineAddr(3));
        let removed = fan.on_line_removed(&LineRemoval {
            core: CoreId(1),
            level: Level::L2,
            line: LineAddr(3),
            cause: cord_obs::RemovalCause::Capacity,
            dirty: false,
        });
        assert_eq!(removed, ObserverOutcome::NONE);
        fan.on_thread_migrated(ThreadId(0), CoreId(0), CoreId(1));
        fan.on_run_end(&[5, 5]);
        // Each callback reaches member 0 then member 1; run end reaches
        // each member whole (its `on_run_end`, then its flush), so each
        // sink flushes exactly once.
        let expected = [
            (0, "access"),
            (1, "access"),
            (0, "filled"),
            (1, "filled"),
            (0, "removed"),
            (1, "removed"),
            (0, "migrated"),
            (1, "migrated"),
            (0, "run_end"),
            (0, "flush"),
            (1, "run_end"),
            (1, "flush"),
        ];
        assert_eq!(*log.lock().expect("log lock"), expected);
        assert_eq!(fan.into_members().len(), 2);
    }

    #[test]
    #[should_panic(expected = "only passive observers may follow a machine run")]
    fn fan_out_panics_when_a_member_charges_the_bus() {
        let (mut fan, _log) = fan_out(&[ObserverOutcome::NONE, ObserverOutcome::race_checks(1)]);
        fan.on_access(&access(0x40));
    }

    #[test]
    fn fan_out_forwards_the_leaders_outcome() {
        let charge = ObserverOutcome::race_checks(1);
        let (mut fan, log) = fan_out(&[charge, ObserverOutcome::NONE]);
        assert_eq!(fan.on_access(&access(0x40)), charge);
        assert_eq!(
            *log.lock().expect("log lock"),
            [(0, "access"), (1, "access")],
            "the passive follower still sees the access"
        );
    }

    #[test]
    fn capture_observer_is_a_transparent_tee() {
        let mut cap = CaptureObserver::new(cord_obs::NullObserver);
        cap.on_access(&access(0x80));
        cap.on_run_end(&[1]);
        let (_, events) = cap.into_parts();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], StreamEvent::Access(_)));
        assert!(matches!(events[1], StreamEvent::RunEnd { .. }));
    }

    #[test]
    fn captured_events_replay_identically_through_ingest() {
        // Capture a short callback sequence, then replay it through a
        // fresh sink via the provided `ingest`: the sink must receive
        // the same callbacks as one driven live through SinkObserver.
        let mut cap = CaptureObserver::new(SinkObserver::new(LoggingSink::default()));
        cap.on_access(&access(0x40));
        cap.on_line_filled(CoreId(0), Level::L1, LineAddr(1));
        cap.on_run_end(&[1]);
        let (live, events) = cap.into_parts();

        let mut replayed = LoggingSink::default();
        for ev in &events {
            replayed.ingest(ev);
        }
        replayed.flush();

        assert_eq!(replayed.calls, live.into_inner().calls);
    }

    #[test]
    fn sink_report_roundtrips_and_byte_compares() {
        let mut a = SinkReport::new("cord");
        a.race_count = 2;
        a.races.push(cord_json::Json::UInt(1));
        a.metrics.add("cord.data_races", 2);
        let back = SinkReport::from_json(&a.to_json()).expect("parses");
        assert_eq!(back, a);
        assert_eq!(back.to_bytes(), a.to_bytes());
        let mut b = a.clone();
        b.race_count = 3;
        assert_ne!(b.to_bytes(), a.to_bytes());
    }

    #[test]
    fn apply_ignores_trace_passthrough() {
        let outcome = apply_stream_event(
            &mut cord_obs::NullObserver,
            &StreamEvent::Trace(cord_obs::TraceEvent {
                cycle: 0,
                thread: 0,
                kind: cord_obs::EventKind::MemtsBroadcast { count: 1 },
            }),
        );
        assert_eq!(outcome, ObserverOutcome::NONE);
    }
}
