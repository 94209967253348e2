//! `cord-serve`: detection as a long-running service.
//!
//! The sink redesign in `cord-core` made detectors independent of the
//! simulator: a [`DetectorSink`](cord_core::DetectorSink) consumes
//! reified [`StreamEvent`](cord_obs::StreamEvent)s from *any* producer.
//! This crate is the producer-agnostic half of that bargain — a daemon
//! that ingests event streams over a Unix domain socket, runs the
//! detector the stream's header names, and answers queries about what
//! it has seen, all with the same wire format (`cord_obs::wire`) a
//! capture file uses.
//!
//! The load-bearing contract: **replaying a captured stream through the
//! daemon produces a race report bit-identical to inline detection.**
//! Inline detection *is* stream ingestion (the Machine path is a
//! `SinkObserver` adapter over the sink API), so the daemon and the
//! simulator literally execute the same detector code on the same event
//! sequence; the cord-fuzz oracle and the CI smoke hold the two byte
//! streams against each other.
//!
//! Architecture (one session = one ingesting connection):
//!
//! * a **reader** thread decodes length-prefixed frames off the socket
//!   and hands event batches to the session worker over a *bounded*
//!   queue — when the detector falls behind, the queue fills, the
//!   reader blocks, the socket buffer fills, and the producer stalls:
//!   end-to-end backpressure with no unbounded buffering. The reader
//!   also rejects any event whose thread, core or line is at or past
//!   the header's geometry with
//!   [`ServeError::OutOfGeometry`](crate::ServeError::OutOfGeometry),
//!   and any access or `RunEnd` that does not take its thread's
//!   instruction index past its last access with
//!   [`ServeError::InstrOrder`](crate::ServeError::InstrOrder), so such
//!   a session fails alone instead of indexing out of bounds, growing
//!   its shadow state without bound or panicking in the worker. Before
//!   any of that, a header declaring zero threads or cores, or more
//!   than [`MAX_STREAM_THREADS`] / [`MAX_STREAM_CORES`] /
//!   [`MAX_STREAM_DATA_WORDS`] / [`MAX_STREAM_SYNC_OBJECTS`], is refused
//!   with
//!   [`ServeError::HeaderGeometry`](crate::ServeError::HeaderGeometry),
//!   so no sink is sized from it;
//! * a **worker** thread owns the detector sink and ingests batches in
//!   order. Detection itself is sequential — CORD's thread clocks are
//!   global state, which is the paper's whole point. Ingest latency is
//!   sampled (a session's first `Access` and every 64th after it), so
//!   the clock stays off the per-event path;
//! * periodic **snapshots** land as durable `cord-json` documents
//!   (sealed, crash-atomic, previous-generation rotation); abnormal
//!   recoveries at startup surface as structured
//!   [`RecoveryEvent`](cord_json::durable::RecoveryEvent)s in `status`
//!   responses instead of stderr noise.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::ServeClient;
pub use protocol::{Query, ServeError, FRAME_QUERY, FRAME_RESPONSE};
pub use server::{
    Daemon, DaemonConfig, MAX_STREAM_CORES, MAX_STREAM_DATA_WORDS, MAX_STREAM_SYNC_OBJECTS,
    MAX_STREAM_THREADS,
};
