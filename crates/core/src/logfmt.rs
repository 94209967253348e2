//! Hardware encoding of the order log (§2.7.1).
//!
//! "We use 16-bit thread IDs and clock values and 32-bit instruction
//! counts, for a total of eight bytes per log entry." This module
//! implements that exact wire format. Clock values are stored truncated
//! to 16 bits; decoding reconstructs the unbounded value by tracking the
//! per-thread sliding window (clocks per thread are non-decreasing and
//! the §2.7.5 walker guarantees successive values stay within the
//! window), so a round trip through the hardware format is lossless for
//! any log a correct CORD run produces.

use crate::record::{LogEntry, LOG_ENTRY_BYTES};
use cord_clocks::scalar::ScalarTime;
use cord_clocks::window16::{self, WINDOW};
use cord_trace::types::ThreadId;
use std::fmt;

/// Errors while decoding a hardware-format log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogDecodeError {
    /// Byte length is not a multiple of eight.
    TruncatedEntry {
        /// The offending length.
        len: usize,
    },
    /// An entry's clock stepped backwards or jumped past the sliding
    /// window relative to the thread's previous entry — impossible in a
    /// log produced by a correct run.
    WindowViolation {
        /// Index of the offending entry.
        index: usize,
        /// The thread whose clock misbehaved.
        thread: ThreadId,
    },
}

impl fmt::Display for LogDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogDecodeError::TruncatedEntry { len } => {
                write!(f, "log length {len} is not a multiple of {LOG_ENTRY_BYTES}")
            }
            LogDecodeError::WindowViolation { index, thread } => {
                write!(
                    f,
                    "entry {index}: clock of {thread} outside the sliding window"
                )
            }
        }
    }
}

impl std::error::Error for LogDecodeError {}

/// Encodes entries into the paper's 8-byte format: little-endian
/// `[clock16][thread16][instructions32]`.
///
/// # Panics
///
/// Panics if an entry's instruction count exceeds the hardware's 32-bit
/// field (the recorder's overflow splitting prevents this).
pub fn encode(entries: &[LogEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * LOG_ENTRY_BYTES as usize);
    for e in entries {
        let instr = u32::try_from(e.instructions)
            .expect("recorder splits segments to fit 32-bit instruction counts");
        out.extend_from_slice(&window16::truncate(e.clock.ticks()).to_le_bytes());
        out.extend_from_slice(&e.thread.0.to_le_bytes());
        out.extend_from_slice(&instr.to_le_bytes());
    }
    out
}

/// Decodes a hardware-format log for `num_threads` threads, widening the
/// 16-bit clocks back to unbounded values via per-thread window
/// tracking.
///
/// # Errors
///
/// Returns [`LogDecodeError`] on a malformed length or a per-thread
/// clock sequence no correct run could produce.
pub fn decode(bytes: &[u8], num_threads: usize) -> Result<Vec<LogEntry>, LogDecodeError> {
    if !bytes.len().is_multiple_of(LOG_ENTRY_BYTES as usize) {
        return Err(LogDecodeError::TruncatedEntry { len: bytes.len() });
    }
    let mut last: Vec<u64> = vec![0; num_threads];
    let mut out = Vec::with_capacity(bytes.len() / LOG_ENTRY_BYTES as usize);
    for (index, chunk) in bytes.chunks_exact(LOG_ENTRY_BYTES as usize).enumerate() {
        let clock16 = u16::from_le_bytes([chunk[0], chunk[1]]);
        let thread = ThreadId(u16::from_le_bytes([chunk[2], chunk[3]]));
        let instructions = u64::from(u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]));
        let t = thread.index();
        if t >= num_threads {
            return Err(LogDecodeError::WindowViolation { index, thread });
        }
        // Widen: the clock advanced by the windowed distance from the
        // thread's previous value (possibly zero).
        let prev = last[t];
        let prev16 = window16::truncate(prev);
        if !window16::wrapped_le(prev16, clock16) {
            return Err(LogDecodeError::WindowViolation { index, thread });
        }
        let delta = u64::from(window16::wrapped_distance(prev16, clock16));
        debug_assert!(delta <= u64::from(WINDOW));
        let clock = prev + delta;
        last[t] = clock;
        out.push(LogEntry {
            clock: ScalarTime::new(clock),
            thread,
            instructions,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(clock: u64, thread: u16, instructions: u64) -> LogEntry {
        LogEntry {
            clock: ScalarTime::new(clock),
            thread: ThreadId(thread),
            instructions,
        }
    }

    #[test]
    fn roundtrip_simple_log() {
        let log = vec![
            entry(1, 0, 100),
            entry(1, 1, 50),
            entry(18, 1, 3),
            entry(2, 0, 7),
            entry(19, 1, 0),
        ];
        let bytes = encode(&log);
        assert_eq!(bytes.len(), log.len() * 8);
        let back = decode(&bytes, 2).expect("decodes");
        assert_eq!(back, log);
    }

    #[test]
    fn roundtrip_across_16bit_wrap() {
        // Per-thread clocks crossing the 2^16 boundary survive, as long
        // as successive per-thread steps stay within the window.
        // Steps of 30k stay inside the window while the absolute clock
        // crosses the 2^16 boundary twice.
        let log = vec![
            entry(1_000, 0, 1),
            entry(31_000, 0, 2),
            entry(61_000, 0, 3),
            entry(91_000, 0, 4),
            entry(121_000, 0, 5),
            entry(151_000, 0, 6),
        ];
        let back = decode(&encode(&log), 1).expect("decodes");
        assert_eq!(back, log);

        // A per-thread step in the "backwards half" of the 16-bit circle
        // (more than WINDOW, less than 2^16) is detectably impossible.
        let bad = vec![entry(0, 0, 1), entry(40_000, 0, 2)];
        let err = decode(&encode(&bad), 1).unwrap_err();
        assert!(matches!(
            err,
            LogDecodeError::WindowViolation { index: 1, .. }
        ));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = encode(&[entry(1, 0, 1)]);
        let err = decode(&bytes[..5], 1).unwrap_err();
        assert_eq!(err, LogDecodeError::TruncatedEntry { len: 5 });
    }

    #[test]
    fn out_of_range_thread_rejected() {
        let bytes = encode(&[entry(1, 7, 1)]);
        assert!(matches!(
            decode(&bytes, 2),
            Err(LogDecodeError::WindowViolation { .. })
        ));
    }

    #[test]
    fn real_recorded_log_roundtrips() {
        use crate::{CordConfig, CordDetector};
        use cord_sim::config::MachineConfig;
        use cord_sim::engine::{InjectionPlan, Machine};
        use cord_trace::builder::WorkloadBuilder;

        let mut b = WorkloadBuilder::new("codec", 2);
        let l = b.alloc_lock();
        let d = b.alloc_words(4);
        for t in 0..2 {
            for i in 0..4 {
                b.thread_mut(t)
                    .lock(l)
                    .update(d.word(i))
                    .unlock(l)
                    .compute(30);
            }
        }
        let w = b.build();
        let machine = MachineConfig::paper_4core();
        let det = CordDetector::new(CordConfig::paper(), 2, machine.cores);
        let (_, det) = Machine::new(machine, &w, det, 42, InjectionPlan::none())
            .run_stats()
            .expect("run completes");
        let log = det.recorder().entries();
        let bytes = encode(log);
        assert_eq!(bytes.len() as u64, det.recorder().bytes());
        let back = decode(&bytes, 2).expect("hardware log decodes");
        assert_eq!(back, log);
    }

    proptest! {
        /// Any log whose per-thread clocks are non-decreasing with
        /// window-bounded steps round-trips exactly.
        #[test]
        fn roundtrip_windowed_logs(
            steps in proptest::collection::vec(
                (0u16..4, 0u64..u64::from(WINDOW), 0u64..10_000),
                1..64,
            )
        ) {
            let mut clocks = [0u64; 4];
            let log: Vec<LogEntry> = steps
                .into_iter()
                .map(|(t, step, instr)| {
                    clocks[t as usize] += step;
                    entry(clocks[t as usize], t, instr)
                })
                .collect();
            let back = decode(&encode(&log), 4).expect("decodes");
            prop_assert_eq!(back, log);
        }
    }
}
