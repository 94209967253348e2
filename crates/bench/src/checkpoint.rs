//! Checkpoint/resume for injection sweeps.
//!
//! A full sweep is minutes of simulation; losing it to a crash or a
//! ^C near the end means starting over. A
//! [`SweepRunner`](crate::runner::SweepRunner) with a
//! [`checkpoint`](crate::runner::SweepRunner::checkpoint) path
//! serializes the partial [`SweepResults`](crate::sweep::SweepResults)
//! to a JSON checkpoint after
//! every completed [`AppSweep`], keyed by a hash of the sweep options
//! and configuration set; a restart with the same parameters loads the
//! checkpoint and skips the apps already swept. Because every run is
//! seeded deterministically (see [`run_seed`](crate::sweep::run_seed)),
//! a resumed sweep is bit-identical to an uninterrupted one.
//!
//! Checkpoint file layout:
//!
//! ```json
//! {
//!   "options_hash": 1234567,
//!   "options": { ... },
//!   "apps": [ { "app": "barnes", ... }, ... ]
//! }
//! ```

use crate::sweep::{AppSweep, SweepOptions};
use cord_detectors::DetectorConfig;
use cord_json::durable::{self, RecoveryEvent};
use cord_json::{obj, FromJson, Json, ToJson};
use std::io;
use std::path::Path;

/// Hash identifying a (options, configuration set) pair. A checkpoint
/// written under a different hash is ignored rather than resumed: its
/// per-run seeds and targets would not line up.
pub fn options_hash(opts: &SweepOptions, configs: &[DetectorConfig]) -> u64 {
    // FNV-1a over the canonical option encoding plus the config labels.
    let mut canonical = opts.to_json().to_string_compact();
    for c in configs {
        canonical.push('|');
        canonical.push_str(&c.label());
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A partially completed sweep loaded from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The [`options_hash`] the partial results were produced under.
    pub options_hash: u64,
    /// The options of the interrupted sweep.
    pub options: SweepOptions,
    /// Apps already swept, in sweep order.
    pub apps: Vec<AppSweep>,
}

impl Checkpoint {
    fn to_json(&self) -> Json {
        obj(vec![
            ("options_hash", self.options_hash.to_json()),
            ("options", self.options.to_json()),
            ("apps", self.apps.to_json()),
        ])
    }

    fn from_doc(v: &Json) -> Result<Checkpoint, cord_json::JsonError> {
        Ok(Checkpoint {
            options_hash: u64::from_json(v.field("options_hash")?)?,
            options: SweepOptions::from_json(v.field("options")?)?,
            apps: Vec::<AppSweep>::from_json(v.field("apps")?)?,
        })
    }

    /// Loads a checkpoint if `path` holds (or its `.prev` generation
    /// holds) a verifiable document with a matching hash, along with
    /// any recovery warnings (truncated/garbled generations skipped).
    /// A missing file, corrupt-and-unrecoverable state, or a hash
    /// mismatch all mean "start from scratch" — never an error that
    /// kills the sweep.
    pub fn load_matching_with_warnings(
        path: &Path,
        hash: u64,
    ) -> (Option<Checkpoint>, Vec<RecoveryEvent>) {
        let load = durable::load_checkpoint(path);
        let mut warnings = load.warnings;
        if load.from_previous {
            warnings.push(RecoveryEvent::new(
                "resumed-previous",
                path,
                "resumed from previous good generation",
            ));
        }
        let cp = load
            .doc
            .and_then(|doc| match Checkpoint::from_doc(&doc) {
                Ok(cp) => Some(cp),
                Err(e) => {
                    warnings.push(RecoveryEvent::new(
                        "malformed-document",
                        path,
                        format!("verified but malformed ({e}); ignoring"),
                    ));
                    None
                }
            })
            .filter(|cp| cp.options_hash == hash);
        (cp, warnings)
    }

    /// [`Self::load_matching_with_warnings`] with warnings forwarded to
    /// stderr — the right default for CLI drivers.
    pub fn load_matching(path: &Path, hash: u64) -> Option<Checkpoint> {
        let (cp, warnings) = Checkpoint::load_matching_with_warnings(path, hash);
        for w in warnings {
            eprintln!("warning: {w}");
        }
        cp
    }

    /// Writes the checkpoint durably: sealed with a length+checksum
    /// footer, written crash-atomically (temp file in the same
    /// directory, fsync, rename), with the previous verified-good
    /// generation rotated to `<path>.prev` as a corruption fallback.
    pub fn store(&self, path: &Path) -> io::Result<()> {
        durable::write_checkpoint(path, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ScaleClassOpt;

    fn quick_opts() -> SweepOptions {
        SweepOptions {
            injections_per_app: 2,
            scale: ScaleClassOpt::Tiny,
            threads: 4,
            seed: 13,
            ..SweepOptions::default()
        }
    }

    #[test]
    fn hash_depends_on_options_and_configs() {
        let a = options_hash(&quick_opts(), &[DetectorConfig::Cord { d: 16 }]);
        let b = options_hash(
            &SweepOptions {
                seed: 14,
                ..quick_opts()
            },
            &[DetectorConfig::Cord { d: 16 }],
        );
        let c = options_hash(&quick_opts(), &[DetectorConfig::Cord { d: 4 }]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            a,
            options_hash(&quick_opts(), &[DetectorConfig::Cord { d: 16 }])
        );
    }

    #[test]
    fn mismatched_checkpoints_are_ignored() {
        let dir = std::env::temp_dir().join("cord-checkpoint-test-mismatch");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sweep.json");
        let cp = Checkpoint {
            options_hash: 1,
            options: quick_opts(),
            apps: Vec::new(),
        };
        cp.store(&path).expect("store");
        assert_eq!(Checkpoint::load_matching(&path, 1), Some(cp));
        assert_eq!(Checkpoint::load_matching(&path, 2), None);
        std::fs::write(&path, "not json").expect("write");
        assert_eq!(Checkpoint::load_matching(&path, 1), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_previous_generation() {
        let dir = std::env::temp_dir().join("cord-checkpoint-test-fallback");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sweep.json");
        let cp = Checkpoint {
            options_hash: 9,
            options: quick_opts(),
            apps: Vec::new(),
        };
        cp.store(&path).expect("store gen 1");
        cp.store(&path)
            .expect("store gen 2 (rotates gen 1 to .prev)");
        // Truncate the primary mid-"write": the checksum footer catches
        // it and the loader recovers from .prev with a warning.
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");
        let (loaded, warnings) = Checkpoint::load_matching_with_warnings(&path, 9);
        assert_eq!(loaded, Some(cp));
        assert!(
            warnings
                .iter()
                .any(|w| w.to_string().contains("previous good generation")),
            "{warnings:?}"
        );
        assert!(
            warnings.iter().any(|w| w.kind == "resumed-previous"),
            "{warnings:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
