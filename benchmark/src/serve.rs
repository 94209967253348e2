//! `serve-replay`: streaming detection through the `cord-serve` daemon.
//!
//! Set-up captures one injected run of each of the twelve apps at Small
//! scale under CORD-D16, Ideal and L2Cache(VC) (36 streams) and encodes
//! each with the wire codec. A round starts a daemon in this process
//! and replays the streams round-robin from one client in a closed
//! loop; every report must be byte-identical to the inline one. The
//! wire codec, the daemon and detector ingest do all the work and the
//! simulator none, so a simulator-only change reads "no change" here.
//!
//! Each round gets a fresh daemon because a daemon keeps every race it
//! has drained (for its `races` query): over a long run its memory
//! grows with the number of replays, which would tie peak memory to
//! how many rounds fit in the run.

use crate::bench::{Bench, Round};
use crate::layers::ProbeSet;
use crate::sims::{self, Capture, LiveDaemon};
use crate::stats::{fnv1a_extend, FNV_OFFSET};
use crate::trace::Tracer;
use cord_bench::{DetectorConfig, SweepOptions};
use cord_core::{DetectorSink, ObsCtx};
use cord_inject::Campaign;
use cord_obs::wire::decode_capture;
use cord_serve::ServeClient;
use cord_sim::engine::InjectionPlan;
use cord_trace::program::Workload;
use cord_workloads::{all_apps, kernel, ScaleClass};
use std::time::Instant;

/// The configurations each app is captured under, in capture order.
const CONFIGS: [DetectorConfig; 3] = [
    DetectorConfig::Cord { d: 16 },
    DetectorConfig::Ideal,
    DetectorConfig::VcL2Cache,
];

pub struct ServeBench {
    /// Passes over the 36 streams per round.
    passes: usize,
}

impl ServeBench {
    pub fn new(smoke: bool) -> ServeBench {
        ServeBench {
            passes: if smoke { 1 } else { 5 },
        }
    }
}

pub struct ServeInput {
    opts: SweepOptions,
    programs: Vec<Workload>,
    captures: Vec<Capture>,
}

fn build(seed: u64) -> Vec<Workload> {
    all_apps()
        .iter()
        .map(|&app| kernel(app, ScaleClass::Small, 4, seed))
        .collect()
}

impl ServeBench {
    /// Starts a daemon and replays every stream `passes` times through
    /// `replay`, checking each report against the inline one. The
    /// daemon is shut down and joined when the round ends, whatever the
    /// replays returned.
    fn replays(
        &self,
        input: &ServeInput,
        mut replay: impl FnMut(&ServeClient, usize, &Capture) -> Result<Vec<u8>, String>,
    ) -> Round {
        let mut round = Round {
            digest: FNV_OFFSET,
            ..Round::default()
        };
        let daemon = match LiveDaemon::start() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("serve-replay: {e}");
                round.attempted = 1;
                round.failed = 1;
                return round;
            }
        };
        let start = Instant::now();
        for pass in 0..self.passes {
            for (k, c) in input.captures.iter().enumerate() {
                let t = Instant::now();
                let report = replay(daemon.client(), pass * input.captures.len() + k, c);
                round.unit_ms.push(t.elapsed().as_secs_f64() * 1e3);
                round.attempted += 1;
                match report {
                    Ok(bytes) if bytes == c.inline_report => {
                        round.digest = fnv1a_extend(round.digest, &bytes);
                    }
                    Ok(_) => {
                        eprintln!(
                            "serve-replay: {} report differs from inline",
                            c.config.label()
                        );
                        round.failed += 1;
                    }
                    Err(e) => {
                        eprintln!("serve-replay: {} replay failed: {e}", c.config.label());
                        round.failed += 1;
                    }
                }
            }
        }
        round.wall_s = start.elapsed().as_secs_f64();
        drop(daemon);
        // Captures come in CONFIGS order per app: CORD-D16, then Ideal.
        for app in input.captures.chunks(CONFIGS.len()) {
            if app[1].races > 0 {
                round.detected.1 += 1;
                round.detected.0 += u64::from(app[0].races > 0);
            }
        }
        round
    }
}

impl Bench for ServeBench {
    type Input = ServeInput;

    fn setup(&self, seed: u64) -> Result<ServeInput, String> {
        let opts = SweepOptions {
            seed,
            ..SweepOptions::default()
        };
        let programs = build(seed);
        let mut captures = Vec::new();
        for (&app, w) in all_apps().iter().zip(&programs) {
            let dry = opts.machine_for(DetectorConfig::Cord { d: 16 });
            let campaign = Campaign::plan(&dry, w, 1, seed ^ app as u64)
                .map_err(|e| format!("{}: campaign plan: {e}", w.name()))?;
            let plan = campaign
                .targets
                .first()
                .map_or(InjectionPlan::none(), |t| t.plan());
            for config in CONFIGS {
                let c = sims::capture(config, &opts.machine_for(config), w, seed, plan)
                    .map_err(|e| format!("{}: {} capture: {e}", w.name(), config.label()))?;
                captures.push(c);
            }
        }
        Ok(ServeInput {
            opts,
            programs,
            captures,
        })
    }

    fn round(&self, input: &ServeInput) -> Round {
        self.replays(input, |client, _, c| {
            client.replay_capture(&c.bytes).map_err(|e| e.to_string())
        })
    }

    /// Each replay is one span; two share spans split it: the capture
    /// decoded in process (the wire codec's part) and its events
    /// ingested by a fresh sink (the detector's part). What remains of
    /// the replay is the daemon's own: socket transport, framing, its
    /// reader and worker threads, and the drain.
    fn traced_round(&self, input: &ServeInput, tr: &mut Tracer) -> (Round, usize) {
        let mut spans = Vec::new();
        let (mut round, root) = tr.scope("bench", "round", 0, |tr| {
            self.replays(input, |client, req, c| {
                let (report, id) =
                    tr.span("serve", "ServeClient::replay_capture", req as u64, || {
                        client.replay_capture(&c.bytes).map_err(|e| e.to_string())
                    });
                spans.push((id, req));
                report
            })
        });
        for (id, req) in spans {
            let c = &input.captures[req % input.captures.len()];
            let req = req as u64;
            let decoded = tr.share(id, "wire", "decode_capture", req, || {
                decode_capture(&c.bytes)
            });
            let Ok((header, events)) = decoded else {
                round.failed += 1;
                continue;
            };
            tr.share(id, "detectors", "ingest", req, || {
                let g = header.geometry;
                let mut sink = c.config.build_sink(
                    g.threads as usize,
                    g.cores as usize,
                    header.seed,
                    ObsCtx::disabled(),
                );
                for ev in &events {
                    sink.ingest(ev);
                }
                sink.flush();
                sink.drain()
            });
        }
        // The round's wall time stays the replays' own, as untraced:
        // the daemon's start and shutdown are outside both.
        (round, root)
    }

    fn sim_time_pct(&self, input: &ServeInput) -> Result<f64, String> {
        let machine = input.opts.machine_for(DetectorConfig::Cord { d: 16 });
        sims::sim_time_pct(&input.programs, &machine, input.opts.seed).map_err(|e| e.to_string())
    }

    fn probe_set(&self, input: &ServeInput) -> ProbeSet {
        let seed = input.opts.seed;
        ProbeSet {
            build: Box::new(move || build(seed)),
            opts: input.opts,
            configs: vec![DetectorConfig::Cord { d: 16 }],
        }
    }
}
