//! `crowd_stream`: large tasks streamed into `ValidationSession`s in fixed
//! batches, with the online defense on. Two truth anchors per task are
//! integrated during set-up; the timed phase has no guidance, and each
//! task takes a delta snapshot every few batches. Ingest-bound: the cost
//! lives in `aggregation` and `spammer`, while guidance is bypassed.
//!
//! The tasks' batches arrive interleaved, one batch per task in turn. EM
//! convergence, and with it the cost of a batch, is a property of the
//! task, so several independent tasks keep a new seed from moving the
//! timings.

use crate::probes::{self, Crowd, GuidedSpans, LibraryCounts};
use crate::stats::{per_item_min, FailureCount, Summary};
use crate::{
    check_identical, ms, repeat_passes, sub_seed, Fingerprint, Metric, RunConfig, RunOutcome,
};
use crowd_validation::core::{
    HybridStrategy, ProcessConfig, ValidationSession, ValidationSessionBuilder,
};
use crowd_validation::model::{GroundTruth, ObjectId, Vote};
use crowd_validation::sim::{SimulatedExpert, StreamingConfig, SyntheticConfig};
use crowd_validation::spammer::TrustConfig;
use std::time::Instant;

/// Independent tasks per run.
pub const TASKS: usize = 3;
pub const OBJECTS: usize = 1_000;
pub const WORKERS: usize = 300;
pub const ANSWERS_PER_OBJECT: usize = 5;
/// Reliability of the honest workers. The paper's 0.65 assumes every worker
/// answers every object; at 5 answers per object it leaves majority vote
/// and EM near chance (~0.53-0.56 precision), so these crowds are more
/// reliable while keeping the paper's population mix.
pub const RELIABILITY: f64 = 0.8;
/// Share of the votes ingested during set-up.
pub const INITIAL_FRACTION: f64 = 0.3;
/// Votes per ingest batch.
pub const BATCH: usize = 60;
/// A delta snapshot of a task after every this many of its batches.
pub const DELTA_EVERY: usize = 8;
/// Times the tasks are set up per pass. Each task's set-up keeps its
/// fastest reading across every set-up of the run; set-up time is the sum.
const SETUP_REPEATS: usize = 3;
/// Guided steps of the traced-mode selection probe on a streamed session.
const PROBE_STEPS: usize = 6;
/// Offered rate of the traced-mode service replay, requests per second.
const PROBE_SERVICE_RATE: f64 = 20.0;

/// One task's stream.
pub struct Stream {
    pub crowd: Crowd,
    pub initial: Vec<Vote>,
    pub batches: Vec<Vec<Vote>>,
    pub anchors: [ObjectId; 2],
}

pub struct Inputs {
    pub streams: Vec<Stream>,
}

impl Inputs {
    /// `(task, batch)` in arrival order: one batch per task in turn.
    fn arrivals(&self) -> Vec<(usize, usize)> {
        let longest = self
            .streams
            .iter()
            .map(|s| s.batches.len())
            .max()
            .unwrap_or(0);
        (0..longest)
            .flat_map(|b| {
                self.streams
                    .iter()
                    .enumerate()
                    .filter(move |(_, s)| b < s.batches.len())
                    .map(move |(t, _)| (t, b))
            })
            .collect()
    }

    pub fn streamed_votes(&self) -> usize {
        self.streams
            .iter()
            .flat_map(|s| &s.batches)
            .map(Vec::len)
            .sum()
    }
}

pub fn generate(seed: u64) -> Inputs {
    let streams = (0..TASKS)
        .map(|t| {
            let scenario = StreamingConfig {
                base: SyntheticConfig {
                    num_objects: OBJECTS,
                    num_workers: WORKERS,
                    answers_per_object: Some(ANSWERS_PER_OBJECT),
                    reliability: RELIABILITY,
                    ..SyntheticConfig::paper_default(sub_seed(seed, t as u64))
                },
                initial_fraction: INITIAL_FRACTION,
                batch_size: BATCH,
                late_object_fraction: 0.3,
                late_worker_fraction: 0.25,
            }
            .generate();
            let mut anchors: Vec<ObjectId> = Vec::new();
            for v in &scenario.initial {
                if !anchors.contains(&v.object) {
                    anchors.push(v.object);
                }
                if anchors.len() == 2 {
                    break;
                }
            }
            Stream {
                crowd: Crowd {
                    name: format!("stream-{t}"),
                    num_labels: scenario.num_labels,
                    votes: scenario.all_votes(),
                    truth: scenario.truth.clone(),
                },
                anchors: [anchors[0], anchors[1]],
                initial: scenario.initial,
                batches: scenario.batches,
            }
        })
        .collect();
    Inputs { streams }
}

/// An empty streaming session with the online defense on.
pub fn stream_session(num_labels: usize, truth: &GroundTruth) -> ValidationSession {
    ValidationSessionBuilder::empty(num_labels)
        .strategy(Box::new(HybridStrategy::new(7)))
        .config(ProcessConfig {
            trust: TrustConfig::streaming_default(),
            ..ProcessConfig::default()
        })
        .ground_truth(truth.clone())
        .try_build()
        .expect("generated streams are well-formed")
}

/// Checkpoint probe on a stream: ingest all but the last batches, snapshot,
/// ingest the rest as the delta, then delta-snapshot and restore.
pub fn stream_checkpoint_probe(
    crowd: &Crowd,
    initial: &[Vote],
    batches: &[Vec<Vote>],
) -> (f64, f64, f64, f64) {
    let mut session = stream_session(crowd.num_labels, &crowd.truth);
    session.ingest(initial).expect("initial votes ingest");
    let split = batches.len().saturating_sub(DELTA_EVERY);
    for batch in &batches[..split] {
        session.ingest(batch).expect("stream batches ingest");
    }
    probes::snapshot_probe(&mut session, |s| {
        for batch in &batches[split..] {
            s.ingest(batch).expect("stream batches ingest");
        }
    })
}

struct Pass {
    /// Set-up time of each task, fastest of the pass's repeats.
    setup_s: Vec<f64>,
    batch_ms: Vec<f64>,
    em_iterations: u64,
    fingerprint: u64,
    precision: f64,
    exclusions: u64,
    failures: FailureCount,
    sessions: Vec<ValidationSession>,
}

fn pass(inputs: &Inputs, arrivals: &[(usize, usize)]) -> Pass {
    let mut failures = FailureCount::default();
    let mut setup_s = vec![f64::INFINITY; inputs.streams.len()];
    let mut sessions: Vec<ValidationSession> = Vec::new();
    for _ in 0..SETUP_REPEATS {
        sessions = inputs
            .streams
            .iter()
            .enumerate()
            .map(|(t, s)| {
                let start = Instant::now();
                let mut session = stream_session(s.crowd.num_labels, &s.crowd.truth);
                session.enable_delta_log();
                failures.record(session.ingest(&s.initial).is_ok());
                for &o in &s.anchors {
                    failures.record(session.integrate(o, s.crowd.truth.label(o)).is_ok());
                }
                setup_s[t] = setup_s[t].min(start.elapsed().as_secs_f64());
                session
            })
            .collect();
    }

    let mut batch_ms = Vec::with_capacity(arrivals.len());
    let mut em_iterations = 0u64;
    for &(task, b) in arrivals {
        let session = &mut sessions[task];
        let start = Instant::now();
        let update = session.ingest(&inputs.streams[task].batches[b]);
        batch_ms.push(ms(start.elapsed().as_secs_f64()));
        match update {
            Ok(u) => {
                em_iterations += u.em_iterations as u64;
                failures.record(true);
            }
            Err(_) => failures.record(false),
        }
        if (b + 1) % DELTA_EVERY == 0 {
            failures.record(session.delta_snapshot().is_ok());
        }
    }
    let mut fp = Fingerprint::default();
    let mut precision = 0.0;
    let mut exclusions = 0;
    for session in &sessions {
        for (_, label) in session.deterministic_assignment().iter() {
            fp.word(label.index() as u64);
        }
        precision += session.precision().expect("ground truth is attached");
        exclusions += session.defense_telemetry().exclusions;
    }
    Pass {
        setup_s,
        batch_ms,
        em_iterations,
        fingerprint: fp.finish(),
        precision: precision / sessions.len() as f64,
        exclusions,
        failures,
        sessions,
    }
}

pub fn run(cfg: &RunConfig) -> RunOutcome {
    let inputs = generate(cfg.seed);
    let arrivals = inputs.arrivals();
    let mut outcome = RunOutcome::default();
    let pass_seconds = if cfg.trace {
        cfg.seconds * 0.5
    } else {
        cfg.seconds
    };
    // Only the last pass keeps its sessions, for the traced-mode probes.
    let mut last_sessions = Vec::new();
    let (passes, walls) = repeat_passes(pass_seconds, cfg.trace, |_| {
        let mut p = pass(&inputs, &arrivals);
        last_sessions = std::mem::take(&mut p.sessions);
        p
    });
    outcome.pass_walls_s = walls;
    for p in &passes {
        outcome.failures.absorb(p.failures);
    }
    let fingerprints: Vec<u64> = passes.iter().map(|p| p.fingerprint).collect();
    check_identical("final assignment", &fingerprints, &mut outcome.check_errors);
    let iterations: Vec<u64> = passes.iter().map(|p| p.em_iterations).collect();
    check_identical("EM-iteration total", &iterations, &mut outcome.check_errors);

    let (traced, untraced) = crate::split_traced(&passes, cfg.trace);
    let batches: Vec<Vec<f64>> = untraced.iter().map(|p| p.batch_ms.clone()).collect();
    let batches = match per_item_min(&batches) {
        Ok(b) => b,
        Err(e) => {
            outcome.check_errors.push(e);
            return outcome;
        }
    };
    let ingest = Summary::of(&batches);
    let streamed = inputs.streamed_votes();
    let setups: Vec<Vec<f64>> = untraced.iter().map(|p| p.setup_s.clone()).collect();
    let setup_s: f64 = per_item_min(&setups).unwrap_or_default().iter().sum();
    let votes_per_s = streamed as f64 / (batches.iter().sum::<f64>() / 1e3);
    let precision_final = passes[0].precision;
    let peak = crate::host::peak_rss_mb().unwrap_or(f64::NAN);
    let tail_note = format!("{} over {} batches", ingest.tail_label(), ingest.samples);
    outcome.report = vec![
        Metric::new("setup_s", setup_s, "s").with_note(format!(
            "initial votes ingested and two anchors integrated in {TASKS} tasks: fastest set-up of each task over {} set-ups",
            setups.len() * SETUP_REPEATS
        )),
        Metric::new("ingest_votes_per_s", votes_per_s, "votes/s").with_note(format!(
            "{streamed} streamed votes in batches of {BATCH}, per-batch minima"
        )),
        Metric::new("ingest_p50_ms", ingest.p50, "ms")
            .with_note(format!("{} batches", ingest.samples)),
        Metric::new("ingest_tail_ms", ingest.tail, "ms").with_note(tail_note.clone()),
        Metric::new("ingest_mean_ms", ingest.mean, "ms")
            .with_note(format!("{} batches", ingest.samples)),
        Metric::new("precision_final", precision_final, "ratio")
            .with_note(format!("mean over {TASKS} tasks")),
        Metric::new("peak_rss_mb", peak, "MB"),
        Metric::new("failed_ratio", outcome.failures.ratio(), "ratio"),
    ];
    if !cfg.trace {
        outcome.result = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("latency_mean_ms", ingest.mean, "ms"),
            Metric::new("latency_tail_ms", ingest.tail, "ms").with_note(tail_note),
            Metric::new("throughput_per_s", votes_per_s, "1/s"),
            Metric::new("peak_rss_mb", peak, "MB"),
        ];
        return outcome;
    }

    // The ingest path carries no spans beyond the batch timer itself, so
    // traced passes differ from untraced ones only by running beside them.
    let traced_batches: Vec<Vec<f64>> = traced.iter().map(|p| p.batch_ms.clone()).collect();
    let overhead = per_item_min(&traced_batches)
        .map(|b| Summary::of(&b).p50 / ingest.p50)
        .unwrap_or(f64::NAN);
    // Selection probe: a few guided steps on the first streamed session.
    let first = &inputs.streams[0];
    let mut session = last_sessions.swap_remove(0);
    drop(last_sessions);
    let mut spans = GuidedSpans::default();
    let mut expert = SimulatedExpert::perfect(first.crowd.truth.clone(), first.crowd.num_labels);
    probes::guided_loop(&mut session, &mut expert, PROBE_STEPS, Some(&mut spans));
    let counts = LibraryCounts {
        ingest_em_iterations: passes[0].em_iterations,
        exclusions: passes[0].exclusions,
        triage: session.triage_counters(),
        guidance: session.guidance_totals(),
    };
    drop(session);
    let checkpoints = stream_checkpoint_probe(&first.crowd, &first.initial, &first.batches);
    let crowds: Vec<&Crowd> = inputs.streams.iter().map(|s| &s.crowd).collect();
    let mut layers = probes::library_layers(&crowds, &spans, &counts, checkpoints);
    let plan = crate::service_mix::ingest_plan(
        first.crowd.name.clone(),
        first.crowd.clone(),
        first.initial.clone(),
        first.batches.clone(),
        PROBE_STEPS,
    );
    let script = crate::service_mix::build_script(vec![plan]);
    layers.extend(crate::service_mix::service_probe(
        &script,
        PROBE_SERVICE_RATE,
    ));
    layers.push(Metric::new("trace.overhead_ratio", overhead, "ratio"));
    outcome.result = layers;
    outcome
}
