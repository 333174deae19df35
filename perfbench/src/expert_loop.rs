//! `expert_loop`: a handful of paper-default crowds driven through the full
//! guided loop by a perfect simulated expert (Hybrid strategy, calibrated
//! triage, online defense on, serial scoring).
//!
//! The expert's wait is one step: `integrate(previous label)` starts →
//! `select_next` returns. Almost all of it is hypothesis EM for the
//! information gain (`core` scoring, the guidance cache, `aggregation`).

use crate::probes::{self, Crowd, GuidedSpans};
use crate::stats::{per_item_min, validations_to_target, FailureCount, Summary};
use crate::{
    check_identical, ms, repeat_passes, sub_seed, Fingerprint, Metric, RunConfig, RunOutcome,
};
use crowd_validation::core::{
    GuidanceTelemetry, HybridStrategy, ProcessConfig, TriageConfig, TriageCounters,
    ValidationSession, ValidationSessionBuilder,
};
use crowd_validation::model::AnswerSet;
use crowd_validation::sim::{SimulatedExpert, SyntheticConfig};
use crowd_validation::spammer::TrustConfig;
use std::time::Instant;

/// Crowds per run. EM convergence, and with it the cost of a step, varies
/// from crowd to crowd, so a run pools many small equal-sized crowds to
/// keep a new seed from moving the timings, while a pass stays short
/// enough to be repeated many times.
pub const CROWDS: usize = 24;
/// Objects per crowd; every crowd has the paper's 20 workers and 2 labels.
pub const OBJECTS: usize = 60;
/// Reliability of the honest workers. The paper's default is 0.65; at that
/// value the per-crowd step cost varies by a factor of three between
/// seeds (CV ~0.35), at 0.7 by CV ~0.15.
pub const RELIABILITY: f64 = 0.7;
/// Expert budget per crowd, as a share of its objects.
pub const BUDGET_SHARE: f64 = 0.2;
/// Precision the `validations_to_target` metric counts up to.
pub const TARGET_PRECISION: f64 = 0.9;
/// Times the sessions are built per pass. Each crowd's build keeps its
/// fastest reading across every build of the run; set-up time is the sum.
const SETUP_REPEATS: usize = 5;

/// The generated crowds (full answer sets; the loop validates, it does not
/// ingest).
pub struct Inputs {
    pub crowds: Vec<Crowd>,
    pub answers: Vec<AnswerSet>,
}

pub fn generate(seed: u64) -> Inputs {
    let mut crowds = Vec::new();
    let mut answers = Vec::new();
    for i in 0..CROWDS {
        let synth = SyntheticConfig {
            num_objects: OBJECTS,
            reliability: RELIABILITY,
            ..SyntheticConfig::paper_default(sub_seed(seed, i as u64))
        }
        .generate();
        let set = synth.dataset.answers().clone();
        crowds.push(Crowd {
            name: format!("crowd{i}"),
            num_labels: set.num_labels(),
            votes: probes::votes_of(&set),
            truth: synth.dataset.ground_truth().clone(),
        });
        answers.push(set);
    }
    Inputs { crowds, answers }
}

fn budget(num_objects: usize) -> usize {
    ((num_objects as f64 * BUDGET_SHARE).round() as usize).max(1)
}

/// The session every crowd is validated in.
pub fn build_session(crowd: &Crowd, answers: AnswerSet, seed: u64) -> ValidationSession {
    ValidationSessionBuilder::new(answers)
        .strategy(Box::new(HybridStrategy::new(seed)))
        .config(ProcessConfig {
            budget: Some(budget(crowd.truth.len())),
            parallel: false,
            trust: TrustConfig::streaming_default(),
            triage: TriageConfig::calibrated(),
            ..ProcessConfig::default()
        })
        .ground_truth(crowd.truth.clone())
        .try_build()
        .expect("generated crowds are well-formed")
}

/// One pass over every crowd.
struct Pass {
    /// Build time of each crowd's session, fastest of the pass's repeats.
    setup_s: Vec<f64>,
    /// Expert wait per step, in ms, crowd after crowd.
    waits_ms: Vec<f64>,
    spans: GuidedSpans,
    validations_to_target: Vec<usize>,
    precision_final: Vec<f64>,
    fingerprint: u64,
    guidance: GuidanceTelemetry,
    triage: TriageCounters,
    exclusions: u64,
    failures: FailureCount,
}

fn pass(inputs: &Inputs, seed: u64, traced: bool) -> Pass {
    let mut setup_s = vec![f64::INFINITY; inputs.crowds.len()];
    let mut sessions: Vec<ValidationSession> = Vec::new();
    for _ in 0..SETUP_REPEATS {
        // Untimed: the sessions take ownership of their answer sets.
        let answer_sets: Vec<AnswerSet> = inputs.answers.to_vec();
        sessions = inputs
            .crowds
            .iter()
            .zip(answer_sets)
            .enumerate()
            .map(|(i, (crowd, answers))| {
                let start = Instant::now();
                let session = build_session(crowd, answers, sub_seed(seed, 100 + i as u64));
                setup_s[i] = setup_s[i].min(start.elapsed().as_secs_f64());
                session
            })
            .collect();
    }

    let mut out = Pass {
        setup_s,
        waits_ms: Vec::new(),
        spans: GuidedSpans::default(),
        validations_to_target: Vec::new(),
        precision_final: Vec::new(),
        fingerprint: 0,
        guidance: GuidanceTelemetry::default(),
        triage: TriageCounters::default(),
        exclusions: 0,
        failures: FailureCount::default(),
    };
    let mut fp = Fingerprint::default();
    for (crowd, session) in inputs.crowds.iter().zip(sessions.iter_mut()) {
        let mut expert = SimulatedExpert::perfect(crowd.truth.clone(), crowd.num_labels);
        let cap = budget(crowd.truth.len());
        let spans = traced.then_some(&mut out.spans);
        let run = probes::guided_loop(session, &mut expert, cap, spans);
        for &o in &run.picks {
            fp.word(o.index() as u64);
        }
        probes::fingerprint_posteriors(session, &mut fp);
        out.waits_ms.extend(run.waits_s.iter().map(|&s| ms(s)));
        out.validations_to_target.push(validations_to_target(
            &run.precision,
            TARGET_PRECISION,
            cap,
        ));
        out.precision_final
            .push(session.precision().expect("ground truth is attached"));
        out.failures.absorb(run.failures);
        out.guidance.absorb(&session.guidance_totals());
        let t = session.triage_counters();
        out.triage.scored += t.scored;
        out.triage.auto_finalized += t.auto_finalized;
        out.exclusions += session.defense_telemetry().exclusions;
    }
    out.fingerprint = fp.finish();
    out
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn run(cfg: &RunConfig) -> RunOutcome {
    let inputs = generate(cfg.seed);
    let mut outcome = RunOutcome::default();
    // A traced run alternates untraced and traced passes over ~70% of its
    // time and spends the rest on the layer probes.
    let pass_seconds = if cfg.trace {
        cfg.seconds * 0.7
    } else {
        cfg.seconds
    };
    let (passes, walls) = repeat_passes(pass_seconds, cfg.trace, |i| {
        pass(&inputs, cfg.seed, crate::is_traced_pass(cfg.trace, i))
    });
    outcome.pass_walls_s = walls;
    for p in &passes {
        outcome.failures.absorb(p.failures);
    }
    let fingerprints: Vec<u64> = passes.iter().map(|p| p.fingerprint).collect();
    check_identical(
        "pick sequence and final posteriors",
        &fingerprints,
        &mut outcome.check_errors,
    );
    let vtt: Vec<Vec<usize>> = passes
        .iter()
        .map(|p| p.validations_to_target.clone())
        .collect();
    check_identical("validations_to_target", &vtt, &mut outcome.check_errors);

    let (traced, untraced) = crate::split_traced(&passes, cfg.trace);
    let waits: Vec<Vec<f64>> = untraced.iter().map(|p| p.waits_ms.clone()).collect();
    let waits = match per_item_min(&waits) {
        Ok(w) => w,
        Err(e) => {
            outcome.check_errors.push(e);
            return outcome;
        }
    };
    let wait = Summary::of(&waits);
    let setups: Vec<Vec<f64>> = untraced.iter().map(|p| p.setup_s.clone()).collect();
    let setup_s: f64 = per_item_min(&setups).unwrap_or_default().iter().sum();
    let steps_per_s = waits.len() as f64 / (waits.iter().sum::<f64>() / 1e3);
    let first = &passes[0];
    let validations_to_target = first.validations_to_target.iter().sum::<usize>() as f64
        / first.validations_to_target.len() as f64;
    let precision_final = mean(&first.precision_final);
    let peak = crate::host::peak_rss_mb().unwrap_or(f64::NAN);

    let tail_note = format!("{} over {} steps", wait.tail_label(), wait.samples);
    outcome.report = vec![
        Metric::new("setup_s", setup_s, "s").with_note(format!(
            "build all sessions: fastest build of each crowd over {} builds",
            setups.len() * SETUP_REPEATS
        )),
        Metric::new("guidance_p50_ms", wait.p50, "ms").with_note(format!("{} steps", wait.samples)),
        Metric::new("guidance_tail_ms", wait.tail, "ms").with_note(tail_note.clone()),
        Metric::new("guidance_mean_ms", wait.mean, "ms")
            .with_note(format!("{} steps", wait.samples)),
        Metric::new("validations_to_target", validations_to_target, "count").with_note(format!(
            "mean over {CROWDS} crowds, target precision {TARGET_PRECISION}"
        )),
        Metric::new("precision_final", precision_final, "ratio").with_note("mean over crowds"),
        Metric::new("peak_rss_mb", peak, "MB"),
        Metric::new("failed_ratio", outcome.failures.ratio(), "ratio"),
    ];
    if !cfg.trace {
        outcome.result = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("latency_mean_ms", wait.mean, "ms"),
            Metric::new("latency_tail_ms", wait.tail, "ms").with_note(tail_note),
            Metric::new("throughput_per_s", steps_per_s, "1/s"),
            Metric::new("peak_rss_mb", peak, "MB"),
        ];
        return outcome;
    }

    let spans = GuidedSpans::min_over(traced.iter().map(|p| &p.spans));
    let counts = probes::LibraryCounts {
        ingest_em_iterations: 0,
        exclusions: first.exclusions,
        triage: first.triage,
        guidance: first.guidance,
    };
    // Checkpoint probe: the largest crowd, snapshotted fresh, validated to
    // its budget, then delta-snapshotted and restored.
    let largest = inputs.crowds.len() - 1;
    let crowd = &inputs.crowds[largest];
    let mut session = build_session(crowd, inputs.answers[largest].clone(), cfg.seed);
    let checkpoints = probes::snapshot_probe(&mut session, |s| {
        let mut expert = SimulatedExpert::perfect(crowd.truth.clone(), crowd.num_labels);
        probes::guided_loop(s, &mut expert, budget(crowd.truth.len()), None);
    });
    let crowds: Vec<&Crowd> = inputs.crowds.iter().collect();
    let mut layers = probes::library_layers(&crowds, &spans, &counts, checkpoints);
    let script = crate::service_mix::build_script(crate::service_mix::guided_plans(
        &inputs.crowds,
        cfg.seed,
        PROBE_SERVICE_STEPS,
    ));
    layers.extend(crate::service_mix::service_probe(
        &script,
        PROBE_SERVICE_RATE,
    ));
    layers.push(Metric::new(
        "trace.overhead_ratio",
        spans.step_p50_ms() / wait.p50,
        "ratio",
    ));
    outcome.result = layers;
    outcome
}

/// Guided steps per tenant when the crowds are replayed through the service
/// layer in traced mode.
const PROBE_SERVICE_STEPS: usize = 10;
/// Offered rate of that replay's open-loop conversation, requests per
/// second.
const PROBE_SERVICE_RATE: f64 = 100.0;
