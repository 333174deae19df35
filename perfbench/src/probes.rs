//! Traced mode: timings of calls into single layers, taken from outside the
//! program (spans around public calls, replays of a workload's inputs into
//! one layer) plus the layers' public counters.
//!
//! Every workload reports the same per-layer metric names. A layer a
//! workload's end-to-end path bypasses is still probed on that workload's
//! inputs, so an optimization of the layer can be checked to leave the
//! bypassing workload's end-to-end numbers alone.

use crate::stats::{per_item_min, FailureCount, Summary};
use crate::{ms, Fingerprint, Metric};
use crowd_validation::aggregation::{Aggregator, IncrementalEm};
use crowd_validation::core::{GuidanceTelemetry, TriageCounters, ValidationSession};
use crowd_validation::model::{AnswerSet, ExpertValidation, GroundTruth, LabelId, ObjectId, Vote};
use crowd_validation::sim::SimulatedExpert;
use crowd_validation::spammer::{BatchVote, TrustConfig, WorkerTrustLedger};
use std::hint::black_box;
use std::time::Instant;

/// Repeats of each replay probe; the fastest is kept.
const PROBE_REPEATS: usize = 3;
/// Votes per batch in the model and spammer replays.
const REPLAY_BATCH: usize = 100;

/// One generated crowd: its votes in arrival order and its ground truth.
#[derive(Debug, Clone)]
pub struct Crowd {
    pub name: String,
    pub num_labels: usize,
    pub votes: Vec<Vote>,
    pub truth: GroundTruth,
}

impl Crowd {
    /// The crowd's full answer set (untimed helper).
    pub fn answer_set(&self) -> AnswerSet {
        let mut set = AnswerSet::new(0, 0, self.num_labels);
        for &v in &self.votes {
            set.record_arrival(v)
                .expect("generated labels are in range");
        }
        set.sync_compact_views();
        set
    }
}

/// The votes of an answer set, in object-major order.
pub fn votes_of(set: &AnswerSet) -> Vec<Vote> {
    set.matrix()
        .iter()
        .map(|(o, w, l)| Vote::new(o, w, l))
        .collect()
}

/// Folds the session's posterior of every object into a fingerprint.
pub fn fingerprint_posteriors(session: &ValidationSession, fp: &mut Fingerprint) {
    let assignment = session.current().assignment();
    for o in 0..assignment.num_objects() {
        for p in assignment.distribution(ObjectId(o)) {
            fp.word(p.to_bits());
        }
    }
}

/// Span timings of the guided loop, in seconds, step by step.
#[derive(Debug, Clone, Default)]
pub struct GuidedSpans {
    pub integrate_s: Vec<f64>,
    pub select_s: Vec<f64>,
    pub step_s: Vec<f64>,
}

impl GuidedSpans {
    /// Per-step minimum across passes of the same loop.
    pub fn min_over<'a>(passes: impl Iterator<Item = &'a GuidedSpans>) -> GuidedSpans {
        let passes: Vec<&GuidedSpans> = passes.collect();
        let pick = |f: fn(&GuidedSpans) -> &Vec<f64>| {
            let all: Vec<Vec<f64>> = passes.iter().map(|p| f(p).clone()).collect();
            per_item_min(&all).unwrap_or_default()
        };
        GuidedSpans {
            integrate_s: pick(|s| &s.integrate_s),
            select_s: pick(|s| &s.select_s),
            step_s: pick(|s| &s.step_s),
        }
    }

    pub fn step_p50_ms(&self) -> f64 {
        ms(Summary::of(&self.step_s).p50)
    }
}

/// What one guided loop did.
pub struct GuidedRun {
    pub picks: Vec<ObjectId>,
    /// Expert wait per step: `integrate(previous label)` start →
    /// `select_next` return.
    pub waits_s: Vec<f64>,
    /// Precision after 0, 1, 2, ... validations (measured once the next
    /// selection returned, so triage auto-finalizations count).
    pub precision: Vec<f64>,
    pub failures: FailureCount,
}

/// Drives `session` with a perfect expert until `cap` validations, the end
/// of guidance, or a finished session. With `spans`, `integrate` and
/// `select_next` are also timed on their own.
pub fn guided_loop(
    session: &mut ValidationSession,
    expert: &mut SimulatedExpert,
    cap: usize,
    mut spans: Option<&mut GuidedSpans>,
) -> GuidedRun {
    let mut run = GuidedRun {
        picks: Vec::new(),
        waits_s: Vec::new(),
        precision: Vec::new(),
        failures: FailureCount::default(),
    };
    let precision = |s: &ValidationSession| s.precision().unwrap_or(f64::NAN);
    let mut previous: Option<(ObjectId, LabelId)> = None;
    let mut validated = 0usize;
    loop {
        let start = Instant::now();
        let integrating = previous.is_some();
        if let Some((object, label)) = previous.take() {
            run.failures
                .record(session.integrate(object, label).is_ok());
            validated += 1;
        }
        let integrated = Instant::now();
        if let (true, Some(spans)) = (integrating, spans.as_deref_mut()) {
            spans.integrate_s.push((integrated - start).as_secs_f64());
        }
        if validated >= cap || session.is_finished() {
            run.precision.push(precision(session));
            break;
        }
        let pick = session.select_next();
        let end = Instant::now();
        run.waits_s.push((end - start).as_secs_f64());
        if let Some(spans) = spans.as_deref_mut() {
            spans.select_s.push((end - integrated).as_secs_f64());
            spans.step_s.push((end - start).as_secs_f64());
        }
        run.precision.push(precision(session));
        match pick {
            Some(object) => {
                run.picks.push(object);
                previous = Some((object, expert.validate(object)));
            }
            None => break,
        }
    }
    run
}

/// Counters the workload read from its sessions.
#[derive(Debug, Clone, Copy, Default)]
pub struct LibraryCounts {
    pub ingest_em_iterations: u64,
    pub exclusions: u64,
    pub triage: TriageCounters,
    pub guidance: GuidanceTelemetry,
}

/// `model`: replay the crowds' votes into fresh answer sets
/// (`record_arrival`, plus the per-batch compact-view sync a session does).
/// Returns (ns per vote, bytes per vote of the final matrices).
fn model_probe(crowds: &[&Crowd]) -> (f64, f64) {
    let votes: usize = crowds.iter().map(|c| c.votes.len()).sum();
    let mut best = f64::INFINITY;
    let mut bytes = 0usize;
    for _ in 0..PROBE_REPEATS {
        let start = Instant::now();
        let mut sets = Vec::with_capacity(crowds.len());
        for crowd in crowds {
            let mut set = AnswerSet::new(0, 0, crowd.num_labels);
            for batch in crowd.votes.chunks(REPLAY_BATCH) {
                for &v in batch {
                    set.record_arrival(v)
                        .expect("generated labels are in range");
                }
                set.sync_compact_views();
            }
            sets.push(set);
        }
        best = best.min(start.elapsed().as_secs_f64());
        bytes = sets
            .iter()
            .map(|s| s.matrix().memory_footprint().total_bytes())
            .sum();
        black_box(sets);
    }
    (best * 1e9 / votes as f64, bytes as f64 / votes as f64)
}

/// Annotates votes with the pre-vote modal label of their object, as the
/// session does before handing a batch to the trust ledger.
fn annotate(crowd: &Crowd) -> Vec<BatchVote> {
    let mut counts: Vec<Vec<u64>> = Vec::new();
    crowd
        .votes
        .iter()
        .map(|v| {
            let o = v.object.index();
            if counts.len() <= o {
                counts.resize(o + 1, vec![0; crowd.num_labels]);
            }
            let c = &mut counts[o];
            let total: u64 = c.iter().sum();
            let prior_modal = (total > 0).then(|| {
                let modal = (0..c.len())
                    .max_by(|&a, &b| c[a].cmp(&c[b]).then(b.cmp(&a)))
                    .expect("at least one label");
                let runner_up = (0..c.len()).filter(|&i| i != modal).map(|i| c[i]).max();
                let contested = total >= 2 && c[modal] - runner_up.unwrap_or(0) <= 1;
                (LabelId(modal), contested)
            });
            c[v.label.index()] += 1;
            BatchVote {
                object: v.object,
                worker: v.worker,
                label: v.label,
                prior_modal,
            }
        })
        .collect()
}

/// `spammer`: replay the crowds' batches into a fresh trust ledger
/// (`observe_batch`). Returns ns per vote.
fn spammer_probe(crowds: &[&Crowd]) -> f64 {
    let annotated: Vec<(usize, Vec<BatchVote>)> =
        crowds.iter().map(|c| (c.num_labels, annotate(c))).collect();
    let votes: usize = annotated.iter().map(|(_, v)| v.len()).sum();
    let config = TrustConfig::streaming_default();
    let mut best = f64::INFINITY;
    for _ in 0..PROBE_REPEATS {
        let start = Instant::now();
        for (num_labels, batch_votes) in &annotated {
            let mut ledger = WorkerTrustLedger::new();
            for batch in batch_votes.chunks(REPLAY_BATCH) {
                black_box(ledger.observe_batch(*num_labels, batch, &config));
            }
            black_box(&ledger);
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / votes as f64
}

/// `aggregation`: a cold `IncrementalEm::conclude` over the largest crowd's
/// final answers. Returns (ms, ns per vote per EM iteration).
fn aggregation_probe(crowds: &[&Crowd]) -> (f64, f64) {
    let crowd = crowds
        .iter()
        .max_by_key(|c| c.votes.len())
        .expect("at least one crowd");
    let answers = crowd.answer_set();
    let expert = ExpertValidation::empty(answers.num_objects());
    let em = IncrementalEm::default();
    let mut best = f64::INFINITY;
    let mut iterations = 1usize;
    for _ in 0..PROBE_REPEATS {
        let start = Instant::now();
        let state = em.conclude(&answers, &expert, None);
        best = best.min(start.elapsed().as_secs_f64());
        iterations = state.em_iterations().max(1);
        black_box(state);
    }
    let votes = answers.matrix().num_answers() as f64;
    (ms(best), best * 1e9 / (votes * iterations as f64))
}

/// `core` checkpoints: a full snapshot of `session`, then `mutate`, then a
/// delta snapshot and a restore from snapshot + delta. Returns (full ms,
/// delta ms, restore ms, full snapshot bytes).
pub fn snapshot_probe(
    session: &mut ValidationSession,
    mutate: impl FnOnce(&mut ValidationSession),
) -> (f64, f64, f64, f64) {
    session.enable_delta_log();
    let mut full = f64::INFINITY;
    let mut snapshot = None;
    for _ in 0..PROBE_REPEATS {
        let start = Instant::now();
        let s = session.snapshot().expect("sessions snapshot");
        full = full.min(start.elapsed().as_secs_f64());
        snapshot = Some(s);
    }
    let snapshot = snapshot.expect("at least one repeat");
    let bytes = serde_json::to_string(&snapshot)
        .expect("snapshots serialize")
        .len();
    mutate(session);
    let mut delta_best = f64::INFINITY;
    let mut delta = None;
    for _ in 0..PROBE_REPEATS {
        let start = Instant::now();
        let d = session.delta_snapshot().expect("delta log is enabled");
        delta_best = delta_best.min(start.elapsed().as_secs_f64());
        delta = Some(d);
    }
    let delta = delta.expect("at least one repeat");
    let mut restore = f64::INFINITY;
    for _ in 0..PROBE_REPEATS {
        let (s, d) = (snapshot.clone(), delta.clone());
        let start = Instant::now();
        let restored = ValidationSession::restore_with_delta(s, d).expect("delta restores");
        restore = restore.min(start.elapsed().as_secs_f64());
        black_box(restored);
    }
    (ms(full), ms(delta_best), ms(restore), bytes as f64)
}

/// The library-layer metrics every workload reports: replays of the
/// workload's crowds, the guided-loop spans, the sessions' counters and a
/// checkpoint probe.
pub fn library_layers(
    crowds: &[&Crowd],
    spans: &GuidedSpans,
    counts: &LibraryCounts,
    checkpoints: (f64, f64, f64, f64),
) -> Vec<Metric> {
    let (append_ns, bytes_per_vote) = model_probe(crowds);
    let observe_ns = spammer_probe(crowds);
    let (cold_ms, ns_per_vote_iteration) = aggregation_probe(crowds);
    let integrate = Summary::of(&spans.integrate_s);
    let select = Summary::of(&spans.select_s);
    let (full_ms, delta_ms, restore_ms, snapshot_bytes) = checkpoints;
    vec![
        Metric::new("model.append_ns_per_vote", append_ns, "ns"),
        Metric::new("model.bytes_per_vote", bytes_per_vote, "bytes"),
        Metric::new(
            "aggregation.ingest_em_iterations",
            counts.ingest_em_iterations as f64,
            "count",
        ),
        Metric::new("aggregation.cold_conclude_ms", cold_ms, "ms"),
        Metric::new(
            "aggregation.ns_per_vote_iteration",
            ns_per_vote_iteration,
            "ns",
        ),
        Metric::new("aggregation.integrate_p50_ms", ms(integrate.p50), "ms")
            .with_note(format!("{} validations", integrate.samples)),
        Metric::new("spammer.observe_ns_per_vote", observe_ns, "ns"),
        Metric::new("spammer.exclusions", counts.exclusions as f64, "count"),
        Metric::new("triage.scored", counts.triage.scored as f64, "count"),
        Metric::new(
            "triage.auto_finalized",
            counts.triage.auto_finalized as f64,
            "count",
        ),
        Metric::new("core.select_p50_ms", ms(select.p50), "ms")
            .with_note(format!("{} selections", select.samples)),
        Metric::new("core.select_tail_ms", ms(select.tail), "ms").with_note(format!(
            "{} over {} selections",
            select.tail_label(),
            select.samples
        )),
        Metric::new(
            "core.guidance_evaluated",
            counts.guidance.evaluated as f64,
            "count",
        ),
        Metric::new(
            "core.guidance_cache_hit_ratio",
            counts.guidance.hit_rate(),
            "ratio",
        ),
        Metric::new(
            "core.guidance_em_iterations",
            counts.guidance.em_iterations as f64,
            "count",
        ),
        Metric::new("core.snapshot_full_ms", full_ms, "ms"),
        Metric::new("core.snapshot_delta_ms", delta_ms, "ms"),
        Metric::new("core.restore_delta_ms", restore_ms, "ms"),
        Metric::new("core.snapshot_bytes", snapshot_bytes, "bytes"),
    ]
}
