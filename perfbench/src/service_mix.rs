//! `service_mix`: JSON lines through `crowdval_service::serve` with one
//! supervised shard (`SupervisionConfig::enabled()`, the production
//! preset).
//!
//! Paper-scale tenants run guided loops (guidance, validation, posterior,
//! trust and triage-stats reads) beside larger ingest-only tenants whose
//! vote writes force checkpoint re-anchors. A pass serves the script twice:
//! once closed loop, each line sent when the previous one was answered
//! (round trip of every request), and once with the whole body offered at
//! once and drained (saturation throughput). After the passes the script is
//! served open loop at a fixed offered rate (request latency counted from
//! the due time). Set-up lines always go closed loop, so set-up time is a
//! sum of round trips whatever parallelism the host lends the pipeline.
//!
//! The script is generated by replaying it through a serial
//! `ValidationService` (guidance answers decide which object the next
//! validation names), and that replay's replies are the reference the
//! sharded run's read replies must equal byte for byte.

use crate::probes::{guided_loop, Crowd, GuidedSpans, LibraryCounts};
use crate::stats::{per_item_min, segment_times, FailureCount, OpenLoopSample, Summary};
use crate::{ms, repeat_passes, sub_seed, Metric, RunConfig, RunOutcome};
use crowd_validation::core::{
    HybridStrategy, ProcessConfig, TriageConfig, TriageCounters, ValidationSession,
    ValidationSessionBuilder,
};
use crowd_validation::model::{ObjectId, Vote};
use crowd_validation::service::serve::serve;
use crowd_validation::service::supervisor::encode_anchor;
use crowd_validation::service::{
    ClientVote, OverloadPolicy, Reply, ReplyOutcome, Request, RequestEnvelope, Response,
    ServeOptions, StrategyChoice, SupervisionConfig, TaskConfig, ValidationService,
};
use crowd_validation::sim::{SimulatedExpert, StreamingConfig, SyntheticConfig};
use crowd_validation::spammer::TrustConfig;
use std::io::{BufRead, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Guided tenants: paper-shaped crowds (20 workers, 2 labels, the paper's
/// population mix). A tenant's guidance cost varies with its crowd (the
/// coefficient of variation across tenants is about 0.33), so many tenants
/// are pooled: 36 tenants of 10 steps give 360 guidance requests (tail p95
/// with 18 samples beyond it), and the mean over them moves about 7 % from
/// one seed to the next. Honest reliability 0.8 rather than expert_loop's
/// 0.7 halves the cost of a guidance step, which pays for the tenant count.
pub const GUIDED_TENANTS: usize = 36;
pub const GUIDED_OBJECTS: usize = 40;
pub const GUIDED_RELIABILITY: f64 = 0.8;
/// Guided tenants under way at once (a new one joins when one finishes):
/// each body request touches one of these few or an ingest tenant, so the
/// timings depend less on how much of the shared cache the host's
/// neighbours leave (with all 36 under way, each request found its tenant
/// cold and one seed's guidance mean moved 15 % between two runs).
pub const ACTIVE_GUIDED: usize = 6;
/// Expert validations per guided tenant (triage scores from the ninth on,
/// after its warm-up).
pub const GUIDED_STEPS: usize = 10;
/// Ingest-only tenants and their size.
pub const INGEST_TENANTS: usize = 2;
pub const INGEST_OBJECTS: usize = 600;
pub const INGEST_WORKERS: usize = 150;
pub const INGEST_ANSWERS_PER_OBJECT: usize = 5;
/// Votes per `SubmitVotes` in the timed body.
pub const INGEST_BATCH: usize = 50;
/// Offered rate of the open-loop conversation a run serves after its
/// passes, requests per second (about a quarter of saturation).
pub const OPEN_LOOP_RATE: f64 = 300.0;
/// Body requests per segment of the drain phase: saturation throughput is
/// the body over the sum of each segment's fastest time across passes.
pub const DRAIN_SEGMENT: usize = 32;
/// Mailbox capacity: the whole body fits below the shed watermark, so the
/// drain phase never sheds.
pub const MAILBOX: usize = 16_384;
/// A trust read (and, on guided tenants, a triage-stats read) every this
/// many steps or batches, and after a guided tenant's last step.
const READ_EVERY: usize = 4;
/// A posterior read after every this many validations.
const POSTERIOR_EVERY: usize = 2;
/// Votes per `SubmitVotes` when a tenant is warmed during set-up.
const SETUP_CHUNK: usize = 500;

/// Request kinds, for per-kind reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Create,
    SubmitVotes,
    Guidance,
    Validation,
    Query,
    Control,
}

/// What a tenant does in the script.
pub struct TenantPlan {
    pub name: String,
    pub crowd: Crowd,
    pub config: TaskConfig,
    /// Votes submitted while the tenant is warmed (set-up).
    pub setup_votes: Vec<Vote>,
    /// Vote batches submitted in the timed body.
    pub stream: Vec<Vec<Vote>>,
    /// Guided steps (guidance + validation + posterior read) in the body,
    /// after the stream.
    pub guided_steps: usize,
}

/// One script line.
pub struct Line {
    pub json: String,
    pub kind: Kind,
    /// Tenant index (`usize::MAX` for control lines).
    pub tenant: usize,
    /// Votes the line submits.
    pub votes: usize,
    /// The serial replay's reply, byte for byte.
    pub expected: String,
}

/// The generated conversation: set-up lines (create and warm every
/// tenant), the timed body, and closing lines (final snapshots of the
/// guided tenants, runtime stats, health) sent after the body is answered.
pub struct Script {
    pub setup: Vec<Line>,
    pub body: Vec<Line>,
    pub closing: Vec<Line>,
    pub plans: Vec<TenantPlan>,
}

impl Script {
    fn all(&self) -> impl Iterator<Item = &Line> {
        self.setup.iter().chain(&self.body).chain(&self.closing)
    }

    pub fn body_votes(&self) -> usize {
        self.body.iter().map(|l| l.votes).sum()
    }
}

fn label_name(l: usize) -> String {
    format!("l{l}")
}

fn client_votes(votes: &[Vote]) -> Vec<ClientVote> {
    votes
        .iter()
        .map(|v| ClientVote {
            worker: format!("w{}", v.worker.index()),
            object: format!("o{}", v.object.index()),
            label: label_name(v.label.index()),
        })
        .collect()
}

/// Where a tenant is in its part of the body.
enum Cursor {
    Guidance { step: usize },
    Validation { step: usize, object: String },
    Posterior { step: usize, object: String },
    Reads { step: usize, triage_next: bool },
    Stream { batch: usize },
    Done,
}

/// Where a guided tenant goes after step `step`'s validation (and
/// posterior read).
fn after_step(step: usize, steps: usize) -> Cursor {
    if (step + 1).is_multiple_of(READ_EVERY) || step + 1 == steps {
        Cursor::Reads {
            step,
            triage_next: false,
        }
    } else if step + 1 < steps {
        Cursor::Guidance { step: step + 1 }
    } else {
        Cursor::Done
    }
}

/// Builds the script by replaying it through a serial service.
pub fn build_script(plans: Vec<TenantPlan>) -> Script {
    let mut svc = ValidationService::new();
    let mut next_id = 1u64;
    let mut emit =
        |svc: &mut ValidationService, request: Request, kind: Kind, tenant: usize, votes: usize| {
            let envelope = RequestEnvelope::new(next_id, request);
            next_id += 1;
            let reply = svc.reply(&envelope);
            if let ReplyOutcome::Err(e) = &reply.outcome {
                panic!(
                    "generated request {} failed in the serial replay: {e:?}",
                    envelope.request_id
                );
            }
            let line = Line {
                json: serde_json::to_string(&envelope).expect("envelopes serialize"),
                kind,
                tenant,
                votes,
                expected: serde_json::to_string(&reply).expect("replies serialize"),
            };
            (line, reply)
        };

    let mut setup = Vec::new();
    for (t, plan) in plans.iter().enumerate() {
        let labels = (0..plan.crowd.num_labels).map(label_name).collect();
        let create = Request::CreateTask {
            task: plan.name.clone(),
            labels,
            config: plan.config,
        };
        setup.push(emit(&mut svc, create, Kind::Create, t, 0).0);
        for chunk in plan.setup_votes.chunks(SETUP_CHUNK) {
            let request = Request::SubmitVotes {
                task: plan.name.clone(),
                votes: client_votes(chunk),
            };
            setup.push(emit(&mut svc, request, Kind::SubmitVotes, t, chunk.len()).0);
        }
    }

    // Body: tenants take turns, one request each per round. Guided tenants
    // join one per round, so their expensive first guidance requests are
    // spread out instead of arriving as one burst, and at most
    // ACTIVE_GUIDED of them are under way at once.
    let guided: Vec<usize> = (0..plans.len())
        .filter(|&t| plans[t].stream.is_empty())
        .collect();
    let mut joined = 0usize;
    let mut cursors: Vec<Cursor> = plans
        .iter()
        .map(|p| {
            if p.stream.is_empty() {
                Cursor::Guidance { step: 0 }
            } else {
                Cursor::Stream { batch: 0 }
            }
        })
        .collect();
    let mut body = Vec::new();
    while cursors.iter().any(|c| !matches!(c, Cursor::Done)) {
        let running = guided[..joined]
            .iter()
            .filter(|&&t| !matches!(cursors[t], Cursor::Done))
            .count();
        if joined < guided.len() && running < ACTIVE_GUIDED {
            joined += 1;
        }
        for (t, plan) in plans.iter().enumerate() {
            if plan.stream.is_empty() && !guided[..joined].contains(&t) {
                continue;
            }
            let task = plan.name.clone();
            let cursor = std::mem::replace(&mut cursors[t], Cursor::Done);
            cursors[t] = match cursor {
                Cursor::Done => Cursor::Done,
                Cursor::Guidance { step } => {
                    let (line, reply) = emit(
                        &mut svc,
                        Request::RequestGuidance { task },
                        Kind::Guidance,
                        t,
                        0,
                    );
                    body.push(line);
                    match reply.outcome {
                        ReplyOutcome::Ok(Response::Guidance {
                            object: Some(object),
                            ..
                        }) => Cursor::Validation { step, object },
                        _ => Cursor::Done,
                    }
                }
                Cursor::Validation { step, object } => {
                    let index: usize = object[1..].parse().expect("objects are named o<index>");
                    let label = label_name(plan.crowd.truth.label(ObjectId(index)).index());
                    let request = Request::SubmitValidation {
                        task,
                        object: object.clone(),
                        label,
                    };
                    body.push(emit(&mut svc, request, Kind::Validation, t, 0).0);
                    if step % POSTERIOR_EVERY == POSTERIOR_EVERY - 1 {
                        Cursor::Posterior { step, object }
                    } else {
                        after_step(step, plan.guided_steps)
                    }
                }
                Cursor::Posterior { step, object } => {
                    // Read back a neighbour of the validated object.
                    let index: usize = object[1..].parse().expect("objects are named o<index>");
                    let neighbour = format!("o{}", (index + 1) % plan.crowd.truth.len());
                    let request = Request::QueryPosterior {
                        task,
                        object: neighbour,
                    };
                    body.push(emit(&mut svc, request, Kind::Query, t, 0).0);
                    after_step(step, plan.guided_steps)
                }
                Cursor::Reads { step, triage_next } => {
                    if triage_next {
                        let request = Request::TriageStats { task };
                        body.push(emit(&mut svc, request, Kind::Query, t, 0).0);
                        if step + 1 < plan.guided_steps {
                            Cursor::Guidance { step: step + 1 }
                        } else {
                            Cursor::Done
                        }
                    } else {
                        let request = Request::QueryWorkerTrust { task };
                        body.push(emit(&mut svc, request, Kind::Query, t, 0).0);
                        Cursor::Reads {
                            step,
                            triage_next: true,
                        }
                    }
                }
                Cursor::Stream { batch } => {
                    if batch < plan.stream.len() {
                        let votes = &plan.stream[batch];
                        let request = Request::SubmitVotes {
                            task,
                            votes: client_votes(votes),
                        };
                        body.push(emit(&mut svc, request, Kind::SubmitVotes, t, votes.len()).0);
                        Cursor::Stream { batch: batch + 1 }
                    } else {
                        let request = Request::QueryWorkerTrust { task };
                        body.push(emit(&mut svc, request, Kind::Query, t, 0).0);
                        if plan.guided_steps > 0 {
                            Cursor::Guidance { step: 0 }
                        } else {
                            Cursor::Done
                        }
                    }
                }
            };
        }
    }

    let mut closing = Vec::new();
    for (t, plan) in plans.iter().enumerate() {
        if plan.guided_steps > 0 {
            let request = Request::Snapshot {
                task: plan.name.clone(),
            };
            closing.push(emit(&mut svc, request, Kind::Control, t, 0).0);
        }
    }
    for request in [Request::RuntimeStats, Request::Health] {
        // Runtime-wide reads: the sharded runtime answers them with its
        // own counters, so their expected text is not compared.
        closing.push(emit(&mut svc, request, Kind::Control, usize::MAX, 0).0);
    }
    Script {
        setup,
        body,
        closing,
        plans,
    }
}

/// Task configuration of a guided tenant.
fn guided_config(seed: u64) -> TaskConfig {
    TaskConfig {
        strategy: StrategyChoice::Hybrid,
        seed,
        budget: None,
        handle_faulty_workers: true,
        shortlist: None,
        online_defense: true,
        wal: false,
        triage: true,
    }
}

/// Guided-tenant plans over already generated crowds: every vote in
/// set-up, `steps` guided steps in the body.
pub fn guided_plans(crowds: &[Crowd], seed: u64, steps: usize) -> Vec<TenantPlan> {
    crowds
        .iter()
        .enumerate()
        .map(|(i, c)| TenantPlan {
            name: format!("guided-{i}"),
            crowd: c.clone(),
            config: guided_config(sub_seed(seed, 300 + i as u64)),
            setup_votes: c.votes.clone(),
            stream: Vec::new(),
            guided_steps: steps,
        })
        .collect()
}

/// An ingest tenant plan: the stream's initial votes in set-up, its
/// batches in the body, then `guided_steps` guided steps (0 for the
/// ingest-only tenants of service_mix).
pub fn ingest_plan(
    name: String,
    crowd: Crowd,
    initial: Vec<Vote>,
    stream: Vec<Vec<Vote>>,
    guided_steps: usize,
) -> TenantPlan {
    TenantPlan {
        name,
        crowd,
        config: TaskConfig {
            strategy: StrategyChoice::Hybrid,
            online_defense: true,
            ..TaskConfig::default()
        },
        setup_votes: initial,
        stream,
        guided_steps,
    }
}

/// The service_mix script for one seed.
pub fn generate(seed: u64) -> Script {
    build_script(plans(seed))
}

/// The service_mix tenants for one seed. Same sizes and mix for every seed.
pub fn plans(seed: u64) -> Vec<TenantPlan> {
    let guided: Vec<Crowd> = (0..GUIDED_TENANTS)
        .map(|i| {
            let synth = SyntheticConfig {
                num_objects: GUIDED_OBJECTS,
                reliability: GUIDED_RELIABILITY,
                ..SyntheticConfig::paper_default(sub_seed(seed, 200 + i as u64))
            }
            .generate();
            let set = synth.dataset.answers();
            Crowd {
                name: format!("guided-{i}"),
                num_labels: set.num_labels(),
                votes: crate::probes::votes_of(set),
                truth: synth.dataset.ground_truth().clone(),
            }
        })
        .collect();
    let mut plans = guided_plans(&guided, seed, GUIDED_STEPS);
    for i in 0..INGEST_TENANTS {
        let scenario = StreamingConfig {
            base: SyntheticConfig {
                num_objects: INGEST_OBJECTS,
                num_workers: INGEST_WORKERS,
                answers_per_object: Some(INGEST_ANSWERS_PER_OBJECT),
                reliability: crate::crowd_stream::RELIABILITY,
                ..SyntheticConfig::paper_default(sub_seed(seed, 250 + i as u64))
            },
            initial_fraction: 0.3,
            batch_size: INGEST_BATCH,
            late_object_fraction: 0.3,
            late_worker_fraction: 0.25,
        }
        .generate();
        let crowd = Crowd {
            name: format!("ingest-{i}"),
            num_labels: scenario.num_labels,
            votes: scenario.all_votes(),
            truth: scenario.truth.clone(),
        };
        plans.push(ingest_plan(
            format!("ingest-{i}"),
            crowd,
            scenario.initial,
            scenario.batches,
            0,
        ));
    }
    plans
}

// ---------------------------------------------------------------------------
// Driving `serve`
// ---------------------------------------------------------------------------

/// Replies seen so far, shared between the paced input and the reply sink.
struct Shared {
    origin: Instant,
    /// When the body started (seconds from origin): the barrier after
    /// set-up opened.
    body_origin: f64,
    /// Seconds from origin at which line `i` (request id `i + 1`) was
    /// handed to the server and answered.
    sent: Vec<f64>,
    replied: Vec<f64>,
    replies: Vec<Option<Vec<u8>>>,
    received: usize,
}

type SharedState = Arc<(Mutex<Shared>, Condvar)>;

/// The server's input: hands out one line at a time, sleeping until each
/// line is due and holding lines back until earlier ones were answered
/// where the script demands it.
struct PacedInput {
    lines: Vec<Vec<u8>>,
    /// Due offset (seconds after the body starts) of each body line; set-up
    /// and closing lines go out as soon as the barrier before them opens.
    body_due: Vec<f64>,
    body_start: usize,
    closing_start: usize,
    /// Body lines wait for the previous reply too (closed loop).
    closed_body: bool,
    pos: usize,
    offset: usize,
    state: SharedState,
}

impl PacedInput {
    /// Blocks until every line before `upto` has been answered.
    fn wait_for_replies(&self, upto: usize) {
        let (lock, cvar) = &*self.state;
        let mut shared = lock.lock().expect("reply state lock poisoned");
        while shared.received < upto {
            shared = cvar.wait(shared).expect("reply state lock poisoned");
        }
    }

    /// Prepares line `pos` for reading: barriers, pacing, send stamp.
    /// Each set-up line, and in closed loop each body line, waits for every
    /// earlier reply; so do the first body line and the first closing line.
    fn open_line(&mut self) {
        let pos = self.pos;
        let body = (self.body_start..self.closing_start).contains(&pos);
        if pos <= self.body_start || pos == self.closing_start || (body && self.closed_body) {
            self.wait_for_replies(pos);
        }
        let (lock, _) = &*self.state;
        if pos == self.body_start {
            let mut shared = lock.lock().expect("reply state lock poisoned");
            shared.body_origin = shared.origin.elapsed().as_secs_f64();
        }
        if body {
            let offset = self.body_due[pos - self.body_start];
            let (due, now) = {
                let shared = lock.lock().expect("reply state lock poisoned");
                (
                    shared.body_origin + offset,
                    shared.origin.elapsed().as_secs_f64(),
                )
            };
            if due > now {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
        }
        let mut shared = lock.lock().expect("reply state lock poisoned");
        let t = shared.origin.elapsed().as_secs_f64();
        shared.sent[pos] = t;
    }
}

impl Read for PacedInput {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PacedInput {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.lines.len() {
            return Ok(&[]);
        }
        if self.offset == 0 {
            self.open_line();
        }
        Ok(&self.lines[self.pos][self.offset..])
    }

    fn consume(&mut self, amt: usize) {
        self.offset += amt;
        if self.pos < self.lines.len() && self.offset >= self.lines[self.pos].len() {
            self.pos += 1;
            self.offset = 0;
        }
    }
}

/// The server's output: stamps each reply line as it is written.
struct ReplySink {
    pending: Vec<u8>,
    state: SharedState,
}

fn request_id_of(line: &[u8]) -> Option<usize> {
    let key = b"\"request_id\":";
    let at = line.windows(key.len()).position(|w| w == key)? + key.len();
    let digits: Vec<u8> = line[at..]
        .iter()
        .copied()
        .take_while(u8::is_ascii_digit)
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

impl Write for ReplySink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let (lock, cvar) = &*self.state;
            let mut shared = lock.lock().expect("reply state lock poisoned");
            let t = shared.origin.elapsed().as_secs_f64();
            if let Some(index) = request_id_of(&line).and_then(|id| id.checked_sub(1)) {
                if index < shared.replies.len() {
                    shared.replied[index] = t;
                    shared.replies[index] = Some(line[..line.len() - 1].to_vec());
                }
            }
            shared.received += 1;
            cvar.notify_all();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// How the body is offered.
#[derive(Debug, Clone, Copy)]
pub enum Offer {
    /// Line `i` of the body is due `i / rate` seconds after the body starts.
    OpenLoop { rate: f64 },
    /// Each body line is sent when the previous reply arrived, and is due
    /// when it is sent.
    ClosedLoop,
    /// The whole body is due at once.
    Drain,
}

/// One `serve` conversation over the script.
pub struct Served {
    /// Round trip of every set-up line, in seconds (they go one at a time).
    pub setup_round_trips: Vec<f64>,
    /// One sample per body line, times relative to the body start.
    pub body: Vec<OpenLoopSample>,
    /// Reply text by line (set-up, body, closing).
    pub replies: Vec<Option<Vec<u8>>>,
    pub shed: usize,
    pub overloaded: usize,
}

/// The runtime the benchmark serves through: one supervised shard.
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        shards: 1,
        mailbox_capacity: MAILBOX,
        overload: OverloadPolicy::Block,
        supervision: SupervisionConfig::enabled(),
    }
}

/// Serves the script once.
pub fn drive(script: &Script, offer: Offer) -> Served {
    let lines: Vec<Vec<u8>> = script
        .all()
        .map(|l| {
            let mut bytes = l.json.clone().into_bytes();
            bytes.push(b'\n');
            bytes
        })
        .collect();
    let n = lines.len();
    let body_start = script.setup.len();
    let closing_start = body_start + script.body.len();
    let body_due: Vec<f64> = (0..script.body.len())
        .map(|i| match offer {
            Offer::OpenLoop { rate } => i as f64 / rate,
            Offer::ClosedLoop | Offer::Drain => 0.0,
        })
        .collect();
    let state: SharedState = Arc::new((
        Mutex::new(Shared {
            origin: Instant::now(),
            body_origin: 0.0,
            sent: vec![0.0; n],
            replied: vec![0.0; n],
            replies: vec![None; n],
            received: 0,
        }),
        Condvar::new(),
    ));
    let input = PacedInput {
        lines,
        body_due: body_due.clone(),
        body_start,
        closing_start,
        closed_body: matches!(offer, Offer::ClosedLoop),
        pos: 0,
        offset: 0,
        state: Arc::clone(&state),
    };
    let sink = ReplySink {
        pending: Vec::new(),
        state: Arc::clone(&state),
    };
    let (_, summary) = serve(input, sink, &serve_options());
    let (lock, _) = &*state;
    let mut shared = lock.lock().expect("reply state lock poisoned");
    let setup_round_trips = (0..body_start)
        .map(|i| shared.replied[i] - shared.sent[i])
        .collect();
    let body_origin = shared.body_origin;
    let body = (body_start..closing_start)
        .zip(body_due)
        .map(|(i, due)| {
            let sent = shared.sent[i] - body_origin;
            OpenLoopSample {
                due: if matches!(offer, Offer::ClosedLoop) {
                    sent
                } else {
                    due
                },
                sent,
                replied: shared.replied[i] - body_origin,
            }
        })
        .collect();
    Served {
        setup_round_trips,
        body,
        replies: std::mem::take(&mut shared.replies),
        shed: summary.shed,
        overloaded: summary.overloaded,
    }
}

// ---------------------------------------------------------------------------
// Checks and metrics
// ---------------------------------------------------------------------------

fn parse_reply(bytes: &[u8]) -> Option<Reply> {
    serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()
}

/// Checks one served conversation: every line answered `Ok`, nothing shed
/// or rejected, and every read reply (posterior, trust, triage stats, final
/// snapshots) byte-identical to the serial replay.
fn check_served(script: &Script, served: &Served, errors: &mut Vec<String>) -> FailureCount {
    let mut failures = FailureCount::default();
    for (i, line) in script.all().enumerate() {
        let ok = match served.replies[i].as_deref() {
            None => {
                errors.push(format!("request {} got no reply", i + 1));
                false
            }
            // The serial replay answered every line `Ok`, so a byte-identical
            // reply needs no parsing.
            Some(bytes) if bytes == line.expected.as_bytes() => true,
            Some(bytes) => {
                let ok = matches!(
                    parse_reply(bytes),
                    Some(Reply {
                        outcome: ReplyOutcome::Ok(_),
                        ..
                    })
                );
                let compared = matches!(line.kind, Kind::Query)
                    || (line.kind == Kind::Control && line.tenant != usize::MAX);
                if compared && errors.len() < 8 {
                    errors.push(format!(
                        "request {}: sharded reply differs from the serial replay",
                        i + 1
                    ));
                }
                ok
            }
        };
        failures.record(ok);
    }
    for _ in 0..served.shed + served.overloaded {
        failures.record(false);
    }
    failures
}

/// Precision of the guided tenants' final labels, from the closing
/// snapshot replies: each snapshot is restored and its deterministic labels
/// are compared with the ground truth (mean over tenants).
fn guided_precision(script: &Script, served: &Served) -> Option<f64> {
    let offset = script.setup.len() + script.body.len();
    let mut precisions = Vec::new();
    for (j, line) in script.closing.iter().enumerate() {
        if line.tenant == usize::MAX {
            continue;
        }
        let reply = parse_reply(served.replies[offset + j].as_deref()?)?;
        let ReplyOutcome::Ok(Response::Snapshot { snapshot, .. }) = reply.outcome else {
            return None;
        };
        let truth = &script.plans[line.tenant].crowd.truth;
        let session = ValidationSession::restore(snapshot.session.clone()).ok()?;
        let labels = session.deterministic_assignment();
        let mut correct = 0usize;
        for (internal, name) in snapshot.objects.iter() {
            let external: usize = name[1..].parse().ok()?;
            let label = snapshot
                .labels
                .name(labels.label(ObjectId(internal)).index())?;
            let label: usize = label[1..].parse().ok()?;
            if truth.label(ObjectId(external)).index() == label {
                correct += 1;
            }
        }
        precisions.push(correct as f64 / truth.len() as f64);
    }
    (!precisions.is_empty()).then(|| precisions.iter().sum::<f64>() / precisions.len() as f64)
}

/// Shard counters from the closing `RuntimeStats` reply: (shed, overload
/// rejections, restarts).
fn shard_counts(script: &Script, served: &Served) -> (u64, u64, u64) {
    let offset = script.setup.len() + script.body.len();
    for (j, _) in script.closing.iter().enumerate() {
        if let Some(Reply {
            outcome: ReplyOutcome::Ok(Response::RuntimeStats { shards }),
            ..
        }) = served.replies[offset + j].as_deref().and_then(parse_reply)
        {
            return shards.iter().fold((0, 0, 0), |acc, s| {
                (
                    acc.0 + s.shed_requests,
                    acc.1 + s.overload_rejections,
                    acc.2 + s.restarts,
                )
            });
        }
    }
    (0, 0, 0)
}

/// One pass: the closed-loop conversation, then the drain conversation.
struct Pass {
    /// Round trip of every set-up line, once per conversation.
    setup: Vec<Vec<f64>>,
    /// Round trip of every body line in the closed-loop conversation, in
    /// milliseconds.
    round_trips_ms: Vec<f64>,
    /// Time of each [`DRAIN_SEGMENT`] of the drained body, in seconds.
    drain_segments_s: Vec<f64>,
    failures: FailureCount,
    /// The closed-loop conversation, kept for the first pass only (its
    /// closing snapshots give the guided precision; traced mode reads its
    /// replies).
    closed: Option<Served>,
}

fn pass(script: &Script, errors: &mut Vec<String>, keep_closed: bool) -> Pass {
    let closed = drive(script, Offer::ClosedLoop);
    let drain = drive(script, Offer::Drain);
    let mut failures = check_served(script, &closed, errors);
    failures.absorb(check_served(script, &drain, errors));
    Pass {
        setup: vec![
            closed.setup_round_trips.clone(),
            drain.setup_round_trips.clone(),
        ],
        round_trips_ms: closed.body.iter().map(|s| ms(s.latency())).collect(),
        drain_segments_s: segment_times(
            &drain.body.iter().map(|s| s.replied).collect::<Vec<_>>(),
            DRAIN_SEGMENT,
        ),
        failures,
        closed: keep_closed.then_some(closed),
    }
}

/// Rough length of one open-loop conversation in seconds: the body at the
/// offered rate, plus set-up and closing.
fn open_loop_seconds(script: &Script) -> f64 {
    script.body.len() as f64 / OPEN_LOOP_RATE + 0.5
}

/// The entries of `values` (one per body line) that belong to lines of
/// one kind.
fn of_kind(script: &Script, values: &[f64], kind: Kind) -> Vec<f64> {
    script
        .body
        .iter()
        .zip(values)
        .filter(|(l, _)| l.kind == kind)
        .map(|(_, &v)| v)
        .collect()
}

pub fn run(cfg: &RunConfig) -> RunOutcome {
    let script = generate(cfg.seed);
    let mut outcome = RunOutcome::default();
    let share = if cfg.trace { 0.6 } else { 1.0 };
    let mut errors = Vec::new();
    let pass_seconds = (cfg.seconds * share - open_loop_seconds(&script)).max(0.0);
    let (passes, mut walls) = repeat_passes(pass_seconds, cfg.trace, |i| {
        pass(&script, &mut errors, i == 0)
    });
    let start = Instant::now();
    let open = drive(
        &script,
        Offer::OpenLoop {
            rate: OPEN_LOOP_RATE,
        },
    );
    outcome
        .failures
        .absorb(check_served(&script, &open, &mut errors));
    let open: Vec<f64> = open.body.iter().map(|s| ms(s.latency())).collect();
    walls.push(start.elapsed().as_secs_f64());
    outcome.pass_walls_s = walls;
    outcome.check_errors = errors;
    for p in &passes {
        outcome.failures.absorb(p.failures);
    }
    let first_closed = passes[0]
        .closed
        .as_ref()
        .expect("the first pass keeps its conversation");
    // Every pass's closing snapshots were checked byte-identical to the
    // serial replay, so the first pass's give every pass's precision.
    let precision_final = match guided_precision(&script, first_closed) {
        Some(p) => p,
        None => {
            outcome
                .check_errors
                .push("closing snapshots did not restore".to_string());
            f64::NAN
        }
    };

    // The service carries no spans, so traced and untraced passes are the
    // same conversations; every pass counts toward the end-to-end numbers.
    let setups: Vec<Vec<f64>> = passes.iter().flat_map(|p| p.setup.clone()).collect();
    let round_trips: Vec<Vec<f64>> = passes.iter().map(|p| p.round_trips_ms.clone()).collect();
    let segments: Vec<Vec<f64>> = passes.iter().map(|p| p.drain_segments_s.clone()).collect();
    let (setup, round_trips, segments) = match (
        per_item_min(&setups),
        per_item_min(&round_trips),
        per_item_min(&segments),
    ) {
        (Ok(s), Ok(r), Ok(d)) => (s, r, d),
        (s, r, d) => {
            outcome
                .check_errors
                .extend([s.err(), r.err(), d.err()].into_iter().flatten());
            return outcome;
        }
    };
    let setup_s: f64 = setup.iter().sum();
    let request = Summary::of(&open);
    // The expert's wait through the service: guidance round trips.
    let guidance = Summary::of(&of_kind(&script, &round_trips, Kind::Guidance));
    let ingest_s = of_kind(&script, &round_trips, Kind::SubmitVotes)
        .iter()
        .sum::<f64>()
        / 1e3;
    let saturation_rps = script.body.len() as f64 / segments.iter().sum::<f64>();
    let ingest_votes_per_s = script.body_votes() as f64 / ingest_s;
    let peak = crate::host::peak_rss_mb().unwrap_or(f64::NAN);
    let guidance_note = format!("{} guidance round trips, closed loop", guidance.samples);
    let guidance_tail_note = format!(
        "{} over {} guidance round trips",
        guidance.tail_label(),
        guidance.samples
    );
    outcome.report = vec![
        Metric::new("setup_s", setup_s, "s").with_note(format!(
            "create and warm every tenant: {} lines, fastest round trip of each over {} set-ups",
            setup.len(),
            setups.len()
        )),
        Metric::new("request_p50_ms", request.p50, "ms").with_note(format!(
            "{} requests from due time, open loop at {OPEN_LOOP_RATE} req/s",
            request.samples
        )),
        Metric::new("request_tail_ms", request.tail, "ms").with_note(format!(
            "{} over {} requests",
            request.tail_label(),
            request.samples
        )),
        Metric::new("guidance_p50_ms", guidance.p50, "ms").with_note(guidance_note.clone()),
        Metric::new("guidance_tail_ms", guidance.tail, "ms").with_note(guidance_tail_note.clone()),
        Metric::new("guidance_mean_ms", guidance.mean, "ms").with_note(guidance_note),
        Metric::new("saturation_rps", saturation_rps, "req/s").with_note(format!(
            "body drained at once: {} requests over the fastest time of each {DRAIN_SEGMENT}-request segment",
            script.body.len()
        )),
        Metric::new("ingest_votes_per_s", ingest_votes_per_s, "votes/s")
            .with_note("body votes over the closed-loop SubmitVotes round trips"),
        Metric::new("precision_final", precision_final, "ratio")
            .with_note("guided tenants, from the closing snapshots"),
        Metric::new("peak_rss_mb", peak, "MB"),
        Metric::new("failed_ratio", outcome.failures.ratio(), "ratio"),
    ];
    if !cfg.trace {
        outcome.result = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("latency_mean_ms", guidance.mean, "ms"),
            Metric::new("latency_tail_ms", guidance.tail, "ms").with_note(guidance_tail_note),
            Metric::new("throughput_per_s", saturation_rps, "1/s"),
            Metric::new("peak_rss_mb", peak, "MB"),
        ];
        return outcome;
    }

    let (traced, untraced) = crate::split_traced(&passes, true);
    let p50_of = |group: &[&Pass]| {
        let all: Vec<Vec<f64>> = group.iter().map(|p| p.round_trips_ms.clone()).collect();
        per_item_min(&all).map(|l| Summary::of(&l).p50)
    };
    let overhead = match (p50_of(&traced), p50_of(&untraced)) {
        (Ok(t), Ok(u)) => t / u,
        _ => f64::NAN,
    };
    let mut layers = library_layers(&script, first_closed);
    layers.extend(service_probe(&script, OPEN_LOOP_RATE));
    layers.push(Metric::new("trace.overhead_ratio", overhead, "ratio"));
    outcome.result = layers;
    outcome
}

/// Library-layer metrics on the service_mix inputs. The guided tenants are
/// replayed as library sessions with the same configuration (the service
/// exposes no guidance telemetry); EM iterations, exclusions and triage
/// counts are read from the served replies.
fn library_layers(script: &Script, served: &Served) -> Vec<Metric> {
    let mut spans = GuidedSpans::default();
    let mut counts = LibraryCounts::default();
    for plan in script.plans.iter().filter(|p| p.guided_steps > 0) {
        let crowd = &plan.crowd;
        let mut session = ValidationSessionBuilder::new(crowd.answer_set())
            .strategy(Box::new(HybridStrategy::new(plan.config.seed)))
            .config(ProcessConfig {
                trust: TrustConfig::streaming_default(),
                triage: TriageConfig::calibrated(),
                ..ProcessConfig::default()
            })
            .ground_truth(crowd.truth.clone())
            .try_build()
            .expect("generated crowds are well-formed");
        let mut expert = SimulatedExpert::perfect(crowd.truth.clone(), crowd.num_labels);
        guided_loop(
            &mut session,
            &mut expert,
            plan.guided_steps,
            Some(&mut spans),
        );
        counts.guidance.absorb(&session.guidance_totals());
    }
    // Last trust and triage reads per tenant, and every ingest's EM work.
    let mut exclusions = vec![0u64; script.plans.len()];
    let mut triage = vec![TriageCounters::default(); script.plans.len()];
    for (i, line) in script.all().enumerate() {
        let Some(reply) = served.replies[i].as_deref().and_then(parse_reply) else {
            continue;
        };
        match reply.outcome {
            ReplyOutcome::Ok(Response::VotesAccepted { em_iterations, .. }) => {
                counts.ingest_em_iterations += em_iterations as u64;
            }
            ReplyOutcome::Ok(Response::WorkerTrust { exclusions: e, .. }) => {
                exclusions[line.tenant] = e;
            }
            ReplyOutcome::Ok(Response::TriageStats {
                scored,
                auto_finalized,
                ..
            }) => {
                triage[line.tenant].scored = scored;
                triage[line.tenant].auto_finalized = auto_finalized;
            }
            _ => {}
        }
    }
    counts.exclusions = exclusions.iter().sum();
    for t in &triage {
        counts.triage.scored += t.scored;
        counts.triage.auto_finalized += t.auto_finalized;
    }
    // Checkpoints: the first ingest tenant as a library session, warmed
    // like the service warms it, then its last batches as the delta.
    let checkpoints = match script.plans.iter().find(|p| !p.stream.is_empty()) {
        Some(plan) => crate::crowd_stream::stream_checkpoint_probe(
            &plan.crowd,
            &plan.setup_votes,
            &plan.stream,
        ),
        None => (f64::NAN, f64::NAN, f64::NAN, f64::NAN),
    };
    let crowds: Vec<&Crowd> = script.plans.iter().map(|p| &p.crowd).collect();
    crate::probes::library_layers(&crowds, &spans, &counts, checkpoints)
}

/// Per-layer metrics of the `service` layer on a script: a serial
/// `ValidationService` replay timing wire decode, `handle` per request kind
/// and reply encode; a checkpoint anchor of every tenant; and one open-loop
/// conversation through the sharded runtime, whose latency minus the
/// serial handle time is the queue wait.
pub fn service_probe(script: &Script, rate: f64) -> Vec<Metric> {
    let lines: Vec<&Line> = script.setup.iter().chain(&script.body).collect();
    let n = lines.len();
    let mut decode = vec![f64::INFINITY; n];
    let mut handle = vec![f64::INFINITY; n];
    let mut encode = vec![f64::INFINITY; n];
    let mut svc = ValidationService::new();
    for _ in 0..2 {
        svc = ValidationService::new();
        for (i, line) in lines.iter().enumerate() {
            let t0 = Instant::now();
            let envelope: RequestEnvelope =
                serde_json::from_str(&line.json).expect("script lines parse");
            let t1 = Instant::now();
            let reply = svc.reply(&envelope);
            let t2 = Instant::now();
            let text = serde_json::to_string(&reply).expect("replies serialize");
            let t3 = Instant::now();
            std::hint::black_box(text);
            decode[i] = decode[i].min((t1 - t0).as_secs_f64());
            handle[i] = handle[i].min((t2 - t1).as_secs_f64());
            encode[i] = encode[i].min((t3 - t2).as_secs_f64());
        }
    }
    let us = |s: f64| s * 1e6;
    let mean_us = |v: &[f64]| us(v.iter().sum::<f64>() / v.len() as f64);
    let handle_p50_us = |kind: Kind| {
        let of_kind: Vec<f64> = lines
            .iter()
            .zip(&handle)
            .filter(|(l, _)| l.kind == kind)
            .map(|(_, &h)| h)
            .collect();
        if of_kind.is_empty() {
            f64::NAN
        } else {
            us(Summary::of(&of_kind).p50)
        }
    };

    // Recovery anchors: the largest tenant's checkpoint and its encoding.
    let mut anchor = (0.0, 0usize);
    for plan in &script.plans {
        let mut best = f64::INFINITY;
        let mut bytes = 0;
        for _ in 0..3 {
            let start = Instant::now();
            let a = svc.checkpoint_task(&plan.name).expect("tenant exists");
            let encoded = encode_anchor(&a);
            best = best.min(start.elapsed().as_secs_f64());
            bytes = encoded.len();
        }
        if bytes > anchor.1 {
            anchor = (ms(best), bytes);
        }
    }

    let served = drive(script, Offer::OpenLoop { rate });
    let body_start = script.setup.len();
    let waits: Vec<f64> = served
        .body
        .iter()
        .enumerate()
        .map(|(i, s)| ms((s.replied - s.sent - handle[body_start + i]).max(0.0)))
        .collect();
    let lateness: Vec<f64> = served.body.iter().map(|s| ms(s.lateness())).collect();
    let wait = Summary::of(&waits);
    let late = Summary::of(&lateness);
    let (shed, rejections, restarts) = shard_counts(script, &served);
    vec![
        Metric::new("service.decode_us", mean_us(&decode), "us"),
        Metric::new("service.encode_us", mean_us(&encode), "us"),
        Metric::new(
            "service.handle_us.submit_votes",
            handle_p50_us(Kind::SubmitVotes),
            "us",
        ),
        Metric::new(
            "service.handle_us.guidance",
            handle_p50_us(Kind::Guidance),
            "us",
        ),
        Metric::new(
            "service.handle_us.validation",
            handle_p50_us(Kind::Validation),
            "us",
        ),
        Metric::new("service.handle_us.query", handle_p50_us(Kind::Query), "us"),
        Metric::new("service.queue_wait_p50_ms", wait.p50, "ms")
            .with_note(format!("{} requests at {rate} req/s", wait.samples)),
        Metric::new("service.queue_wait_tail_ms", wait.tail, "ms").with_note(format!(
            "{} over {} requests",
            wait.tail_label(),
            wait.samples
        )),
        Metric::new("service.anchor_encode_ms", anchor.0, "ms").with_note("largest tenant"),
        Metric::new("service.anchor_bytes", anchor.1 as f64, "bytes").with_note("largest tenant"),
        Metric::new(
            "service.shed",
            (shed as usize + served.shed) as f64,
            "count",
        ),
        Metric::new(
            "service.overload_rejections",
            (rejections as usize + served.overloaded) as f64,
            "count",
        ),
        Metric::new("service.restarts", restarts as f64, "count"),
        Metric::new("loadgen.late_tail_ms", late.tail, "ms").with_note(format!(
            "{} over {} requests",
            late.tail_label(),
            late.samples
        )),
    ]
}
