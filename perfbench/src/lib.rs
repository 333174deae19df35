//! Repository benchmark for the crowd-validation workspace.
//!
//! Three deterministic workloads drive the public API of the layers
//! `model`, `aggregation`, `spammer`, `triage`, `core` and `service`
//! (`sim` generates the inputs and is never timed). See `README.md` in this
//! directory for the workloads, every metric, and how to run the traced
//! per-layer mode.

pub mod crowd_stream;
pub mod expert_loop;
pub mod host;
pub mod probes;
pub mod service_mix;
pub mod stats;

use stats::FailureCount;
use std::time::{Duration, Instant};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-text qualifier for the human-readable report (percentile,
    /// sample count).
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// What one workload run hands back to the command-line entry point.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// The metrics of the result line: every end-to-end metric of
    /// `BENCHMARK.json` (untraced) or every per-layer metric (traced).
    pub result: Vec<Metric>,
    /// The workload's own end-to-end metrics under their specific names
    /// (`guidance_p50_ms`, `ingest_votes_per_s`, ...), printed as report
    /// lines.
    pub report: Vec<Metric>,
    /// Operations attempted and failed across every pass.
    pub failures: FailureCount,
    /// Output-check violations; any entry fails the run.
    pub check_errors: Vec<String>,
    /// Wall time of each pass, in seconds (host-drift record).
    pub pass_walls_s: Vec<f64>,
}

/// Settings of one run, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Fewest passes a run makes, however long they take: the per-item
/// minimum needs repeats to work with. A traced run needs two of each kind.
pub const MIN_PASSES: usize = 3;
pub const MIN_TRACED_PASSES: usize = 4;
/// Most passes a run makes.
pub const MAX_PASSES: usize = 40;

/// Runs `pass` repeatedly for about `seconds`: at least [`MIN_PASSES`]
/// ([`MIN_TRACED_PASSES`] when `trace`) times, and again only while one
/// more pass (as long as the slowest so far) still fits. Returns each
/// pass's result and wall time.
pub fn repeat_passes<T>(
    seconds: f64,
    trace: bool,
    mut pass: impl FnMut(usize) -> T,
) -> (Vec<T>, Vec<f64>) {
    let min_passes = if trace { MIN_TRACED_PASSES } else { MIN_PASSES };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut results = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    while results.len() < MAX_PASSES {
        let slowest = walls.iter().copied().fold(0.0, f64::max);
        if results.len() >= min_passes
            && Instant::now() + Duration::from_secs_f64(slowest) > deadline
        {
            break;
        }
        let start = Instant::now();
        results.push(pass(results.len()));
        walls.push(start.elapsed().as_secs_f64());
    }
    (results, walls)
}

/// In a traced run, odd passes carry spans and even passes do not, so the
/// two kinds interleave through the same host conditions.
pub fn is_traced_pass(trace: bool, index: usize) -> bool {
    trace && index % 2 == 1
}

/// Splits passes into (traced, untraced) by [`is_traced_pass`].
pub fn split_traced<T>(passes: &[T], trace: bool) -> (Vec<&T>, Vec<&T>) {
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    for (i, p) in passes.iter().enumerate() {
        if is_traced_pass(trace, i) {
            traced.push(p);
        } else {
            untraced.push(p);
        }
    }
    (traced, untraced)
}

/// FNV-1a over 64-bit words: a stable fingerprint for the output checks
/// (the standard hasher's keys are not part of its contract).
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Derives the seed of sub-input `index` from the run seed (SplitMix64), so
/// every generated crowd gets its own stream while one `--seed` fixes all.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Checks that every pass produced the same value, recording a violation
/// under `what` otherwise.
pub fn check_identical<T: PartialEq + std::fmt::Debug>(
    what: &str,
    values: &[T],
    errors: &mut Vec<String>,
) {
    if let Some(first) = values.first() {
        if let Some((i, bad)) = values.iter().enumerate().find(|(_, v)| *v != first) {
            errors.push(format!(
                "{what} differs between pass 0 ({first:?}) and pass {i} ({bad:?})"
            ));
        }
    }
}

/// Seconds to milliseconds.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}
