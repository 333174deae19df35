//! The benchmark's estimators.
//!
//! A run repeats its deterministic workload many times ("passes"). Host
//! slowdowns only ever add time and last for seconds, so each item (expert
//! step *i*, ingest batch *i*, request *i*) keeps its fastest reading
//! across passes, and the median and tail are taken over those per-item
//! minima. Throughput divides the work by the sum of the per-item minima
//! (a pass that ran entirely in a fast period is rarer than each item
//! getting one fast reading), and set-up time is likewise the sum of each
//! set-up item's (session, task, request) fastest reading across every
//! set-up the run performed.

/// Percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a percentile for it to be
/// reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Rank (1-based, nearest-rank definition) of percentile `pct` among `n`
/// sorted samples. The epsilon keeps `99.9 / 100 * 10_000` from rounding
/// up past 9990.
fn nearest_rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it among `n` samples; the median when `n` is too small for any.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&pct| n >= nearest_rank(pct, n) + TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Mean, median and tail of a sample, with the tail's percentile and the
/// sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub mean: f64,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub samples: usize,
}

impl Summary {
    /// Summarizes `values` (any order). Panics on an empty sample: every
    /// workload produces at least one item per pass.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_pct = tail_percentile(n);
        Summary {
            mean: sorted.iter().sum::<f64>() / n as f64,
            p50: sorted[nearest_rank(50.0, n) - 1],
            tail: sorted[nearest_rank(tail_pct, n) - 1],
            tail_pct,
            samples: n,
        }
    }

    /// `p50`, `p90`, ... for reports.
    pub fn tail_label(&self) -> String {
        if self.tail_pct.fract() == 0.0 {
            format!("p{}", self.tail_pct as u32)
        } else {
            format!("p{}", self.tail_pct)
        }
    }
}

/// Per-item minimum across passes. Every pass of a deterministic workload
/// times the same items in the same order, so the passes must have equal
/// lengths; a mismatch means the workload was not deterministic.
pub fn per_item_min(passes: &[Vec<f64>]) -> Result<Vec<f64>, String> {
    let first = passes.first().ok_or("no passes were run")?;
    if let Some(bad) = passes.iter().find(|p| p.len() != first.len()) {
        return Err(format!(
            "passes timed different item counts ({} vs {})",
            first.len(),
            bad.len()
        ));
    }
    Ok((0..first.len())
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect())
}

/// Splits a drained stream into consecutive segments of `segment` items
/// and returns how long each took: from the last reply before the segment
/// (or the stream's origin, 0) to the segment's last reply. `replied` holds
/// reply times in offer order. A segment spans many replies, so a reply
/// the writer held back and then flushed in a burst moves time between two
/// neighbouring segments at most, never into a per-item minimum of ~0.
pub fn segment_times(replied: &[f64], segment: usize) -> Vec<f64> {
    let mut previous = 0.0f64;
    let mut latest = 0.0f64;
    replied
        .chunks(segment.max(1))
        .map(|chunk| {
            latest = chunk.iter().copied().fold(latest, f64::max);
            let took = latest - previous;
            previous = latest;
            took
        })
        .collect()
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its reply arrived, all in seconds from a common
/// origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    pub due: f64,
    pub sent: f64,
    pub replied: f64,
}

impl OpenLoopSample {
    /// Reply time counted from the due time, so a generator that fell
    /// behind (or a stall that delayed later sends) is charged to the
    /// request rather than hidden.
    pub fn latency(&self) -> f64 {
        self.replied - self.due
    }

    /// How late the generator sent the request (never negative).
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Operations attempted and how many ended badly (an error, an
/// `Overloaded` or `Unavailable` reply, or a shed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureCount {
    pub attempted: u64,
    pub failed: u64,
}

impl FailureCount {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: FailureCount) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`; 0 when nothing was attempted.
    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Expert validations until precision reached `target` for good: the
/// smallest `k` such that the precision after `k` and after every later
/// validation is at least `target` (`trajectory[k]` is the precision after
/// `k` validations). A run that ends below the target counts as `cap`.
pub fn validations_to_target(trajectory: &[f64], target: f64, cap: usize) -> usize {
    match trajectory.last() {
        Some(&last) if last >= target => trajectory
            .iter()
            .rposition(|&p| p < target || p.is_nan())
            .map_or(0, |below| below + 1),
        _ => cap,
    }
}
