//! Tests of the benchmark's own estimators and of its workload shapes.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use perfbench::stats::{
    per_item_min, segment_times, tail_percentile, validations_to_target, FailureCount,
    OpenLoopSample, Summary, TAIL_MIN_BEYOND,
};
use perfbench::{crowd_stream, expert_loop, service_mix, split_traced, sub_seed, Fingerprint};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // Too few samples for any percentile above the median.
    assert_eq!(tail_percentile(1), 50.0);
    assert_eq!(tail_percentile(19), 50.0);
    // 20 samples: rank 10 is the median and 10 lie beyond it.
    assert_eq!(tail_percentile(20), 50.0);
    // 40 samples: p75 is rank 30, 10 beyond; p90 (rank 36) has only 4.
    assert_eq!(tail_percentile(40), 75.0);
    assert_eq!(tail_percentile(100), 90.0);
    assert_eq!(tail_percentile(199), 90.0);
    assert_eq!(tail_percentile(200), 95.0);
    assert_eq!(tail_percentile(1_000), 99.0);
    assert_eq!(tail_percentile(10_000), 99.9);
    for n in 1..3_000 {
        let pct = tail_percentile(n);
        let rank = ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
        assert!(
            pct == 50.0 || n - rank >= TAIL_MIN_BEYOND,
            "n={n}: p{pct} leaves {} samples beyond",
            n - rank
        );
    }
}

#[test]
fn summary_reads_median_and_tail_by_nearest_rank() {
    let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let s = Summary::of(&values);
    assert_eq!(s.p50, 50.0);
    assert_eq!(s.tail_pct, 90.0);
    assert_eq!(s.tail, 90.0);
    assert_eq!(s.samples, 100);
    assert_eq!(s.tail_label(), "p90");
    let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
    assert_eq!(Summary::of(&big).tail_label(), "p99.9");
}

#[test]
fn per_item_minimum_takes_each_items_fastest_pass() {
    let passes = vec![
        vec![3.0, 1.0, 2.0],
        vec![1.0, 5.0, 2.5],
        vec![2.0, 4.0, 2.0],
    ];
    assert_eq!(per_item_min(&passes).unwrap(), vec![1.0, 1.0, 2.0]);
    // A slow period that hits different items in different passes leaves
    // no trace in the minima.
    let slow = vec![
        vec![10.0, 1.0, 1.0],
        vec![1.0, 10.0, 1.0],
        vec![1.0, 1.0, 10.0],
    ];
    assert_eq!(per_item_min(&slow).unwrap(), vec![1.0, 1.0, 1.0]);
    assert!(per_item_min(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    assert!(per_item_min(&[]).is_err());
}

#[test]
fn drain_segments_absorb_reply_bursts() {
    // Five replies in segments of two: each segment runs from the last
    // reply before it to its own last reply.
    let replied = [1.0, 2.0, 3.0, 4.0, 6.0];
    assert_eq!(segment_times(&replied, 2), vec![2.0, 2.0, 2.0]);
    // The writer held reply 2 back and flushed it with reply 3: the
    // segments still cover the stream without a zero-length item.
    let burst = [1.0, 3.0, 3.0, 4.0, 6.0];
    let segments = segment_times(&burst, 2);
    assert_eq!(segments, vec![3.0, 1.0, 2.0]);
    assert_eq!(segments.iter().sum::<f64>(), 6.0);
    assert!(segment_times(&[], 4).is_empty());
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    // Sent half a second late: the lateness is charged to the request.
    let late = OpenLoopSample {
        due: 1.0,
        sent: 1.5,
        replied: 2.0,
    };
    assert_eq!(late.latency(), 1.0);
    assert_eq!(late.lateness(), 0.5);
    // On time: latency is the reply time after sending.
    let on_time = OpenLoopSample {
        due: 1.0,
        sent: 1.0,
        replied: 1.25,
    };
    assert_eq!(on_time.latency(), 0.25);
    assert_eq!(on_time.lateness(), 0.0);
    // A clock read a hair before the due time is not negative lateness.
    let early = OpenLoopSample {
        due: 1.0,
        sent: 0.999,
        replied: 1.1,
    };
    assert_eq!(early.lateness(), 0.0);
}

#[test]
fn failed_ratio_counts_failures_over_attempts() {
    let mut f = FailureCount::default();
    assert_eq!(f.ratio(), 0.0);
    for ok in [true, true, false, true] {
        f.record(ok);
    }
    assert_eq!((f.attempted, f.failed), (4, 1));
    assert_eq!(f.ratio(), 0.25);
    let mut total = FailureCount::default();
    total.absorb(f);
    total.absorb(FailureCount {
        attempted: 4,
        failed: 0,
    });
    assert_eq!((total.attempted, total.failed), (8, 1));
    assert_eq!(total.ratio(), 0.125);
}

#[test]
fn validations_to_target_waits_until_precision_stays_above() {
    // Dips below after reaching the target: counted from the last dip.
    assert_eq!(
        validations_to_target(&[0.8, 0.95, 0.85, 0.92, 0.93], 0.9, 10),
        3
    );
    assert_eq!(validations_to_target(&[0.95, 0.96], 0.9, 10), 0);
    // Ends below the target: capped.
    assert_eq!(validations_to_target(&[0.95, 0.85], 0.9, 10), 10);
    assert_eq!(validations_to_target(&[], 0.9, 10), 10);
    // An unknown precision never counts as reaching the target.
    assert_eq!(validations_to_target(&[0.95, f64::NAN, 0.95], 0.9, 10), 2);
}

#[test]
fn traced_and_untraced_passes_interleave() {
    let passes = [0, 1, 2, 3, 4];
    let (traced, untraced) = split_traced(&passes, true);
    assert_eq!(traced, vec![&1, &3]);
    assert_eq!(untraced, vec![&0, &2, &4]);
    let (traced, untraced) = split_traced(&passes, false);
    assert!(traced.is_empty());
    assert_eq!(untraced.len(), 5);
}

#[test]
fn seeds_and_fingerprints_are_stable() {
    assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    assert_ne!(sub_seed(7, 3), sub_seed(7, 4));
    assert_ne!(sub_seed(7, 3), sub_seed(8, 3));
    let mut a = Fingerprint::default();
    let mut b = Fingerprint::default();
    a.word(42);
    b.word(42);
    assert_eq!(a.finish(), b.finish());
    b.word(1);
    assert_ne!(a.finish(), b.finish());
}

#[test]
fn another_seed_gives_the_same_workload_shape() {
    let (a, b) = (expert_loop::generate(1), expert_loop::generate(2));
    assert_eq!(a.crowds.len(), b.crowds.len());
    for (x, y) in a.crowds.iter().zip(&b.crowds) {
        assert_eq!(x.truth.len(), y.truth.len());
        assert_eq!(x.votes.len(), y.votes.len());
    }
    assert_ne!(
        a.crowds[0].votes, b.crowds[0].votes,
        "the seed changes the data"
    );

    let (a, b) = (crowd_stream::generate(1), crowd_stream::generate(2));
    assert_eq!(a.streams.len(), b.streams.len());
    for (x, y) in a.streams.iter().zip(&b.streams) {
        assert_eq!(x.crowd.votes.len(), y.crowd.votes.len());
        assert_eq!(x.initial.len(), y.initial.len());
        assert_eq!(x.batches.len(), y.batches.len());
    }

    let (a, b) = (service_mix::plans(1), service_mix::plans(2));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.setup_votes.len(), y.setup_votes.len());
        assert_eq!(x.stream.len(), y.stream.len());
        assert_eq!(x.guided_steps, y.guided_steps);
    }
}
