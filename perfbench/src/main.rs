//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <expert_loop|crowd_stream|service_mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one report line per metric (by name, with its unit), a metadata
//! line (seed, passes, per-pass wall times, host calibration), and as the
//! last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

use perfbench::{crowd_stream, expert_loop, host, service_mix, Metric, RunConfig, RunOutcome};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <expert_loop|crowd_stream|service_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        config: RunConfig {
            seed,
            seconds,
            trace,
        },
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
    format!("[{}]", items.join(","))
}

fn report_line(workload: &str, m: &Metric) -> String {
    let note = if m.note.is_empty() {
        String::new()
    } else {
        format!("  ({})", m.note)
    };
    format!("{workload} {} = {} {}{note}", m.name, m.value, m.unit)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&RunConfig) -> RunOutcome = match args.workload.as_str() {
        "expert_loop" => expert_loop::run,
        "crowd_stream" => crowd_stream::run,
        "service_mix" => service_mix::run,
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = args.config;
    let calibration_start = host::calibration_ms();
    let outcome = run(&cfg);
    let calibration_end = host::calibration_ms();

    let mode = if cfg.trace { "per-layer" } else { "end-to-end" };
    for m in &outcome.report {
        println!("{}", report_line(&args.workload, m));
    }
    if cfg.trace {
        for m in &outcome.result {
            println!("{}", report_line(&args.workload, m));
        }
    }
    for e in &outcome.check_errors {
        println!("{} CHECK FAILED: {e}", args.workload);
    }

    let errors: Vec<String> = outcome
        .check_errors
        .iter()
        .map(|e| json_string(e))
        .collect();
    println!(
        "{{\"meta\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"metrics\":{},\
         \"cpus\":{},\"passes\":{},\"pass_walls_s\":{},\"calibration_ms\":{{\"start\":{},\"end\":{}}},\
         \"failed_ratio\":{},\"check_errors\":[{}]}}}}",
        json_string(&args.workload),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        json_string(mode),
        host::cpus(),
        outcome.pass_walls_s.len(),
        json_list(&outcome.pass_walls_s),
        json_number(calibration_start),
        json_number(calibration_end),
        json_number(outcome.failures.ratio()),
        errors.join(","),
    );

    let all_finite = outcome.result.iter().all(|m| m.value.is_finite());
    let correct = outcome.check_errors.is_empty()
        && outcome.failures.failed == 0
        && !outcome.result.is_empty()
        && all_finite;
    let metrics: Vec<String> = outcome
        .result
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failures.attempted.max(1),
        outcome.failures.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
