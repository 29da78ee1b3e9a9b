//! `rsp-perfbench`: one command that drives the `rsp-server` serving path
//! over loopback TCP and prints its end-to-end metrics (`--trace 0`), or
//! replays the same seeded ops in-process with spans around every layer's
//! public calls and prints the per-layer metrics (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_serve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  The exit code is 0 only
//! when every op succeeded and every sampled answer matched a from-scratch
//! router.  See `README.md` for the workloads and metric definitions.

mod serve;
mod trace;
mod workload;

use std::time::Instant;
use workload::{Kind, References, Scenario};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: rsp-perfbench --workload <warm_serve|cold_tenant|edit_churn> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { kind: Kind::WarmServe, seed: 1, seconds: 30.0, trace: false };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.kind = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// A metric as printed and as it goes into the JSON record.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// Nearest-rank percentile of a sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Check the sampled ops of every connection; returns the mismatches.
fn verify(sc: &Scenario, samples: &[(usize, &[serve::Sample])]) -> Vec<String> {
    let mut refs = References::default();
    let mut mismatches = Vec::new();
    for &(conn, kept) in samples {
        for (index, responses) in kept {
            let op = sc.streams[conn].get(*index).expect("sampled ops exist");
            if let Err(e) = sc.verify(op, *index, responses, &mut refs) {
                mismatches.push(format!("connection {conn}: {e}"));
            }
        }
    }
    mismatches
}

pub(crate) struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

fn run_untraced(sc: &Scenario, args: &Args) -> Result<Outcome, String> {
    let m = serve::run(sc, args.seconds)?;
    let mut latency: Vec<u64> = m.conns.iter().flat_map(|c| c.latency_ns.iter().copied()).collect();
    latency.sort_unstable();
    let completed = latency.len() as u64;
    let attempted: u64 = m.conns.iter().map(|c| c.attempted).sum();
    let mut failed: u64 = m.conns.iter().map(|c| c.failed).sum();
    for c in &m.conns {
        for e in &c.errors {
            eprintln!("error: {e}");
        }
        if c.exhausted {
            return Err("an op stream ran out before the phase ended".into());
        }
    }
    let check_start = Instant::now();
    let samples: Vec<_> = m.conns.iter().enumerate().map(|(i, c)| (i, &c.samples[..])).collect();
    let checked: usize = samples.iter().map(|(_, s)| s.len()).sum();
    let mismatches = verify(sc, &samples);
    failed += mismatches.len() as u64;
    let p = |q| percentile(&latency, q) as f64 / 1e3;

    // Noise diagnostic: throughput in equal consecutive slices of the phase.
    const SLICES: usize = 5;
    let mut per_slice = [0u64; SLICES];
    for c in &m.conns {
        for &ns in &c.done_ns {
            per_slice[((ns as f64 * 1e-9 / m.wall_s * SLICES as f64) as usize).min(SLICES - 1)] += 1;
        }
    }
    let slice_rates: Vec<f64> = per_slice.iter().map(|&n| n as f64 / (m.wall_s / SLICES as f64)).collect();
    let lo = slice_rates.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = slice_rates.iter().copied().fold(0.0, f64::max);
    let rates: Vec<String> = slice_rates.iter().map(|r| format!("{r:.1}")).collect();

    println!(
        "setup: warm-up load {:.3} s (discarded); timed loads {} s",
        m.warmup_s,
        m.setup_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" ")
    );
    println!(
        "phase: {:.2} s, {} ops completed / {} attempted on {} connection(s); p99 {:.1} us (not gated)",
        m.wall_s,
        completed,
        attempted,
        m.conns.len(),
        p(0.99)
    );
    println!(
        "noise: ops/s in {SLICES} equal slices [{}], spread (max-min)/median {:.3} (not gated)",
        rates.join(", "),
        (hi - lo) / median(&slice_rates)
    );
    println!(
        "check: {checked} sampled ops compared with from-scratch routers in {:.2} s, {} mismatch(es); \
         failed_frac {:.6}",
        check_start.elapsed().as_secs_f64(),
        mismatches.len(),
        failed as f64 / attempted.max(1) as f64
    );
    let metrics = vec![
        metric("setup_s", median(&m.setup_s), "s"),
        metric("ops_per_s", completed as f64 / m.wall_s, "ops/s"),
        metric("p50_us", p(0.50), "us"),
        metric("p90_us", p(0.90), "us"),
        metric("resident_mib", m.resident_bytes as f64 / (1u64 << 20) as f64, "MiB"),
    ];
    Ok(Outcome { metrics, attempted, failed, mismatches })
}

fn json_record(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.mismatches.is_empty(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let gen_start = Instant::now();
    let sc = Scenario::new(args.kind, args.seed, args.seconds);
    println!(
        "rsp-perfbench workload={} seed={} trace={} seconds={} nproc={} RAYON_NUM_THREADS={} rev={} \
         (inputs generated in {:.2} s)",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
        git_rev(),
        gen_start.elapsed().as_secs_f64()
    );
    let outcome = if args.trace { trace::run(&sc, args.seconds) } else { run_untraced(&sc, &args) };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    for e in &outcome.mismatches {
        eprintln!("mismatch: {e}");
    }
    for m in &outcome.metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_record(&outcome));
    if outcome.failed > 0 || !outcome.mismatches.is_empty() {
        std::process::exit(1);
    }
}
