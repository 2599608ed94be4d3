//! The NTCS benchmark: pinned workloads driven through the public
//! APIs, end-to-end RPC/cast metrics, and (with `--trace 1`) a per-layer
//! ladder from the raw IPCS channel up to the ComMod.
//!
//! ```text
//! ntcsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ntcsbench --repeat <n> --seconds <s> [--seed <base>] [--workload <name>]...
//! ntcsbench --list
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it carries the run context, sample counts and any gate violations.

mod deploy;
mod e2e;
mod ladder;
mod probe;
mod repeat;
mod stats;
mod trace;

use std::time::{Duration, Instant};

use e2e::{Recovery, Runner, Workload, WORKLOADS};
use stats::{median, percentile, Outcome};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Fresh deployments the timed part of a run is split over. One
/// deployment's RPC p50 can sit 30 % off another's, so the run takes the
/// median over many.
const DEPLOYMENTS: usize = 48;
/// Stand-ups per deployment; the last one is kept and measured.
const STANDUPS_EACH: usize = 2;
/// `setup_s` is the median, over groups of this many consecutive stand-ups,
/// of each group's fastest: host preemption stretches some stand-ups by
/// milliseconds and leaves others alone, so the best of several follows the
/// code rather than the host, while work added to stand-up slows them all.
const SETUP_BEST_OF: usize = 6;
/// Steal share of the pinned CPU above which a run is flagged noisy.
const NOISY_STEAL: f64 = 0.05;

/// Parsed command line.
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workloads.push(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--repeat" => a.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?),
            "--list" => a.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The untraced run. The run is split over [`DEPLOYMENTS`] fresh
/// deployments, so one run samples several thread placements instead of
/// one; each deployment is stood up [`STANDUPS_EACH`] times (the stand-ups
/// give `setup_s`), warmed up, then measured in an RPC, a cast and a
/// relocation slice.
fn run_e2e(w: &Workload, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    let warm = warmup_secs(seconds);
    // Shares of the timed part: RPCs, casts, relocations.
    let timed = (seconds - warm) / DEPLOYMENTS as f64;
    let (rpc_s, cast_s, move_s) = (timed * 0.35, timed * 0.35, timed * 0.3);
    // Per deployment: RPC p50 and p90.
    let (mut p50s, mut p90s, mut n) = (Vec::new(), Vec::new(), 0);
    let (mut rpc_cpu, mut rates, mut cast_cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut rec = Vec::new();
    let mut casts_sent = 0;
    for k in 0..DEPLOYMENTS {
        let mut kept = None;
        for i in 0..STANDUPS_EACH {
            let (d, took) = deploy::stand_up(w.topo, deploy::Tweak::None)?;
            setups.push(took.as_secs_f64());
            if i + 1 < STANDUPS_EACH {
                d.tear_down();
            } else {
                kept = Some(d);
            }
        }
        let d = kept.expect("at least one stand-up");
        let mut r = Runner::new(&d, w, seed.wrapping_add(k as u64));
        // Warm-up: its operations count, its figures do not.
        let half = Duration::from_secs_f64(warm / 2.0 / DEPLOYMENTS as f64);
        r.rpc_phase(half, out);
        r.cast_phase(half, w.cast_window, out);
        let rpc = r.rpc_phase(Duration::from_secs_f64(rpc_s), out);
        let casts = r.cast_phase(Duration::from_secs_f64(cast_s), w.cast_window, out);
        rec.extend(r.recovery_phase(Duration::from_secs_f64(move_s), out));
        drop(r);
        d.tear_down();
        let mut lat = rpc.lat_us;
        lat.sort_by(f64::total_cmp);
        if !lat.is_empty() {
            p50s.push(percentile(&lat, 0.50));
            p90s.push(percentile(&lat, 0.90));
        }
        n += lat.len() as u64;
        rpc_cpu.extend(rpc.cpu_us);
        rates.extend(casts.rates);
        cast_cpu.extend(casts.cpu_us);
        casts_sent += casts.sent;
    }

    out.gate(n > 0, || "no RPC completed".into());
    out.gate(!rates.is_empty(), || "no cast window completed".into());
    out.metric("rpc_p50_us", median(&p50s), "us", n);
    out.metric("rpc_p90_us", median(&p90s), "us", n);
    out.metric("cast_msgs_per_s", median(&rates), "1/s", casts_sent);
    out.metric("cpu_us_per_rpc", median(&rpc_cpu), "us", n);
    out.metric("cpu_us_per_cast", median(&cast_cpu), "us", casts_sent);
    let best: Vec<f64> = setups
        .chunks(SETUP_BEST_OF)
        .map(|g| g.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    out.metric("setup_s", median(&best), "s", setups.len() as u64);
    out.gate(!rec.is_empty(), || "no relocation completed".into());
    out.metric(
        "recovery_mean_ms",
        two_outcome_mean(&rec),
        "ms",
        rec.len() as u64,
    );
    out.context("relocations", rec.len().to_string());
    out.context(
        "reloc_retried",
        rec.iter().filter(|r| r.retried).count().to_string(),
    );
    out.context(
        "reloc_lost",
        rec.iter().filter(|r| r.lost).count().to_string(),
    );
    Ok(())
}

/// Mean recovery time over the two outcomes of a relocation — the first
/// attempt answered in time, or retried — each outcome timed by its
/// median: `q * median(retried) + (1 - q) * median(answered)`, `q` the
/// share of relocations whose first attempt was retried. The retry share
/// moves it as a plain mean would, but a preempted host stretching a few
/// recoveries by milliseconds does not.
fn two_outcome_mean(rec: &[Recovery]) -> f64 {
    let (retried, answered): (Vec<&Recovery>, Vec<&Recovery>) = rec.iter().partition(|r| r.retried);
    let med = |v: &[&Recovery]| {
        if v.is_empty() {
            0.0
        } else {
            median(&v.iter().map(|r| r.ms).collect::<Vec<_>>())
        }
    };
    let q = retried.len() as f64 / rec.len().max(1) as f64;
    q * med(&retried) + (1.0 - q) * med(&answered)
}

/// Warm-up before timing: a tenth of the run, at least 0.2 s.
fn warmup_secs(seconds: f64) -> f64 {
    (seconds * 0.1).max(0.2).min(seconds / 2.0)
}

fn run_one(w: &Workload, a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    probe::raise_fd_limit();
    let pinned = probe::pin_to_one_cpu();
    let cpu = (pinned.len() == 1).then(|| pinned[0]);
    let (steal0, total0) = probe::steal_ticks(cpu);
    let began = Instant::now();
    let result = if a.trace {
        ladder::run_traced(w, a.seed, a.seconds, &mut out)
    } else {
        run_e2e(w, a.seed, a.seconds, &mut out)
    };
    if let Err(e) = result {
        out.gate(false, || e);
    }
    let (steal1, total1) = probe::steal_ticks(cpu);
    let steal = (steal1 - steal0) as f64 / (total1.saturating_sub(total0)).max(1) as f64;
    let cpus: Vec<String> = pinned.iter().map(ToString::to_string).collect();
    out.context("workload", stats::json_str(w.name));
    out.context("seed", a.seed.to_string());
    out.context("trace", a.trace.to_string());
    out.context("git_rev", stats::json_str(&git_rev()));
    out.context("pinned_cpus", format!("[{}]", cpus.join(", ")));
    out.context("nproc", nproc.to_string());
    out.context("warmup_s", stats::json_num(warmup_secs(a.seconds)));
    out.context("wall_s", stats::json_num(began.elapsed().as_secs_f64()));
    out.context("steal_share", stats::json_num(steal));
    out.context(
        "noisy",
        (steal > NOISY_STEAL || pinned.len() != 1).to_string(),
    );
    out
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ntcsbench: {e}");
            std::process::exit(2);
        }
    };
    if a.list {
        for w in &WORKLOADS {
            println!("{}", w.name);
        }
        return;
    }
    if let Some(n) = a.repeat {
        std::process::exit(repeat::run(&a.workloads, n, a.seed, a.seconds));
    }
    let [name] = a.workloads.as_slice() else {
        eprintln!("ntcsbench: give exactly one --workload (or --repeat / --list)");
        std::process::exit(2);
    };
    let w = match workload(name) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("ntcsbench: {e}");
            std::process::exit(2);
        }
    };
    let out = run_one(w, &a);
    for m in &out.metrics {
        eprintln!(
            "{:<32} {:>14.3} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for v in &out.violations {
        eprintln!("GATE VIOLATED: {v}");
    }
    println!("{}", out.context_json());
    println!("{}", out.result_json());
}
