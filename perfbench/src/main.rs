//! One repeatable benchmark for the live ordering stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload order_saturate --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run raises in-process deployments, drives one seeded workload
//! through the session wire, checks every output, and prints one JSON
//! object as its last line: end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`. A correctness violation prints
//! `"correct": false` and exits 1; bad arguments exit 2. See README.md.

mod deploy;
mod fanout;
mod kvmixed;
mod micro;
mod probe;
mod raw;
mod saturate;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use deploy::{Deployment, Teardown};
use probe::Counters;
use stats::{median, ratio};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("order_msgs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run; a metric a workload
/// does not set (its layer does no such work there) prints as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("transport.datagrams_per_op", "count"),
    ("transport.syscalls_per_datagram", "count"),
    ("transport.shm_datagrams_per_wakeup", "count"),
    ("transport.pool_miss_ratio", "ratio"),
    ("transport.submissions_shed", "count"),
    ("transport.decode_failures", "count"),
    ("transport.send_errors", "count"),
    ("membership.form_ms", "ms"),
    ("membership.reconfigs", "count"),
    ("core.order_ns_per_msg", "ns"),
    ("core.wire_encode_ns", "ns"),
    ("core.wire_decode_ns", "ns"),
    ("daemon.frontend_wakeups_per_op", "count"),
    ("daemon.frontend_syscalls_per_wakeup", "count"),
    ("daemon.msgs_per_ring_datagram", "count"),
    ("daemon.events_shed_slow", "count"),
    ("daemon.events_shed_budget", "count"),
    ("daemon.events_shed_race", "count"),
    ("daemon.session_codec_ns", "ns"),
    ("multiring.ring_share_min", "ratio"),
    ("multiring.ring_skew_ms", "ms"),
    ("multiring.ring0_p50_ms", "ms"),
    ("multiring.ring1_p50_ms", "ms"),
    ("deliver_p50_ms", "ms"),
    ("deliver_p99_ms", "ms"),
    ("kv_write_p50_ms", "ms"),
    ("kv_write_p99_ms", "ms"),
    ("kv_read_p50_ms", "ms"),
    ("kv_read_p99_ms", "ms"),
    ("kv.apply_us", "us"),
    ("kv.txn_p50_ms", "ms"),
    ("kv.resubmitted", "count"),
    ("kv.svc_queries_per_read", "count"),
    ("proc.threads", "count"),
    ("proc.ctx_switches_per_op", "count"),
    ("fail_ratio", "ratio"),
    ("gen_late_p99_ms", "ms"),
    ("span.submit_call_us", "us"),
    ("span.decode_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Phases per run. Each phase brings a fresh deployment up and measures
/// an equal share of `--seconds`; how the rings of one deployment happen
/// to settle differs between deployments, so a run averages over several.
const PHASES: usize = 10;
/// Load before each phase's measured window, so lazy set-up settles.
const WARMUP: Duration = Duration::from_millis(500);
/// Traced runs switch span recording on and off in slices this long, so
/// traced and untraced slices interleave over the same window.
const TRACE_SLICE_MS: u128 = 250;
/// How long after the window clients may drain outstanding work.
pub const DRAIN: Duration = Duration::from_secs(10);

/// One workload: how a phase runs, and the group and payload size its
/// single-function timings use.
pub struct Spec {
    pub name: &'static str,
    pub phase: fn(&Args) -> Result<Outcome, String>,
    pub group: &'static str,
    pub payload: usize,
}

const WORKLOADS: [&Spec; 3] = [&saturate::SPEC, &fanout::SPEC, &kvmixed::SPEC];

/// The run's settings.
#[derive(Clone, Copy)]
pub struct Args {
    workload: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let spec = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(*spec.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err("--seconds: between 1 and 600".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The measured window of a run: warm-up from `start`, measurement from
/// `from` to `end`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub from: Instant,
    pub end: Instant,
    trace: bool,
}

impl Window {
    pub fn open(args: &Args) -> Window {
        let start = Instant::now();
        let from = start + WARMUP;
        Window {
            start,
            from,
            end: from + Duration::from_secs_f64(args.seconds / PHASES as f64),
            trace: args.trace,
        }
    }

    pub fn secs(&self) -> f64 {
        (self.end - self.from).as_secs_f64()
    }

    pub fn measured(&self, t: Instant) -> bool {
        t >= self.from && t < self.end
    }

    /// Seconds of the window in traced slices and in untraced ones.
    pub fn slice_secs(&self) -> (f64, f64) {
        let slice = TRACE_SLICE_MS as f64 / 1e3;
        let full = (self.secs() / slice).floor();
        // Slices alternate untraced, traced, …; a partial last slice is
        // traced when an odd number of full slices precedes it.
        let partial = self.secs() - full * slice;
        let traced = (full / 2.0).floor() * slice + if full % 2.0 == 1.0 { partial } else { 0.0 };
        (traced, self.secs() - traced)
    }

    /// Whether spans are being recorded at `t` (traced runs only, odd
    /// slices of the window).
    pub fn traced(&self, t: Instant) -> bool {
        self.trace && self.measured(t) && ((t - self.from).as_millis() / TRACE_SLICE_MS) % 2 == 1
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Violations by kind; every one fails the run.
    pub violations: BTreeMap<String, u64>,
    values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts `n` violations of `kind` (nothing when `n` is 0).
    pub fn violate(&mut self, kind: &str, n: u64) {
        if n > 0 {
            *self.violations.entry(kind.to_string()).or_default() += n;
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn failed(&self) -> u64 {
        self.violations.values().sum()
    }

    /// Folds the phases of a run into one outcome: work and violations
    /// add up. Per metric: set-up times and p99 tails take the median phase
    /// (one phase's outlier must not move them); the bounded latencies take
    /// the quietest phase, since load from other tenants of a shared host
    /// only ever adds latency and comes in bursts spanning several phases;
    /// resident memory takes the smallest phase (later phases also hold
    /// what the allocator kept from earlier deployments); everything else
    /// the mean of the phases.
    fn combine(phases: Vec<Outcome>) -> Outcome {
        let mut all = Outcome::default();
        let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, p) in phases.into_iter().enumerate() {
            all.attempted += p.attempted;
            for (kind, n) in p.violations {
                all.violate(&kind, n);
            }
            for (name, v) in p.values {
                values.entry(name).or_default().push(v);
            }
            all.notes
                .extend(p.notes.into_iter().map(|n| format!("phase {i}: {n}")));
        }
        for (name, v) in values {
            if END_TO_END.iter().any(|(n, _)| *n == name) {
                let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
                all.note(format!("{name} by phase: {}", shown.join(" ")));
            }
            let folded = match name {
                "setup_s" | "membership.form_ms" => median(&v),
                "rss_mib" | "latency_p50_ms" | "latency_p90_ms" => {
                    v.iter().copied().fold(f64::INFINITY, f64::min)
                }
                _ if name.ends_with("_p99_ms") => median(&v),
                _ => v.iter().sum::<f64>() / v.len() as f64,
            };
            all.set(name, folded);
        }
        all
    }
}

/// How long one bring-up took, start to serving.
#[derive(Debug, Clone, Copy)]
pub struct Bring {
    pub setup_s: f64,
    pub form_ms: f64,
}

/// Runs a workload's bring-up (deployment plus sessions) under the clock.
pub fn timed_up<C>(
    up: impl FnOnce() -> Result<(Deployment, C), String>,
) -> Result<(Deployment, C, Bring), String> {
    let t = Instant::now();
    let (d, clients) = up()?;
    let bring = Bring {
        setup_s: t.elapsed().as_secs_f64(),
        form_ms: d.form.as_secs_f64() * 1e3,
    };
    Ok((d, clients, bring))
}

/// Counter deltas over the window, read by the main thread while the
/// client threads drive load.
pub struct Observed {
    pub delta: Counters,
    pub reconfigs: u64,
    /// Threads and resident memory at the end of the window.
    pub threads: u64,
    pub rss_kib: u64,
}

pub fn observe(d: &Deployment, win: &Window) -> Observed {
    sleep_until(win.from);
    let (before, epochs_before) = (probe::snapshot(d), probe::epochs(d));
    sleep_until(win.end);
    let (after, epochs_after) = (probe::snapshot(d), probe::epochs(d));
    let proc = probe::proc_self();
    Observed {
        delta: after.since(&before),
        reconfigs: epochs_after
            .iter()
            .zip(&epochs_before)
            .map(|(a, b)| a.saturating_sub(*b))
            .max()
            .unwrap_or(0),
        threads: proc.threads,
        rss_kib: proc.rss_kib,
    }
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Metrics and checks every workload shares: set-up, process and counter
/// ratios, and teardown, which must leave no pooled buffer leased and no
/// decode failure. `ops` is the workload's completed operations in
/// the window and `client_msgs` the client messages it ordered.
pub fn common(
    o: &mut Outcome,
    bring: &Bring,
    obs: &Observed,
    teardown: &Teardown,
    ops: f64,
    client_msgs: f64,
) {
    let d = &obs.delta;
    let f = |v: u64| v as f64;
    o.set("setup_s", bring.setup_s);
    o.set(
        "cpu_us_per_op",
        ratio(f(d.cpu_ticks) / probe::CLK_TCK * 1e6, ops),
    );
    o.set("rss_mib", f(obs.rss_kib) / 1024.0);
    o.set("transport.datagrams_per_op", ratio(f(d.datagrams_tx), ops));
    o.set(
        "transport.syscalls_per_datagram",
        ratio(f(d.syscalls), f(d.datagrams_rx + d.datagrams_tx)),
    );
    o.set(
        "transport.shm_datagrams_per_wakeup",
        ratio(f(d.shm_datagrams), f(d.shm_wakeups)),
    );
    o.set(
        "transport.pool_miss_ratio",
        ratio(f(d.pool_misses), f(d.pool_hits + d.pool_misses)),
    );
    o.set("transport.submissions_shed", f(d.submissions_shed));
    o.set("transport.decode_failures", f(d.decode_failures));
    o.set("transport.send_errors", f(d.send_errors));
    o.set("membership.form_ms", bring.form_ms);
    o.set("membership.reconfigs", f(obs.reconfigs));
    o.set(
        "daemon.frontend_wakeups_per_op",
        ratio(f(d.fe_wakeups), ops),
    );
    o.set(
        "daemon.frontend_syscalls_per_wakeup",
        ratio(f(d.fe_syscalls), f(d.fe_wakeups)),
    );
    o.set(
        "daemon.msgs_per_ring_datagram",
        ratio(client_msgs, f(d.ring_payloads)),
    );
    o.set("daemon.events_shed_slow", f(d.shed_slow));
    o.set("daemon.events_shed_budget", f(d.shed_budget));
    o.set("daemon.events_shed_race", f(d.shed_race));
    o.set("proc.threads", f(obs.threads));
    o.set("proc.ctx_switches_per_op", ratio(f(d.ctx_switches), ops));
    o.note(format!(
        "bases: ops={ops} client_msgs={client_msgs} datagrams_tx={} datagrams={} syscalls={} \
         shm_datagrams={} shm_wakeups={} pool_hits={} pool_misses={} ring_payloads={} \
         fe_wakeups={} fe_syscalls={} cpu_ticks={} ctx_switches={}",
        d.datagrams_tx,
        d.datagrams_rx + d.datagrams_tx,
        d.syscalls,
        d.shm_datagrams,
        d.shm_wakeups,
        d.pool_hits,
        d.pool_misses,
        d.ring_payloads,
        d.fe_wakeups,
        d.fe_syscalls,
        d.cpu_ticks,
        d.ctx_switches
    ));
    o.violate("events shed", d.events_shed());
    o.violate("submissions shed", d.submissions_shed);
    o.violate("transport send errors", d.send_errors);
    o.violate("session frames rejected", d.fe_bad_frames);
    o.violate(
        "pooled buffers outstanding after teardown",
        teardown.pool_outstanding,
    );
    o.violate(
        "ring datagrams that failed to decode",
        teardown.decode_failures,
    );
}

/// Median of span durations in microseconds (0 when none were recorded).
pub fn span_us(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&v| v as f64 / 1e3).collect::<Vec<_>>())
}

fn render(args: &Args, o: &Outcome) -> Result<String, String> {
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let v = match o.values.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !v.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(metrics.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload order_saturate|session_fanout|kv_mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let spec = args.workload;
    let phases: Result<Vec<Outcome>, String> = (0..PHASES).map(|_| (spec.phase)(&args)).collect();
    let mut outcome = match phases {
        Ok(p) => Outcome::combine(p),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    outcome.set(
        "fail_ratio",
        ratio(outcome.failed() as f64, outcome.attempted as f64),
    );
    micro::record(&mut outcome, &args, spec.group, spec.payload);
    let metrics = match render(&args, &outcome) {
        Ok(m) => m,
        Err(e) => {
            outcome.violate(&e, 1);
            String::new()
        }
    };
    for line in &outcome.notes {
        println!("# {line}");
    }
    for (kind, n) in &outcome.violations {
        println!("# VIOLATION {kind}: {n}");
    }
    let correct = outcome.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "kv_mixed",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.name, "kv_mixed");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "kv_mixed", "--trace", "2"]).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_disjoint() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn trace_slices_alternate_inside_the_window() {
        let a = args(&["--workload", "kv_mixed", "--seconds", "20", "--trace", "1"]).unwrap();
        let w = Window::open(&a);
        let at = |ms: u64| w.from + Duration::from_millis(ms);
        assert!(!w.traced(w.start));
        assert!(!w.traced(at(100)));
        assert!(w.traced(at(300)));
        assert!(!w.traced(at(600)));
        assert!(!w.traced(w.end));
        // 2 s of 250 ms slices: half of them traced.
        let (on, off) = w.slice_secs();
        assert!((on - 1.0).abs() < 1e-9 && (off - 1.0).abs() < 1e-9);
        let odd = Window {
            end: w.from + Duration::from_millis(600),
            ..w
        };
        let (on, off) = odd.slice_secs();
        assert!((on - 0.25).abs() < 1e-9 && (off - 0.35).abs() < 1e-9);
    }
}
