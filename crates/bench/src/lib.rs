//! # accelring-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the evaluation section of "Fast Total Ordering for Modern Data Centers"
//! on the deterministic simulator, plus ablation studies of the design
//! choices called out in DESIGN.md.
//!
//! One binary per figure (`fig02` … `fig13`, `max_throughput`,
//! `multiring_scaling`, and the `ablate_*` studies) prints the figure's
//! series as an aligned table; `all_figures` runs everything and emits
//! the markdown embedded in EXPERIMENTS.md. The chaos soaks
//! (`chaos_soak`, `multiring_soak`) sweep seeded fault schedules and
//! exit non-zero on any invariant violation.
//!
//! Set `ACCELRING_BENCH_QUALITY=full` for publication-length measurement
//! windows (the default `quick` keeps every binary under a minute).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use accelring_core::{PriorityMethod, ProtocolConfig, RtrPolicy, Service, Variant};
use accelring_multiring::{run_scaling, ScalingSpec};
use accelring_sim::{
    Curve, CurvePoint, ExperimentSpec, ImplProfile, LossSpec, NetworkProfile, SimDuration, Workload,
};

/// How long to measure: `quick` for interactive runs, `full` for the
/// numbers recorded in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// Short windows, coarse rate grids.
    Quick,
    /// Long windows, the paper's rate grids.
    Full,
}

impl Quality {
    /// Reads `ACCELRING_BENCH_QUALITY` (`quick`/`full`), defaulting to
    /// quick.
    pub fn from_env() -> Quality {
        match std::env::var("ACCELRING_BENCH_QUALITY").as_deref() {
            Ok("full") => Quality::Full,
            _ => Quality::Quick,
        }
    }

    fn warmup(self) -> SimDuration {
        match self {
            Quality::Quick => SimDuration::from_millis(20),
            Quality::Full => SimDuration::from_millis(50),
        }
    }

    fn measure(self) -> SimDuration {
        match self {
            Quality::Quick => SimDuration::from_millis(60),
            Quality::Full => SimDuration::from_millis(200),
        }
    }

    fn grid(self, full: &[u64], quick: &[u64]) -> Vec<u64> {
        match self {
            Quality::Quick => quick.to_vec(),
            Quality::Full => full.to_vec(),
        }
    }
}

/// The paper's two protocol configurations, at the windows the evaluation
/// used ("personal windows of a few tens ... accelerated windows of half to
/// all of the personal window").
pub fn protocols() -> [(&'static str, ProtocolConfig); 2] {
    [
        ("original", ProtocolConfig::original(20)),
        ("accelerated", ProtocolConfig::accelerated(20, 15)),
    ]
}

fn base_spec(q: Quality, network: NetworkProfile, profile: ImplProfile) -> ExperimentSpec {
    let mut spec = ExperimentSpec::baseline();
    spec.network = network;
    spec.impl_profile = profile;
    spec.warmup = q.warmup();
    spec.measure = q.measure();
    spec
}

/// Latency-vs-throughput sweep for one figure: both protocols across all
/// three implementation profiles.
fn latency_profile_figure(
    q: Quality,
    network: NetworkProfile,
    service: Service,
    rates: &[u64],
) -> Vec<Curve> {
    let mut curves = Vec::new();
    for profile in ImplProfile::all() {
        for (label, cfg) in protocols() {
            let mut spec = base_spec(q, network, profile);
            spec.service = service;
            spec.protocol = cfg;
            curves.push(Curve::sweep_rates(
                &format!("{} {}", profile.name, label),
                &spec,
                rates,
            ));
        }
    }
    curves
}

/// Figure 2: Agreed delivery latency vs throughput on the 1 Gb network.
pub fn figure_02(q: Quality) -> Vec<Curve> {
    let rates = q.grid(
        &[100, 200, 300, 400, 500, 600, 700, 800, 900],
        &[100, 300, 500, 700, 900],
    );
    latency_profile_figure(q, NetworkProfile::gigabit(), Service::Agreed, &rates)
}

/// Figure 3: Safe delivery latency vs throughput on the 1 Gb network.
pub fn figure_03(q: Quality) -> Vec<Curve> {
    let rates = q.grid(
        &[100, 200, 300, 400, 500, 600, 700, 800, 900],
        &[100, 300, 500, 700, 900],
    );
    latency_profile_figure(q, NetworkProfile::gigabit(), Service::Safe, &rates)
}

/// Figure 4: Agreed delivery latency vs throughput on the 10 Gb network.
pub fn figure_04(q: Quality) -> Vec<Curve> {
    let rates = q.grid(
        &[250, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500],
        &[500, 1500, 2500, 3500],
    );
    latency_profile_figure(q, NetworkProfile::ten_gigabit(), Service::Agreed, &rates)
}

/// Figure 6: Safe delivery latency vs throughput on the 10 Gb network.
pub fn figure_06(q: Quality) -> Vec<Curve> {
    let rates = q.grid(
        &[250, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500],
        &[500, 1500, 2500, 3500],
    );
    latency_profile_figure(q, NetworkProfile::ten_gigabit(), Service::Safe, &rates)
}

/// Figures 5 and 7: the accelerated protocol with 1350-byte vs 8850-byte
/// payloads on the 10 Gb network (`service` selects Agreed = Fig. 5 or
/// Safe = Fig. 7).
pub fn figure_payload_sizes(q: Quality, service: Service) -> Vec<Curve> {
    let mut curves = Vec::new();
    for profile in ImplProfile::all() {
        for (payload, rates_full, rates_quick) in [
            (
                1350usize,
                &[500u64, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500][..],
                &[1000u64, 2500, 4000][..],
            ),
            (
                8850,
                &[1000, 2000, 3000, 4000, 5000, 6000, 7000][..],
                &[2000, 4000, 6000][..],
            ),
        ] {
            let mut spec = base_spec(q, NetworkProfile::ten_gigabit(), profile);
            spec.service = service;
            spec.protocol = ProtocolConfig::accelerated(20, 15);
            spec.payload_len = payload;
            let rates = q.grid(rates_full, rates_quick);
            curves.push(Curve::sweep_rates(
                &format!("{} {}B", profile.name, payload),
                &spec,
                &rates,
            ));
        }
    }
    curves
}

/// Figure 8: Safe delivery latency at *low* throughputs on the 10 Gb
/// network — the one regime where the original protocol wins (the aru
/// needs up to an extra round under acceleration, and at low utilization
/// rounds are already fast).
pub fn figure_08(q: Quality) -> Vec<Curve> {
    let rates = q.grid(
        &[100, 200, 300, 400, 500, 600, 800, 1000],
        &[100, 300, 500, 1000],
    );
    let mut curves = Vec::new();
    for (label, cfg) in protocols() {
        let mut spec = base_spec(q, NetworkProfile::ten_gigabit(), ImplProfile::spread());
        spec.service = Service::Safe;
        spec.protocol = cfg;
        curves.push(Curve::sweep_rates(
            &format!("spread {label}"),
            &spec,
            &rates,
        ));
    }
    curves
}

/// The loss experiments of Figures 9-12: latency (mean and worst-5 %) as a
/// function of the per-daemon loss rate, at a fixed goodput, for Agreed and
/// Safe delivery under both protocols. The x axis is the loss percentage.
pub fn figure_loss(q: Quality, network: NetworkProfile, goodput_mbps: u64) -> Vec<Curve> {
    let losses = q.grid(&[0, 1, 5, 10, 15, 20, 25], &[0, 5, 15, 25]);
    let mut curves = Vec::new();
    for service in [Service::Agreed, Service::Safe] {
        for (label, cfg) in protocols() {
            let mut points = Vec::new();
            for &pct in &losses {
                let mut spec = base_spec(q, network, ImplProfile::daemon());
                spec.service = service;
                spec.protocol = cfg;
                spec.loss = LossSpec::bernoulli(pct as f64 / 100.0);
                let spec = spec.at_rate_mbps(goodput_mbps);
                points.push(CurvePoint {
                    x: pct as f64,
                    result: spec.run(),
                });
            }
            curves.push(Curve {
                label: format!("{service} {label}"),
                points,
            });
        }
    }
    curves
}

/// Figure 13: the effect of the ring distance between a daemon losing
/// messages and the daemon it loses from. Each daemon drops 20 % of the
/// messages sent by the daemon `distance` positions before it.
pub fn figure_13(q: Quality) -> Vec<Curve> {
    let mut curves = Vec::new();
    for (label, cfg) in protocols() {
        let mut points = Vec::new();
        for distance in 1..=7usize {
            let mut spec = base_spec(q, NetworkProfile::ten_gigabit(), ImplProfile::daemon());
            spec.protocol = cfg;
            spec.loss = LossSpec::FromDistance {
                distance,
                rate: 0.2,
            };
            let spec = spec.at_rate_mbps(480);
            points.push(CurvePoint {
                x: distance as f64,
                result: spec.run(),
            });
        }
        curves.push(Curve {
            label: label.to_string(),
            points,
        });
    }
    curves
}

/// One maximum-throughput measurement.
#[derive(Debug, Clone)]
pub struct MaxThroughputRow {
    /// Network name.
    pub network: &'static str,
    /// Implementation profile name.
    pub profile: &'static str,
    /// Protocol label.
    pub protocol: &'static str,
    /// Payload size in bytes.
    pub payload: usize,
    /// Measured maximum goodput in Mbps.
    pub goodput_mbps: f64,
}

/// The headline maximum-throughput numbers of Section IV (saturating
/// workload, both networks, all profiles, both protocols, both payload
/// sizes on 10 Gb).
pub fn max_throughput_table(q: Quality) -> Vec<MaxThroughputRow> {
    let mut rows = Vec::new();
    let networks = [
        ("1Gb", NetworkProfile::gigabit()),
        ("10Gb", NetworkProfile::ten_gigabit()),
    ];
    for (net_name, network) in networks {
        for profile in ImplProfile::all() {
            for (proto_name, cfg) in [
                ("original", ProtocolConfig::original(30)),
                ("accelerated", ProtocolConfig::accelerated(30, 30)),
            ] {
                for payload in [1350usize, 8850] {
                    if payload == 8850 && net_name == "1Gb" {
                        continue; // the paper only reports 8850B on 10Gb
                    }
                    let mut spec = base_spec(q, network, profile);
                    spec.protocol = cfg;
                    spec.payload_len = payload;
                    spec.workload = Workload::Saturating;
                    let result = spec.run();
                    rows.push(MaxThroughputRow {
                        network: net_name,
                        profile: profile.name,
                        protocol: proto_name,
                        payload,
                        goodput_mbps: result.goodput_mbps(),
                    });
                }
            }
        }
    }
    rows
}

/// Formats the max-throughput table.
pub fn format_max_throughput(rows: &[MaxThroughputRow]) -> String {
    let mut out = String::from(
        "# Maximum throughput (saturating senders)\n\
         network profile      protocol     payload   goodput\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>7} {:>12} {:>12} {:>7}B {:>8.2} Gbps\n",
            r.network,
            r.profile,
            r.protocol,
            r.payload,
            r.goodput_mbps / 1000.0
        ));
    }
    out
}

/// Ablation: sweep the accelerated window from 0 (original behaviour) to
/// the full personal window, at a fixed 1 Gb rate.
pub fn ablate_accelerated_window(q: Quality) -> Vec<Curve> {
    let windows = [0u32, 5, 10, 15, 20];
    let mut points = Vec::new();
    for &w in &windows {
        let mut spec = base_spec(q, NetworkProfile::gigabit(), ImplProfile::daemon());
        spec.protocol = ProtocolConfig::builder()
            .variant(Variant::Accelerated)
            .personal_window(20)
            .accelerated_window(w)
            .global_window(160)
            .priority(PriorityMethod::Aggressive)
            .build()
            .expect("valid windows");
        let spec = spec.at_rate_mbps(700);
        points.push(CurvePoint {
            x: f64::from(w),
            result: spec.run(),
        });
    }
    vec![Curve {
        label: "accel window @700Mbps 1Gb".into(),
        points,
    }]
}

/// Ablation: the token-priority policies of Section III-D on the
/// CPU-bound 10 Gb network, where the data socket actually backlogs.
/// Method 1 (aggressive) and method 2 (conservative) coincide under
/// well-tuned flow control — which is exactly why the paper picked the
/// conservative one for Spread (robustness, not speed) — while never
/// prioritizing the token (the original protocol's policy) collapses
/// once data processing saturates the core.
pub fn ablate_priority_method(q: Quality) -> Vec<Curve> {
    let rates = q.grid(&[1000, 1500, 2000, 2200], &[1500, 2200]);
    let mut curves = Vec::new();
    for (label, method) in [
        ("method-1 aggressive", PriorityMethod::Aggressive),
        ("method-2 conservative", PriorityMethod::Conservative),
        ("never (original rule)", PriorityMethod::Original),
    ] {
        let mut spec = base_spec(q, NetworkProfile::ten_gigabit(), ImplProfile::spread());
        spec.protocol = ProtocolConfig::builder()
            .personal_window(20)
            .accelerated_window(4)
            .global_window(160)
            .priority(method)
            .build()
            .expect("valid config");
        curves.push(Curve::sweep_rates(label, &spec, &rates));
    }
    curves
}

/// Ablation: the accelerated protocol's one-round retransmission-request
/// delay vs requesting immediately, under loss. Requesting immediately
/// asks for messages that are merely still in flight, multiplying
/// retransmissions.
pub fn ablate_rtr_delay(q: Quality) -> Vec<(String, f64, f64)> {
    let mut rows = Vec::new();
    for (label, policy) in [
        ("delayed (paper)", RtrPolicy::VariantDefault),
        ("immediate", RtrPolicy::Immediate),
    ] {
        for loss_pct in [0u64, 5, 15] {
            let mut spec = base_spec(q, NetworkProfile::gigabit(), ImplProfile::daemon());
            spec.protocol = ProtocolConfig::builder()
                .personal_window(20)
                .accelerated_window(15)
                .global_window(160)
                .rtr_policy(policy)
                .build()
                .expect("valid config");
            spec.loss = LossSpec::bernoulli(loss_pct as f64 / 100.0);
            let result = spec.at_rate_mbps(350).run();
            rows.push((
                format!("{label} loss={loss_pct}%"),
                result.retransmission_rate,
                result.latency.mean.as_micros_f64(),
            ));
        }
    }
    rows
}

/// Ablation: switch egress buffer depth under saturating senders. The
/// accelerated protocol depends on switch buffering to absorb overlapping
/// senders; too-shallow buffers drop frames, forcing retransmissions and
/// costing goodput. (Notably, the protocol's window flow control keeps
/// the required depth to a few windows' worth of frames.)
pub fn ablate_switch_buffer(q: Quality) -> Vec<(u64, f64, f64, u64)> {
    let mut rows = Vec::new();
    for buffer_kib in [2u64, 4, 8, 16, 64, 768] {
        let mut network = NetworkProfile::gigabit();
        network.switch_buffer_bytes = buffer_kib * 1024;
        let mut spec = base_spec(q, network, ImplProfile::daemon());
        spec.protocol = ProtocolConfig::accelerated(30, 30);
        spec.workload = Workload::Saturating;
        let result = spec.run();
        rows.push((
            buffer_kib,
            result.goodput_mbps(),
            result.latency.mean.as_micros_f64(),
            result.switch_drops,
        ));
    }
    rows
}

/// One multi-ring scaling measurement: aggregate ordered throughput at
/// R rings on one network, with the deterministic merge replayed over
/// every ring's delivery stream.
#[derive(Debug, Clone)]
pub struct MultiRingScalingRow {
    /// Network name.
    pub network: &'static str,
    /// Number of independent rings.
    pub rings: u16,
    /// Sum of the rings' ordered goodput in Mbps.
    pub aggregate_mbps: f64,
    /// Aggregate relative to the single-ring baseline on this network.
    pub speedup: f64,
    /// Goodput of the merged observer's released stream in Mbps.
    pub merged_mbps: f64,
    /// Mean extra latency the merge gate adds, microseconds.
    pub mean_merge_lag_us: f64,
    /// Worst merge-gate latency observed, microseconds.
    pub max_merge_lag_us: f64,
}

/// Multi-ring scaling: aggregate ordered throughput at R = 1, 2, 4
/// rings of 8 daemons each, saturating 1350-byte senders, on both
/// network profiles. Each point also replays the merged observer and
/// reports the merge gate's cost (Multi-Ring Paxos' deterministic
/// merge layered over Accelerated Ring shards).
pub fn multiring_scaling_table(q: Quality) -> Vec<MultiRingScalingRow> {
    let mut rows = Vec::new();
    for (net_name, network) in [
        ("1Gb", NetworkProfile::gigabit()),
        ("10Gb", NetworkProfile::ten_gigabit()),
    ] {
        let mut baseline = None;
        for rings in [1u16, 2, 4] {
            let mut spec = ScalingSpec::baseline(rings, network);
            spec.warmup = q.warmup();
            spec.measure = q.measure();
            let point = run_scaling(&spec);
            let aggregate = point.aggregate_goodput_mbps();
            let base = *baseline.get_or_insert(aggregate);
            rows.push(MultiRingScalingRow {
                network: net_name,
                rings,
                aggregate_mbps: aggregate,
                speedup: aggregate / base,
                merged_mbps: point.merged_goodput_mbps(),
                mean_merge_lag_us: point.mean_merge_lag_us,
                max_merge_lag_us: point.max_merge_lag_us,
            });
        }
    }
    rows
}

/// Formats the multi-ring scaling table.
pub fn format_multiring_scaling(rows: &[MultiRingScalingRow]) -> String {
    let mut out = String::from(
        "# Multi-ring scaling (aggregate ordered throughput, saturating senders)\n\
         network  rings  aggregate Mbps   speedup  merged Mbps  merge lag mean/max us\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>7} {:>6} {:>15.1} {:>8.2}x {:>12.1} {:>12.1} / {:<10.1}\n",
            r.network,
            r.rings,
            r.aggregate_mbps,
            r.speedup,
            r.merged_mbps,
            r.mean_merge_lag_us,
            r.max_merge_lag_us
        ));
    }
    out
}

/// The `q`-quantile (`q` in `[0, 1]`) of an ascending sample by nearest
/// rank, index `round((n - 1) * q)`; 0 for an empty sample. The live
/// bins (`recovery`, `session_scaling`) report their percentiles with it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_from_env_defaults_quick() {
        // Do not set the variable; default must be quick.
        assert_eq!(Quality::from_env(), Quality::Quick);
    }

    #[test]
    fn quick_grids_are_smaller() {
        let q = Quality::Quick;
        assert_eq!(q.grid(&[1, 2, 3], &[1]), vec![1]);
        assert_eq!(Quality::Full.grid(&[1, 2, 3], &[1]), vec![1, 2, 3]);
    }

    #[test]
    fn protocols_are_the_papers_pair() {
        let [orig, accel] = protocols();
        assert_eq!(orig.1.variant(), Variant::Original);
        assert_eq!(accel.1.variant(), Variant::Accelerated);
        assert_eq!(accel.1.accelerated_window(), 15);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.50), 3.0);
        assert_eq!(percentile(&sorted, 0.99), 5.0);
        assert_eq!(percentile(&[], 0.50), 0.0);
    }

    #[test]
    fn figure_08_has_two_curves() {
        // Smoke-run the cheapest figure at quick quality.
        let curves = figure_08(Quality::Quick);
        assert_eq!(curves.len(), 2);
        assert!(curves.iter().all(|c| !c.points.is_empty()));
    }

    #[test]
    fn ablate_rtr_delay_shows_more_retransmissions_when_immediate() {
        let rows = ablate_rtr_delay(Quality::Quick);
        let delayed_lossless = rows
            .iter()
            .find(|(l, _, _)| l.starts_with("delayed") && l.ends_with("loss=0%"))
            .expect("row present");
        let immediate_lossless = rows
            .iter()
            .find(|(l, _, _)| l.starts_with("immediate") && l.ends_with("loss=0%"))
            .expect("row present");
        // The paper's one-round delay avoids requesting in-flight messages:
        // with no real loss the delayed policy must request ~nothing, while
        // the immediate policy produces spurious retransmissions.
        assert!(
            delayed_lossless.1 < 0.01,
            "delayed rate {}",
            delayed_lossless.1
        );
        assert!(
            immediate_lossless.1 >= delayed_lossless.1,
            "immediate {} vs delayed {}",
            immediate_lossless.1,
            delayed_lossless.1
        );
    }
}
