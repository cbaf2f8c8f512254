//! Deterministic multi-ring scaling harness over `accelring-sim`.
//!
//! Runs R independent ring simulations (distinct seeds, identical
//! configuration), then replays each ring's node-0 delivery log through
//! the [`Merger`] in global arrival-time order — exactly what a merged
//! observer subscribed to groups on every ring would process. The
//! aggregate ordered throughput is what the paper's single-ring token
//! rotation caps; the merge replay shows the combined stream remains one
//! deterministic total order and measures the extra latency the merge
//! gate adds (time between a message's per-ring delivery and the moment
//! the merge proves it final).

use accelring_core::{PerRingStats, ProtocolConfig, RingIdx, Service};
use accelring_sim::{
    DeliveryRecord, ImplProfile, LossSpec, NetworkProfile, SimDuration, Simulator, Workload,
};

use crate::merge::{MergedEntry, Merger};

/// Configuration of one multi-ring scaling measurement.
#[derive(Debug, Clone)]
pub struct ScalingSpec {
    /// Number of independent rings.
    pub rings: u16,
    /// Daemons per ring.
    pub nodes_per_ring: u16,
    /// Clean payload bytes per message (equal across rings).
    pub payload_len: usize,
    /// Protocol configuration for every ring.
    pub protocol: ProtocolConfig,
    /// Network profile (1 Gb or 10 Gb).
    pub network: NetworkProfile,
    /// Implementation cost profile.
    pub impl_profile: ImplProfile,
    /// Warmup excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Base RNG seed (each ring derives its own).
    pub seed: u64,
}

impl ScalingSpec {
    /// The scaling baseline: the paper's 8-node daemon configuration per
    /// ring, saturating workload, 1350-byte payloads.
    pub fn baseline(rings: u16, network: NetworkProfile) -> ScalingSpec {
        ScalingSpec {
            rings,
            nodes_per_ring: 8,
            payload_len: 1350,
            protocol: ProtocolConfig::accelerated(20, 15),
            network,
            impl_profile: ImplProfile::daemon(),
            warmup: SimDuration::from_millis(30),
            measure: SimDuration::from_millis(100),
            seed: 42,
        }
    }
}

/// Measurements of one multi-ring run.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Number of rings.
    pub rings: u16,
    /// Sum of the rings' clean ordered goodput (bits/second, the
    /// aggregate ordered throughput the deployment sustains).
    pub aggregate_goodput_bps: f64,
    /// Each ring's own goodput.
    pub per_ring_goodput_bps: Vec<f64>,
    /// Per-ring protocol counters summed over each ring's participants.
    pub per_ring_stats: PerRingStats,
    /// Messages released by the merged observer inside the measurement
    /// window.
    pub merged_in_window: u64,
    /// Goodput of the merged stream itself (payload bits the merged
    /// observer released per second of the measurement window).
    pub merged_goodput_bps: f64,
    /// Mean extra delay the merge gate adds before a delivered message
    /// is proven final, in microseconds (watermark-released messages).
    pub mean_merge_lag_us: f64,
    /// Worst merge-gate delay observed, in microseconds.
    pub max_merge_lag_us: f64,
}

impl ScalingPoint {
    /// Aggregate goodput in megabits per second.
    pub fn aggregate_goodput_mbps(&self) -> f64 {
        self.aggregate_goodput_bps / 1e6
    }

    /// Merged-stream goodput in megabits per second.
    pub fn merged_goodput_mbps(&self) -> f64 {
        self.merged_goodput_bps / 1e6
    }
}

/// Runs `spec.rings` independent ring simulations and merges their
/// node-0 delivery logs deterministically ([`replay_merge`]).
pub fn run_scaling(spec: &ScalingSpec) -> ScalingPoint {
    let outcomes: Vec<_> = (0..spec.rings)
        .map(|k| {
            Simulator::new(
                spec.nodes_per_ring,
                spec.protocol,
                spec.network,
                spec.impl_profile,
                LossSpec::None,
                Workload::Saturating,
                spec.payload_len,
                Service::Agreed,
                spec.warmup,
                spec.measure,
                // Distinct deterministic seed per ring: rings drift apart
                // in phase like independent real deployments would.
                spec.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(k) + 1)),
            )
            .with_node0_log()
            .run()
        })
        .collect();

    let per_ring_goodput_bps: Vec<f64> = outcomes.iter().map(|o| o.goodput_bps()).collect();
    let mut per_ring_stats = PerRingStats::new(spec.rings as usize);
    for (k, outcome) in outcomes.iter().enumerate() {
        let ring = per_ring_stats.ring_mut(RingIdx::new(k as u16));
        for s in &outcome.participant_stats {
            ring.absorb(s);
        }
    }

    let logs: Vec<&[DeliveryRecord]> = outcomes.iter().map(|o| o.node0_log.as_slice()).collect();
    let window_start = spec.warmup.as_nanos();
    let window_end = window_start + spec.measure.as_nanos();
    let mut merged_in_window = 0u64;
    let mut merged_bits_in_window = 0u64;
    let mut lag_sum_ns = 0u128;
    let mut lag_max_ns = 0u64;
    let mut lag_count = 0u64;
    for (rec, released_ns) in replay_merge(&logs) {
        if rec.at_ns >= window_start && rec.at_ns < window_end {
            merged_in_window += 1;
            merged_bits_in_window += rec.payload_len as u64 * 8;
        }
        if let Some(at) = released_ns {
            let lag = at.saturating_sub(rec.at_ns);
            lag_sum_ns += u128::from(lag);
            lag_max_ns = lag_max_ns.max(lag);
            lag_count += 1;
        }
    }

    ScalingPoint {
        rings: spec.rings,
        aggregate_goodput_bps: per_ring_goodput_bps.iter().sum(),
        per_ring_goodput_bps,
        per_ring_stats,
        merged_in_window,
        merged_goodput_bps: merged_bits_in_window as f64 / spec.measure.as_secs_f64(),
        mean_merge_lag_us: if lag_count == 0 {
            0.0
        } else {
            (lag_sum_ns / u128::from(lag_count)) as f64 / 1_000.0
        },
        max_merge_lag_us: lag_max_ns as f64 / 1_000.0,
    }
}

/// Replays node-0 delivery logs of independent rings through the
/// [`Merger`] in global delivery-time order (ties by ring) — the schedule
/// a single merged observer fed by all the rings would see — and returns
/// every record in merged order with the virtual time (ns) the merge
/// released it at. Records still held when the logs end are flushed
/// last, with no release time: nothing delivered later to release them.
///
/// # Panics
///
/// Panics if the merge loses or invents records, or releases slots out
/// of order (internal invariants of the merger).
pub fn replay_merge(logs: &[&[DeliveryRecord]]) -> Vec<(DeliveryRecord, Option<u64>)> {
    let total: usize = logs.iter().map(|l| l.len()).sum();
    let mut merger: Merger<DeliveryRecord> = Merger::new(logs.len() as u16);
    let mut cursors = vec![0usize; logs.len()];
    let mut released = Vec::with_capacity(total);
    let mut last_slot = 0u64;
    let mut account = |entry: MergedEntry<DeliveryRecord>, at: Option<u64>| {
        assert!(entry.slot() >= last_slot, "merged slots must be monotone");
        last_slot = entry.slot();
        released.push((entry.into_item(), at));
    };
    while let Some(ring) = (0..logs.len())
        .filter(|&k| cursors[k] < logs[k].len())
        .min_by_key(|&k| (logs[k][cursors[k]].at_ns, k))
    {
        let rec = logs[ring][cursors[ring]];
        cursors[ring] += 1;
        for entry in merger.push(RingIdx::new(ring as u16), rec.round, rec) {
            account(entry, Some(rec.at_ns));
        }
    }
    for entry in merger.finish() {
        account(entry, None);
    }
    assert_eq!(released.len(), total, "merge must release every record");
    released
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(rings: u16) -> ScalingSpec {
        let mut spec = ScalingSpec::baseline(rings, NetworkProfile::gigabit());
        spec.warmup = SimDuration::from_millis(10);
        spec.measure = SimDuration::from_millis(30);
        spec
    }

    #[test]
    fn two_rings_nearly_double_one() {
        let one = run_scaling(&quick_spec(1));
        let two = run_scaling(&quick_spec(2));
        assert!(one.aggregate_goodput_bps > 0.0);
        let speedup = two.aggregate_goodput_bps / one.aggregate_goodput_bps;
        assert!(
            speedup > 1.6,
            "2 rings must scale well past one, got {speedup:.2}x"
        );
        assert_eq!(two.per_ring_goodput_bps.len(), 2);
        assert!(two.merged_in_window > 0);
        assert_eq!(two.per_ring_stats.rings(), 2);
        assert!(two.per_ring_stats.ring(RingIdx::new(1)).delivered_agreed > 0);
    }

    #[test]
    fn merged_stream_carries_the_aggregate() {
        let point = run_scaling(&quick_spec(2));
        // The merged observer's own goodput tracks the per-ring node-0
        // streams it was fed (within a few percent: window edges).
        let per_node = point.aggregate_goodput_bps;
        let ratio = point.merged_goodput_bps / per_node;
        assert!(
            (0.9..1.1).contains(&ratio),
            "merged goodput must track aggregate, ratio {ratio:.3}"
        );
        assert!(point.mean_merge_lag_us >= 0.0);
        assert!(point.max_merge_lag_us >= point.mean_merge_lag_us);
    }

    #[test]
    fn scaling_run_is_deterministic() {
        let a = run_scaling(&quick_spec(2));
        let b = run_scaling(&quick_spec(2));
        assert_eq!(a.merged_in_window, b.merged_in_window);
        assert_eq!(a.aggregate_goodput_bps, b.aggregate_goodput_bps);
        assert_eq!(a.mean_merge_lag_us, b.mean_merge_lag_us);
    }
}
