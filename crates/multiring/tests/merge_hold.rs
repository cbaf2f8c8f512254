//! The merge-hold invariant in virtual time: a message a ring delivered
//! is released by the cross-ring merge within a few milliseconds, for
//! as long as the deployment runs — even when the rings' tokens rotate
//! at different rates.
//!
//! Two simulated rings of 3 and 8 daemons carry the same fixed-rate
//! load for 60 virtual seconds; the small ring turns its token more
//! than twice as often. Node 0's deliveries of both rings are replayed
//! through the merger in virtual-time order, as `run_scaling` does. If
//! the merge slot counted rotations, the small ring's slots would run
//! ahead of the large ring's by ~1k a second and its messages would wait
//! longer the longer the run; leader-paced clock rounds keep both rings'
//! slots on one time line.

use accelring_core::{ProtocolConfig, Service};
use accelring_multiring::replay_merge;
use accelring_sim::{
    ImplProfile, LossSpec, NetworkProfile, SimDuration, SimOutcome, Simulator, Workload,
};

/// Clean payload bytes per message.
const PAYLOAD: usize = 100;
/// Messages per second each ring orders.
const RATE: u64 = 2_000;

/// One ring of `nodes` daemons under the fixed-rate load. A 100 µs link
/// leg keeps the token slow enough (~0.6 ms and ~1.6 ms rotations) that
/// a debug build simulates a minute in seconds.
fn ring(nodes: u16, seed: u64) -> SimOutcome {
    let network = NetworkProfile {
        link_latency: SimDuration::from_micros(100),
        ..NetworkProfile::gigabit()
    };
    Simulator::new(
        nodes,
        ProtocolConfig::accelerated(20, 15),
        network,
        ImplProfile::daemon(),
        LossSpec::None,
        Workload::FixedRate {
            aggregate_bps: RATE * PAYLOAD as u64 * 8,
        },
        PAYLOAD,
        Service::Agreed,
        SimDuration::ZERO,
        SimDuration::from_millis(60_000),
        seed,
    )
    .with_node0_log()
    .run()
}

#[test]
fn merge_hold_stays_bounded_between_rings_of_unequal_rotation() {
    let small = ring(3, 1);
    let large = ring(8, 2);
    assert!(
        small.node0_log.len() > 100_000 && large.node0_log.len() > 100_000,
        "both rings must carry the load for the whole run"
    );
    let released = replay_merge(&[&small.node0_log, &large.node0_log]);
    let lags: Vec<u64> = released
        .iter()
        .filter_map(|(rec, at)| at.map(|t| t - rec.at_ns))
        .collect();
    // Only the last few records of the run may wait for the end of the
    // logs: everything else is released by the other ring's progress.
    let tail = released.len() - lags.len();
    assert!(tail < 16, "{tail} records held until the logs ended");
    // About three rotations of the slower ring.
    let max_ms = *lags.iter().max().expect("records released") as f64 / 1e6;
    assert!(
        max_ms < 5.0,
        "max merge hold {max_ms:.3} ms between rings of unequal rotation"
    );
}
