//! Property (100 cases): for any seeded mix of data traffic, migration
//! fences (start, abort escalations, commits, back-migrations through
//! re-open), and token-visit floors across two rings, the released cross-ring
//! order is a pure function of the per-ring streams — identical at
//! every observer and invariant under the *arrival interleaving* of the
//! two streams (source-first, target-first, alternating, seeded
//! random).
//!
//! This is the determinism half of the zero-gap handoff argument: the
//! fence decisions (freeze, commit, abort, re-open) are all ordered
//! messages, so two daemons that consume the same two ring histories in
//! different relative orders must still release the identical merged
//! sequence to their clients.

use accelring_core::{Delivery, ParticipantId, RingIdx, Round, Seq, Service};
use accelring_daemon::ClientEvent;
use accelring_multiring::{MultiOutput, MultiRingEngine, ShardMap};
use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RINGS: usize = 2;

fn shards() -> ShardMap {
    let mut map = ShardMap::new(RINGS as u16);
    map.assign("hot", RingIdx::new(0));
    map.assign("cold", RingIdx::new(1));
    map
}

/// Fresh daemon pair: client "a" on daemon 0, "b" on daemon 1. Joins
/// are *not* replayed here — they travel through the ring streams.
fn fresh_engines() -> Vec<MultiRingEngine> {
    let mut engines: Vec<MultiRingEngine> = (0..2)
        .map(|pid| MultiRingEngine::new(ParticipantId::new(pid), shards()))
        .collect();
    engines[0].client_connect("a").unwrap();
    engines[1].client_connect("b").unwrap();
    engines
}

fn client_of(daemon: usize) -> &'static str {
    if daemon == 0 {
        "a"
    } else {
        "b"
    }
}

/// The driving network: engine submissions append to per-ring totally
/// ordered streams, deliveries fan back into every engine.
struct Net {
    engines: Vec<MultiRingEngine>,
    streams: Vec<Vec<Delivery>>,
    cursors: Vec<[usize; RINGS]>,
    got: Vec<Vec<String>>,
}

impl Net {
    fn new() -> Net {
        Net {
            engines: fresh_engines(),
            streams: vec![Vec::new(); RINGS],
            cursors: vec![[0; RINGS]; 2],
            got: vec![Vec::new(); 2],
        }
    }

    fn apply(&mut self, daemon: usize, outs: Vec<MultiOutput>) {
        for o in outs {
            match o {
                MultiOutput::Submit {
                    ring,
                    payload,
                    service,
                } => {
                    let s = &mut self.streams[ring.as_usize()];
                    let seq = s.len() as u64 + 1;
                    s.push(Delivery {
                        seq: Seq::new(seq),
                        sender: ParticipantId::new(daemon as u16),
                        round: Round::new(seq),
                        service,
                        payload,
                    });
                }
                MultiOutput::Local {
                    event: ClientEvent::Message { payload, .. },
                    ..
                } => {
                    self.got[daemon].push(String::from_utf8_lossy(&payload).into_owned());
                }
                MultiOutput::Local { .. } => {}
            }
        }
    }

    /// Delivers every undelivered stream entry to every engine until
    /// quiescent (new submissions extend the streams mid-loop).
    fn drain(&mut self) {
        loop {
            let mut progressed = false;
            for d in 0..self.engines.len() {
                for r in 0..RINGS {
                    while self.cursors[d][r] < self.streams[r].len() {
                        let del = self.streams[r][self.cursors[d][r]].clone();
                        self.cursors[d][r] += 1;
                        let outs = self.engines[d].on_delivery(RingIdx::new(r as u16), &del);
                        self.apply(d, outs);
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
    }

    fn finish(&mut self) {
        for d in 0..self.engines.len() {
            let outs = self.engines[d].finish();
            self.apply(d, outs);
        }
    }
}

/// Runs a seeded driver: random data sends on both groups, token-visit
/// floors, migration starts (always of "hot", to whichever ring is not
/// its current home — so later starts are back-migrations through the
/// re-open path) and abort escalations, at random points. Returns the
/// recorded per-ring streams and each driver daemon's released order.
fn drive(seed: u64, steps: usize) -> (Vec<Vec<Delivery>>, Vec<Vec<String>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Net::new();
    for (d, group) in [(0, "hot"), (0, "cold"), (1, "hot"), (1, "cold")] {
        let outs = net.engines[d].client_join(client_of(d), group).unwrap();
        net.apply(d, outs);
    }
    net.drain();

    let mut msg = 0u64;
    for _ in 0..steps {
        match rng.random_range(0..10u8) {
            0..=4 => {
                let d = rng.random_range(0..2usize);
                let group = if rng.random::<bool>() { "hot" } else { "cold" };
                let outs = net.engines[d]
                    .client_multicast(
                        client_of(d),
                        &[group],
                        Bytes::from(format!("m{msg}")),
                        Service::Agreed,
                    )
                    .unwrap();
                net.apply(d, outs);
                msg += 1;
            }
            5 | 6 => {
                // A token visit raises one ring's floor at one daemon, as
                // far as the entries that daemon consumed prove: the next
                // one carries round `cursor + 1`.
                let d = rng.random_range(0..2usize);
                let r = rng.random_range(0..RINGS);
                let floor = Round::new(net.cursors[d][r] as u64 + 1);
                let outs = net.engines[d].advance_floor(RingIdx::new(r as u16), floor);
                net.apply(d, outs);
            }
            7 => {
                // A migration start, from wherever "hot" lives now.
                net.drain();
                if net.engines[0].migrations_in_flight().is_empty() {
                    let from = net.engines[0].ring_of("hot");
                    let to = RingIdx::new(1 - from.as_u16());
                    if let Ok(outs) = net.engines[0].begin_migration("hot", to) {
                        net.apply(0, outs);
                    }
                }
            }
            8 => {
                // A (possibly racing) abort escalation.
                let d = rng.random_range(0..2usize);
                let outs = net.engines[d].abort_migration("hot");
                net.apply(d, outs);
            }
            _ => net.drain(),
        }
    }
    net.drain();
    net.finish();
    (net.streams, net.got)
}

/// Replays the recorded streams into a fresh daemon pair, consuming
/// them in the given arrival order (`order[i]` names the ring whose
/// next undelivered entry is processed), and returns each observer's
/// released order. Replay submissions are discarded — the streams
/// already contain everything the original run ordered.
fn replay(streams: &[Vec<Delivery>], order: &[usize]) -> Vec<Vec<String>> {
    let mut engines = fresh_engines();
    let mut cursors = [0usize; RINGS];
    let mut got: Vec<Vec<String>> = vec![Vec::new(); 2];
    let collect = |d: usize, outs: Vec<MultiOutput>, got: &mut Vec<Vec<String>>| {
        for o in outs {
            if let MultiOutput::Local {
                event: ClientEvent::Message { payload, .. },
                ..
            } = o
            {
                got[d].push(String::from_utf8_lossy(&payload).into_owned());
            }
        }
    };
    for &r in order {
        let del = streams[r][cursors[r]].clone();
        cursors[r] += 1;
        for (d, e) in engines.iter_mut().enumerate() {
            let outs = e.on_delivery(RingIdx::new(r as u16), &del);
            collect(d, outs, &mut got);
        }
    }
    for (d, e) in engines.iter_mut().enumerate() {
        let outs = e.finish();
        collect(d, outs, &mut got);
    }
    got
}

/// The arrival interleavings each case is checked under.
fn interleavings(lens: [usize; RINGS], seed: u64) -> Vec<Vec<usize>> {
    let mut orders = Vec::new();
    // Source ring exhausted first, then the target — and the reverse:
    // the maximal cross-ring skews (Ready/Open arrive before Start, or
    // long after).
    orders.push(
        std::iter::repeat_n(0, lens[0])
            .chain(std::iter::repeat_n(1, lens[1]))
            .collect(),
    );
    orders.push(
        std::iter::repeat_n(1, lens[1])
            .chain(std::iter::repeat_n(0, lens[0]))
            .collect(),
    );
    // Strict alternation.
    let mut alt = Vec::new();
    let (mut c0, mut c1) = (0, 0);
    while c0 < lens[0] || c1 < lens[1] {
        if c0 < lens[0] {
            alt.push(0);
            c0 += 1;
        }
        if c1 < lens[1] {
            alt.push(1);
            c1 += 1;
        }
    }
    orders.push(alt);
    // A seeded random shuffle-merge.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0D15_0DE5);
    let mut shuffled = Vec::new();
    let (mut c0, mut c1) = (0, 0);
    while c0 < lens[0] || c1 < lens[1] {
        let pick0 = c1 >= lens[1] || (c0 < lens[0] && rng.random::<bool>());
        if pick0 {
            shuffled.push(0);
            c0 += 1;
        } else {
            shuffled.push(1);
            c1 += 1;
        }
    }
    orders.push(shuffled);
    orders
}

proptest! {
    // The issue's bar: 100 seeds, every interleaving agreeing. Each
    // case is pure in-memory engine work, no sockets.
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn released_order_is_arrival_interleaving_invariant(seed in any::<u64>()) {
        let (streams, driver_got) = drive(seed, 60);
        prop_assert_eq!(
            &driver_got[0], &driver_got[1],
            "seed {}: the two driving daemons released different orders", seed
        );
        let lens = [streams[0].len(), streams[1].len()];
        for (i, order) in interleavings(lens, seed).into_iter().enumerate() {
            let got = replay(&streams, &order);
            for (d, g) in got.iter().enumerate() {
                prop_assert_eq!(
                    g, &driver_got[d],
                    "seed {}, interleaving {}, observer {}: released order diverged",
                    seed, i, d
                );
            }
        }
    }
}
