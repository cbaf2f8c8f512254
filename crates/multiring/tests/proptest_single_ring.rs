//! Property (100 cases): a single ring is just R = 1. Seeded client
//! traffic over two or three daemons — connects, joins, leaves,
//! sequenced multicasts, duplicate resubmissions, disconnects — mixed
//! with regular and transitional configuration changes:
//! at every daemon a [`MultiRingEngine`] over `ShardMap::new(1)` must
//! emit exactly the local events a bare [`GroupEngine`] emits, in the
//! same order, and submit the same ring payloads. This is what lets one
//! runtime serve single-ring deployments.

use accelring_core::{Delivery, ParticipantId, RingId, RingIdx, Round, Seq, Service};
use accelring_daemon::{ClientEvent, EngineError, EngineOutput, GroupEngine};
use accelring_membership::ConfigChange;
use accelring_multiring::{MultiOutput, MultiRingEngine, MultiRingError, ShardMap};
use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLIENTS: [&str; 4] = ["c0", "c1", "c2", "c3"];
const GROUPS: [&str; 3] = ["a", "b", "c"];

/// The multi-ring engine's output as the group engine would emit it; at
/// R = 1 every submission must target ring 0.
fn single(out: MultiOutput) -> EngineOutput {
    match out {
        MultiOutput::Submit {
            ring,
            payload,
            service,
        } => {
            assert_eq!(ring, RingIdx::new(0), "submission off the only ring");
            EngineOutput::Submit { payload, service }
        }
        MultiOutput::Local { client, event } => EngineOutput::Local { client, event },
    }
}

/// One entry of the ring's total order.
#[derive(Clone)]
enum Ordered {
    Delivery(Delivery),
    Config(ConfigChange),
}

/// Every daemon twice — a bare group engine and the multi-ring engine at
/// R = 1 — around one shared ring that each consumes at its own pace.
struct Net {
    bare: Vec<GroupEngine>,
    multi: Vec<MultiRingEngine>,
    /// Local events per daemon, `[bare, multi]`.
    events: Vec<[Vec<EngineOutput>; 2]>,
    cursors: Vec<usize>,
    order: Vec<Ordered>,
}

/// Runs one client operation on both engines of daemon `$d`.
macro_rules! both {
    ($net:ident, $d:expr, $op:ident($($arg:expr),*)) => {{
        let b = $net.bare[$d].$op($($arg.clone()),*);
        let m = $net.multi[$d].$op($($arg),*);
        $net.step($d, b, m)
    }};
}

impl Net {
    fn new(n: usize) -> Net {
        let pids = (0..n as u16).map(ParticipantId::new);
        Net {
            bare: pids.clone().map(GroupEngine::new).collect(),
            multi: pids
                .map(|p| MultiRingEngine::new(p, ShardMap::new(1)))
                .collect(),
            events: vec![Default::default(); n],
            cursors: vec![0; n],
            order: Vec::new(),
        }
    }

    /// Records one step at daemon `d`: both engines must accept or reject
    /// alike and submit the same payloads, which join the ring's order.
    fn step(
        &mut self,
        d: usize,
        bare: Result<Vec<EngineOutput>, EngineError>,
        multi: Result<Vec<MultiOutput>, MultiRingError>,
    ) -> Result<(), TestCaseError> {
        let (bare, multi) = match (bare, multi) {
            (Ok(b), Ok(m)) => (b, m.into_iter().map(single).collect::<Vec<_>>()),
            (Err(b), Err(MultiRingError::Engine(m))) if b == m => return Ok(()),
            (b, m) => {
                let (b, m) = (b.err(), m.err());
                return Err(TestCaseError::fail(format!("daemon {d}: {b:?} vs {m:?}")));
            }
        };
        // A merging configuration's re-announcements may come before or
        // after its notices; each kind keeps its own order.
        let is_submit = |o: &EngineOutput| matches!(o, EngineOutput::Submit { .. });
        let (submits, local): (Vec<_>, Vec<_>) = bare.into_iter().partition(is_submit);
        let (multi_submits, multi_local): (Vec<_>, Vec<_>) = multi.into_iter().partition(is_submit);
        prop_assert_eq!(&submits, &multi_submits, "daemon {}: submissions differ", d);
        self.events[d][0].extend(local);
        self.events[d][1].extend(multi_local);
        for out in submits {
            if let EngineOutput::Submit { payload, service } = out {
                self.push(d, payload, service);
            }
        }
        Ok(())
    }

    fn connect(&mut self, d: usize, name: &str) -> Result<(), TestCaseError> {
        let b = self.bare[d].client_connect(name).map(|()| Vec::new());
        let m = self.multi[d].client_connect(name).map(|()| Vec::new());
        self.step(d, b, m)
    }

    fn push(&mut self, sender: usize, payload: Bytes, service: Service) {
        let seq = self.order.len() as u64 + 1;
        self.order.push(Ordered::Delivery(Delivery {
            seq: Seq::new(seq),
            sender: ParticipantId::new(sender as u16),
            round: Round::new(seq),
            service,
            payload,
        }));
    }

    /// Feeds daemon `d` the ring's order up to position `upto`.
    fn consume(&mut self, d: usize, upto: usize) -> Result<(), TestCaseError> {
        const RING: RingIdx = RingIdx::new(0);
        while self.cursors[d] < upto {
            let entry = self.order[self.cursors[d]].clone();
            self.cursors[d] += 1;
            let (bare, multi) = (&mut self.bare[d], &mut self.multi[d]);
            let (b, m) = match &entry {
                Ordered::Delivery(x) => (bare.on_delivery(x), multi.on_delivery(RING, x)),
                Ordered::Config(c) => (bare.on_config_change(c), multi.on_config_change(RING, c)),
            };
            self.step(d, Ok(b), Ok(m))?;
        }
        Ok(())
    }

    /// Delivers everything to everyone until quiescent (a merging
    /// configuration makes daemons re-announce their memberships).
    fn drain(&mut self) -> Result<(), TestCaseError> {
        while self.cursors.iter().any(|&c| c < self.order.len()) {
            for d in 0..self.cursors.len() {
                self.consume(d, self.order.len())?;
            }
        }
        Ok(())
    }
}

/// Runs one seeded schedule, checking the twins agree at every daemon.
fn run(seed: u64, steps: usize) -> Result<Net, TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(2..=3usize);
    let mut net = Net::new(n);
    // Highest sequence each client has stamped, across reconnects.
    let mut high = [0u64; CLIENTS.len()];
    let mut epoch = 1;
    for (k, name) in CLIENTS.iter().enumerate() {
        net.connect(k % n, name)?;
        both!(net, k % n, client_join(*name, GROUPS[k % GROUPS.len()]))?;
    }
    for msg in 0..steps {
        let d = rng.random_range(0..n);
        let c = rng.random_range(0..CLIENTS.len());
        let (name, group) = (CLIENTS[c], GROUPS[rng.random_range(0..GROUPS.len())]);
        match rng.random_range(0..15u8) {
            0 => net.connect(d, name)?,
            1 | 2 => both!(net, d, client_join(name, group))?,
            3 => both!(net, d, client_leave(name, group))?,
            4..=8 => {
                // Fresh sequences, some unsequenced sends, and duplicates
                // re-stamped with an already used sequence.
                let seq = match rng.random_range(0..5u8) {
                    0 => 0,
                    1 if high[c] > 0 => rng.random_range(1..=high[c]),
                    _ => {
                        high[c] += 1;
                        high[c]
                    }
                };
                let mut groups = vec![group];
                let other = GROUPS[rng.random_range(0..GROUPS.len())];
                if other != group {
                    groups.push(other);
                }
                let service = [Service::Agreed, Service::Safe][rng.random_range(0..2usize)];
                let payload = Bytes::from(format!("m{msg}"));
                both!(
                    net,
                    d,
                    client_multicast_sequenced(name, groups.as_slice(), payload, service, seq)
                )?;
            }
            9 => both!(net, d, client_disconnect(name))?,
            10 => {
                // A configuration over a random non-empty set of daemons;
                // a regular one installs a fresh ring counter.
                let mut members: Vec<ParticipantId> = (0..n as u16)
                    .filter(|_| rng.random::<bool>())
                    .map(ParticipantId::new)
                    .collect();
                if members.is_empty() {
                    members.push(ParticipantId::new(d as u16));
                }
                let transitional = rng.random::<bool>();
                if !transitional {
                    epoch += 4;
                }
                net.order.push(Ordered::Config(ConfigChange {
                    ring_id: RingId::new(members[0], epoch),
                    members,
                    transitional,
                }));
            }
            11..=13 => {
                let upto = rng.random_range(net.cursors[d]..=net.order.len());
                net.consume(d, upto)?;
            }
            _ => net.drain()?,
        }
    }
    net.drain()?;
    for d in 0..n {
        prop_assert!(net.multi[d].finish().is_empty(), "the merge held events");
        let bare = (&net.events[d][0], net.bare[d].duplicates_dropped());
        let multi = (&net.events[d][1], net.multi[d].duplicates_dropped());
        prop_assert_eq!(
            bare,
            multi,
            "seed {}, daemon {}: events or duplicates differ",
            seed,
            d
        );
    }
    Ok(net)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn single_ring_engine_matches_group_engine(seed in any::<u64>()) {
        run(seed, 120)?;
    }
}

/// Guards against a vacuous property: fixed seeds must move messages,
/// views, transitional notices and duplicate drops through the engines.
#[test]
fn schedules_exercise_every_event_kind() {
    let nets: Vec<Net> = (0..8).map(|s| run(s, 120).expect("twins agree")).collect();
    let bare: Vec<&EngineOutput> = nets
        .iter()
        .flat_map(|n| &n.events)
        .flat_map(|[bare, _]| bare)
        .collect();
    let seen = |want: fn(&ClientEvent) -> bool| {
        bare.iter()
            .any(|o| matches!(o, EngineOutput::Local { event, .. } if want(event)))
    };
    assert!(seen(|e| matches!(e, ClientEvent::Message { .. })));
    assert!(seen(|e| matches!(e, ClientEvent::View { .. })));
    assert!(seen(|e| matches!(
        e,
        ClientEvent::Config {
            transitional: true,
            ..
        }
    )));
    let dropped = nets.iter().flat_map(|n| &n.bare);
    assert!(dropped.map(GroupEngine::duplicates_dropped).sum::<u64>() > 0);
}
