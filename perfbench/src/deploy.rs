//! The one place deployments are raised: ring nodes from
//! `spawn_local_multiring_on`, one `MultiRingDaemon::start_with` per
//! daemon, and `KvStore::start` replicas where the workload has a store.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, RingIdx};
use accelring_daemon::FrontendOptions;
use accelring_kv::{partition_groups, KvApplied, KvConfig, KvShared, KvStore};
use accelring_membership::{MembershipConfig, StateKind};
use accelring_multiring::{MultiRingDaemon, MultiRingOptions, ShardMap};
use accelring_transport::{spawn_local_multiring_on, NodeHandle, Transport, TransportProbe};
use crossbeam::channel::{unbounded, Receiver};

/// Daemons per ring in every workload.
pub const NODES: u16 = 3;
/// How long bring-up may take before the run fails.
const BRING_UP_DEADLINE: Duration = Duration::from_secs(30);

/// The shape of one deployment.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub rings: u16,
    pub transport: Transport,
    /// Application groups pinned to rings.
    pub groups: &'static [(&'static str, u16)],
    /// KV partitions (partition `p` on ring `p % rings`), with a replica
    /// on every daemon; 0 means no store.
    pub kv_partitions: u16,
}

/// A running deployment.
pub struct Deployment {
    pub daemons: Vec<MultiRingDaemon>,
    pub stores: Vec<KvStore>,
    pub shareds: Vec<Arc<KvShared>>,
    /// Every ring node's transport probe, daemon-major.
    pub probes: Vec<TransportProbe>,
    /// Commit records of replica 0, when the layout has a store.
    pub applied: Option<Receiver<KvApplied>>,
    /// Time from the start of bring-up until every ring node reported
    /// `Operational`.
    pub form: Duration,
}

/// What teardown found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Teardown {
    /// Pooled transport buffers still leased once everything stopped.
    pub pool_outstanding: u64,
    /// Ring datagrams that failed to decode over the deployment's life.
    pub decode_failures: u64,
}

/// Brings a deployment up and waits until every node is operational and
/// every replica serves.
pub fn bring_up(layout: &Layout) -> Result<Deployment, String> {
    let start = Instant::now();
    let deadline = start + BRING_UP_DEADLINE;
    let rings = spawn_local_multiring_on(
        layout.transport,
        layout.rings,
        NODES,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        &[],
    )
    .map_err(|e| format!("rings failed to start: {e}"))?;
    // A node reads as operational before its loop first publishes, so a
    // formed node is also one that installed a regular configuration.
    while !rings
        .iter()
        .flatten()
        .all(|n| n.membership_state() == StateKind::Operational && n.rings_formed() > 0)
    {
        if Instant::now() >= deadline {
            return Err("rings never became operational".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let form = start.elapsed();

    let mut shards = ShardMap::new(layout.rings);
    for (group, ring) in layout.groups {
        shards.assign(group, RingIdx::new(*ring));
    }
    if layout.kv_partitions > 0 {
        for (p, group) in partition_groups(layout.kv_partitions).iter().enumerate() {
            shards.assign(group, RingIdx::new(p as u16 % layout.rings));
        }
    }
    let mut columns: Vec<Vec<NodeHandle>> = (0..NODES).map(|_| Vec::new()).collect();
    for ring in rings {
        for (i, node) in ring.into_iter().enumerate() {
            columns[i].push(node);
        }
    }
    let probes = columns.iter().flatten().map(NodeHandle::probe).collect();
    let shareds: Vec<Arc<KvShared>> = if layout.kv_partitions > 0 {
        (0..NODES)
            .map(|_| KvShared::new(layout.kv_partitions))
            .collect()
    } else {
        Vec::new()
    };
    let daemons: Vec<MultiRingDaemon> = columns
        .into_iter()
        .enumerate()
        .map(|(i, nodes)| {
            MultiRingDaemon::start_with(
                nodes,
                shards.clone(),
                MultiRingOptions {
                    frontend: FrontendOptions::enabled(),
                    app_state: shareds
                        .get(i)
                        .map(|s| Arc::clone(s) as Arc<dyn accelring_multiring::AppState>),
                    ..MultiRingOptions::default()
                },
            )
        })
        .collect();

    let mut stores = Vec::new();
    let mut applied = None;
    for (i, shared) in shareds.iter().enumerate() {
        let tx = if i == 0 {
            let (tx, rx) = unbounded();
            applied = Some(rx);
            Some(tx)
        } else {
            None
        };
        let store = KvStore::start(
            &daemons[i],
            Arc::clone(shared),
            KvConfig {
                partitions: layout.kv_partitions,
                name: format!("replica-{i}"),
                applied: tx,
                ..KvConfig::default()
            },
        )
        .map_err(|e| format!("replica {i} failed to start: {e}"))?;
        stores.push(store);
    }
    while !shareds.iter().all(|s| s.serving()) {
        if Instant::now() >= deadline {
            return Err("replicas never all started serving".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Deployment {
        daemons,
        stores,
        shareds,
        probes,
        applied,
        form,
    })
}

impl Deployment {
    /// The session socket of daemon `i`.
    pub fn session_addr(&self, i: usize) -> SocketAddr {
        self.daemons[i]
            .session_addr()
            .expect("every daemon opens its session socket")
    }

    /// Stops replicas, then daemons, drops every replica state, and reads
    /// the transport probes one last time.
    pub fn teardown(self) -> Teardown {
        let Deployment {
            daemons,
            stores,
            shareds,
            probes,
            applied,
            ..
        } = self;
        for s in stores {
            s.shutdown();
        }
        for d in daemons {
            d.shutdown();
        }
        // Replica state and undrained commit records may pin pooled
        // receive buffers; they must go before the leak check.
        drop(shareds);
        drop(applied);
        Teardown {
            pool_outstanding: probes.iter().map(TransportProbe::pool_outstanding).sum(),
            decode_failures: probes.iter().map(|p| p.stats().decode_failures).sum(),
        }
    }
}
