//! Property: reconnect storms through the reactor session frontend are
//! exactly-once. Seeded schedules drive S remote sessions through epochs
//! of connect / sequenced submits / duplicate resubmits / abrupt-or-
//! polite disconnects (abrupt reconnects exercise the supersede path);
//! an in-process watcher must observe every unique (session, seq) exactly
//! once, in strictly increasing per-session order.

use std::time::{Duration, Instant};

use accelring_core::{ProtocolConfig, Service};
use accelring_daemon::{ClientEvent, FrontendOptions, SessionClient};
use accelring_membership::MembershipConfig;
use accelring_multiring::{MultiRingDaemon, MultiRingOptions, ShardMap};
use accelring_transport::spawn_local_ring;
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::HashMap;

fn test_membership_config() -> MembershipConfig {
    MembershipConfig {
        token_loss_timeout: 300_000_000,
        token_retransmit_timeout: 80_000_000,
        join_interval: 30_000_000,
        consensus_timeout: 250_000_000,
        commit_timeout: 250_000_000,
        recovery_timeout: 1_000_000_000,
        presence_interval: 100_000_000,
        gather_settle: 60_000_000,
    }
}

fn spawn_daemon() -> MultiRingDaemon {
    let node = spawn_local_ring(
        1,
        ProtocolConfig::accelerated(20, 15),
        test_membership_config(),
    )
    .expect("ring stands up")
    .remove(0);
    MultiRingDaemon::start_with(
        vec![node],
        ShardMap::new(1),
        MultiRingOptions {
            frontend: FrontendOptions::enabled(),
            ..MultiRingOptions::default()
        },
    )
}

/// Tiny deterministic generator so one u64 seed fixes the whole storm.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn run_storm(seed: u64, sessions: usize, epochs: usize) -> Result<(), String> {
    let daemon = spawn_daemon();
    let addr = daemon.session_addr().expect("session socket");
    let watcher = daemon.connect("watcher").map_err(|e| e.to_string())?;
    watcher.join("storm").map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        match watcher.events().recv_timeout(Duration::from_millis(50)) {
            Ok(ClientEvent::View { group, members }) if group == "storm" && members.len() == 1 => {
                break;
            }
            _ if Instant::now() > deadline => return Err("no initial view".to_string()),
            _ => {}
        }
    }

    let mut rng = Lcg(seed | 1);
    // Highest sequence each session has ever submitted (the resume
    // watermark carried across its reconnects).
    let mut high: Vec<u64> = vec![0; sessions];
    let mut expected: u64 = 0;
    for epoch in 0..epochs {
        let mut clients: Vec<Option<SessionClient>> = Vec::new();
        for (s, high) in high.iter_mut().enumerate() {
            let name = format!("s{s}");
            let mut c = SessionClient::connect_session(addr, &name, *high)
                .map_err(|e| format!("connect {name} epoch {epoch}: {e}"))?;
            let burst = 1 + rng.pick(3);
            let mut sent = Vec::new();
            for _ in 0..burst {
                let seq = c
                    .multicast_sequenced(
                        &["storm"],
                        Bytes::from(format!("{name}:{}", *high + sent.len() as u64 + 1)),
                        Service::Agreed,
                    )
                    .map_err(|e| e.to_string())?;
                sent.push(seq);
                expected += 1;
            }
            // Duplicate injection: re-send a prefix of this epoch's
            // burst under the same sequence numbers, and sometimes an
            // old epoch's sequence too — all must be suppressed.
            let dups = rng.pick(sent.len() as u64 + 1);
            for &seq in sent.iter().take(dups as usize) {
                c.resubmit(
                    seq,
                    &["storm"],
                    Bytes::from(format!("{name}:{seq}")),
                    Service::Agreed,
                )
                .map_err(|e| e.to_string())?;
            }
            if *high > 0 && rng.pick(2) == 0 {
                let old = 1 + rng.pick(*high);
                c.resubmit(
                    old,
                    &["storm"],
                    Bytes::from(format!("{name}:{old}")),
                    Service::Agreed,
                )
                .map_err(|e| e.to_string())?;
            }
            *high = *sent.last().expect("burst >= 1");
            clients.push(Some(c));
        }
        // Polite BYE or abrupt drop, chosen per session; an abrupt drop
        // leaves the session live so the next epoch's connect supersedes.
        for slot in &mut clients {
            if rng.pick(2) == 0 {
                if let Some(c) = slot.take() {
                    c.bye();
                }
            } else {
                *slot = None;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Exactly-once: every submitted (session, seq) observed once, in
    // strictly increasing per-session order.
    let mut seen: HashMap<String, Vec<u64>> = HashMap::new();
    let mut got: u64 = 0;
    let deadline = Instant::now() + Duration::from_secs(20);
    while got < expected && Instant::now() < deadline {
        if let Ok(ClientEvent::Message { payload, .. }) =
            watcher.events().recv_timeout(Duration::from_millis(100))
        {
            let text = String::from_utf8(payload.to_vec()).map_err(|e| e.to_string())?;
            let (name, seq) = text.split_once(':').ok_or("bad payload")?;
            let seq: u64 = seq.parse().map_err(|_| "bad seq")?;
            seen.entry(name.to_string()).or_default().push(seq);
            got += 1;
        }
    }
    // Catch stragglers (late duplicates would fail the checks below).
    while let Ok(ClientEvent::Message { payload, .. }) =
        watcher.events().recv_timeout(Duration::from_millis(300))
    {
        let text = String::from_utf8(payload.to_vec()).map_err(|e| e.to_string())?;
        let (name, seq) = text.split_once(':').ok_or("bad payload")?;
        seen.entry(name.to_string())
            .or_default()
            .push(seq.parse().map_err(|_| "bad seq")?);
        got += 1;
    }
    if got != expected {
        return Err(format!(
            "expected {expected} deliveries, saw {got}: {seen:?}"
        ));
    }
    for (s, name) in (0..sessions).map(|s| (s, format!("s{s}"))) {
        let seqs = seen.get(&name).cloned().unwrap_or_default();
        let want: Vec<u64> = (1..=high[s]).collect();
        if seqs != want {
            return Err(format!(
                "session {name}: delivered seqs {seqs:?}, want exactly-once monotone {want:?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    // Each case spins a real single-daemon ring and a full storm; keep
    // the count small enough for CI while the seeds still roam.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn reconnect_storms_are_exactly_once(seed in any::<u64>()) {
        let sessions = 3 + (seed % 3) as usize;
        if let Err(e) = run_storm(seed, sessions, 3) {
            return Err(TestCaseError::fail(e));
        }
    }
}
