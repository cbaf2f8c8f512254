//! The KV client: ordered writes over a [`SessionClient`] session,
//! local reads over [`SessionFrame::SvcQuery`] — with exactly-once write
//! semantics and three read-consistency modes.
//!
//! ## Exactly-once writes
//!
//! Every write is stamped with the session's sequence number. A client
//! unsure whether a write landed (UDP, daemon restart, anything)
//! resubmits the *same* sequence — the per-ring engines dedup by
//! `(client name, seq)` high-watermark, so the op applies exactly once
//! no matter how many copies arrive, even through a different daemon
//! after a reconnect. [`KvClient::confirm`] packages the loop: poll the
//! read gate, resubmit while in doubt, return once the op committed.
//!
//! ## Read consistency
//!
//! * [`ReadMode::Local`] — whatever the queried replica has applied.
//!   Cheapest, may be stale.
//! * [`ReadMode::ReadYourWrites`] — gated on the client's own last
//!   write to the key's partition: the replica answers only once its
//!   consumption watermark for `(partition, client)` covers that
//!   sequence and no earlier op of the client is still pending.
//! * [`ReadMode::Linearizable`] — the client orders a [`KvOp::Fence`]
//!   through the key's partition and gates the read on the fence's
//!   sequence: the answer reflects every write ordered before the
//!   fence, whoever wrote it.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use accelring_core::Service;
use accelring_daemon::proto::{decode_session_frame, encode_session_frame};
use accelring_daemon::{SessionClient, SessionFrame};
use bytes::Bytes;

use crate::machine::{decode_reply, encode_query, KvQuery, KvReply};
use crate::op::{encode_op, involved_partitions, partition_of, KvOp, KvWrite};

/// Consistency level of a [`KvClient::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// The replica's current state, no gate.
    Local,
    /// Gated on this client's last write to the key's partition.
    ReadYourWrites,
    /// Gated on a fresh fence ordered through the key's partition.
    Linearizable,
}

/// The value side of a successful read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvValue {
    /// The bound value, or `None` for an absent key.
    pub value: Option<Bytes>,
    /// The answering replica's position clock at the read.
    pub position: u64,
}

/// A client of the replicated KV service.
#[derive(Debug)]
pub struct KvClient {
    session: SessionClient,
    daemon: SocketAddr,
    sock: UdpSocket,
    /// Receive buffer for query replies, allocated once per client.
    recv_buf: Vec<u8>,
    partitions: u16,
    nonce: u64,
    /// `partition → seq` of this session's last write there, for
    /// read-your-writes gates and in-doubt resubmission.
    last_write: BTreeMap<String, (u64, Bytes)>,
    /// How long an in-doubt op may go unconfirmed before it is
    /// resubmitted.
    resubmit_after: Duration,
}

impl KvClient {
    /// Opens a session named `name` against the daemon at `daemon`,
    /// agreeing on a `partitions`-way key split.
    ///
    /// # Errors
    ///
    /// Propagates socket and session-handshake failures.
    pub fn connect(daemon: SocketAddr, name: &str, partitions: u16) -> io::Result<KvClient> {
        let session = SessionClient::connect(daemon, name)?;
        let sock = UdpSocket::bind(("127.0.0.1", 0))?;
        sock.set_read_timeout(Some(Duration::from_millis(40)))?;
        Ok(KvClient {
            session,
            daemon,
            sock,
            recv_buf: vec![0u8; 64 * 1024],
            partitions: partitions.max(1),
            nonce: 0,
            last_write: BTreeMap::new(),
            resubmit_after: Duration::from_millis(250),
        })
    }

    /// This client's session name.
    pub fn name(&self) -> &str {
        self.session.name()
    }

    /// The highest sequence this session has stamped.
    pub fn last_seq(&self) -> u64 {
        self.session.last_seq()
    }

    /// Blocks until the daemon's replica answers local-service queries —
    /// its serving gate opens only once it has joined every partition
    /// (and recovered, when rejoining), so writes submitted after this
    /// returns cannot be consumed member-less and lost.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] when the replica never comes up.
    pub fn wait_serving(&mut self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        let probe = KvQuery::Get {
            key: String::new(),
            client: self.name().to_string(),
            min_seq: 0,
        };
        while Instant::now() < deadline {
            if self.query_once(&probe).is_some() {
                return Ok(());
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "replica never started serving",
        ))
    }

    /// Submits one op into the total order and returns its sequence.
    /// Fire-and-forget: pair with [`KvClient::confirm`] for an
    /// exactly-once acknowledged write.
    ///
    /// # Errors
    ///
    /// Propagates socket failures; the op itself may still land (UDP) —
    /// resubmitting the returned sequence is always safe.
    pub fn submit(&mut self, op: &KvOp) -> io::Result<u64> {
        let groups: Vec<String> = involved_partitions(op, self.partitions)
            .into_iter()
            .collect();
        if groups.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "op involves no partitions",
            ));
        }
        let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
        let payload = encode_op(op);
        let seq = self
            .session
            .multicast_sequenced(&refs, payload.clone(), Service::Agreed)?;
        for g in groups {
            self.last_write.insert(g, (seq, payload.clone()));
        }
        Ok(seq)
    }

    /// `PUT key = value`, unconfirmed. Returns the sequence.
    ///
    /// # Errors
    ///
    /// As [`KvClient::submit`].
    pub fn put(&mut self, key: &str, value: impl Into<Bytes>) -> io::Result<u64> {
        self.submit(&KvOp::Write {
            writes: vec![KvWrite::Put {
                key: key.to_string(),
                value: value.into(),
            }],
        })
    }

    /// `DEL key`, unconfirmed. Returns the sequence.
    ///
    /// # Errors
    ///
    /// As [`KvClient::submit`].
    pub fn del(&mut self, key: &str) -> io::Result<u64> {
        self.submit(&KvOp::Write {
            writes: vec![KvWrite::Del {
                key: key.to_string(),
            }],
        })
    }

    /// Compare-and-swap, unconfirmed: bind `key` to `value` iff its
    /// current value is `expect` (`None` = absent). Whether the guard
    /// held is observable via a subsequent read. Returns the sequence.
    ///
    /// # Errors
    ///
    /// As [`KvClient::submit`].
    pub fn cas(
        &mut self,
        key: &str,
        expect: Option<Bytes>,
        value: impl Into<Bytes>,
    ) -> io::Result<u64> {
        self.submit(&KvOp::Write {
            writes: vec![KvWrite::Cas {
                key: key.to_string(),
                expect,
                value: value.into(),
            }],
        })
    }

    /// An atomic multi-key transaction, unconfirmed. Keys may span
    /// partitions — and rings: the daemon splits the op into per-ring
    /// fragments and every replica commits it at the same merged
    /// position. Returns the sequence.
    ///
    /// # Errors
    ///
    /// As [`KvClient::submit`].
    pub fn txn(&mut self, writes: Vec<KvWrite>) -> io::Result<u64> {
        self.submit(&KvOp::Write { writes })
    }

    /// Blocks until the write stamped `seq` touching `key`'s partition
    /// has committed at the queried daemon, resubmitting the in-doubt
    /// op whenever progress stalls — the exactly-once acknowledgement
    /// loop.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] when the deadline passes first.
    pub fn confirm(&mut self, key: &str, seq: u64, timeout: Duration) -> io::Result<()> {
        let part = partition_of(key, self.partitions);
        let deadline = Instant::now() + timeout;
        let mut last_submit = Instant::now();
        loop {
            let q = KvQuery::Get {
                key: key.to_string(),
                client: self.name().to_string(),
                min_seq: seq,
            };
            if let Some(KvReply::Value { .. }) = self.query_once(&q) {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("write seq {seq} unconfirmed"),
                ));
            }
            if last_submit.elapsed() >= self.resubmit_after {
                if let Some((s, payload)) = self.last_write.get(&part).cloned() {
                    if s == seq {
                        let op = crate::op::decode_op(&payload).expect("own payload decodes");
                        let groups: Vec<String> = involved_partitions(&op, self.partitions)
                            .into_iter()
                            .collect();
                        let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
                        self.session
                            .resubmit(seq, &refs, payload, Service::Agreed)?;
                    }
                }
                last_submit = Instant::now();
            }
        }
    }

    /// Reads `key` at the given consistency, retrying the local query
    /// until the replica's gate opens or `timeout` passes.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] when the gate never opens in time;
    /// socket errors propagate.
    pub fn get(&mut self, key: &str, mode: ReadMode, timeout: Duration) -> io::Result<KvValue> {
        let part = partition_of(key, self.partitions);
        let min_seq = match mode {
            ReadMode::Local => 0,
            ReadMode::ReadYourWrites => self.last_write.get(&part).map(|(s, _)| *s).unwrap_or(0),
            ReadMode::Linearizable => self.submit(&KvOp::Fence {
                parts: vec![part.clone()],
            })?,
        };
        let deadline = Instant::now() + timeout;
        let mut last_submit = Instant::now();
        loop {
            let q = KvQuery::Get {
                key: key.to_string(),
                client: self.name().to_string(),
                min_seq,
            };
            match self.query_once(&q) {
                Some(KvReply::Value {
                    found,
                    value,
                    position,
                    ..
                }) => {
                    return Ok(KvValue {
                        value: found.then_some(value),
                        position,
                    });
                }
                _ => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("read gate at seq {min_seq} never opened"),
                        ));
                    }
                    // The gate may be waiting on an op the network ate:
                    // resubmit the in-doubt sequence (dedup makes this
                    // free when it did land).
                    if min_seq > 0 && last_submit.elapsed() >= self.resubmit_after {
                        // The fence of a linearizable read is recorded
                        // in `last_write` too, so one resubmit path
                        // covers both modes.
                        if let Some((s, payload)) = self.last_write.get(&part).cloned() {
                            let op = crate::op::decode_op(&payload).expect("own payload decodes");
                            let groups: Vec<String> = involved_partitions(&op, self.partitions)
                                .into_iter()
                                .collect();
                            let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
                            self.session.resubmit(s, &refs, payload, Service::Agreed)?;
                        }
                        last_submit = Instant::now();
                    }
                }
            }
        }
    }

    /// One SvcQuery round-trip; `None` on timeout or a non-matching
    /// reply (the caller owns retries).
    fn query_once(&mut self, q: &KvQuery) -> Option<KvReply> {
        self.nonce += 1;
        let frame = SessionFrame::SvcQuery {
            nonce: self.nonce,
            body: encode_query(q),
        };
        self.sock
            .send_to(&encode_session_frame(&frame), self.daemon)
            .ok()?;
        let until = Instant::now() + Duration::from_millis(120);
        while Instant::now() < until {
            let Ok((n, _)) = self.sock.recv_from(&mut self.recv_buf) else {
                continue;
            };
            let mut bytes = Bytes::copy_from_slice(&self.recv_buf[..n]);
            let Ok(SessionFrame::SvcReply { nonce, body }) = decode_session_frame(&mut bytes)
            else {
                continue;
            };
            if nonce != self.nonce {
                continue;
            }
            return decode_reply(&body);
        }
        None
    }

    /// Closes the session.
    pub fn close(self) {
        self.session.bye();
    }
}
