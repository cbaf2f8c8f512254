//! Fundamental identifier and counter types shared by every layer of the
//! stack.
//!
//! All of these are thin newtypes ([C-NEWTYPE]) so that a sequence number can
//! never be confused with a round number or a participant index, which is an
//! easy mistake to make in a protocol whose token carries half a dozen
//! counters.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

/// Identifier of a protocol participant (a daemon in Spread terms).
///
/// Participant ids are assigned by the membership algorithm and are unique
/// within a configuration. The ring order is the ascending order of the
/// member ids unless the membership algorithm says otherwise.
///
/// # Examples
///
/// ```
/// use accelring_core::ParticipantId;
/// let a = ParticipantId::new(3);
/// assert_eq!(a.as_u16(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ParticipantId(u16);

impl ParticipantId {
    /// Creates a participant id from a raw index.
    pub const fn new(raw: u16) -> Self {
        ParticipantId(raw)
    }

    /// Returns the raw numeric id.
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// Returns the raw id widened to `usize`, convenient for indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ParticipantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u16> for ParticipantId {
    fn from(raw: u16) -> Self {
        ParticipantId(raw)
    }
}

/// A global sequence number in the total order.
///
/// Sequence numbers start at 1; `Seq::ZERO` means "nothing yet". The token's
/// `seq` field holds the *last assigned* sequence number, so a participant
/// receiving the token may stamp its new messages starting at
/// `token.seq.next()`.
///
/// # Examples
///
/// ```
/// use accelring_core::Seq;
/// let s = Seq::new(5);
/// assert_eq!(s.next(), Seq::new(6));
/// assert!(Seq::ZERO < s);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Seq(u64);

impl Seq {
    /// The zero sequence number ("no message").
    pub const ZERO: Seq = Seq(0);

    /// Creates a sequence number from a raw counter value.
    pub const fn new(raw: u64) -> Self {
        Seq(raw)
    }

    /// Returns the raw counter value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the following sequence number.
    pub const fn next(self) -> Seq {
        Seq(self.0 + 1)
    }

    /// Returns this sequence number advanced by `n`.
    pub const fn advance(self, n: u64) -> Seq {
        Seq(self.0 + n)
    }

    /// Returns the number of sequence numbers in `(self, hi]`, or zero if
    /// `hi <= self`.
    pub const fn gap_to(self, hi: Seq) -> u64 {
        hi.0.saturating_sub(self.0)
    }
}

impl fmt::Display for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for Seq {
    fn from(raw: u64) -> Self {
        Seq(raw)
    }
}

/// A token round: one rotation of the token around the current ring.
///
/// The participant at ring position 0 starts each rotation at
/// `max(round + 1, now)`, with `now` the caller's clock in microseconds, so
/// every message initiated during one rotation carries the same round and
/// rounds rise strictly once per rotation. That is what the token-priority
/// policies of the Accelerated Ring protocol compare (Section III-D of the
/// paper). On a clocked runtime the round is also the time the rotation
/// began, which the multi-ring merge orders by; a runtime without a clock
/// passes 0 and rounds count rotations.
///
/// # Examples
///
/// ```
/// use accelring_core::Round;
/// let r = Round::new(7);
/// assert_eq!(r.next(), Round::new(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Round(u64);

impl Round {
    /// Round zero (before the first rotation).
    pub const ZERO: Round = Round(0);

    /// Creates a round from its raw value.
    pub const fn new(raw: u64) -> Self {
        Round(raw)
    }

    /// Returns the raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the following round.
    pub const fn next(self) -> Round {
        Round(self.0 + 1)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u64> for Round {
    fn from(raw: u64) -> Self {
        Round(raw)
    }
}

/// Identifier of a ring configuration, produced by the membership algorithm.
///
/// A ring id is the pair of the representative's participant id (the lowest
/// id in the membership, by convention) and a monotonically increasing
/// configuration counter, exactly as in Totem. Messages and tokens from old
/// configurations are recognized and discarded by comparing ring ids.
///
/// # Examples
///
/// ```
/// use accelring_core::{ParticipantId, RingId};
/// let r1 = RingId::new(ParticipantId::new(0), 4);
/// let r2 = RingId::new(ParticipantId::new(0), 6);
/// assert!(r1 != r2);
/// assert_eq!(r1.counter(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RingId {
    rep: ParticipantId,
    counter: u64,
}

impl RingId {
    /// Creates a ring id from the representative's id and the configuration
    /// counter.
    pub const fn new(rep: ParticipantId, counter: u64) -> Self {
        RingId { rep, counter }
    }

    /// The representative (lowest-id member) of the configuration.
    pub const fn representative(self) -> ParticipantId {
        self.rep
    }

    /// The monotonically increasing configuration counter.
    pub const fn counter(self) -> u64 {
        self.counter
    }

    /// Returns the ring id a merged/changed configuration should use so that
    /// it is strictly newer than both inputs.
    pub fn successor(self, other: RingId, rep: ParticipantId) -> RingId {
        RingId {
            rep,
            counter: self.counter.max(other.counter) + 4,
        }
    }
}

impl fmt::Display for RingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ring({}, {})", self.rep, self.counter)
    }
}

/// The delivery service requested for a message, in increasing order of
/// strength.
///
/// The paper (Section II) evaluates Agreed and Safe delivery; FIFO and
/// Causal messages are carried in the same total order and therefore have
/// the same latency profile as Agreed delivery, which is why the protocol
/// treats everything below [`Service::Safe`] identically at delivery time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Service {
    /// Reliable delivery with no ordering guarantee beyond the total order
    /// the ring provides anyway.
    Reliable,
    /// FIFO-by-sender delivery.
    Fifo,
    /// Causally ordered delivery.
    Causal,
    /// Totally ordered delivery: all members of a configuration deliver
    /// messages in the same order, respecting causality.
    #[default]
    Agreed,
    /// Agreed delivery plus stability: a message is delivered only once
    /// every member of the configuration is known to have received it.
    Safe,
}

impl Service {
    /// Whether this service requires stability (all members received the
    /// message) before delivery.
    pub const fn requires_stability(self) -> bool {
        matches!(self, Service::Safe)
    }

    /// Encodes the service level as a wire byte.
    pub const fn as_u8(self) -> u8 {
        match self {
            Service::Reliable => 0,
            Service::Fifo => 1,
            Service::Causal => 2,
            Service::Agreed => 3,
            Service::Safe => 4,
        }
    }

    /// Decodes a wire byte into a service level.
    pub const fn from_u8(raw: u8) -> Option<Service> {
        match raw {
            0 => Some(Service::Reliable),
            1 => Some(Service::Fifo),
            2 => Some(Service::Causal),
            3 => Some(Service::Agreed),
            4 => Some(Service::Safe),
            _ => None,
        }
    }
}

impl fmt::Display for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Service::Reliable => "reliable",
            Service::Fifo => "fifo",
            Service::Causal => "causal",
            Service::Agreed => "agreed",
            Service::Safe => "safe",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn participant_id_roundtrip_and_display() {
        let p = ParticipantId::new(42);
        assert_eq!(p.as_u16(), 42);
        assert_eq!(p.as_usize(), 42);
        assert_eq!(p.to_string(), "P42");
        assert_eq!(ParticipantId::from(42u16), p);
    }

    #[test]
    fn seq_next_and_advance() {
        let s = Seq::new(10);
        assert_eq!(s.next(), Seq::new(11));
        assert_eq!(s.advance(5), Seq::new(15));
        assert_eq!(Seq::ZERO.as_u64(), 0);
        assert_eq!(s.to_string(), "#10");
    }

    #[test]
    fn seq_gap_to() {
        assert_eq!(Seq::new(3).gap_to(Seq::new(8)), 5);
        assert_eq!(Seq::new(8).gap_to(Seq::new(3)), 0);
        assert_eq!(Seq::new(8).gap_to(Seq::new(8)), 0);
    }

    #[test]
    fn seq_ordering() {
        assert!(Seq::new(1) < Seq::new(2));
        assert!(Seq::ZERO < Seq::new(1));
    }

    #[test]
    fn round_next() {
        assert_eq!(Round::ZERO.next(), Round::new(1));
        assert_eq!(Round::new(9).to_string(), "r9");
    }

    #[test]
    fn ring_id_successor_is_newer_than_both() {
        let a = RingId::new(ParticipantId::new(0), 10);
        let b = RingId::new(ParticipantId::new(2), 13);
        let s = a.successor(b, ParticipantId::new(0));
        assert!(s.counter() > a.counter());
        assert!(s.counter() > b.counter());
        assert_eq!(s.representative(), ParticipantId::new(0));
    }

    #[test]
    fn service_wire_roundtrip() {
        for s in [
            Service::Reliable,
            Service::Fifo,
            Service::Causal,
            Service::Agreed,
            Service::Safe,
        ] {
            assert_eq!(Service::from_u8(s.as_u8()), Some(s));
        }
        assert_eq!(Service::from_u8(200), None);
    }

    #[test]
    fn service_stability() {
        assert!(Service::Safe.requires_stability());
        assert!(!Service::Agreed.requires_stability());
        assert!(!Service::Fifo.requires_stability());
    }

    #[test]
    fn service_ordering_by_strength() {
        assert!(Service::Reliable < Service::Fifo);
        assert!(Service::Fifo < Service::Causal);
        assert!(Service::Causal < Service::Agreed);
        assert!(Service::Agreed < Service::Safe);
    }

    #[test]
    fn display_is_never_empty() {
        assert!(!ParticipantId::default().to_string().is_empty());
        assert!(!Seq::default().to_string().is_empty());
        assert!(!Round::default().to_string().is_empty());
        assert!(!RingId::default().to_string().is_empty());
        assert!(!Service::default().to_string().is_empty());
    }
}
