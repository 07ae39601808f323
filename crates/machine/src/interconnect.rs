//! Runtime interconnect fabrics for the DP–DP and IP–IP relations.
//!
//! The taxonomy's switch kinds become routing rules here: `none` denies all
//! transfers, a full crossbar routes anything, and a *windowed* fabric
//! (DRRA's 3-hop / 14-element neighbourhood, written `nx14` in Table III)
//! routes only within a distance bound.  Message passing itself is modelled
//! with per-channel mailboxes.

use std::collections::VecDeque;

use crate::error::MachineError;
use crate::fault::FaultPlan;
use crate::isa::Word;

/// The runtime topology of one fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricTopology {
    /// No switch on this relation: every transfer is denied.
    None,
    /// Full crossbar: any processor reaches any other.
    Crossbar,
    /// Windowed (limited) crossbar: `|from - to| <= hops`, and not self.
    Window {
        /// Maximum hop distance.
        hops: usize,
    },
    /// Nearest-neighbour ring: `|from - to| == 1` modulo `n`.
    Ring,
}

impl FabricTopology {
    /// Can `from` reach `to` in a fabric of `n` endpoints?
    pub fn routable(&self, from: usize, to: usize, n: usize) -> bool {
        if from >= n || to >= n || from == to {
            return false;
        }
        match *self {
            FabricTopology::None => false,
            FabricTopology::Crossbar => true,
            FabricTopology::Window { hops } => from.abs_diff(to) <= hops,
            FabricTopology::Ring => {
                let d = from.abs_diff(to);
                d == 1 || d == n - 1
            }
        }
    }

    /// Check a route, returning a typed error when denied.
    pub fn route(&self, from: usize, to: usize, n: usize) -> Result<(), MachineError> {
        if self.routable(from, to, n) {
            Ok(())
        } else {
            let reason = match *self {
                FabricTopology::None => "no switch on this relation".to_owned(),
                FabricTopology::Crossbar => {
                    format!("endpoint out of range (n = {n}) or self-transfer")
                }
                FabricTopology::Window { hops } => {
                    format!("destination outside the {hops}-hop window")
                }
                FabricTopology::Ring => "destination is not a ring neighbour".to_owned(),
            };
            Err(MachineError::RouteDenied { from, to, reason })
        }
    }

    /// Configuration bits this fabric needs for `n` endpoints (consistent
    /// with the `skilltax-estimate` mux model: every sink selects among its
    /// reachable sources).
    pub fn config_bits(&self, n: usize) -> u64 {
        let clog2 = |x: u64| -> u64 {
            if x <= 1 {
                0
            } else {
                u64::from(64 - (x - 1).leading_zeros())
            }
        };
        let n64 = n as u64;
        match *self {
            FabricTopology::None => 0,
            FabricTopology::Crossbar => n64 * clog2(n64 + 1),
            FabricTopology::Window { hops } => {
                let window = (2 * hops as u64).min(n64.saturating_sub(1));
                n64 * clog2(window + 1)
            }
            FabricTopology::Ring => n64, // one bit per node: listen left/right
        }
    }
}

/// Per-channel FIFO mailboxes for message transfers over a fabric.
///
/// When a [`FaultPlan`] is installed (via [`Mailboxes::with_faults`]) the
/// send path is subject to injected link outages ([`MachineError::LinkDown`]),
/// silent message drops and payload corruption; the owning machine advances
/// the plan's notion of time with [`Mailboxes::set_cycle`].
///
/// Only the channels a run uses are stored: a channel is created by the
/// first message sent on it and every other channel reads as empty, so
/// a machine pays for the channels its programs use — a ring of `n`
/// cores for `n` of them — and a machine that never sends pays nothing
/// for its fabric.
#[derive(Debug, Clone)]
pub struct Mailboxes {
    n: usize,
    topology: FabricTopology,
    /// Channel keys `from * n + to` of the channels used so far, ascending;
    /// `queues[i]` is the FIFO of channel `keys[i]`.
    keys: Vec<usize>,
    queues: Vec<VecDeque<Word>>,
    non_empty: usize, // channels with at least one queued message
    delivered: u64,
    faults: Option<FaultPlan>,
    cycle: u64,
}

impl Mailboxes {
    /// Mailboxes for `n` endpoints over `topology`.
    pub fn new(n: usize, topology: FabricTopology) -> Mailboxes {
        Mailboxes {
            n,
            topology,
            keys: Vec::new(),
            queues: Vec::new(),
            non_empty: 0,
            delivered: 0,
            faults: None,
            cycle: 0,
        }
    }

    /// Install a fault plan on the send path.
    pub fn with_faults(mut self, plan: FaultPlan) -> Mailboxes {
        self.faults = Some(plan);
        self
    }

    /// Install (or replace) a fault plan in place.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Tell the fault plan what cycle it is (for link-outage windows).
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Faults the installed plan has injected on this fabric so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, FaultPlan::injected)
    }

    /// The fabric topology.
    pub fn topology(&self) -> FabricTopology {
        self.topology
    }

    /// Send `value` from `from` to `to` (fails if the fabric denies the
    /// route, or with [`MachineError::LinkDown`] when an injected outage
    /// covers the link this cycle; an injected drop silently loses the
    /// message, and injected corruption flips one payload bit).
    pub fn send(&mut self, from: usize, to: usize, value: Word) -> Result<(), MachineError> {
        self.topology.route(from, to, self.n)?;
        let mut value = value;
        if let Some(plan) = self.faults.as_mut() {
            if plan.link_down(self.cycle, from, to) {
                return Err(MachineError::LinkDown {
                    from,
                    to,
                    cycle: self.cycle,
                });
            }
            if plan.should_drop() {
                return Ok(()); // lost in flight; the receiver keeps waiting
            }
            value = plan.corrupt(value);
        }
        let queue = self.channel_mut(from, to);
        queue.push_back(value);
        if queue.len() == 1 {
            self.non_empty += 1;
        }
        Ok(())
    }

    /// The slot of channel `from -> to`, if it has been used.
    #[inline]
    fn slot(&self, from: usize, to: usize) -> Result<usize, usize> {
        self.keys.binary_search(&(from * self.n + to))
    }

    /// The channel `from -> to`, creating it on first use.
    fn channel_mut(&mut self, from: usize, to: usize) -> &mut VecDeque<Word> {
        let at = match self.slot(from, to) {
            Ok(at) => at,
            Err(at) => {
                self.keys.insert(at, from * self.n + to);
                self.queues.insert(at, VecDeque::new());
                at
            }
        };
        &mut self.queues[at]
    }

    /// Receive at `to` from `from`: `Ok(None)` means the route is legal but
    /// no value has arrived yet (the caller stalls).
    pub fn recv(&mut self, to: usize, from: usize) -> Result<Option<Word>, MachineError> {
        self.topology.route(from, to, self.n)?;
        let Ok(at) = self.slot(from, to) else {
            return Ok(None);
        };
        let queue = &mut self.queues[at];
        let v = queue.pop_front();
        if v.is_some() {
            self.delivered += 1;
            if queue.is_empty() {
                self.non_empty -= 1;
            }
        }
        Ok(v)
    }

    /// Messages actually delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Are any messages still in flight?  O(1): the non-empty-channel
    /// count is maintained incrementally by `send`/`recv`.
    pub fn any_pending(&self) -> bool {
        debug_assert_eq!(
            self.non_empty > 0,
            self.queues.iter().any(|q| !q.is_empty()),
            "incremental non-empty count diverged from the channel scan"
        );
        self.non_empty > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_denies_everything() {
        let t = FabricTopology::None;
        assert!(!t.routable(0, 1, 4));
        assert!(t.route(0, 1, 4).is_err());
        assert_eq!(t.config_bits(16), 0);
    }

    #[test]
    fn crossbar_routes_everything_but_self() {
        let t = FabricTopology::Crossbar;
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(t.routable(a, b, 4), a != b);
            }
        }
        assert!(!t.routable(0, 9, 4));
    }

    #[test]
    fn window_respects_hop_distance() {
        // DRRA: 3 hops left or right.
        let t = FabricTopology::Window { hops: 3 };
        assert!(t.routable(5, 8, 16));
        assert!(t.routable(5, 2, 16));
        assert!(!t.routable(5, 9, 16));
        assert!(!t.routable(0, 4, 16));
        assert!(t.route(0, 4, 16).is_err());
    }

    #[test]
    fn ring_wraps_around() {
        let t = FabricTopology::Ring;
        assert!(t.routable(0, 1, 8));
        assert!(t.routable(0, 7, 8));
        assert!(!t.routable(0, 2, 8));
    }

    #[test]
    fn config_bits_ordering_full_beats_window_beats_ring() {
        let n = 64;
        let full = FabricTopology::Crossbar.config_bits(n);
        let window = FabricTopology::Window { hops: 3 }.config_bits(n);
        let ring = FabricTopology::Ring.config_bits(n);
        assert!(full > window, "{full} vs {window}");
        assert!(window > ring, "{window} vs {ring}");
    }

    #[test]
    fn mailboxes_deliver_fifo() {
        let mut mb = Mailboxes::new(4, FabricTopology::Crossbar);
        mb.send(0, 2, 10).unwrap();
        mb.send(0, 2, 20).unwrap();
        assert_eq!(mb.recv(2, 0).unwrap(), Some(10));
        assert_eq!(mb.recv(2, 0).unwrap(), Some(20));
        assert_eq!(mb.recv(2, 0).unwrap(), None); // legal route, no data
        assert_eq!(mb.delivered(), 2);
        assert!(!mb.any_pending());
    }

    #[test]
    fn mailboxes_enforce_topology() {
        let mut mb = Mailboxes::new(8, FabricTopology::Window { hops: 1 });
        assert!(mb.send(0, 5, 1).is_err());
        assert!(mb.send(0, 1, 1).is_ok());
        assert!(mb.recv(5, 0).is_err());
    }

    #[test]
    fn injected_outage_turns_send_into_link_down() {
        use crate::fault::{FaultPlan, LinkOutage};
        let plan = FaultPlan::seeded(1).fail_link(LinkOutage {
            from: 0,
            to: 1,
            from_cycle: 0,
            until_cycle: 10,
        });
        let mut mb = Mailboxes::new(4, FabricTopology::Crossbar).with_faults(plan);
        mb.set_cycle(5);
        assert_eq!(
            mb.send(0, 1, 7),
            Err(MachineError::LinkDown {
                from: 0,
                to: 1,
                cycle: 5
            })
        );
        // Other links are unaffected, and the outage window ends.
        assert!(mb.send(2, 1, 7).is_ok());
        mb.set_cycle(11);
        assert!(mb.send(0, 1, 7).is_ok());
        assert_eq!(mb.faults_injected(), 1);
    }

    #[test]
    fn injected_drops_lose_messages_silently() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::seeded(2).drop_messages(1.0);
        let mut mb = Mailboxes::new(2, FabricTopology::Crossbar).with_faults(plan);
        mb.send(0, 1, 42).unwrap();
        assert_eq!(mb.recv(1, 0).unwrap(), None);
        assert!(mb.faults_injected() >= 1);
    }

    #[test]
    fn injected_corruption_flips_one_payload_bit() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::seeded(3).corrupt_messages(1.0);
        let mut mb = Mailboxes::new(2, FabricTopology::Crossbar).with_faults(plan);
        mb.send(0, 1, 0).unwrap();
        let got = mb.recv(1, 0).unwrap().unwrap();
        assert_eq!(got.count_ones(), 1, "exactly one bit flipped: {got:#x}");
    }

    #[test]
    fn any_pending_tracks_interleaved_sends_and_recvs() {
        let mut mb = Mailboxes::new(3, FabricTopology::Crossbar);
        assert!(!mb.any_pending());
        mb.send(0, 1, 1).unwrap();
        mb.send(0, 1, 2).unwrap();
        mb.send(2, 1, 3).unwrap();
        assert!(mb.any_pending());
        assert_eq!(mb.recv(1, 0).unwrap(), Some(1));
        assert!(mb.any_pending(), "one channel drained, one still loaded");
        assert_eq!(mb.recv(1, 0).unwrap(), Some(2));
        assert!(mb.any_pending());
        assert_eq!(mb.recv(1, 2).unwrap(), Some(3));
        assert!(!mb.any_pending());
        assert_eq!(mb.recv(1, 2).unwrap(), None);
        assert!(!mb.any_pending());
    }

    #[test]
    fn the_channel_table_is_built_by_the_first_message() {
        let mut mb = Mailboxes::new(4, FabricTopology::Crossbar);
        assert_eq!(mb.recv(1, 0).unwrap(), None);
        assert!(!mb.any_pending());
        mb.send(0, 1, 5).unwrap();
        assert!(mb.any_pending());
        assert_eq!(mb.recv(1, 0).unwrap(), Some(5));
        assert!(!mb.any_pending());
    }

    #[test]
    fn channels_are_independent() {
        let mut mb = Mailboxes::new(3, FabricTopology::Crossbar);
        mb.send(0, 1, 7).unwrap();
        mb.send(2, 1, 8).unwrap();
        assert_eq!(mb.recv(1, 2).unwrap(), Some(8));
        assert_eq!(mb.recv(1, 0).unwrap(), Some(7));
    }
}
