//! The discrete-event simulation engine.
//!
//! The engine is generic over the application's message type `M` and an
//! [`App`] implementation that reacts to message deliveries and timers. All
//! the service actors (multimedia servers, media servers, browsers) are
//! driven through these two callbacks, so an entire client–server session is
//! one deterministic, seedable event sequence.
//!
//! Two transports are provided, matching the paper's protocol stack
//! (Fig. 5):
//!
//! * **datagram** (`UDP`-like) — packets individually subject to the link
//!   loss/jitter models; used by RTP media flows;
//! * **reliable** (`TCP`-like) — lost packets are retransmitted after an
//!   RTO with exponential backoff, and delivery to the application is
//!   in-order per (source, destination) pair; used for scenarios, discrete
//!   media and control traffic.
//!
//! Packets are forwarded store-and-forward hop by hop: every hop looks up
//! the next node in the static routing table, so queueing interacts
//! correctly between flows sharing a link and a message carries no route.

use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::topology::{LinkIx, LinkOutcome, Network};
use hermes_core::{MediaDuration, MediaTime, NodeId};
use hermes_obs::causality::{CauseCtx, HopKind, HopRecord};
use hermes_obs::{Labels, Obs, Severity, SpanId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Anything sent through the network must report its wire size.
pub trait WireSize {
    /// Serialized size in bytes (headers included).
    fn wire_size(&self) -> usize;
}

/// The application driven by the simulator.
pub trait App<M>: Sized {
    /// A message arrived at `node` from `from`.
    fn on_message(&mut self, api: &mut SimApi<'_, M>, node: NodeId, from: NodeId, msg: M);
    /// A timer set with [`SimApi::set_timer`] fired at `node`.
    fn on_timer(&mut self, api: &mut SimApi<'_, M>, node: NodeId, key: u64, payload: u64);
    /// An injected fault was just applied to the engine (see [`FaultKind`]).
    /// Crash faults should clear the application's volatile state for the
    /// node; restart faults may rebuild it. Default: ignore faults.
    fn on_fault(&mut self, api: &mut SimApi<'_, M>, event: FaultEvent) {
        let _ = (api, event);
    }
}

/// Which transport a message used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Lossy datagram service.
    Datagram,
    /// Retransmitting, in-order stream service.
    Reliable,
}

/// A unicast packet in flight, sitting at `here` on its way to `dst`.
struct Packet<M> {
    here: NodeId,
    dst: NodeId,
    from: NodeId,
    msg: M,
    attempt: u32,
    sent_at: MediaTime,
    /// Reliable-stream sequence number; `None` marks a datagram.
    seq_no: Option<u64>,
    /// Incarnation of the sending node's stack when the send started:
    /// retransmission chains die with the incarnation that created them.
    src_inc: u64,
    /// Causal context the message carries across hops.
    cause: CauseCtx,
}

/// A multicast copy sitting at `here`, bound for the subtree of group
/// members in `targets`. At each hop the copy fans out with ONE link
/// transmission per distinct egress link, so a shared flow costs a single
/// copy on every trunk it crosses regardless of receiver count.
struct McastCopy<M> {
    group: u64,
    here: NodeId,
    targets: Vec<NodeId>,
    from: NodeId,
    msg: M,
    /// Incarnation of the sending node when the send started.
    src_inc: u64,
    /// Causal context the multicast copy carries.
    cause: CauseCtx,
    /// Original send time.
    sent_at: MediaTime,
}

enum Pending<M> {
    /// A unicast packet about to cross its next link.
    Hop(Packet<M>),
    /// A multicast copy about to fan out from its current node.
    McastHop(McastCopy<M>),
    /// Final delivery to the application.
    Deliver {
        node: NodeId,
        from: NodeId,
        msg: M,
        /// Incarnation of the destination at scheduling time: a delivery
        /// addressed to a crashed (or since-restarted) process is discarded.
        inc: u64,
        /// Causal context; adopted as the ambient cause while the handler
        /// runs, so everything the handler sends inherits it.
        cause: CauseCtx,
        /// Original send time (provenance: in-flight latency at delivery).
        sent_at: MediaTime,
    },
    /// A timer.
    Timer {
        node: NodeId,
        key: u64,
        payload: u64,
        /// Incarnation of the node when the timer was set.
        inc: u64,
        /// Causal context captured when the timer was set — timer-driven
        /// work stays attributed to the request chain that scheduled it.
        cause: CauseCtx,
    },
    /// An injected fault to apply.
    Fault(FaultKind),
}

/// Engine-level delivery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to the application.
    pub delivered: u64,
    /// Datagrams dropped in flight (loss or queue overflow).
    pub datagrams_dropped: u64,
    /// Reliable retransmission attempts performed.
    pub retransmissions: u64,
    /// Reliable messages abandoned after exhausting retries.
    pub reliable_failures: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Injected faults applied.
    pub faults_applied: u64,
    /// Deliveries, timers and retransmissions discarded because the node
    /// involved was crashed (or had restarted into a new incarnation).
    pub fault_drops: u64,
    /// Multicast sends initiated with [`SimApi::send_mcast`].
    pub mcast_sends: u64,
    /// Copies of multicast messages placed on links (one per distinct
    /// egress link per hop — the wire cost of the shared flows).
    pub mcast_link_copies: u64,
    /// Multicast copies that reached a group member's node.
    pub mcast_deliveries: u64,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Base retransmission timeout for the reliable transport.
    pub rto: MediaDuration,
    /// Maximum reliable transmission attempts (1 = no retries).
    pub max_attempts: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            rto: MediaDuration::from_millis(200),
            max_attempts: 8,
        }
    }
}

/// A reliable segment parked at the receiver: (message, causal context,
/// original send time).
type Segment<M> = (M, CauseCtx, MediaTime);

/// Transport state of one reliable (src, dst) channel, sender and receiver
/// side together.
struct ReliableChannel<M> {
    /// Next sequence number the sender assigns.
    tx: u64,
    /// Next sequence number the receiver releases.
    rx: u64,
    /// Out-of-order arrivals held back until their predecessors land.
    held: BTreeMap<u64, Segment<M>>,
    /// Monotone delivery clock: per-packet jitter must not reorder
    /// deliveries that the sequence gate already released.
    release: MediaTime,
    /// Sequence numbers the sender abandoned (retry budget exhausted): the
    /// release gate skips them instead of wedging.
    abandoned: BTreeSet<u64>,
}

impl<M> Default for ReliableChannel<M> {
    fn default() -> Self {
        ReliableChannel {
            tx: 0,
            rx: 0,
            held: BTreeMap::new(),
            release: MediaTime::ZERO,
            abandoned: BTreeSet::new(),
        }
    }
}

impl<M> ReliableChannel<M> {
    /// Skip abandoned sequence numbers, then take the held segment that is
    /// next in order, if it has arrived.
    fn pop_ready(&mut self) -> Option<Segment<M>> {
        while self.abandoned.remove(&self.rx) {
            self.rx += 1;
        }
        let ready = self.held.remove(&self.rx)?;
        self.rx += 1;
        Some(ready)
    }

    /// Delivery instant for a segment released at `arrival`: strictly after
    /// every earlier release on this channel.
    fn release_at(&mut self, arrival: MediaTime) -> MediaTime {
        self.release = arrival.max(self.release + MediaDuration::from_micros(1));
        self.release
    }

    /// Connection reset: outstanding sequence numbers are given up on both
    /// sides, and the held segments die with the connection. Returns how
    /// many held segments were dropped.
    fn reset(&mut self) -> usize {
        self.rx = self.rx.max(self.tx);
        self.abandoned.clear();
        let dropped = self.held.len();
        self.held.clear();
        dropped
    }
}

struct Core<M> {
    now: MediaTime,
    queue: EventQueue<Pending<M>>,
    net: Network,
    rng: SimRng,
    cfg: SimConfig,
    stats: SimStats,
    /// One record per reliable (src, dst) channel.
    channels: HashMap<(NodeId, NodeId), ReliableChannel<M>>,
    /// Crashed flag per network node slot.
    dead: Vec<bool>,
    /// Process incarnation per network node slot (bumped on restart).
    incarnation: Vec<u64>,
    /// Multicast group membership, managed by the sim: group id → members.
    mcast_groups: BTreeMap<u64, BTreeSet<NodeId>>,
    /// Scratch buffer of the multicast fan-out: (next hop, link, target).
    fanout: Vec<(NodeId, LinkIx, NodeId)>,
    /// The observability capture for the run (tracing, spans, metrics,
    /// flight recorder) — events record through [`SimApi`] so every record
    /// is stamped with the engine clock.
    obs: Obs,
    /// The ambient causal context: set from the delivered envelope before
    /// each `on_message`/`on_timer` dispatch, so everything a handler
    /// sends or schedules inherits the request chain it serves.
    current_cause: CauseCtx,
    /// Next causal sequence number (assigned per message at send time).
    cause_seq: u32,
    /// Protocol-level message classifier for provenance records. The
    /// engine is generic over `M`, so the service layer registers its
    /// classifier as a plain fn pointer (default: every message is "msg").
    kind_of: fn(&M) -> &'static str,
}

impl<M: WireSize + Clone> Core<M> {
    /// Current incarnation of a node's process (0 before any restart).
    #[inline]
    fn inc(&self, node: NodeId) -> u64 {
        self.net
            .slot(node)
            .and_then(|s| self.incarnation.get(s))
            .copied()
            .unwrap_or(0)
    }

    /// True while an injected crash holds the node down.
    #[inline]
    fn is_dead(&self, node: NodeId) -> bool {
        self.net
            .slot(node)
            .and_then(|s| self.dead.get(s))
            .is_some_and(|&d| d)
    }

    /// True when `node` is up and still running incarnation `inc`: work
    /// stamped with an older incarnation died with it.
    #[inline]
    fn is_current(&self, node: NodeId, inc: u64) -> bool {
        !self.is_dead(node) && self.inc(node) == inc
    }

    /// The liveness slot of a network node, growing the liveness tables
    /// for nodes added after the engine was built. `None` for an id that
    /// is not a network node: it has no liveness to change.
    fn life_slot(&mut self, node: NodeId) -> Option<usize> {
        let s = self.net.slot(node)?;
        if s >= self.dead.len() {
            self.dead.resize(s + 1, false);
            self.incarnation.resize(s + 1, 0);
        }
        Some(s)
    }

    /// Stamp a fresh per-message causal context: the ambient root plus the
    /// next causal sequence number.
    #[inline]
    fn next_cause(&mut self) -> CauseCtx {
        let c = CauseCtx {
            root: self.current_cause.root,
            seq: self.cause_seq,
        };
        self.cause_seq = self.cause_seq.wrapping_add(1);
        c
    }

    /// Record a per-hop provenance record (no-op when tracing is off —
    /// with the `trace` feature compiled out this whole call folds away).
    #[inline]
    fn record_hop(
        &mut self,
        kind: HopKind,
        from: NodeId,
        to: NodeId,
        cause: CauseCtx,
        msg_kind: &'static str,
        value: i64,
    ) {
        if !self.obs.on() {
            return;
        }
        let at = self.now;
        self.obs.record_hop(HopRecord {
            at,
            kind,
            from: from.raw(),
            to: to.raw(),
            cause,
            msg_kind,
            value,
        });
    }

    /// The reliable channel from `src` to `dst`, created on first use.
    fn channel(&mut self, src: NodeId, dst: NodeId) -> &mut ReliableChannel<M> {
        self.channels.entry((src, dst)).or_default()
    }

    /// Schedule a reliable delivery no earlier than every previously
    /// released delivery of the same (src, dst) pair.
    fn schedule_reliable_delivery(
        &mut self,
        from: NodeId,
        dst: NodeId,
        arrival: MediaTime,
        (msg, cause, sent_at): Segment<M>,
    ) {
        let at = self.channel(from, dst).release_at(arrival);
        let inc = self.inc(dst);
        self.schedule(
            at,
            Pending::Deliver {
                node: dst,
                from,
                msg,
                inc,
                cause,
                sent_at,
            },
        );
    }

    /// Release everything now deliverable on a reliable pair: flush held
    /// successors of the expected sequence number and skip sequence numbers
    /// the sender abandoned, repeatedly, until the gate blocks again.
    fn advance_reliable_gate(&mut self, from: NodeId, dst: NodeId, arrival: MediaTime) {
        while let Some(segment) = self.channel(from, dst).pop_ready() {
            self.schedule_reliable_delivery(from, dst, arrival, segment);
        }
    }

    /// Tear down engine-level reliable-channel state involving a crashed
    /// node: outstanding sequence numbers are abandoned on both sides so
    /// surviving peers' gates cannot wedge on segments that died with the
    /// process (connection-reset semantics).
    fn teardown_reliable_channels(&mut self, node: NodeId) {
        // Channels reset independently, so the map's order does not matter.
        for (&(a, b), ch) in self.channels.iter_mut() {
            if a == node || b == node {
                // Segments already delivered to the transport but parked
                // behind the in-order gate die with the connection: account
                // them as fault drops so conservation audits (sent =
                // delivered + dropped + fault_drops) keep balancing.
                self.stats.fault_drops += ch.reset() as u64;
            }
        }
    }

    /// Apply one injected fault to the engine state.
    fn apply_fault(&mut self, kind: FaultKind) {
        self.stats.faults_applied += 1;
        let now = self.now;
        match kind {
            FaultKind::NodeCrash { node } => {
                if let Some(s) = self.life_slot(node) {
                    self.dead[s] = true;
                }
                self.teardown_reliable_channels(node);
                self.obs
                    .emit(now, node.raw(), Severity::Error, "node_crash", Labels::NONE);
            }
            FaultKind::NodeRestart { node } => {
                if let Some(s) = self.life_slot(node) {
                    self.dead[s] = false;
                    self.incarnation[s] += 1;
                }
                self.obs.emit(
                    now,
                    node.raw(),
                    Severity::Warn,
                    "node_restart",
                    Labels::NONE,
                );
            }
            FaultKind::LinkDown { a, b } => {
                self.net.set_link_up(a, b, false);
                self.obs.emit(
                    now,
                    a.raw(),
                    Severity::Warn,
                    "link_down",
                    Labels::for_peer(b.raw()),
                );
            }
            FaultKind::LinkUp { a, b } => {
                self.net.set_link_up(a, b, true);
                self.obs.emit(
                    now,
                    a.raw(),
                    Severity::Info,
                    "link_up",
                    Labels::for_peer(b.raw()),
                );
            }
            FaultKind::NodeSlow { node, .. } => {
                // Brownouts change no engine state: the node keeps receiving
                // and its timers keep firing. The application layer sees the
                // fault via `App::on_fault` and inflates its service times.
                self.obs
                    .emit(now, node.raw(), Severity::Warn, "node_slow", Labels::NONE);
            }
            FaultKind::NodeNominal { node } => {
                self.obs.emit(
                    now,
                    node.raw(),
                    Severity::Info,
                    "node_nominal",
                    Labels::NONE,
                );
            }
        }
    }

    fn schedule(&mut self, at: MediaTime, pending: Pending<M>) {
        self.queue.push(at, pending);
    }

    fn start_send(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        transport: Transport,
        attempt: u32,
    ) -> bool {
        if self.is_dead(from) {
            // A crashed process cannot transmit.
            return false;
        }
        let cause = self.next_cause();
        let msg_kind = (self.kind_of)(&msg);
        self.record_hop(HopKind::Enqueue, from, to, cause, msg_kind, 0);
        if from == to {
            // Local delivery: still asynchronous (next event), zero delay.
            let now = self.now;
            let inc = self.inc(to);
            self.schedule(
                now,
                Pending::Deliver {
                    node: to,
                    from,
                    msg,
                    inc,
                    cause,
                    sent_at: now,
                },
            );
            return true;
        }
        if self.net.route(from, to).is_none() {
            return false;
        }
        let seq_no = match transport {
            Transport::Datagram => None,
            Transport::Reliable => {
                let ch = self.channel(from, to);
                ch.tx += 1;
                Some(ch.tx - 1)
            }
        };
        let now = self.now;
        let src_inc = self.inc(from);
        self.schedule(
            now,
            Pending::Hop(Packet {
                here: from,
                dst: to,
                from,
                msg,
                attempt,
                sent_at: now,
                seq_no,
                src_inc,
                cause,
            }),
        );
        true
    }

    /// Start a multicast send: one logical message toward every current
    /// member of `group` except the sender. Returns the number of member
    /// nodes targeted (0 when the sender is dead or the group is empty).
    fn start_send_mcast(&mut self, from: NodeId, group: u64, msg: M) -> usize {
        if self.is_dead(from) {
            return 0;
        }
        let Some(members) = self.mcast_groups.get(&group) else {
            return 0;
        };
        let targets: Vec<NodeId> = members.iter().copied().filter(|&t| t != from).collect();
        if targets.is_empty() {
            return 0;
        }
        self.stats.mcast_sends += 1;
        let now = self.now;
        let src_inc = self.inc(from);
        let count = targets.len();
        let cause = self.next_cause();
        let msg_kind = (self.kind_of)(&msg);
        self.record_hop(HopKind::Enqueue, from, from, cause, msg_kind, count as i64);
        self.schedule(
            now,
            Pending::McastHop(McastCopy {
                group,
                here: from,
                targets,
                from,
                msg,
                src_inc,
                cause,
                sent_at: now,
            }),
        );
        count
    }

    /// Forward one multicast copy from `here` toward its target subtree:
    /// deliver locally to members at this node, then group the remaining
    /// targets by routing next hop and place ONE copy on each distinct
    /// egress link, in ascending next-hop order. A copy lost on a link
    /// (loss model, queue overflow or a fault-injected partition) takes its
    /// whole subtree with it — datagram semantics, like the unicast RTP
    /// path. Membership is re-read at every hop, so a member leaving
    /// mid-flight stops receiving immediately.
    fn process_mcast_hop(&mut self, copy: McastCopy<M>) {
        let McastCopy {
            group,
            here,
            mut targets,
            from,
            msg,
            src_inc,
            cause,
            sent_at,
        } = copy;
        if !self.is_current(from, src_inc) {
            self.stats.fault_drops += 1;
            return;
        }
        // Drop members that left the group while the copy was in flight.
        let members = self.mcast_groups.get(&group);
        targets.retain(|t| members.is_some_and(|m| m.contains(t)));
        let now = self.now;
        let msg_kind = (self.kind_of)(&msg);
        // (next hop, link to it, target) per routed target, in a scratch
        // buffer reused across hops.
        let mut fan = std::mem::take(&mut self.fanout);
        fan.clear();
        for &t in &targets {
            if t == here {
                let inc = self.inc(t);
                self.stats.mcast_deliveries += 1;
                self.schedule(
                    now,
                    Pending::Deliver {
                        node: t,
                        from,
                        msg: msg.clone(),
                        inc,
                        cause,
                        sent_at,
                    },
                );
            } else if let Some((nh, link)) = self.net.route(here, t) {
                fan.push((nh, link, t));
            } else {
                self.stats.datagrams_dropped += 1; // unroutable member
            }
        }
        // Stable: each subtree keeps the targets' order.
        fan.sort_by_key(|&(nh, _, _)| nh);
        // When every target shares one next hop, the copy moves on with
        // the incoming target list.
        let whole =
            fan.len() == targets.len() && fan.first().map(|e| e.0) == fan.last().map(|e| e.0);
        let size = msg.wire_size();
        for subtree in fan.chunk_by(|a, b| a.0 == b.0) {
            let (nh, link, _) = subtree[0];
            let count = subtree.len() as i64;
            self.stats.mcast_link_copies += 1;
            match self.cross_link(Some(link), size) {
                LinkOutcome::Delivered { arrival } => {
                    self.record_hop(HopKind::McastFanout, here, nh, cause, msg_kind, count);
                    let targets = if whole {
                        std::mem::take(&mut targets)
                    } else {
                        subtree.iter().map(|&(_, _, t)| t).collect()
                    };
                    let copy = McastCopy {
                        group,
                        here: nh,
                        targets,
                        from,
                        msg: msg.clone(),
                        src_inc,
                        cause,
                        sent_at,
                    };
                    self.schedule(arrival, Pending::McastHop(copy));
                }
                LinkOutcome::Lost { .. } | LinkOutcome::QueueFull => {
                    self.stats.datagrams_dropped += count as u64;
                    self.record_hop(HopKind::Loss, here, nh, cause, msg_kind, count);
                }
            }
        }
        self.fanout = fan;
    }

    /// Offer `size` bytes to a link. A missing link behaves as a full
    /// queue.
    fn cross_link(&mut self, link: Option<LinkIx>, size: usize) -> LinkOutcome {
        let now = self.now;
        match link {
            Some(ix) => self.net.link_at_mut(ix).transmit(now, size),
            None => LinkOutcome::QueueFull,
        }
    }

    /// Forward one unicast packet across the link to the routing table's
    /// next hop toward its destination.
    fn process_hop(&mut self, p: Packet<M>) {
        if !self.is_current(p.from, p.src_inc) {
            // The sending process died (or restarted) while this packet or
            // its retransmission chain was in flight: the chain dies too.
            self.stats.fault_drops += 1;
            return;
        }
        // Routes are static and `start_send` checked the first hop, so every
        // node on the way has an entry; without one the packet is offered to
        // the direct link, which drops it when absent.
        let (next, link) = match self.net.route(p.here, p.dst) {
            Some((next, link)) => (next, Some(link)),
            None => (p.dst, self.net.link_index(p.here, p.dst)),
        };
        match self.cross_link(link, p.msg.wire_size()) {
            LinkOutcome::Delivered { arrival } if next != p.dst => {
                self.schedule(arrival, Pending::Hop(Packet { here: next, ..p }));
            }
            LinkOutcome::Delivered { arrival } => self.arrive(arrival, p),
            LinkOutcome::Lost { .. } | LinkOutcome::QueueFull => self.lose(next, p),
        }
    }

    /// A packet reached its destination at `arrival`: hand a datagram to
    /// the application, pass a reliable segment through the in-order gate.
    fn arrive(&mut self, arrival: MediaTime, p: Packet<M>) {
        let Packet {
            dst,
            from,
            msg,
            seq_no,
            cause,
            sent_at,
            ..
        } = p;
        let Some(seq) = seq_no else {
            let inc = self.inc(dst);
            self.schedule(
                arrival,
                Pending::Deliver {
                    node: dst,
                    from,
                    msg,
                    inc,
                    cause,
                    sent_at,
                },
            );
            return;
        };
        // In-order release: deliver if this is the next expected sequence
        // number, then flush any held or abandoned successors; otherwise
        // hold. A sequence number below the gate is a stale duplicate.
        let ch = self.channel(from, dst);
        if seq == ch.rx {
            ch.rx += 1;
            self.schedule_reliable_delivery(from, dst, arrival, (msg, cause, sent_at));
            self.advance_reliable_gate(from, dst, arrival);
        } else if seq > ch.rx {
            ch.held.insert(seq, (msg, cause, sent_at));
        }
    }

    /// A packet was lost crossing `p.here → next`: a datagram is gone; a
    /// reliable segment is retransmitted from the sender with exponential
    /// backoff, or abandoned once its retry budget is spent.
    fn lose(&mut self, next: NodeId, p: Packet<M>) {
        let msg_kind = (self.kind_of)(&p.msg);
        let attempts = p.attempt as i64 + 1;
        self.record_hop(HopKind::Loss, p.here, next, p.cause, msg_kind, attempts - 1);
        let Some(seq) = p.seq_no else {
            self.stats.datagrams_dropped += 1;
            return;
        };
        let (from, dst, now) = (p.from, p.dst, self.now);
        if p.attempt + 1 >= self.cfg.max_attempts {
            self.stats.reliable_failures += 1;
            self.record_hop(HopKind::Abandon, from, dst, p.cause, msg_kind, attempts);
            self.obs.emit_val(
                now,
                from.raw(),
                Severity::Warn,
                "reliable_abandon",
                Labels::for_peer(dst.raw()),
                attempts,
            );
            // Abandoning a sequence number must not wedge the receiver's
            // in-order gate: mark it abandoned so later segments can still
            // be released.
            self.channel(from, dst).abandoned.insert(seq);
            self.advance_reliable_gate(from, dst, now);
        } else {
            self.stats.retransmissions += 1;
            self.record_hop(HopKind::Retransmit, from, dst, p.cause, msg_kind, attempts);
            // Exponential backoff; the retry starts over from the sender.
            let backoff = self.cfg.rto * (1 << p.attempt.min(6)) as i64;
            let retry = Packet {
                here: from,
                attempt: p.attempt + 1,
                ..p
            };
            self.schedule(now + backoff, Pending::Hop(retry));
        }
    }
}

/// The simulator: owns the application, the network and the event queue.
pub struct Sim<M, A> {
    app: A,
    core: Core<M>,
}

/// The capability handle passed to application callbacks.
pub struct SimApi<'a, M> {
    core: &'a mut Core<M>,
}

impl<'a, M: WireSize + Clone> SimApi<'a, M> {
    /// Current simulation time.
    pub fn now(&self) -> MediaTime {
        self.core.now
    }
    /// Send a datagram. Returns false if no route exists.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) -> bool {
        self.core.start_send(from, to, msg, Transport::Datagram, 0)
    }
    /// Send reliably (retransmitted, delivered in order per src/dst pair).
    pub fn send_reliable(&mut self, from: NodeId, to: NodeId, msg: M) -> bool {
        self.core.start_send(from, to, msg, Transport::Reliable, 0)
    }
    /// Send a datagram to every member of a multicast group (except the
    /// sender). The copy fans out along the routing tree with one link
    /// transmission per distinct egress link, so N co-located receivers
    /// cost one copy on the shared trunk. Returns the member count
    /// targeted; 0 when the group is empty or the sender is down.
    pub fn send_mcast(&mut self, from: NodeId, group: u64, msg: M) -> usize {
        self.core.start_send_mcast(from, group, msg)
    }
    /// Add `node` to multicast group `group` (idempotent).
    pub fn mcast_join(&mut self, group: u64, node: NodeId) {
        self.core
            .mcast_groups
            .entry(group)
            .or_default()
            .insert(node);
    }
    /// Remove `node` from `group`; an emptied group is dissolved.
    pub fn mcast_leave(&mut self, group: u64, node: NodeId) {
        if let Some(members) = self.core.mcast_groups.get_mut(&group) {
            members.remove(&node);
            if members.is_empty() {
                self.core.mcast_groups.remove(&group);
            }
        }
    }
    /// Current members of `group` (empty when the group does not exist).
    pub fn mcast_members(&self, group: u64) -> Vec<NodeId> {
        self.core
            .mcast_groups
            .get(&group)
            .map(|m| m.iter().copied().collect())
            .unwrap_or_default()
    }
    /// Arrange for `on_timer(node, key, payload)` after `delay`. Timers die
    /// with the incarnation that set them: if the node crashes (or crashes
    /// and restarts) before the timer fires, it is silently discarded.
    pub fn set_timer(&mut self, node: NodeId, delay: MediaDuration, key: u64, payload: u64) {
        let at = self.core.now + delay.max(MediaDuration::ZERO);
        let inc = self.core.inc(node);
        let cause = self.core.current_cause;
        self.core.schedule(
            at,
            Pending::Timer {
                node,
                key,
                payload,
                inc,
                cause,
            },
        );
    }
    /// The ambient causal context (the request chain the current handler
    /// serves; [`CauseCtx::NONE`] outside any chain).
    #[inline]
    pub fn cause(&self) -> CauseCtx {
        self.core.current_cause
    }
    /// Override the ambient causal context — used by actors that resume
    /// work for a session from state rather than from a delivered message
    /// (e.g. a pump timer serving many sessions re-adopts each session's
    /// context as it switches between them).
    #[inline]
    pub fn adopt_cause(&mut self, cause: CauseCtx) {
        self.core.current_cause = cause;
    }
    /// Originate a causal root for `session`: get-or-create the session's
    /// root span, adopt it as the ambient cause, and return the context.
    /// Everything sent or scheduled from here on (until the next dispatch)
    /// descends from this root. Returns [`CauseCtx::NONE`] with tracing
    /// off — propagation then costs nothing and attributes nothing.
    #[inline]
    pub fn cause_root(&mut self, session: u64, node: NodeId) -> CauseCtx {
        let root = self.session_span(session, node);
        let cause = if root.is_none() {
            CauseCtx::NONE
        } else {
            CauseCtx::from_root(root)
        };
        self.core.current_cause = cause;
        cause
    }
    /// True unless the node is currently crashed by an injected fault.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        !self.core.is_dead(node)
    }
    /// The shared RNG (application-level randomness draws from the same
    /// seeded stream, keeping whole runs reproducible).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }
    /// Read-only network access (utilization queries, link stats).
    pub fn net(&self) -> &Network {
        &self.core.net
    }
    /// Mutable network access (reservations, condition changes).
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.core.net
    }
    /// Engine counters so far.
    pub fn stats(&self) -> SimStats {
        self.core.stats
    }
    /// The run's observability capture (read side: registry, spans, …).
    pub fn obs(&self) -> &Obs {
        &self.core.obs
    }
    /// Mutable observability capture (metric publishing mid-run).
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.core.obs
    }
    /// Record a trace event stamped with the engine clock.
    #[inline]
    pub fn emit(&mut self, node: NodeId, severity: Severity, name: &'static str, labels: Labels) {
        let now = self.core.now;
        self.core.obs.emit(now, node.raw(), severity, name, labels);
    }
    /// Record a trace event with a payload value, stamped with the clock.
    #[inline]
    pub fn emit_val(
        &mut self,
        node: NodeId,
        severity: Severity,
        name: &'static str,
        labels: Labels,
        value: i64,
    ) {
        let now = self.core.now;
        self.core
            .obs
            .emit_val(now, node.raw(), severity, name, labels, value);
    }
    /// Open a lifecycle span at the current engine clock. `parent` may be
    /// [`SpanId::NONE`] for a root; returns the null handle when tracing
    /// is off.
    #[inline]
    pub fn span_start(
        &mut self,
        node: NodeId,
        name: &'static str,
        labels: Labels,
        parent: SpanId,
    ) -> SpanId {
        let now = self.core.now;
        self.core
            .obs
            .span_start(now, node.raw(), name, labels, parent)
    }
    /// Close a span at the current engine clock (null handles ignored).
    #[inline]
    pub fn span_end(&mut self, id: SpanId) {
        let now = self.core.now;
        self.core.obs.span_end(id, now);
    }
    /// Get-or-create the root span of a session (raw id) — the shared
    /// parent for client- and server-side lifecycle spans.
    #[inline]
    pub fn session_span(&mut self, session: u64, node: NodeId) -> SpanId {
        let now = self.core.now;
        self.core.obs.session_span(session, node.raw(), now)
    }
    /// Dump `node`'s flight-recorder ring on an anomaly.
    #[inline]
    pub fn flight_dump(&mut self, node: NodeId, reason: &'static str, labels: Labels) {
        let now = self.core.now;
        self.core.obs.dump_flight(now, node.raw(), reason, labels);
    }
}

impl<M: WireSize + Clone, A: App<M>> Sim<M, A> {
    /// Build a simulator from a network, an app and a seed.
    pub fn new(net: Network, app: A, seed: u64) -> Self {
        Sim::with_config(net, app, seed, SimConfig::default())
    }

    /// Build with explicit engine configuration.
    pub fn with_config(net: Network, app: A, seed: u64, cfg: SimConfig) -> Self {
        let nodes = net.node_count();
        Sim {
            app,
            core: Core {
                now: MediaTime::ZERO,
                queue: EventQueue::new(),
                net,
                rng: SimRng::seed_from_u64(seed),
                cfg,
                stats: SimStats::default(),
                channels: HashMap::new(),
                dead: vec![false; nodes],
                incarnation: vec![0; nodes],
                fanout: Vec::new(),
                mcast_groups: BTreeMap::new(),
                obs: Obs::new(),
                current_cause: CauseCtx::NONE,
                cause_seq: 0,
                kind_of: |_| "msg",
            },
        }
    }

    /// Register the protocol-level message classifier used to label
    /// provenance hop records (e.g. `ServiceMsg::provenance_kind`).
    pub fn set_msg_kind(&mut self, f: fn(&M) -> &'static str) {
        self.core.kind_of = f;
    }

    /// Current simulation time.
    pub fn now(&self) -> MediaTime {
        self.core.now
    }
    /// The application (for inspection between runs).
    pub fn app(&self) -> &A {
        &self.app
    }
    /// Mutable application access.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }
    /// Engine counters.
    pub fn stats(&self) -> SimStats {
        self.core.stats
    }
    /// Network access.
    pub fn net(&self) -> &Network {
        &self.core.net
    }
    /// Mutable network access.
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.core.net
    }
    /// True unless the node is currently crashed by an injected fault.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        !self.core.is_dead(node)
    }
    /// The run's observability capture.
    pub fn obs(&self) -> &Obs {
        &self.core.obs
    }
    /// Mutable observability capture (toggling, metric publishing).
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.core.obs
    }
    /// Move the capture out (for export after a run), leaving a fresh one.
    pub fn take_obs(&mut self) -> Obs {
        std::mem::take(&mut self.core.obs)
    }
    /// Snapshot the engine counters and per-network totals into the
    /// capture's metrics registry under the `sim.*` / `net.*` namespaces.
    pub fn publish_metrics(&mut self) {
        let s = self.core.stats;
        let prov_records = self.core.obs.prov.len() as u64;
        let r = &mut self.core.obs.registry;
        r.counter_set("sim.prov_records", Labels::NONE, prov_records);
        r.counter_set("sim.delivered", Labels::NONE, s.delivered);
        r.counter_set("sim.datagrams_dropped", Labels::NONE, s.datagrams_dropped);
        r.counter_set("sim.retransmissions", Labels::NONE, s.retransmissions);
        r.counter_set("sim.reliable_failures", Labels::NONE, s.reliable_failures);
        r.counter_set("sim.timers_fired", Labels::NONE, s.timers_fired);
        r.counter_set("sim.faults_applied", Labels::NONE, s.faults_applied);
        r.counter_set("sim.fault_drops", Labels::NONE, s.fault_drops);
        r.counter_set("sim.mcast_sends", Labels::NONE, s.mcast_sends);
        r.counter_set("sim.mcast_link_copies", Labels::NONE, s.mcast_link_copies);
        r.counter_set("sim.mcast_deliveries", Labels::NONE, s.mcast_deliveries);
        let n = self.core.net.total_stats();
        r.counter_set("net.packets_sent", Labels::NONE, n.packets_sent);
        r.counter_set("net.packets_lost", Labels::NONE, n.packets_lost);
        r.counter_set(
            "net.packets_dropped_queue",
            Labels::NONE,
            n.packets_dropped_queue,
        );
        r.counter_set("net.bytes_sent", Labels::NONE, n.bytes_sent);
    }

    /// Run app code "from outside" (initial kicks, mid-run interventions).
    /// The ambient cause resets: external kicks start fresh causal chains.
    pub fn with_api<R>(&mut self, f: impl FnOnce(&mut A, &mut SimApi<'_, M>) -> R) -> R {
        self.core.current_cause = CauseCtx::NONE;
        let mut api = SimApi {
            core: &mut self.core,
        };
        f(&mut self.app, &mut api)
    }

    /// Process a single event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, pending)) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.core.now, "time went backwards");
        self.core.now = at;
        match pending {
            Pending::Hop(packet) => self.core.process_hop(packet),
            Pending::Deliver {
                node,
                from,
                msg,
                inc,
                cause,
                sent_at,
            } => {
                if !self.core.is_current(node, inc) {
                    self.core.stats.fault_drops += 1;
                    return true;
                }
                self.core.stats.delivered += 1;
                // Stamp the final-delivery provenance hop (in-flight µs)
                // and adopt the message's cause for the handler's sends.
                let msg_kind = (self.core.kind_of)(&msg);
                let wait = (self.core.now - sent_at).as_micros();
                self.core
                    .record_hop(HopKind::Deliver, from, node, cause, msg_kind, wait);
                self.core.current_cause = cause;
                let mut api = SimApi {
                    core: &mut self.core,
                };
                self.app.on_message(&mut api, node, from, msg);
            }
            Pending::Timer {
                node,
                key,
                payload,
                inc,
                cause,
            } => {
                if !self.core.is_current(node, inc) {
                    self.core.stats.fault_drops += 1;
                    return true;
                }
                self.core.stats.timers_fired += 1;
                self.core.current_cause = cause;
                let mut api = SimApi {
                    core: &mut self.core,
                };
                self.app.on_timer(&mut api, node, key, payload);
            }
            Pending::McastHop(copy) => self.core.process_mcast_hop(copy),
            Pending::Fault(kind) => {
                // Faults are external: no causal chain.
                self.core.current_cause = CauseCtx::NONE;
                self.core.apply_fault(kind);
                let at = self.core.now;
                let mut api = SimApi {
                    core: &mut self.core,
                };
                self.app.on_fault(&mut api, FaultEvent { at, kind });
            }
        }
        true
    }

    /// Run until the event queue is empty or `limit` events were processed.
    /// Returns the number of events processed.
    pub fn run(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit && self.step() {
            n += 1;
        }
        n
    }

    /// Run until simulation time reaches `until` (events at exactly `until`
    /// are processed). Returns the number of events processed.
    pub fn run_until(&mut self, until: MediaTime) -> u64 {
        let mut n = 0;
        while self.core.queue.peek_at().is_some_and(|at| at <= until) {
            self.step();
            n += 1;
        }
        self.core.now = self.core.now.max(until);
        n
    }

    /// Schedule a single fault. Instants in the past are clamped to `now`.
    pub fn inject_fault(&mut self, at: MediaTime, kind: FaultKind) {
        let at = at.max(self.core.now);
        self.core.schedule(at, Pending::Fault(kind));
    }

    /// Install every event of a [`FaultPlan`] on the timer wheel. Events
    /// scheduled for the same instant apply in plan order.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            self.inject_fault(ev.at, ev.kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::LossModel;
    use crate::topology::LinkSpec;

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(String, usize);
    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            self.1
        }
    }

    #[derive(Default)]
    struct Recorder {
        got: Vec<(MediaTime, NodeId, NodeId, String)>,
        timers: Vec<(MediaTime, u64, u64)>,
        echo: bool,
    }

    impl App<Msg> for Recorder {
        fn on_message(&mut self, api: &mut SimApi<'_, Msg>, node: NodeId, from: NodeId, msg: Msg) {
            self.got.push((api.now(), node, from, msg.0.clone()));
            if self.echo && msg.0 == "ping" {
                api.send_reliable(node, from, Msg("pong".into(), msg.1));
            }
        }
        fn on_timer(&mut self, api: &mut SimApi<'_, Msg>, _node: NodeId, key: u64, payload: u64) {
            self.timers.push((api.now(), key, payload));
        }
    }

    fn n(id: u64) -> NodeId {
        NodeId::new(id)
    }

    fn two_node_net(loss: LossModel) -> Network {
        two_node_net_seeded(loss, 9)
    }

    fn two_node_net_seeded(loss: LossModel, seed: u64) -> Network {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut net = Network::new();
        net.add_node(n(0), "client");
        net.add_node(n(1), "server");
        let mut spec = LinkSpec::lan(8_000_000);
        spec.loss = loss;
        net.add_duplex(n(0), n(1), spec, &mut rng);
        net.compute_routes();
        net
    }

    #[test]
    fn datagram_delivery_and_timing() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 1);
        sim.with_api(|_, api| {
            assert!(api.send(n(0), n(1), Msg("hello".into(), 1000)));
        });
        sim.run(100);
        let got = &sim.app().got;
        assert_eq!(got.len(), 1);
        // 1000 bytes at 8 Mbps = 1 ms tx + 200 µs propagation.
        assert_eq!(got[0].0, MediaTime::from_micros(1200));
        assert_eq!(got[0].1, n(1));
        assert_eq!(got[0].2, n(0));
    }

    #[test]
    fn request_response_round_trip() {
        let mut sim = Sim::new(
            two_node_net(LossModel::None),
            Recorder {
                echo: true,
                ..Default::default()
            },
            1,
        );
        sim.with_api(|_, api| {
            api.send_reliable(n(0), n(1), Msg("ping".into(), 500));
        });
        sim.run(100);
        let got = &sim.app().got;
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].3, "pong");
        assert_eq!(got[1].1, n(0)); // pong arrives back at the client
        assert!(got[1].0 > got[0].0);
    }

    #[test]
    fn reliable_survives_heavy_loss() {
        // Seed pinned to a draw where no message exhausts its retry budget:
        // with p = 0.5 and 8 attempts, each message independently fails with
        // probability 2^-8, so some seeds legitimately exceed the budget.
        let mut sim = Sim::new(
            two_node_net_seeded(LossModel::Bernoulli { p: 0.5 }, 2),
            Recorder::default(),
            2,
        );
        sim.with_api(|_, api| {
            for i in 0..50 {
                api.send_reliable(n(0), n(1), Msg(format!("m{i}"), 400));
            }
        });
        sim.run(100_000);
        assert_eq!(sim.app().got.len(), 50, "all reliable messages delivered");
        assert!(sim.stats().retransmissions > 0);
        assert_eq!(sim.stats().reliable_failures, 0);
    }

    #[test]
    fn datagrams_lost_under_loss() {
        let mut sim = Sim::new(
            two_node_net(LossModel::Bernoulli { p: 0.5 }),
            Recorder::default(),
            3,
        );
        sim.with_api(|_, api| {
            for i in 0..200 {
                api.send(n(0), n(1), Msg(format!("d{i}"), 100));
            }
        });
        sim.run(10_000);
        let delivered = sim.app().got.len();
        assert!(delivered > 60 && delivered < 140, "delivered {delivered}");
        assert_eq!(sim.stats().datagrams_dropped as usize + delivered, 200);
    }

    #[test]
    fn reliable_is_in_order_per_pair() {
        let mut sim = Sim::new(
            two_node_net(LossModel::Bernoulli { p: 0.3 }),
            Recorder::default(),
            4,
        );
        sim.with_api(|_, api| {
            for i in 0..30 {
                api.send_reliable(n(0), n(1), Msg(format!("{i:03}"), 300));
            }
        });
        sim.run(100_000);
        let names: Vec<&str> = sim.app().got.iter().map(|g| g.3.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "reliable deliveries out of order");
    }

    #[test]
    fn reliable_in_order_despite_jitter() {
        // Heavy per-packet jitter must not reorder reliable deliveries —
        // the release clock keeps them monotone even when a later packet's
        // jitter sample is smaller.
        let mut rng = SimRng::seed_from_u64(77);
        let mut net = Network::new();
        net.add_node(n(0), "a");
        net.add_node(n(1), "b");
        let mut spec = LinkSpec::lan(8_000_000);
        spec.jitter = crate::models::JitterModel::Exponential {
            mean: MediaDuration::from_millis(20),
        };
        net.add_duplex(n(0), n(1), spec, &mut rng);
        net.compute_routes();
        let mut sim = Sim::new(net, Recorder::default(), 6);
        sim.with_api(|_, api| {
            for i in 0..60 {
                api.send_reliable(n(0), n(1), Msg(format!("{i:03}"), 200));
            }
        });
        sim.run(100_000);
        let names: Vec<&str> = sim.app().got.iter().map(|g| g.3.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "jitter reordered reliable deliveries");
        // Delivery times are strictly monotone per pair.
        for w in sim.app().got.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 5);
        sim.with_api(|_, api| {
            api.set_timer(n(0), MediaDuration::from_millis(30), 1, 100);
            api.set_timer(n(0), MediaDuration::from_millis(10), 2, 200);
            api.set_timer(n(0), MediaDuration::from_millis(20), 3, 300);
        });
        sim.run(10);
        let keys: Vec<u64> = sim.app().timers.iter().map(|t| t.1).collect();
        assert_eq!(keys, vec![2, 3, 1]);
        assert_eq!(sim.app().timers[0].0, MediaTime::from_millis(10));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 6);
        sim.with_api(|_, api| {
            api.set_timer(n(0), MediaDuration::from_millis(10), 1, 0);
            api.set_timer(n(0), MediaDuration::from_millis(50), 2, 0);
        });
        sim.run_until(MediaTime::from_millis(20));
        assert_eq!(sim.app().timers.len(), 1);
        assert_eq!(sim.now(), MediaTime::from_millis(20));
        sim.run_until(MediaTime::from_millis(100));
        assert_eq!(sim.app().timers.len(), 2);
    }

    #[test]
    fn self_send_delivers_locally() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 7);
        sim.with_api(|_, api| {
            assert!(api.send(n(0), n(0), Msg("loop".into(), 10)));
        });
        sim.run(10);
        assert_eq!(sim.app().got.len(), 1);
        assert_eq!(sim.app().got[0].0, MediaTime::ZERO);
    }

    #[test]
    fn no_route_returns_false() {
        let mut net = Network::new();
        net.add_node(n(0), "a");
        net.add_node(n(1), "b");
        // no links
        net.compute_routes();
        let mut sim = Sim::new(net, Recorder::default(), 8);
        sim.with_api(|_, api| {
            assert!(!api.send(n(0), n(1), Msg("x".into(), 10)));
        });
    }

    #[test]
    fn crash_drops_deliveries_and_timers() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 11);
        sim.with_api(|_, api| {
            api.set_timer(n(1), MediaDuration::from_millis(50), 9, 0);
        });
        sim.inject_fault(
            MediaTime::from_millis(10),
            FaultKind::NodeCrash { node: n(1) },
        );
        sim.run_until(MediaTime::from_millis(20));
        assert!(!sim.node_is_up(n(1)));
        // A message sent toward the dead node is dropped at delivery.
        sim.with_api(|_, api| {
            assert!(api.send_reliable(n(0), n(1), Msg("x".into(), 100)));
        });
        sim.run(1_000);
        assert!(sim.app().got.is_empty(), "dead node received a message");
        assert!(sim.app().timers.is_empty(), "dead node's timer fired");
        assert!(sim.stats().fault_drops > 0);
    }

    #[test]
    fn crash_accounts_segments_held_by_the_inorder_gate() {
        // Under loss, later reliable segments arrive while an earlier one is
        // still being retransmitted and wait in the in-order hold. A crash
        // tears the channel down; the held segments must be counted as
        // fault drops, not silently vanish from the conservation ledger.
        let mut sim = Sim::new(
            two_node_net_seeded(LossModel::Bernoulli { p: 0.5 }, 3),
            Recorder::default(),
            3,
        );
        sim.with_api(|_, api| {
            for i in 0..10 {
                api.send_reliable(n(0), n(1), Msg(format!("m{i}"), 300));
            }
        });
        // Crash before the first retransmission timer (RTO 200 ms) so the
        // hold is still populated, then look at the ledger right away.
        sim.inject_fault(
            MediaTime::from_millis(10),
            FaultKind::NodeCrash { node: n(1) },
        );
        sim.run_until(MediaTime::from_millis(10));
        let delivered = sim.app().got.len() as u64;
        assert!(delivered < 10, "loss draw left nothing in the hold");
        assert!(
            sim.stats().fault_drops > 0,
            "held segments were discarded without accounting"
        );
    }

    #[test]
    fn node_slow_changes_no_engine_state() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 21);
        sim.inject_fault(
            MediaTime::from_millis(5),
            FaultKind::NodeSlow {
                node: n(1),
                factor: 10,
            },
        );
        sim.with_api(|_, api| {
            api.send_reliable(n(0), n(1), Msg("through".into(), 100));
            api.set_timer(n(1), MediaDuration::from_millis(20), 1, 0);
        });
        sim.run(1_000);
        // The node is alive: delivery and timers proceed; only the app-level
        // service model (not the engine) slows down.
        assert!(sim.node_is_up(n(1)));
        assert_eq!(sim.app().got.len(), 1);
        assert_eq!(sim.app().timers.len(), 1);
        assert_eq!(sim.stats().faults_applied, 1);
        assert_eq!(sim.stats().fault_drops, 0);
    }

    #[test]
    fn crashed_node_cannot_send() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 12);
        sim.inject_fault(MediaTime::ZERO, FaultKind::NodeCrash { node: n(0) });
        sim.run(1);
        sim.with_api(|_, api| {
            assert!(!api.send(n(0), n(1), Msg("x".into(), 100)));
        });
    }

    #[test]
    fn restart_revives_with_fresh_incarnation() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 13);
        // Timer set by incarnation 0; node crashes and restarts before it
        // fires — the stale timer must die with its incarnation.
        sim.with_api(|_, api| {
            api.set_timer(n(1), MediaDuration::from_millis(100), 1, 1);
        });
        sim.install_faults(&FaultPlan::new().crash_for(
            n(1),
            MediaTime::from_millis(10),
            MediaDuration::from_millis(20),
        ));
        sim.run_until(MediaTime::from_millis(40));
        assert!(sim.node_is_up(n(1)));
        // Fresh traffic and timers work after the restart.
        sim.with_api(|_, api| {
            api.send_reliable(n(0), n(1), Msg("hello-again".into(), 200));
            api.set_timer(n(1), MediaDuration::from_millis(5), 2, 2);
        });
        sim.run_until(MediaTime::from_millis(200));
        assert!(
            sim.app().timers.iter().all(|t| t.1 == 2),
            "stale timer fired"
        );
        assert_eq!(sim.app().timers.len(), 1);
        assert_eq!(sim.app().got.len(), 1);
        assert_eq!(sim.app().got[0].3, "hello-again");
    }

    #[test]
    fn partition_heals_through_reliable_arq() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 14);
        // Partition for 1 s starting just before the send: every attempt
        // during the outage is dropped, but backoff retries outlive it.
        sim.install_faults(&FaultPlan::new().partition(
            n(0),
            n(1),
            MediaTime::ZERO,
            MediaTime::from_secs(1),
        ));
        sim.run(1); // apply LinkDown
        sim.with_api(|_, api| {
            for i in 0..5 {
                api.send_reliable(n(0), n(1), Msg(format!("{i}"), 300));
            }
        });
        sim.run(100_000);
        assert_eq!(sim.app().got.len(), 5, "messages lost across the partition");
        assert!(sim.app().got.iter().all(|g| g.0 >= MediaTime::from_secs(1)));
        assert_eq!(sim.stats().reliable_failures, 0);
        assert!(sim.net().total_stats().packets_dropped_down > 0);
        // Datagrams sent during the outage are simply gone.
        assert!(sim.net().link_is_up(n(0), n(1)));
    }

    #[test]
    fn abandoned_sequence_does_not_wedge_the_gate() {
        // Partition longer than the whole retry window (~25.4 s at default
        // rto/attempts): the first message exhausts its budget, and later
        // messages sent after the heal must still be delivered.
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 15);
        sim.install_faults(&FaultPlan::new().partition(
            n(0),
            n(1),
            MediaTime::ZERO,
            MediaTime::from_secs(60),
        ));
        sim.run(1);
        sim.with_api(|_, api| {
            api.send_reliable(n(0), n(1), Msg("doomed".into(), 300));
        });
        sim.run_until(MediaTime::from_secs(61));
        assert_eq!(sim.stats().reliable_failures, 1);
        assert!(sim.app().got.is_empty());
        sim.with_api(|_, api| {
            api.send_reliable(n(0), n(1), Msg("after-heal".into(), 300));
        });
        sim.run(100_000);
        assert_eq!(sim.app().got.len(), 1, "gate wedged on abandoned seq");
        assert_eq!(sim.app().got[0].3, "after-heal");
    }

    /// Star topology for multicast tests: server `n(1)` — backbone `n(0)` —
    /// clients `n(10)..n(10+clients)`, with `loss` on the client access
    /// links only (the shared server trunk stays clean).
    fn star_net(clients: u64, loss: LossModel, seed: u64) -> Network {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut net = Network::new();
        net.add_node(n(0), "backbone");
        net.add_node(n(1), "server");
        net.add_duplex(n(1), n(0), LinkSpec::lan(8_000_000), &mut rng);
        for i in 0..clients {
            let c = n(10 + i);
            net.add_node(c, format!("client-{i}"));
            let mut spec = LinkSpec::lan(8_000_000);
            spec.loss = loss.clone();
            net.add_duplex(n(0), c, spec, &mut rng);
        }
        net.compute_routes();
        net
    }

    #[test]
    fn mcast_single_copy_per_egress_link() {
        let mut sim = Sim::new(star_net(4, LossModel::None, 21), Recorder::default(), 21);
        sim.with_api(|_, api| {
            for i in 0..4 {
                api.mcast_join(7, n(10 + i));
            }
            for i in 0..10 {
                assert_eq!(api.send_mcast(n(1), 7, Msg(format!("m{i}"), 800)), 4);
            }
        });
        sim.run(100_000);
        // Every member received every message...
        assert_eq!(sim.app().got.len(), 40);
        for i in 0..4 {
            let cnt = sim.app().got.iter().filter(|g| g.1 == n(10 + i)).count();
            assert_eq!(cnt, 10, "client {i}");
        }
        // ...but the shared server trunk carried ONE copy per send, not
        // one per receiver: fan-out happens at the backbone.
        let trunk = sim.net().link(n(1), n(0)).unwrap().stats;
        assert_eq!(trunk.packets_sent, 10);
        assert_eq!(trunk.bytes_sent, 10 * 800);
        for i in 0..4 {
            let access = sim.net().link(n(0), n(10 + i)).unwrap().stats;
            assert_eq!(access.packets_sent, 10);
        }
        let s = sim.stats();
        assert_eq!(s.mcast_sends, 10);
        assert_eq!(s.mcast_link_copies, 10 * 5); // 1 trunk + 4 access per send
        assert_eq!(s.mcast_deliveries, 40);
    }

    #[test]
    fn mcast_per_receiver_loss_is_independent() {
        let mut sim = Sim::new(
            star_net(3, LossModel::Bernoulli { p: 0.4 }, 22),
            Recorder::default(),
            22,
        );
        sim.with_api(|_, api| {
            for i in 0..3 {
                api.mcast_join(7, n(10 + i));
            }
            for i in 0..200 {
                api.send_mcast(n(1), 7, Msg(format!("m{i}"), 100));
            }
        });
        sim.run(1_000_000);
        // Each access link draws from its own RNG stream: losses hit
        // members independently, and every copy is accounted for.
        let mut counts = Vec::new();
        for i in 0..3 {
            let cnt = sim.app().got.iter().filter(|g| g.1 == n(10 + i)).count();
            assert!((70..170).contains(&cnt), "client {i} got {cnt}");
            counts.push(cnt);
        }
        counts.dedup();
        assert!(counts.len() > 1, "identical loss across receivers");
        let s = sim.stats();
        assert_eq!(
            s.mcast_deliveries + s.datagrams_dropped,
            600,
            "every copy delivered or counted lost"
        );
    }

    #[test]
    fn mcast_membership_churn_in_flight() {
        let mut sim = Sim::new(star_net(2, LossModel::None, 23), Recorder::default(), 23);
        sim.with_api(|_, api| {
            api.mcast_join(7, n(10));
            api.mcast_join(7, n(11));
            // The copy is scheduled, then a member leaves before it moves:
            // membership is re-read at each hop, so the leaver never
            // receives a copy already in flight.
            assert_eq!(api.send_mcast(n(1), 7, Msg("while-member".into(), 400)), 2);
            api.mcast_leave(7, n(11));
        });
        sim.run(10_000);
        assert_eq!(sim.app().got.len(), 1);
        assert_eq!(sim.app().got[0].1, n(10));
        // Rejoining resumes reception of later sends.
        sim.with_api(|_, api| {
            api.mcast_join(7, n(11));
            assert_eq!(api.send_mcast(n(1), 7, Msg("rejoined".into(), 400)), 2);
        });
        sim.run(10_000);
        assert_eq!(sim.app().got.len(), 3);
        assert!(sim
            .app()
            .got
            .iter()
            .any(|g| g.1 == n(11) && g.3 == "rejoined"));
    }

    #[test]
    fn mcast_partitioned_member_stops_then_resumes() {
        let mut sim = Sim::new(star_net(2, LossModel::None, 24), Recorder::default(), 24);
        sim.install_faults(&FaultPlan::new().partition(
            n(0),
            n(11),
            MediaTime::from_millis(10),
            MediaTime::from_millis(100),
        ));
        sim.with_api(|_, api| {
            api.mcast_join(7, n(10));
            api.mcast_join(7, n(11));
            api.send_mcast(n(1), 7, Msg("before".into(), 300));
        });
        sim.run_until(MediaTime::from_millis(10));
        // During the partition only the reachable member receives; the
        // partitioned subtree's copy dies at the cut.
        sim.with_api(|_, api| {
            api.send_mcast(n(1), 7, Msg("during".into(), 300));
        });
        sim.run_until(MediaTime::from_millis(120));
        // After the link heals, mcast reception resumes without rejoining.
        sim.with_api(|_, api| {
            api.send_mcast(n(1), 7, Msg("after".into(), 300));
        });
        sim.run_until(MediaTime::from_millis(200));
        let at = |node: NodeId| -> Vec<&str> {
            sim.app()
                .got
                .iter()
                .filter(|g| g.1 == node)
                .map(|g| g.3.as_str())
                .collect()
        };
        assert_eq!(at(n(10)), vec!["before", "during", "after"]);
        assert_eq!(at(n(11)), vec!["before", "after"]);
        assert!(sim.net().total_stats().packets_dropped_down > 0);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let trace = |seed| {
            let mut sim = Sim::new(
                two_node_net_seeded(LossModel::Bernoulli { p: 0.2 }, seed),
                Recorder::default(),
                seed,
            );
            sim.install_faults(
                &FaultPlan::new()
                    .crash_for(
                        n(1),
                        MediaTime::from_millis(30),
                        MediaDuration::from_millis(40),
                    )
                    .flap(
                        n(0),
                        n(1),
                        MediaTime::from_millis(100),
                        MediaDuration::from_millis(50),
                        MediaDuration::from_millis(10),
                        4,
                    ),
            );
            sim.with_api(|_, api| {
                for i in 0..40 {
                    api.send_reliable(n(0), n(1), Msg(format!("{i:02}"), 200));
                }
            });
            sim.run(100_000);
            (
                sim.app()
                    .got
                    .iter()
                    .map(|g| (g.0, g.3.clone()))
                    .collect::<Vec<_>>(),
                sim.stats(),
            )
        };
        assert_eq!(trace(42), trace(42));
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let trace = |seed| {
            let mut sim = Sim::new(
                two_node_net_seeded(LossModel::Bernoulli { p: 0.2 }, seed),
                Recorder::default(),
                seed,
            );
            sim.with_api(|_, api| {
                for i in 0..40 {
                    api.send(n(0), n(1), Msg(format!("{i}"), 200));
                }
            });
            sim.run(10_000);
            sim.app()
                .got
                .iter()
                .map(|g| (g.0, g.3.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(42), trace(42));
        assert_ne!(trace(42), trace(43));
    }
}
