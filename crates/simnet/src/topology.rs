//! Network topology: nodes, directed links and static shortest-path routing.
//!
//! Links carry the full transmission model: finite bandwidth with a FIFO
//! transmit queue, propagation delay, a jitter model, a loss model and a
//! congestion (background cross-traffic) profile. Bandwidth reservations
//! made by the admission controller are tracked per link.

use crate::models::{CongestionProfile, JitterModel, LossModel, LossState};
use crate::rng::SimRng;
use hermes_core::{ConnectionId, MediaDuration, MediaTime, NodeId};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Static parameters of a directed link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay.
    pub propagation: MediaDuration,
    /// Jitter model applied per packet.
    pub jitter: JitterModel,
    /// Loss model applied per packet.
    pub loss: LossModel,
    /// Transmit-queue capacity in bytes (drop-tail beyond this).
    pub queue_capacity_bytes: u64,
    /// Background cross-traffic profile.
    pub congestion: CongestionProfile,
}

impl LinkSpec {
    /// A clean, fast LAN-like link: useful default for tests.
    pub fn lan(bandwidth_bps: u64) -> Self {
        LinkSpec {
            bandwidth_bps,
            propagation: MediaDuration::from_micros(200),
            jitter: JitterModel::None,
            loss: LossModel::None,
            queue_capacity_bytes: 1 << 20,
            congestion: CongestionProfile::idle(),
        }
    }

    /// A storage-area link for the media tier: short, fat and clean —
    /// media nodes sit next to the multimedia servers, so propagation is
    /// minimal, bandwidth is high and queues are deep (bulk segment
    /// transfers, not interactive traffic).
    pub fn san(bandwidth_bps: u64) -> Self {
        LinkSpec {
            bandwidth_bps,
            propagation: MediaDuration::from_micros(50),
            jitter: JitterModel::None,
            loss: LossModel::None,
            queue_capacity_bytes: 4 << 20,
            congestion: CongestionProfile::idle(),
        }
    }

    /// A WAN-like link with mild jitter and loss.
    pub fn wan(bandwidth_bps: u64, propagation_ms: i64) -> Self {
        LinkSpec {
            bandwidth_bps,
            propagation: MediaDuration::from_millis(propagation_ms),
            jitter: JitterModel::Exponential {
                mean: MediaDuration::from_millis(2),
            },
            loss: LossModel::Bernoulli { p: 0.001 },
            queue_capacity_bytes: 256 << 10,
            congestion: CongestionProfile::idle(),
        }
    }
}

/// Per-link counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted onto the link.
    pub packets_sent: u64,
    /// Bytes accepted onto the link.
    pub bytes_sent: u64,
    /// Packets dropped by the loss model.
    pub packets_lost: u64,
    /// Packets dropped because the queue overflowed.
    pub packets_dropped_queue: u64,
    /// Packets dropped because the link was administratively down
    /// (fault-injected partition).
    pub packets_dropped_down: u64,
}

/// Runtime state of a directed link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Static parameters.
    pub spec: LinkSpec,
    /// Time the transmitter becomes free.
    pub busy_until: MediaTime,
    /// Loss-model state (Gilbert–Elliott).
    pub loss_state: LossState,
    /// Per-link RNG stream (keeps cross-link determinism independent of
    /// event interleaving).
    pub rng: SimRng,
    /// Counters.
    pub stats: LinkStats,
    /// Bandwidth reserved by admitted connections, bits/second.
    pub reserved_bps: u64,
    /// False while a fault-injected partition holds the link down.
    pub up: bool,
}

/// What happened to one packet offered to a link at time `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOutcome {
    /// The packet will arrive at the far end at the given time.
    Delivered {
        /// Arrival instant at the downstream node.
        arrival: MediaTime,
    },
    /// Dropped by the loss model while in flight; the instant is when the
    /// tail of the packet left the transmitter (used for loss accounting).
    Lost {
        /// When the sender finished transmitting the doomed packet.
        tx_end: MediaTime,
    },
    /// Dropped immediately: the transmit queue was full.
    QueueFull,
}

impl Link {
    /// Create a link from its spec with a dedicated RNG stream.
    pub fn new(spec: LinkSpec, rng: SimRng) -> Self {
        Link {
            spec,
            busy_until: MediaTime::ZERO,
            loss_state: LossState::default(),
            rng,
            stats: LinkStats::default(),
            reserved_bps: 0,
            up: true,
        }
    }

    /// Effective bandwidth at instant `t`, after background cross-traffic.
    pub fn effective_bandwidth(&self, t: MediaTime) -> u64 {
        let load = self.spec.congestion.load_at(t);
        let eff = (self.spec.bandwidth_bps as f64 * (1.0 - load)).max(1.0);
        eff as u64
    }

    /// Fraction of capacity currently reserved plus background load at `t`.
    pub fn utilization(&self, t: MediaTime) -> f64 {
        let reserved = self.reserved_bps as f64 / self.spec.bandwidth_bps as f64;
        (reserved + self.spec.congestion.load_at(t)).min(1.0)
    }

    /// Offer a packet of `size_bytes` to the link at time `now`; returns the
    /// outcome and updates queue/loss state and counters.
    pub fn transmit(&mut self, now: MediaTime, size_bytes: usize) -> LinkOutcome {
        if !self.up {
            // Partitioned: the packet vanishes at the cut. `Lost` (not
            // `QueueFull`) so the reliable transport keeps retrying and
            // heals transparently when the partition is lifted.
            self.stats.packets_dropped_down += 1;
            return LinkOutcome::Lost { tx_end: now };
        }
        // Queue check: bytes that would wait ahead of this packet.
        let wait = if self.busy_until > now {
            self.busy_until - now
        } else {
            MediaDuration::ZERO
        };
        let bw = self.effective_bandwidth(now);
        let queued_bytes = (wait.as_micros() as u128 * bw as u128 / 8_000_000) as u64;
        if queued_bytes + size_bytes as u64 > self.spec.queue_capacity_bytes {
            self.stats.packets_dropped_queue += 1;
            return LinkOutcome::QueueFull;
        }
        let start_tx = now.max(self.busy_until);
        let tx_time =
            MediaDuration::from_micros(((size_bytes as u128 * 8 * 1_000_000) / bw as u128) as i64);
        let tx_end = start_tx + tx_time;
        self.busy_until = tx_end;
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += size_bytes as u64;

        // Loss: the base model plus congestion-epoch extra loss.
        let base_lost = self.spec.loss.sample(&mut self.loss_state, &mut self.rng);
        let extra = self.spec.congestion.extra_loss_at(now);
        let lost = base_lost || (extra > 0.0 && self.rng.chance(extra));
        if lost {
            self.stats.packets_lost += 1;
            return LinkOutcome::Lost { tx_end };
        }
        let jitter = self.spec.jitter.sample(&mut self.rng);
        LinkOutcome::Delivered {
            arrival: tx_end + self.spec.propagation + jitter,
        }
    }
}

/// The network: a set of nodes and directed links with static routing.
#[derive(Debug)]
pub struct Network {
    names: BTreeMap<NodeId, String>,
    links: HashMap<(NodeId, NodeId), Link>,
    /// next_hop[(src, dst)] = neighbour to forward through.
    routes: HashMap<(NodeId, NodeId), NodeId>,
    /// Reservations: connection → (path links, bps).
    reservations: HashMap<ConnectionId, (Vec<(NodeId, NodeId)>, u64)>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network {
            names: BTreeMap::new(),
            links: HashMap::new(),
            routes: HashMap::new(),
            reservations: HashMap::new(),
        }
    }

    /// Add a node with a display name.
    pub fn add_node(&mut self, id: NodeId, name: impl Into<String>) {
        self.names.insert(id, name.into());
    }

    /// All node ids.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.names.keys().copied().collect()
    }

    /// A node's display name.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.names.get(&id).map(|s| s.as_str())
    }

    /// Add a directed link.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec, rng: SimRng) {
        assert!(self.names.contains_key(&from), "unknown node {from}");
        assert!(self.names.contains_key(&to), "unknown node {to}");
        self.links.insert((from, to), Link::new(spec, rng));
        self.routes.clear(); // invalidate routing
    }

    /// Add a symmetric pair of links with the same spec.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, spec: LinkSpec, rng: &mut SimRng) {
        self.add_link(a, b, spec.clone(), rng.split());
        self.add_link(b, a, spec, rng.split());
    }

    /// Direct link between two nodes, if present.
    pub fn link(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        self.links.get(&(from, to))
    }

    /// Mutable access to a link.
    pub fn link_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut Link> {
        self.links.get_mut(&(from, to))
    }

    /// Bring both directions of the `a`–`b` link up or down. Returns true if
    /// at least one direction exists. Routing is untouched: packets offered
    /// to a down link are dropped in flight, modelling a partition rather
    /// than a topology change.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) -> bool {
        let mut found = false;
        for key in [(a, b), (b, a)] {
            if let Some(l) = self.links.get_mut(&key) {
                l.up = up;
                found = true;
            }
        }
        found
    }

    /// True when both existing directions of the `a`–`b` link are up.
    pub fn link_is_up(&self, a: NodeId, b: NodeId) -> bool {
        [(a, b), (b, a)]
            .iter()
            .filter_map(|k| self.links.get(k))
            .all(|l| l.up)
    }

    /// (Re)compute all-pairs next-hop routes by BFS (hop count metric).
    pub fn compute_routes(&mut self) {
        self.routes.clear();
        let nodes: Vec<NodeId> = self.names.keys().copied().collect();
        let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for (from, to) in self.links.keys() {
            adj.entry(*from).or_default().push(*to);
        }
        for v in adj.values_mut() {
            v.sort(); // deterministic tie-breaking
        }
        for &src in &nodes {
            // BFS from src recording parents.
            let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
            let mut q = VecDeque::new();
            q.push_back(src);
            parent.insert(src, src);
            while let Some(u) = q.pop_front() {
                if let Some(nbrs) = adj.get(&u) {
                    for &w in nbrs {
                        if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(w) {
                            e.insert(u);
                            q.push_back(w);
                        }
                    }
                }
            }
            for &dst in &nodes {
                if dst == src || !parent.contains_key(&dst) {
                    continue;
                }
                // Walk back from dst to find the first hop out of src.
                let mut cur = dst;
                while parent[&cur] != src {
                    cur = parent[&cur];
                }
                self.routes.insert((src, dst), cur);
            }
        }
    }

    /// The routing next hop from `src` toward `dst`, if reachable.
    /// `compute_routes` must have been called after the last topology change.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.routes.get(&(src, dst)).copied()
    }

    /// The node-path from `src` to `dst` (inclusive of both), if reachable.
    /// `compute_routes` must have been called after the last topology change.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            let next = *self.routes.get(&(cur, dst))?;
            path.push(next);
            cur = next;
            if path.len() > self.names.len() {
                return None; // should not happen; guards a routing bug
            }
        }
        Some(path)
    }

    /// The links along the path from `src` to `dst`.
    pub fn path_links(&self, src: NodeId, dst: NodeId) -> Option<Vec<(NodeId, NodeId)>> {
        let p = self.path(src, dst)?;
        Some(p.windows(2).map(|w| (w[0], w[1])).collect())
    }

    /// Bottleneck free bandwidth along a path at instant `t`:
    /// min over links of capacity − reserved − background.
    pub fn path_free_bandwidth(&self, src: NodeId, dst: NodeId, t: MediaTime) -> Option<u64> {
        let links = self.path_links(src, dst)?;
        links
            .iter()
            .map(|k| {
                let l = &self.links[k];
                let bg = (l.spec.bandwidth_bps as f64 * l.spec.congestion.load_at(t)) as u64;
                l.spec
                    .bandwidth_bps
                    .saturating_sub(l.reserved_bps)
                    .saturating_sub(bg)
            })
            .min()
    }

    /// Worst utilization along a path at instant `t`.
    pub fn path_utilization(&self, src: NodeId, dst: NodeId, t: MediaTime) -> Option<f64> {
        let links = self.path_links(src, dst)?;
        links
            .iter()
            .map(|k| self.links[k].utilization(t))
            .fold(None, |acc, u| Some(acc.map_or(u, |a: f64| a.max(u))))
    }

    /// Reserve `bps` along the path for a connection. Returns false (and
    /// reserves nothing) if any link lacks headroom.
    pub fn reserve(&mut self, conn: ConnectionId, src: NodeId, dst: NodeId, bps: u64) -> bool {
        let Some(links) = self.path_links(src, dst) else {
            return false;
        };
        for k in &links {
            if self.links[k].reserved_bps + bps > self.links[k].spec.bandwidth_bps {
                return false;
            }
        }
        for k in &links {
            self.links.get_mut(k).unwrap().reserved_bps += bps;
        }
        self.reservations.insert(conn, (links, bps));
        true
    }

    /// Reserve `bps` on an explicit set of links (a partial path). Used when
    /// a flow shares its upstream with an existing reservation — e.g. a
    /// receiver joining a shared multicast flow only needs headroom on the
    /// links not already carrying the group — so only the private tail is
    /// checked and charged. Returns false (and reserves nothing) if any
    /// named link is missing or lacks headroom.
    pub fn reserve_links(
        &mut self,
        conn: ConnectionId,
        links: Vec<(NodeId, NodeId)>,
        bps: u64,
    ) -> bool {
        for k in &links {
            match self.links.get(k) {
                Some(l) if l.reserved_bps + bps <= l.spec.bandwidth_bps => {}
                _ => return false,
            }
        }
        for k in &links {
            self.links.get_mut(k).unwrap().reserved_bps += bps;
        }
        self.reservations.insert(conn, (links, bps));
        true
    }

    /// Release a connection's reservation (idempotent).
    pub fn release(&mut self, conn: ConnectionId) {
        if let Some((links, bps)) = self.reservations.remove(&conn) {
            for k in links {
                if let Some(l) = self.links.get_mut(&k) {
                    l.reserved_bps = l.reserved_bps.saturating_sub(bps);
                }
            }
        }
    }

    /// Total reserved bandwidth for a connection, if registered.
    pub fn reservation(&self, conn: ConnectionId) -> Option<u64> {
        self.reservations.get(&conn).map(|(_, bps)| *bps)
    }

    /// Aggregate stats over all links.
    pub fn total_stats(&self) -> LinkStats {
        let mut s = LinkStats::default();
        for l in self.links.values() {
            s.packets_sent += l.stats.packets_sent;
            s.bytes_sent += l.stats.bytes_sent;
            s.packets_lost += l.stats.packets_lost;
            s.packets_dropped_queue += l.stats.packets_dropped_queue;
            s.packets_dropped_down += l.stats.packets_dropped_down;
        }
        s
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(id: u64) -> NodeId {
        NodeId::new(id)
    }

    fn line_network() -> Network {
        // 0 — 1 — 2, duplex 10 Mbps
        let mut rng = SimRng::seed_from_u64(1);
        let mut net = Network::new();
        net.add_node(n(0), "a");
        net.add_node(n(1), "b");
        net.add_node(n(2), "c");
        net.add_duplex(n(0), n(1), LinkSpec::lan(10_000_000), &mut rng);
        net.add_duplex(n(1), n(2), LinkSpec::lan(10_000_000), &mut rng);
        net.compute_routes();
        net
    }

    #[test]
    fn routing_finds_multi_hop_paths() {
        let net = line_network();
        assert_eq!(net.path(n(0), n(2)).unwrap(), vec![n(0), n(1), n(2)]);
        assert_eq!(net.path(n(2), n(0)).unwrap(), vec![n(2), n(1), n(0)]);
        assert_eq!(net.path(n(1), n(1)).unwrap(), vec![n(1)]);
        assert_eq!(
            net.path_links(n(0), n(2)).unwrap(),
            vec![(n(0), n(1)), (n(1), n(2))]
        );
    }

    #[test]
    fn unreachable_is_none() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut net = Network::new();
        net.add_node(n(0), "a");
        net.add_node(n(1), "b");
        net.add_node(n(9), "island");
        net.add_duplex(n(0), n(1), LinkSpec::lan(1_000_000), &mut rng);
        net.compute_routes();
        assert!(net.path(n(0), n(9)).is_none());
    }

    #[test]
    fn transmit_serializes_packets() {
        let mut net = line_network();
        let l = net.link_mut(n(0), n(1)).unwrap();
        // 10 Mbps → 1250 bytes take 1 ms.
        let t0 = MediaTime::ZERO;
        let o1 = l.transmit(t0, 1250);
        let o2 = l.transmit(t0, 1250);
        let (a1, a2) = match (o1, o2) {
            (LinkOutcome::Delivered { arrival: a1 }, LinkOutcome::Delivered { arrival: a2 }) => {
                (a1, a2)
            }
            other => panic!("{other:?}"),
        };
        // Second packet queues behind the first: arrivals 1 tx-time apart.
        assert_eq!(a2 - a1, MediaDuration::from_millis(1));
        assert_eq!(a1, MediaTime::from_micros(1000 + 200)); // tx + propagation
    }

    #[test]
    fn queue_overflow_drops() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut spec = LinkSpec::lan(8_000_000); // 1 byte/µs
        spec.queue_capacity_bytes = 3000;
        let mut l = Link::new(spec, rng.split());
        // Fill the queue.
        assert!(matches!(
            l.transmit(MediaTime::ZERO, 1500),
            LinkOutcome::Delivered { .. }
        ));
        assert!(matches!(
            l.transmit(MediaTime::ZERO, 1500),
            LinkOutcome::Delivered { .. }
        ));
        // busy_until is now 3000 µs ⇒ 3000 bytes queued ahead > capacity.
        assert_eq!(l.transmit(MediaTime::ZERO, 1500), LinkOutcome::QueueFull);
        assert_eq!(l.stats.packets_dropped_queue, 1);
        // After the queue drains, transmission succeeds again.
        assert!(matches!(
            l.transmit(MediaTime::from_millis(5), 1500),
            LinkOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn congestion_shrinks_effective_bandwidth() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut spec = LinkSpec::lan(10_000_000);
        spec.congestion = CongestionProfile::constant(0.5);
        let l = Link::new(spec, rng.split());
        assert_eq!(l.effective_bandwidth(MediaTime::ZERO), 5_000_000);
        assert!((l.utilization(MediaTime::ZERO) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reservations_respect_capacity() {
        let mut net = line_network();
        let c1 = ConnectionId::new(1);
        let c2 = ConnectionId::new(2);
        assert!(net.reserve(c1, n(0), n(2), 6_000_000));
        // Second reservation exceeds the 10 Mbps bottleneck.
        assert!(!net.reserve(c2, n(0), n(2), 6_000_000));
        assert_eq!(
            net.path_free_bandwidth(n(0), n(2), MediaTime::ZERO),
            Some(4_000_000)
        );
        net.release(c1);
        assert!(net.reserve(c2, n(0), n(2), 6_000_000));
        net.release(c2);
        net.release(c2); // idempotent
        assert_eq!(
            net.path_free_bandwidth(n(0), n(2), MediaTime::ZERO),
            Some(10_000_000)
        );
    }

    #[test]
    fn failed_reservation_reserves_nothing() {
        let mut net = line_network();
        // Pre-load one link asymmetrically.
        net.link_mut(n(1), n(2)).unwrap().reserved_bps = 9_000_000;
        let c = ConnectionId::new(7);
        assert!(!net.reserve(c, n(0), n(2), 2_000_000));
        // First link must not have been charged.
        assert_eq!(net.link(n(0), n(1)).unwrap().reserved_bps, 0);
    }

    #[test]
    fn loss_counted_in_stats() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut spec = LinkSpec::lan(10_000_000);
        spec.loss = LossModel::Bernoulli { p: 0.5 };
        let mut l = Link::new(spec, rng.split());
        let mut lost = 0;
        for i in 0..200 {
            match l.transmit(MediaTime::from_millis(i * 10), 100) {
                LinkOutcome::Lost { .. } => lost += 1,
                LinkOutcome::Delivered { .. } => {}
                LinkOutcome::QueueFull => panic!("queue should not fill"),
            }
        }
        assert_eq!(l.stats.packets_lost, lost);
        assert!(lost > 60 && lost < 140, "lost {lost}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Walking `next_hop` from `src` to `dst` visits exactly the nodes
        /// of `path(src, dst)` over real links, on random connected
        /// topologies (a random spanning tree plus random extra links): the
        /// engine forwards hop by hop and relies on this equivalence.
        #[test]
        fn next_hop_matches_path(
            parents in proptest::collection::vec(0usize..64, 1..12),
            extra in proptest::collection::vec((0usize..64, 0usize..64), 0..12),
        ) {
            let count = parents.len() + 1;
            let mut rng = SimRng::seed_from_u64(1);
            let mut net = Network::new();
            for i in 0..count {
                net.add_node(n(i as u64), format!("n{i}"));
            }
            let tree = parents.iter().enumerate().map(|(i, p)| (i + 1, p % (i + 1)));
            let chords = extra.iter().map(|(a, b)| (a % count, b % count));
            for (a, b) in tree.chain(chords).filter(|(a, b)| a != b) {
                net.add_duplex(n(a as u64), n(b as u64), LinkSpec::lan(1_000_000), &mut rng);
            }
            net.compute_routes();
            for src in net.nodes() {
                for dst in net.nodes() {
                    let path = net.path(src, dst);
                    prop_assert!(path.is_some(), "{src:?} -> {dst:?} unreachable");
                    let mut walk = vec![src];
                    while *walk.last().unwrap() != dst && walk.len() <= count {
                        let here = *walk.last().unwrap();
                        let next = net.next_hop(here, dst);
                        prop_assert!(next.is_some(), "no next hop at {here:?} toward {dst:?}");
                        let next = next.unwrap();
                        prop_assert!(net.link(here, next).is_some(), "route over a missing link");
                        walk.push(next);
                    }
                    prop_assert_eq!(Some(walk), path);
                }
            }
            prop_assert_eq!(net.next_hop(n(0), n(99)), None);
        }
    }

    #[test]
    fn reserve_links_charges_only_the_tail() {
        let mut net = line_network();
        let shared = ConnectionId::new(1);
        let tail = ConnectionId::new(2);
        // A shared flow already holds the 0→1 trunk.
        assert!(net.reserve(shared, n(0), n(1), 8_000_000));
        // A full-path reservation for a joiner would fail at the trunk...
        assert!(!net.reserve(tail, n(0), n(2), 4_000_000));
        // ...but charging only its private tail link succeeds.
        assert!(net.reserve_links(tail, vec![(n(1), n(2))], 4_000_000));
        assert_eq!(net.link(n(0), n(1)).unwrap().reserved_bps, 8_000_000);
        assert_eq!(net.link(n(1), n(2)).unwrap().reserved_bps, 4_000_000);
        net.release(tail);
        assert_eq!(net.link(n(1), n(2)).unwrap().reserved_bps, 0);
        // Unknown links reserve nothing.
        assert!(!net.reserve_links(tail, vec![(n(0), n(9))], 1));
    }

    #[test]
    fn path_utilization_is_worst_link() {
        let mut net = line_network();
        net.link_mut(n(0), n(1)).unwrap().reserved_bps = 2_000_000;
        net.link_mut(n(1), n(2)).unwrap().reserved_bps = 7_000_000;
        let u = net.path_utilization(n(0), n(2), MediaTime::ZERO).unwrap();
        assert!((u - 0.7).abs() < 1e-9, "{u}");
    }
}
