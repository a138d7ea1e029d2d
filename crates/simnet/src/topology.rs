//! Network topology: nodes, directed links and static shortest-path routing.
//!
//! Links carry the full transmission model: finite bandwidth with a FIFO
//! transmit queue, propagation delay, a jitter model, a loss model and a
//! congestion (background cross-traffic) profile. Bandwidth reservations
//! made by the admission controller are tracked per link.

use crate::models::{CongestionProfile, JitterModel, LossModel, LossState};
use crate::rng::SimRng;
use hermes_core::{ConnectionId, MediaDuration, MediaTime, NodeId};
use std::collections::HashMap;

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

/// Largest raw node id [`Network::add_node`] accepts. Node ids index a
/// dense id → slot table, so a stray huge id would allocate a huge table;
/// the cap bounds that table at 4 MiB. `WorldBuilder` hands out ids 0, 1,
/// 2, … and stays far below it.
pub const MAX_NODE_ID: u64 = (1 << 20) - 1;

/// Marks an empty entry in the dense tables.
const NONE: u32 = u32::MAX;

/// Index of a link in [`Network`]'s link table, stable for the network's
/// lifetime (re-adding a link replaces it in place).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkIx(u32);

/// The network: a set of nodes and directed links with static routing.
///
/// Every node gets a dense slot in insertion order. Routing is one
/// `n × n` table of link indices: entry `src · n + dst` names the link
/// `src` forwards on toward `dst`, so a hop resolves both its next node and
/// the link to cross with plain indexing. The table costs 4·n² bytes
/// (640 KiB at 400 nodes).
#[derive(Debug)]
pub struct Network {
    /// Dense slot per raw node id (`NONE`: no such node).
    slot_of: Vec<u32>,
    /// Node id and display name per slot.
    nodes: Vec<(NodeId, String)>,
    /// Links in insertion order.
    links: Vec<Link>,
    /// `(from, to)` of each link, parallel to `links`.
    ends: Vec<(NodeId, NodeId)>,
    /// Outgoing links per slot as `(to, link)`, sorted by `to`: the
    /// deterministic BFS tie-break.
    out: Vec<Vec<(NodeId, u32)>>,
    /// Next-hop link per `(src, dst)` slot pair, `NONE` when unreachable or
    /// `src == dst`; empty until `compute_routes`, cleared by `add_link`.
    hops: Vec<u32>,
    /// Node count `hops` was computed for (its row stride).
    hops_n: usize,
    /// Reservations: connection → (path links, bps).
    reservations: HashMap<ConnectionId, (Vec<(NodeId, NodeId)>, u64)>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network {
            slot_of: Vec::new(),
            nodes: Vec::new(),
            links: Vec::new(),
            ends: Vec::new(),
            out: Vec::new(),
            hops: Vec::new(),
            hops_n: 0,
            reservations: HashMap::new(),
        }
    }

    /// Add a node with a display name; re-adding a node renames it.
    ///
    /// Panics if `id` exceeds [`MAX_NODE_ID`].
    pub fn add_node(&mut self, id: NodeId, name: impl Into<String>) {
        assert!(
            id.raw() <= MAX_NODE_ID,
            "node id {id} above MAX_NODE_ID ({MAX_NODE_ID})"
        );
        if let Some(s) = self.slot(id) {
            self.nodes[s].1 = name.into();
            return;
        }
        let raw = id.raw() as usize;
        if raw >= self.slot_of.len() {
            self.slot_of.resize(raw + 1, NONE);
        }
        self.slot_of[raw] = self.nodes.len() as u32;
        self.nodes.push((id, name.into()));
        self.out.push(Vec::new());
    }

    /// Dense slot of a node (`0..node_count()`, in insertion order).
    #[inline]
    pub(crate) fn slot(&self, id: NodeId) -> Option<usize> {
        let s = *self.slot_of.get(usize::try_from(id.raw()).ok()?)?;
        (s != NONE).then_some(s as usize)
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids, ascending.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.nodes.iter().map(|(id, _)| *id).collect();
        ids.sort();
        ids
    }

    /// A node's display name.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.slot(id).map(|s| self.nodes[s].1.as_str())
    }

    /// The direct link `from → to` as an index, if present.
    pub(crate) fn link_index(&self, from: NodeId, to: NodeId) -> Option<LinkIx> {
        let out = &self.out[self.slot(from)?];
        let i = out.binary_search_by_key(&to, |&(t, _)| t).ok()?;
        Some(LinkIx(out[i].1))
    }

    /// Add a directed link; re-adding an existing `from → to` replaces it.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec, rng: SimRng) {
        let s = self
            .slot(from)
            .unwrap_or_else(|| panic!("unknown node {from}"));
        assert!(self.slot(to).is_some(), "unknown node {to}");
        let link = Link::new(spec, rng);
        match self.out[s].binary_search_by_key(&to, |&(t, _)| t) {
            Ok(i) => self.links[self.out[s][i].1 as usize] = link,
            Err(i) => {
                let ix = u32::try_from(self.links.len()).expect("link table full");
                self.out[s].insert(i, (to, ix));
                self.links.push(link);
                self.ends.push((from, to));
            }
        }
        // Invalidate routing until the next `compute_routes`.
        self.hops.clear();
        self.hops_n = 0;
    }

    /// Add a symmetric pair of links with the same spec.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, spec: LinkSpec, rng: &mut SimRng) {
        self.add_link(a, b, spec.clone(), rng.split());
        self.add_link(b, a, spec, rng.split());
    }

    /// Direct link between two nodes, if present.
    pub fn link(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        self.link_index(from, to)
            .map(|ix| &self.links[ix.0 as usize])
    }

    /// Mutable access to a link.
    pub fn link_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut Link> {
        self.link_index(from, to).map(|ix| self.link_at_mut(ix))
    }

    /// Mutable access to a link by index.
    #[inline]
    pub(crate) fn link_at_mut(&mut self, ix: LinkIx) -> &mut Link {
        &mut self.links[ix.0 as usize]
    }

    /// Bring both directions of the `a`–`b` link up or down. Returns true if
    /// at least one direction exists. Routing is untouched: packets offered
    /// to a down link are dropped in flight, modelling a partition rather
    /// than a topology change.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) -> bool {
        let mut found = false;
        for (from, to) in [(a, b), (b, a)] {
            if let Some(l) = self.link_mut(from, to) {
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
            .filter_map(|&(from, to)| self.link(from, to))
            .all(|l| l.up)
    }

    /// (Re)compute all-pairs next-hop routes by BFS (hop count metric).
    /// Neighbours are visited in ascending id order and the first node to
    /// reach a neighbour becomes its parent, so ties break the same way
    /// for every source.
    pub fn compute_routes(&mut self) {
        let n = self.nodes.len();
        let mut hops = vec![NONE; n * n];
        // first[v]: the link out of `src` on the BFS-tree path to `v`.
        let mut first = vec![NONE; n];
        let mut seen = vec![false; n];
        let mut queue = Vec::with_capacity(n);
        for src in 0..n {
            first.fill(NONE);
            seen.fill(false);
            queue.clear();
            queue.push(src);
            seen[src] = true;
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &(w, link) in &self.out[u] {
                    let w = self.slot_of[w.raw() as usize] as usize;
                    if !seen[w] {
                        seen[w] = true;
                        first[w] = if u == src { link } else { first[u] };
                        queue.push(w);
                    }
                }
            }
            hops[src * n..(src + 1) * n].copy_from_slice(&first);
        }
        self.hops = hops;
        self.hops_n = n;
    }

    /// The routing next hop from `src` toward `dst` and the link to it, if
    /// reachable. `compute_routes` must have been called after the last
    /// topology change.
    #[inline]
    pub(crate) fn route(&self, src: NodeId, dst: NodeId) -> Option<(NodeId, LinkIx)> {
        let (s, d) = (self.slot(src)?, self.slot(dst)?);
        if s >= self.hops_n || d >= self.hops_n {
            return None;
        }
        let ix = self.hops[s * self.hops_n + d];
        (ix != NONE).then(|| (self.ends[ix as usize].1, LinkIx(ix)))
    }

    /// The routing next hop from `src` toward `dst`, if reachable.
    /// `compute_routes` must have been called after the last topology change.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.route(src, dst).map(|(next, _)| next)
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
            let next = self.next_hop(cur, dst)?;
            path.push(next);
            cur = next;
            if path.len() > self.nodes.len() {
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

    /// The link a `(from, to)` pair names; panics when it does not exist.
    fn link_on(&self, (from, to): (NodeId, NodeId)) -> &Link {
        self.link(from, to)
            .unwrap_or_else(|| panic!("no link {from} -> {to}"))
    }

    /// Bottleneck free bandwidth along a path at instant `t`:
    /// min over links of capacity − reserved − background.
    pub fn path_free_bandwidth(&self, src: NodeId, dst: NodeId, t: MediaTime) -> Option<u64> {
        let links = self.path_links(src, dst)?;
        links
            .iter()
            .map(|&k| {
                let l = self.link_on(k);
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
            .map(|&k| self.link_on(k).utilization(t))
            .fold(None, |acc, u| Some(acc.map_or(u, |a: f64| a.max(u))))
    }

    /// Reserve `bps` along the path for a connection. Returns false (and
    /// reserves nothing) if any link lacks headroom.
    pub fn reserve(&mut self, conn: ConnectionId, src: NodeId, dst: NodeId, bps: u64) -> bool {
        let Some(links) = self.path_links(src, dst) else {
            return false;
        };
        self.reserve_links(conn, links, bps)
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
        for &(from, to) in &links {
            match self.link(from, to) {
                Some(l) if l.reserved_bps + bps <= l.spec.bandwidth_bps => {}
                _ => return false,
            }
        }
        for &(from, to) in &links {
            self.link_mut(from, to).expect("checked above").reserved_bps += bps;
        }
        self.reservations.insert(conn, (links, bps));
        true
    }

    /// Release a connection's reservation (idempotent).
    pub fn release(&mut self, conn: ConnectionId) {
        if let Some((links, bps)) = self.reservations.remove(&conn) {
            for (from, to) in links {
                if let Some(l) = self.link_mut(from, to) {
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
        for l in &self.links {
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

    /// The all-pairs BFS over hashed maps that `compute_routes` replaced,
    /// kept as its executable spec: adjacency sorted by node id, parents
    /// claimed first-come in FIFO order, the next hop found by walking the
    /// parent chain back to the source.
    fn spec_routes(net: &Network) -> HashMap<(NodeId, NodeId), NodeId> {
        let mut routes = HashMap::new();
        let nodes = net.nodes();
        let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for (from, to) in &net.ends {
            adj.entry(*from).or_default().push(*to);
        }
        for v in adj.values_mut() {
            v.sort();
        }
        for &src in &nodes {
            let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
            let mut q = std::collections::VecDeque::new();
            q.push_back(src);
            parent.insert(src, src);
            while let Some(u) = q.pop_front() {
                for &w in adj.get(&u).into_iter().flatten() {
                    if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(w) {
                        e.insert(u);
                        q.push_back(w);
                    }
                }
            }
            for &dst in &nodes {
                if dst == src || !parent.contains_key(&dst) {
                    continue;
                }
                let mut cur = dst;
                while parent[&cur] != src {
                    cur = parent[&cur];
                }
                routes.insert((src, dst), cur);
            }
        }
        routes
    }

    /// Every `next_hop` of `net` equals `spec` (absent = unreachable), and
    /// the returned link really joins the pair.
    fn assert_routes_match(
        net: &Network,
        spec: &HashMap<(NodeId, NodeId), NodeId>,
    ) -> Result<(), TestCaseError> {
        for src in net.nodes() {
            for dst in net.nodes() {
                let got = net.route(src, dst);
                prop_assert_eq!(got.map(|(next, _)| next), spec.get(&(src, dst)).copied());
                if let Some((next, link)) = got {
                    prop_assert_eq!(Some(link), net.link_index(src, next));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The dense next-hop table routes every pair exactly as the spec
        /// BFS does on random directed topologies: sparse raw ids (always
        /// including 900) added out of id order, isolated nodes, one-way
        /// links, and links added after a first `compute_routes` (which
        /// invalidate every route until routes are computed again).
        #[test]
        fn dense_routes_match_spec_bfs(
            raw in proptest::collection::vec(0u64..1000, 1..14),
            first in proptest::collection::vec((0usize..64, 0usize..64, any::<bool>()), 0..20),
            later in proptest::collection::vec((0usize..64, 0usize..64, any::<bool>()), 1..8),
        ) {
            let mut ids: Vec<NodeId> = Vec::new();
            for r in raw.into_iter().chain([900]) {
                if !ids.contains(&n(r)) {
                    ids.push(n(r));
                }
            }
            let mut rng = SimRng::seed_from_u64(7);
            let mut net = Network::new();
            for &id in &ids {
                net.add_node(id, format!("{id}"));
            }
            let mut add = |net: &mut Network, links: &[(usize, usize, bool)]| {
                for &(a, b, duplex) in links {
                    let (a, b) = (ids[a % ids.len()], ids[b % ids.len()]);
                    if a == b {
                        continue;
                    }
                    let spec = LinkSpec::lan(1_000_000);
                    if duplex {
                        net.add_duplex(a, b, spec, &mut rng);
                    } else {
                        net.add_link(a, b, spec, rng.split());
                    }
                }
            };
            add(&mut net, &first);
            net.compute_routes();
            assert_routes_match(&net, &spec_routes(&net))?;
            // A node added after routing is unreachable until recomputed;
            // the routes already computed stay valid.
            let before = spec_routes(&net);
            net.add_node(n(1000), "late");
            assert_routes_match(&net, &before)?;
            add(&mut net, &later);
            if later.iter().any(|&(a, b, _)| ids[a % ids.len()] != ids[b % ids.len()]) {
                assert_routes_match(&net, &HashMap::new())?;
            }
            net.compute_routes();
            assert_routes_match(&net, &spec_routes(&net))?;
        }
    }

    #[test]
    #[should_panic(expected = "above MAX_NODE_ID")]
    fn node_ids_above_the_cap_are_refused() {
        Network::new().add_node(n(MAX_NODE_ID + 1), "stray");
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
