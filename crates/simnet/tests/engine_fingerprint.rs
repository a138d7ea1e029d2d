//! Pinned engine fingerprint: one seeded scenario that drives every
//! forwarding path of the engine — multi-hop unicast datagrams, reliable
//! traffic retransmitted across a lossy trunk, reliable segments abandoned
//! behind a long partition, multicast fan-out with a member leaving while a
//! copy is in flight, and a crash/restart while the receiver's in-order
//! gate holds segments — and checks the engine counters, the event count
//! and a digest of the ordered deliveries against fixed constants.
//!
//! A refactor of the engine that is meant to be behaviour-preserving must
//! leave the constants untouched. If a deliberate behaviour change moves
//! them, re-measure and say why in the change description.

use hermes_core::{MediaDuration, MediaTime, NodeId};
use hermes_simnet::{
    App, FaultPlan, LinkSpec, LossModel, Network, Sim, SimApi, SimRng, SimStats, WireSize,
};

#[derive(Clone)]
struct Msg(String, usize);

impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        self.1
    }
}

const GROUP: u64 = 9;
const TICK: u64 = 1;
const LATE_SEND: u64 = 2;

fn n(id: u64) -> NodeId {
    NodeId::new(id)
}

/// Drives the traffic from timers at node 0 and echoes reliable pings
/// back from node 3, recording every delivery in order.
#[derive(Default)]
struct Script {
    got: Vec<(MediaTime, NodeId, NodeId, String)>,
}

impl App<Msg> for Script {
    fn on_message(&mut self, api: &mut SimApi<'_, Msg>, node: NodeId, from: NodeId, msg: Msg) {
        if msg.0.starts_with("ping") {
            api.send_reliable(node, from, Msg(msg.0.replace("ping", "pong"), 300));
        }
        self.got.push((api.now(), node, from, msg.0));
    }

    fn on_timer(&mut self, api: &mut SimApi<'_, Msg>, node: NodeId, key: u64, i: u64) {
        match key {
            TICK => {
                api.send(node, n(3), Msg(format!("d{i}"), 900));
                api.send_reliable(node, n(3), Msg(format!("ping{i}"), 600));
                api.send_mcast(node, GROUP, Msg(format!("m{i}"), 700));
                match i {
                    // Node 5 leaves right after a send: that copy is still
                    // on its way and must not reach it.
                    20 => api.mcast_leave(GROUP, n(5)),
                    40 => api.mcast_join(GROUP, n(5)),
                    _ => {}
                }
                // Reliable traffic into the partitioned branch: abandoned
                // after its retry budget, so the gate must skip it.
                if i.is_multiple_of(10) {
                    api.send_reliable(node, n(4), Msg(format!("a{i}"), 400));
                }
                if i < 60 {
                    api.set_timer(node, MediaDuration::from_millis(5), TICK, i + 1);
                }
            }
            LATE_SEND => {
                api.send_reliable(node, n(4), Msg("after-heal".into(), 400));
            }
            _ => unreachable!("unknown timer {key}"),
        }
    }
}

/// A line 0 — 1 — 2 — 3 with a lossy, jittery 1 — 2 trunk, plus two
/// branches 2 — 4 and 2 — 5 for the multicast fan-out.
fn network() -> Network {
    let mut rng = SimRng::seed_from_u64(17);
    let mut net = Network::new();
    for (i, name) in ["src", "edge", "core", "dst", "leaf-a", "leaf-b"]
        .iter()
        .enumerate()
    {
        net.add_node(n(i as u64), *name);
    }
    let mut trunk = LinkSpec::wan(4_000_000, 3);
    trunk.loss = LossModel::Bernoulli { p: 0.25 };
    net.add_duplex(n(0), n(1), LinkSpec::lan(20_000_000), &mut rng);
    net.add_duplex(n(1), n(2), trunk, &mut rng);
    net.add_duplex(n(2), n(3), LinkSpec::lan(10_000_000), &mut rng);
    net.add_duplex(n(2), n(4), LinkSpec::lan(10_000_000), &mut rng);
    net.add_duplex(n(2), n(5), LinkSpec::lan(10_000_000), &mut rng);
    net.compute_routes();
    net
}

/// FNV-1a over the ordered (time, node, from, payload) deliveries.
fn digest(got: &[(MediaTime, NodeId, NodeId, String)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (at, node, from, payload) in got {
        let line = format!(
            "{}|{}|{}|{}\n",
            at.as_micros(),
            node.raw(),
            from.raw(),
            payload
        );
        for b in line.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn engine_fingerprint_is_pinned() {
    let mut sim = Sim::new(network(), Script::default(), 1996);
    sim.install_faults(
        &FaultPlan::new()
            // Crash the reliable receiver while loss on the trunk keeps
            // later segments parked behind a retransmitting one.
            .crash_for(
                n(3),
                MediaTime::from_millis(120),
                MediaDuration::from_millis(40),
            )
            // Outlast the whole retry window (~25.4 s) on the 2 — 4 branch.
            .partition(n(2), n(4), MediaTime::ZERO, MediaTime::from_secs(30)),
    );
    sim.with_api(|_, api| {
        for member in [3, 4, 5] {
            api.mcast_join(GROUP, n(member));
        }
        api.set_timer(n(0), MediaDuration::ZERO, TICK, 0);
        api.set_timer(n(0), MediaDuration::from_secs(31), LATE_SEND, 0);
    });
    let events = sim.run(u64::MAX);
    let got = &sim.app().got;
    let stats = sim.stats();

    let print = format!(
        "events={events} deliveries={} digest={:#018x}\n{stats:?}",
        got.len(),
        digest(got)
    );
    assert!(
        got.iter().any(|g| g.1 == n(4) && g.3 == "after-heal"),
        "gate wedged behind abandoned segments\n{print}"
    );
    assert_eq!(
        stats,
        SimStats {
            delivered: 171,
            datagrams_dropped: 113,
            retransmissions: 74,
            reliable_failures: 7,
            timers_fired: 62,
            faults_applied: 4,
            fault_drops: 30,
            mcast_sends: 61,
            mcast_link_copies: 229,
            mcast_deliveries: 66,
        },
        "{print}"
    );
    assert_eq!(events, 1144, "{print}");
    assert_eq!(got.len(), 171, "{print}");
    assert_eq!(digest(got), 0x2ea7_df65_a97e_f371, "{print}");
}
