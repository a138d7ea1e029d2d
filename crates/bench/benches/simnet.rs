//! Criterion bench: discrete-event engine throughput — datagram and
//! reliable transports across a two-hop path, datagrams from the hub of a
//! 400-leaf star, and routing computation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hermes_core::NodeId;
use hermes_simnet::{App, LinkSpec, LossModel, Network, Sim, SimApi, SimRng, WireSize};

#[derive(Clone)]
struct Payload(usize);
impl WireSize for Payload {
    fn wire_size(&self) -> usize {
        self.0
    }
}

struct Sink(u64);
impl App<Payload> for Sink {
    fn on_message(&mut self, _: &mut SimApi<'_, Payload>, _: NodeId, _: NodeId, _: Payload) {
        self.0 += 1;
    }
    fn on_timer(&mut self, _: &mut SimApi<'_, Payload>, _: NodeId, _: u64, _: u64) {}
}

fn two_hop(loss: f64, seed: u64) -> Network {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut net = Network::new();
    for (i, name) in ["src", "mid", "dst"].iter().enumerate() {
        net.add_node(NodeId::new(i as u64), *name);
    }
    let mut spec = LinkSpec::lan(100_000_000);
    if loss > 0.0 {
        spec.loss = LossModel::Bernoulli { p: loss };
    }
    net.add_duplex(NodeId::new(0), NodeId::new(1), spec.clone(), &mut rng);
    net.add_duplex(NodeId::new(1), NodeId::new(2), spec, &mut rng);
    net.compute_routes();
    net
}

/// Hub `0` with `leaves` leaves `1..=leaves`, each on its own duplex link:
/// the shape of a deployment hanging off one backbone switch.
fn star(leaves: u64) -> Network {
    let mut rng = SimRng::seed_from_u64(4);
    let mut net = Network::new();
    net.add_node(NodeId::new(0), "hub");
    for i in 1..=leaves {
        net.add_node(NodeId::new(i), "leaf");
        net.add_duplex(
            NodeId::new(0),
            NodeId::new(i),
            LinkSpec::lan(100_000_000),
            &mut rng,
        );
    }
    net.compute_routes();
    net
}

fn bench_simnet(c: &mut Criterion) {
    let mut g = c.benchmark_group("simnet");
    const N: u64 = 1_000;

    g.throughput(Throughput::Elements(N));
    g.bench_function("datagrams_2hop_1k", |b| {
        b.iter(|| {
            let mut sim = Sim::new(two_hop(0.0, 1), Sink(0), 1);
            sim.with_api(|_, api| {
                for _ in 0..N {
                    api.send(NodeId::new(0), NodeId::new(2), Payload(1000));
                }
            });
            sim.run(u64::MAX);
            assert_eq!(sim.app().0, N);
        })
    });

    g.throughput(Throughput::Elements(N));
    g.bench_function("reliable_lossy_2hop_1k", |b| {
        b.iter(|| {
            let mut sim = Sim::new(two_hop(0.05, 2), Sink(0), 2);
            sim.with_api(|_, api| {
                for _ in 0..N {
                    api.send_reliable(NodeId::new(0), NodeId::new(2), Payload(1000));
                }
            });
            sim.run(u64::MAX);
            assert_eq!(sim.app().0, N);
        })
    });

    const LEAVES: u64 = 400;
    g.throughput(Throughput::Elements(N));
    g.bench_function("datagrams_star_400_leaves_1k", |b| {
        b.iter_batched(
            || Sim::new(star(LEAVES), Sink(0), 4),
            |mut sim| {
                sim.with_api(|_, api| {
                    for i in 0..N {
                        let leaf = NodeId::new(1 + i % LEAVES);
                        api.send(NodeId::new(0), leaf, Payload(1000));
                    }
                });
                sim.run(u64::MAX);
                assert_eq!(sim.app().0, N);
            },
            BatchSize::LargeInput,
        )
    });

    g.bench_function("routing_star_400_leaves", |b| b.iter(|| star(LEAVES)));

    g.bench_function("routing_64_nodes", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from_u64(3);
            let mut net = Network::new();
            for i in 0..64u64 {
                net.add_node(NodeId::new(i), "n");
            }
            // Star around node 0 plus a ring.
            for i in 1..64u64 {
                net.add_duplex(
                    NodeId::new(0),
                    NodeId::new(i),
                    LinkSpec::lan(1_000_000),
                    &mut rng,
                );
                net.add_duplex(
                    NodeId::new(i),
                    NodeId::new(i % 63 + 1),
                    LinkSpec::lan(1_000_000),
                    &mut rng,
                );
            }
            net.compute_routes();
            net
        })
    });
    g.finish();
}

criterion_group!(benches, bench_simnet);
criterion_main!(benches);
