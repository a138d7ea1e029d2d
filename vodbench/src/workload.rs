//! The workloads: their open-loop arrival schedules and the rigs
//! they drive, built through the public hermes-service API.

use hermes_bench::{Arrival, ZipfCatalog};
use hermes_control::ControllerConfig;
use hermes_core::{DocumentId, MediaDuration, MediaTime, NodeId, ServerId};
use hermes_server::{SharingMode, SharingPolicy};
use hermes_service::{
    install_course, ClientConfig, LessonShape, ServerConfig, ServiceMsg, ServiceWorld, WorldBuilder,
};
use hermes_simnet::{FaultKind, JitterModel, LinkSpec, LossModel, Sim, SimRng};
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf(1.2) head shared by batching + patching on clean links.
    ZipfShared,
    /// Zipf(0.6) long tail, unicast, lossy last mile, one media crash,
    /// under the fleet controller.
    LongtailUnicast,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::ZipfShared, Workload::LongtailUnicast];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfShared => "zipf_shared",
            Workload::LongtailUnicast => "longtail_unicast",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed parameters.
    pub fn spec(self) -> Spec {
        let (titles, skew) = match self {
            Workload::ZipfShared => (16, 1.2),
            Workload::LongtailUnicast => (64, 0.6),
        };
        Spec {
            workload: self,
            rate: 20.0,
            arrivals_for: MediaDuration::from_secs(60),
            titles,
            skew,
            clip_secs: 10,
            pool: 400,
        }
    }
}

/// Fixed parameters of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Poisson arrival rate, sessions per second.
    pub rate: f64,
    /// Arrivals are generated over `[0, arrivals_for)`.
    pub arrivals_for: MediaDuration,
    /// Catalog size.
    pub titles: usize,
    /// Zipf skew of title popularity.
    pub skew: f64,
    /// Lesson (clip) length, seconds.
    pub clip_secs: i64,
    /// Pooled clients the driver connects arrivals from.
    pub pool: usize,
}

impl Spec {
    /// End of the arrival window.
    pub fn arrival_horizon(&self) -> MediaTime {
        MediaTime::ZERO + self.arrivals_for
    }

    /// When the drain ends: every session that will resolve has.
    pub fn drain_end(&self) -> MediaTime {
        self.arrival_horizon() + MediaDuration::from_secs(self.clip_secs + 15)
    }

    /// The open-loop schedule for `seed`.
    ///
    /// Arrivals are a Poisson process conditioned on its expected count:
    /// `round(rate × length)` instants drawn uniformly over the window.
    /// Titles follow the Zipf shares exactly (largest-remainder rounding),
    /// in a seed-shuffled order. The seed moves every instant and every
    /// title choice, while the count and the popularity mix — which set how
    /// loaded the system is — stay fixed, so runs with different seeds
    /// measure the same amount of work.
    pub fn arrivals(&self, seed: u64) -> Vec<Arrival> {
        let mut rng = SimRng::seed_from_u64(seed);
        let end = self.arrival_horizon().as_micros() as u64;
        let n = (self.rate * self.arrivals_for.as_micros() as f64 / 1e6).round() as usize;
        let mut times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, end)).collect();
        times.sort_unstable();
        let mut ranks = zipf_ranks(&ZipfCatalog::new(self.titles, self.skew), n);
        for i in (1..ranks.len()).rev() {
            ranks.swap(i, rng.range_u64(0, i as u64 + 1) as usize);
        }
        times
            .into_iter()
            .zip(ranks)
            .map(|(us, rank)| Arrival {
                at: MediaTime::from_micros(us as i64),
                rank,
            })
            .collect()
    }
}

/// `n` catalog ranks in exact Zipf shares: each rank gets the floor of its
/// expected count, and the remainders go to the largest fractional parts.
fn zipf_ranks(catalog: &ZipfCatalog, n: usize) -> Vec<usize> {
    let expected: Vec<f64> = (0..catalog.len())
        .map(|r| catalog.probability(r) * n as f64)
        .collect();
    let mut counts: Vec<usize> = expected.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        let frac = |r: usize| expected[r] - counts[r] as f64;
        frac(b).total_cmp(&frac(a)).then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    counts
        .iter()
        .enumerate()
        .flat_map(|(r, &c)| std::iter::repeat_n(r, c))
        .collect()
}

/// A built deployment ready to be driven.
pub struct Rig {
    /// The simulation.
    pub sim: Sim<ServiceMsg, ServiceWorld>,
    /// The multimedia server every client connects to.
    pub server: NodeId,
    /// Pooled client nodes.
    pub clients: Vec<NodeId>,
    /// Lesson documents by catalog rank.
    pub lessons: Vec<DocumentId>,
}

/// Host seconds of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Topology, actors and `WorldBuilder::build`.
    pub build_s: f64,
    /// Lesson scenarios and media store (`install_course`).
    pub install_s: f64,
    /// Media placement, control plane and fault plan.
    pub distribute_s: f64,
}

impl SetupTimes {
    /// `WorldBuilder::new` to the first event.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.install_s + self.distribute_s
    }
}

/// The fleet controller's capacity-first tuning (EXP-CONTROL `global`).
///
/// On the long tail it grades every session and beats its lease, but never
/// sees pressure, so it neither degrades nor scales out. Settings that made
/// it act were tried and dropped, because each tipped some seeds into the
/// media tier's fetch-busy retry storm, which exhausts the client pool: a
/// tier slowed to 40 ms/MiB so that it queues, and hedged fetches with the
/// SLO burn target lowered to 0.5× (with scale-in on or off).
fn controller() -> ControllerConfig {
    ControllerConfig {
        queue_target: 16.0,
        max_steps_per_tick: 2,
        dwell: MediaDuration::from_millis(1_500),
        calm: MediaDuration::from_millis(1_000),
        max_price: 1,
        scale_out_after: MediaDuration::from_millis(800),
        scale_dwell: MediaDuration::from_millis(1_500),
        scale_in_after: MediaDuration::from_secs(10),
        ..ControllerConfig::default()
    }
}

/// Build the workload's deployment for `seed`, with obs tracing `traced`.
pub fn build(spec: &Spec, seed: u64, traced: bool) -> (Rig, SetupTimes) {
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let mut b = WorldBuilder::new(seed);
    let longtail = spec.workload == Workload::LongtailUnicast;
    let sharing = if longtail {
        SharingPolicy {
            mode: SharingMode::Off,
            ..Default::default()
        }
    } else {
        SharingPolicy {
            mode: SharingMode::BatchingPatching,
            window: MediaDuration::from_millis(2_000),
            max_patch: MediaDuration::from_secs(4),
            hot_rank: 4,
        }
    };
    let cfg = ServerConfig {
        sharing,
        ..Default::default()
    };
    let server = b.add_server(ServerId::new(0), LinkSpec::lan(2_000_000_000), cfg);
    let mut access = LinkSpec::lan(10_000_000);
    if longtail {
        access.loss = LossModel::Bernoulli { p: 0.01 };
        access.jitter = JitterModel::Exponential {
            mean: MediaDuration::from_millis(8),
        };
    }
    let clients: Vec<NodeId> = (0..spec.pool)
        .map(|_| b.add_client(access.clone(), ClientConfig::default()))
        .collect();
    // The long tail gets a fifth node, held on standby for the controller.
    let nodes = if longtail { 5 } else { 4 };
    let media: Vec<NodeId> = (0..nodes)
        .map(|_| b.add_media_node(LinkSpec::san(1_000_000_000)))
        .collect();
    let mut sim = b.build(seed);
    sim.obs_mut().set_enabled(traced);
    times.build_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5EED_C0DE);
    let lessons = install_course(
        sim.app_mut().server_mut(server),
        "Bench",
        &["vod"],
        1,
        spec.titles,
        LessonShape {
            images: 0,
            image_secs: 0,
            narrated_clip_secs: Some(spec.clip_secs),
            closing_audio_secs: None,
        },
        &mut rng,
    );
    times.install_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    if longtail {
        sim.app_mut().standby_media.insert(media[4]);
    }
    sim.app_mut().distribute_media();
    if longtail {
        sim.with_api(|w, api| w.enable_control(api, server, controller()));
        sim.inject_fault(
            MediaTime::from_secs(20),
            FaultKind::NodeCrash { node: media[0] },
        );
        sim.inject_fault(
            MediaTime::from_secs(30),
            FaultKind::NodeRestart { node: media[0] },
        );
    }
    times.distribute_s = t2.elapsed().as_secs_f64();
    (
        Rig {
            sim,
            server,
            clients,
            lessons,
        },
        times,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_in_the_seed_and_fixed_in_size() {
        for w in Workload::ALL {
            let spec = w.spec();
            let a = spec.arrivals(7);
            assert_eq!(a, spec.arrivals(7));
            let b = spec.arrivals(8);
            assert_ne!(a, b);
            assert_eq!(a.len(), b.len());
            assert!(a.windows(2).all(|p| p[0].at <= p[1].at));
            assert!(a.last().unwrap().at < spec.arrival_horizon());
        }
    }

    #[test]
    fn zipf_ranks_follow_the_shares_exactly() {
        let catalog = ZipfCatalog::new(16, 1.2);
        let ranks = zipf_ranks(&catalog, 1_200);
        assert_eq!(ranks.len(), 1_200);
        for r in 0..16 {
            let got = ranks.iter().filter(|&&x| x == r).count() as f64;
            assert!(
                (got - catalog.probability(r) * 1_200.0).abs() < 1.0,
                "rank {r}"
            );
        }
    }
}
