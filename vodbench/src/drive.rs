//! The open-loop driver: connect a pooled client at each arrival's due
//! instant, harvest every session's outcome, settle the world, and collect
//! the run's counters and correctness checks.

use crate::metrics::{Outcome, Session};
use crate::workload::{self, Spec};
use hermes_core::{MediaDuration, MediaTime, NodeId};
use hermes_obs::invariants::{check_conservation, check_frame_discipline, check_run};
use hermes_obs::InvariantConfig;
use hermes_service::{ClientActor, StackPath, SubsystemProfile};
use std::collections::BTreeMap;
use std::time::Instant;

/// How long the world runs after every client disconnected, so teardown
/// traffic lands before the checks read the final state.
const SETTLE: MediaDuration = MediaDuration::from_secs(10);

/// Playout totals summed over every session.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlayoutTotals {
    /// Real frames presented.
    pub frames_played: u64,
    /// Duplicates presented to smooth underflows.
    pub duplicates_played: u64,
    /// Frames dropped by occupancy/skew repair.
    pub frames_dropped: u64,
    /// Visible playout glitches.
    pub glitches: u64,
    /// Already-played content presented again (must stay 0).
    pub stale_frames: u64,
    /// Largest intermedia skew any session saw, ms.
    pub max_skew_ms: f64,
}

/// Everything one driven run produced.
pub struct RunResult {
    /// Every requested session.
    pub sessions: Vec<Session>,
    /// Engine events processed.
    pub events: u64,
    /// Host seconds inside `Sim::run_until`.
    pub sim_s: f64,
    /// Host seconds in the driver itself, including its connect and
    /// disconnect calls.
    pub driver_s: f64,
    /// Arrivals that found no idle pooled client.
    pub unserved: usize,
    /// Arrivals whose connect the client did not log at the due instant
    /// (refused by its state machine, or issued at another time).
    pub misissued: usize,
    /// Playout totals.
    pub playout: PlayoutTotals,
    /// Bytes the server put on its trunk.
    pub egress_bytes: u64,
    /// Registry counters summed over label sets, by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Registry gauges summed over label sets, by name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Media-tier fetch latency p99, ms.
    pub fetch_p99_ms: f64,
    /// Messages and bytes delivered per protocol stack path.
    pub stack: BTreeMap<StackPath, (u64, u64)>,
    /// Dispatch lanes (traced runs only).
    pub lanes: Option<SubsystemProfile>,
    /// Events in the obs capture (0 when tracing is off).
    pub obs_events: usize,
    /// Heap allocations and bytes requested while the run was driven.
    pub allocs: (u64, u64),
    /// Broken invariants and failed correctness checks.
    pub violations: Vec<String>,
}

impl RunResult {
    /// Host seconds of the run: simulation plus driver.
    pub fn run_s(&self) -> f64 {
        self.sim_s + self.driver_s
    }
}

/// A pooled client's current assignment.
#[derive(Clone, Copy)]
struct Slot {
    due: MediaTime,
    completed: usize,
    errors: usize,
}

impl Slot {
    /// The session's outcome so far; `None` while it is still running.
    fn outcome(&self, c: &ClientActor) -> Option<Outcome> {
        if c.completed.len() > self.completed {
            Some(Outcome::Completed)
        } else if c.errors.len() > self.errors {
            Some(match c.presentation {
                None => Outcome::Rejected,
                Some(_) => Outcome::Errored,
            })
        } else {
            None
        }
    }

    /// Record the session and add its playout to the totals.
    fn harvest(&self, c: &ClientActor, outcome: Outcome, totals: &mut PlayoutTotals) -> Session {
        let mut startup_ms = None;
        if let Some(p) = &c.presentation {
            let s = p.engine.total_stats();
            totals.frames_played += s.frames_played;
            totals.duplicates_played += s.duplicates_played;
            totals.frames_dropped += s.frames_dropped;
            totals.glitches += s.glitches;
            totals.stale_frames += s.stale_frames;
            let skew_ms = p.engine.max_skew_observed.as_micros() as f64 / 1e3;
            totals.max_skew_ms = totals.max_skew_ms.max(skew_ms);
            startup_ms = p
                .started_at
                .map(|t| (t - self.due).as_micros() as f64 / 1e3);
        }
        Session {
            outcome,
            startup_ms,
        }
    }
}

/// Build the workload for `seed` and drive it to the end of the settle
/// window. `traced` turns on the obs capture and the dispatch lanes.
pub fn run(spec: &Spec, seed: u64, traced: bool) -> RunResult {
    let arrivals = spec.arrivals(seed);
    let (mut rig, _) = workload::build(spec, seed, traced);
    if traced {
        rig.sim.app_mut().enable_profiling();
    }
    let (allocs0, bytes0) = hermes_bench::alloc::counters();
    let mut slots: Vec<Option<Slot>> = vec![None; spec.pool];
    let mut sessions = Vec::with_capacity(arrivals.len());
    let mut playout = PlayoutTotals::default();
    let (mut events, mut sim_s, mut unserved, mut misissued) = (0u64, 0f64, 0usize, 0usize);
    let run_start = Instant::now();

    let mut run_until = |rig: &mut workload::Rig, at: MediaTime| {
        let t = Instant::now();
        events += rig.sim.run_until(at);
        sim_s += t.elapsed().as_secs_f64();
    };
    for a in &arrivals {
        run_until(&mut rig, a.at);
        let mut free = None;
        for (i, slot) in slots.iter_mut().enumerate() {
            if let Some(s) = *slot {
                let c = rig.sim.app().client(rig.clients[i]);
                let Some(outcome) = s.outcome(c) else {
                    continue;
                };
                sessions.push(s.harvest(c, outcome, &mut playout));
                *slot = None;
            }
            free.get_or_insert(i);
        }
        let Some(i) = free else {
            unserved += 1;
            continue;
        };
        let (node, doc, server) = (rig.clients[i], rig.lessons[a.rank], rig.server);
        let c = rig.sim.app().client(node);
        slots[i] = Some(Slot {
            due: a.at,
            completed: c.completed.len(),
            errors: c.errors.len(),
        });
        let logged = rig.sim.with_api(|w, api| {
            let cl = w.client_mut(node);
            cl.disconnect(api);
            let before = cl.log.len();
            cl.connect(api, server, Some(doc));
            cl.log[before..]
                .iter()
                .any(|(at, msg)| *at == a.at && msg.starts_with("connect"))
        });
        if !logged {
            misissued += 1;
        }
    }
    run_until(&mut rig, spec.drain_end());
    for (i, slot) in slots.iter().enumerate() {
        if let Some(s) = slot {
            let c = rig.sim.app().client(rig.clients[i]);
            let outcome = s.outcome(c).unwrap_or(Outcome::Unresolved);
            sessions.push(s.harvest(c, outcome, &mut playout));
        }
    }
    let clients = rig.clients.clone();
    rig.sim.with_api(|w, api| {
        for n in clients {
            w.client_mut(n).disconnect(api);
        }
    });
    run_until(&mut rig, spec.drain_end() + SETTLE);
    let driver_s = (run_start.elapsed().as_secs_f64() - sim_s).max(0.0);
    let (allocs1, bytes1) = hermes_bench::alloc::counters();

    let mut result = RunResult {
        sessions,
        events,
        sim_s,
        driver_s,
        unserved,
        misissued,
        playout,
        egress_bytes: trunk_bytes(&rig),
        counters: BTreeMap::new(),
        gauges: BTreeMap::new(),
        fetch_p99_ms: 0.0,
        stack: rig.sim.app().stack_bytes.clone(),
        lanes: rig.sim.app().profile,
        obs_events: 0,
        allocs: (allocs1 - allocs0, bytes1 - bytes0),
        violations: Vec::new(),
    };
    collect(&mut rig, traced, &mut result);
    result
}

/// Bytes the server sent on its link to the backbone (node 0).
fn trunk_bytes(rig: &workload::Rig) -> u64 {
    rig.sim
        .net()
        .link(rig.server, NodeId::new(0))
        .expect("server trunk link")
        .stats
        .bytes_sent
}

/// Publish the engine and actor counters, fold them by name, and run the
/// correctness checks: the registry checks always, the invariant catalog
/// over the event log when it was captured.
fn collect(rig: &mut workload::Rig, traced: bool, out: &mut RunResult) {
    rig.sim.publish_metrics();
    let mut obs = rig.sim.take_obs();
    rig.sim.app().publish_metrics(&mut obs);
    for (key, v) in obs.registry.counters() {
        *out.counters.entry(key.name).or_default() += v;
    }
    for (key, v) in obs.registry.gauges() {
        *out.gauges.entry(key.name).or_default() += v;
    }
    out.fetch_p99_ms = obs
        .registry
        .hists()
        .filter(|(k, _)| k.name == "server.fetch_latency")
        .map(|(_, h)| h.quantile(0.99).as_micros() as f64 / 1e3)
        .fold(0.0, f64::max);
    out.obs_events = obs.events().len();

    // The full catalog includes the two registry checks; release builds
    // compile `ServiceWorld::audit_media_parts` out, so untraced runs need
    // the registry checks on their own.
    let violations = if traced {
        check_run(obs.events(), &obs.registry, &InvariantConfig::default())
    } else {
        let mut v = check_conservation(&obs.registry);
        v.extend(check_frame_discipline(&obs.registry));
        v
    };
    out.violations = violations.iter().map(|v| v.render()).collect();
    // The registry only holds each pooled client's last presentation, so
    // frame discipline over every session is checked on the harvest too.
    if out.playout.stale_frames > 0 {
        out.violations.push(format!(
            "[frame_discipline] {} stale frames presented over all sessions",
            out.playout.stale_frames
        ));
    }
    if out.unserved > 0 {
        out.violations.push(format!(
            "[generator] {} arrivals found no idle pooled client",
            out.unserved
        ));
    }
    if out.misissued > 0 {
        out.violations.push(format!(
            "[generator] {} connects were not issued at their due instant",
            out.misissued
        ));
    }
}
