//! The multimedia (Hermes) server actor: session management, document
//! delivery, media-server transmission loops, QoS feedback handling,
//! distributed search and the mail service — everything on the left half of
//! paper Fig. 3, driven by simulator messages and timers.

use crate::protocol::{MailMessage, SearchHit, ServiceMsg};
use crate::timers;
use hermes_control::{
    elect, majority, names as ctrl_names, stream_utility, ControlCommand, ControlSnapshot,
    ControllerConfig, FleetController, LeaseView, PeerFreshness,
};
use hermes_core::{
    ComponentId, DocumentId, GradeDecision, GradeLevel, GradingHysteresis, GradingOrder,
    MediaDuration, MediaKind, MediaTime, NodeId, PresentationFloor, PricingClass, ServerId,
    SessionId, UserId,
};
use hermes_media::{segment_of_frame, CodecModel, FrameSource, SegmentFrame};
use hermes_rtp::RtpSender;
use hermes_server::{
    compute_flow_scenario, AccountsDb, AdmissionController, AdmissionDecision, BatchingPolicy,
    BreakerConfig, BreakerState, Charge, ConnectionRequest, FlowConfig, FlowPlan, GroupPhase,
    MultimediaDb, PathCondition, PlacementMap, PressureDetector, ReplicaHealthMap, ReplicaSelector,
    SegmentCache, SegmentKey, ServerQosManager, ShareDecision, SharingMode, SharingPolicy,
};
use hermes_simnet::obs::stats::DurationHistogram;
use hermes_simnet::obs::{MetricsRegistry, SloMonitor, SloSpec};
use hermes_simnet::{Labels, Obs, Severity, SimApi, SpanId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One active outgoing media stream of a session.
#[derive(Debug)]
pub struct StreamTx {
    /// The transmission plan.
    pub plan: FlowPlan,
    /// The frame generator. With a media tier it becomes the stream's
    /// *pacer*: it owns seq/pts/level/doneness while the frame content is
    /// gated on segments fetched from the tier (see [`RemoteStream`]).
    pub source: FrameSource,
    /// The RTP sender session.
    pub sender: RtpSender,
    /// Stream finished transmitting naturally.
    pub done: bool,
    /// Stream stopped by the grading engine.
    pub stopped: bool,
    /// Frames sent so far.
    pub frames_sent: u64,
    /// Payload bytes sent so far.
    pub bytes_sent: u64,
    /// Media-tier fetch state; `None` streams read their local store
    /// directly (the pre-tier in-process path).
    pub remote: Option<RemoteStream>,
    /// Patch streams only: stop once the source reaches this presentation
    /// time. Strictly exclusive — the first multicast frame the joiner
    /// receives carries exactly this pts, so the patch covers [0, cutoff)
    /// with no duplicate and no gap.
    pub patch_until: Option<MediaTime>,
}

/// One shared delivery group: several sessions fed by the leader's streams
/// over one simulator multicast group (batching/patching, ISSUE 3).
#[derive(Debug)]
pub struct SharedGroup {
    /// The group id (also the simulator multicast group id).
    pub id: u64,
    /// Delivery epoch, bumped exactly once per media-node fault affecting
    /// the group — the whole group fails over together.
    pub epoch: u64,
    /// The document the group delivers.
    pub document: DocumentId,
    /// The session whose streams feed the group.
    pub leader: SessionId,
    /// All member sessions (leader included).
    pub members: Vec<SessionId>,
    /// When the shared flow starts (creation + batching wait); requests
    /// before this instant join the pending batch.
    pub starts_at: MediaTime,
    /// Media objects pinned in the segment cache for the group's lifetime.
    pub objects: Vec<String>,
    /// Patch cutoffs snapshotted per joiner *at join time* (the same
    /// instant the joiner enters the multicast group): the patch covers
    /// `[0, cutoff)` and the first shared frame the member sees carries
    /// exactly `cutoff` — snapshotting later (at PatchRequest arrival)
    /// would double-deliver frames multicast in between.
    pub patch_cutoffs: BTreeMap<SessionId, Vec<(ComponentId, MediaTime)>>,
}

/// Counters of the stream-sharing machinery on one server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Shared groups opened.
    pub groups_opened: u64,
    /// Requests that joined a pending (not yet started) group.
    pub joins_pending: u64,
    /// Requests that joined a started group with a unicast patch.
    pub joins_patched: u64,
    /// Unicast patch streams started.
    pub patch_streams: u64,
    /// Frames sent over multicast groups.
    pub mcast_frames: u64,
    /// Group epoch bumps (media-tier failovers of a shared flow).
    pub epoch_bumps: u64,
}

/// Media-tier fetch state of one stream: which replica it pulls from and
/// the windowed-pipelining bookkeeping between the pacer and the network.
#[derive(Debug)]
pub struct RemoteStream {
    /// The media object's storage key.
    pub object: String,
    /// Its media kind (selects the shard store on media nodes).
    pub kind: MediaKind,
    /// The media node currently serving this stream.
    pub replica: NodeId,
    /// Segment granularity of this stream's fetches: the tier's configured
    /// value for continuous media, 1 for discrete objects (one oversized
    /// "frame" — fetching a whole segment would pull redundant copies).
    pub frames_per_segment: u32,
    /// Bumped on failover and level retargets; chunks tagged with an older
    /// epoch are stale and dropped.
    pub epoch: u32,
    /// Next segment index to request.
    pub next_request: u64,
    /// Next segment index to append into `ready`.
    pub next_append: u64,
    /// Fetched segments waiting for in-order append (segment → frames).
    pub pending: BTreeMap<u64, Vec<SegmentFrame>>,
    /// In-order frame specs ready for the pacer to consume.
    pub ready: VecDeque<SegmentFrame>,
    /// Frames to drop from the next appended segment (mid-segment starts
    /// after fast-forward or a level retarget).
    pub skip: u32,
    /// Outstanding segment fetches (segment → fetch id).
    pub inflight: BTreeMap<u64, u64>,
}

impl RemoteStream {
    /// Point the fetch window at global frame index `next_seq`, discarding
    /// all buffered and in-flight content (used at stream start and when a
    /// level switch invalidates fetched frame sizes).
    pub fn retarget(&mut self, next_seq: u64) {
        let (seg, off) = segment_of_frame(next_seq, self.frames_per_segment);
        self.pending.clear();
        self.ready.clear();
        self.inflight.clear();
        self.next_request = seg;
        self.next_append = seg;
        self.skip = off;
        self.epoch += 1;
    }

    /// Drain contiguously fetched segments into the ready queue.
    fn drain_ready(&mut self) {
        while let Some(frames) = self.pending.remove(&self.next_append) {
            self.next_append += 1;
            for f in frames {
                if self.skip > 0 {
                    self.skip -= 1;
                } else {
                    self.ready.push_back(f);
                }
            }
        }
    }

    /// Frames buffered or expected from outstanding fetches.
    fn frames_covered(&self) -> u64 {
        self.ready.len() as u64
            + self.pending.values().map(|v| v.len() as u64).sum::<u64>()
            + self.inflight.len() as u64 * self.frames_per_segment as u64
    }
}

/// Configuration of the distributed media tier, shared by the world builder
/// (content distribution) and the multimedia servers (fetch behaviour).
#[derive(Debug, Clone)]
pub struct MediaTierConfig {
    /// Replicas per media object across the media nodes.
    pub replication: usize,
    /// Segment-cache capacity in payload bytes (0 disables caching).
    pub cache_bytes: u64,
    /// Frames per fetched segment.
    pub frames_per_segment: u32,
    /// Maximum outstanding segment fetches per stream (the pipelining
    /// window).
    pub pipeline: u32,
    /// Re-poll interval while a stream is stalled waiting for the tier.
    pub stall_poll: MediaDuration,
    /// Consult the per-replica circuit breaker: score fetch outcomes,
    /// penalise sick replicas at selection time and bound probe traffic
    /// while a tripped circuit is half-open.
    pub breaker: bool,
    /// Circuit-breaker tuning (EWMA thresholds, open timeout, probe count).
    pub breaker_cfg: BreakerConfig,
    /// Issue a duplicate fetch to the next-best replica when the first has
    /// not answered within the hedge delay; first response wins.
    pub hedging: bool,
    /// Floor of the adaptive (P95-derived) hedge delay.
    pub hedge_min: MediaDuration,
    /// Cap of the adaptive hedge delay; also used until enough latency
    /// samples accumulate to estimate a P95.
    pub hedge_max: MediaDuration,
    /// Slack added to every fetch deadline beyond the playout horizon the
    /// stream's buffered frames already cover.
    pub deadline_slack: MediaDuration,
    /// Walk active sessions down the grade ladder under sustained fetch
    /// pressure (the mid-session extension of admission-time shedding).
    pub ladder: bool,
    /// Fetch-latency target of the CoDel-style pressure detector.
    pub pressure_target: MediaDuration,
    /// How long fetch latency must stay above target before the detector
    /// declares pressure (transient bursts pass).
    pub pressure_interval: MediaDuration,
    /// Cadence of the degradation-ladder evaluation timer.
    pub ladder_period: MediaDuration,
    /// Calm period required before one degraded level is restored (and the
    /// spacing between successive restores).
    pub ladder_hysteresis: MediaDuration,
}

impl Default for MediaTierConfig {
    fn default() -> Self {
        MediaTierConfig {
            replication: 2,
            cache_bytes: 512 * 1024,
            frames_per_segment: 32,
            pipeline: 3,
            stall_poll: MediaDuration::from_millis(10),
            breaker: true,
            breaker_cfg: BreakerConfig::default(),
            hedging: false,
            hedge_min: MediaDuration::from_millis(5),
            hedge_max: MediaDuration::from_millis(250),
            deadline_slack: MediaDuration::from_millis(500),
            ladder: false,
            pressure_target: MediaDuration::from_millis(50),
            pressure_interval: MediaDuration::from_millis(100),
            ladder_period: MediaDuration::from_millis(250),
            ladder_hysteresis: MediaDuration::from_secs(2),
        }
    }
}

/// Counters of the media-tier fetch path on one multimedia server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediaTierStats {
    /// Segment fetches sent to media nodes.
    pub fetches: u64,
    /// Chunks received back.
    pub chunks: u64,
    /// Paced frames that found the ready queue empty (tier too slow).
    pub stalls: u64,
    /// Streams re-pointed at another replica after a media-node fault.
    pub failovers: u64,
    /// Fetches answered with [`ServiceMsg::MediaFetchError`].
    pub fetch_errors: u64,
    /// Transport parts received from media nodes (conservation audit
    /// against the nodes' `parts_sent`).
    pub parts_received: u64,
    /// Fetches answered with [`ServiceMsg::MediaFetchBusy`] (shed by an
    /// overloaded node's queue).
    pub busy: u64,
    /// Duplicate fetches issued after the hedge delay expired unanswered.
    pub hedges: u64,
    /// Hedge races the duplicate won.
    pub hedge_wins: u64,
    /// Losing fetches of resolved hedge races cancelled at their node.
    pub hedge_cancels: u64,
    /// Circuit transitions to Open (cumulative; survives health resets and
    /// server restarts, unlike the live health map).
    pub breaker_trips: u64,
    /// Outstanding fetches written off by a media-node incarnation event.
    pub fetches_lost: u64,
    /// Degradation-ladder steps applied (one victim session walked one
    /// level down).
    pub ladder_degrades: u64,
    /// Degradation-ladder steps restored after pressure cleared.
    pub ladder_restores: u64,
}

/// Identifies an outstanding fetch (for chunk routing and failover).
#[derive(Debug, Clone, Copy)]
pub struct FetchTag {
    /// The session the fetch belongs to.
    pub session: SessionId,
    /// The stream within the session.
    pub component: ComponentId,
    /// The segment requested.
    pub segment: u64,
    /// The quality level it was computed at.
    pub level: GradeLevel,
    /// The issuing stream's epoch (stale-chunk rejection).
    pub epoch: u32,
    /// The media node it was sent to.
    pub replica: NodeId,
    /// When the fetch was issued (health latency samples, hedge timing).
    pub issued_at: MediaTime,
    /// The playout deadline the request carried.
    pub deadline: MediaTime,
    /// True for the duplicate of a hedged pair.
    pub hedged: bool,
}

/// The multimedia server's side of the distributed media tier: where its
/// content lives ([`PlacementMap`]), which replica each fetch should use
/// ([`ReplicaSelector`]), the segment cache fronting the network, and the
/// outstanding-fetch table.
#[derive(Debug)]
pub struct MediaTier {
    /// Tier configuration.
    pub cfg: MediaTierConfig,
    /// Object key → media-node replicas.
    pub placement: PlacementMap,
    /// Load/RTT-aware replica choice.
    pub selector: ReplicaSelector,
    /// The segment cache (interval-caching admission).
    pub cache: SegmentCache,
    /// Outstanding fetches by fetch id.
    pub inflight: BTreeMap<u64, FetchTag>,
    next_fetch: u64,
    /// Fetch-path counters.
    pub stats: MediaTierStats,
    /// Per-replica EWMA health scores and circuit breakers.
    pub health: ReplicaHealthMap,
    /// Completed-fetch latency distribution: drives the adaptive hedge
    /// delay and the reported tail percentiles.
    pub fetch_latency: DurationHistogram,
    /// CoDel-style pressure detector over fetch latency (ladder trigger).
    pub pressure: PressureDetector,
    /// Unresolved hedge races, keyed both ways (primary ⇄ duplicate).
    pub hedge_pairs: BTreeMap<u64, u64>,
}

impl MediaTier {
    /// A tier client for `placement` under `cfg`.
    pub fn new(cfg: MediaTierConfig, placement: PlacementMap) -> Self {
        let cache = SegmentCache::new(cfg.cache_bytes);
        let health = ReplicaHealthMap::new(cfg.breaker_cfg);
        let pressure = PressureDetector::new(cfg.pressure_target, cfg.pressure_interval);
        MediaTier {
            cfg,
            placement,
            selector: ReplicaSelector::new(),
            cache,
            inflight: BTreeMap::new(),
            next_fetch: 1,
            stats: MediaTierStats::default(),
            health,
            fetch_latency: DurationHistogram::new(MediaDuration::from_millis(1), 1024),
            pressure,
            hedge_pairs: BTreeMap::new(),
        }
    }

    /// The hedge delay: the observed P95 fetch latency clamped to the
    /// configured window; the cap until enough samples accumulate.
    pub fn hedge_delay(&self) -> MediaDuration {
        if self.fetch_latency.count() < 16 {
            return self.cfg.hedge_max;
        }
        self.fetch_latency
            .quantile(0.95)
            .clamp(self.cfg.hedge_min, self.cfg.hedge_max)
    }
}

/// One client session's server-side state.
#[derive(Debug)]
pub struct SessionState {
    /// The client's node.
    pub client: NodeId,
    /// The authenticated user, once known.
    pub user: Option<UserId>,
    /// Pricing contract.
    pub class: PricingClass,
    /// The QoS manager/grading engine for this session's streams.
    pub qos: ServerQosManager,
    /// Active media transmissions by component.
    pub streams: BTreeMap<ComponentId, StreamTx>,
    /// The document being delivered.
    pub current_doc: Option<DocumentId>,
    /// Paused by the user.
    pub paused: bool,
    /// Suspended pending migration.
    pub suspended: bool,
    /// Connect time (for duration pricing).
    pub connected_at: MediaTime,
    /// Liveness beats emitted so far.
    pub heartbeat_seq: u64,
    /// Last time media traffic went to the client. Heartbeats only fill
    /// gaps in the media flow — an active stream is its own liveness
    /// signal, and extra datagrams would perturb the shared link models.
    pub last_media: MediaTime,
    /// Last proof the *client* is alive: connect time, then refreshed by
    /// heartbeat acks and stream feedback. A session silent past
    /// [`ServerConfig::client_timeout`] is torn down — without this, a
    /// client that died mid-session would pin its admission reservation
    /// forever.
    pub last_ack: MediaTime,
    /// Admission-time shed: streams started this many grade levels below
    /// nominal because the path lacked headroom for full quality.
    pub shed_levels: u8,
    /// The shared delivery group this session belongs to, if any.
    pub group: Option<u64>,
    /// The session's root trace span (null when tracing is off).
    pub obs_root: SpanId,
    /// The open admission span: connect → first successful document
    /// admission (null when tracing is off or already closed).
    pub obs_admission: SpanId,
    /// Accumulated utility: the integral of the session's
    /// [`stream_utility`] over *delivered media seconds* (the control
    /// experiment's objective function).
    pub util_acc: f64,
    /// Per-stream media position (`next_pts`) the utility integral has
    /// been charged up to.
    pub util_pos: BTreeMap<ComponentId, MediaTime>,
}

impl SessionState {
    /// The session's current utility rate: summed [`stream_utility`] of its
    /// live continuous streams (utility per delivered media second).
    pub fn utility_rate(&self) -> f64 {
        self.streams
            .values()
            .filter(|tx| tx.plan.kind.is_continuous() && !tx.done && !tx.stopped)
            .map(|tx| {
                stream_utility(
                    self.class,
                    tx.plan.kind,
                    tx.source.level().0,
                    tx.source.model().max_level().0,
                )
            })
            .sum()
    }

    /// Media progress not yet folded into [`util_acc`]: each continuous
    /// stream's utility times the media time it has produced since the
    /// last [`utility_touch`]. Immutable so harvesting can read the exact
    /// integral without a touch.
    ///
    /// [`util_acc`]: SessionState::util_acc
    /// [`utility_touch`]: SessionState::utility_touch
    pub fn utility_pending(&self) -> f64 {
        self.streams
            .iter()
            .filter(|(_, tx)| tx.plan.kind.is_continuous())
            .map(|(cid, tx)| {
                let from = self.util_pos.get(cid).copied().unwrap_or(MediaTime::ZERO);
                let dm = (tx.source.next_pts() - from).as_micros().max(0) as f64 / 1_000_000.0;
                stream_utility(
                    self.class,
                    tx.plan.kind,
                    tx.source.level().0,
                    tx.source.model().max_level().0,
                ) * dm
            })
            .sum()
    }

    /// Advance the utility integral over each stream's *media* progress
    /// since the last touch. Charging per delivered media second (not per
    /// wall second) means a starved stream earns nothing while it stalls —
    /// congestion stretching a clip cannot inflate the integral. Call
    /// *before* any mutation that changes a stream's level, so each media
    /// interval is charged at the grade that actually produced it.
    pub fn utility_touch(&mut self) {
        self.util_acc += self.utility_pending();
        for (cid, tx) in &self.streams {
            if tx.plan.kind.is_continuous() {
                self.util_pos.insert(*cid, tx.source.next_pts());
            }
        }
    }

    /// Move stream `cid` to grade `level`: the grading engine and the frame
    /// source switch together, the remote fetch window is re-pointed at the
    /// pacer's position (buffered and in-flight segments were computed at
    /// the old level), and the client hears `StreamRegraded` reliably.
    fn regrade(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        server: NodeId,
        session: SessionId,
        cid: ComponentId,
        level: GradeLevel,
    ) {
        self.qos.force_level(cid, level);
        let Some(tx) = self.streams.get_mut(&cid) else {
            return;
        };
        tx.source.set_level(level);
        let seq = tx.source.next_seq();
        if let Some(r) = tx.remote.as_mut() {
            r.retarget(seq);
        }
        api.send_reliable(
            server,
            self.client,
            ServiceMsg::StreamRegraded {
                session,
                component: cid,
                level: level.0,
            },
        );
    }
}

/// One degradation-ladder step: a victim session walked one level down,
/// with the per-component levels it held before (exact restore target).
#[derive(Debug, Clone)]
pub struct LadderStep {
    /// The victim session.
    pub session: SessionId,
    /// The levels its continuous streams held before this step.
    pub prior: Vec<(ComponentId, GradeLevel)>,
}

/// A distributed search in progress.
#[derive(Debug)]
struct PendingQuery {
    session: SessionId,
    client: NodeId,
    hits: Vec<SearchHit>,
    awaiting: usize,
}

/// Configuration of a server actor.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Flow-scheduler lead configuration.
    pub flow: FlowConfig,
    /// Grading order policy (video-first per the paper).
    pub grading_order: GradingOrder,
    /// Grading hysteresis.
    pub hysteresis: GradingHysteresis,
    /// Presentation floors applied to admitted streams.
    pub floor: PresentationFloor,
    /// Grace period for suspended connections.
    pub suspend_grace: MediaDuration,
    /// Per-session liveness heartbeat cadence (clients must expect the
    /// same interval).
    pub heartbeat_interval: MediaDuration,
    /// Declare a client dead — and tear its session down — after this long
    /// with no heartbeat ack or feedback from it. Must comfortably exceed
    /// any partition the deployment is expected to ride out.
    pub client_timeout: MediaDuration,
    /// Instead of rejecting a document request outright, retry admission
    /// with the streams shed up to this many grade levels below nominal.
    pub max_admission_shed: u8,
    /// Stream-sharing policy (batching windows / patching). `Off` by
    /// default: every session keeps its private flow.
    pub sharing: SharingPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            flow: FlowConfig::default(),
            grading_order: GradingOrder::default(),
            hysteresis: GradingHysteresis::default(),
            floor: PresentationFloor::default(),
            suspend_grace: MediaDuration::from_secs(30),
            heartbeat_interval: MediaDuration::from_millis(400),
            client_timeout: MediaDuration::from_secs(30),
            max_admission_shed: 3,
            sharing: SharingPolicy {
                mode: SharingMode::Off,
                ..SharingPolicy::default()
            },
        }
    }
}

/// The multimedia server actor.
pub struct ServerActor {
    /// The node this server runs on.
    pub node: NodeId,
    /// The server's logical id.
    pub server_id: ServerId,
    /// Document + media database.
    pub db: MultimediaDb,
    /// Subscribers and pricing.
    pub accounts: AccountsDb,
    /// Admission control.
    pub admission: AdmissionController,
    /// Configuration.
    pub cfg: ServerConfig,
    /// Live sessions.
    pub sessions: BTreeMap<SessionId, SessionState>,
    next_session: u64,
    /// Other servers (for search fan-out), set by the world builder.
    pub peers: Vec<NodeId>,
    /// Tutor / user mailboxes by address.
    pub mailboxes: BTreeMap<String, Vec<MailMessage>>,
    /// Per-user document annotations (§5).
    pub annotations: BTreeMap<(UserId, DocumentId), Vec<String>>,
    queries: BTreeMap<u64, PendingQuery>,
    /// Subscription forms processed here that the world must replicate.
    pub pending_replications: Vec<(UserId, hermes_server::SubscriptionForm)>,
    /// Tracked request ids already processed, per client node (bounded
    /// dedup window; ids are client-monotone so pruning the smallest is
    /// safe).
    seen_reqs: BTreeMap<NodeId, std::collections::BTreeSet<u64>>,
    /// Sessions rebuilt from a client [`ServiceMsg::ReconnectRequest`]
    /// after this server lost its state: (old session, new session).
    pub rebuilt_sessions: Vec<(SessionId, SessionId)>,
    /// The distributed media tier, when deployed ([`ServiceWorld::distribute_media`]
    /// wires it); `None` keeps the pre-tier fully local delivery path.
    ///
    /// [`ServiceWorld::distribute_media`]: crate::world::ServiceWorld::distribute_media
    pub media: Option<MediaTier>,
    /// Per-object popularity accounting + the batching/patching decision
    /// function (pure policy; the actor owns the groups and timers).
    pub sharing: BatchingPolicy,
    /// Live shared delivery groups by group id.
    pub groups: BTreeMap<u64, SharedGroup>,
    /// The joinable (latest) group per document.
    open_groups: BTreeMap<DocumentId, u64>,
    next_group: u64,
    /// Stream-sharing counters.
    pub sharing_stats: SharingStats,
    /// Sessions stepped down by the degradation ladder, most recent last
    /// (restores pop in LIFO order).
    pub ladder_stack: Vec<LadderStep>,
    /// The ladder evaluation timer chain is running.
    ladder_armed: bool,
    /// Last instant the ladder saw pressure (or acted); restores wait out
    /// the hysteresis from here.
    ladder_last_pressure: MediaTime,
    /// The fleet controller, when this server hosts the control plane
    /// ([`host_controller`](Self::host_controller)).
    pub controller: Option<FleetController>,
    /// The controller host this server reports to (`None` disables the
    /// control-plane report chain).
    pub control_peer: Option<NodeId>,
    /// Cadence of the control-plane report timer.
    control_report_period: MediaDuration,
    /// Fleet admission price set by the controller: new admissions start
    /// this many grade levels below nominal.
    pub admission_price: u8,
    /// Controller failover config, when HA is enabled on this deployment
    /// (`None` pins the control plane to its original host, pre-HA style).
    pub control_ha: Option<ControllerConfig>,
    /// Freshness of server-fleet control reports — the liveness view the
    /// election and the leader's quorum check both read. RAM: a restarted
    /// process re-learns liveness from scratch.
    ctrl_peers: PeerFreshness,
    /// This follower's view of the controller lease (epoch, holder, last
    /// beat).
    pub ctrl_lease: LeaseView,
    /// Administrative controller snapshot cached from the last accepted
    /// lease beat. Models the replicated control ledger on disk (like the
    /// databases): it survives a crash, so a restarted server can still
    /// seed a successor controller.
    ctrl_snapshot: ControlSnapshot,
    /// Highest controller epoch this node has observed — the fencing
    /// record. Also disk-modeled: epochs must never regress across
    /// restarts or a zombie could actuate on an amnesiac fleet.
    pub ctrl_epoch_seen: u64,
    /// Highest epoch this node has promised to any election candidate
    /// (its own candidacies included). Disk-modeled like the fence
    /// record: promise monotonicity across restarts is what makes the
    /// vote round a proof — two majorities for one epoch would have to
    /// intersect in a voter whose promise forbids the second grant.
    ctrl_promised: u64,
    /// This node's pending failover candidacy, if any. RAM: an
    /// interrupted candidacy is simply retried (at a higher epoch).
    ctrl_candidacy: Option<CtrlCandidacy>,
    /// Controller HA counters (elections won, demotions, fenced and stale
    /// command drops).
    pub ctrl_stats: CtrlHaStats,
    /// When this node last won the controller election.
    pub last_elected_at: Option<MediaTime>,
    /// Lease beats sent while leading (the lease `seq`).
    ctrl_lease_seq: u64,
    /// Utility-seconds of sessions that have already closed (the live
    /// remainder sits in each [`SessionState::util_acc`]).
    pub util_closed: f64,
    /// SLO burn-rate monitor over this server's user-visible objectives:
    /// media fetch latency (`slo.fetch`, the leading signal for media-tier
    /// saturation) and admission join latency (`slo.join`). Checked every
    /// control-report beat; the max burn feeds the controller as
    /// `ctrl.slo_burn` pressure ahead of queue depth.
    pub slo: SloMonitor,
}

/// Fetch-latency SLO: a fetch slower than this is a bad event.
const SLO_FETCH_THRESHOLD: MediaDuration = MediaDuration::from_millis(150);
/// Join-latency SLO: connect→admit slower than this is a bad event.
const SLO_JOIN_THRESHOLD: MediaDuration = MediaDuration::from_millis(500);
/// Error budget for both server SLOs: 50 bad per 1000 (95% objective).
const SLO_BUDGET_PER_1000: f64 = 50.0;

/// Index of the fetch-latency spec in [`server_slo_monitor`]'s spec list.
const SLO_FETCH: usize = 0;
/// Index of the join-latency spec.
const SLO_JOIN: usize = 1;

fn server_slo_monitor() -> SloMonitor {
    SloMonitor::new(vec![
        SloSpec::latency("slo.fetch", SLO_FETCH_THRESHOLD, SLO_BUDGET_PER_1000),
        SloSpec::latency("slo.join", SLO_JOIN_THRESHOLD, SLO_BUDGET_PER_1000),
    ])
}

/// A pending failover candidacy: the epoch this node asked the fleet to
/// grant it, the voters heard so far (self included), and when the ask
/// went out (a candidacy that collects no majority is retried after two
/// beat intervals, at a strictly higher epoch).
#[derive(Debug, Clone)]
struct CtrlCandidacy {
    epoch: u64,
    votes: BTreeSet<u64>,
    since: MediaTime,
}

/// Controller high-availability counters of one server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlHaStats {
    /// Stale-epoch control commands dropped by the fence.
    pub fence_drops: u64,
    /// Regrade commands dropped because their target was gone, suspended,
    /// or had no step left (the `ctrl_stale` class).
    pub stale_drops: u64,
    /// Failover elections this node won.
    pub elections: u64,
    /// Self-demotions (report quorum lost, or a higher-epoch lease seen).
    pub demotions: u64,
    /// Lease beats broadcast while leading.
    pub lease_beats: u64,
}

impl ServerActor {
    /// Create a server actor for a node.
    pub fn new(node: NodeId, server_id: ServerId, cfg: ServerConfig) -> Self {
        let sharing = BatchingPolicy::new(cfg.sharing.clone());
        ServerActor {
            node,
            server_id,
            db: MultimediaDb::new(server_id),
            accounts: AccountsDb::new(),
            admission: AdmissionController::new(),
            cfg,
            sessions: BTreeMap::new(),
            next_session: 1,
            peers: Vec::new(),
            mailboxes: BTreeMap::new(),
            annotations: BTreeMap::new(),
            queries: BTreeMap::new(),
            pending_replications: Vec::new(),
            seen_reqs: BTreeMap::new(),
            rebuilt_sessions: Vec::new(),
            media: None,
            sharing,
            groups: BTreeMap::new(),
            open_groups: BTreeMap::new(),
            next_group: 1,
            sharing_stats: SharingStats::default(),
            ladder_stack: Vec::new(),
            ladder_armed: false,
            ladder_last_pressure: MediaTime::ZERO,
            controller: None,
            control_peer: None,
            control_report_period: MediaDuration::from_millis(100),
            admission_price: 0,
            control_ha: None,
            ctrl_peers: PeerFreshness::new(),
            ctrl_lease: LeaseView::default(),
            ctrl_snapshot: ControlSnapshot::default(),
            ctrl_epoch_seen: 0,
            ctrl_promised: 0,
            ctrl_candidacy: None,
            ctrl_stats: CtrlHaStats::default(),
            last_elected_at: None,
            ctrl_lease_seq: 0,
            util_closed: 0.0,
            slo: server_slo_monitor(),
        }
    }

    /// The node crashed: volatile state (sessions, reservations, dedup
    /// windows, in-flight searches) is lost. The databases (documents,
    /// accounts) model disk and survive. `next_session` also survives —
    /// epoch-style allocation keeps rebuilt session ids from colliding with
    /// ids still held by clients of the previous incarnation.
    pub fn on_crash(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        // Shared groups are RAM: dissolve them (and their simulator
        // multicast memberships) before the sessions vanish.
        let gids: Vec<u64> = self.groups.keys().copied().collect();
        for gid in gids {
            self.end_group(api, gid);
        }
        let ids: Vec<SessionId> = self.sessions.keys().copied().collect();
        for session in ids {
            if let Some(conn) = self.admission.release(session) {
                api.net_mut().release(conn);
            }
        }
        // Every live session dies with the process — say so, and close its
        // spans, so the trace shows a terminal state for each one (the
        // lifecycle invariant checker audits exactly this).
        for (session, mut s) in std::mem::take(&mut self.sessions) {
            // Utility delivered up to the crash still counts toward the
            // run's aggregate; fold the integral into the closed ledger.
            s.utility_touch();
            self.util_closed += s.util_acc;
            api.emit(
                self.node,
                Severity::Warn,
                "session_crash_lost",
                Labels::session(session.raw()).peer(s.client.raw()),
            );
            api.span_end(s.obs_admission);
            api.span_end(s.obs_root);
        }
        self.seen_reqs.clear();
        self.queries.clear();
        // The segment cache and fetch table are RAM: gone with the process.
        // Cumulative statistics survive for post-run reporting only.
        if let Some(tier) = self.media.as_mut() {
            let stats = tier.cache.stats;
            tier.cache = SegmentCache::new(tier.cfg.cache_bytes);
            tier.cache.stats = stats;
            tier.inflight.clear();
            tier.selector = ReplicaSelector::new();
            // Health scores, hedge races and pressure state are RAM too;
            // breaker trips live in `stats` and survive for reporting.
            tier.health = ReplicaHealthMap::new(tier.cfg.breaker_cfg);
            tier.hedge_pairs.clear();
            tier.pressure =
                PressureDetector::new(tier.cfg.pressure_target, tier.cfg.pressure_interval);
        }
        self.ladder_stack.clear();
        self.ladder_armed = false;
        // Controller leadership is RAM: it dies with the process, and the
        // restarted node rejoins as a follower that must win a fresh
        // election (at a strictly higher epoch) before it may actuate
        // again. The fencing epoch record, the vote promise and the
        // lease snapshot model disk, like the databases, and survive —
        // epochs never regress and promises are never forgotten.
        self.controller = None;
        self.ctrl_peers.clear();
        self.ctrl_candidacy = None;
    }

    fn start_heartbeat(&mut self, api: &mut SimApi<'_, ServiceMsg>, session: SessionId) {
        api.set_timer(
            self.node,
            self.cfg.heartbeat_interval,
            timers::TK_HEARTBEAT,
            session.raw(),
        );
    }

    /// Handle an incoming message addressed to this server.
    pub fn on_message(&mut self, api: &mut SimApi<'_, ServiceMsg>, from: NodeId, msg: ServiceMsg) {
        match msg {
            ServiceMsg::Tracked { req, inner } => {
                // Always re-acknowledge — the previous ack may have died in
                // a partition or with a crashed incarnation — but process
                // the inner request only on first sight of the id.
                api.send_reliable(self.node, from, ServiceMsg::Ack { req });
                let seen = self.seen_reqs.entry(from).or_default();
                if seen.insert(req) {
                    if seen.len() > 128 {
                        let oldest = *seen.iter().next().unwrap();
                        seen.remove(&oldest);
                    }
                    self.on_message(api, from, *inner);
                }
            }
            ServiceMsg::ReconnectRequest {
                session,
                user,
                class,
                document,
                position_micros,
            } => self.on_reconnect(api, from, session, user, class, document, position_micros),
            ServiceMsg::Connect { user, class } => self.on_connect(api, from, user, class),
            ServiceMsg::Subscribe { session, form } => self.on_subscribe(api, session, form),
            ServiceMsg::DocRequest { session, document } => {
                self.on_doc_request(api, session, document)
            }
            ServiceMsg::PatchRequest { session, group } => {
                self.on_patch_request(api, session, group)
            }
            ServiceMsg::Feedback {
                session,
                measurements,
                ..
            } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    s.last_ack = api.now();
                }
                self.on_feedback(api, session, &measurements)
            }
            ServiceMsg::HeartbeatAck { session, .. } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    s.last_ack = api.now();
                }
            }
            ServiceMsg::MediaFetchChunk {
                fetch,
                last,
                frames,
                ..
            } => self.on_media_chunk(api, fetch, frames, last),
            ServiceMsg::MediaFetchError { fetch, .. } => self.on_media_error(api, fetch),
            ServiceMsg::MediaFetchBusy { fetch } => self.on_media_busy(api, fetch),
            ServiceMsg::Pause { session } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    s.paused = true;
                }
            }
            ServiceMsg::Resume { session } => self.on_resume(api, session),
            ServiceMsg::DisableStream { session, component } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    if let Some(tx) = s.streams.get_mut(&component) {
                        tx.stopped = true;
                    }
                }
            }
            ServiceMsg::SuspendConnection { session } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    s.suspended = true;
                    s.paused = true;
                    api.set_timer(
                        self.node,
                        self.cfg.suspend_grace,
                        timers::TK_GRACE,
                        session.raw(),
                    );
                }
            }
            ServiceMsg::ResumeSuspended { session } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    if s.suspended {
                        s.suspended = false;
                        s.paused = false;
                        let topics = self.db.topics().to_vec();
                        let client = s.client;
                        api.send_reliable(
                            self.node,
                            client,
                            ServiceMsg::TopicList { session, topics },
                        );
                    }
                }
            }
            ServiceMsg::Disconnect { session } => self.on_disconnect(api, session),
            ServiceMsg::SearchRequest {
                session,
                token,
                query,
            } => self.on_search_request(api, session, token, query),
            ServiceMsg::SearchFanout {
                query,
                token,
                origin,
            } => {
                let hits = self.local_hits(&token);
                api.send_reliable(self.node, origin, ServiceMsg::SearchPartial { query, hits });
            }
            ServiceMsg::SearchPartial { query, hits } => self.on_search_partial(api, query, hits),
            ServiceMsg::Annotate {
                session,
                document,
                text,
            } => {
                if let Some(user) = self.sessions.get(&session).and_then(|s| s.user) {
                    self.annotations
                        .entry((user, document))
                        .or_default()
                        .push(text);
                }
            }
            ServiceMsg::AnnotationsFetch { session, document } => {
                if let Some(sess) = self.sessions.get(&session) {
                    if let Some(user) = sess.user {
                        let notes = self
                            .annotations
                            .get(&(user, document))
                            .cloned()
                            .unwrap_or_default();
                        api.send_reliable(
                            self.node,
                            sess.client,
                            ServiceMsg::Annotations { document, notes },
                        );
                    }
                }
            }
            ServiceMsg::MailSend { mail } => {
                self.mailboxes
                    .entry(mail.to.clone())
                    .or_default()
                    .push(mail);
            }
            ServiceMsg::MailFetch { address } => {
                let messages = self.mailboxes.get(&address).cloned().unwrap_or_default();
                api.send_reliable(self.node, from, ServiceMsg::MailBox { messages });
            }
            ServiceMsg::ControlReport { registry, epoch } => {
                // A peer server's report is a liveness proof for the
                // failover election, whoever currently leads.
                if self.peers.contains(&from) {
                    self.ctrl_peers.heard(from.raw(), api.now());
                }
                // Epoch gossip: the report carries the sender's fence
                // record, so a node that missed the new leader's beats
                // (restarted, or healed from a partition that also cut
                // off the leader) learns a succession happened before
                // its own lease clock runs out — and a zombie leader
                // hears it has been superseded and stands down.
                self.ctrl_epoch_seen = self.ctrl_epoch_seen.max(epoch);
                if self
                    .controller
                    .as_ref()
                    .is_some_and(|c| c.epoch() < self.ctrl_epoch_seen)
                {
                    self.demote_controller(api);
                }
                if let Some(c) = self.controller.as_mut() {
                    c.ingest(api.now(), from.raw(), &registry);
                }
            }
            // Not match guards: `ctrl_fenced` counts and traces the drop,
            // so it must run exactly once whether or not the body does.
            #[allow(clippy::collapsible_match)]
            ServiceMsg::ControlRegrade {
                session,
                upgrade,
                epoch,
            } => {
                if !self.ctrl_fenced(api, epoch) {
                    self.apply_control_regrade(api, session, upgrade);
                }
            }
            #[allow(clippy::collapsible_match)]
            ServiceMsg::ControlDirective { shed, epoch } => {
                if !self.ctrl_fenced(api, epoch) {
                    self.admission_price = shed;
                }
            }
            ServiceMsg::ControlLease {
                epoch,
                seq: _,
                price,
                standby,
                scaled_out,
            } => {
                self.on_control_lease(api, from, epoch, price, standby, scaled_out);
            }
            ServiceMsg::ControlVoteReq { epoch } => {
                self.on_control_vote_req(api, from, epoch);
            }
            ServiceMsg::ControlVote { epoch } => {
                self.on_control_vote(api, from, epoch);
            }
            _ => { /* messages addressed to clients are ignored here */ }
        }
        self.drain_breaker_events(api);
    }

    /// Emit a trace event per breaker state change the health map recorded
    /// since the last drain. Trips (`to == Open`) are skipped here: the
    /// fetch-outcome paths emit `breaker_trip` eagerly with richer context
    /// (stream ejection, flight dump). What remains — Open → HalfOpen
    /// probes, HalfOpen → Closed recoveries, incarnation resets — gives the
    /// invariant checker a complete, legal-order transition record.
    fn drain_breaker_events(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let Some(tier) = self.media.as_mut() else {
            return;
        };
        let transitions = tier.health.take_transitions();
        for t in transitions {
            let name = match (t.to, t.cause) {
                (BreakerState::Open, _) => continue,
                (BreakerState::HalfOpen, _) => "breaker_probe",
                (BreakerState::Closed, "reset") => "breaker_reset",
                (BreakerState::Closed, _) => "breaker_close",
            };
            api.emit(
                self.node,
                Severity::Info,
                name,
                Labels::for_peer(t.node.raw()),
            );
        }
    }

    /// Handle a timer addressed to this server.
    pub fn on_timer(&mut self, api: &mut SimApi<'_, ServiceMsg>, key: u64, payload: u64) {
        match key {
            timers::TK_STREAM_START => {
                let (session, component) = timers::unpack(payload);
                self.start_stream(api, session, component);
            }
            timers::TK_FRAME => {
                let (session, component) = timers::unpack(payload);
                self.send_frame(api, session, component);
            }
            timers::TK_HEARTBEAT => {
                let session = SessionId::new(payload);
                if let Some(s) = self.sessions.get_mut(&session) {
                    let now = api.now();
                    // A session whose client has proven nothing for the
                    // timeout is dead weight: reap it so its admission
                    // reservation returns to the pool. Suspended sessions
                    // are exempt — TK_GRACE owns their fate.
                    if !s.suspended && now - s.last_ack >= self.cfg.client_timeout {
                        api.emit(
                            self.node,
                            Severity::Warn,
                            "client_expired",
                            Labels::session(session.raw()).peer(s.client.raw()),
                        );
                        self.teardown_session(api, session);
                        return;
                    }
                    // Gap-filling: an active media stream is its own
                    // liveness signal, so only beat when the client has
                    // heard nothing for a full interval.
                    if now - s.last_media >= self.cfg.heartbeat_interval {
                        s.heartbeat_seq += 1;
                        let beat = ServiceMsg::Heartbeat {
                            session,
                            seq: s.heartbeat_seq,
                        };
                        let client = s.client;
                        api.send(self.node, client, beat);
                    }
                    self.start_heartbeat(api, session);
                }
                // Session gone: the chain dies with it.
            }
            timers::TK_GRACE => {
                let session = SessionId::new(payload);
                let expired = self
                    .sessions
                    .get(&session)
                    .map(|s| s.suspended)
                    .unwrap_or(false);
                if expired {
                    let client = self.sessions[&session].client;
                    self.teardown_session(api, session);
                    api.send_reliable(self.node, client, ServiceMsg::SuspendExpired { session });
                }
            }
            timers::TK_HEDGE => self.on_hedge_timer(api, payload),
            timers::TK_LADDER => self.on_ladder_tick(api),
            timers::TK_REPUMP => self.on_repump(api, payload),
            timers::TK_CONTROL => self.on_control_tick(api),
            timers::TK_CONTROL_REPORT => self.on_control_report(api),
            timers::TK_CTRL_LEASE => self.on_ctrl_lease(api),
            timers::TK_CTRL_WATCH => self.on_ctrl_watch(api),
            _ => {}
        }
        self.drain_breaker_events(api);
    }

    fn on_connect(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        from: NodeId,
        user: Option<UserId>,
        class: PricingClass,
    ) {
        self.ensure_ladder(api);
        let session = SessionId::new(self.next_session);
        self.next_session += 1;
        let authorized = user
            .map(|u| self.accounts.is_authorized(u))
            .unwrap_or(false);
        let now = api.now();
        // Originate the session's causal root: every downstream send (the
        // ack, scenario fetches, stream pumps, retries) inherits this
        // context, so a later playout gap can be walked back to it.
        api.cause_root(session.raw(), self.node);
        let obs_root = api.session_span(session.raw(), self.node);
        let obs_admission = api.span_start(
            self.node,
            "admission",
            Labels::session(session.raw()),
            obs_root,
        );
        api.emit(
            self.node,
            Severity::Info,
            "session_connect",
            Labels::session(session.raw()).peer(from.raw()),
        );
        self.sessions.insert(
            session,
            SessionState {
                client: from,
                user: if authorized { user } else { None },
                class,
                qos: ServerQosManager::new(self.cfg.grading_order, self.cfg.hysteresis),
                streams: BTreeMap::new(),
                current_doc: None,
                paused: false,
                suspended: false,
                connected_at: now,
                heartbeat_seq: 0,
                last_media: now,
                last_ack: now,
                shed_levels: 0,
                group: None,
                obs_root,
                obs_admission,
                util_acc: 0.0,
                util_pos: BTreeMap::new(),
            },
        );
        if authorized {
            let u = user.unwrap();
            self.accounts.record_login(u, now);
            self.accounts.charge(u, Charge::Connection);
        }
        self.start_heartbeat(api, session);
        api.send_reliable(
            self.node,
            from,
            ServiceMsg::ConnectAck {
                session,
                must_subscribe: !authorized,
            },
        );
        if authorized {
            let topics = self.db.topics().to_vec();
            api.send_reliable(self.node, from, ServiceMsg::TopicList { session, topics });
        }
    }

    fn on_subscribe(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        form: hermes_server::SubscriptionForm,
    ) {
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        let user = self.accounts.subscribe(form.clone());
        s.user = Some(user);
        s.class = form.class;
        let client = s.client;
        self.accounts.record_login(user, api.now());
        self.accounts.charge(user, Charge::Connection);
        // The world replicates the form to every other server (§5).
        self.pending_replications.push((user, form));
        api.send_reliable(
            self.node,
            client,
            ServiceMsg::SubscribeAck { session, user },
        );
        let topics = self.db.topics().to_vec();
        api.send_reliable(self.node, client, ServiceMsg::TopicList { session, topics });
    }

    fn path_condition(&self, api: &SimApi<'_, ServiceMsg>, client: NodeId) -> PathCondition {
        let now = api.now();
        let net = api.net();
        let links = net.path_links(self.node, client).unwrap_or_default();
        let capacity = links
            .iter()
            .filter_map(|(a, b)| net.link(*a, *b))
            .map(|l| l.spec.bandwidth_bps)
            .min()
            .unwrap_or(0);
        let free = net.path_free_bandwidth(self.node, client, now).unwrap_or(0);
        let prop: i64 = links
            .iter()
            .filter_map(|(a, b)| net.link(*a, *b))
            .map(|l| l.spec.propagation.as_micros())
            .sum();
        PathCondition {
            capacity_bps: capacity,
            committed_bps: capacity.saturating_sub(free),
            rtt: MediaDuration::from_micros(prop * 2 + 2_000),
        }
    }

    fn on_doc_request(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        document: DocumentId,
    ) {
        if self.sharing.policy().mode == SharingMode::Off {
            self.deliver_document(
                api,
                session,
                document,
                MediaDuration::ZERO,
                true,
                MediaDuration::ZERO,
            );
            return;
        }
        if !self.sessions.contains_key(&session) {
            return;
        }
        let key = document.to_string();
        self.sharing.on_request(&key);
        let now = api.now();
        let phase = self
            .open_groups
            .get(&document)
            .and_then(|gid| self.groups.get(gid))
            .map(|g| {
                if now < g.starts_at {
                    GroupPhase::Pending
                } else {
                    GroupPhase::Streaming {
                        elapsed: now - g.starts_at,
                    }
                }
            });
        match self.sharing.decide(&key, phase) {
            ShareDecision::Unicast => self.deliver_document(
                api,
                session,
                document,
                MediaDuration::ZERO,
                true,
                MediaDuration::ZERO,
            ),
            ShareDecision::OpenGroup { wait } => {
                api.emit_val(
                    self.node,
                    Severity::Info,
                    "share_open",
                    Labels::session(session.raw()),
                    wait.as_micros(),
                );
                self.open_shared_group(api, session, document, wait)
            }
            ShareDecision::JoinPending => {
                api.emit(
                    self.node,
                    Severity::Info,
                    "share_join",
                    Labels::session(session.raw()),
                );
                self.join_shared_group(api, session, document, None)
            }
            ShareDecision::JoinWithPatch { offset } => {
                api.emit_val(
                    self.node,
                    Severity::Info,
                    "share_join_patch",
                    Labels::session(session.raw()),
                    offset.as_micros(),
                );
                self.join_shared_group(api, session, document, Some(offset))
            }
        }
    }

    /// Open a new shared group for `document`, led by `session`: deliver
    /// the document to the leader with the batching wait folded into every
    /// stream's start, then wrap the leader's continuous streams into a
    /// multicast group later joiners attach to.
    fn open_shared_group(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        document: DocumentId,
        wait: MediaDuration,
    ) {
        self.leave_group(api, session);
        let now = api.now();
        self.deliver_document(api, session, document, MediaDuration::ZERO, true, wait);
        // Only form a group when the leader actually got continuous
        // streams (admission may have failed, or the lesson is discrete).
        let Some(s) = self.sessions.get(&session) else {
            return;
        };
        if s.current_doc != Some(document)
            || !s
                .streams
                .values()
                .any(|tx| tx.plan.kind.is_continuous() && !tx.done)
        {
            return;
        }
        let client = s.client;
        let objects: Vec<String> = s
            .streams
            .values()
            .filter(|tx| tx.plan.kind.is_continuous())
            .filter_map(|tx| tx.remote.as_ref().map(|r| r.object.clone()))
            .collect();
        // Pin the group's working set: shared flows serve many viewers per
        // fetched byte, so their segments must survive cache pressure.
        if let Some(tier) = self.media.as_mut() {
            for o in &objects {
                tier.cache.pin(o);
            }
        }
        let gid = (self.node.raw() << 20) | self.next_group;
        self.next_group += 1;
        self.groups.insert(
            gid,
            SharedGroup {
                id: gid,
                epoch: 0,
                document,
                leader: session,
                members: vec![session],
                starts_at: now + wait,
                objects,
                patch_cutoffs: BTreeMap::new(),
            },
        );
        self.open_groups.insert(document, gid);
        self.sessions.get_mut(&session).unwrap().group = Some(gid);
        api.mcast_join(gid, client);
        self.sharing_stats.groups_opened += 1;
        api.send_reliable(
            self.node,
            client,
            ServiceMsg::StreamJoin {
                session,
                group: gid,
                epoch: 0,
                offset_micros: -1,
            },
        );
    }

    /// Attach `session` to the document's joinable group. `offset` is
    /// `Some` when the shared flow already started (the client must patch
    /// the missed prefix). The joiner gets the scenario, its own discrete
    /// objects and a tail-only admission reservation — the server→backbone
    /// trunk carries one shared copy regardless of the member count.
    fn join_shared_group(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        document: DocumentId,
        offset: Option<MediaDuration>,
    ) {
        let Some(&gid) = self.open_groups.get(&document) else {
            // Raced with the group ending: fall back to a private flow.
            self.deliver_document(
                api,
                session,
                document,
                MediaDuration::ZERO,
                true,
                MediaDuration::ZERO,
            );
            return;
        };
        self.leave_group(api, session);
        let Some(s) = self.sessions.get(&session) else {
            return;
        };
        let client = s.client;
        let class = s.class;
        let user = s.user;
        let doc = match self.db.document(document) {
            Ok(d) => d.clone(),
            Err(e) => {
                api.send_reliable(
                    self.node,
                    client,
                    ServiceMsg::DocError {
                        session,
                        reason: e.to_string(),
                    },
                );
                return;
            }
        };
        let flow = compute_flow_scenario(&doc.scenario, self.cfg.flow);
        if let Some(conn) = self.admission.release(session) {
            api.net_mut().release(conn);
        }
        if let Err(reason) = self.admit_with_shedding(api, session, class, client, &flow, true) {
            api.send_reliable(self.node, client, ServiceMsg::DocError { session, reason });
            return;
        }
        if let Some(u) = user {
            self.accounts.record_retrieval(u, document);
            self.accounts.charge(u, Charge::Retrieval(document));
        }
        self.release_session_readers(session);
        let s = self.sessions.get_mut(&session).unwrap();
        s.streams.clear();
        s.qos = ServerQosManager::new(self.cfg.grading_order, self.cfg.hysteresis);
        s.current_doc = Some(document);
        s.paused = false;
        s.shed_levels = 0;
        api.send_reliable(
            self.node,
            client,
            ServiceMsg::ScenarioResponse {
                session,
                document,
                markup: doc.markup.clone(),
                lead_micros: flow.lead.as_micros(),
            },
        );
        // Discrete objects (images, text) stay per-session: they are tiny
        // next to the continuous media and every member needs its own copy.
        // Their schedule is shifted onto the *group's* timeline — a pending
        // member receiving its images early would satisfy the client's
        // prefill check and start playout before the shared flow exists.
        let remaining_wait = self
            .groups
            .get(&gid)
            .map(|g| (g.starts_at - api.now()).max(MediaDuration::ZERO))
            .unwrap_or(MediaDuration::ZERO);
        let plans: Vec<FlowPlan> = flow
            .plans
            .iter()
            .filter(|p| !p.kind.is_continuous())
            .cloned()
            .collect();
        for plan in &plans {
            let delay =
                (plan.send_start - MediaTime::ZERO).max(MediaDuration::ZERO) + remaining_wait;
            self.schedule_discrete(api, session, plan, delay);
        }
        // Snapshot the leader's pacer positions now: this event also enters
        // the joiner into the multicast group, so every frame multicast
        // after this instant reaches it — the patch must cover exactly the
        // pts before these positions, no more.
        let cutoffs: Option<Vec<(ComponentId, MediaTime)>> = if offset.is_some() {
            let leader = self.groups.get(&gid).map(|g| g.leader);
            leader.and_then(|l| self.sessions.get(&l)).map(|ls| {
                ls.streams
                    .iter()
                    .filter(|(_, tx)| tx.plan.kind.is_continuous())
                    .map(|(c, tx)| (*c, tx.source.next_pts()))
                    .collect()
            })
        } else {
            None
        };
        let Some(g) = self.groups.get_mut(&gid) else {
            return;
        };
        g.members.push(session);
        if let Some(c) = cutoffs {
            g.patch_cutoffs.insert(session, c);
        }
        let epoch = g.epoch;
        self.sessions.get_mut(&session).unwrap().group = Some(gid);
        api.mcast_join(gid, client);
        let offset_micros = match offset {
            // The shared flow already runs: the client must ask for the
            // missed prefix (any non-negative offset, including zero —
            // frames may have left in this very instant).
            Some(o) => o.as_micros().max(0),
            None => {
                self.sharing_stats.joins_pending += 1;
                -1
            }
        };
        if offset.is_some() {
            self.sharing_stats.joins_patched += 1;
        }
        api.send_reliable(
            self.node,
            client,
            ServiceMsg::StreamJoin {
                session,
                group: gid,
                epoch,
                offset_micros,
            },
        );
    }

    /// The joiner asked for the missed prefix of its shared flow: start a
    /// unicast patch stream per continuous component, cut off *strictly
    /// before* the leader's current pacer position — the next multicast
    /// frame carries exactly that pts, so patch + shared flow tile the
    /// stream with no duplicate and no gap.
    fn on_patch_request(&mut self, api: &mut SimApi<'_, ServiceMsg>, session: SessionId, gid: u64) {
        if self.sessions.get(&session).and_then(|s| s.group) != Some(gid) {
            return;
        }
        let Some(g) = self.groups.get_mut(&gid) else {
            return;
        };
        let document = g.document;
        let Some(cutoffs) = g.patch_cutoffs.remove(&session) else {
            return; // no snapshot (or already patched): nothing missed
        };
        let doc = match self.db.document(document) {
            Ok(d) => d.clone(),
            Err(_) => return,
        };
        let flow = compute_flow_scenario(&doc.scenario, self.cfg.flow);
        for plan in &flow.plans {
            if !plan.kind.is_continuous() {
                continue;
            }
            let Some(&(_, cutoff)) = cutoffs.iter().find(|(c, _)| *c == plan.component) else {
                continue;
            };
            if cutoff <= MediaTime::ZERO {
                continue; // nothing missed yet
            }
            let source =
                self.db
                    .store(plan.kind)
                    .open(&plan.source.object, plan.component, plan.duration);
            let Some(source) = source else {
                continue;
            };
            let remote = self.make_remote(&plan.source.object, plan.kind, 0);
            let ssrc = ((session.raw() as u32) << 16) ^ plan.component.raw() as u32;
            let s = self.sessions.get_mut(&session).unwrap();
            s.streams.insert(
                plan.component,
                StreamTx {
                    plan: plan.clone(),
                    source,
                    sender: RtpSender::new(ssrc, plan.encoding),
                    done: false,
                    stopped: false,
                    frames_sent: 0,
                    bytes_sent: 0,
                    remote,
                    patch_until: Some(cutoff),
                },
            );
            self.attach_remote(api, session, plan.component);
            api.set_timer(
                self.node,
                MediaDuration::ZERO,
                timers::TK_STREAM_START,
                timers::pack(session, plan.component),
            );
            self.sharing_stats.patch_streams += 1;
        }
    }

    /// Detach `session` from its shared group, if any. The leader leaving
    /// dissolves the whole group (members keep whatever they buffered).
    fn leave_group(&mut self, api: &mut SimApi<'_, ServiceMsg>, session: SessionId) {
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        let Some(gid) = s.group.take() else {
            return;
        };
        let client = s.client;
        let Some(g) = self.groups.get_mut(&gid) else {
            return;
        };
        g.members.retain(|&m| m != session);
        api.mcast_leave(gid, client);
        if g.leader == session || g.members.is_empty() {
            self.end_group(api, gid);
        }
    }

    /// Dissolve a shared group: release memberships, unpin its cached
    /// segments, and stop advertising it as joinable.
    fn end_group(&mut self, api: &mut SimApi<'_, ServiceMsg>, gid: u64) {
        let Some(g) = self.groups.remove(&gid) else {
            return;
        };
        if self.open_groups.get(&g.document) == Some(&gid) {
            self.open_groups.remove(&g.document);
        }
        for m in g.members {
            if let Some(s) = self.sessions.get_mut(&m) {
                s.group = None;
                api.mcast_leave(gid, s.client);
            }
        }
        if let Some(tier) = self.media.as_mut() {
            for o in &g.objects {
                tier.cache.unpin(o);
            }
        }
    }

    /// Re-establish a session a client believes lost. If the session is
    /// still alive here (false alarm, or a healed partition), acknowledge in
    /// place. If this server restarted and lost it, rebuild a fresh session
    /// from the client-supplied context and resume delivery past the
    /// client's playout position.
    #[allow(clippy::too_many_arguments)]
    fn on_reconnect(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        from: NodeId,
        session: SessionId,
        user: Option<UserId>,
        class: PricingClass,
        document: Option<DocumentId>,
        position_micros: i64,
    ) {
        let now = api.now();
        if let Some(s) = self.sessions.get_mut(&session) {
            // In-place resume: the process never died. Streams kept (or
            // keep) transmitting; the client's detector was tripped by the
            // network, not by us.
            s.client = from;
            s.suspended = false;
            api.send_reliable(
                self.node,
                from,
                ServiceMsg::ReconnectAck {
                    old_session: session,
                    session,
                },
            );
            return;
        }
        // Rebuild after a restart. A fresh id keeps the recovered session
        // out of any state the old id might still be attached to elsewhere.
        let new_session = SessionId::new(self.next_session);
        self.next_session += 1;
        let authorized = user
            .map(|u| self.accounts.is_authorized(u))
            .unwrap_or(false);
        let obs_root = api.session_span(new_session.raw(), self.node);
        // The payload carries the superseded session id so trace consumers
        // (and the lifecycle invariant checker) can link the chain.
        api.emit_val(
            self.node,
            Severity::Warn,
            "session_rebuilt",
            Labels::session(new_session.raw()).peer(from.raw()),
            session.raw() as i64,
        );
        self.sessions.insert(
            new_session,
            SessionState {
                client: from,
                user: if authorized { user } else { None },
                class,
                qos: ServerQosManager::new(self.cfg.grading_order, self.cfg.hysteresis),
                streams: BTreeMap::new(),
                current_doc: None,
                paused: false,
                suspended: false,
                connected_at: now,
                heartbeat_seq: 0,
                last_media: now,
                last_ack: now,
                shed_levels: 0,
                group: None,
                obs_root,
                obs_admission: SpanId::NONE,
                util_acc: 0.0,
                util_pos: BTreeMap::new(),
            },
        );
        self.rebuilt_sessions.push((session, new_session));
        self.start_heartbeat(api, new_session);
        api.send_reliable(
            self.node,
            from,
            ServiceMsg::ReconnectAck {
                old_session: session,
                session: new_session,
            },
        );
        if let Some(doc) = document {
            // The client already holds the scenario; just restart delivery
            // past the reported playout position.
            let resume_from = MediaDuration::from_micros(position_micros.max(0));
            self.deliver_document(
                api,
                new_session,
                doc,
                resume_from,
                false,
                MediaDuration::ZERO,
            );
        }
    }

    /// Evaluate admission for a flow, shedding grade levels instead of
    /// rejecting while the configuration allows: returns the shed applied,
    /// or an error string when even the deepest shed cannot be admitted.
    ///
    /// `shared_trunk`: the session rides a shared delivery group, so the
    /// first path hop (server → backbone) already carries the group's one
    /// copy — reserve only the tail links toward this client.
    fn admit_with_shedding(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        class: PricingClass,
        client: NodeId,
        flow: &hermes_server::FlowScenario,
        shared_trunk: bool,
    ) -> Result<u8, String> {
        let path = self.path_condition(api, client);
        let mut last_reason = String::new();
        // The controller's admission price floors the search: under fleet
        // pressure new sessions enter pre-degraded instead of competing for
        // nominal-grade reservations.
        let floor = self.admission_price.min(self.cfg.max_admission_shed);
        for shed in floor..=self.cfg.max_admission_shed {
            // Aggregate continuous bandwidth with every stream `shed`
            // levels below nominal (clamped to each codec's ladder).
            let bw: u64 = flow
                .plans
                .iter()
                .filter(|p| p.kind.is_continuous())
                .map(|p| {
                    let model = CodecModel::for_encoding(p.encoding);
                    let lvl = GradeLevel(shed).min(model.max_level());
                    model.level(lvl).bandwidth_bps()
                })
                .sum();
            let mut requirement = hermes_core::QosRequirement::continuous(bw, 300, 0.05);
            requirement.bandwidth_bps = bw;
            let request = ConnectionRequest {
                session,
                class,
                requirement,
            };
            let (decision, conn) = self.admission.evaluate(&request, path);
            match decision {
                AdmissionDecision::Reject { reason } => last_reason = reason,
                AdmissionDecision::Admit { reserved_bps } => {
                    let conn = conn.expect("admit without connection id");
                    let reserved = if shared_trunk {
                        let mut links = api.net().path_links(self.node, client).unwrap_or_default();
                        if !links.is_empty() {
                            links.remove(0); // the trunk carries one shared copy
                        }
                        api.net_mut().reserve_links(conn, links, reserved_bps)
                    } else {
                        api.net_mut().reserve(conn, self.node, client, reserved_bps)
                    };
                    if reserved {
                        return Ok(shed);
                    }
                    self.admission.release(session);
                    last_reason = "reservation failed on path".into();
                }
            }
        }
        Err(last_reason)
    }

    /// Deliver a document to a session: admission (with graceful shedding),
    /// optionally the scenario itself, then media activation. `resume_from`
    /// shifts all send starts earlier and fast-forwards the frame sources —
    /// recovery resumes mid-presentation instead of replaying from zero.
    /// `extra_delay` shifts every send start later (the batching wait of a
    /// shared group's leader).
    fn deliver_document(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        document: DocumentId,
        resume_from: MediaDuration,
        send_scenario: bool,
        extra_delay: MediaDuration,
    ) {
        self.leave_group(api, session);
        let Some(s) = self.sessions.get(&session) else {
            return;
        };
        let client = s.client;
        let class = s.class;
        let user = s.user;
        // Arc handle: the document is shared out of the database, not
        // deep-copied (markup + scenario) per request.
        let doc = match self.db.document(document) {
            Ok(d) => d.clone(),
            Err(e) => {
                api.send_reliable(
                    self.node,
                    client,
                    ServiceMsg::DocError {
                        session,
                        reason: e.to_string(),
                    },
                );
                return;
            }
        };
        let flow = compute_flow_scenario(&doc.scenario, self.cfg.flow);

        // Admission: evaluate the aggregate continuous bandwidth against the
        // path to this client, weighted by the pricing contract. Under
        // pressure, shed quality levels before giving up ("graceful
        // degradation instead of session loss").
        // Release any previous document's reservation first.
        if let Some(conn) = self.admission.release(session) {
            api.net_mut().release(conn);
        }
        let shed = match self.admit_with_shedding(api, session, class, client, &flow, false) {
            Ok(shed) => shed,
            Err(reason) => {
                api.emit(
                    self.node,
                    Severity::Warn,
                    "admit_reject",
                    Labels::session(session.raw()),
                );
                api.send_reliable(self.node, client, ServiceMsg::DocError { session, reason });
                return;
            }
        };
        api.emit_val(
            self.node,
            if shed > 0 {
                Severity::Warn
            } else {
                Severity::Info
            },
            "admit",
            Labels::session(session.raw()),
            shed as i64,
        );
        if let Some(s) = self.sessions.get_mut(&session) {
            let span = std::mem::replace(&mut s.obs_admission, SpanId::NONE);
            api.span_end(span);
            // Join-latency SLO sample: connect → first successful admission.
            let now = api.now();
            self.slo.record_latency(now, SLO_JOIN, now - s.connected_at);
        }

        if let Some(u) = user {
            self.accounts.record_retrieval(u, document);
            self.accounts.charge(u, Charge::Retrieval(document));
        }

        // Tear down any previous document's streams (their cache readers
        // first, so interval-caching admission sees them leave).
        self.release_session_readers(session);
        let s = self.sessions.get_mut(&session).unwrap();
        s.streams.clear();
        s.qos = ServerQosManager::new(self.cfg.grading_order, self.cfg.hysteresis);
        s.current_doc = Some(document);
        s.paused = false;
        s.shed_levels = shed;

        // Ship the presentation scenario.
        if send_scenario {
            api.send_reliable(
                self.node,
                client,
                ServiceMsg::ScenarioResponse {
                    session,
                    document,
                    markup: doc.markup.clone(),
                    lead_micros: flow.lead.as_micros(),
                },
            );
        }

        // Activate the media servers: discrete media ship directly at their
        // send start; continuous media get a transmission loop.
        let floor = self.cfg.floor;
        let resume_point = MediaTime::ZERO + resume_from;
        let lead = flow.lead;
        for plan in &flow.plans {
            // The component starts playing at `send_start + lead` on the
            // presentation timeline. `elapsed` is how much of the stream the
            // client has already played at the resume position: positive →
            // fast-forward and send immediately; negative → the stream is
            // still in the future, keep its (shifted) send start.
            let elapsed = resume_from - ((plan.send_start + lead) - MediaTime::ZERO);
            let delay = if elapsed > MediaDuration::ZERO {
                MediaDuration::ZERO
            } else {
                (plan.send_start - resume_point).max(MediaDuration::ZERO)
            } + extra_delay;
            if plan.kind.is_continuous() {
                let model = CodecModel::for_encoding(plan.encoding);
                let start_level = GradeLevel(shed).min(model.max_level());
                let stream_floor = match plan.kind {
                    MediaKind::Audio => GradeLevel(floor.audio_floor),
                    _ => GradeLevel(floor.video_floor),
                };
                let s = self.sessions.get_mut(&session).unwrap();
                s.qos
                    .register(plan.component, model, stream_floor, plan.requirement);
                if start_level > GradeLevel::NOMINAL {
                    s.qos.force_level(plan.component, start_level);
                }
                // Open the frame source through the store handle — the
                // object's metadata stays in the database, un-cloned.
                let source = self.db.store(plan.kind).open(
                    &plan.source.object,
                    plan.component,
                    plan.duration,
                );
                let Some(mut source) = source else {
                    api.send_reliable(
                        self.node,
                        client,
                        ServiceMsg::DocError {
                            session,
                            reason: format!("media object '{}' missing", plan.source.object),
                        },
                    );
                    continue;
                };
                if start_level > GradeLevel::NOMINAL {
                    source.set_level(start_level);
                }
                if elapsed > MediaDuration::ZERO {
                    // Fast-forward past the client's playout position: the
                    // stream restarts where the viewer left off. Source pts
                    // are stream-relative, so skip only the elapsed part.
                    let ff_point = MediaTime::ZERO + elapsed;
                    while source.frames_remaining() > 0 && source.next_pts() < ff_point {
                        let _ = source.next_frame();
                    }
                }
                let remote = self.make_remote(&plan.source.object, plan.kind, source.next_seq());
                let ssrc = ((session.raw() as u32) << 16) ^ plan.component.raw() as u32;
                let s = self.sessions.get_mut(&session).unwrap();
                s.streams.insert(
                    plan.component,
                    StreamTx {
                        plan: plan.clone(),
                        source,
                        sender: RtpSender::new(ssrc, plan.encoding),
                        done: false,
                        stopped: false,
                        frames_sent: 0,
                        bytes_sent: 0,
                        remote,
                        patch_until: None,
                    },
                );
                self.attach_remote(api, session, plan.component);
                api.set_timer(
                    self.node,
                    delay,
                    timers::TK_STREAM_START,
                    timers::pack(session, plan.component),
                );
            } else {
                if resume_from > MediaDuration::ZERO && elapsed > MediaDuration::ZERO {
                    // Discrete object already shown before the outage.
                    continue;
                }
                self.schedule_discrete(api, session, plan, delay);
            }
        }
    }

    /// Schedule delivery of one discrete media object (image / text file)
    /// to a session at `delay` from now: install its placeholder stream and
    /// arm the [`timers::TK_DISCRETE`] timer.
    fn schedule_discrete(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        plan: &FlowPlan,
        delay: MediaDuration,
    ) {
        // Discrete media: a single object over the reliable path at
        // its send start. With a media tier the size comes from the
        // fetched segment; locally it derives from the store.
        let size =
            match self
                .db
                .store(plan.kind)
                .open(&plan.source.object, plan.component, plan.duration)
            {
                Some(mut src) => src.next_frame().map(|f| f.size).unwrap_or(0),
                None => {
                    CodecModel::for_encoding(plan.encoding)
                        .level(GradeLevel::NOMINAL)
                        .mean_frame_bytes
                }
            };
        let remote = self.make_remote(&plan.source.object, plan.kind, 0);
        let component = plan.component;
        api.set_timer(
            self.node,
            delay,
            timers::TK_DISCRETE,
            timers::pack(session, component),
        );
        // Stash the size in the session for the timer to pick up.
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        s.streams.insert(
            component,
            StreamTx {
                plan: plan.clone(),
                source: FrameSource::new(
                    component,
                    plan.encoding,
                    size as u64,
                    plan.duration.max(MediaDuration::from_millis(1)),
                ),
                sender: RtpSender::new(0, plan.encoding),
                done: false,
                stopped: false,
                frames_sent: 0,
                bytes_sent: 0,
                remote,
                patch_until: None,
            },
        );
        self.attach_remote(api, session, component);
    }

    /// Media-tier fetch state for a stream over `object`, starting at
    /// global frame index `next_seq`; `None` without a tier (or for content
    /// the placement map never distributed) — the stream then reads its
    /// local store as before.
    fn make_remote(&self, object: &str, kind: MediaKind, next_seq: u64) -> Option<RemoteStream> {
        let tier = self.media.as_ref()?;
        if tier.placement.replicas(object).is_empty() {
            return None;
        }
        let fps = if kind.is_continuous() {
            tier.cfg.frames_per_segment.max(1)
        } else {
            1 // a discrete "frame" is the whole object; don't fetch copies
        };
        let (seg, off) = segment_of_frame(next_seq, fps);
        Some(RemoteStream {
            object: object.to_string(),
            kind,
            replica: self.node, // placeholder until attach_remote selects
            frames_per_segment: fps,
            epoch: 0,
            next_request: seg,
            next_append: seg,
            pending: BTreeMap::new(),
            ready: VecDeque::new(),
            skip: off,
            inflight: BTreeMap::new(),
        })
    }

    /// Register a freshly inserted remote stream with the tier: count its
    /// cache reader (interval-caching admission) and pick its replica.
    fn attach_remote(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        component: ComponentId,
    ) {
        let object = match self
            .sessions
            .get(&session)
            .and_then(|s| s.streams.get(&component))
            .and_then(|tx| tx.remote.as_ref())
        {
            Some(r) => r.object.clone(),
            None => return,
        };
        if let Some(tier) = self.media.as_mut() {
            tier.cache.reader_started(&object);
        }
        self.reselect_replica(api, session, component);
    }

    /// Point a remote stream at the best live replica of its object (score:
    /// outstanding load + path RTT + breaker health penalty — a tripped or
    /// probing circuit loses to any closed one, so outliers are ejected
    /// whenever a healthy alternative exists). Returns false when no
    /// replica is up.
    fn reselect_replica(
        &mut self,
        api: &SimApi<'_, ServiceMsg>,
        session: SessionId,
        component: ComponentId,
    ) -> bool {
        let node = self.node;
        let Some(tier) = self.media.as_ref() else {
            return false;
        };
        let Some(r) = self
            .sessions
            .get(&session)
            .and_then(|s| s.streams.get(&component))
            .and_then(|tx| tx.remote.as_ref())
        else {
            return false;
        };
        let net = api.net();
        let candidates: Vec<(NodeId, i64)> = tier
            .placement
            .replicas(&r.object)
            .iter()
            .filter(|&&n| api.node_is_up(n))
            .map(|&n| {
                let prop: i64 = net
                    .path_links(node, n)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|(a, b)| net.link(*a, *b))
                    .map(|l| l.spec.propagation.as_micros())
                    .sum();
                let penalty = if tier.cfg.breaker {
                    tier.health.penalty_micros(n)
                } else {
                    0
                };
                (n, prop * 2 + penalty)
            })
            .collect();
        let Some(choice) = tier.selector.pick(&candidates) else {
            return false;
        };
        if let Some(r) = self
            .sessions
            .get_mut(&session)
            .and_then(|s| s.streams.get_mut(&component))
            .and_then(|tx| tx.remote.as_mut())
        {
            r.replica = choice;
        }
        true
    }

    /// Deregister a session's remote streams from the cache's reader counts
    /// (called before the streams are dropped or replaced).
    fn release_session_readers(&mut self, session: SessionId) {
        let objects: Vec<String> = self
            .sessions
            .get(&session)
            .map(|s| {
                s.streams
                    .values()
                    .filter_map(|tx| tx.remote.as_ref().map(|r| r.object.clone()))
                    .collect()
            })
            .unwrap_or_default();
        if let Some(tier) = self.media.as_mut() {
            for o in &objects {
                tier.cache.reader_finished(o);
            }
        }
    }

    /// Top up a remote stream's fetch window: serve segments from the cache
    /// when resident, otherwise issue pipelined fetches to the stream's
    /// replica until the window covers the pacer's remaining need.
    fn pump_remote(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        component: ComponentId,
    ) {
        let node = self.node;
        let server_id = self.server_id;
        let Some(tier) = self.media.as_mut() else {
            return;
        };
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        let class = s.class;
        let Some(tx) = s.streams.get_mut(&component) else {
            return;
        };
        if tx.done || tx.stopped {
            return;
        }
        // A discrete object needs exactly its one oversized frame; demanding
        // the pacer's full remaining count would fetch redundant copies.
        let needed = if tx.plan.kind.is_continuous() {
            tx.source.frames_remaining() + 1
        } else {
            1
        };
        let level = tx.source.level();
        let period = tx.source.model().level(level).frame_period();
        let Some(r) = tx.remote.as_mut() else {
            return;
        };
        let fps = r.frames_per_segment;
        let now = api.now();
        // Re-adopt this session's causal root: pump timers serve many
        // sessions, and fetches issued here must attribute to the session
        // they serve, not to whichever dispatch armed the pump.
        api.cause_root(session.raw(), node);
        while (r.inflight.len() as u32) < tier.cfg.pipeline && r.frames_covered() < needed {
            let seg = r.next_request;
            // After a shed rolls the cursor back, segments between the shed
            // one and the frontier may still be covered — skip them.
            if seg < r.next_append || r.inflight.contains_key(&seg) || r.pending.contains_key(&seg)
            {
                r.next_request = seg + 1;
                continue;
            }
            let key = SegmentKey {
                object: r.object.clone(),
                level,
                segment: seg,
            };
            if let Some(frames) = tier.cache.get(&key) {
                let frames = frames.to_vec();
                r.pending.insert(seg, frames);
                r.next_request = seg + 1;
                r.drain_ready();
                continue;
            }
            if !api.node_is_up(r.replica) {
                // Parked: every replica of the object is down. The stall
                // poll keeps the stream alive until a fault event re-points
                // it at a live (or restarted) replica.
                break;
            }
            if tier.cfg.breaker && !tier.health.admit(r.replica, now) {
                // Circuit open (or half-open with its probe slots taken):
                // hold the window. The stall poll re-pumps, and the open
                // timeout eventually admits probes through this same path.
                break;
            }
            // The segment is useful until the pacer plays out everything it
            // already has ahead of it; past that (plus slack for transport)
            // the node may shed the request instead of serving dead work.
            let deadline =
                now + period * (r.frames_covered() + fps as u64) as i64 + tier.cfg.deadline_slack;
            let fetch = tier.next_fetch;
            tier.next_fetch += 1;
            tier.selector.fetch_started(r.replica);
            tier.inflight.insert(
                fetch,
                FetchTag {
                    session,
                    component,
                    segment: seg,
                    level,
                    epoch: r.epoch,
                    replica: r.replica,
                    issued_at: now,
                    deadline,
                    hedged: false,
                },
            );
            r.inflight.insert(seg, fetch);
            r.next_request = seg + 1;
            tier.stats.fetches += 1;
            // An issued fetch is by definition a server-cache miss for this
            // segment — the evidence record the cache-miss-chain attribution
            // class looks for in the event window.
            api.emit_val(
                node,
                Severity::Info,
                "cache_miss",
                Labels::session(session.raw()).segment(seg),
                seg as i64,
            );
            api.send_reliable(
                node,
                r.replica,
                ServiceMsg::MediaFetchRequest {
                    fetch,
                    server: server_id,
                    kind: r.kind,
                    object: r.object.clone(),
                    level: level.0,
                    segment: seg,
                    frames_per_segment: fps,
                    deadline_micros: deadline.as_micros(),
                    class,
                },
            );
            if tier.cfg.hedging {
                api.set_timer(node, tier.hedge_delay(), timers::TK_HEDGE, fetch);
            }
        }
    }

    /// A segment arrived from a media node. Segments travel as bounded
    /// transport parts; only the final part (`last`) carries the frame
    /// specs, and reliable in-order delivery guarantees it arrives after
    /// every payload part — so earlier parts need no bookkeeping here.
    fn on_media_chunk(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        fetch: u64,
        frames: Vec<SegmentFrame>,
        last: bool,
    ) {
        let now = api.now();
        let newly_open;
        let mut loser_slow = None;
        let tag = {
            let Some(tier) = self.media.as_mut() else {
                return;
            };
            tier.stats.parts_received += 1;
            if !last {
                return;
            }
            let Some(tag) = tier.inflight.remove(&fetch) else {
                return; // superseded by failover or session teardown
            };
            tier.selector.fetch_finished(tag.replica);
            tier.stats.chunks += 1;
            let latency = now - tag.issued_at;
            tier.fetch_latency.record(latency);
            tier.pressure.observe(now, latency);
            self.slo.record_latency(now, SLO_FETCH, latency);
            newly_open = Self::note_success(tier, tag.replica, now, latency);
            // Resolve the hedge race: first completion wins, the loser is
            // cancelled at its node (best effort) and accounted. The time
            // the loser spent unanswered is a censored latency observation
            // — enough to trip the breaker on a chronically slow replica
            // that hedges always beat, without counting as a real verdict.
            if let Some(partner) = tier.hedge_pairs.remove(&fetch) {
                tier.hedge_pairs.remove(&partner);
                if tag.hedged {
                    tier.stats.hedge_wins += 1;
                }
                if let Some(ptag) = tier.inflight.remove(&partner) {
                    tier.selector.fetch_finished(ptag.replica);
                    loser_slow =
                        Self::note_slow_loss(tier, ptag.replica, now, now - ptag.issued_at);
                    tier.stats.hedge_cancels += 1;
                    api.send_reliable(
                        self.node,
                        ptag.replica,
                        ServiceMsg::MediaFetchCancel { fetch: partner },
                    );
                }
            }
            tag
        };
        self.deliver_segment(api, tag, frames);
        if newly_open {
            // A successful-but-slow completion can still trip the breaker
            // (EWMA latency): eject only after the fetched frames landed.
            api.emit(
                self.node,
                Severity::Error,
                "breaker_trip",
                Labels::for_peer(tag.replica.raw()),
            );
            api.flight_dump(
                self.node,
                "breaker_trip",
                Labels::for_peer(tag.replica.raw()),
            );
            self.eject_replica_streams(api, tag.replica);
        }
        if let Some(sick) = loser_slow {
            api.emit(
                self.node,
                Severity::Error,
                "breaker_trip",
                Labels::for_peer(sick.raw()),
            );
            api.flight_dump(self.node, "breaker_trip", Labels::for_peer(sick.raw()));
            self.eject_replica_streams(api, sick);
        }
    }

    /// Book a completed fetch's frames into its stream (cache offer, window
    /// bookkeeping, discrete dispatch).
    fn deliver_segment(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        tag: FetchTag,
        frames: Vec<SegmentFrame>,
    ) {
        let Some(tier) = self.media.as_mut() else {
            return;
        };
        let Some(r) = self
            .sessions
            .get_mut(&tag.session)
            .and_then(|s| s.streams.get_mut(&tag.component))
            .and_then(|tx| tx.remote.as_mut())
        else {
            return;
        };
        // Offer the segment to the cache even when the stream has moved on
        // (stale epoch): the content itself is valid and shareable.
        tier.cache.insert(
            SegmentKey {
                object: r.object.clone(),
                level: tag.level,
                segment: tag.segment,
            },
            frames.clone(),
        );
        if tag.epoch != r.epoch {
            return;
        }
        r.inflight.remove(&tag.segment);
        r.pending.insert(tag.segment, frames);
        r.drain_ready();
        // Discrete objects ship the moment their bytes arrive; continuous
        // streams stay on the pacer's cadence (the stall poll picks the
        // fetched frames up).
        let discrete = self
            .sessions
            .get(&tag.session)
            .and_then(|s| s.streams.get(&tag.component))
            .map(|tx| !tx.plan.kind.is_continuous())
            .unwrap_or(false);
        if discrete {
            self.send_discrete(api, tag.session, tag.component);
        }
    }

    /// A media node refused a fetch (object not replicated there): stop the
    /// stream — retrying cannot succeed, the placement map is wrong.
    fn on_media_error(&mut self, api: &mut SimApi<'_, ServiceMsg>, fetch: u64) {
        let now = api.now();
        let Some(tier) = self.media.as_mut() else {
            return;
        };
        let Some(tag) = tier.inflight.remove(&fetch) else {
            return;
        };
        tier.selector.fetch_finished(tag.replica);
        tier.stats.fetch_errors += 1;
        let tripped = Self::note_failure(tier, tag.replica, now);
        api.emit(
            self.node,
            Severity::Warn,
            "fetch_error",
            Labels::session(tag.session.raw())
                .stream(tag.component.raw())
                .peer(tag.replica.raw()),
        );
        if tripped {
            api.emit(
                self.node,
                Severity::Error,
                "breaker_trip",
                Labels::for_peer(tag.replica.raw()),
            );
            api.flight_dump(
                self.node,
                "breaker_trip",
                Labels::for_peer(tag.replica.raw()),
            );
        }
        let tier = self.media.as_mut().expect("tier checked above");
        if let Some(partner) = tier.hedge_pairs.remove(&fetch) {
            // The partner (if still outstanding) carries on alone.
            tier.hedge_pairs.remove(&partner);
        }
        let Some(s) = self.sessions.get_mut(&tag.session) else {
            return;
        };
        let client = s.client;
        if let Some(tx) = s.streams.get_mut(&tag.component) {
            let live_epoch = tx.remote.as_ref().map(|r| r.epoch);
            if live_epoch == Some(tag.epoch) && !tx.done && !tx.stopped {
                tx.stopped = true;
                api.send_reliable(
                    self.node,
                    client,
                    ServiceMsg::StreamStopped {
                        session: tag.session,
                        component: tag.component,
                    },
                );
            }
        }
    }

    /// A media node shed a fetch from its overloaded queue. Unlike a fetch
    /// *error* this is flow control, not a health verdict: the shed is NOT
    /// scored into the breaker (under a symmetric flash crowd every replica
    /// queues alike, and tripping circuits on shared congestion only
    /// strangles throughput further). The stream's window is re-requested —
    /// immediately when overload control is off (the naive retry storm the
    /// benchmarks measure), after a `stall_poll` pause when it is on, so
    /// retry pressure on saturated queues is paced. A still-racing hedge
    /// partner carries the segment alone instead.
    fn on_media_busy(&mut self, api: &mut SimApi<'_, ServiceMsg>, fetch: u64) {
        let paced;
        let partner_live;
        let tag = {
            let Some(tier) = self.media.as_mut() else {
                return;
            };
            tier.stats.busy += 1;
            let Some(tag) = tier.inflight.remove(&fetch) else {
                return;
            };
            tier.selector.fetch_finished(tag.replica);
            paced = tier.cfg.breaker;
            let partner = tier.hedge_pairs.remove(&fetch);
            if let Some(p) = partner {
                tier.hedge_pairs.remove(&p);
            }
            partner_live = partner.is_some_and(|p| tier.inflight.contains_key(&p));
            tag
        };
        if partner_live {
            return;
        }
        // Surgical retry of just the shed segment: roll the request cursor
        // back so the next pump re-requests it. Sibling fetches, buffered
        // segments and the epoch all stay valid — a shed must not discard
        // work the node is still completing. The epoch check skips this if
        // something else already moved the stream.
        let Some(r) = self
            .sessions
            .get_mut(&tag.session)
            .and_then(|s| s.streams.get_mut(&tag.component))
            .and_then(|tx| (!tx.done && !tx.stopped).then_some(tx))
            .and_then(|tx| tx.remote.as_mut())
        else {
            return;
        };
        if r.epoch != tag.epoch {
            return;
        }
        r.inflight.remove(&tag.segment);
        r.next_request = r.next_request.min(tag.segment);
        if paced {
            let delay = self.media.as_ref().map(|t| t.cfg.stall_poll).unwrap();
            api.set_timer(
                self.node,
                delay,
                timers::TK_REPUMP,
                timers::pack(tag.session, tag.component),
            );
        } else if self.reselect_replica(api, tag.session, tag.component) {
            self.pump_remote(api, tag.session, tag.component);
        }
    }

    /// Paced retry of a stream whose fetch was shed: re-pick a replica and
    /// refill the window (a no-op if a chunk, an eject or another shed
    /// already did).
    fn on_repump(&mut self, api: &mut SimApi<'_, ServiceMsg>, payload: u64) {
        let (session, component) = timers::unpack(payload);
        let live = self
            .sessions
            .get(&session)
            .and_then(|s| s.streams.get(&component))
            .and_then(|tx| (!tx.done && !tx.stopped).then_some(tx))
            .is_some_and(|tx| tx.remote.is_some());
        if live && self.reselect_replica(api, session, component) {
            self.pump_remote(api, session, component);
        }
    }

    /// Score a completed fetch into the health map (breaker enabled only).
    /// Returns true when this observation newly tripped the circuit Open.
    fn note_success(
        tier: &mut MediaTier,
        node: NodeId,
        now: MediaTime,
        latency: MediaDuration,
    ) -> bool {
        if !tier.cfg.breaker {
            return false;
        }
        let was = tier.health.state(node);
        tier.health.record_success(node, now, latency);
        let tripped = was != BreakerState::Open && tier.health.state(node) == BreakerState::Open;
        if tripped {
            tier.stats.breaker_trips += 1;
        }
        tripped
    }

    /// Score a lost hedge race into the loser's health map (breaker enabled
    /// only): a censored latency sample of at least `elapsed`. Returns
    /// `Some(node)` when the observation newly tripped its circuit Open.
    fn note_slow_loss(
        tier: &mut MediaTier,
        node: NodeId,
        now: MediaTime,
        elapsed: MediaDuration,
    ) -> Option<NodeId> {
        if !tier.cfg.breaker {
            return None;
        }
        let was = tier.health.state(node);
        tier.health.record_slow_loss(node, now, elapsed);
        let tripped = was != BreakerState::Open && tier.health.state(node) == BreakerState::Open;
        if tripped {
            tier.stats.breaker_trips += 1;
            return Some(node);
        }
        None
    }

    /// Score a failed fetch into the health map (breaker enabled only).
    /// Returns true when this observation newly tripped the circuit Open.
    fn note_failure(tier: &mut MediaTier, node: NodeId, now: MediaTime) -> bool {
        if !tier.cfg.breaker {
            return false;
        }
        let was = tier.health.state(node);
        tier.health.record_failure(node, now);
        let tripped = was != BreakerState::Open && tier.health.state(node) == BreakerState::Open;
        if tripped {
            tier.stats.breaker_trips += 1;
        }
        tripped
    }

    /// A replica's circuit just tripped Open: re-point every live stream
    /// pulling from it at the best admitted alternative — the same motion
    /// as a media-node crash, but without touching incarnation state
    /// (outstanding fetches may still complete, and their outcomes keep
    /// feeding the health score). With no healthy alternative the selector
    /// re-picks the sick node and the probe gate in `pump_remote` paces
    /// recovery traffic instead.
    fn eject_replica_streams(&mut self, api: &mut SimApi<'_, ServiceMsg>, sick: NodeId) {
        let mut affected: Vec<(SessionId, ComponentId)> = Vec::new();
        for (sid, s) in self.sessions.iter_mut() {
            for (cid, tx) in s.streams.iter_mut() {
                if tx.done || tx.stopped {
                    continue;
                }
                let Some(r) = tx.remote.as_mut() else {
                    continue;
                };
                if r.replica != sick {
                    continue;
                }
                r.pending.clear();
                r.inflight.clear();
                r.next_request = r.next_append;
                r.epoch += 1;
                api.emit_val(
                    self.node,
                    Severity::Info,
                    "stream_epoch",
                    Labels::session(sid.raw()).stream(cid.raw()),
                    r.epoch as i64,
                );
                affected.push((*sid, *cid));
            }
        }
        for &(sid, cid) in &affected {
            if self.reselect_replica(api, sid, cid) {
                self.pump_remote(api, sid, cid);
            }
        }
        // Shared groups fail over as one unit, exactly as on a node crash.
        let mut bumped: Vec<(u64, u64)> = Vec::new();
        for (gid, g) in self.groups.iter_mut() {
            if affected.iter().any(|(sid, _)| *sid == g.leader) {
                g.epoch += 1;
                bumped.push((*gid, g.epoch));
            }
        }
        for (gid, epoch) in bumped {
            self.sharing_stats.epoch_bumps += 1;
            api.emit_val(
                self.node,
                Severity::Info,
                "group_epoch",
                Labels::NONE.stream(gid),
                epoch as i64,
            );
            api.send_mcast(self.node, gid, ServiceMsg::GroupEpoch { group: gid, epoch });
        }
    }

    /// The hedge delay of a fetch expired unanswered (timer `TK_HEDGE`,
    /// payload = fetch id): race a duplicate against the next-best replica.
    /// First response wins; the loser is cancelled and accounted.
    fn on_hedge_timer(&mut self, api: &mut SimApi<'_, ServiceMsg>, fetch: u64) {
        let now = api.now();
        let node = self.node;
        let server_id = self.server_id;
        let Some(tier) = self.media.as_ref() else {
            return;
        };
        if !tier.cfg.hedging {
            return;
        }
        let Some(tag) = tier.inflight.get(&fetch).copied() else {
            return; // answered (or written off) before the delay expired
        };
        if tag.hedged || tier.hedge_pairs.contains_key(&fetch) {
            return; // never hedge a hedge, never hedge twice
        }
        // The pulling stream must still want this segment.
        let Some((object, kind, fps, class)) = self.sessions.get(&tag.session).and_then(|s| {
            let class = s.class;
            s.streams.get(&tag.component).and_then(|tx| {
                tx.remote
                    .as_ref()
                    .filter(|r| r.epoch == tag.epoch)
                    .map(|r| (r.object.clone(), r.kind, r.frames_per_segment, class))
            })
        }) else {
            return;
        };
        let net = api.net();
        let Some(tier) = self.media.as_mut() else {
            return;
        };
        let candidates: Vec<(NodeId, i64)> = tier
            .placement
            .replicas(&object)
            .iter()
            .filter(|&&n| n != tag.replica && api.node_is_up(n))
            .map(|&n| {
                let prop: i64 = net
                    .path_links(node, n)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|(a, b)| net.link(*a, *b))
                    .map(|l| l.spec.propagation.as_micros())
                    .sum();
                let penalty = if tier.cfg.breaker {
                    tier.health.penalty_micros(n)
                } else {
                    0
                };
                (n, prop * 2 + penalty)
            })
            .collect();
        let Some(alt) = tier.selector.pick(&candidates) else {
            return; // single-replica object: nothing to race against
        };
        if tier.cfg.breaker && !tier.health.admit(alt, now) {
            return;
        }
        // Hedging pays only when slowness is idiosyncratic to the primary.
        // If the alternative is observably slow too (a symmetric flash
        // crowd queues every replica alike), a duplicate fetch would feed
        // the overload rather than route around it.
        if tier
            .health
            .health(alt)
            .is_some_and(|h| h.latency.value() > tier.cfg.pressure_target.as_micros() as f64)
        {
            return;
        }
        let hedge = tier.next_fetch;
        tier.next_fetch += 1;
        tier.selector.fetch_started(alt);
        tier.inflight.insert(
            hedge,
            FetchTag {
                session: tag.session,
                component: tag.component,
                segment: tag.segment,
                level: tag.level,
                epoch: tag.epoch,
                replica: alt,
                issued_at: now,
                deadline: tag.deadline,
                hedged: true,
            },
        );
        tier.hedge_pairs.insert(fetch, hedge);
        tier.hedge_pairs.insert(hedge, fetch);
        tier.stats.hedges += 1;
        api.send_reliable(
            node,
            alt,
            ServiceMsg::MediaFetchRequest {
                fetch: hedge,
                server: server_id,
                kind,
                object,
                level: tag.level.0,
                segment: tag.segment,
                frames_per_segment: fps,
                deadline_micros: tag.deadline.as_micros(),
                class,
            },
        );
    }

    /// Arm the degradation-ladder evaluation chain once a tier with the
    /// ladder enabled is in place (idempotent; called on session arrival).
    fn ensure_ladder(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let enabled = self.media.as_ref().map(|t| t.cfg.ladder).unwrap_or(false);
        if enabled && !self.ladder_armed {
            self.ladder_armed = true;
            let period = self.media.as_ref().unwrap().cfg.ladder_period;
            api.set_timer(self.node, period, timers::TK_LADDER, 0);
        }
    }

    /// Periodic degradation-ladder evaluation (timer `TK_LADDER`): under
    /// sustained fetch pressure walk one victim session one grade level
    /// down; once pressure has stayed clear for the hysteresis, restore
    /// one step (LIFO), level by level.
    fn on_ladder_tick(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let now = api.now();
        let (enabled, period, hysteresis, overloaded) = match self.media.as_ref() {
            Some(t) => (
                t.cfg.ladder,
                t.cfg.ladder_period,
                t.cfg.ladder_hysteresis,
                t.pressure.overloaded(now),
            ),
            None => (false, MediaDuration::ZERO, MediaDuration::ZERO, false),
        };
        if !enabled {
            self.ladder_armed = false;
            return;
        }
        if overloaded {
            self.ladder_last_pressure = now;
            self.ladder_degrade_step(api);
        } else if !self.ladder_stack.is_empty() && now - self.ladder_last_pressure >= hysteresis {
            self.ladder_restore_step(api);
            // Space successive restores a full hysteresis apart.
            self.ladder_last_pressure = now;
        }
        api.set_timer(self.node, period, timers::TK_LADDER, 0);
    }

    /// One ladder step down: pick the victim (cheapest pricing class first,
    /// most recently admitted — LIFO — within the class) and walk each of
    /// its live continuous streams one grade level lower.
    fn ladder_degrade_step(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let victim = self
            .sessions
            .iter()
            .filter(|(_, s)| !s.suspended)
            .filter_map(|(sid, s)| {
                let degradable = s.streams.values().any(|tx| {
                    tx.plan.kind.is_continuous()
                        && !tx.done
                        && !tx.stopped
                        && tx.source.level() < tx.source.model().max_level()
                });
                degradable.then_some((s.class, std::cmp::Reverse(s.connected_at), *sid))
            })
            .min_by_key(|&(class, at, sid)| (class, at, std::cmp::Reverse(sid.raw())))
            .map(|(_, _, sid)| sid);
        let Some(sid) = victim else {
            return; // everyone is already at the bottom of the ladder
        };
        let Some(s) = self.sessions.get_mut(&sid) else {
            return;
        };
        s.utility_touch();
        let prior: Vec<(ComponentId, GradeLevel)> = s
            .streams
            .iter()
            .filter(|(_, tx)| {
                tx.plan.kind.is_continuous()
                    && !tx.done
                    && !tx.stopped
                    && tx.source.level() < tx.source.model().max_level()
            })
            .map(|(cid, tx)| (*cid, tx.source.level()))
            .collect();
        if prior.is_empty() {
            return;
        }
        for &(cid, cur) in &prior {
            s.regrade(api, self.node, sid, cid, GradeLevel(cur.0 + 1));
        }
        api.emit_val(
            self.node,
            Severity::Warn,
            "ladder_degrade",
            Labels::session(sid.raw()),
            prior.len() as i64,
        );
        self.ladder_stack.push(LadderStep {
            session: sid,
            prior,
        });
        if let Some(tier) = self.media.as_mut() {
            tier.stats.ladder_degrades += 1;
        }
    }

    /// One ladder step back up: restore the most recently degraded session
    /// to the levels it held before that step.
    fn ladder_restore_step(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let Some(step) = self.ladder_stack.pop() else {
            return;
        };
        let Some(s) = self.sessions.get_mut(&step.session) else {
            return; // the victim disconnected meanwhile
        };
        s.utility_touch();
        let mut restored = 0;
        for (cid, level) in step.prior {
            if s.streams
                .get(&cid)
                .is_some_and(|tx| !tx.done && !tx.stopped)
            {
                s.regrade(api, self.node, step.session, cid, level);
                restored += 1;
            }
        }
        api.emit_val(
            self.node,
            Severity::Info,
            "ladder_restore",
            Labels::session(step.session.raw()),
            restored,
        );
        if let Some(tier) = self.media.as_mut() {
            tier.stats.ladder_restores += 1;
        }
    }

    // ------------------------------------------------------------------
    // Closed-loop control plane
    // ------------------------------------------------------------------

    /// Host the fleet controller on this server: install the policy with
    /// the standby media-node pool and arm the control tick. With HA
    /// enabled ([`enable_control_ha`](Self::enable_control_ha) first), the
    /// lease-beat chain starts too and the host records itself as the
    /// epoch-1 leaseholder.
    pub fn host_controller(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        cfg: ControllerConfig,
        standby: Vec<u64>,
    ) {
        let mut c = FleetController::new(cfg);
        c.set_standby(standby);
        let epoch = c.epoch();
        self.ctrl_epoch_seen = self.ctrl_epoch_seen.max(epoch);
        self.ctrl_lease.observe(epoch, self.node.raw(), api.now());
        self.controller = Some(c);
        api.set_timer(self.node, cfg.tick, timers::TK_CONTROL, 0);
        if self.control_ha.is_some() {
            api.set_timer(self.node, cfg.lease_beat, timers::TK_CTRL_LEASE, 0);
        }
    }

    /// Arm controller failover on this server: remember the controller
    /// config and the seed snapshot (the deployment manifest: standby pool,
    /// nominal price), start the lease-watch chain, and grant the fleet one
    /// optimistic liveness window so nobody elects before the first reports
    /// have had a chance to arrive.
    pub fn enable_control_ha(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        cfg: ControllerConfig,
        seed: ControlSnapshot,
    ) {
        let now = api.now();
        self.control_ha = Some(cfg);
        self.ctrl_epoch_seen = self.ctrl_epoch_seen.max(seed.epoch);
        self.ctrl_snapshot = seed;
        self.ctrl_lease.heard_at = now;
        self.ctrl_peers.heard(self.node.raw(), now);
        for p in self.peers.clone() {
            self.ctrl_peers.heard(p.raw(), now);
        }
        api.set_timer(self.node, cfg.lease_beat, timers::TK_CTRL_WATCH, 0);
    }

    /// Start shipping periodic control-plane reports to `host`.
    pub fn enable_control_reports(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        host: NodeId,
        period: MediaDuration,
    ) {
        self.control_peer = Some(host);
        self.control_report_period = period;
        api.set_timer(self.node, period, timers::TK_CONTROL_REPORT, 0);
    }

    /// Re-arm the control-plane timer chains after a restart (the old
    /// incarnation's timers died with the process). Leadership itself does
    /// NOT survive: `on_crash` already demoted this node, so the restarted
    /// process comes back as a reporting follower and must win a fresh
    /// election — at a strictly higher epoch — to actuate again.
    pub fn rearm_control(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        if let Some(c) = self.controller.as_ref() {
            // Unreachable after a crash (on_crash clears the controller);
            // kept so a manually re-hosted controller can be re-armed.
            api.set_timer(self.node, c.cfg.tick, timers::TK_CONTROL, 0);
        }
        if self.control_peer.is_some() {
            api.set_timer(
                self.node,
                self.control_report_period,
                timers::TK_CONTROL_REPORT,
                0,
            );
        }
        if let Some(cfg) = self.control_ha {
            // Assume the lease alive at restart: the node grants the
            // incumbent (if any) one full timeout to prove itself before
            // considering an election of its own.
            self.ctrl_lease.heard_at = api.now();
            api.set_timer(self.node, cfg.lease_beat, timers::TK_CTRL_WATCH, 0);
        }
    }

    /// True iff `epoch` is stale against the highest controller epoch this
    /// node has seen — in which case the command is counted and dropped
    /// (the fence). Accepting a command from a newer epoch advances the
    /// fence record.
    fn ctrl_fenced(&mut self, api: &mut SimApi<'_, ServiceMsg>, epoch: u64) -> bool {
        if epoch < self.ctrl_epoch_seen {
            self.ctrl_stats.fence_drops += 1;
            api.emit_val(
                self.node,
                Severity::Warn,
                "ctrl_fence_drop",
                Labels::for_peer(self.node.raw()),
                epoch as i64,
            );
            return true;
        }
        self.ctrl_epoch_seen = epoch;
        false
    }

    /// A controller lease beat arrived. A leading node yields to a higher
    /// epoch (the split-brain loser demotes itself); followers refresh the
    /// K-missed-beats clock, cache the replicated snapshot, and re-point
    /// their reports at the current leaseholder.
    fn on_control_lease(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        from: NodeId,
        epoch: u64,
        price: u8,
        standby: Vec<u64>,
        scaled_out: Vec<u64>,
    ) {
        let now = api.now();
        if let Some(c) = self.controller.as_ref() {
            if epoch <= c.epoch() {
                // A zombie ex-leader's beat: ignore (its commands are
                // fenced by every receiver anyway).
                return;
            }
            self.demote_controller(api);
        }
        if self.ctrl_lease.observe(epoch, from.raw(), now) {
            self.ctrl_epoch_seen = self.ctrl_epoch_seen.max(epoch);
            self.ctrl_snapshot = ControlSnapshot {
                epoch,
                price,
                standby,
                scaled_out,
            };
            // The lease carries the authoritative admission price — a
            // restarted follower re-learns it here instead of waiting for
            // the next price change.
            self.admission_price = price;
            self.ctrl_peers.heard(from.raw(), now);
            self.control_peer = Some(from);
        }
    }

    /// A candidate asked for this node's vote at `epoch`. Granted only by
    /// a follower whose lease has lapsed (the incumbent gets stickiness)
    /// for an epoch above both the fence record and every promise already
    /// made; the promise is durable, so no epoch is ever granted to two
    /// majorities. Granting a higher epoch also abandons any candidacy of
    /// our own — the asker outbid us.
    fn on_control_vote_req(&mut self, api: &mut SimApi<'_, ServiceMsg>, from: NodeId, epoch: u64) {
        let Some(cfg) = self.control_ha else {
            return;
        };
        let now = api.now();
        if self.controller.is_none()
            && self.ctrl_lease.expired(now, cfg.lease_timeout())
            && epoch > self.ctrl_promised
            && epoch > self.ctrl_epoch_seen
            && self.peers.contains(&from)
        {
            self.ctrl_promised = epoch;
            self.ctrl_candidacy = None;
            api.send(self.node, from, ServiceMsg::ControlVote { epoch });
        }
    }

    /// A peer granted its vote. Counted only against the candidacy that
    /// asked for exactly this epoch; a majority promotes it.
    fn on_control_vote(&mut self, api: &mut SimApi<'_, ServiceMsg>, from: NodeId, epoch: u64) {
        let Some(cfg) = self.control_ha else {
            return;
        };
        if !self.peers.contains(&from) {
            return;
        }
        if let Some(c) = self.ctrl_candidacy.as_mut() {
            if c.epoch == epoch {
                c.votes.insert(from.raw());
            }
        }
        self.ctrl_try_win(api, cfg, api.now());
    }

    /// Timer `TK_CTRL_LEASE` (leader only): broadcast the lease beat with
    /// the current administrative snapshot to every server peer.
    fn on_ctrl_lease(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let Some(c) = self.controller.as_ref() else {
            return; // demoted: the lease chain dies here
        };
        let Some(cfg) = self.control_ha else {
            return;
        };
        let snap = c.snapshot();
        self.ctrl_snapshot = snap.clone();
        self.ctrl_lease
            .observe(snap.epoch, self.node.raw(), api.now());
        self.ctrl_lease_seq += 1;
        self.ctrl_stats.lease_beats += 1;
        for peer in self.peers.clone() {
            // Best effort on purpose: a lost beat is absorbed by the
            // K-missed-beats margin, and retransmission backlogs during a
            // partition would only delay the truth.
            api.send(
                self.node,
                peer,
                ServiceMsg::ControlLease {
                    epoch: snap.epoch,
                    seq: self.ctrl_lease_seq,
                    price: snap.price,
                    standby: snap.standby.clone(),
                    scaled_out: snap.scaled_out.clone(),
                },
            );
        }
        api.set_timer(self.node, cfg.lease_beat, timers::TK_CTRL_LEASE, 0);
    }

    /// Timer `TK_CTRL_WATCH`: a follower checks the lease for expiry, and
    /// the lowest node id among report-fresh servers — iff that fresh set
    /// is a strict majority of the fleet — stands as the failover
    /// candidate: it asks every peer for a vote on a fresh epoch and
    /// elects itself only once a strict majority grants it. The quorum
    /// precondition keeps both sides of a partition from campaigning at
    /// once; the vote round makes the claimed epoch provably unused.
    fn on_ctrl_watch(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let Some(cfg) = self.control_ha else {
            return;
        };
        let now = api.now();
        if self.controller.is_none() {
            let fresh = self.ctrl_peers.fresh(now, cfg.stale_after);
            if !majority(fresh.len(), self.peers.len() + 1) {
                // No quorum view: "leader dead" and "we are the isolated
                // side" are indistinguishable, so grant the (possibly
                // live) leader a fresh timeout — unconditionally, not
                // just once the lease lapses, so a heal that lands right
                // at the expiry instant still buys a full timeout during
                // which the incumbent's beats (or gossiped epochs) reach
                // us before we would campaign against a live leader.
                self.ctrl_lease.heard_at = now;
                self.ctrl_candidacy = None;
            } else if self.ctrl_lease.expired(now, cfg.lease_timeout())
                && elect(&fresh) == Some(self.node.raw())
            {
                // Stand (or retry a candidacy whose votes never came —
                // lost grants are absorbed by re-asking at a higher
                // epoch, never by waiting on a specific voter).
                let retry = self
                    .ctrl_candidacy
                    .as_ref()
                    .is_none_or(|c| now - c.since >= cfg.lease_beat + cfg.lease_beat);
                if retry {
                    self.start_candidacy(api, cfg, now);
                }
            } else {
                // Some other node is the designated candidate now.
                self.ctrl_candidacy = None;
            }
        }
        api.set_timer(self.node, cfg.lease_beat, timers::TK_CTRL_WATCH, 0);
    }

    /// Stand for election: pick an epoch above everything seen or
    /// promised, promise it to ourselves (durably — a candidacy is a vote
    /// too), and ask every peer for theirs. A single-server "fleet" has
    /// its majority in the self-vote and wins on the spot.
    fn start_candidacy(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        cfg: ControllerConfig,
        now: MediaTime,
    ) {
        let epoch = self
            .ctrl_epoch_seen
            .max(self.ctrl_promised)
            .max(self.ctrl_lease.epoch)
            .max(self.ctrl_snapshot.epoch)
            + 1;
        self.ctrl_promised = epoch;
        let mut votes = BTreeSet::new();
        votes.insert(self.node.raw());
        self.ctrl_candidacy = Some(CtrlCandidacy {
            epoch,
            votes,
            since: now,
        });
        for peer in self.peers.clone() {
            // Best effort, like the lease: a lost ask is a retried
            // candidacy, not a blocked election.
            api.send(self.node, peer, ServiceMsg::ControlVoteReq { epoch });
        }
        self.ctrl_try_win(api, cfg, now);
    }

    /// Promote a candidacy that holds a strict majority of votes. Dropped
    /// instead if the fence record caught up to the candidacy epoch in
    /// the meantime (someone else won at least as fresh an epoch).
    fn ctrl_try_win(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        cfg: ControllerConfig,
        now: MediaTime,
    ) {
        let Some(c) = self.ctrl_candidacy.as_ref() else {
            return;
        };
        if c.epoch <= self.ctrl_epoch_seen {
            self.ctrl_candidacy = None;
            return;
        }
        if majority(c.votes.len(), self.peers.len() + 1) {
            let epoch = c.epoch;
            self.ctrl_candidacy = None;
            self.win_election(api, cfg, now, epoch);
        }
    }

    /// This node won the failover election at `epoch` (granted by a
    /// strict majority, or bootstrapped): rebuild a cold controller from
    /// the replicated snapshot and announce leadership with an immediate
    /// lease beat.
    fn win_election(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        cfg: ControllerConfig,
        now: MediaTime,
        epoch: u64,
    ) {
        self.ctrl_epoch_seen = epoch;
        self.controller = Some(FleetController::from_snapshot(
            cfg,
            epoch,
            &self.ctrl_snapshot,
            now,
        ));
        self.control_peer = Some(self.node);
        self.ctrl_lease.observe(epoch, self.node.raw(), now);
        self.ctrl_stats.elections += 1;
        self.last_elected_at = Some(now);
        api.emit_val(
            self.node,
            Severity::Warn,
            "ctrl_elect",
            Labels::for_peer(self.node.raw()),
            epoch as i64,
        );
        api.set_timer(self.node, cfg.tick, timers::TK_CONTROL, 0);
        self.on_ctrl_lease(api);
    }

    /// Stop leading: drop the controller (its timer chains die unrenewed)
    /// and reset the lease clock so this node grants the next leader a
    /// full timeout before it would consider running again.
    fn demote_controller(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let Some(c) = self.controller.take() else {
            return;
        };
        self.ctrl_stats.demotions += 1;
        self.ctrl_lease.heard_at = api.now();
        api.emit_val(
            self.node,
            Severity::Warn,
            "ctrl_demote",
            Labels::for_peer(self.node.raw()),
            c.epoch() as i64,
        );
    }

    /// The leader's own split-brain guard: fresh server reports (self
    /// included) must form a strict majority of the fleet or this leader
    /// may be the isolated side of a partition and must stop actuating.
    fn ctrl_quorum(&self, now: MediaTime, cfg: &ControllerConfig) -> bool {
        let fresh = self.ctrl_peers.fresh(now, cfg.stale_after);
        majority(fresh.len(), self.peers.len() + 1)
    }

    /// Timer `TK_CONTROL_REPORT`: assemble this server's control-plane
    /// signal registry (pressure verdict + per-session stream grades) and
    /// ship it to the controller host. Also advances every live session's
    /// utility integral, bounding the published integral's tail error by
    /// one report period.
    fn on_control_report(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let Some(peer) = self.control_peer else {
            return;
        };
        let now = api.now();
        for s in self.sessions.values_mut() {
            s.utility_touch();
        }
        let me = self.node.raw();
        let mut reg = MetricsRegistry::new();
        let pressured = self
            .media
            .as_ref()
            .is_some_and(|t| t.pressure.overloaded(now));
        reg.gauge_set(
            ctrl_names::PRESSURE,
            Labels::for_peer(me),
            if pressured { 1.0 } else { 0.0 },
        );
        // SLO burn-rate: evaluate multi-window alerts and ship the max burn
        // (milli-burn units) as a leading pressure signal — fetch latency
        // crosses its threshold several control ticks before queue depth.
        for alert in self.slo.check(now) {
            api.emit_val(
                self.node,
                Severity::Warn,
                "slo_alert",
                Labels::for_peer(me),
                (alert.fast_burn * 100.0) as i64,
            );
        }
        reg.gauge_set(
            ctrl_names::SLO_BURN,
            Labels::for_peer(me),
            self.slo.max_burn(now) * 1000.0,
        );
        for (sid, s) in &self.sessions {
            if s.suspended {
                continue;
            }
            reg.gauge_set(
                ctrl_names::SESSION_CLASS,
                Labels::session(sid.raw()).peer(me),
                s.class.priority() as f64,
            );
            for (cid, tx) in &s.streams {
                if !tx.plan.kind.is_continuous() || tx.done || tx.stopped {
                    continue;
                }
                let l = Labels::session(sid.raw()).stream(cid.raw()).peer(me);
                reg.gauge_set(
                    ctrl_names::STREAM_KIND,
                    l,
                    hermes_control::encode_kind(tx.plan.kind),
                );
                reg.gauge_set(ctrl_names::STREAM_LEVEL, l, tx.source.level().0 as f64);
                reg.gauge_set(
                    ctrl_names::STREAM_MAX,
                    l,
                    tx.source.model().max_level().0 as f64,
                );
            }
        }
        // Own report = own liveness: the election's view of "report-
        // reachable" always includes a live self.
        self.ctrl_peers.heard(me, now);
        if peer == self.node {
            // The hosting server's own report short-circuits the wire.
            if let Some(c) = self.controller.as_mut() {
                c.ingest(now, me, &reg);
            }
        } else {
            api.send_reliable(
                self.node,
                peer,
                ServiceMsg::ControlReport {
                    registry: reg.clone(),
                    epoch: self.ctrl_epoch_seen,
                },
            );
        }
        // With HA on, every other server gets a best-effort copy too: the
        // broadcast is the failover election's liveness signal ("report-
        // reachable peers") and pre-warms whoever wins with fleet state.
        if self.control_ha.is_some() {
            for p in self.peers.clone() {
                if Some(p) == self.control_peer || p == self.node {
                    continue;
                }
                api.send(
                    self.node,
                    p,
                    ServiceMsg::ControlReport {
                        registry: reg.clone(),
                        epoch: self.ctrl_epoch_seen,
                    },
                );
            }
        }
        api.set_timer(
            self.node,
            self.control_report_period,
            timers::TK_CONTROL_REPORT,
            0,
        );
    }

    /// Timer `TK_CONTROL`: evaluate one fleet control tick and actuate the
    /// plan — grade steps to owning servers, the admission price to every
    /// server, scale commands toward the media tier (the world intercepts
    /// them to rebuild placements).
    fn on_control_tick(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let now = api.now();
        if let Some(cfg) = self.control_ha {
            // Split-brain guard before anything actuates: a leader that
            // cannot see a strict report majority of the server fleet may
            // be the isolated side of a partition — stop leading (the
            // majority side will elect once the lease lapses).
            if self.controller.is_some() && !self.ctrl_quorum(now, &cfg) {
                self.demote_controller(api);
                return;
            }
        }
        let Some(c) = self.controller.as_mut() else {
            return;
        };
        let cfg = c.cfg;
        let epoch = c.epoch();
        let plan = c.tick(now);
        let sources = c.pressure_sources(now);
        if sources != 0 {
            // Which signal families voted pressure this tick (bit 0 CoDel,
            // bit 1 queue depth, bit 2 SLO burn) — exp_slo measures the
            // burn-rate lead time from these markers.
            api.emit_val(
                self.node,
                Severity::Info,
                "ctrl_pressure_src",
                Labels::for_peer(self.node.raw()),
                sources as i64,
            );
        }
        api.emit_val(
            self.node,
            Severity::Info,
            "ctrl_overload",
            Labels::for_peer(self.node.raw()),
            plan.pressured as i64,
        );
        if !plan.commands.is_empty() {
            // One actuation marker per commanding tick, stamped with the
            // epoch: the chaos invariant proves at most one controller
            // actuates at a time and epochs never move backwards.
            api.emit_val(
                self.node,
                Severity::Info,
                "ctrl_actuate",
                Labels::for_peer(self.node.raw()),
                epoch as i64,
            );
        }
        for cmd in plan.commands {
            match cmd {
                ControlCommand::Degrade { server, session } => {
                    api.emit(
                        self.node,
                        Severity::Info,
                        "ctrl_degrade_cmd",
                        Labels::session(session).peer(server),
                    );
                    if server == self.node.raw() {
                        self.apply_control_regrade(api, SessionId::new(session), false);
                    } else {
                        api.send_reliable(
                            self.node,
                            NodeId::new(server),
                            ServiceMsg::ControlRegrade {
                                session: SessionId::new(session),
                                upgrade: false,
                                epoch,
                            },
                        );
                    }
                }
                ControlCommand::Upgrade { server, session } => {
                    api.emit(
                        self.node,
                        Severity::Info,
                        "ctrl_upgrade_cmd",
                        Labels::session(session).peer(server),
                    );
                    if server == self.node.raw() {
                        self.apply_control_regrade(api, SessionId::new(session), true);
                    } else {
                        api.send_reliable(
                            self.node,
                            NodeId::new(server),
                            ServiceMsg::ControlRegrade {
                                session: SessionId::new(session),
                                upgrade: true,
                                epoch,
                            },
                        );
                    }
                }
                ControlCommand::SetPrice { shed } => {
                    api.emit_val(
                        self.node,
                        Severity::Info,
                        "ctrl_price",
                        Labels::for_peer(self.node.raw()),
                        shed as i64,
                    );
                    self.admission_price = shed;
                    for peer in self.peers.clone() {
                        api.send_reliable(
                            self.node,
                            peer,
                            ServiceMsg::ControlDirective { shed, epoch },
                        );
                    }
                }
                ControlCommand::ScaleOut { node } => {
                    api.emit(
                        self.node,
                        Severity::Warn,
                        "ctrl_scale_out",
                        Labels::for_peer(node),
                    );
                    api.send_reliable(
                        self.node,
                        NodeId::new(node),
                        ServiceMsg::ControlScale {
                            active: true,
                            epoch,
                        },
                    );
                }
                ControlCommand::ScaleIn { node } => {
                    api.emit(
                        self.node,
                        Severity::Info,
                        "ctrl_scale_in",
                        Labels::for_peer(node),
                    );
                    api.send_reliable(
                        self.node,
                        NodeId::new(node),
                        ServiceMsg::ControlScale {
                            active: false,
                            epoch,
                        },
                    );
                }
            }
        }
        api.set_timer(self.node, cfg.tick, timers::TK_CONTROL, 0);
    }

    /// Apply a controller-issued grade step to one of the session's
    /// streams, chosen by the same video-first order the controller's view
    /// model uses. Stale commands (session gone, suspended, or no step
    /// left) are dropped with a `ctrl_stale` trace.
    pub fn apply_control_regrade(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        upgrade: bool,
    ) {
        let order = self.cfg.grading_order;
        let Some(s) = self.sessions.get_mut(&session) else {
            // The session was torn down (possibly this very tick) between
            // the controller's view and the command's arrival — count and
            // drop rather than touch rebuilt state under a stale id.
            self.ctrl_stats.stale_drops += 1;
            api.emit(
                self.node,
                Severity::Info,
                "ctrl_stale",
                Labels::session(session.raw()),
            );
            return;
        };
        let chosen = {
            let candidates = s
                .streams
                .iter()
                .filter(|(_, tx)| tx.plan.kind.is_continuous() && !tx.done && !tx.stopped)
                .filter(|(_, tx)| {
                    if upgrade {
                        tx.source.level().0 > 0
                    } else {
                        tx.source.level() < tx.source.model().max_level()
                    }
                })
                .map(|(cid, tx)| {
                    (
                        order.degrade_rank(tx.plan.kind),
                        tx.source.level().0,
                        cid.raw(),
                        *cid,
                    )
                });
            if upgrade {
                candidates.max_by_key(|&(r, l, c, _)| (r, l, c))
            } else {
                candidates.min_by_key(|&(r, l, c, _)| (r, l, c))
            }
        };
        let Some((_, _, _, cid)) = chosen else {
            self.ctrl_stats.stale_drops += 1;
            api.emit(
                self.node,
                Severity::Info,
                "ctrl_stale",
                Labels::session(session.raw()),
            );
            return;
        };
        if s.suspended {
            self.ctrl_stats.stale_drops += 1;
            api.emit(
                self.node,
                Severity::Info,
                "ctrl_stale",
                Labels::session(session.raw()),
            );
            return;
        }
        s.utility_touch();
        let cur = s.streams[&cid].source.level().0;
        let new = GradeLevel(if upgrade { cur - 1 } else { cur + 1 });
        api.emit_val(
            self.node,
            if upgrade {
                Severity::Info
            } else {
                Severity::Warn
            },
            if upgrade {
                "ctrl_upgrade"
            } else {
                "ctrl_degrade"
            },
            Labels::session(session.raw()).stream(cid.raw()),
            new.0 as i64,
        );
        s.regrade(api, self.node, session, cid, new);
    }

    /// Controller-driven elastic rebalance: swap the tier's placement map
    /// and re-point exactly the streams whose current replica no longer
    /// hosts their object — under rendezvous hashing that is the minimal
    /// moved key range. When `drain` names a node being scaled in, its
    /// outstanding fetches are cancelled and written off first (the node is
    /// healthy, so this is a graceful drain, not a failover).
    pub fn rebalance_media(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        placement: PlacementMap,
        drain: Option<NodeId>,
    ) {
        let Some(tier) = self.media.as_mut() else {
            return;
        };
        tier.placement = placement;
        if let Some(node) = drain {
            api.emit(
                self.node,
                Severity::Info,
                "ctrl_drain",
                Labels::for_peer(node.raw()),
            );
            tier.selector.clear_outstanding(node);
            let lost: Vec<u64> = tier
                .inflight
                .iter()
                .filter(|(_, tag)| tag.replica == node)
                .map(|(f, _)| *f)
                .collect();
            for f in lost {
                tier.inflight.remove(&f);
                if let Some(p) = tier.hedge_pairs.remove(&f) {
                    tier.hedge_pairs.remove(&p);
                }
                // A drain can race the drained node's own crash (chaos aims
                // crashes at scaled-out standbys too): a reliable cancel to
                // a dead process would be retried into its next incarnation,
                // which never saw the fetch. The crash already voided the
                // queue, so only a live node needs the courtesy cancel.
                if api.node_is_up(node) {
                    api.send_reliable(self.node, node, ServiceMsg::MediaFetchCancel { fetch: f });
                }
            }
        }
        let mut affected: Vec<(SessionId, ComponentId)> = Vec::new();
        {
            let tier = self.media.as_ref().unwrap();
            for (sid, s) in self.sessions.iter() {
                for (cid, tx) in s.streams.iter() {
                    if tx.done || tx.stopped {
                        continue;
                    }
                    let Some(r) = tx.remote.as_ref() else {
                        continue;
                    };
                    if tier.placement.replicas(&r.object).contains(&r.replica) {
                        continue;
                    }
                    affected.push((*sid, *cid));
                }
            }
        }
        for &(sid, cid) in &affected {
            if let Some(r) = self
                .sessions
                .get_mut(&sid)
                .and_then(|s| s.streams.get_mut(&cid))
                .and_then(|tx| tx.remote.as_mut())
            {
                r.pending.clear();
                r.inflight.clear();
                r.next_request = r.next_append;
                r.epoch += 1;
                let epoch = r.epoch;
                api.emit_val(
                    self.node,
                    Severity::Info,
                    "stream_epoch",
                    Labels::session(sid.raw()).stream(cid.raw()),
                    epoch as i64,
                );
            }
            if self.reselect_replica(api, sid, cid) {
                self.pump_remote(api, sid, cid);
            }
        }
        // Shared groups move as one unit, exactly as on failover.
        let mut bumped: Vec<(u64, u64)> = Vec::new();
        for (gid, g) in self.groups.iter_mut() {
            if affected.iter().any(|(sid, _)| *sid == g.leader) {
                g.epoch += 1;
                bumped.push((*gid, g.epoch));
            }
        }
        for (gid, epoch) in bumped {
            self.sharing_stats.epoch_bumps += 1;
            api.emit_val(
                self.node,
                Severity::Info,
                "group_epoch",
                Labels::NONE.stream(gid),
                epoch as i64,
            );
            api.send_mcast(self.node, gid, ServiceMsg::GroupEpoch { group: gid, epoch });
        }
    }

    /// A media node crashed or restarted. Fetches outstanding to it will
    /// never complete; every stream pulling from it drops its in-flight
    /// window and re-points at the best live replica — the stateless fetch
    /// protocol makes failover exactly a re-request from `next_append`,
    /// i.e. from the first frame the client has not yet been sent.
    pub fn on_media_node_event(&mut self, api: &mut SimApi<'_, ServiceMsg>, media_node: NodeId) {
        if self.media.is_none() {
            return;
        }
        api.emit(
            self.node,
            Severity::Warn,
            "media_failover",
            Labels::for_peer(media_node.raw()),
        );
        api.flight_dump(
            self.node,
            "media_failover",
            Labels::for_peer(media_node.raw()),
        );
        let Some(tier) = self.media.as_mut() else {
            return;
        };
        tier.selector.clear_outstanding(media_node);
        // A new incarnation is a new server: forget the old one's health
        // score and breaker state along with the load estimate (its trips
        // stay in the cumulative totals).
        tier.health.reset(media_node);
        let lost: Vec<u64> = tier
            .inflight
            .iter()
            .filter(|(_, tag)| tag.replica == media_node)
            .map(|(f, _)| *f)
            .collect();
        tier.stats.fetches_lost += lost.len() as u64;
        for f in lost {
            tier.inflight.remove(&f);
            // A written-off half of a hedge race leaves the survivor
            // racing nobody; it completes (or fails) on its own.
            if let Some(p) = tier.hedge_pairs.remove(&f) {
                tier.hedge_pairs.remove(&p);
            }
        }
        let mut affected: Vec<(SessionId, ComponentId)> = Vec::new();
        for (sid, s) in self.sessions.iter_mut() {
            for (cid, tx) in s.streams.iter_mut() {
                if tx.done || tx.stopped {
                    continue;
                }
                let Some(r) = tx.remote.as_mut() else {
                    continue;
                };
                if r.replica != media_node {
                    continue;
                }
                // Keep `ready` (already fetched, in order); drop the rest.
                r.pending.clear();
                r.inflight.clear();
                r.next_request = r.next_append;
                r.epoch += 1;
                api.emit_val(
                    self.node,
                    Severity::Info,
                    "stream_epoch",
                    Labels::session(sid.raw()).stream(cid.raw()),
                    r.epoch as i64,
                );
                affected.push((*sid, *cid));
            }
        }
        for &(sid, cid) in &affected {
            if self.reselect_replica(api, sid, cid) {
                if let Some(tier) = self.media.as_mut() {
                    tier.stats.failovers += 1;
                }
                self.pump_remote(api, sid, cid);
            }
            // No live replica: parked until a restart event re-points us.
        }
        // Shared groups fail over as one unit: exactly ONE epoch bump per
        // group per media-node event, announced to the whole group — the
        // leader's per-stream failover above already re-pointed the fetch
        // window, so members see an uninterrupted frame sequence.
        let mut bumped: Vec<(u64, u64)> = Vec::new();
        for (gid, g) in self.groups.iter_mut() {
            if affected.iter().any(|(sid, _)| *sid == g.leader) {
                g.epoch += 1;
                bumped.push((*gid, g.epoch));
            }
        }
        for (gid, epoch) in bumped {
            self.sharing_stats.epoch_bumps += 1;
            api.emit_val(
                self.node,
                Severity::Info,
                "group_epoch",
                Labels::NONE.stream(gid),
                epoch as i64,
            );
            api.send_mcast(self.node, gid, ServiceMsg::GroupEpoch { group: gid, epoch });
        }
        self.drain_breaker_events(api);
    }

    fn start_stream(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        component: ComponentId,
    ) {
        // The first frame goes out immediately; the chain continues in
        // send_frame.
        self.send_frame(api, session, component);
    }

    /// Send one discrete object (timer TK_DISCRETE).
    pub(crate) fn send_discrete(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        component: ComponentId,
    ) {
        {
            let Some(s) = self.sessions.get_mut(&session) else {
                return;
            };
            if s.paused || s.suspended {
                // Retry after a pause-poll interval.
                api.set_timer(
                    self.node,
                    MediaDuration::from_millis(200),
                    timers::TK_DISCRETE,
                    timers::pack(session, component),
                );
                return;
            }
            let Some(tx) = s.streams.get(&component) else {
                return;
            };
            if tx.done || tx.stopped {
                return;
            }
        }
        // With a media tier, the object's bytes must first arrive from a
        // replica (or the cache); until then, poll.
        let mut fetched_total = None;
        let is_remote = self
            .sessions
            .get(&session)
            .and_then(|s| s.streams.get(&component))
            .map(|tx| tx.remote.is_some())
            .unwrap_or(false);
        if is_remote {
            self.pump_remote(api, session, component);
            let Some(r) = self
                .sessions
                .get(&session)
                .and_then(|s| s.streams.get(&component))
                .and_then(|tx| tx.remote.as_ref())
            else {
                return;
            };
            match r.ready.front() {
                Some(spec) => fetched_total = Some(spec.size),
                None => {
                    let tier = self.media.as_mut().expect("remote stream without tier");
                    tier.stats.stalls += 1;
                    api.set_timer(
                        self.node,
                        tier.cfg.stall_poll,
                        timers::TK_DISCRETE,
                        timers::pack(session, component),
                    );
                    return;
                }
            }
        }
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        let client = s.client;
        let Some(tx) = s.streams.get_mut(&component) else {
            return;
        };
        let total = match fetched_total {
            Some(size) => size,
            None => tx
                .source
                .clone()
                .next_frame()
                .map(|f| f.size)
                .unwrap_or(10_000),
        };
        tx.done = true;
        tx.frames_sent = 1;
        tx.bytes_sent = total as u64;
        let now = api.now();
        if let Some(s) = self.sessions.get_mut(&session) {
            s.last_media = now;
        }
        // Segment to MTU-sized chunks, as TCP would.
        const SEGMENT: u32 = 1_400;
        let mut remaining = total;
        loop {
            let size = remaining.min(SEGMENT);
            remaining -= size;
            let last = remaining == 0;
            api.send_reliable(
                self.node,
                client,
                ServiceMsg::DiscreteData {
                    session,
                    component,
                    size,
                    total,
                    last,
                    sent_at: now,
                },
            );
            if last {
                break;
            }
        }
    }

    fn send_frame(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        component: ComponentId,
    ) {
        {
            let Some(s) = self.sessions.get_mut(&session) else {
                return;
            };
            if s.suspended {
                return; // resumes re-arm the chain
            }
            if s.paused {
                // Poll until resumed (resume also re-arms immediately).
                api.set_timer(
                    self.node,
                    MediaDuration::from_millis(100),
                    timers::TK_FRAME,
                    timers::pack(session, component),
                );
                return;
            }
            let Some(tx) = s.streams.get_mut(&component) else {
                return;
            };
            if tx.done || tx.stopped {
                return;
            }
            if let Some(limit) = tx.patch_until {
                // Patch complete: the stream's next pts is carried by the
                // shared flow. Strictly exclusive — equal pts stops here.
                if tx.source.next_pts() >= limit {
                    tx.done = true;
                    return;
                }
            }
        }
        // Media tier: top up the fetch window, then gate this frame on
        // fetched content — the pacer only advances once the frame's bytes
        // have actually come off the wire from a replica (or the cache).
        let mut fetched = None;
        let is_remote = self
            .sessions
            .get(&session)
            .and_then(|s| s.streams.get(&component))
            .map(|tx| tx.remote.is_some())
            .unwrap_or(false);
        if is_remote {
            self.pump_remote(api, session, component);
            let Some(r) = self
                .sessions
                .get_mut(&session)
                .and_then(|s| s.streams.get_mut(&component))
                .and_then(|tx| tx.remote.as_mut())
            else {
                return;
            };
            match r.ready.pop_front() {
                Some(spec) => fetched = Some(spec),
                None => {
                    let tier = self.media.as_mut().expect("remote stream without tier");
                    tier.stats.stalls += 1;
                    api.set_timer(
                        self.node,
                        tier.cfg.stall_poll,
                        timers::TK_FRAME,
                        timers::pack(session, component),
                    );
                    return;
                }
            }
        }
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        let client = s.client;
        // A group leader's streams feed the whole group: one multicast send
        // replaces the per-member unicasts (single copy per egress link).
        let shared = s
            .group
            .and_then(|gid| self.groups.get(&gid))
            .filter(|g| g.leader == session)
            .map(|g| g.id);
        let Some(tx) = s.streams.get_mut(&component) else {
            return;
        };
        let mut stream_finished = false;
        match tx.source.next_frame() {
            Some(frame) => {
                if let Some(spec) = fetched {
                    // The fetched spec and the pacer derive from the same
                    // deterministic codec model — they must agree exactly.
                    debug_assert_eq!((spec.size, spec.key), (frame.size, frame.key));
                }
                tx.frames_sent += 1;
                tx.bytes_sent += frame.size as u64;
                let now = api.now();
                for packet in tx.sender.packetize(&frame) {
                    let msg = ServiceMsg::RtpData {
                        session,
                        component,
                        packet,
                        sent_at: now,
                    };
                    match shared {
                        Some(gid) => {
                            api.send_mcast(self.node, gid, msg);
                        }
                        None => {
                            api.send(self.node, client, msg);
                        }
                    }
                }
                if shared.is_some() {
                    self.sharing_stats.mcast_frames += 1;
                }
                // Periodic RTCP sender report (RFC 3550): every 64 frames.
                if tx.frames_sent % 64 == 1 {
                    let sr = tx.sender.sender_report(now);
                    let msg = ServiceMsg::RtcpSenderReport {
                        session,
                        component,
                        packet: sr,
                    };
                    match shared {
                        Some(gid) => {
                            api.send_mcast(self.node, gid, msg);
                        }
                        None => {
                            api.send(self.node, client, msg);
                        }
                    }
                }
                let period = tx.source.model().level(tx.source.level()).frame_period();
                api.set_timer(
                    self.node,
                    period,
                    timers::TK_FRAME,
                    timers::pack(session, component),
                );
                s.last_media = now;
            }
            None => {
                tx.done = true;
                stream_finished = true;
            }
        }
        if stream_finished {
            if let Some(gid) = shared {
                // The group ends when the leader's last continuous stream
                // finishes; members keep draining their playout buffers.
                let all_done = self
                    .sessions
                    .get(&session)
                    .map(|s| {
                        s.streams
                            .values()
                            .filter(|t| t.plan.kind.is_continuous())
                            .all(|t| t.done || t.stopped)
                    })
                    .unwrap_or(true);
                if all_done {
                    self.end_group(api, gid);
                }
            }
        }
    }

    fn on_feedback(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        measurements: &[(ComponentId, hermes_core::QosMeasurement)],
    ) {
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        let client = s.client;
        // Grade changes alter the utility rate: settle the integral at the
        // pre-change rate first.
        s.utility_touch();
        let actions = s.qos.on_feedback(measurements);
        for act in actions {
            if let Some(tx) = s.streams.get_mut(&act.component) {
                match act.decision {
                    GradeDecision::Degrade | GradeDecision::Upgrade => {
                        if tx.stopped && !act.stopped {
                            // Restarted after a stop: re-arm the chain.
                            tx.stopped = false;
                            api.set_timer(
                                self.node,
                                MediaDuration::ZERO,
                                timers::TK_FRAME,
                                timers::pack(session, act.component),
                            );
                        }
                        api.emit_val(
                            self.node,
                            if act.decision == GradeDecision::Degrade {
                                Severity::Warn
                            } else {
                                Severity::Info
                            },
                            if act.decision == GradeDecision::Degrade {
                                "qos_degrade"
                            } else {
                                "qos_upgrade"
                            },
                            Labels::session(session.raw()).stream(act.component.raw()),
                            act.new_level.0 as i64,
                        );
                        s.regrade(api, self.node, session, act.component, act.new_level);
                    }
                    GradeDecision::Stop => {
                        tx.stopped = true;
                        api.emit(
                            self.node,
                            Severity::Warn,
                            "qos_stop",
                            Labels::session(session.raw()).stream(act.component.raw()),
                        );
                        api.send_reliable(
                            self.node,
                            client,
                            ServiceMsg::StreamStopped {
                                session,
                                component: act.component,
                            },
                        );
                    }
                    GradeDecision::Hold => {}
                }
            }
        }
    }

    fn on_resume(&mut self, api: &mut SimApi<'_, ServiceMsg>, session: SessionId) {
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        if !s.paused {
            return;
        }
        s.paused = false;
        let components: Vec<ComponentId> = s
            .streams
            .iter()
            .filter(|(_, tx)| !tx.done && !tx.stopped)
            .map(|(c, _)| *c)
            .collect();
        for c in components {
            api.set_timer(
                self.node,
                MediaDuration::ZERO,
                timers::TK_FRAME,
                timers::pack(session, c),
            );
        }
    }

    fn teardown_session(&mut self, api: &mut SimApi<'_, ServiceMsg>, session: SessionId) {
        self.leave_group(api, session);
        self.release_session_readers(session);
        if let Some(conn) = self.admission.release(session) {
            api.net_mut().release(conn);
        }
        if let Some(mut s) = self.sessions.remove(&session) {
            // Fold the session's utility integral into the closed ledger so
            // `server.utility_acc` keeps counting it after removal.
            s.utility_touch();
            self.util_closed += s.util_acc;
            api.emit(
                self.node,
                Severity::Info,
                "session_teardown",
                Labels::session(session.raw()),
            );
            api.span_end(s.obs_admission);
            api.span_end(s.obs_root);
        }
    }

    /// Snapshot this server's counters into the unified metrics registry.
    /// Every metric is labelled with the server's node id (`peer`) so a
    /// multi-server world publishes without key collisions.
    pub fn publish_metrics(&self, obs: &mut Obs) {
        let l = Labels::for_peer(self.node.raw());
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        let mut requests = 0u64;
        for cs in self.admission.stats.values() {
            requests += cs.requests;
            admitted += cs.admitted;
            rejected += cs.rejected;
        }
        obs.registry
            .counter_set("server.admit_requests", l, requests);
        obs.registry.counter_set("server.admitted", l, admitted);
        obs.registry
            .counter_set("server.admit_rejected", l, rejected);
        obs.registry
            .gauge_set("server.sessions", l, self.sessions.len() as f64);
        obs.registry.counter_set(
            "server.share_groups_opened",
            l,
            self.sharing_stats.groups_opened,
        );
        obs.registry.counter_set(
            "server.share_joins_pending",
            l,
            self.sharing_stats.joins_pending,
        );
        obs.registry.counter_set(
            "server.share_joins_patched",
            l,
            self.sharing_stats.joins_patched,
        );
        obs.registry.counter_set(
            "server.share_patch_streams",
            l,
            self.sharing_stats.patch_streams,
        );
        obs.registry.counter_set(
            "server.share_mcast_frames",
            l,
            self.sharing_stats.mcast_frames,
        );
        obs.registry.counter_set(
            "server.share_epoch_bumps",
            l,
            self.sharing_stats.epoch_bumps,
        );
        if let Some(tier) = self.media.as_ref() {
            let st = &tier.stats;
            obs.registry.counter_set("server.fetches", l, st.fetches);
            obs.registry.counter_set("server.chunks", l, st.chunks);
            obs.registry.counter_set("server.stalls", l, st.stalls);
            obs.registry
                .counter_set("server.failovers", l, st.failovers);
            obs.registry
                .counter_set("server.fetch_errors", l, st.fetch_errors);
            obs.registry.counter_set("server.fetch_busy", l, st.busy);
            obs.registry.counter_set("server.hedges", l, st.hedges);
            obs.registry
                .counter_set("server.hedge_wins", l, st.hedge_wins);
            obs.registry
                .counter_set("server.breaker_trips", l, st.breaker_trips);
            obs.registry
                .counter_set("server.fetches_lost", l, st.fetches_lost);
            obs.registry
                .counter_set("server.parts_received", l, st.parts_received);
            obs.registry
                .counter_set("server.ladder_degrades", l, st.ladder_degrades);
            obs.registry
                .counter_set("server.ladder_restores", l, st.ladder_restores);
            let c = tier.cache.stats;
            obs.registry.counter_set("server.cache_hits", l, c.hits);
            obs.registry.counter_set("server.cache_misses", l, c.misses);
            obs.registry
                .counter_set("server.cache_evicted", l, c.evicted);
            obs.registry
                .hist_set("server.fetch_latency", l, tier.fetch_latency.clone());
        }
        // Aggregate delivered utility: closed sessions' ledger plus every
        // live session's integral (advanced at the report cadence).
        let live: f64 = self.sessions.values().map(|s| s.util_acc).sum();
        obs.registry
            .gauge_set("server.utility_acc", l, self.util_closed + live);
        obs.registry
            .gauge_set("server.admission_price", l, self.admission_price as f64);
        if let Some(c) = self.controller.as_ref() {
            let st = c.stats;
            obs.registry.counter_set("ctrl.ticks", l, st.ticks);
            obs.registry
                .counter_set("ctrl.pressured_ticks", l, st.pressured_ticks);
            obs.registry.counter_set("ctrl.degrades", l, st.degrades);
            obs.registry.counter_set("ctrl.upgrades", l, st.upgrades);
            obs.registry
                .counter_set("ctrl.price_changes", l, st.price_changes);
            obs.registry
                .counter_set("ctrl.scale_outs", l, st.scale_outs);
            obs.registry.counter_set("ctrl.scale_ins", l, st.scale_ins);
            obs.registry
                .counter_set("ctrl.cold_ticks", l, st.cold_ticks);
        }
        // HA: which controller was in charge (highest epoch this node
        // accepted) and what got fenced — first-class, so exp tables and
        // flight dumps can show the failover story without trace parsing.
        obs.registry
            .gauge_set("control.epoch", l, self.ctrl_epoch_seen as f64);
        obs.registry
            .counter_set("control.fence_drops", l, self.ctrl_stats.fence_drops);
        obs.registry
            .counter_set("control.stale_drops", l, self.ctrl_stats.stale_drops);
        obs.registry
            .counter_set("control.elections", l, self.ctrl_stats.elections);
        obs.registry
            .counter_set("control.demotions", l, self.ctrl_stats.demotions);
        obs.registry
            .counter_set("control.lease_beats", l, self.ctrl_stats.lease_beats);
    }

    fn on_disconnect(&mut self, api: &mut SimApi<'_, ServiceMsg>, session: SessionId) {
        let now = api.now();
        if let Some(s) = self.sessions.get(&session) {
            if let Some(u) = s.user {
                let dur = now - s.connected_at;
                let bytes: u64 = s.streams.values().map(|t| t.bytes_sent).sum();
                self.accounts.charge(u, Charge::Duration(dur));
                self.accounts.charge(u, Charge::Volume(bytes));
            }
        }
        self.teardown_session(api, session);
    }

    fn local_hits(&self, token: &str) -> Vec<SearchHit> {
        self.db
            .search(token)
            .into_iter()
            .map(|(document, title)| SearchHit {
                server: self.server_id,
                document,
                title,
            })
            .collect()
    }

    fn on_search_request(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        token: String,
        query: u64,
    ) {
        let Some(s) = self.sessions.get(&session) else {
            return;
        };
        let client = s.client;
        let hits = self.local_hits(&token);
        if self.peers.is_empty() {
            api.send_reliable(
                self.node,
                client,
                ServiceMsg::SearchResponse {
                    session,
                    query,
                    hits,
                },
            );
            return;
        }
        self.queries.insert(
            query,
            PendingQuery {
                session,
                client,
                hits,
                awaiting: self.peers.len(),
            },
        );
        // "this particular server sends the query to all other Hermes
        // servers for the same reason" (§6.2.2).
        for peer in self.peers.clone() {
            api.send_reliable(
                self.node,
                peer,
                ServiceMsg::SearchFanout {
                    query,
                    token: token.clone(),
                    origin: self.node,
                },
            );
        }
    }

    fn on_search_partial(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        query: u64,
        hits: Vec<SearchHit>,
    ) {
        let done = {
            let Some(q) = self.queries.get_mut(&query) else {
                return;
            };
            q.hits.extend(hits);
            q.awaiting -= 1;
            q.awaiting == 0
        };
        if done {
            let q = self.queries.remove(&query).unwrap();
            api.send_reliable(
                self.node,
                q.client,
                ServiceMsg::SearchResponse {
                    session: q.session,
                    query,
                    hits: q.hits,
                },
            );
        }
    }
}
