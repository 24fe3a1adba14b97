//! The PASE end-host transport (paper §3.2).
//!
//! The sender combines the three strategies:
//!
//! * **Arbitration** tells it a priority queue and a reference rate: the
//!   local uplink decision is synchronous (same host); the sender- and
//!   receiver-leg decisions arrive as control responses and are merged as
//!   `queue = max`, `rate = min` (the bottleneck rules).
//! * **Guided rate control** (Algorithm 2): top-queue flows set
//!   `cwnd = Rref × RTT` instead of slow-starting; intermediate-queue
//!   flows run DCTCP control laws; bottom-queue flows hold `cwnd = 1`.
//!   A marked ACK always triggers the DCTCP decrease.
//! * **Priority-aware loss recovery**: lower-queue flows answer timeouts
//!   with header-only probes that distinguish "lost" from "parked behind
//!   higher-priority traffic"; minimum RTOs are 10 ms (top queue) vs
//!   200 ms (rest). Optionally, bottom-queue flows replace their
//!   1-packet-per-RTT trickle with probes entirely (§4.3.2).
//! * **Reordering guard**: on a queue promotion the sender drains
//!   in-flight lower-priority packets before sending at the new priority.
//! * **Graceful degradation**: one [`ChannelHealth`] state machine judges
//!   every refresh round answered, shed or silent. After `watchdog_k`
//!   silent refresh periods, or `watchdog_k` net bad rounds, the flow
//!   falls back to pure self-adjusting mode (lowest queue, DCTCP laws,
//!   data never suppressed) with bounded exponential backoff on
//!   re-requests. It re-attaches to its arbitrated `PrioQue`/`Rref`
//!   assignment on the first clean answer that drains the bad-round debt
//!   below `watchdog_k`.

use netsim::flow::FlowSpec;
use netsim::host::{AgentCtx, FlowAgent, WAKEUP_TOKEN};
use netsim::packet::{Packet, PacketKind};
use netsim::time::{Rate, SimDuration, SimTime};
use transport::{AckKind, LossEvent, RttEstimator, TxEngine};

use crate::algorithm::Decision;
use crate::config::PaseConfig;
use crate::host_service::{ArbPlan, PaseHostService};
use crate::messages::{ArbMsg, ArbRequest, Leg};

/// Token bases for the sender's own timers; [`TxEngine`] epochs stay far
/// below these.
const REFRESH_TOKEN_BASE: u64 = 1 << 40;
const PACE_TOKEN_BASE: u64 = 1 << 41;

/// The PASE sender agent.
pub struct PaseSender {
    spec: FlowSpec,
    cfg: PaseConfig,
    engine: TxEngine,
    plan: ArbPlan,

    // Arbitration state.
    local: Decision,
    queue: u8,
    rref: Rate,
    /// Band actually written on outgoing data (lags `queue` during the
    /// reordering-guard hold).
    tx_prio: u8,

    // DCTCP machinery for the self-adjusting part.
    alpha: f64,
    obs_end: u64,
    obs_acked: u64,
    obs_marked: u64,
    next_decrease_at: u64,
    /// Algorithm 2's `isInterQueue` flag.
    is_inter_queue: bool,
    /// Slow-start threshold, only used in PASE-DCTCP mode (Fig. 13a).
    ssthresh: f64,

    // Reordering guard: while `Some(barrier)`, new data keeps the old
    // (lower) priority until everything sent before the promotion is
    // acknowledged, then switches to the new priority.
    reorder_barrier: Option<u64>,
    // Probe-based loss recovery: `Some(acked_at_send)` while a recovery
    // probe is outstanding.
    recovery_probe: Option<u64>,
    // Bottom-queue pacing probes.
    pace_epoch: u64,
    refresh_epoch: u64,
    started: bool,
    /// Control-channel health: the graceful-degradation state machine.
    health: ChannelHealth,
    /// Inter-rack flows hold their first data until the sender-leg
    /// arbitration response arrives (paper §3.1.2: "a flow starts as soon
    /// as it receives arbitration information from the child arbitrator").
    /// The refresh timer is the fallback if the response is lost.
    awaiting_initial_arb: bool,
    done: bool,
}

impl PaseSender {
    /// Create a sender for `spec`.
    pub fn new(spec: &FlowSpec, cfg: PaseConfig) -> PaseSender {
        let rtt = RttEstimator::new(cfg.min_rto_top, cfg.max_rto);
        PaseSender {
            spec: spec.clone(),
            cfg,
            engine: TxEngine::new(spec.id, spec.src, spec.dst, spec.size, cfg.mss, 1.0, rtt),
            plan: ArbPlan {
                sender_leg_to: None,
                receiver_leg_to: None,
            },
            local: Decision {
                queue: cfg.lowest_queue(),
                rate: cfg.base_rate(),
            },
            queue: cfg.lowest_queue(),
            rref: cfg.base_rate(),
            tx_prio: cfg.lowest_queue(),
            alpha: 0.0,
            obs_end: 0,
            obs_acked: 0,
            obs_marked: 0,
            next_decrease_at: 0,
            is_inter_queue: false,
            ssthresh: f64::INFINITY,
            reorder_barrier: None,
            recovery_probe: None,
            pace_epoch: 0,
            refresh_epoch: 0,
            started: false,
            health: ChannelHealth::default(),
            awaiting_initial_arb: false,
            done: false,
        }
    }

    /// Effective queue (tests/inspection).
    pub fn queue(&self) -> u8 {
        self.queue
    }

    /// Effective reference rate (tests/inspection).
    pub fn rref(&self) -> Rate {
        self.rref
    }

    /// Current congestion window in packets (tests/inspection).
    pub fn cwnd(&self) -> f64 {
        self.engine.cwnd
    }

    /// Snapshot of the control-channel health (tests/inspection).
    pub fn health(&self) -> ChannelHealth {
        self.health
    }

    fn srtt(&self) -> SimDuration {
        self.engine.rtt.srtt().unwrap_or(self.cfg.base_rtt)
    }

    /// The flow's demand: what it could use if unconstrained — the NIC
    /// rate, capped by what the remaining bytes can fill in one RTT
    /// (paper §3.1.1: "for short flows ... this is set to a lower value").
    fn demand(&self, ctx: &AgentCtx<'_, '_>) -> Rate {
        let nic = ctx.host.port.rate;
        let remaining_wire =
            self.engine.remaining() + (self.engine.remaining() / self.cfg.mss as u64 + 1) * 40;
        let per_rtt =
            Rate::from_bps((remaining_wire as f64 * 8.0 / self.cfg.base_rtt.as_secs_f64()) as u64);
        nic.min(per_rtt)
    }

    fn reference_cwnd_pkts(&self) -> f64 {
        let bytes_per_rtt = self.rref.bytes_in(self.srtt());
        (bytes_per_rtt as f64 / (self.cfg.mss as f64 + 40.0)).max(1.0)
    }

    fn in_bottom_queue(&self) -> bool {
        self.queue >= self.cfg.lowest_queue()
    }

    /// Should data transmission be suppressed in favor of pacing probes?
    /// Never in fallback: with no arbitrator to promote us out of the
    /// bottom queue, probing instead of sending would stall forever.
    fn data_suppressed(&self) -> bool {
        !self.health.in_fallback
            && self.cfg.probe_bottom_queue
            && self.in_bottom_queue()
            && !self.spec.is_background()
            && self.cfg.end_to_end
    }

    /// Run local arbitration and fire off the leg requests. Returns
    /// whether a sender-leg request was actually sent (pruning may skip
    /// it).
    fn arbitrate(&mut self, ctx: &mut AgentCtx<'_, '_>) -> bool {
        if self.spec.is_background() {
            // Background traffic rides the dedicated lowest queue and is
            // not arbitrated (paper §3.3).
            self.queue = self.cfg.lowest_queue();
            self.tx_prio = self.queue;
            return false;
        }
        let now = ctx.now();
        let flow = self.spec.id;
        let remaining = self.engine.remaining();
        // A deadline that has already passed no longer confers urgency:
        // under EDF an expired flow would otherwise hold the top queue
        // forever and starve still-meetable flows (EDF's overload
        // pathology). It falls back to size-based priority.
        let deadline = self.spec.deadline_abs().filter(|d| *d > now);
        let task = self.spec.task;
        let demand = self.demand(ctx);
        let Some(svc) = ctx.service::<PaseHostService>() else {
            // No control plane installed: degrade to a single queue.
            return false;
        };
        if svc.is_crashed() {
            // The local control process is down: the synchronous uplink
            // decision fails exactly like the remote legs do, and the
            // watchdog drops the flow to self-adjusting fallback.
            return false;
        }
        self.plan = svc.plan(self.spec.dst);
        self.local = svc.local_update(flow, remaining, deadline, task, demand, now);

        // Sender-leg request (pruned if the local decision is already out
        // of the top queues).
        let mut sender_leg_sent = false;
        if let Some(tor) = self.plan.sender_leg_to {
            if self.cfg.prunes(self.local.queue) {
                ctx.sim.stats.note_arb_pruned(self.spec.src);
            } else {
                ctx.sim.stats.note_arb_climbed(self.spec.src);
                sender_leg_sent = true;
                let req = ArbRequest {
                    flow,
                    reply_to: self.spec.src,
                    src: self.spec.src,
                    dst: self.spec.dst,
                    remaining,
                    deadline,
                    task,
                    demand,
                    leg: Leg::Sender,
                    acc_queue: self.local.queue,
                    acc_rate: self.local.rate,
                };
                ctx.send(Packet::ctrl(
                    flow,
                    self.spec.src,
                    tor,
                    Box::new(ArbMsg::Request(req)),
                ));
            }
        }
        // Receiver-leg request: the destination arbitrates its downlink.
        if let Some(dst) = self.plan.receiver_leg_to {
            let req = ArbRequest {
                flow,
                reply_to: self.spec.src,
                src: self.spec.src,
                dst: self.spec.dst,
                remaining,
                deadline,
                task,
                demand,
                leg: Leg::Receiver,
                acc_queue: 0,
                acc_rate: demand,
            };
            ctx.send(Packet::ctrl(
                flow,
                self.spec.src,
                dst,
                Box::new(ArbMsg::Request(req)),
            ));
        }
        self.recompute_effective(ctx);
        sender_leg_sent
    }

    /// Merge the local and leg decisions into the effective queue/rate and
    /// apply Algorithm 2's state transitions.
    fn recompute_effective(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.health.in_fallback {
            // Fallback pins the flow to the lowest queue at base rate; the
            // merge below would resurrect the (possibly stale, possibly
            // uncoordinated) local decision. Exit happens when an answered
            // round closes, before this is called again.
            self.queue = self.cfg.lowest_queue();
            self.rref = self.cfg.base_rate();
            self.sync_tx_prio();
            self.engine.rtt.set_min_rto(self.cfg.min_rto_low);
            return;
        }
        let legs = match ctx.service::<PaseHostService>() {
            Some(svc) => svc.leg_results(self.spec.id),
            None => Default::default(),
        };
        let mut queue = self.local.queue;
        let mut rref = self.local.rate;
        for d in [legs.sender, legs.receiver].into_iter().flatten() {
            queue = queue.max(d.queue);
            rref = rref.min(d.rate);
        }
        let old_queue = self.queue;
        self.queue = queue.min(self.cfg.lowest_queue());
        self.rref = rref;

        if self.queue < old_queue && self.engine.flight_bytes() > 0 {
            // Promotion: keep sending at the old (lower) priority until
            // everything already in flight is acknowledged, so packets of
            // the two priorities cannot reorder (paper §3.2). Demotions
            // apply immediately (low-priority packets sent later cannot
            // overtake earlier high-priority ones).
            self.reorder_barrier = Some(self.engine.snd_nxt());
        }
        self.sync_tx_prio();
        // Per-queue minimum RTO (Table 3).
        let min_rto = if self.queue == 0 {
            self.cfg.min_rto_top
        } else {
            self.cfg.min_rto_low
        };
        self.engine.rtt.set_min_rto(min_rto);

        // Algorithm 2 state transitions on queue change.
        if self.cfg.use_reference_rate && old_queue != self.queue {
            if self.queue == 0 {
                self.engine.cwnd = self.reference_cwnd_pkts();
                self.is_inter_queue = false;
            } else if self.in_bottom_queue() {
                self.engine.cwnd = 1.0;
                self.is_inter_queue = false;
            } else if !self.is_inter_queue {
                self.is_inter_queue = true;
                self.engine.cwnd = 1.0;
            }
        }
        // Entering the bottom queue with pacing probes: start the pacer.
        if self.data_suppressed() && self.started {
            self.start_pace_probes(ctx);
        }
    }

    fn start_pace_probes(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        self.pace_epoch += 1;
        ctx.set_timer(self.srtt(), PACE_TOKEN_BASE + self.pace_epoch);
    }

    fn send_pace_probe(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        let mut probe = Packet::probe(
            self.spec.id,
            self.spec.src,
            self.spec.dst,
            self.engine.acked(),
        );
        probe.prio = self.tx_prio;
        ctx.sim.stats.note_probe(self.spec.id);
        ctx.send(probe);
    }

    /// Algorithm 2's per-ACK window law.
    fn on_new_ack(&mut self, newly: u64, ece: bool) {
        // DCTCP marked-fraction estimator (shared by all modes).
        self.obs_acked += newly;
        if ece {
            self.obs_marked += newly;
        }
        if self.engine.acked() >= self.obs_end {
            if self.obs_acked > 0 {
                let f = self.obs_marked as f64 / self.obs_acked as f64;
                self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g * f;
            }
            self.obs_acked = 0;
            self.obs_marked = 0;
            self.obs_end = self.engine.snd_nxt();
        }

        let pkts = newly as f64 / self.cfg.mss as f64;
        if ece && self.engine.acked() >= self.next_decrease_at {
            // Marked ACK: DCTCP decrease law (all queues).
            self.engine.cwnd = (self.engine.cwnd * (1.0 - self.alpha / 2.0)).max(1.0);
            self.ssthresh = self.engine.cwnd;
            self.next_decrease_at = self.engine.snd_nxt();
            return;
        }
        if self.engine.in_recovery() {
            return;
        }
        if self.health.in_fallback || !self.cfg.use_reference_rate {
            // Plain DCTCP growth (the marked-ACK decrease above still
            // applies), with the same delayed-ACK pacing real DCTCP stacks
            // exhibit (half a packet of growth per acked packet). Both the
            // self-adjusting fallback — exactly as if no arbitrator had
            // ever answered — and PASE-DCTCP (Fig. 13a) ride it.
            let pkts = pkts * 0.5;
            if self.engine.cwnd < self.ssthresh {
                self.engine.cwnd += pkts;
            } else {
                self.engine.cwnd += pkts / self.engine.cwnd;
            }
            return;
        }
        if self.queue == 0 {
            // Top queue: the window tracks the reference rate.
            self.engine.cwnd = self.reference_cwnd_pkts();
            self.is_inter_queue = false;
        } else if self.in_bottom_queue() {
            self.engine.cwnd = 1.0;
            self.is_inter_queue = false;
        } else if self.is_inter_queue {
            // Intermediate queues: DCTCP control laws. Algorithm 2 prints
            // only the congestion-avoidance step, but DCTCP's laws include
            // slow start below ssthresh; without it, flows parked at
            // cwnd=1 cannot keep the fabric busy when the top queue
            // drains, defeating the work-conservation role of the lower
            // queues (paper §2.2).
            if self.engine.cwnd < self.ssthresh {
                self.engine.cwnd += pkts;
            } else {
                self.engine.cwnd += pkts / self.engine.cwnd;
            }
        } else {
            self.is_inter_queue = true;
            self.engine.cwnd = 1.0;
        }
    }

    fn on_loss(&mut self, loss: LossEvent) {
        match loss {
            LossEvent::FastRetransmit => {
                self.engine.cwnd = (self.engine.cwnd / 2.0).max(1.0);
                self.ssthresh = self.engine.cwnd;
            }
            LossEvent::Timeout => {
                self.ssthresh = (self.engine.cwnd / 2.0).max(2.0);
                self.engine.cwnd = 1.0;
            }
        }
    }

    /// Resolve the wire priority: the effective queue, unless a reorder
    /// barrier still pins us to the previous (lower) priority. While the
    /// barrier is active the flow keeps sending at the old priority; every
    /// such transmission extends the barrier, so the switch happens at the
    /// first moment nothing sent at the old priority is still in flight.
    fn sync_tx_prio(&mut self) {
        if let Some(b) = self.reorder_barrier {
            if self.engine.acked() >= b.min(self.engine.snd_nxt())
                && self.engine.flight_bytes() == 0
            {
                self.reorder_barrier = None;
            } else if self.engine.acked() >= b {
                // Original barrier cleared but packets sent during the
                // drain window are still out: extend to the send frontier.
                self.reorder_barrier = Some(self.engine.snd_nxt());
            }
        }
        match self.reorder_barrier {
            Some(_) => self.tx_prio = self.tx_prio.max(self.queue),
            None => self.tx_prio = self.queue,
        }
    }

    fn pump(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.data_suppressed() || self.awaiting_initial_arb {
            return;
        }
        self.sync_tx_prio();
        let prio = self.tx_prio;
        self.engine.pump(ctx, |pkt| {
            pkt.prio = prio;
            pkt.ecn_capable = true;
        });
    }

    fn finish(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        ctx.flow_completed();
        self.done = true;
        self.release_arbitration(ctx);
    }

    /// Terminal give-up: the peer stopped responding for the engine's
    /// whole RTO budget (crashed host). The flow ends in an attributable
    /// `Aborted` state and releases its arbitrator claims so PrioQue/Rref
    /// capacity returns to live flows immediately rather than waiting for
    /// lease expiry.
    fn abort(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        ctx.flow_aborted(netsim::trace::AbortReason::MaxRtosExceeded);
        self.done = true;
        self.release_arbitration(ctx);
    }

    /// Tell the arbitrators to release our state (both legs).
    fn release_arbitration(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        if self.spec.is_background() {
            return;
        }
        let flow = self.spec.id;
        if let Some(svc) = ctx.service::<PaseHostService>() {
            svc.local_remove(flow);
        }
        if let Some(tor) = self.plan.sender_leg_to {
            ctx.send(Packet::ctrl(
                flow,
                self.spec.src,
                tor,
                Box::new(ArbMsg::FlowDone {
                    flow,
                    src: self.spec.src,
                    dst: self.spec.dst,
                    leg: Leg::Sender,
                }),
            ));
        }
        if let Some(dst) = self.plan.receiver_leg_to {
            ctx.send(Packet::ctrl(
                flow,
                self.spec.src,
                dst,
                Box::new(ArbMsg::FlowDone {
                    flow,
                    src: self.spec.src,
                    dst: self.spec.dst,
                    leg: Leg::Receiver,
                }),
            ));
        }
    }

    fn arm_refresh(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        self.refresh_epoch += 1;
        let delay = self.health.round_len(&self.cfg);
        ctx.set_timer(delay, REFRESH_TOKEN_BASE + self.refresh_epoch);
    }

    /// Degrade to pure self-adjusting mode: lowest queue, base rate,
    /// conservative DCTCP restart. The flow keeps making progress with no
    /// control plane at all and re-attaches when responses resume.
    /// `reset_window` distinguishes why we degrade: a dead or gray
    /// channel (`true`) may have left the flow blasting a stale
    /// reference rate with no recent feedback, so the window restarts
    /// from scratch; a load-shedding channel (`false`) is demonstrably
    /// alive — ACKs and backpressure replies are flowing, the current
    /// window is congestion-valid — so only the priority/rate state is
    /// demoted.
    fn enter_fallback(&mut self, reset_window: bool) {
        if reset_window {
            self.ssthresh = (self.engine.cwnd / 2.0).max(2.0);
            self.engine.cwnd = 1.0;
        }
        self.queue = self.cfg.lowest_queue();
        self.rref = self.cfg.base_rate();
        self.is_inter_queue = false;
        // A demotion applies immediately (no reordering risk).
        self.sync_tx_prio();
        self.engine.rtt.set_min_rto(self.cfg.min_rto_low);
    }
}

impl FlowAgent for PaseSender {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        self.started = true;
        // Silence is measured from flow start.
        self.health.last_reply = ctx.now();
        let sender_leg_sent = self.arbitrate(ctx);
        // Inter-rack: optionally wait for the child (ToR) arbitrator's
        // answer before injecting data; intra-rack, pruned and local-only
        // flows start at once on the endpoint arbitrators' decision.
        self.awaiting_initial_arb = self.cfg.wait_for_initial_arb && sender_leg_sent;
        if self.cfg.use_reference_rate && self.queue == 0 {
            self.engine.cwnd = self.reference_cwnd_pkts();
        } else if !self.cfg.use_reference_rate {
            self.engine.cwnd = 2.0; // DCTCP-style initial window
        } else {
            self.engine.cwnd = 1.0;
        }
        self.pump(ctx);
        if !self.spec.is_background() {
            self.arm_refresh(ctx);
        }
        if self.data_suppressed() {
            self.start_pace_probes(ctx);
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>) {
        if self.done {
            return;
        }
        match pkt.kind {
            PacketKind::Ack => {
                let now = ctx.now();
                match self.engine.on_ack(pkt.seq, pkt.ts_echo, now) {
                    AckKind::New { newly_acked, .. } => {
                        self.recovery_probe = None;
                        self.on_new_ack(newly_acked, pkt.ece);
                    }
                    AckKind::Dup { .. } | AckKind::Stale => {}
                }
                if let Some(loss) = self.engine.take_loss_event() {
                    self.on_loss(loss);
                }
                if self.engine.complete() {
                    self.finish(ctx);
                    return;
                }
                self.pump(ctx);
            }
            PacketKind::ProbeAck => {
                let now = ctx.now();
                // The probe-ack still carries a cumulative ack.
                if let AckKind::New { newly_acked, .. } =
                    self.engine.on_ack(pkt.seq, pkt.ts_echo, now)
                {
                    self.on_new_ack(newly_acked, pkt.ece);
                }
                if self.engine.complete() {
                    self.finish(ctx);
                    return;
                }
                if let Some(at_send) = self.recovery_probe.take() {
                    if self.engine.acked() <= at_send && self.engine.flight_bytes() > 0 {
                        // No progress since the probe: the data really was
                        // lost — retransmit (paper §3.2).
                        self.engine.force_loss_rewind(ctx);
                        if let Some(loss) = self.engine.take_loss_event() {
                            self.on_loss(loss);
                        }
                    }
                }
                self.pump(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_, '_>) {
        if self.done {
            return;
        }
        if token == WAKEUP_TOKEN {
            // An arbitration reply arrived. It is a clean answer unless a
            // load-shed reply (it or an earlier one) has landed this round.
            let now = ctx.now();
            self.health.last_reply = now;
            let shed = ctx
                .service::<PaseHostService>()
                .is_some_and(|svc| svc.leg_results(self.spec.id).shed);
            if !shed && self.health.in_fallback {
                // In fallback a clean answer closes the round at once and
                // starts the next one promptly: the pending refresh may be
                // backed off far into the future. An answered round never
                // enters fallback, and leaving it needs no action here:
                // the recompute below re-attaches the flow to its
                // arbitrated queue and reference rate (Algorithm 2
                // transitions fire on the queue change).
                self.health.observe(Outcome::Answered, now, &self.cfg);
                self.arm_refresh(ctx);
            }
            self.recompute_effective(ctx);
            if self.awaiting_initial_arb {
                let have_sender_leg = ctx
                    .service::<PaseHostService>()
                    .map(|svc| svc.leg_results(self.spec.id).sender.is_some())
                    .unwrap_or(true);
                if have_sender_leg {
                    self.awaiting_initial_arb = false;
                    if self.cfg.use_reference_rate && self.queue == 0 {
                        self.engine.cwnd = self.reference_cwnd_pkts();
                    }
                }
            }
            self.pump(ctx);
            return;
        }
        if token >= PACE_TOKEN_BASE {
            if token == PACE_TOKEN_BASE + self.pace_epoch && self.data_suppressed() {
                self.send_pace_probe(ctx);
                self.pace_epoch += 1;
                ctx.set_timer(self.srtt(), PACE_TOKEN_BASE + self.pace_epoch);
            }
            return;
        }
        if token >= REFRESH_TOKEN_BASE {
            if token == REFRESH_TOKEN_BASE + self.refresh_epoch {
                // Fallback: never wait longer than one refresh period for
                // the initial arbitration response.
                self.awaiting_initial_arb = false;
                // Judge the round that just ended, on a flow that expects
                // replies at all.
                if self.plan.sender_leg_to.is_some() || self.plan.receiver_leg_to.is_some() {
                    let now = ctx.now();
                    let shed = ctx
                        .service::<PaseHostService>()
                        .is_some_and(|svc| svc.take_shed(self.spec.id));
                    let outcome = self.health.judge(now, shed, &self.cfg);
                    let transition = self.health.observe(outcome, now, &self.cfg);
                    if let Transition::Enter { reset_window } = transition {
                        self.enter_fallback(reset_window);
                    }
                }
                let _ = self.arbitrate(ctx);
                self.pump(ctx);
                self.arm_refresh(ctx);
            }
            return;
        }
        // Engine RTO.
        if self.engine.timer_is_live(token) {
            if self.cfg.probe_on_timeout && self.queue > 0 && self.recovery_probe.is_none() {
                // Probe instead of retransmitting: the data may simply be
                // parked behind higher-priority traffic.
                ctx.sim.stats.note_timeout(self.spec.id);
                self.engine.defer_timeout(ctx);
                if self.engine.gave_up() {
                    // Deferrals spend the same RTO budget as real fires; a
                    // dead receiver cannot be probed forever.
                    self.abort(ctx);
                    return;
                }
                self.recovery_probe = Some(self.engine.acked());
                let mut probe = Packet::probe(
                    self.spec.id,
                    self.spec.src,
                    self.spec.dst,
                    self.engine.acked(),
                );
                probe.prio = self.tx_prio;
                ctx.sim.stats.note_probe(self.spec.id);
                ctx.send(probe);
            } else if self.engine.on_timer(token, ctx) {
                if let Some(loss) = self.engine.take_loss_event() {
                    self.on_loss(loss);
                }
                self.pump(ctx);
            } else if self.engine.gave_up() {
                self.abort(ctx);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// What one refresh round heard back from the arbitrators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Clean arbitration answers landed, and no load-shed reply.
    Answered,
    /// A load-shed reply landed: an arbitrator on the path is alive but
    /// is not arbitrating for us, and asks us to back off.
    Shed,
    /// Nothing landed.
    Silent,
}

/// The fallback transition a round's outcome calls for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transition {
    None,
    /// Enter self-adjusting fallback, restarting the window after a
    /// silent round (see [`PaseSender::enter_fallback`]).
    Enter {
        reset_window: bool,
    },
    Exit,
}

/// Health of a flow's control channel: paper §3.1.3's graceful
/// degradation ("in case a flow does not hear back from an arbitrator, it
/// falls back to the self-adjusting behavior") as one state machine fed
/// one outcome (answered, shed or silent) per refresh round.
///
/// A bad (silent or shed) round enters fallback once the channel has
/// been silent for `watchdog_k` refresh periods — a dead channel — or
/// `debt` reaches `watchdog_k` — a gray or shedding one that still
/// answers now and then. An answered round never enters; it leaves
/// fallback once the drained debt is below `watchdog_k`. The debt is
/// capped at `2·watchdog_k`, so however long an outage lasted, a
/// recovered channel leaves fallback once, within `watchdog_k + 1`
/// answered rounds, and does not flap back in.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChannelHealth {
    /// When the last reply of any kind landed (the silence clock).
    pub last_reply: SimTime,
    /// The current refresh round lasts `arb_refresh × 2^round_exp`.
    pub round_exp: u32,
    /// Net bad rounds: +1 per silent or shed round, −1 per answered one,
    /// capped at `2·watchdog_k`.
    pub debt: u32,
    /// Consecutive bad rounds, capped at `refresh_backoff_cap`: the
    /// exponent of the refresh backoff.
    pub backoff: u32,
    /// The flow runs in pure self-adjusting mode (lowest queue, DCTCP
    /// laws, data never suppressed).
    pub in_fallback: bool,
}

impl ChannelHealth {
    fn round_len(&self, cfg: &PaseConfig) -> SimDuration {
        cfg.arb_refresh.saturating_mul(1u64 << self.round_exp)
    }

    /// Judge the round ending at `now` (`shed`: a load-shed reply landed
    /// in it). A reply counts if it landed within the round or one base
    /// RTT before it began — a reply still in flight does not count
    /// against the channel.
    fn judge(&self, now: SimTime, shed: bool, cfg: &PaseConfig) -> Outcome {
        if shed {
            Outcome::Shed
        } else if now < self.last_reply + self.round_len(cfg) + cfg.base_rtt {
            Outcome::Answered
        } else {
            Outcome::Silent
        }
    }

    /// Feed one round's outcome, size the next round, and return the
    /// transition the outcome calls for.
    fn observe(&mut self, outcome: Outcome, now: SimTime, cfg: &PaseConfig) -> Transition {
        let k = cfg.watchdog_k;
        let was_in_fallback = self.in_fallback;
        if outcome == Outcome::Answered {
            self.debt = self.debt.saturating_sub(1);
            self.backoff = 0;
            self.in_fallback &= self.debt >= k;
        } else {
            self.debt = (self.debt + 1).min(k.saturating_mul(2));
            self.backoff = (self.backoff + 1).min(cfg.refresh_backoff_cap);
            let silent_too_long = now >= self.last_reply + cfg.arb_refresh.saturating_mul(k as u64);
            self.in_fallback |= silent_too_long || self.debt >= k;
        }
        // Back off only in fallback or under shedding: response latency
        // routinely spans a refresh period, and stretching a healthy
        // flow's cadence on such lag skews arbitration for every flow.
        let stretch = self.in_fallback || outcome == Outcome::Shed;
        self.round_exp = if stretch { self.backoff } else { 0 };
        match (was_in_fallback, self.in_fallback) {
            (false, true) => Transition::Enter {
                reset_window: outcome == Outcome::Silent,
            },
            (true, false) => Transition::Exit,
            _ => Transition::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Close one round per outcome, each as long as the health makes it;
    /// an answered or shed round's reply lands at its end. Returns the
    /// transitions.
    fn feed(h: &mut ChannelHealth, now: &mut SimTime, rounds: &[Outcome]) -> Vec<Transition> {
        let cfg = PaseConfig::default();
        rounds
            .iter()
            .map(|&outcome| {
                *now += h.round_len(&cfg);
                if outcome != Outcome::Silent {
                    h.last_reply = *now;
                }
                h.observe(outcome, *now, &cfg)
            })
            .collect()
    }

    fn k() -> usize {
        PaseConfig::default().watchdog_k as usize
    }

    fn entered(ts: &[Transition]) -> Vec<usize> {
        ts.iter()
            .enumerate()
            .filter(|(_, t)| matches!(t, Transition::Enter { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn k_silent_rounds_enter_fallback_with_a_window_reset() {
        let mut h = ChannelHealth::default();
        let mut now = SimTime::ZERO;
        let ts = feed(&mut h, &mut now, &vec![Outcome::Silent; k()]);
        assert!(ts[..k() - 1].iter().all(|t| *t == Transition::None));
        assert_eq!(ts[k() - 1], Transition::Enter { reset_window: true });
        assert!(h.in_fallback);
    }

    #[test]
    fn k_shed_rounds_enter_fallback_keeping_the_window() {
        let mut h = ChannelHealth::default();
        let mut now = SimTime::ZERO;
        let ts = feed(&mut h, &mut now, &vec![Outcome::Shed; k()]);
        assert!(ts[..k() - 1].iter().all(|t| *t == Transition::None));
        assert_eq!(
            ts[k() - 1],
            Transition::Enter {
                reset_window: false
            }
        );
    }

    #[test]
    fn a_gray_channel_that_answers_now_and_then_still_enters() {
        // Two silent rounds per answered one: every answer restarts the
        // silence clock, but the debt still climbs by one per cycle.
        let mut h = ChannelHealth::default();
        let mut now = SimTime::ZERO;
        let cycle = [Outcome::Silent, Outcome::Silent, Outcome::Answered];
        // After k−2 whole cycles the debt is k−2; two more silent rounds
        // bring it to k.
        let entry = 3 * (k() - 2) + 1;
        let rounds: Vec<Outcome> = cycle.iter().copied().cycle().take(entry + 1).collect();
        let ts = feed(&mut h, &mut now, &rounds);
        assert_eq!(entered(&ts), vec![entry]);
        assert_eq!(ts[entry], Transition::Enter { reset_window: true });
    }

    #[test]
    fn silence_stretches_the_refresh_round_only_in_fallback() {
        let cfg = PaseConfig::default();
        let mut h = ChannelHealth::default();
        let mut now = SimTime::ZERO;
        feed(&mut h, &mut now, &vec![Outcome::Silent; k() - 1]);
        assert_eq!(
            h.round_len(&cfg),
            cfg.arb_refresh,
            "healthy cadence until fallback"
        );
        feed(&mut h, &mut now, &[Outcome::Silent]);
        assert_eq!(h.round_len(&cfg), cfg.arb_refresh.saturating_mul(1 << k()));
    }

    #[test]
    fn shedding_stretches_the_refresh_round_at_once() {
        let cfg = PaseConfig::default();
        let mut h = ChannelHealth::default();
        let mut now = SimTime::ZERO;
        feed(&mut h, &mut now, &[Outcome::Shed, Outcome::Shed]);
        assert!(!h.in_fallback);
        assert_eq!(h.round_len(&cfg), cfg.arb_refresh.saturating_mul(4));
        feed(&mut h, &mut now, &[Outcome::Answered]);
        assert_eq!(
            h.round_len(&cfg),
            cfg.arb_refresh,
            "an answer restores the cadence"
        );
    }

    #[test]
    fn the_integrator_and_the_backoff_are_capped() {
        let cfg = PaseConfig::default();
        let mut h = ChannelHealth::default();
        let mut now = SimTime::ZERO;
        let ts = feed(&mut h, &mut now, &[Outcome::Silent; 100]);
        assert_eq!(
            entered(&ts),
            vec![k() - 1],
            "one entry, however long the outage"
        );
        assert_eq!(h.debt, 2 * cfg.watchdog_k);
        assert_eq!(h.backoff, cfg.refresh_backoff_cap);
    }

    #[test]
    fn a_fresh_outage_ends_on_the_first_clean_answer() {
        let mut h = ChannelHealth::default();
        let mut now = SimTime::ZERO;
        feed(&mut h, &mut now, &vec![Outcome::Silent; k()]);
        assert_eq!(
            feed(&mut h, &mut now, &[Outcome::Answered]),
            vec![Transition::Exit]
        );
        assert_eq!(h.backoff, 0);
    }

    #[test]
    fn a_long_outage_drains_in_bounded_rounds_and_does_not_re_enter() {
        let mut h = ChannelHealth::default();
        let mut now = SimTime::ZERO;
        feed(&mut h, &mut now, &[Outcome::Silent; 100]);
        let ts = feed(&mut h, &mut now, &vec![Outcome::Answered; 2 * k()]);
        let exits: Vec<usize> = (0..ts.len())
            .filter(|&i| ts[i] == Transition::Exit)
            .collect();
        assert_eq!(exits, vec![k()], "exit once, when the debt drops below k");
        assert!(entered(&ts).is_empty(), "an answered round never re-enters");
        assert_eq!(h.debt, 0, "fully drained within 2k clean rounds");
        assert!(!h.in_fallback);
    }
}
