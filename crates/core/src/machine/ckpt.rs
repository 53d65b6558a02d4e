//! The checkpoint-coordination **executor**: applies the typed
//! [`ProtoAction`]s the protocol kernel ([`crate::proto`]) decides, and
//! owns the data-plane primitives those actions name — writeback phases
//! with and without delayed writebacks (§4.1), the background drain, the
//! snapshot/stub bookkeeping, and the broadcast loops of episode
//! completion. All *decisions* (which message means what in which state)
//! live in the kernel; everything here either moves data or schedules
//! events.

use rebound_coherence::{CoreSet, MsgKind};
use rebound_engine::{CoreId, LineAddr};
use rebound_mem::{MemAccessClass, MesiState};
use rebound_workloads::AddressLayout;

use crate::metrics::OverheadKind;
use crate::proto::{self, ProtoAction, ProtoError, ProtoStat, Transition, TriggerAction};

use super::{
    CkptRecord, EpisodeState, Event, InitState, Machine, ProtoMsg, RunState, WbKind,
    CKPT_LOCAL_SETUP_COST, DEP_RETRY_PERIOD, REG_LOG_COST,
};

impl Machine {
    /// Charges a protocol-interrupt handling cost to a running core (its
    /// current op is pushed back by `cost` cycles, accounted as SyncDelay).
    pub(crate) fn interrupt_cost(&mut self, core: CoreId, cost: u64) {
        let now = self.now;
        let c = &mut self.cores[core.index()];
        if c.run == RunState::Ready && !c.exec_gate {
            c.busy_until = c.busy_until.max(now) + cost;
            c.stall.add(OverheadKind::Sync, cost);
            let at = c.busy_until;
            self.schedule_step(core, at);
        }
    }

    // ==================================================================
    // The executor: kernel transitions applied in order
    // ==================================================================

    /// Routes one delivered protocol message through the kernel and
    /// applies the resulting transition. A typed [`ProtoError`] is
    /// recorded (and the message dropped) instead of panicking.
    pub(crate) fn handle_proto(&mut self, to: CoreId, msg: ProtoMsg) {
        match proto::transition(self, to, &msg) {
            Ok(t) => self.apply_transition(t),
            Err(e) => {
                self.dropped_msgs += 1;
                self.note_proto_error(e);
            }
        }
    }

    /// Applies a kernel transition: every action, strictly in order.
    pub(crate) fn apply_transition(&mut self, t: Transition) {
        for a in t.actions {
            self.apply_action(a);
        }
    }

    /// Applies one typed action. The executor has no protocol knowledge:
    /// each arm is a data-plane primitive or a single field update the
    /// kernel asked for.
    fn apply_action(&mut self, a: ProtoAction) {
        match a {
            ProtoAction::SetState { core, state } => self.cores[core.index()].role = state,
            ProtoAction::Send {
                from,
                to,
                kind,
                msg,
            } => self.send(from, to, kind, msg),
            ProtoAction::Interrupt { core, cost } => self.interrupt_cost(core, cost),
            ProtoAction::Drop => self.dropped_msgs += 1,
            ProtoAction::Count(ProtoStat::Decline) => self.metrics.declines += 1,
            ProtoAction::Count(ProtoStat::Nack) => self.metrics.nacks += 1,
            ProtoAction::FastDrain { core } => self.cores[core.index()].drain.fast = true,
            ProtoAction::NoteReleasedEpoch {
                core,
                initiator,
                epoch,
            } => {
                let slot = &mut self.cores[core.index()].released_epochs[initiator.index()];
                *slot = (*slot).max(epoch);
            }
            ProtoAction::BeginMemberWb { core, kind } => self.begin_member_wb(core, kind),
            ProtoAction::StartWritebacks { core } => self.start_writebacks(core),
            ProtoAction::AbortInitiation { core } => self.abort_initiation(core),
            ProtoAction::CompleteLocalEpisode {
                initiator,
                ichk,
                epoch,
            } => self.complete_local_episode(initiator, ichk, epoch),
            ProtoAction::ResumeExecution { core, join_barck } => {
                self.cores[core.index()].exec_gate = false;
                self.unblock_ckpt(core);
                if join_barck {
                    self.maybe_join_pending_barck(core);
                }
            }
            ProtoAction::MaybeJoinBarCk { core } => self.maybe_join_pending_barck(core),
            ProtoAction::Unblock { core } => self.unblock_ckpt(core),
            ProtoAction::GlobalAbsorbWbDone { from } => {
                self.global.wb_done.insert(from);
            }
            ProtoAction::GlobalComplete => self.global_complete(),
            ProtoAction::BarCkAbsorbDone { from } => {
                self.barrier.barck_done.insert(from);
            }
            ProtoAction::BarCkEpisodeComplete => self.barck_episode_complete(),
            ProtoAction::DeferBarCk { core } => self.cores[core.index()].barck_pending = true,
            ProtoAction::ClearBarCkJoinFlags { core } => {
                let c = &mut self.cores[core.index()];
                c.barck_wb_done = false;
                c.barck_notified = false;
            }
            ProtoAction::ClearBarCkMemberFlags { core } => {
                let c = &mut self.cores[core.index()];
                c.barck_arrived = false;
                c.barck_wb_done = false;
                c.barck_notified = false;
            }
            ProtoAction::ReleaseBarrier => self.release_barrier(0),
            ProtoAction::FinalizeMemberCkpt { core } => self.finalize_member_checkpoint(core),
        }
    }

    // ==================================================================
    // Triggering
    // ==================================================================

    /// Checks the interval timer / forced flags through the scheme's
    /// coordination protocol; returns true if a checkpoint was initiated
    /// (the core's step is consumed).
    pub(crate) fn maybe_trigger_checkpoint(&mut self, core: CoreId) -> bool {
        let Some(p) = proto::protocol_for(self.cfg.scheme) else {
            return false;
        };
        match p.trigger(self, core) {
            None => false,
            Some(TriggerAction::InitiateLocal { for_io }) => {
                self.cores[core.index()].force_ckpt = false;
                self.initiate_checkpoint(core, for_io);
                true
            }
            Some(TriggerAction::StartGlobal) => {
                self.cores[core.index()].force_ckpt = false;
                self.start_global_checkpoint(core);
                true
            }
            Some(TriggerAction::EpochSnapshot { for_io }) => {
                let c = &mut self.cores[core.index()];
                c.force_ckpt = false;
                // Interval boundary: open a new epoch, then snapshot. The
                // record is tagged with the *post*-bump epoch, so its state
                // provably holds influence only of data stamped strictly
                // below the tag.
                c.epoch += 1;
                self.take_epoch_snapshot(core, for_io);
                true
            }
        }
    }

    // ==================================================================
    // Rebound_Epoch: in-band epoch propagation
    // ==================================================================

    /// Pre-consumption epoch probe (`Rebound_Epoch` only): called by the
    /// access pipeline before a load or store touches `addr`. If the
    /// line carries a stamp newer than the core's epoch, the op is
    /// stashed and a snapshot is taken (or awaited) *first* — a snapshot
    /// taken after consuming the data would embed state the producer's
    /// rollback later undoes. Returns true when the op was consumed by
    /// the probe (it re-issues via `resume_op` after the snapshot).
    pub(crate) fn epoch_probe(
        &mut self,
        core: CoreId,
        addr: rebound_engine::Addr,
        op: rebound_workloads::Op,
    ) -> bool {
        if !matches!(self.cfg.scheme, crate::config::Scheme::Epoch { .. }) {
            return false;
        }
        let id = self.lines.intern(addr.line(self.geom));
        let stamp = self.line_epoch(id);
        let idx = core.index();
        if stamp <= self.cores[idx].epoch {
            return false;
        }
        match self.cores[idx].role {
            EpisodeState::Idle => {
                // Adopt the newer epoch and snapshot before consuming.
                // The probe re-runs when the stashed op resumes and then
                // passes (stamp ≤ epoch).
                self.cores[idx].resume_op = Some(op);
                self.cores[idx].epoch = stamp;
                self.take_epoch_snapshot(core, false);
                true
            }
            EpisodeState::EpochSnap { .. } => {
                // The previous snapshot is still draining: park on it at
                // full drain speed, re-probe when it finalizes. (Adopting
                // the new epoch now would mis-tag the in-flight record.)
                self.cores[idx].resume_op = Some(op);
                self.block_ckpt(core, OverheadKind::WbDelay);
                self.cores[idx].drain.fast = true;
                true
            }
            // No other role is reachable under the epoch scheme.
            _ => false,
        }
    }

    /// Takes a local epoch snapshot at the core's *current* epoch (the
    /// caller bumps or adopts first). Every epoch snapshot is its own
    /// single-member episode — no interaction set to collect.
    pub(crate) fn take_epoch_snapshot(&mut self, core: CoreId, for_io: bool) {
        let epoch = self.cores[core.index()].epoch;
        self.push_fixed_ichk(1.0);
        self.begin_member_wb(core, WbKind::Epoch { epoch, for_io });
    }

    // ==================================================================
    // Rebound: interaction-set collection (§3.3.4)
    // ==================================================================

    /// Begins collecting the Interaction Set for Checkpointing: CK? goes
    /// to every processor the kernel's target rule names (producers
    /// transitively under `Rebound`; the static cluster under
    /// `Rebound_Cluster`).
    pub(crate) fn initiate_checkpoint(&mut self, core: CoreId, for_io: bool) {
        let idx = core.index();
        if self.cores[idx].role != EpisodeState::Idle {
            let state = self.cores[idx].role.name();
            let epoch = self.cores[idx].role.epoch();
            self.note_proto_error(ProtoError::BadPrimitive {
                primitive: "initiate_checkpoint",
                core,
                state,
                epoch,
            });
            return;
        }
        self.cores[idx].ckpt_epoch += 1;
        let epoch = self.cores[idx].ckpt_epoch;
        let targets = proto::initiation_targets(self, core);
        let mut expected = vec![0u8; self.cores.len()];
        for p in targets.iter() {
            expected[p.index()] += 1;
        }
        let st = InitState {
            epoch,
            ichk: CoreSet::singleton(core),
            expected,
            wb_done: CoreSet::new(),
            started: false,
            for_io,
        };
        let empty = !st.awaiting();
        self.cores[idx].role = EpisodeState::Initiating(st);
        self.block_ckpt(core, OverheadKind::Sync);
        if empty {
            // An empty target set completes collection synchronously, so
            // the Collecting window opens and closes inside this one
            // event — invisible to the per-event boundary poll. Give
            // armed phase triggers the window explicitly before it
            // closes; a no-op unless a matching fault is armed.
            if !self.pending_faults.is_empty() {
                self.poll_pending_faults();
            }
            self.start_writebacks(core);
        } else {
            for p in targets.iter() {
                self.send(
                    core,
                    p,
                    MsgKind::CkRequest,
                    ProtoMsg::CkReq {
                        initiator: core,
                        epoch,
                        from: core,
                    },
                );
            }
        }
    }

    /// Aborts a collection (Busy/Nack received): release everyone, back
    /// off for a random time, retry (§3.3.4 deadlock avoidance).
    fn abort_initiation(&mut self, core: CoreId) {
        let idx = core.index();
        let st = match std::mem::replace(&mut self.cores[idx].role, EpisodeState::Idle) {
            EpisodeState::Initiating(st) if !st.started => st,
            other => {
                // Not an open collection: nothing to abort. Restore the
                // state and record the violated precondition.
                let (state, epoch) = (other.name(), other.epoch());
                self.cores[idx].role = other;
                self.note_proto_error(ProtoError::BadPrimitive {
                    primitive: "abort_initiation",
                    core,
                    state,
                    epoch,
                });
                return;
            }
        };
        for m in st.ichk.iter().filter(|&m| m != core) {
            self.send(
                core,
                m,
                MsgKind::CkRelease,
                ProtoMsg::CkRelease {
                    initiator: core,
                    epoch: st.epoch,
                },
            );
        }
        self.metrics.busy_aborts += 1;
        let backoff = 100 + self.rng.below(self.cfg.backoff_cycles.max(1));
        self.cores[idx].backoff_until = self.now + backoff;
        self.cores[idx].retry_gen += 1;
        let gen = self.cores[idx].retry_gen;
        if st.for_io {
            // Keep the core parked on the I/O; retry initiation directly.
            self.cores[idx].force_ckpt = true;
            self.retag_block(core, OverheadKind::Sync);
            self.queue
                .push(self.now + backoff, Event::RetryCkpt { core, gen });
        } else {
            self.unblock_ckpt(core);
            self.queue
                .push(self.now + backoff, Event::RetryCkpt { core, gen });
        }
    }

    /// Backoff expired: try initiating again if still appropriate.
    pub(crate) fn retry_initiation(&mut self, core: CoreId) {
        let idx = core.index();
        if self.cores[idx].role != EpisodeState::Idle
            || self.cores[idx].drain.active
            || self.barrier.barck_active
        {
            // Still busy; the regular trigger will fire later.
            return;
        }
        let c = &self.cores[idx];
        let due = c.force_ckpt || c.insts >= c.next_ckpt_due;
        if due {
            let for_io = self.cores[idx].force_ckpt;
            self.cores[idx].force_ckpt = false;
            // If the core is running, it initiates at its next step; if it
            // was parked for I/O, initiate right away.
            if for_io || self.cores[idx].run == RunState::Blocked(super::Block::Ckpt) {
                self.initiate_checkpoint(core, for_io);
            } else {
                self.cores[idx].force_ckpt = true;
            }
        }
    }

    /// Collection finished: record the interaction set and order writebacks.
    fn start_writebacks(&mut self, core: CoreId) {
        let idx = core.index();
        let (ichk, epoch) = {
            let EpisodeState::Initiating(st) = &mut self.cores[idx].role else {
                let (state, epoch) = {
                    let r = &self.cores[idx].role;
                    (r.name(), r.epoch())
                };
                self.note_proto_error(ProtoError::BadPrimitive {
                    primitive: "start_writebacks",
                    core,
                    state,
                    epoch,
                });
                return;
            };
            st.started = true;
            (st.ichk, st.epoch)
        };
        // Interaction-set metrics: the protocol-built set feeds the
        // Fig 6.1/6.2 sizes; the WSIG false-positive study (Table 6.1 row 1)
        // compares *static* closures — bloom-recorded edges vs exact-oracle
        // edges — so both sides share the protocol's timing dynamics.
        self.metrics.ichk_sizes.push(ichk.len() as f64);
        if self.cfg.fp_study {
            let bloom = self.static_ichk(core, false).len() as f64;
            let oracle = self.static_ichk(core, true).len() as f64;
            self.metrics.ichk_bloom_sizes.push(bloom);
            self.metrics.ichk_oracle_sizes.push(oracle);
        }

        for m in ichk.iter() {
            if m == core {
                self.begin_member_wb(
                    core,
                    WbKind::Local {
                        initiator: core,
                        epoch,
                    },
                );
            } else {
                self.send(
                    core,
                    m,
                    MsgKind::CkStartWb,
                    ProtoMsg::CkStartWb {
                        initiator: core,
                        epoch,
                    },
                );
            }
        }
    }

    /// Initiator: every member's WbDone arrived — count the episode,
    /// notify the members, resume locally. (The executor half of the
    /// kernel's [`ProtoAction::CompleteLocalEpisode`].)
    fn complete_local_episode(&mut self, initiator: CoreId, ichk: CoreSet, epoch: u64) {
        self.metrics.checkpoint_episodes += 1;
        for m in ichk.iter() {
            if m == initiator {
                // The initiator completes locally.
                self.cores[initiator.index()].role = EpisodeState::Idle;
                self.cores[initiator.index()].exec_gate = false;
                self.unblock_ckpt(initiator);
                self.maybe_join_pending_barck(initiator);
            } else {
                self.send(
                    initiator,
                    m,
                    MsgKind::CkResume,
                    ProtoMsg::CkComplete { initiator, epoch },
                );
            }
        }
    }

    /// Samples an episode whose interaction set the scheme fixes at `size`
    /// members: the live set and, under the false-positive study, both
    /// static closures.
    fn push_fixed_ichk(&mut self, size: f64) {
        self.metrics.ichk_sizes.push(size);
        if self.cfg.fp_study {
            self.metrics.ichk_bloom_sizes.push(size);
            self.metrics.ichk_oracle_sizes.push(size);
        }
    }

    /// Static interaction-set closure over the recorded producer edges
    /// (bloom-based registers, or the exact oracle copies when `oracle`),
    /// with the consumer-validation mirroring the Decline rule. Used only
    /// by the false-positive study; the live set is built by the
    /// distributed protocol. Under `Rebound_Cluster` the checkpoint unit
    /// is the static cluster itself, closure-free by construction.
    fn static_ichk(&self, initiator: CoreId, oracle: bool) -> CoreSet {
        if matches!(self.cfg.scheme, crate::config::Scheme::Cluster { .. }) {
            return self.scheme_cluster_mates(initiator);
        }
        let mut set = self.cluster_mates(initiator);
        let mut work: Vec<CoreId> = set.iter().collect();
        while let Some(x) = work.pop() {
            let dep = self.cores[x.index()].dep.active();
            let bits = if oracle {
                dep.oracle_producers
            } else {
                dep.my_producers
            };
            for w in self.expand_dep_bits(bits).iter() {
                if set.contains(w) {
                    continue;
                }
                let wdep = self.cores[w.index()].dep.active();
                let consumers = if oracle {
                    wdep.oracle_consumers
                } else {
                    wdep.my_consumers
                };
                if consumers.contains(self.dep_bit_of(x)) {
                    for m in self.cluster_mates(w).iter() {
                        if set.insert(m) {
                            work.push(m);
                        }
                    }
                }
            }
        }
        set
    }

    // ==================================================================
    // Writeback phase (shared by Local / Global / Barrier checkpoints)
    // ==================================================================

    /// Starts the writeback phase on one member: rotate Dep registers,
    /// snapshot architectural state, then either stall-and-flush (NoDWB)
    /// or mark Delayed bits and drain in the background (DWB).
    pub(crate) fn begin_member_wb(&mut self, core: CoreId, kind: WbKind) {
        let idx = core.index();
        // Rotation may stall for want of a free Dep set (§4.2).
        let rotated = self.cores[idx]
            .dep
            .rotate(self.now, self.cfg.detect_latency);
        if rotated.is_none() {
            self.cores[idx].pending_wb = Some(kind);
            if self.cores[idx].run == RunState::Ready {
                self.block_ckpt(core, OverheadKind::Sync);
            } else if self.cores[idx].run == RunState::Blocked(super::Block::Ckpt) {
                // Already parked (e.g. an initiator blocked since
                // collection): re-tag so the rotation wait is attributed
                // to Sync instead of silently extending the prior
                // category.
                self.retag_block(core, OverheadKind::Sync);
            }
            self.queue
                .push(self.now + DEP_RETRY_PERIOD, Event::RetryRotate { core });
            return;
        }
        let new_interval = self.cores[idx].dep.active().interval;
        let old_interval = new_interval - 1;
        // Architectural snapshot — the "register state" of the checkpoint.
        let snapshot = self.cores[idx].program.clone();
        let insts = self.cores[idx].insts;
        let store_seq = self.cores[idx].store_seq;
        let barrier_passes = self.cores[idx].barrier_passes;
        let at_barrier = self.cores[idx].at_barrier;
        let epoch_tag = self.cores[idx].epoch;
        let resume_op = self.cores[idx].resume_op;
        self.cores[idx].records.push(CkptRecord {
            stub_seq: new_interval,
            program: snapshot,
            insts,
            store_seq,
            barrier_passes,
            at_barrier,
            taken_at: self.now,
            complete_at: None,
            epoch: epoch_tag,
            resume_op,
        });
        self.cores[idx].interval_start_insts = insts;
        self.cores[idx].next_ckpt_due = insts + self.cfg.ckpt_interval_insts;

        // Set the member's role for the drain/flush completion dispatch.
        // An initiator keeps its Initiating role (it is its own member).
        match kind {
            WbKind::Local { initiator, epoch } if initiator != core => {
                self.cores[idx].role = EpisodeState::Member { initiator, epoch };
            }
            WbKind::Local { .. } => {}
            WbKind::Global { coordinator } => {
                self.cores[idx].role = EpisodeState::GlobalMember { coordinator };
            }
            WbKind::Barrier { initiator } => {
                self.cores[idx].role = EpisodeState::BarMember { initiator };
            }
            WbKind::Epoch { epoch, for_io } => {
                self.cores[idx].role = EpisodeState::EpochSnap { epoch, for_io };
            }
        }

        let dirty: Vec<LineAddr> = self.cores[idx]
            .l2
            .iter()
            .filter(|(_, l)| l.state.is_dirty())
            .map(|(a, _)| a)
            .collect();

        let background = match kind {
            // The barrier optimization always hides writebacks in the
            // background (behind barrier imbalance), DWB or not (§4.2.1).
            WbKind::Barrier { .. } => true,
            _ => self.cfg.scheme.dwb(),
        };

        if dirty.is_empty() {
            self.finalize_member_checkpoint(core);
            return;
        }

        if background {
            // Flash-set the Delayed bits; the application resumes after a
            // short setup pause while the engine drains in the background.
            for (_, l) in self.cores[idx].l2.iter_mut() {
                if l.state.is_dirty() {
                    l.delayed = true;
                }
            }
            let d = &mut self.cores[idx].drain;
            d.active = true;
            d.queue = dirty.into();
            d.interval = old_interval;
            d.stub_seq = new_interval;
            // Barrier-optimization drains hide behind barrier waiting, so
            // they run at full speed instead of yielding to execution.
            d.fast = matches!(kind, WbKind::Barrier { .. });
            d.gen += 1;
            let gen = d.gen;
            if self.cores[idx].run == RunState::Ready {
                self.block_ckpt(core, OverheadKind::Sync);
            }
            self.queue.push(
                self.now + CKPT_LOCAL_SETUP_COST,
                Event::Proto {
                    to: core,
                    msg: ProtoMsg::SetupDone,
                },
            );
            self.queue.push(
                self.now + CKPT_LOCAL_SETUP_COST + self.cfg.drain_gap,
                Event::DrainTick { core, gen },
            );
        } else {
            // Stalled writeback: the application stops while every dirty
            // line is pushed to memory (Fig 4.1(a)).
            self.cores[idx].exec_gate = true;
            if self.cores[idx].run == RunState::Ready {
                self.block_ckpt(core, OverheadKind::WbDelay);
            } else if self.cores[idx].run == RunState::Blocked(super::Block::Ckpt) {
                self.retag_block(core, OverheadKind::WbDelay);
            }
            let mut done_at = self.now;
            for line in dirty {
                let value = {
                    let l = self.cores[idx].l2.peek_mut(line).expect("dirty line");
                    l.state = MesiState::Exclusive; // keep a clean copy
                    l.value
                };
                let lat = self.memory_writeback(
                    core,
                    line,
                    value,
                    old_interval,
                    MemAccessClass::Checkpoint,
                );
                let id = self.lines.intern(line);
                self.dir.clean_owned_line(id, core);
                done_at = done_at.max(self.now + lat);
            }
            self.queue.push(
                done_at + REG_LOG_COST,
                Event::Proto {
                    to: core,
                    msg: ProtoMsg::WbFlushDone,
                },
            );
        }
    }

    /// Rotation stall retry (§4.2 "it stalls ... until ... recycled").
    pub(crate) fn retry_rotation(&mut self, core: CoreId) {
        let Some(kind) = self.cores[core.index()].pending_wb.take() else {
            return;
        };
        self.begin_member_wb(core, kind);
    }

    /// A member's checkpoint is complete: stub in the log, Dep set marked
    /// complete, record stamped, stats taken, and the initiator notified.
    pub(crate) fn finalize_member_checkpoint(&mut self, core: CoreId) {
        let idx = core.index();
        let stub_seq = self.cores[idx]
            .records
            .last()
            .expect("boot record exists")
            .stub_seq;
        self.log.append_stub(core, stub_seq);
        self.cores[idx]
            .records
            .last_mut()
            .expect("record")
            .complete_at = Some(self.now);
        self.cores[idx].dep.complete(stub_seq - 1, self.now);
        self.metrics.processor_checkpoints += 1;
        let gap = self.now.saturating_since(self.cores[idx].last_ckpt_cycle);
        self.metrics.ckpt_intervals.push(gap as f64);
        self.cores[idx].last_ckpt_cycle = self.now;

        match self.cores[idx].role.clone() {
            EpisodeState::Member { initiator, epoch } => {
                if self.cores[idx].run == RunState::Blocked(super::Block::Ckpt) {
                    self.retag_block(core, OverheadKind::WbImbalance);
                }
                self.send(
                    core,
                    initiator,
                    MsgKind::CkWbDone,
                    ProtoMsg::CkWbDone { from: core, epoch },
                );
            }
            EpisodeState::Initiating(st) => {
                if self.cores[idx].run == RunState::Blocked(super::Block::Ckpt) {
                    self.retag_block(core, OverheadKind::WbImbalance);
                }
                let epoch = st.epoch;
                self.send(
                    core,
                    core,
                    MsgKind::CkWbDone,
                    ProtoMsg::CkWbDone { from: core, epoch },
                );
            }
            EpisodeState::GlobalMember { coordinator } => {
                if self.cores[idx].run == RunState::Blocked(super::Block::Ckpt) {
                    self.retag_block(core, OverheadKind::WbImbalance);
                }
                self.send(
                    core,
                    coordinator,
                    MsgKind::CkWbDone,
                    ProtoMsg::GlobalWbDone { from: core },
                );
            }
            EpisodeState::BarMember { initiator } => {
                self.cores[idx].role = EpisodeState::Idle;
                self.cores[idx].barck_wb_done = true;
                self.send(
                    core,
                    initiator,
                    MsgKind::BarCk,
                    ProtoMsg::BarCkDone { from: core },
                );
                // BarCkDone requires both the Update section and the
                // writebacks; the send above is harmless if not yet
                // arrived — the initiator counts each sender once.
                let _ = self.cores[idx].barck_notified;
                self.cores[idx].barck_notified = true;
            }
            EpisodeState::EpochSnap { .. } => {
                // An epoch snapshot completes entirely locally: no
                // initiator to notify, the single-member episode is done.
                self.cores[idx].role = EpisodeState::Idle;
                self.metrics.checkpoint_episodes += 1;
                self.cores[idx].exec_gate = false;
                self.unblock_ckpt(core);
            }
            EpisodeState::Idle | EpisodeState::Accepted { .. } => {}
        }
    }

    // ==================================================================
    // Background drain (§4.1)
    // ==================================================================

    /// One background-writeback tick: write back the next still-Delayed
    /// line, with rate control against memory backlog.
    pub(crate) fn drain_tick(&mut self, core: CoreId) {
        let idx = core.index();
        if !self.cores[idx].drain.active {
            return;
        }
        // Find the next line whose Delayed bit is still set (stores and
        // ownership transfers may have flushed some already).
        let mut line = None;
        while let Some(cand) = self.cores[idx].drain.queue.pop_front() {
            let still = self.cores[idx]
                .l2
                .peek(cand)
                .map(|l| l.delayed)
                .unwrap_or(false);
            if still {
                line = Some(cand);
                break;
            }
        }
        let Some(line) = line else {
            self.drain_complete(core);
            return;
        };
        let (value, interval) = {
            let iv = self.cores[idx].drain.interval;
            let l = self.cores[idx].l2.peek_mut(line).expect("delayed line");
            l.delayed = false;
            l.state = MesiState::Exclusive;
            (l.value, iv)
        };
        self.memory_writeback(core, line, value, interval, MemAccessClass::Checkpoint);
        let id = self.lines.intern(line);
        self.dir.clean_owned_line(id, core);

        // Rate control: delayed writebacks yield to demand traffic; if the
        // controller is backed up, slow down (§4.1), unless a Nack demanded
        // a fast drain.
        let fast = self.cores[idx].drain.fast;
        let mut gap = if fast {
            (self.cfg.drain_gap / 4).max(1)
        } else {
            self.cfg.drain_gap
        };
        if !fast && self.mem_ctl.backlog(self.now) > 1_000 {
            gap *= 4;
        }
        let gen = self.cores[idx].drain.gen;
        self.queue
            .push(self.now + gap, Event::DrainTick { core, gen });
    }

    /// All delayed lines drained: complete the member checkpoint.
    fn drain_complete(&mut self, core: CoreId) {
        let idx = core.index();
        if !self.cores[idx].drain.active {
            let interval = self.cores[idx].drain.interval;
            self.note_proto_error(ProtoError::DrainNotActive { core, interval });
            return;
        }
        self.cores[idx].drain.active = false;
        self.cores[idx].drain.gen += 1;
        self.finalize_member_checkpoint(core);
        // A deferred BarCK can now proceed.
        self.maybe_join_pending_barck(core);
    }

    /// Joins a deferred barrier checkpoint once the core is genuinely
    /// idle. Must be called at **every** transition that can return a
    /// core to `Idle` (drain completion, `CkComplete`, `CkRelease`,
    /// episode aborts): a local-episode *member* is still `Member` when
    /// its drain finishes — it goes `Idle` only on the initiator's later
    /// `CkComplete` — so consuming `barck_pending` at only one of these
    /// points drops the join, the BarCK episode never collects all
    /// BarCkDones, and the gated barrier release deadlocks the machine
    /// (seen as every core parked on the barrier flag with an empty
    /// queue).
    pub(crate) fn maybe_join_pending_barck(&mut self, core: CoreId) {
        let idx = core.index();
        if !self.cores[idx].barck_pending {
            return;
        }
        if !self.barrier.barck_active {
            // The episode this join was deferred for is gone (completed or
            // aborted); a future episode re-broadcasts BarCk to everyone.
            self.cores[idx].barck_pending = false;
            return;
        }
        if self.cores[idx].role == EpisodeState::Idle && !self.cores[idx].drain.active {
            self.cores[idx].barck_pending = false;
            let Some(initiator) = self.barrier.barck_initiator else {
                self.note_proto_error(ProtoError::MissingCoordinator {
                    transition: "maybe_join_pending_barck",
                    core,
                });
                return;
            };
            self.barck_join(core, initiator);
        }
    }

    // ==================================================================
    // Global baseline
    // ==================================================================

    /// Starts a Global checkpoint episode: interrupt every processor; all
    /// of them write back and synchronize (Fig 4.1(a)/(b) at machine scale).
    pub(crate) fn start_global_checkpoint(&mut self, coordinator: CoreId) {
        if self.global.active {
            self.note_proto_error(ProtoError::BadPrimitive {
                primitive: "start_global_checkpoint",
                core: coordinator,
                state: "GlobalActive",
                epoch: None,
            });
            return;
        }
        self.global.active = true;
        self.global.coordinator = Some(coordinator);
        self.global.wb_done = CoreSet::new();
        self.push_fixed_ichk(self.cores.len() as f64);
        self.block_ckpt(coordinator, OverheadKind::Sync);
        let n = self.cores.len();
        for i in 0..n {
            let m = CoreId(i);
            if m == coordinator {
                self.interrupt_cost(m, super::PROTO_HANDLE_COST);
                self.begin_member_wb(m, WbKind::Global { coordinator });
            } else {
                self.send(
                    coordinator,
                    m,
                    MsgKind::CkStartWb,
                    ProtoMsg::GlobalStart { coordinator },
                );
            }
        }
    }

    /// Every member reported GlobalWbDone: count the episode and
    /// broadcast the resume. (The executor half of the kernel's
    /// [`ProtoAction::GlobalComplete`].)
    fn global_complete(&mut self) {
        let Some(coordinator) = self.global.coordinator else {
            self.note_proto_error(ProtoError::MissingCoordinator {
                transition: "global_complete",
                core: CoreId(0),
            });
            return;
        };
        self.metrics.checkpoint_episodes += 1;
        self.global.active = false;
        self.global.coordinator = None;
        let n = self.cores.len();
        for i in 0..n {
            let m = CoreId(i);
            if m == coordinator {
                let t = proto::global_resume_transition(self, m);
                self.apply_transition(t);
            } else {
                self.send(coordinator, m, MsgKind::CkResume, ProtoMsg::GlobalResume);
            }
        }
    }

    // ==================================================================
    // Barrier optimization (§4.2.1)
    // ==================================================================

    /// Whether this processor, inside the barrier Update section, wants to
    /// initiate a proactive checkpoint.
    pub(crate) fn barck_interested(&self, core: CoreId) -> bool {
        let c = &self.cores[core.index()];
        self.cfg.scheme.tracks_dependences()
            && c.role == EpisodeState::Idle
            && !c.drain.active
            && c.insts.saturating_sub(c.interval_start_insts)
                >= self.cfg.ckpt_interval_insts * 9 / 10
    }

    /// Elects this processor BarCK initiator: set `BarCK_sent`, broadcast
    /// BarCk (Fig 4.2(d)).
    pub(crate) fn barck_initiate(&mut self, core: CoreId) {
        let layout = AddressLayout;
        self.barrier.barck_active = true;
        self.barrier.barck_initiator = Some(core);
        self.barrier.barck_done = CoreSet::new();
        self.barrier.release_gated = false;
        // The BarCK_sent flag is a real shared-memory write, but it lives
        // in the sync region, so the access path leaves the application's
        // store-sequence counter untouched (as for all sync machinery).
        let _ = self.access(core, layout.barck_sent_line(), true, true);
        let n = self.cores.len();
        for i in 0..n {
            let m = CoreId(i);
            if m == core {
                self.barck_join(core, core);
            } else {
                self.send(core, m, MsgKind::BarCk, ProtoMsg::BarCk { initiator: core });
            }
        }
    }

    /// A processor joins the barrier checkpoint (or defers the join if
    /// busy), per the kernel's join rule.
    pub(crate) fn barck_join(&mut self, core: CoreId, initiator: CoreId) {
        let t = proto::barck_join_transition(self, core, initiator);
        self.apply_transition(t);
    }

    /// Sends BarCkDone once both conditions hold (Update done + WBs done).
    pub(crate) fn maybe_send_barck_done(&mut self, core: CoreId) {
        let idx = core.index();
        if !self.barrier.barck_active {
            return;
        }
        let c = &self.cores[idx];
        if c.barck_arrived && c.barck_wb_done && !c.barck_notified {
            let Some(initiator) = self.barrier.barck_initiator else {
                self.note_proto_error(ProtoError::MissingCoordinator {
                    transition: "maybe_send_barck_done",
                    core,
                });
                return;
            };
            self.cores[idx].barck_notified = true;
            self.send(
                core,
                initiator,
                MsgKind::BarCk,
                ProtoMsg::BarCkDone { from: core },
            );
        }
    }

    /// Whether every processor has reported BarCkDone.
    pub(crate) fn barck_all_done(&self) -> bool {
        self.barrier.barck_done.len() == self.cores.len()
    }

    /// Every processor reported BarCkDone: count the episode and
    /// broadcast BarCkComplete. (The executor half of the kernel's
    /// [`ProtoAction::BarCkEpisodeComplete`].)
    fn barck_episode_complete(&mut self) {
        let Some(initiator) = self.barrier.barck_initiator else {
            self.note_proto_error(ProtoError::MissingCoordinator {
                transition: "barck_episode_complete",
                core: CoreId(0),
            });
            return;
        };
        self.metrics.checkpoint_episodes += 1;
        // With the optimization, processors leave the barrier with an
        // interaction set of just {self, flag-setter} — reflected in
        // the stats as per-processor sets of size ~2.
        self.push_fixed_ichk(2.0);
        self.barrier.barck_active = false;
        self.barrier.barck_initiator = None;
        let n = self.cores.len();
        for i in 0..n {
            let m = CoreId(i);
            self.send(initiator, m, MsgKind::BarCk, ProtoMsg::BarCkComplete);
        }
    }

    // ==================================================================
    // I/O pressure timer (§6.4)
    // ==================================================================

    pub(crate) fn handle_io_tick(&mut self) {
        if let Some(io) = self.cfg.io {
            let idx = io.core.index();
            if self.cores[idx].run != RunState::Done {
                self.cores[idx].force_ckpt = true;
                // If the core is parked (e.g. spinning), nudge it so the
                // forced checkpoint is noticed promptly.
                if self.cores[idx].run == RunState::Ready && !self.cores[idx].exec_gate {
                    let at = self.cores[idx].busy_until.max(self.now);
                    self.schedule_step(io.core, at);
                }
                self.queue.push(self.now + io.period_cycles, Event::IoTick);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, Scheme};
    use crate::metrics::OverheadKind;
    use crate::program::CoreProgram;
    use rebound_engine::{Addr, Cycle};
    use rebound_workloads::Op;

    /// Regression for the rotation-stall retry path: when `rotate()`
    /// finds no free Dep set and the core is *already* parked under some
    /// other tag, the wait must be re-tagged as Sync — flushing the
    /// elapsed interval into its original category first — instead of
    /// letting the whole wait accrue under the stale tag.
    #[test]
    fn rotation_stall_retags_an_existing_block() {
        let mut cfg = MachineConfig::small(1);
        cfg.scheme = Scheme::REBOUND;
        let program = CoreProgram::script([Op::Compute(10), Op::End]);
        let mut m = Machine::with_programs(&cfg, vec![program]);
        let c0 = CoreId(0);
        // Pin every Dep register set: draining sets never reclaim, so
        // after enough forced rotations the next one must stall.
        for _ in 0..64 {
            if m.cores[0].dep.rotate(m.now, m.cfg.detect_latency).is_none() {
                break;
            }
        }
        assert!(
            m.cores[0].dep.rotate(m.now, m.cfg.detect_latency).is_none(),
            "dep sets were not exhausted"
        );
        m.now = Cycle(500);
        m.block_ckpt(c0, OverheadKind::WbDelay);
        m.now = Cycle(800);
        m.begin_member_wb(
            c0,
            WbKind::Local {
                initiator: c0,
                epoch: 1,
            },
        );
        assert!(
            m.cores[0].pending_wb.is_some(),
            "rotation must have stalled the writeback"
        );
        assert_eq!(
            m.cores[0].stall.wb_delay, 300,
            "elapsed interval flushed under its original tag"
        );
        assert_eq!(
            m.cores[0].block_since,
            Some((Cycle(800), OverheadKind::Sync)),
            "open interval re-tagged as a rotation (Sync) stall"
        );
    }

    /// Rebound_Epoch lifecycle: interval boundaries bump the local epoch
    /// and snapshot, so successive records carry post-bump tags 1, 2, ...
    #[test]
    fn epoch_interval_snapshots_tag_records_in_order() {
        let mut cfg = MachineConfig::small(1);
        cfg.scheme = Scheme::REBOUND_EPOCH;
        cfg.ckpt_interval_insts = 1_000;
        let mut ops = vec![Op::Compute(500); 8];
        ops.push(Op::End);
        let mut m = Machine::with_programs(&cfg, vec![CoreProgram::script(ops)]);
        m.run_to_completion();
        let tags: Vec<u64> = m.cores[0].records.iter().map(|r| r.epoch).collect();
        assert!(tags.len() >= 3, "expected interval snapshots, got {tags:?}");
        assert_eq!(tags[0], 0, "boot record is epoch 0");
        for w in tags.windows(2) {
            assert_eq!(w[1], w[0] + 1, "tags ascend by one: {tags:?}");
        }
        assert_eq!(m.core_epoch(CoreId(0)), *tags.last().unwrap());
        assert!(m.proto_errors().is_empty(), "{}", m.proto_error_summary());
    }

    /// Rebound_Epoch observation: touching a line stamped with a newer
    /// epoch makes the consumer adopt the stamp and snapshot *before*
    /// consuming, with the probed op stashed in the record.
    #[test]
    fn epoch_observation_adopts_and_snapshots_before_consuming() {
        let x = Addr(0x80_0000);
        let mut cfg = MachineConfig::small(2);
        cfg.scheme = Scheme::REBOUND_EPOCH;
        cfg.ckpt_interval_insts = 1_000_000; // only explicit hints snapshot
        let producer = CoreProgram::script([
            Op::CheckpointHint,
            Op::Store(x),
            Op::Compute(30_000),
            Op::End,
        ]);
        let consumer = CoreProgram::script([
            Op::Compute(3_000),
            Op::Load(x),
            Op::Compute(30_000),
            Op::End,
        ]);
        let mut m = Machine::with_programs(&cfg, vec![producer, consumer]);
        m.run_to_completion();
        assert_eq!(m.core_epoch(CoreId(0)), 1);
        assert_eq!(m.core_epoch(CoreId(1)), 1, "consumer adopted the stamp");
        let recs = &m.cores[1].records;
        assert_eq!(recs.len(), 2, "boot + one observation snapshot");
        assert_eq!(recs[1].epoch, 1);
        assert_eq!(
            recs[1].insts, 3_000,
            "snapshot taken before the load retired"
        );
        assert_eq!(recs[1].resume_op, Some(Op::Load(x)));
        assert!(m.is_finished());
        assert!(m.proto_errors().is_empty(), "{}", m.proto_error_summary());
    }
}
