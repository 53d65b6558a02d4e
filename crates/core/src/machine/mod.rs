//! The simulated manycore: cores, caches, directory, memory, log — and the
//! Rebound checkpointing machinery wired through all of them.
//!
//! The machine is a deterministic event-driven simulator. A single global
//! [`EventQueue`] orders per-core continuations, protocol-message
//! deliveries and background-writeback ticks; coherence transactions are
//! resolved atomically at the requesting core's access time with latencies
//! charged per Fig 4.3(a). Everything is reproducible from the seed.

mod access;
mod ckpt;
mod rollback;
mod sync;

use std::collections::VecDeque;

use rebound_coherence::{CoreSet, Directory, Interconnect, MsgStats};
use rebound_engine::{CoreId, Cycle, DetRng, EventQueue, LineAddr, LineGeometry, LineId};

use rebound_mem::{L1Line, L2Line, MainMemory, MemoryController, SetAssoc, UndoLog};
use rebound_workloads::{AppProfile, LineTable, Op, OpStream};

use crate::config::{MachineConfig, Scheme};
use crate::depregs::DepRegFile;
use crate::fault::{CorePhase, FaultTrigger, FiredFault, PendingFault};
use crate::metrics::{MachineMetrics, OverheadKind, StallBreakdown};
use crate::program::CoreProgram;
pub(crate) use crate::proto::{EpisodeState, InitState, ProtoError, ProtoMsg, WbKind};

/// Fixed cost of handling a cross-processor protocol interrupt, in cycles.
pub(crate) const PROTO_HANDLE_COST: u64 = 50;
/// Fixed cost of flash-setting the Delayed bits / rotating Dep sets.
pub(crate) const CKPT_LOCAL_SETUP_COST: u64 = 100;
/// Cost of logging the register state at a checkpoint.
pub(crate) const REG_LOG_COST: u64 = 60;
/// Cycles to flash-invalidate a core's caches during rollback.
pub(crate) const CACHE_INVAL_COST: u64 = 1_000;
/// Log-scan cost per record examined during rollback, per bank.
pub(crate) const LOG_SCAN_COST: u64 = 2;
/// Cost per restored line during rollback (log read + memory write).
pub(crate) const LOG_RESTORE_COST: u64 = 24;
/// Retry period while stalled for a free Dep register set.
pub(crate) const DEP_RETRY_PERIOD: u64 = 200;
/// Stall a store suffers when it hits a still-Delayed line and must push
/// the checkpoint value into the writeback buffer first (§4.1).
pub(crate) const DELAYED_FLUSH_STALL: u64 = 20;

/// Events on the global queue.
#[derive(Clone, Debug)]
pub(crate) enum Event {
    /// Run the next operation of a core (stale if `gen` mismatches).
    Step { core: CoreId, gen: u64 },
    /// Deliver a protocol message.
    Proto { to: CoreId, msg: ProtoMsg },
    /// Background delayed-writeback tick.
    DrainTick { core: CoreId, gen: u64 },
    /// Retry a checkpoint initiation after backoff.
    RetryCkpt { core: CoreId, gen: u64 },
    /// Retry Dep-register rotation (out-of-sets stall, §4.2).
    RetryRotate { core: CoreId },
    /// A fault becomes *detected* at this core (§3.2).
    FaultDetect { core: CoreId },
    /// Periodic forced checkpoint by the I/O core (§6.4).
    IoTick,
}

/// Why a core is not currently executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Block {
    /// Spinning on the barrier flag (generation it is waiting to pass).
    BarrierFlag { gen: u64 },
    /// Queued on a lock.
    Lock { id: u32 },
    /// Stalled by the checkpoint machinery (initiator collection, NoDWB
    /// writebacks, waiting for resume, waiting for a Dep set, I/O ckpt).
    Ckpt,
    /// Being rolled back; will be rescheduled by the recovery code.
    Rollback,
}

/// A core's execution state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RunState {
    /// Executing; a `Step` event is (or will be) scheduled.
    Ready,
    /// Blocked; someone will wake it.
    Blocked(Block),
    /// Program finished.
    Done,
}

/// One checkpoint record of a core (its "register state" plus metadata).
#[derive(Clone, Debug)]
pub(crate) struct CkptRecord {
    /// The stub sequence number this checkpoint writes on completion.
    pub stub_seq: u64,
    /// Program (architectural) snapshot at the checkpoint point.
    pub program: CoreProgram,
    /// Instructions retired at the checkpoint point.
    pub insts: u64,
    /// Store-sequence counter at the checkpoint point (so re-execution
    /// reproduces the same store values).
    pub store_seq: u64,
    /// Barrier releases the core had consumed at the checkpoint point.
    /// Restored on rollback so a re-executed arrival at an already-
    /// released barrier is recognized and sails through (§3.3.5: the
    /// recovery line may straddle a barrier when only some members'
    /// checkpoints are safe).
    pub barrier_passes: u64,
    /// Whether the core was parked at the barrier when this snapshot was
    /// taken (a waiting core can be conscripted into an episode). The
    /// snapshot's program counter is then already *past* the arrival, so
    /// rollback must either re-register the core as a waiter (episode
    /// still pending) or consume the release (it fired since) — dropping
    /// the arrival would strand every other core at the barrier.
    pub at_barrier: bool,
    /// The cycle the architectural snapshot was taken. Everything the
    /// core produced *after* this instant dies if the record becomes a
    /// rollback target — which is why `Rebound_Cluster`'s cross-cluster
    /// recovery bounds a consumer's target by its producer's target
    /// snapshot time (see `machine/rollback.rs`).
    pub taken_at: Cycle,
    /// The core's propagation epoch at the snapshot instant (post-bump:
    /// the record was taken the moment the epoch *became* this value,
    /// so its state contains influence only of data stamped with
    /// strictly older epochs). `Rebound_Epoch` derives recovery-line
    /// membership from this tag; other schemes leave it 0.
    pub epoch: u64,
    /// An interrupted op that was pending re-execution when the
    /// snapshot was taken (`Rebound_Epoch` snapshots intercept the
    /// triggering access *before* it consumes newer-epoch data, so the
    /// access itself is stashed here). Restored on rollback — dropping
    /// it would silently skip the op on re-execution.
    pub resume_op: Option<Op>,
    /// Completion time (stub written), once known.
    pub complete_at: Option<Cycle>,
}

/// Background delayed-writeback drain state (§4.1).
#[derive(Clone, Debug, Default)]
pub(crate) struct DrainState {
    /// Whether a drain is in progress.
    pub active: bool,
    /// Lines still to write back (skipped if their Delayed bit cleared).
    pub queue: VecDeque<LineAddr>,
    /// Dep-file interval whose data is draining.
    pub interval: u64,
    /// Stub to write at completion.
    pub stub_seq: u64,
    /// Accelerated drain after a Nack (§4.1).
    pub fast: bool,
    /// Invalidates stale `DrainTick` events.
    pub gen: u64,
}

/// Per-core simulator context.
#[derive(Clone, Debug)]
pub(crate) struct CoreCtx {
    pub id: CoreId,
    pub program: CoreProgram,
    pub run: RunState,
    /// Invalidates stale Step events after preemption.
    pub step_gen: u64,
    /// Time the core's current operation completes.
    pub busy_until: Cycle,
    /// Instructions retired.
    pub insts: u64,
    /// Instruction count at the start of the current checkpoint interval.
    pub interval_start_insts: u64,
    /// Instruction count at which the next interval checkpoint is due.
    /// The *first* due point is jittered per core: identical synthetic
    /// cores would otherwise cross their interval in lockstep, making
    /// every local checkpoint collide on memory bandwidth — real
    /// applications stagger naturally through rate variation.
    pub next_ckpt_due: u64,
    pub l1: SetAssoc<L1Line>,
    pub l2: SetAssoc<L2Line>,
    pub dep: DepRegFile,
    /// Monotonic counter making store values unique.
    pub store_seq: u64,
    /// Checkpoint records, oldest first (`records[0]` is boot).
    pub records: Vec<CkptRecord>,
    pub role: EpisodeState,
    pub drain: DrainState,
    /// When true the core may not execute app code (NoDWB ckpt stall).
    pub exec_gate: bool,
    /// Stall-cycle accounting.
    pub stall: StallBreakdown,
    /// Start of the current Ckpt block, with its category.
    pub block_since: Option<(Cycle, OverheadKind)>,
    /// Cycle of this core's last completed checkpoint (interval stats).
    pub last_ckpt_cycle: Cycle,
    /// Retry generation for checkpoint initiation backoff.
    pub retry_gen: u64,
    /// Forced-checkpoint flag (I/O pressure or OutputIo op).
    pub force_ckpt: bool,
    /// Set while the core has arrived at the barrier but not yet passed.
    pub at_barrier: bool,
    /// Barrier releases this core has consumed (monotonic except across
    /// rollback, which restores the checkpoint's count).
    pub barrier_passes: u64,
    /// Barrier-opt bookkeeping: Update section done / writebacks done.
    pub barck_arrived: bool,
    pub barck_wb_done: bool,
    pub barck_notified: bool,
    /// Got a BarCK while busy; will join once the current episode ends.
    pub barck_pending: bool,
    /// Initiation-epoch counter (stale-message filtering).
    pub ckpt_epoch: u64,
    /// In-band propagation epoch (`Rebound_Epoch`): a Lamport-style
    /// counter bumped at every interval snapshot and fast-forwarded on
    /// first observation of a newer stamp. Monotonic except across
    /// rollback, which reverts it to the target record's tag. Always 0
    /// under the other schemes.
    pub epoch: u64,
    /// No new initiation before this time (post-Busy random backoff,
    /// §3.3.4).
    pub backoff_until: Cycle,
    /// Highest *released* episode epoch seen per initiator. A CK? whose
    /// epoch is not newer is a straggler of a dead (aborted) episode and
    /// is declined instead of re-accepted — otherwise in-flight forwards
    /// and releases echo each other indefinitely.
    pub released_epochs: Vec<u64>,
    /// A writeback phase waiting for a free Dep register set (§4.2 stall).
    pub pending_wb: Option<WbKind>,
    /// An interrupted op to resume (remaining compute).
    pub resume_op: Option<Op>,
    pub ended_at: Option<Cycle>,
}

/// Machine-level lock table entry (locks are *lowered* to coherence
/// accesses on the lock line; this table only sequences ownership).
#[derive(Clone, Debug, Default)]
pub(crate) struct LockState {
    pub holder: Option<CoreId>,
    pub queue: VecDeque<CoreId>,
}

/// Global barrier state (one global barrier, as in the workloads).
#[derive(Clone, Debug, Default)]
pub(crate) struct BarrierState {
    /// Cores arrived in the current episode.
    pub arrived: usize,
    /// Release generation (sense-reversing).
    pub generation: u64,
    /// Cores spinning on the flag.
    pub waiters: Vec<CoreId>,
    /// The core that arrived last (sets the flag).
    pub last_arrival: Option<CoreId>,
    /// Barrier-opt: a BarCK episode is active.
    pub barck_active: bool,
    pub barck_initiator: Option<CoreId>,
    /// Members that sent BarCkDone.
    pub barck_done: CoreSet,
    /// All cores have arrived; release is gated on BarCkComplete.
    pub release_gated: bool,
}

/// Global-checkpoint scheme state.
#[derive(Clone, Debug, Default)]
pub(crate) struct GlobalState {
    pub active: bool,
    pub coordinator: Option<CoreId>,
    pub wb_done: CoreSet,
    /// Number of cores still draining the *previous* global checkpoint
    /// (Global_DWB: the next checkpoint must wait for these).
    pub draining: usize,
}

/// Summary of one completed simulation run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Total simulated cycles until the last core finished.
    pub cycles: u64,
    /// Total instructions retired across cores.
    pub insts: u64,
    /// Completed checkpoint episodes.
    pub checkpoints: u64,
    /// Completed rollback episodes.
    pub rollbacks: u64,
    /// Full metrics.
    pub metrics: MachineMetrics,
    /// Message traffic counters.
    pub msgs: MsgStats,
    /// Undo-log entry count at end of run.
    pub log_entries: u64,
    /// Largest per-interval log footprint (bytes).
    pub log_max_interval_bytes: u64,
    /// The scheme that ran.
    pub scheme: Scheme,
    /// Core count.
    pub cores: usize,
}

impl RunReport {
    /// Mean ICHK size as a fraction of the machine (Figs 6.1/6.2).
    pub fn ichk_fraction(&self) -> f64 {
        self.metrics.ichk_sizes.mean() / self.cores as f64
    }
}

/// The simulated manycore with Rebound support (Fig 3.1).
#[derive(Clone, Debug)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) geom: LineGeometry,
    pub(crate) now: Cycle,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) cores: Vec<CoreCtx>,
    /// The `Addr ↔ LineId` interner: every hot structure below is a flat
    /// array indexed by the dense id this table hands out.
    pub(crate) lines: LineTable,
    /// Per-line propagation-epoch stamps (`Rebound_Epoch`): the writer's
    /// epoch at the line's most recent store, indexed by dense `LineId`.
    /// Probed before an access consumes the line; a stamp newer than the
    /// reader's epoch forces a pre-consumption snapshot. Stamps survive
    /// writebacks and rollbacks — a stale-high stamp is sound (at worst
    /// one extra snapshot), a stale-low one would not be. Empty under
    /// the other schemes.
    pub(crate) line_epochs: Vec<u64>,
    pub(crate) dir: Directory,
    pub(crate) memory: MainMemory,
    pub(crate) mem_ctl: MemoryController,
    pub(crate) log: UndoLog,
    pub(crate) net: Interconnect,
    pub(crate) msgs: MsgStats,
    /// Run metrics (public for inspection between `step()` calls).
    pub metrics: MachineMetrics,
    pub(crate) locks: Vec<LockState>,
    pub(crate) barrier: BarrierState,
    pub(crate) global: GlobalState,
    pub(crate) rng: DetRng,
    pub(crate) done_cores: usize,
    pub(crate) dropped_msgs: u64,
    /// Runtime master switch for dependence tracking (§8: "selectively
    /// enable and disable Rebound for a certain period of time").
    pub(crate) tracking_enabled: bool,
    /// Protocol violations observed so far (typed diagnostics; see
    /// [`Machine::proto_errors`]).
    pub(crate) proto_errors: Vec<ProtoError>,
    /// Violations dropped once the diagnostic buffer filled; the count
    /// keeps the truncation visible in failure reports.
    pub(crate) proto_errors_dropped: u64,
    /// Armed phase/condition faults, polled after every event.
    pub(crate) pending_faults: Vec<PendingFault>,
    /// Every fault detection that actually happened, in detection order.
    pub(crate) fired_faults: Vec<FiredFault>,
    /// Cores being restored by the most recent rollback, and when their
    /// restoration completes — the observable recovery window.
    pub(crate) rollback_cores: CoreSet,
    pub(crate) rollback_until: Cycle,
}

impl Machine {
    /// Builds a machine whose cores all run `profile` for `quota`
    /// instructions each.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`].
    pub fn from_profile(cfg: &MachineConfig, profile: &AppProfile, quota: u64) -> Machine {
        let programs = (0..cfg.cores)
            .map(|c| {
                CoreProgram::stream(OpStream::new(
                    profile,
                    CoreId(c),
                    cfg.cores,
                    cfg.seed,
                    quota,
                ))
            })
            .collect();
        // A profile-sized interner: every address this profile's
        // generators can emit interns into the dense (hash-free) region.
        let lines = LineTable::for_profile(cfg.cores, profile);
        Machine::build(cfg, programs, lines)
    }

    /// Builds a machine with explicit per-core programs (used by tests and
    /// examples for deterministic scenarios). Script addresses need no
    /// profile bounds: they intern through a profile-agnostic table whose
    /// overflow map keeps arbitrary raw addresses correct.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != cfg.cores` or the config is invalid.
    pub fn with_programs(cfg: &MachineConfig, programs: Vec<CoreProgram>) -> Machine {
        let lines = LineTable::universal(cfg.cores);
        Machine::build(cfg, programs, lines)
    }

    fn build(cfg: &MachineConfig, programs: Vec<CoreProgram>, lines: LineTable) -> Machine {
        cfg.validate().expect("invalid machine configuration");
        assert_eq!(programs.len(), cfg.cores, "one program per core");
        let geom = cfg.l2.geometry();
        let mut log =
            UndoLog::new(cfg.log_banks, cfg.log_entry_bytes).with_filter(cfg.log_first_wb_filter);
        let cores: Vec<CoreCtx> = programs
            .into_iter()
            .enumerate()
            .map(|(i, program)| {
                let id = CoreId(i);
                // Boot checkpoint: stub 0, complete at time zero.
                log.append_stub(id, 0);
                CoreCtx {
                    id,
                    records: vec![CkptRecord {
                        stub_seq: 0,
                        program: program.clone(),
                        insts: 0,
                        store_seq: 0,
                        barrier_passes: 0,
                        at_barrier: false,
                        taken_at: Cycle::ZERO,
                        epoch: 0,
                        resume_op: None,
                        complete_at: Some(Cycle::ZERO),
                    }],
                    program,
                    run: RunState::Ready,
                    step_gen: 0,
                    busy_until: Cycle::ZERO,
                    insts: 0,
                    interval_start_insts: 0,
                    next_ckpt_due: u64::MAX, // set after construction

                    l1: SetAssoc::new(cfg.l1),
                    l2: SetAssoc::new(cfg.l2),
                    dep: DepRegFile::new(
                        cfg.dep_sets.max(2),
                        cfg.wsig_bits,
                        cfg.wsig_hashes,
                        cfg.fp_study,
                    ),
                    store_seq: 0,
                    role: EpisodeState::Idle,
                    drain: DrainState::default(),
                    exec_gate: false,
                    stall: StallBreakdown::default(),
                    block_since: None,
                    last_ckpt_cycle: Cycle::ZERO,
                    retry_gen: 0,
                    force_ckpt: false,
                    at_barrier: false,
                    barrier_passes: 0,
                    barck_arrived: false,
                    barck_wb_done: false,
                    barck_notified: false,
                    barck_pending: false,
                    ckpt_epoch: 0,
                    epoch: 0,
                    backoff_until: Cycle::ZERO,
                    released_epochs: vec![0; cfg.cores],
                    pending_wb: None,
                    resume_op: None,
                    ended_at: None,
                }
            })
            .collect();
        let max_locks = 1024;
        let mut m = Machine {
            cfg: cfg.clone(),
            geom,
            now: Cycle::ZERO,
            queue: EventQueue::with_capacity(cfg.event_capacity()),
            dir: Directory::with_capacity(lines.dense_slots()),
            memory: MainMemory::with_capacity(lines.dense_slots()),
            line_epochs: if matches!(cfg.scheme, Scheme::Epoch { .. }) {
                vec![0; lines.dense_slots()]
            } else {
                Vec::new()
            },
            cores,
            lines,
            mem_ctl: MemoryController::new(cfg.mem_channels, cfg.mem_timing),
            log,
            net: Interconnect::new(cfg.net),
            msgs: MsgStats::new(),
            metrics: MachineMetrics::new(),
            locks: (0..max_locks).map(|_| LockState::default()).collect(),
            barrier: BarrierState::default(),
            global: GlobalState::default(),
            rng: DetRng::new(cfg.seed.wrapping_mul(0x9E37_79B9) ^ 0x00C0_FFEE),
            done_cores: 0,
            dropped_msgs: 0,
            tracking_enabled: true,
            proto_errors: Vec::new(),
            proto_errors_dropped: 0,
            pending_faults: Vec::new(),
            fired_faults: Vec::new(),
            rollback_cores: CoreSet::new(),
            rollback_until: Cycle::ZERO,
        };
        let interval = m.cfg.ckpt_interval_insts.max(1);
        for c in 0..m.cores.len() {
            // First checkpoint due in [0.6, 1.0] x interval, per-core.
            let jitter = m.rng.below(interval * 2 / 5 + 1);
            m.cores[c].next_ckpt_due = interval - jitter;
            m.schedule_step(CoreId(c), Cycle::ZERO);
        }
        if let Some(io) = cfg.io {
            m.queue.push(Cycle(io.period_cycles), Event::IoTick);
        }
        m
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of cores.
    pub fn ncores(&self) -> usize {
        self.cores.len()
    }

    /// The memory image (for functional verification in tests). Keyed by
    /// dense [`rebound_engine::LineId`]; use [`Machine::line_table`] or the
    /// address-level helpers below to translate.
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// The `Addr ↔ LineId` interner.
    pub fn line_table(&self) -> &LineTable {
        &self.lines
    }

    /// The committed (memory-image) value of a line by wire address; zero
    /// if the line was never touched.
    pub fn committed_line_value(&self, line: LineAddr) -> u64 {
        self.lines
            .lookup(line)
            .map(|id| self.memory.read(id))
            .unwrap_or(0)
    }

    /// Sorted snapshot of the memory image by wire address (tests and
    /// debugging; the recovery oracle uses the borrowed visitors instead).
    pub fn memory_snapshot(&self) -> std::collections::BTreeMap<LineAddr, u64> {
        let mut map = std::collections::BTreeMap::new();
        self.for_each_resident_line(|addr, v| {
            map.insert(addr, v);
        });
        map
    }

    /// Visits every memory-resident (nonzero) line as `(wire address,
    /// committed value)`, in dense-id (= first-touch) order, without
    /// copying the image.
    pub fn for_each_resident_line(&self, mut f: impl FnMut(LineAddr, u64)) {
        for (id, v) in self.memory.iter_resident() {
            f(self.lines.addr_of(id), v);
        }
    }

    /// Visits every line currently holding *dirty* (not yet written back)
    /// data in some core's L2, by wire address. A line dirty in several
    /// runs' caches may be visited more than once; callers that need a
    /// set use [`Machine::dirty_lines`].
    pub fn for_each_dirty_line(&self, mut f: impl FnMut(LineAddr)) {
        for c in &self.cores {
            for (a, l) in c.l2.iter() {
                if l.state.is_dirty() {
                    f(a);
                }
            }
        }
    }

    /// The directory (for inspection in tests).
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Directory footprint diagnostics: resident bytes of the packed
    /// entry plane and spill-arena occupancy. Pairs with
    /// [`Machine::queue_histogram`] as a post-run diagnosis surface, and
    /// backs the footprint numbers quoted in README/ROADMAP.
    pub fn dir_footprint(&self) -> rebound_coherence::DirFootprint {
        self.dir.footprint()
    }

    /// The undo log (for inspection in tests).
    pub fn undo_log(&self) -> &UndoLog {
        &self.log
    }

    /// Message-traffic counters.
    pub fn msg_stats(&self) -> &MsgStats {
        &self.msgs
    }

    /// Pending event count (diagnostics).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The architecturally visible value of a line: the dirty copy in the
    /// owner's L2 if one exists, else memory. Used by tests comparing
    /// machine states.
    pub fn effective_line_value(&self, line: LineAddr) -> u64 {
        for c in &self.cores {
            if let Some(l) = c.l2.peek(line) {
                if l.state.is_dirty() {
                    return l.value;
                }
            }
        }
        self.committed_line_value(line)
    }

    /// Instructions retired by `core`.
    pub fn core_insts(&self, core: CoreId) -> u64 {
        self.cores[core.index()].insts
    }

    /// Number of cores whose program has finished.
    ///
    /// On a cleanly terminated machine this equals [`Machine::ncores`];
    /// anything less after [`Machine::run_to_completion`] means a core was
    /// lost (e.g. resurrected or double-counted by checkpoint plumbing).
    pub fn done_cores(&self) -> usize {
        self.done_cores
    }

    /// The store-sequence counter of `core`: how many stores it has
    /// retired. Store values are a pure function of `(core, store_seq)`,
    /// so two runs that agree on every core's final counter executed the
    /// same stores — the recovery oracle compares these across a faulty
    /// and a golden run.
    pub fn core_store_seq(&self, core: CoreId) -> u64 {
        self.cores[core.index()].store_seq
    }

    /// Every line currently holding *dirty* (not yet written back) data in
    /// some core's L2, sorted and deduplicated. Together with
    /// [`Machine::memory`] this is the complete architecturally visible
    /// data state; the recovery oracle unions it with the memory image so
    /// lines that never reached memory in one run still get compared.
    pub fn dirty_lines(&self) -> Vec<LineAddr> {
        let mut v = Vec::new();
        self.for_each_dirty_line(|a| v.push(a));
        v.sort();
        v.dedup();
        v
    }

    /// The `MyProducers` of `core`'s current interval (test introspection).
    pub fn my_producers(&self, core: CoreId) -> CoreSet {
        self.cores[core.index()].dep.active().my_producers
    }

    /// The `MyConsumers` of `core`'s current interval (test introspection).
    pub fn my_consumers(&self, core: CoreId) -> CoreSet {
        self.cores[core.index()].dep.active().my_consumers
    }

    /// `core`'s Dep register file (test introspection).
    pub fn dep_regs(&self, core: CoreId) -> &DepRegFile {
        &self.cores[core.index()].dep
    }

    /// Completed checkpoints (stubs written) of `core`.
    pub fn checkpoints_of(&self, core: CoreId) -> u64 {
        self.cores[core.index()]
            .records
            .iter()
            .filter(|r| r.complete_at.is_some())
            .count() as u64
            - 1 // exclude the boot record
    }

    /// Schedules a transient fault to be *detected* at `core` at `at`.
    /// (§3.2: detection happens within L cycles of occurrence; the caller
    /// chooses the detection instant directly.)
    pub fn schedule_fault_detection(&mut self, core: CoreId, at: Cycle) {
        assert!(core.index() < self.cores.len(), "core out of range");
        self.queue.push(at, Event::FaultDetect { core });
    }

    // ------------------------------------------------------------------
    // Phase-aware fault injection (observation + deferred scheduling)
    // ------------------------------------------------------------------

    /// Arms a fault on `victim`: time-based triggers go straight onto the
    /// event queue; condition triggers ([`FaultTrigger::OnPhase`],
    /// [`FaultTrigger::AfterNthCheckpoint`]) are re-evaluated after every
    /// event and detection is injected at the first matching boundary. A
    /// trigger whose condition never arises simply never fires.
    pub fn arm_fault(&mut self, victim: CoreId, trigger: FaultTrigger) {
        assert!(victim.index() < self.cores.len(), "core out of range");
        match trigger {
            FaultTrigger::AtCycle(t) => self.schedule_fault_detection(victim, Cycle(t)),
            FaultTrigger::Storm { count, start, gap } => {
                for i in 0..count as u64 {
                    let at = start.saturating_add(i.saturating_mul(gap.max(1)));
                    self.schedule_fault_detection(victim, Cycle(at));
                }
            }
            FaultTrigger::OnPhase(_) | FaultTrigger::AfterNthCheckpoint(_) => {
                self.pending_faults.push(PendingFault { victim, trigger });
            }
        }
    }

    /// Evaluates armed condition faults against the current machine
    /// state; each fires at most once, as a detection at the current
    /// cycle. Called after every processed event.
    pub(crate) fn poll_pending_faults(&mut self) {
        let mut i = 0;
        while i < self.pending_faults.len() {
            let PendingFault { victim, trigger } = self.pending_faults[i];
            if trigger.matches(self, victim) {
                self.pending_faults.swap_remove(i);
                let now = self.now;
                self.schedule_fault_detection(victim, now);
            } else {
                i += 1;
            }
        }
    }

    /// Armed condition faults that have not fired (diagnostics; a
    /// finished run with leftovers means those windows never opened).
    pub fn unfired_fault_count(&self) -> usize {
        self.pending_faults.len()
    }

    /// Every fault detection that actually happened, in detection order —
    /// the resolved cycle of each armed or scheduled fault.
    pub fn fired_faults(&self) -> &[FiredFault] {
        &self.fired_faults
    }

    /// The externally observable checkpoint-episode phase of `core`.
    pub fn core_phase(&self, core: CoreId) -> CorePhase {
        match &self.cores[core.index()].role {
            EpisodeState::Idle => CorePhase::Idle,
            EpisodeState::Initiating(st) if !st.started => CorePhase::Collecting,
            EpisodeState::Initiating(_) => CorePhase::InitiatorWb,
            EpisodeState::Accepted { .. } => CorePhase::Accepted,
            EpisodeState::Member { .. } => CorePhase::Member,
            EpisodeState::GlobalMember { .. } => CorePhase::GlobalMember,
            EpisodeState::BarMember { .. } => CorePhase::BarrierMember,
            // An epoch snapshot has no coordination peers; for phase-
            // aware fault triggers it is the scheme's member-writeback
            // window (so `mid-join` plans reach Rebound_Epoch too).
            EpisodeState::EpochSnap { .. } => CorePhase::Member,
        }
    }

    /// Lines still queued in `core`'s background delayed-writeback drain
    /// (§4.1), or `None` when no drain is in progress.
    pub fn drain_depth(&self, core: CoreId) -> Option<usize> {
        let d = &self.cores[core.index()].drain;
        d.active.then_some(d.queue.len())
    }

    /// Whether a barrier-optimization checkpoint episode is active
    /// anywhere in the machine (§4.2.1).
    pub fn barrier_episode_active(&self) -> bool {
        self.barrier.barck_active
    }

    /// The open recovery window, if any: the cores the most recent
    /// rollback is restoring and the cycle their restoration completes.
    pub fn rollback_window(&self) -> Option<(CoreSet, Cycle)> {
        (self.now < self.rollback_until).then_some((self.rollback_cores, self.rollback_until))
    }

    // ------------------------------------------------------------------
    // Protocol-kernel plumbing and diagnostics
    // ------------------------------------------------------------------

    /// Records a protocol violation. The machine keeps running — the
    /// offending message/primitive is treated as dropped — but the typed
    /// diagnosis is preserved so a later oracle failure or deadlock can
    /// name the core, episode epoch and transition that went wrong.
    pub(crate) fn note_proto_error(&mut self, e: ProtoError) {
        // Bounded: a pathological livelock must not turn the diagnostic
        // buffer into the machine's largest allocation. Overflow is
        // counted, never silent — the summary reports how many typed
        // diagnoses the bound discarded.
        if self.proto_errors.len() < 64 {
            self.proto_errors.push(e);
        } else {
            self.proto_errors_dropped += 1;
        }
    }

    /// Every protocol violation observed so far, in detection order.
    /// Empty on a healthy run: benign protocol races (stale epochs,
    /// dead-episode stragglers) are counted as dropped messages, not
    /// errors. The buffer is bounded at 64 entries;
    /// [`Machine::proto_errors_dropped`] counts any overflow.
    pub fn proto_errors(&self) -> &[ProtoError] {
        &self.proto_errors
    }

    /// Violations discarded after the diagnostic buffer filled.
    pub fn proto_errors_dropped(&self) -> u64 {
        self.proto_errors_dropped
    }

    /// One-line rendering of [`Machine::proto_errors`] for failure
    /// reports (empty string when there are none), including how many
    /// further violations the bounded buffer discarded.
    pub fn proto_error_summary(&self) -> String {
        let mut s = self
            .proto_errors
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        if self.proto_errors_dropped > 0 {
            use std::fmt::Write as _;
            let _ = write!(s, " (+{} more dropped)", self.proto_errors_dropped);
        }
        s
    }

    /// The pure kernel transition `msg` would take at `to` right now —
    /// an observation, nothing is applied. Exposed for diagnostics and
    /// the state-machine exhaustiveness tests.
    pub fn proto_transition(
        &self,
        to: CoreId,
        msg: &ProtoMsg,
    ) -> Result<crate::proto::Transition, ProtoError> {
        crate::proto::transition(self, to, msg)
    }

    /// The episode state of `core`.
    pub fn episode_state(&self, core: CoreId) -> &EpisodeState {
        &self.cores[core.index()].role
    }

    /// Forces `core` into an arbitrary episode state, bypassing the
    /// protocol. Test scaffolding for the exhaustiveness properties;
    /// real transitions only ever happen through the kernel.
    #[doc(hidden)]
    pub fn force_episode_state(&mut self, core: CoreId, state: EpisodeState) {
        self.cores[core.index()].role = state;
    }

    /// Delivers `msg` to `to` through the kernel immediately (no
    /// network latency). Test scaffolding for the exhaustiveness
    /// properties.
    #[doc(hidden)]
    pub fn inject_proto_msg(&mut self, to: CoreId, msg: ProtoMsg) {
        self.handle_proto(to, msg);
    }

    // ------------------------------------------------------------------
    // Event plumbing
    // ------------------------------------------------------------------

    pub(crate) fn schedule_step(&mut self, core: CoreId, at: Cycle) {
        let c = &mut self.cores[core.index()];
        c.step_gen += 1;
        let gen = c.step_gen;
        self.queue.push(at, Event::Step { core, gen });
    }

    /// Sends a protocol message with interconnect latency, recording it
    /// (local self-deliveries are not network traffic and are not counted).
    pub(crate) fn send(
        &mut self,
        from: CoreId,
        to: CoreId,
        kind: rebound_coherence::MsgKind,
        msg: ProtoMsg,
    ) {
        if from != to {
            self.msgs.record(kind);
        }
        let lat = self.net.one_way(from, to).max(1);
        self.queue.push(self.now + lat, Event::Proto { to, msg });
    }

    /// Starts (or extends) a `Ckpt` block on a core, tagging subsequent
    /// blocked time with `kind`.
    pub(crate) fn block_ckpt(&mut self, core: CoreId, kind: OverheadKind) {
        let now = self.now;
        let c = &mut self.cores[core.index()];
        // A finished core can still be conscripted into a checkpoint
        // episode (its dirty data must drain), but it has no execution to
        // park or resume: flipping it to Blocked would let unblock_ckpt
        // resurrect it to Ready and re-execute Op::End, double-counting
        // done_cores.
        if c.run == RunState::Done {
            return;
        }
        if let Some((since, k)) = c.block_since.take() {
            c.stall.add(k, now.saturating_since(since));
        }
        c.block_since = Some((now, kind));
        c.run = RunState::Blocked(Block::Ckpt);
        c.step_gen += 1; // cancel any scheduled step
    }

    /// Re-tags an ongoing Ckpt block with a new category, flushing elapsed
    /// time into the old one.
    pub(crate) fn retag_block(&mut self, core: CoreId, kind: OverheadKind) {
        let now = self.now;
        let c = &mut self.cores[core.index()];
        if let Some((since, k)) = c.block_since.take() {
            c.stall.add(k, now.saturating_since(since));
        }
        c.block_since = Some((now, kind));
    }

    /// Ends a Ckpt block and resumes execution (if not gated or done).
    pub(crate) fn unblock_ckpt(&mut self, core: CoreId) {
        let now = self.now;
        let c = &mut self.cores[core.index()];
        if let Some((since, k)) = c.block_since.take() {
            c.stall.add(k, now.saturating_since(since));
        }
        if c.run == RunState::Blocked(Block::Ckpt) {
            c.run = RunState::Ready;
        }
        if c.run == RunState::Ready && !c.exec_gate {
            let at = c.busy_until.max(now);
            self.schedule_step(core, at);
        }
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Whether the run is finished: all programs done, no checkpoint or
    /// drain activity outstanding.
    pub fn is_finished(&self) -> bool {
        self.done_cores == self.cores.len()
            && !self.global.active
            && !self.barrier.barck_active
            && self
                .cores
                .iter()
                .all(|c| c.role == EpisodeState::Idle && !c.drain.active)
    }

    /// Processes one event. Returns `false` when nothing is left to do.
    pub fn step(&mut self) -> bool {
        if self.is_finished() {
            return false;
        }
        let Some((t, ev)) = self.queue.pop() else {
            // Queue empty but not finished — a liveness bug; surface
            // loudly, with any recorded protocol violations attached so
            // the deadlock is attributable from a campaign CSV row.
            panic!(
                "event queue drained with live state: {} done of {}, roles {:?}{}",
                self.done_cores,
                self.cores.len(),
                self.cores
                    .iter()
                    .map(|c| c.role.clone())
                    .collect::<Vec<_>>(),
                if self.proto_errors.is_empty() {
                    String::new()
                } else {
                    format!("; proto errors: {}", self.proto_error_summary())
                }
            );
        };
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        match ev {
            Event::Step { core, gen } => {
                if self.cores[core.index()].step_gen == gen {
                    self.exec_step(core);
                }
            }
            Event::Proto { to, msg } => self.handle_proto(to, msg),
            Event::DrainTick { core, gen } => {
                if self.cores[core.index()].drain.gen == gen {
                    self.drain_tick(core);
                }
            }
            Event::RetryCkpt { core, gen } => {
                if self.cores[core.index()].retry_gen == gen {
                    self.retry_initiation(core);
                }
            }
            Event::RetryRotate { core } => self.retry_rotation(core),
            Event::FaultDetect { core } => self.handle_fault_detect(core),
            Event::IoTick => self.handle_io_tick(),
        }
        if !self.pending_faults.is_empty() {
            self.poll_pending_faults();
        }
        true
    }

    /// Runs until finished and summarizes.
    pub fn run_to_completion(&mut self) -> RunReport {
        while self.step() {}
        self.report()
    }

    /// Runs until `deadline` (or completion) and reports progress.
    pub fn run_until(&mut self, deadline: Cycle) -> bool {
        while !self.is_finished() {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        self.is_finished()
    }

    /// Builds the run summary.
    pub fn report(&self) -> RunReport {
        let cycles = self
            .cores
            .iter()
            .map(|c| c.ended_at.unwrap_or(self.now).raw())
            .max()
            .unwrap_or(0)
            .max(self.now.raw());
        let mut metrics = self.metrics.clone();
        metrics.breakdown = StallBreakdown::default();
        for c in &self.cores {
            metrics.breakdown.merge(&c.stall);
        }
        metrics.insts = self.cores.iter().map(|c| c.insts).sum();
        metrics.dep_stalls = self.cores.iter().map(|c| c.dep.rotation_stalls).sum();
        metrics.log_entries = self.log.entries;
        RunReport {
            cycles,
            insts: metrics.insts,
            checkpoints: metrics.checkpoint_episodes,
            rollbacks: metrics.rollbacks,
            metrics,
            msgs: self.msgs.clone(),
            log_entries: self.log.entries.get(),
            log_max_interval_bytes: self.log.max_interval_bytes(),
            scheme: self.cfg.scheme,
            cores: self.cores.len(),
        }
    }

    // ------------------------------------------------------------------
    // Core execution
    // ------------------------------------------------------------------

    /// Executes the next operation of `core`.
    fn exec_step(&mut self, core: CoreId) {
        let idx = core.index();
        if self.cores[idx].run != RunState::Ready || self.cores[idx].exec_gate {
            return;
        }
        // Checkpoint-interval trigger (and forced I/O checkpoints).
        if self.maybe_trigger_checkpoint(core) {
            return;
        }
        let op = match self.cores[idx].resume_op.take() {
            Some(op) => op,
            None => self.cores[idx].program.next_op(),
        };
        match op {
            Op::Compute(n) => {
                let c = &mut self.cores[idx];
                c.insts += n;
                c.busy_until = self.now + n;
                let at = c.busy_until;
                self.schedule_step(core, at);
            }
            Op::Load(addr) => {
                // Rebound_Epoch: a line stamped with a newer epoch forces
                // a snapshot *before* the data is consumed.
                if self.epoch_probe(core, addr, op) {
                    return;
                }
                let lat = self.access(core, addr, false, true);
                self.metrics.load_latency.record(lat);
                let c = &mut self.cores[idx];
                c.insts += 1;
                c.busy_until = self.now + lat.max(1);
                let at = c.busy_until;
                self.schedule_step(core, at);
            }
            Op::Store(addr) => {
                // A store also observes the line it overwrites (the undo
                // log keeps its old value as a before-image, and the
                // dependence tracker records the transfer), so it probes
                // like a load under Rebound_Epoch.
                if self.epoch_probe(core, addr, op) {
                    return;
                }
                // Stores retire through the store buffer: the coherence
                // work happens now, the core only pays one cycle.
                let _ = self.access(core, addr, true, true);
                let c = &mut self.cores[idx];
                c.insts += 1;
                c.busy_until = self.now + 1;
                let at = c.busy_until;
                self.schedule_step(core, at);
            }
            Op::LockAcquire(id) => self.lock_acquire(core, id),
            Op::LockRelease(id) => self.lock_release(core, id),
            Op::Barrier => self.barrier_arrive(core),
            Op::OutputIo => self.output_io(core),
            Op::CheckpointHint => {
                self.cores[idx].force_ckpt = true;
                self.schedule_step(core, self.now + 1);
            }
            Op::End => {
                let c = &mut self.cores[idx];
                if c.run != RunState::Done {
                    c.run = RunState::Done;
                    c.ended_at = Some(self.now);
                    self.done_cores += 1;
                }
            }
        }
    }

    /// Deterministic store value: unique per (core, store sequence).
    pub(crate) fn store_value(&mut self, core: CoreId) -> u64 {
        let c = &mut self.cores[core.index()];
        c.store_seq += 1;
        let seq = c.store_seq;
        Self::mix_store_value(core, seq)
    }

    /// The value a store by `core` would carry *without* advancing the
    /// sequence counter — used for sync-machinery writes, which must not
    /// perturb the application's (core, store_seq) value stream.
    pub(crate) fn peek_store_value(&self, core: CoreId) -> u64 {
        Self::mix_store_value(core, self.cores[core.index()].store_seq)
    }

    fn mix_store_value(core: CoreId, seq: u64) -> u64 {
        let mut z = ((core.index() as u64) << 48) ^ seq;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z | 1 // never zero, so MainMemory keeps it resident
    }

    /// The home tile of a line (address-interleaved).
    pub(crate) fn home_of(&self, line: LineAddr) -> CoreId {
        CoreId(line.home_of(self.cores.len()).index())
    }

    /// The propagation-epoch stamp of a line (`Rebound_Epoch`): the
    /// writer's epoch at its most recent store; 0 if never stamped.
    pub(crate) fn line_epoch(&self, id: LineId) -> u64 {
        self.line_epochs.get(id.index()).copied().unwrap_or(0)
    }

    /// Stamps a line with its writer's current epoch at store time
    /// (overwrite, not max: the stamp describes the provenance of the
    /// line's *current* data). Grows on demand for overflow-interned
    /// script addresses, mirroring `MainMemory::write`.
    pub(crate) fn stamp_line_epoch(&mut self, id: LineId, epoch: u64) {
        let i = id.index();
        if i >= self.line_epochs.len() {
            if epoch == 0 {
                return;
            }
            self.line_epochs.resize(i + 1, 0);
        }
        self.line_epochs[i] = epoch;
    }

    /// The propagation epoch of `core` (test introspection).
    pub fn core_epoch(&self, core: CoreId) -> u64 {
        self.cores[core.index()].epoch
    }

    /// Enables or disables dependence tracking at runtime (§8). While
    /// disabled, accesses record no LW-ID/WSIG/Dep state, so subsequent
    /// checkpoints see no new interaction edges; checkpointing itself
    /// (and its correctness machinery) is unaffected.
    pub fn set_tracking_enabled(&mut self, enabled: bool) {
        self.tracking_enabled = enabled;
    }

    /// Whether `addr` participates in dependence tracking: the scheme must
    /// track, the runtime switch must be on, and the address must not fall
    /// in a configured untracked range.
    pub(crate) fn tracks_addr(&self, addr: rebound_engine::Addr) -> bool {
        if !self.cfg.scheme.tracks_dependences() || !self.tracking_enabled {
            return false;
        }
        !self
            .cfg
            .untracked_ranges
            .iter()
            .any(|&(lo, hi)| addr.0 >= lo && addr.0 < hi)
    }

    /// The Dep-register bit index representing `core` (its cluster id at
    /// granularities above 1; the §8 clustered-directory extension).
    pub(crate) fn dep_bit_of(&self, core: CoreId) -> CoreId {
        CoreId(core.index() / self.cfg.dep_cluster.max(1))
    }

    /// Expands a set of Dep-register bits into the set of cores they name.
    pub(crate) fn expand_dep_bits(&self, bits: CoreSet) -> CoreSet {
        let g = self.cfg.dep_cluster.max(1);
        if g == 1 {
            return bits;
        }
        let mut out = CoreSet::new();
        for b in bits.iter() {
            for i in 0..g {
                let c = b.index() * g + i;
                if c < self.cores.len() {
                    out.insert(CoreId(c));
                }
            }
        }
        out
    }

    /// Every core in `core`'s cluster (including itself).
    pub(crate) fn cluster_mates(&self, core: CoreId) -> CoreSet {
        self.expand_dep_bits(CoreSet::singleton(self.dep_bit_of(core)))
    }

    /// Every core in `core`'s *scheme-level* checkpoint cluster
    /// (including itself): the static k-core partition under
    /// `Rebound_Cluster{k}`, just `{core}` for every other scheme.
    pub(crate) fn scheme_cluster_mates(&self, core: CoreId) -> CoreSet {
        let k = self.cfg.scheme.cluster_k();
        if k == 1 {
            return CoreSet::singleton(core);
        }
        let base = (core.index() / k) * k;
        let mut s = CoreSet::new();
        for i in base..(base + k).min(self.cores.len()) {
            s.insert(CoreId(i));
        }
        s
    }

    /// The full checkpoint unit of `core`: its dep-granularity cluster
    /// (§8 clustered-directory extension) united with its scheme-level
    /// cluster. Whenever any core of the unit checkpoints or rolls
    /// back, the whole unit does.
    pub(crate) fn ckpt_unit(&self, core: CoreId) -> CoreSet {
        self.cluster_mates(core)
            .union(self.scheme_cluster_mates(core))
    }
}

impl Machine {
    /// Histogram of pending event kinds (diagnostics).
    pub fn queue_histogram(&self) -> Vec<(String, usize)> {
        use std::collections::HashMap;
        let mut h: HashMap<String, usize> = HashMap::new();
        for e in self.queue.iter_payloads() {
            let k = match e {
                Event::Step { .. } => "Step".to_string(),
                Event::Proto { msg, .. } => format!("Proto::{:?}", std::mem::discriminant(msg)),
                Event::DrainTick { .. } => "DrainTick".to_string(),
                Event::RetryCkpt { .. } => "RetryCkpt".to_string(),
                Event::RetryRotate { .. } => "RetryRotate".to_string(),
                Event::FaultDetect { .. } => "FaultDetect".to_string(),
                Event::IoTick => "IoTick".to_string(),
            };
            *h.entry(k).or_insert(0) += 1;
        }
        let mut v: Vec<_> = h.into_iter().collect();
        // Most frequent first, ties broken by name: two runs of the same
        // failing scenario must print byte-identical diagnoses, so the
        // order can never depend on HashMap iteration.
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

impl Machine {
    /// Debug dump of the machine-level synchronization and episode state
    /// (diagnostics; pairs with [`Machine::debug_roles`]).
    pub fn debug_sync_state(&self) -> String {
        let b = &self.barrier;
        let mut s = format!(
            "barrier: arrived={} gen={} waiters={} last={:?} barck_active={} \
             barck_init={:?} barck_done={} release_gated={}\n",
            b.arrived,
            b.generation,
            b.waiters.len(),
            b.last_arrival,
            b.barck_active,
            b.barck_initiator,
            b.barck_done,
            b.release_gated,
        );
        s.push_str(&format!(
            "global: active={} coordinator={:?} wb_done={} draining={}\n",
            self.global.active, self.global.coordinator, self.global.wb_done, self.global.draining,
        ));
        let flags: Vec<String> = self
            .cores
            .iter()
            .filter(|c| c.barck_arrived || c.barck_pending || c.barck_wb_done || c.barck_notified)
            .map(|c| {
                format!(
                    "P{}(arr={} pend={} wb={} ntf={})",
                    c.id.index(),
                    c.barck_arrived,
                    c.barck_pending,
                    c.barck_wb_done,
                    c.barck_notified
                )
            })
            .collect();
        s.push_str(&format!("barck core flags: {}\n", flags.join(" ")));
        s
    }

    /// Debug dump of each core's protocol state (diagnostics).
    pub fn debug_roles(&self) -> String {
        let mut s = String::new();
        for c in &self.cores {
            s.push_str(&format!(
                "P{}: run={:?} role={:?} drain={} gate={} insts={} epoch={}\n",
                c.id.index(),
                c.run,
                match &c.role {
                    EpisodeState::Idle => "Idle".to_string(),
                    EpisodeState::Initiating(st) => format!(
                        "Init(e{} ichk={} awaiting={} wbd={} started={})",
                        st.epoch,
                        st.ichk,
                        st.expected.iter().map(|&c| c as u32).sum::<u32>(),
                        st.wb_done,
                        st.started
                    ),
                    r => format!("{r:?}"),
                },
                c.drain.active,
                c.exec_gate,
                c.insts,
                c.ckpt_epoch,
            ));
        }
        s
    }
}

impl Machine {
    /// Pops and describes one event without filtering (diagnostics).
    pub fn trace_step(&mut self) -> Option<String> {
        if self.is_finished() {
            return None;
        }
        let desc = {
            // Peek at the next event by popping manually.
            let (t, ev) = self.queue.pop()?;
            let d = format!("{:>9} {:?}", t.raw(), ev);
            self.now = t;
            match ev {
                Event::Step { core, gen } => {
                    let c = &self.cores[core.index()];
                    let live = c.step_gen == gen;
                    let d2 = format!("{d} live={live} run={:?} busy={}", c.run, c.busy_until);
                    if live {
                        self.exec_step(core);
                    }
                    d2
                }
                Event::Proto { to, msg } => {
                    self.handle_proto(to, msg);
                    d
                }
                Event::DrainTick { core, gen } => {
                    if self.cores[core.index()].drain.gen == gen {
                        self.drain_tick(core);
                    }
                    d
                }
                Event::RetryCkpt { core, gen } => {
                    if self.cores[core.index()].retry_gen == gen {
                        self.retry_initiation(core);
                    }
                    d
                }
                Event::RetryRotate { core } => {
                    self.retry_rotation(core);
                    d
                }
                Event::FaultDetect { core } => {
                    self.handle_fault_detect(core);
                    d
                }
                Event::IoTick => {
                    self.handle_io_tick();
                    d
                }
            }
        };
        if !self.pending_faults.is_empty() {
            self.poll_pending_faults();
        }
        Some(desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebound_engine::Addr;

    fn cfg(n: usize) -> MachineConfig {
        let mut c = MachineConfig::small(n);
        c.scheme = Scheme::None;
        c
    }

    #[test]
    fn empty_programs_finish_immediately() {
        let programs = (0..2).map(|_| CoreProgram::script([])).collect();
        let mut m = Machine::with_programs(&cfg(2), programs);
        let r = m.run_to_completion();
        assert_eq!(r.insts, 0);
        assert!(m.is_finished());
    }

    #[test]
    fn compute_advances_time_by_instruction_count() {
        let programs = vec![CoreProgram::script([Op::Compute(1_000)])];
        let mut m = Machine::with_programs(&cfg(1), programs);
        let r = m.run_to_completion();
        assert_eq!(r.insts, 1_000);
        assert!(r.cycles >= 1_000);
    }

    #[test]
    fn store_then_load_round_trips_value() {
        let a = Addr(0x1000);
        let programs = vec![CoreProgram::script([Op::Store(a), Op::Load(a)])];
        let mut m = Machine::with_programs(&cfg(1), programs);
        m.run_to_completion();
        // The value must be in the L2 (dirty) and not yet in memory.
        let line = a.line(LineGeometry::default());
        let l2 = &m.cores[0].l2;
        let entry = l2.peek(line).expect("line cached");
        assert!(entry.state.is_dirty());
        assert_eq!(
            m.committed_line_value(line),
            0,
            "write-back: memory still stale"
        );
    }

    #[test]
    fn report_counts_all_cores_instructions() {
        let programs = (0..4)
            .map(|_| CoreProgram::script([Op::Compute(10), Op::Compute(5)]))
            .collect();
        let mut m = Machine::with_programs(&cfg(4), programs);
        let r = m.run_to_completion();
        assert_eq!(r.insts, 60);
        assert_eq!(r.cores, 4);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let mk = || {
            let c = cfg(4);
            let profile = rebound_workloads::profile_named("Barnes").unwrap();
            let mut m = Machine::from_profile(&c, &profile, 5_000);
            m.run_to_completion()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.insts, b.insts);
        assert_eq!(a.msgs.total(), b.msgs.total());
    }

    #[test]
    #[should_panic(expected = "one program per core")]
    fn program_count_must_match() {
        Machine::with_programs(&cfg(2), vec![CoreProgram::script([])]);
    }

    #[test]
    fn proto_error_overflow_is_counted_not_silent() {
        let programs = vec![CoreProgram::script([])];
        let mut m = Machine::with_programs(&cfg(1), programs);
        for _ in 0..70 {
            m.note_proto_error(ProtoError::ResumedDoneCore { core: CoreId(0) });
        }
        assert_eq!(m.proto_errors().len(), 64, "buffer stays bounded");
        assert_eq!(m.proto_errors_dropped(), 6);
        assert!(
            m.proto_error_summary().ends_with("(+6 more dropped)"),
            "summary must surface the truncation: {}",
            m.proto_error_summary()
        );
    }
}
