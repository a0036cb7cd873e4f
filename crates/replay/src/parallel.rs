//! Parallel chunk-ordered replay as a conflict-dependency list schedule.
//!
//! Serial replay executes the merged timeline strictly in global
//! timestamp order — one chunk at a time. But the recorded total order
//! is stronger than necessary: two chunks only
//! need to stay ordered if the *same thread* issued them (program order)
//! or their read/write footprints actually conflict (some shared cache
//! line written by at least one of them). Any execution respecting those
//! constraints is conflict-equivalent to the recorded serialization and
//! therefore produces a byte-identical memory image, console and exit
//! vector — fingerprint equality is the correctness oracle, checked by
//! [`replay_parallel_and_verify`] and the equivalence test battery.
//!
//! # Dependency DAG
//!
//! Nodes are the events of [`Recording::timeline`] (chunk packets plus
//! input events), in timestamp order. Edges, always from earlier to
//! later timestamps (hence acyclic):
//!
//! - **Program order**: consecutive nodes of the same thread.
//! - **Conflicts**: every pair [`quickrec_core::hb::ConflictSweep`]
//!   reports — a node reading line `L` depends on `L`'s last writer,
//!   and a node writing `L` depends on `L`'s last writer and every
//!   reader since (RAW, WAW, WAR edges at cache-line granularity). The
//!   partial-order recorder reduces the same pairs into `order.qrp`.
//! - **Spawn**: a successful `SYS_SPAWN` record precedes the child
//!   thread's first node.
//!
//! Footprints come from the recording's optional
//! [`quickrec_core::FootprintLog`] sidecar. Recordings without complete
//! footprint coverage (recordings migrated from v1, salvaged prefixes)
//! fall back to the serial [`Replayer`] — missing footprints cost
//! parallelism, never correctness.
//!
//! # Execution model
//!
//! `jobs` is a count of *simulated* workers; replay runs on the
//! caller's thread. (Host worker threads lost to serial replay on every
//! measured mix, so the schedule is the product, not a thread pool.)
//! Every thread gets a private single-core *lane* machine (own store
//! buffer, so TSO reproduction stays exact) on the functional memory
//! path, whose memory is fully mapped. A *canonical* machine carries
//! the authoritative memory image; the stack and `sbrk` mappings that
//! serial replay applies to its one machine are applied to it, so its
//! fingerprint hashes the same region list. Executing a node:
//!
//! 1. **pulls** the node's footprint lines from canonical memory into
//!    the lane (clipped to canonical's mapped regions),
//! 2. **executes** the node on the lane through the event executor
//!    serial replay uses (`exec`: instruction-exact chunk execution,
//!    boundary drains, RSW checks, input injection), applying the
//!    effect it returns (spawn, mapping, console bytes) to the
//!    canonical state, and
//! 3. **pushes** the node's write-set lines back to canonical memory.
//!
//! Because every conflicting predecessor pushed before this node pulls
//! (there is an edge), the pulled lines hold exactly the bytes serial
//! replay would have observed. Data lives in the paged memory, never in
//! a cache, so line copies between machines are architecturally exact.
//! A lane's cycle cost depends only on its own thread's node sequence:
//! every access costs an L1 hit, or, under
//! [`ParallelReplayer::modelled`], whatever the lane's own L1 and bus
//! make of that sequence.
//!
//! Nodes run in the order of a greedy event-driven list schedule onto
//! `jobs` workers: the ready node with the earliest (ready time,
//! timeline index) dispatches to the earliest-free worker and executes
//! there and then, its replayed cycle cost setting its finish time. The
//! reported [`ReplayOutcome::cycles`] is that schedule's makespan: it
//! depends only on the recording and `jobs`, never on the host, keeping
//! experiment output byte-stable. The same loop is the DAG's cycle
//! check — a node never dispatched sits on or behind a cycle, which only
//! a corrupt recorded order log ([`crate::order`]) can contain.

use crate::exec::{self, Effect, ReplayThread};
use crate::outcome::ReplayOutcome;
use crate::replayer::{replay_cpu_config, Replayer};
use qr_capo::{Recording, TimelineEvent};
use qr_common::ids::CACHE_LINE_SHIFT;
use qr_common::{CoreId, LineAddr, QrError, Result, ThreadId, VirtAddr};
use qr_cpu::{CpuConfig, Machine};
use qr_isa::Program;
use quickrec_core::hb::ConflictSweep;
use quickrec_core::ChunkFootprint;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

/// Replays `recording` of `program` scheduled onto `jobs` simulated
/// workers and verifies the outcome against the recording.
///
/// # Errors
///
/// See [`replay_parallel`].
pub fn replay_parallel_and_verify(
    program: &Program,
    recording: &Recording,
    jobs: usize,
) -> Result<ReplayOutcome> {
    let outcome = replay_parallel(program, recording, jobs)?;
    outcome.verify_against(recording)?;
    Ok(outcome)
}

/// Replays `recording` of `program` scheduled onto `jobs` simulated
/// workers, falling back to serial replay when the recording lacks
/// complete footprint coverage.
///
/// # Errors
///
/// Returns [`QrError::InvalidConfig`] for `jobs == 0`, otherwise the
/// same errors as serial [`crate::replay`].
pub fn replay_parallel(program: &Program, recording: &Recording, jobs: usize) -> Result<ReplayOutcome> {
    ParallelReplayer::new(program, recording, jobs)?.run()
}

/// One timeline node of the dependency DAG.
#[derive(Debug)]
pub(crate) struct Node<'a> {
    pub(crate) event: TimelineEvent<'a>,
    /// Lines the node reads and writes (`None` for signal deliveries,
    /// which touch registers only: program order suffices).
    footprint: Option<&'a ChunkFootprint>,
    /// Lines to copy canonical → lane before executing (reads ∪ writes);
    /// the footprint's writes go back lane → canonical afterwards.
    pull: Vec<LineAddr>,
}

impl Node<'_> {
    fn push(&self) -> &[LineAddr] {
        self.footprint.map_or(&[], |fp| &fp.writes)
    }
}

/// The dependency DAG over the merged timeline.
#[derive(Debug)]
pub(crate) struct Dag<'a> {
    pub(crate) nodes: Vec<Node<'a>>,
    /// Direct predecessors of each node (deduplicated, ascending).
    preds: Vec<Vec<usize>>,
    /// Direct successors of each node.
    succs: Vec<Vec<usize>>,
}

impl<'a> Dag<'a> {
    /// Links `nodes` under the given predecessor lists.
    pub(crate) fn new(nodes: Vec<Node<'a>>, preds: Vec<Vec<usize>>) -> Dag<'a> {
        let mut succs = vec![Vec::new(); nodes.len()];
        for (idx, p) in preds.iter().enumerate() {
            for &pred in p {
                succs[pred].push(idx);
            }
        }
        Dag { nodes, preds, succs }
    }
}

/// A parallel replay in preparation.
///
/// Construction builds the chunk dependency DAG from the recording's
/// footprint sidecar; [`ParallelReplayer::run`] executes it in list-
/// schedule order onto `jobs` simulated workers. Recordings without
/// complete footprints (see
/// [`ParallelReplayer::fallback_reason`]) run through the serial
/// [`Replayer`] instead and still produce the same verified outcome.
#[derive(Debug)]
pub struct ParallelReplayer<'a> {
    program: &'a Program,
    recording: &'a Recording,
    jobs: usize,
    dag: Option<Dag<'a>>,
    fallback: Option<String>,
    modelled: bool,
}

impl<'a> ParallelReplayer<'a> {
    /// Prepares a parallel replay scheduled onto `jobs` simulated workers.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] for `jobs == 0`,
    /// [`QrError::ReplayDivergence`] if the program does not match the
    /// recording, and log-format errors for malformed chunk logs.
    pub fn new(program: &'a Program, recording: &'a Recording, jobs: usize) -> Result<ParallelReplayer<'a>> {
        if jobs == 0 {
            return Err(QrError::InvalidConfig("replay needs at least one job".into()));
        }
        exec::check_program(program, recording)?;
        let (dag, fallback) = match timeline_nodes(recording)? {
            Ok(nodes) => (Some(build_dag(nodes)), None),
            Err(reason) => (None, Some(reason)),
        };
        Ok(ParallelReplayer { program, recording, jobs, dag, fallback, modelled: false })
    }

    /// [`ParallelReplayer::new`] with every lane (and the serial
    /// fallback) on the recording's cache and bus model, as
    /// [`Replayer::modelled`] is: the makespan E9b reports.
    ///
    /// # Errors
    ///
    /// See [`ParallelReplayer::new`].
    pub fn modelled(program: &'a Program, recording: &'a Recording, jobs: usize) -> Result<ParallelReplayer<'a>> {
        Ok(ParallelReplayer { modelled: true, ..ParallelReplayer::new(program, recording, jobs)? })
    }

    /// Why this replay will take the serial path (`None` when the
    /// dependency scheduler can run).
    pub fn fallback_reason(&self) -> Option<&str> {
        self.fallback.as_deref()
    }

    /// Number of timeline nodes in the dependency DAG (0 on fallback).
    pub fn node_count(&self) -> usize {
        self.dag.as_ref().map_or(0, |d| d.nodes.len())
    }

    /// Number of dependency edges in the DAG (0 on fallback).
    pub fn edge_count(&self) -> usize {
        self.dag.as_ref().map_or(0, |d| d.preds.iter().map(Vec::len).sum())
    }

    /// Runs the replay to completion.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::ReplayDivergence`] on any mismatch, like the
    /// serial replayer.
    pub fn run(self) -> Result<ReplayOutcome> {
        match self.dag {
            Some(dag) => {
                Runtime::new(self.program, self.recording, dag, self.jobs, self.modelled)?.run()
            }
            None if self.modelled => Replayer::modelled(self.program, self.recording)?.run(),
            None => Replayer::new(self.program, self.recording)?.run(),
        }
    }
}

/// Turns the recording's timeline into DAG nodes with their footprint
/// pull sets, or explains why serial fallback is needed (no footprint
/// sidecar, or incomplete coverage). Shared by the conflict-derived DAG
/// below and the recorded-order DAG in [`crate::order`].
#[allow(clippy::type_complexity)]
pub(crate) fn timeline_nodes(
    recording: &Recording,
) -> Result<std::result::Result<Vec<Node<'_>>, String>> {
    if recording.footprints.is_none() {
        return Ok(Err("recording carries no footprint sidecar".into()));
    }
    let timeline = recording.timeline()?;
    let mut nodes = Vec::with_capacity(timeline.len());
    for entry in timeline {
        use qr_capo::InputEvent::Signal;
        let (footprint, pull) = if matches!(entry.event, TimelineEvent::Input(Signal { .. })) {
            (None, Vec::new())
        } else {
            let Some(fp) = entry.footprint else {
                let ts = entry.event.ts().0;
                return Ok(Err(format!("no footprint for timeline timestamp {ts}")));
            };
            let mut pull: Vec<LineAddr> = fp.reads.iter().chain(&fp.writes).copied().collect();
            pull.sort_unstable();
            pull.dedup();
            (Some(fp), pull)
        };
        nodes.push(Node { event: entry.event, footprint, pull });
    }
    Ok(Ok(nodes))
}

/// Builds the dependency DAG: per-thread program order, spawn edges and
/// every conflicting pair the shared sweep reports.
fn build_dag(nodes: Vec<Node<'_>>) -> Dag<'_> {
    let mut preds: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
    let mut sweep = ConflictSweep::new();
    let mut last_of_tid: HashMap<u32, usize> = HashMap::new();
    let mut pending_spawn: HashMap<u32, usize> = HashMap::new();
    for (idx, node) in nodes.iter().enumerate() {
        let mut p: BTreeSet<usize> = BTreeSet::new();
        let tid = node.event.tid().0;
        match last_of_tid.insert(tid, idx) {
            Some(prev) => p.insert(prev),
            None => pending_spawn.get(&tid).is_some_and(|&spawner| p.insert(spawner)),
        };
        if let Some(fp) = node.footprint {
            sweep.visit(idx, fp, |pred| {
                p.insert(pred);
            });
        }
        if let Some(child) = node.event.spawned_child() {
            pending_spawn.insert(child.0, idx);
        }
        preds.push(p.into_iter().collect());
    }
    Dag::new(nodes, preds)
}

/// Per-thread replay lane: the thread's replay state on a private
/// single-core machine.
#[derive(Debug)]
struct Lane {
    machine: Machine,
    thread: ReplayThread,
}

/// State of one parallel replay run.
pub(crate) struct Runtime<'a> {
    recording: &'a Recording,
    dag: Dag<'a>,
    jobs: usize,
    lanes: Vec<Lane>,
    /// The authoritative memory image; its mapped-region list follows
    /// the serial replayer's mapping operations exactly (fingerprints
    /// hash region metadata as well as contents).
    canonical: Machine,
    /// `canonical`'s mapped regions as `[start, end)` pairs, refreshed
    /// whenever a thread's stack or an `sbrk` maps more.
    mapped: Vec<(u64, u64)>,
    instructions: u64,
    /// Console bytes by timeline index (nodes run in schedule order).
    consoles: BTreeMap<usize, Vec<u8>>,
}

/// Copies `lines` from `src` to `dst`, clipped to the regions `mapped`
/// has mapped (the canonical image — lanes are fully mapped). Returns
/// the first line with no mapped part at all, if any.
fn copy_lines(src: &Machine, dst: &mut Machine, mapped: &[(u64, u64)], lines: &[LineAddr]) -> Option<LineAddr> {
    let mut unmapped = None;
    for &line in lines {
        let start = u64::from(line.0) << CACHE_LINE_SHIFT;
        let end = start + (1 << CACHE_LINE_SHIFT);
        let mut copied = false;
        for &(s, e) in mapped {
            let (lo, hi) = (start.max(s), end.min(e));
            if lo < hi {
                let mut line_buf = [0u8; 1 << CACHE_LINE_SHIFT];
                let buf = &mut line_buf[..(hi - lo) as usize];
                let addr = VirtAddr(lo as u32);
                src.mem().memory().read_bytes(addr, buf).expect("clipped to mapped region");
                dst.mem_mut().memory_mut().write_bytes(addr, buf).expect("clipped to mapped region");
                copied = true;
            }
        }
        if !copied {
            unmapped = unmapped.or(Some(line));
        }
    }
    unmapped
}

impl<'a> Runtime<'a> {
    /// Builds the lanes and the canonical image; lanes run the
    /// recording's cache model when `modelled`, functional otherwise.
    pub(crate) fn new(
        program: &Program,
        recording: &'a Recording,
        dag: Dag<'a>,
        jobs: usize,
        modelled: bool,
    ) -> Result<Runtime<'a>> {
        let num_threads = replay_cpu_config(recording)?.num_cores;
        let lane_cpu = CpuConfig {
            num_cores: 1,
            drain_interval: recording.meta.cpu.drain_interval,
            mem: recording.meta.cpu.mem.clone(),
        };
        let mut lanes = Vec::with_capacity(num_threads);
        for tid in 0..num_threads {
            let mut machine = Machine::new(program.clone(), lane_cpu.clone())?;
            if !modelled {
                machine.mem_mut().make_functional();
            }
            // Lanes never fault on mapping: pulled lines are clipped to
            // canonical's regions, and recorded programs contain no wild
            // accesses (they would have faulted during recording).
            machine.mem_mut().map_region(VirtAddr(0), u32::MAX)?;
            let thread = ReplayThread::new(recording, ThreadId(tid as u32));
            lanes.push(Lane { machine, thread });
        }
        // The canonical image never executes: it needs no L1.
        let mut canonical = Machine::new(program.clone(), lane_cpu)?;
        canonical.mem_mut().make_functional();
        let mut runtime = Runtime {
            recording,
            dag,
            jobs,
            lanes,
            canonical,
            mapped: Vec::new(),
            instructions: 0,
            consoles: BTreeMap::new(),
        };
        runtime.create_thread(ThreadId(0), program.entry(), 0)?;
        Ok(runtime)
    }

    /// Maps `[base, base + len)` in the canonical image.
    fn map_canonical(&mut self, base: VirtAddr, len: u32) -> Result<()> {
        self.canonical.mem_mut().map_region(base, len)?;
        self.mapped = (self.canonical.mem().memory().regions())
            .map(|(b, l)| (u64::from(b.0), u64::from(b.0) + u64::from(l)))
            .collect();
        Ok(())
    }

    /// Creates thread `tid`: context on its lane, stack region mapped in
    /// the canonical image.
    fn create_thread(&mut self, tid: ThreadId, entry: VirtAddr, arg: u32) -> Result<()> {
        let lane = (self.lanes.get_mut(tid.index()))
            .ok_or_else(|| QrError::ReplayDivergence(format!("spawn of unknown thread {tid}")))?;
        let (ctx, (base, len)) = lane.thread.create(self.recording, tid, entry, arg)?;
        lane.machine.core_mut(CoreId(0)).swap_context(Some(ctx));
        self.map_canonical(base, len)
    }

    /// Executes one timeline node on its thread's lane — pull, replay
    /// the event, apply its effect to the canonical state, push — and
    /// returns its replayed cycle cost.
    fn exec_node(&mut self, idx: usize) -> Result<u64> {
        let node = &self.dag.nodes[idx];
        crate::obs::lines_pulled(node.pull.len());
        crate::obs::lines_pushed(node.push().len());
        let tid = node.event.tid().index();
        let lane = &mut self.lanes[tid];
        copy_lines(&self.canonical, &mut lane.machine, &self.mapped, &node.pull);
        let before = lane.machine.core(CoreId(0)).cycles();
        let effect = exec::exec_event(
            &mut lane.machine,
            CoreId(0),
            &mut lane.thread,
            &node.event,
            self.recording.meta.tso_mode,
            &mut self.instructions,
            None,
        )?;
        let cost = lane.machine.core(CoreId(0)).cycles() - before;
        match effect {
            Effect::None => {}
            Effect::Spawn { child, entry, arg } => self.create_thread(child, entry, arg)?,
            Effect::Map { base, len } => self.map_canonical(base, len)?,
            Effect::Console(bytes) => {
                self.consoles.insert(idx, bytes);
            }
        }
        // Serial replay would have faulted on a store to a line no
        // region maps.
        let push = self.dag.nodes[idx].push();
        if let Some(line) = copy_lines(&self.lanes[tid].machine, &mut self.canonical, &self.mapped, push) {
            return Err(QrError::ReplayDivergence(format!(
                "chunk wrote line {:#x} outside every mapped region",
                u64::from(line.0) << CACHE_LINE_SHIFT
            )));
        }
        Ok(cost)
    }

    /// Executes the DAG in greedy list-schedule order (module docs) and
    /// reports its makespan as the outcome's cycles.
    ///
    /// # Errors
    ///
    /// The first node's divergence in schedule order, or
    /// [`QrError::Corrupt`] when nodes are left undispatched (a cycle).
    pub(crate) fn run(mut self) -> Result<ReplayOutcome> {
        crate::obs::run_started("parallel");
        let total = self.dag.nodes.len();
        let mut indegree: Vec<usize> = self.dag.preds.iter().map(Vec::len).collect();
        let mut ready_at = vec![0u64; total];
        let mut ready: BinaryHeap<Reverse<(u64, usize)>> =
            (0..total).filter(|&i| indegree[i] == 0).map(|i| Reverse((0, i))).collect();
        // With a worker per node one is always idle: more change nothing.
        let mut workers: BinaryHeap<Reverse<u64>> =
            (0..self.jobs.min(total)).map(|_| Reverse(0)).collect();
        let (mut cycles, mut dispatched) = (0u64, 0usize);
        while let Some(Reverse((at, idx))) = ready.pop() {
            let Reverse(free_at) = workers.pop().expect("jobs >= 1");
            let finish = at.max(free_at) + self.exec_node(idx)?;
            dispatched += 1;
            cycles = cycles.max(finish);
            workers.push(Reverse(finish));
            for &succ in &self.dag.succs[idx] {
                ready_at[succ] = ready_at[succ].max(finish);
                indegree[succ] -= 1;
                if indegree[succ] == 0 {
                    ready.push(Reverse((ready_at[succ], succ)));
                }
            }
        }
        crate::obs::nodes_executed("parallel", dispatched as u64);
        if dispatched != total {
            // Derived edges follow timestamp order and cannot close a
            // cycle; recorded ones can, when the order log is corrupt.
            return Err(QrError::Corrupt {
                what: "order log".into(),
                offset: 0,
                detail: format!(
                    "happens-before edges form a cycle ({dispatched} of {total} nodes orderable)"
                ),
            });
        }
        let chunks_replayed =
            self.dag.nodes.iter().filter(|n| matches!(n.event, TimelineEvent::Chunk(_))).count();
        let exit_codes = exec::final_exit_codes(self.lanes.iter().map(|lane| &lane.thread))?;
        let console: Vec<u8> = self.consoles.into_values().flatten().collect();
        let fingerprint = qr_os::native::fingerprint_of(&self.canonical, &console, &exit_codes);
        Ok(ReplayOutcome {
            console,
            exit_code: exit_codes.first().copied().flatten().unwrap_or(0),
            fingerprint,
            cycles,
            instructions: self.instructions,
            chunks_replayed,
            inputs_injected: total - chunks_replayed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replayer::replay;
    use crate::testutil::racy_program;
    use qr_capo::{record, RecordingConfig};
    use qr_isa::Asm;
    use qr_mem::TsoMode;

    #[test]
    fn parallel_matches_serial_on_the_racy_counter() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        let serial = replay(&program, &recording).unwrap();
        for jobs in [1, 2, 4] {
            let replayer = ParallelReplayer::new(&program, &recording, jobs).unwrap();
            assert_eq!(replayer.fallback_reason(), None);
            assert!(replayer.node_count() > 0);
            let outcome = replayer.run().unwrap();
            assert_eq!(outcome.fingerprint, serial.fingerprint, "jobs={jobs}");
            assert_eq!(outcome.console, serial.console);
            assert_eq!(outcome.exit_code, serial.exit_code);
            assert_eq!(outcome.instructions, serial.instructions);
            assert_eq!(outcome.chunks_replayed, serial.chunks_replayed);
            assert_eq!(outcome.inputs_injected, serial.inputs_injected);
            outcome.verify_against(&recording).unwrap();
        }
    }

    #[test]
    fn missing_footprints_fall_back_to_serial() {
        let program = racy_program();
        let mut recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        recording.footprints = None;
        let replayer = ParallelReplayer::new(&program, &recording, 4).unwrap();
        assert!(replayer.fallback_reason().unwrap().contains("no footprint sidecar"));
        let outcome = replayer.run().unwrap();
        outcome.verify_against(&recording).unwrap();
    }

    #[test]
    fn partial_footprints_fall_back_to_serial() {
        let program = racy_program();
        let mut recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        // Keep a strict prefix of the footprints, as a torn sidecar would.
        let full = recording.footprints.take().unwrap();
        let mut prefix = quickrec_core::FootprintLog::new();
        for fp in full.iter().take(full.len() / 2) {
            prefix.push(fp.clone());
        }
        recording.footprints = Some(prefix);
        let replayer = ParallelReplayer::new(&program, &recording, 2).unwrap();
        assert!(replayer.fallback_reason().unwrap().contains("no footprint for"));
        replayer.run().unwrap().verify_against(&recording).unwrap();
    }

    #[test]
    fn zero_jobs_is_rejected() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        assert!(matches!(
            ParallelReplayer::new(&program, &recording, 0),
            Err(QrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn wrong_program_is_rejected() {
        let program = racy_program();
        let recording = record(program, RecordingConfig::with_cores(2)).unwrap();
        let mut other = Asm::new();
        other.halt();
        let other = other.finish().unwrap();
        assert!(matches!(
            ParallelReplayer::new(&other, &recording, 2),
            Err(QrError::ReplayDivergence(_))
        ));
    }

    #[test]
    fn rsw_mode_recordings_replay_in_parallel() {
        let program = racy_program();
        let mut cfg = RecordingConfig::with_cores(2);
        cfg.cpu.mem.tso_mode = TsoMode::Rsw;
        cfg.cpu.drain_interval = 12;
        let recording = record(program.clone(), cfg).unwrap();
        let serial = replay(&program, &recording).unwrap();
        let outcome = replay_parallel_and_verify(&program, &recording, 4).unwrap();
        assert_eq!(outcome.fingerprint, serial.fingerprint);
    }

    #[test]
    fn makespan_is_deterministic_and_bounded() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(4)).unwrap();
        let one = replay_parallel(&program, &recording, 1).unwrap();
        let four_a = replay_parallel(&program, &recording, 4).unwrap();
        let four_b = replay_parallel(&program, &recording, 4).unwrap();
        assert_eq!(four_a.cycles, four_b.cycles, "makespan must not depend on host scheduling");
        assert!(four_a.cycles <= one.cycles, "more workers can only shorten the schedule");
        assert_eq!(four_a.fingerprint, one.fingerprint);
    }
}
