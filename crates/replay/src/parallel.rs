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
//! input events), by timeline index. Edges, always from earlier to
//! later timestamps (hence acyclic):
//!
//! - **Program order**: consecutive nodes of the same thread.
//! - **Conflicts**: every pair [`quickrec_core::hb::ConflictSweep`]
//!   reports — a node reading line `L` depends on `L`'s last writer,
//!   and a node writing `L` depends on `L`'s last writer and every
//!   reader since (RAW, WAW, WAR edges at cache-line granularity). The
//!   partial-order recorder reduces the same pairs into `order.qrp`.
//! - **Mapping**: a node that maps memory (a successful `SYS_SPAWN`,
//!   which maps the child's stack, or `SYS_SBRK`) precedes each other
//!   thread's first node after it ([`add_mapping_edges`]). Mapping is
//!   not a footprint conflict, yet an access to a page must not run
//!   before the page exists. A spawned child's first node is one of
//!   these.
//!
//! Footprints are record-time evidence: only a fresh recording carries
//! its [`quickrec_core::FootprintLog`], and nothing persists it. A
//! recording without complete footprint coverage (any loaded, fetched,
//! migrated or salvaged one) is refused with
//! [`QrError::InvalidConfig`], as [`Recording::derive_order`] refuses
//! it; replay it with the serial [`Replayer`] instead.
//!
//! # Execution model
//!
//! The schedule is an execution order, not a second execution host.
//! `jobs` is a count of *simulated* workers; every node executes on the
//! caller's thread, on the serial [`Replayer`]'s one machine: timeline
//! entry `idx` of thread `tid` runs on core `tid` through the same
//! event step serial replay uses, and the core's cycle delta is the
//! node's cost. Each thread keeps its own core and store buffer, so TSO
//! reproduction stays exact, and every conflicting predecessor has
//! executed before a node runs (there is an edge), so its loads observe
//! exactly the bytes serial replay's would.
//!
//! Nodes run in the order of a greedy event-driven list schedule onto
//! `jobs` workers: the ready node with the earliest (ready time,
//! timeline index) dispatches to the earliest-free worker and executes
//! there and then, its cost setting its finish time. Console bytes are
//! reassembled in timeline order. The reported
//! [`ReplayOutcome::cycles`] is the schedule's makespan: it depends only
//! on the recording and `jobs`, never on the host, keeping experiment
//! output byte-stable. One worker runs every node back to back, so its
//! makespan is the serial replay's cycles. The same loop is the DAG's
//! cycle check — a node never dispatched sits on or behind a cycle,
//! which only a corrupt recorded order log ([`crate::order`]) can
//! contain.

use crate::outcome::ReplayOutcome;
use crate::replayer::Replayer;
use qr_capo::{InputEvent, Recording, TimelineEntry, TimelineEvent};
use qr_common::{QrError, Result, ThreadId};
use qr_isa::{abi, Program};
use quickrec_core::hb::ConflictSweep;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Replays `recording` of `program` scheduled onto `jobs` simulated
/// workers and verifies the outcome against the recording.
///
/// # Errors
///
/// See [`ParallelReplayer::new`]; otherwise the same errors as serial
/// [`crate::replay_and_verify`].
pub fn replay_parallel_and_verify(
    program: &Program,
    recording: &Recording,
    jobs: usize,
) -> Result<ReplayOutcome> {
    let outcome = ParallelReplayer::new(program, recording, jobs)?.run()?;
    outcome.verify_against(recording)?;
    Ok(outcome)
}

/// Refuses a schedule onto no workers.
pub(crate) fn check_jobs(jobs: usize) -> Result<()> {
    if jobs == 0 {
        return Err(QrError::InvalidConfig("replay needs at least one job".into()));
    }
    Ok(())
}

/// The dependency DAG over the merged timeline: edges between timeline
/// indices.
#[derive(Debug)]
pub(crate) struct Dag {
    /// Direct predecessors of each node (deduplicated, ascending).
    preds: Vec<Vec<usize>>,
    /// Direct successors of each node.
    succs: Vec<Vec<usize>>,
}

impl Dag {
    /// Links the timeline under the given predecessor lists, which may
    /// repeat an edge.
    pub(crate) fn new(mut preds: Vec<Vec<usize>>) -> Dag {
        let mut succs = vec![Vec::new(); preds.len()];
        for (idx, p) in preds.iter_mut().enumerate() {
            p.sort_unstable();
            p.dedup();
            for &pred in p.iter() {
                succs[pred].push(idx);
            }
        }
        Dag { preds, succs }
    }

    fn edge_count(&self) -> usize {
        self.preds.iter().map(Vec::len).sum()
    }

    /// Executes the timeline on `replayer` in greedy list-schedule order
    /// onto `jobs` simulated workers (module docs) and reports the
    /// schedule's makespan as the outcome's cycles.
    ///
    /// # Errors
    ///
    /// The first node's divergence in schedule order, or
    /// [`QrError::Corrupt`] when nodes are left undispatched (a cycle).
    pub(crate) fn schedule(&self, mut replayer: Replayer<'_>, jobs: usize) -> Result<ReplayOutcome> {
        let total = self.preds.len();
        let mut indegree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut ready_at = vec![0u64; total];
        let mut ready: BinaryHeap<Reverse<(u64, usize)>> =
            (0..total).filter(|&i| indegree[i] == 0).map(|i| Reverse((0, i))).collect();
        // With a worker per node one is always idle: more change nothing.
        let mut workers: BinaryHeap<Reverse<u64>> = (0..jobs.min(total)).map(|_| Reverse(0)).collect();
        let mut consoles = BTreeMap::new();
        let (mut makespan, mut dispatched) = (0u64, 0usize);
        while let Some(Reverse((at, idx))) = ready.pop() {
            let Reverse(free_at) = workers.pop().expect("jobs >= 1");
            let (cost, console) = replayer.exec_scheduled(idx)?;
            if !console.is_empty() {
                consoles.insert(idx, console);
            }
            let finish = at.max(free_at) + cost;
            dispatched += 1;
            makespan = makespan.max(finish);
            workers.push(Reverse(finish));
            for &succ in &self.succs[idx] {
                ready_at[succ] = ready_at[succ].max(finish);
                indegree[succ] -= 1;
                if indegree[succ] == 0 {
                    ready.push(Reverse((ready_at[succ], succ)));
                }
            }
        }
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
        replayer.finish_scheduled(consoles.into_values().flatten().collect(), makespan)
    }
}

/// A parallel replay in preparation.
///
/// Construction builds the chunk dependency DAG from the recording's
/// footprints, and refuses a recording whose footprints do not cover
/// its whole timeline; [`ParallelReplayer::run`] executes the timeline
/// in that DAG's list-schedule order onto `jobs` simulated workers.
#[derive(Debug)]
pub struct ParallelReplayer<'a> {
    replayer: Replayer<'a>,
    jobs: usize,
    dag: Dag,
}

impl<'a> ParallelReplayer<'a> {
    /// Prepares a parallel replay scheduled onto `jobs` simulated workers.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] for `jobs == 0` or a recording
    /// without the footprints of a fresh recording for every timeline
    /// event, [`QrError::ReplayDivergence`] if the program does not match
    /// the recording, and log-format errors for malformed chunk logs.
    pub fn new(program: &'a Program, recording: &'a Recording, jobs: usize) -> Result<ParallelReplayer<'a>> {
        check_jobs(jobs)?;
        ParallelReplayer::over(recording, Replayer::new(program, recording)?, jobs)
    }

    /// [`ParallelReplayer::new`] on the recording's cache and bus model,
    /// as [`Replayer::modelled`] is: the makespan E9b reports.
    ///
    /// # Errors
    ///
    /// See [`ParallelReplayer::new`].
    pub fn modelled(program: &'a Program, recording: &'a Recording, jobs: usize) -> Result<ParallelReplayer<'a>> {
        check_jobs(jobs)?;
        ParallelReplayer::over(recording, Replayer::modelled(program, recording)?, jobs)
    }

    fn over(recording: &Recording, replayer: Replayer<'a>, jobs: usize) -> Result<ParallelReplayer<'a>> {
        if recording.footprints.is_none() {
            return Err(needs_footprints("the recording carries none"));
        }
        let dag = conflict_dag(replayer.timeline())?;
        Ok(ParallelReplayer { replayer, jobs, dag })
    }

    /// Number of timeline nodes in the dependency DAG.
    pub fn node_count(&self) -> usize {
        self.dag.preds.len()
    }

    /// Number of dependency edges in the DAG.
    pub fn edge_count(&self) -> usize {
        self.dag.edge_count()
    }

    /// Runs the replay to completion.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::ReplayDivergence`] on any mismatch, like the
    /// serial replayer.
    pub fn run(self) -> Result<ReplayOutcome> {
        self.dag.schedule(self.replayer, self.jobs)
    }
}

/// The refusal of a recording without complete footprints.
fn needs_footprints(why: &str) -> QrError {
    QrError::InvalidConfig(format!(
        "the conflict schedule needs the footprints of a fresh recording ({why})"
    ))
}

/// Builds the dependency DAG: per-thread program order, every
/// conflicting pair the shared sweep reports, and the mapping rule.
///
/// # Errors
///
/// [`QrError::InvalidConfig`] naming the first event the footprint log
/// does not cover.
fn conflict_dag(timeline: &[TimelineEntry<'_>]) -> Result<Dag> {
    let mut preds: Vec<Vec<usize>> = Vec::with_capacity(timeline.len());
    let mut sweep = ConflictSweep::new();
    let mut last_of_tid: HashMap<ThreadId, usize> = HashMap::new();
    for (idx, entry) in timeline.iter().enumerate() {
        let mut p: Vec<usize> = last_of_tid.insert(entry.event.tid(), idx).into_iter().collect();
        // Signal deliveries touch registers only: program order suffices.
        if !matches!(entry.event, TimelineEvent::Input(InputEvent::Signal { .. })) {
            let Some(fp) = entry.footprint else {
                let ts = entry.event.ts().0;
                return Err(needs_footprints(&format!("none for timeline timestamp {ts}")));
            };
            sweep.visit(idx, fp, |pred| p.push(pred));
        }
        preds.push(p);
    }
    add_mapping_edges(timeline, &mut preds);
    Ok(Dag::new(preds))
}

/// The mapping rule both DAG builders apply: every node whose event
/// maps memory — a successful `SYS_SPAWN` (the child's stack) or
/// `SYS_SBRK` (more heap) record — precedes each other thread's first
/// node after it in timestamp order. No footprint conflict orders an
/// access after the mapping of its page, and on the one replay machine
/// an access to a page not yet mapped faults.
pub(crate) fn add_mapping_edges(timeline: &[TimelineEntry<'_>], preds: &mut [Vec<usize>]) {
    let mut maps: Vec<usize> = Vec::new();
    // Per thread, how many of `maps` already precede its latest node.
    let mut ordered: HashMap<ThreadId, usize> = HashMap::new();
    for (idx, entry) in timeline.iter().enumerate() {
        let tid = entry.event.tid();
        let since = ordered.insert(tid, maps.len()).unwrap_or(0);
        preds[idx].extend(maps[since..].iter().filter(|&&m| timeline[m].event.tid() != tid));
        if maps_memory(&entry.event) {
            maps.push(idx);
        }
    }
}

fn maps_memory(event: &TimelineEvent<'_>) -> bool {
    match event {
        TimelineEvent::Input(InputEvent::Syscall { record, .. }) => {
            matches!(record.number, abi::SYS_SPAWN | abi::SYS_SBRK)
                && record.result != qr_os::kernel::EFAULT
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::replay_ordered_and_verify;
    use crate::replayer::replay;
    use crate::testutil::{racy_program, sys};
    use qr_capo::{record, RecordingConfig};
    use qr_isa::program::{DATA_BASE, STACK_TOP};
    use qr_isa::{Asm, Reg};
    use qr_mem::TsoMode;
    use quickrec_core::OrderMode;

    #[test]
    fn parallel_matches_serial_on_the_racy_counter() {
        let program = racy_program();
        let recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        let serial = replay(&program, &recording).unwrap();
        for jobs in [1, 2, 4] {
            let replayer = ParallelReplayer::new(&program, &recording, jobs).unwrap();
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

    /// Asserts that both constructors refuse `recording` by name.
    fn assert_refused(program: &Program, recording: &Recording, detail: &str) {
        for refused in [
            ParallelReplayer::new(program, recording, 2).map(drop),
            ParallelReplayer::modelled(program, recording, 2).map(drop),
        ] {
            match refused {
                Err(QrError::InvalidConfig(why)) => {
                    assert!(why.contains("needs the footprints of a fresh recording"), "{why}");
                    assert!(why.contains(detail), "{why}");
                }
                other => panic!("expected a refusal naming the footprints, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_footprints_are_refused() {
        let program = racy_program();
        let mut recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        recording.footprints = None;
        assert_refused(&program, &recording, "the recording carries none");
    }

    #[test]
    fn partial_footprints_are_refused() {
        let program = racy_program();
        let mut recording = record(program.clone(), RecordingConfig::with_cores(2)).unwrap();
        // Keep a strict prefix of the footprints.
        let full = recording.footprints.take().unwrap();
        let mut prefix = quickrec_core::FootprintLog::new();
        for fp in full.iter().take(full.len() / 2) {
            prefix.push(fp.clone());
        }
        recording.footprints = Some(prefix);
        assert_refused(&program, &recording, "none for timeline timestamp");
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
        let one = replay_parallel_and_verify(&program, &recording, 1).unwrap();
        let four_a = replay_parallel_and_verify(&program, &recording, 4).unwrap();
        let four_b = replay_parallel_and_verify(&program, &recording, 4).unwrap();
        assert_eq!(four_a.cycles, four_b.cycles, "makespan must not depend on host scheduling");
        assert!(four_a.cycles <= one.cycles, "more workers can only shorten the schedule");
        assert_eq!(four_a.fingerprint, one.fingerprint);
    }

    /// Spins on registers long enough for the other threads to run,
    /// then loads the word at `addr` and exits with it.
    fn spin_then_load(a: &mut Asm, label: &str, addr: u32) {
        a.label(label);
        a.movi(Reg::R8, 2000);
        a.label(&format!("{label}_spin"));
        a.addi(Reg::R8, Reg::R8, -1);
        a.bnez(Reg::R8, &format!("{label}_spin"));
        a.movi_u(Reg::R5, addr);
        a.ld(Reg::R1, Reg::R5, 0);
        sys(a, abi::SYS_EXIT, |_| {});
    }

    /// Thread 1 reads a heap word that main's `sbrk` maps while thread 1
    /// spins. Nobody writes the page, so no conflict edge orders the
    /// read after the `sbrk`.
    fn reads_a_heap_page_mapped_by_another_thread() -> Program {
        let mut a = Asm::new();
        sys(&mut a, abi::SYS_SPAWN, |a| {
            a.movi_sym(Reg::R1, "reader");
            a.movi(Reg::R2, 0);
        });
        a.mov(Reg::R6, Reg::R0);
        sys(&mut a, abi::SYS_SBRK, |a| {
            a.movi(Reg::R1, 4096);
        });
        sys(&mut a, abi::SYS_JOIN, |a| {
            a.mov(Reg::R1, Reg::R6);
        });
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi(Reg::R1, 0);
        });
        spin_then_load(&mut a, "reader", DATA_BASE + 0x40);
        let program = a.finish().unwrap();
        // No data: the heap starts at the data base.
        assert_eq!(program.initial_brk().0, DATA_BASE);
        program
    }

    /// Thread 1 reads a word of thread 2's stack, which main's second
    /// spawn maps while thread 1 spins. Thread 2 never touches it.
    fn reads_a_stack_mapped_by_a_later_spawn() -> Program {
        let os = RecordingConfig::with_cores(2).os;
        let tid2_stack_base = STACK_TOP - 2 * (os.stack_bytes + os.stack_guard_bytes) - os.stack_bytes;
        let mut a = Asm::new();
        for (child, save) in [("reader", Reg::R6), ("idle", Reg::R7)] {
            sys(&mut a, abi::SYS_SPAWN, |a| {
                a.movi_sym(Reg::R1, child);
                a.movi(Reg::R2, 0);
            });
            a.mov(save, Reg::R0);
        }
        for tid in [Reg::R6, Reg::R7] {
            sys(&mut a, abi::SYS_JOIN, |a| {
                a.mov(Reg::R1, tid);
            });
        }
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi(Reg::R1, 0);
        });
        spin_then_load(&mut a, "reader", tid2_stack_base + 0x40);
        a.label("idle");
        sys(&mut a, abi::SYS_EXIT, |a| {
            a.movi(Reg::R1, 0);
        });
        a.finish().unwrap()
    }

    #[test]
    fn accesses_wait_for_the_mapping_of_their_page() {
        for (shape, program) in [
            ("heap", reads_a_heap_page_mapped_by_another_thread()),
            ("stack", reads_a_stack_mapped_by_a_later_spawn()),
        ] {
            for order in [OrderMode::TotalOrder, OrderMode::PartialOrder] {
                let mut cfg = RecordingConfig::with_cores(2);
                cfg.order = order;
                let recording = record(program.clone(), cfg).unwrap();
                for jobs in [1, 2] {
                    let context = format!("{shape} / {order:?} / {jobs} jobs");
                    let outcome = ParallelReplayer::new(&program, &recording, jobs)
                        .and_then(ParallelReplayer::run)
                        .unwrap_or_else(|e| panic!("{context}: {e}"));
                    outcome.verify_against(&recording).unwrap_or_else(|e| panic!("{context}: {e}"));
                    if order == OrderMode::PartialOrder {
                        replay_ordered_and_verify(&program, &recording, jobs)
                            .unwrap_or_else(|e| panic!("{context} (ordered): {e}"));
                    }
                }
            }
        }
    }
}
