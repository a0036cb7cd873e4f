//! The retire path does not touch the heap.
//!
//! Once the machine's event buffer, the store buffer and the touched
//! memory pages exist, `Machine::step` must run without a single
//! allocation — whatever mix of L1 hits, store-buffer forwards,
//! background drains, misses and dirty evictions the instructions cause.
//! A counting global allocator (armed only on this test's thread, so the
//! harness's own threads do not count) checks exactly that.

use qr_common::CoreId;
use qr_cpu::{CpuConfig, CpuContext, Machine, StepOutcome};
use qr_isa::{Asm, Reg};
use qr_mem::MemConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count_if_armed() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        // SAFETY: `ptr` came from `System` with this layout; the caller
        // vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const C0: CoreId = CoreId(0);

#[test]
fn ten_thousand_warm_steps_allocate_nothing() {
    // `x` and `y` are two lines that share a set of the 2-set,
    // direct-mapped L1 below, so each iteration's `y` load evicts the
    // line the store to `x` just dirtied.
    let mut a = Asm::new();
    a.data_space("buf", 64);
    a.movi_sym(Reg::R1, "buf"); // x
    a.addi(Reg::R5, Reg::R1, 128); // y
    a.movi(Reg::R6, 1_000_000);
    a.label("loop");
    a.ld(Reg::R2, Reg::R1, 0); // miss, or hit right after a drain refilled x
    a.addi(Reg::R2, Reg::R2, 1);
    a.st(Reg::R1, 0, Reg::R2); // buffered
    a.ld(Reg::R3, Reg::R1, 0); // forwarded from the store buffer
    a.ld(Reg::R4, Reg::R1, 4); // same line, not forwarded: L1 hit
    a.ld(Reg::R4, Reg::R5, 0); // conflict miss: evicts x's line
    a.st(Reg::R1, 8, Reg::R4);
    a.st(Reg::R1, 12, Reg::R4);
    a.addi(Reg::R6, Reg::R6, -1);
    a.bnez(Reg::R6, "loop");
    a.halt();
    let program = a.finish().unwrap();
    let entry = program.entry();
    let mem = MemConfig { l1_sets: 2, l1_ways: 1, store_buffer_entries: 2, ..MemConfig::default() };
    let mut m = Machine::new(program, CpuConfig { num_cores: 1, mem, ..CpuConfig::default() }).unwrap();
    m.core_mut(C0).swap_context(Some(CpuContext::new(entry)));

    let step = |m: &mut Machine| assert_eq!(m.step(C0).outcome, StepOutcome::Retired);
    // Warm-up: pages, store buffer and event buffer reach their sizes.
    for _ in 0..1_000 {
        step(&mut m);
    }
    let before = m.mem().stats().cores[0];

    ARMED.with(|armed| armed.set(true));
    for _ in 0..10_000 {
        step(&mut m);
    }
    ARMED.with(|armed| armed.set(false));
    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed), 0, "Machine::step allocated");

    // The window really exercised every path it claims to.
    let after = &m.mem().stats().cores[0];
    let hits = (after.loads - after.load_forwards - after.load_misses)
        - (before.loads - before.load_forwards - before.load_misses);
    assert!(hits > 0, "no L1 load hits");
    assert!(after.load_forwards > before.load_forwards, "no store-buffer forwards");
    assert!(after.drains > before.drains + 2_500, "no background or capacity drains");
    assert!(after.load_misses > before.load_misses, "no misses");
    assert!(after.writebacks > before.writebacks, "no dirty evictions");
    let x = m.program().symbol("buf").unwrap();
    assert!(m.mem().memory().read_uint(x, 4).unwrap() > 1_000, "the loop made progress");
}
