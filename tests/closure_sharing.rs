//! Building a closure costs a reference count, not a copy of its code
//! (DESIGN.md §3).
//!
//! `fun x -> e` evaluates to a closure whose body is the `fun` node's
//! own `Arc<Expr>`. This binary counts heap allocations rather than
//! time, so the check is exact on any host: a loop iteration of a
//! curried `let rec` allocates a fixed number of blocks, however large
//! the function's body is.
//!
//! The allocator counts on the calling thread only, so tests running in
//! parallel threads cannot disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bsml_eval::eval_closed;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` contract is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made on this thread while evaluating `src`.
fn allocs_evaluating(src: &str) -> u64 {
    let e = bsml_syntax::parse(src).expect("parse");
    let before = ALLOCS.with(Cell::get);
    let v = eval_closed(&e, 1).expect("evaluate");
    let after = ALLOCS.with(Cell::get);
    assert_eq!(v.to_string(), "0");
    after - before
}

/// Allocations per iteration of a list-building `let rec` whose base
/// case is `base`: the difference between 2000 and 1000 iterations,
/// so fixed costs cancel.
fn allocs_per_iteration(base: &str) -> u64 {
    let program = |n: u64| {
        format!(
            "let rec build acc j = if j = 0 then {base} else build (j :: acc) (j - 1) in \
             let xs = build [] {n} in 0"
        )
    };
    (allocs_evaluating(&program(2000)) - allocs_evaluating(&program(1000))) / 1000
}

#[test]
fn a_recursive_call_allocates_a_fixed_handful() {
    let plain = allocs_per_iteration("acc");
    assert!(plain <= 16, "{plain} allocations per iteration");
}

#[test]
fn the_size_of_a_body_does_not_change_what_a_call_allocates() {
    let terms: Vec<String> = (0..40).map(|i| i.to_string()).collect();
    let padded = format!("let dead = {} + 0 in acc", terms.join(" + "));
    assert_eq!(allocs_per_iteration(&padded), allocs_per_iteration("acc"));
}
