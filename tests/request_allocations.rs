//! A request costs what it does, not what the tenant holds.
//!
//! A session rolls a request back through the undo trail that the `:=`
//! rule fills, so opening, committing and rolling back a transaction
//! walk none of the session's values. This binary counts heap
//! allocations rather than time, so the check is exact on any host:
//! the same requests allocate the same number of blocks whether the
//! tenant holds a 1,000-element list or a 10,000-element one, and
//! whether it has bound no function or 10,000 of them: the typing
//! environment rolls back through a log of the schemes each binding
//! replaced, and counts its variables instead of walking its schemes.
//! Toplevel bindings go into the typing environment in place, so
//! loading them, and decoding their snapshot, allocate in proportion to
//! their number.
//!
//! The allocator counts on the calling thread only, so tests running in
//! parallel threads cannot disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bsml_bsp::BspParams;
use bsml_core::{Session, SessionSnapshot};

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

/// A tenant holding a cell and the toplevel list `[1; …; n]`.
fn tenant(n: u64) -> Session {
    let mut s = Session::new(BspParams::new(2, 1, 10));
    s.load("let rec range acc n = if n = 0 then acc else range (n :: acc) (n - 1)")
        .expect("load");
    s.load(&format!("let xs = range [] {n} ;; let r = ref 0"))
        .expect("load");
    s
}

/// Heap allocations made on this thread by one committed request and
/// one that fails and rolls back.
fn allocs_per_request(s: &mut Session) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let tx = s.begin();
    s.load("let y = !r + 1 ;; let u = r := y").expect("load");
    s.commit(tx);
    let tx = s.begin();
    let events = s.load("let z = r := 5 ;; let bad = 1 / 0").expect("load");
    assert!(events[1].is_failure());
    s.rollback(tx);
    let after = ALLOCS.with(Cell::get);
    let events = s.load("!r").expect("load");
    assert_eq!(events[0].value().expect("value").to_string(), "1");
    after - before
}

#[test]
fn a_request_allocates_the_same_whatever_the_tenant_holds() {
    let small = allocs_per_request(&mut tenant(1_000));
    let large = allocs_per_request(&mut tenant(10_000));
    assert_eq!(small, large);
}

/// A tenant holding `r`, `y`, `u` and `z`, so the request's names are
/// bound beforehand, and `k` polymorphic functions, loaded 500 per
/// `load`.
fn tenant_with_functions(k: usize) -> Session {
    let mut s = Session::new(BspParams::new(2, 1, 10));
    s.load("let r = ref 0 ;; let y = 0 ;; let u = () ;; let z = ()")
        .expect("load");
    for first in (0..k).step_by(500) {
        let source: Vec<String> = (first..k.min(first + 500))
            .map(|j| format!("let f{j} x = x"))
            .collect();
        s.load(&source.join(" ;; ")).expect("load");
    }
    s
}

#[test]
fn a_request_allocates_the_same_whatever_the_tenant_has_bound() {
    let none = allocs_per_request(&mut tenant_with_functions(0));
    let many = allocs_per_request(&mut tenant_with_functions(10_000));
    assert_eq!(none, many);
}

/// Heap allocations of one `load` of `n` toplevel functions, and of
/// decoding the session's snapshot after it.
fn allocs_to_load_and_decode(n: usize) -> (u64, u64) {
    let source: Vec<String> = (0..n).map(|k| format!("let f{k} x = x + {k}")).collect();
    let source = source.join(" ;; ");
    let mut s = Session::new(BspParams::new(2, 1, 10));
    let before = ALLOCS.with(Cell::get);
    s.load(&source).expect("load");
    let load = ALLOCS.with(Cell::get) - before;
    let bytes = s.snapshot().to_bytes();
    let before = ALLOCS.with(Cell::get);
    let snapshot = SessionSnapshot::from_bytes(&bytes).expect("decode");
    let decode = ALLOCS.with(Cell::get) - before;
    assert_eq!(snapshot.len(), n);
    (load, decode)
}

#[test]
fn toplevel_bindings_allocate_in_proportion_to_their_number() {
    let (load_1k, decode_1k) = allocs_to_load_and_decode(1_000);
    let (load_2k, decode_2k) = allocs_to_load_and_decode(2_000);
    // Twice the bindings, at most 2.1 times the allocations (a copy of
    // the environment per binding made both about 4 times).
    assert!(load_2k * 10 <= load_1k * 21, "load: {load_1k} -> {load_2k}");
    assert!(
        decode_2k * 10 <= decode_1k * 21,
        "decode: {decode_1k} -> {decode_2k}"
    );
}
