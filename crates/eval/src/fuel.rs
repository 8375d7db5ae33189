//! Shared fuel cells: cooperative, slice-granular preemption for the
//! big-step evaluator.
//!
//! A [`FuelCell`] splits one evaluation's fuel budget between two
//! parties on two threads:
//!
//! * the **evaluator** (via [`Evaluator::with_fuel_cell`]) draws fuel
//!   in grants: when its local fuel runs out it calls
//!   [`FuelCell::request`], which parks the evaluating thread until a
//!   scheduler grants more — or cancels, which surfaces as
//!   [`EvalError::Cancelled`] at the very next tick;
//! * the **scheduler** (a `bsml-serve` worker) calls
//!   [`FuelCell::grant`] to hand out one fuel slice at a time and
//!   [`FuelCell::wait_quiescent`] to learn when the slice has been
//!   fully consumed (the evaluator parked again) or the evaluation
//!   finished.
//!
//! This is what makes a divergent phrase *preemptible* without an
//! async runtime and without killing threads: between grants the
//! evaluation is frozen mid-expression on its own parked thread,
//! holding its whole Rust call stack, and resumes exactly where it
//! stopped when the next grant arrives. Cancellation is cooperative —
//! the evaluator notices at its next fuel tick, which is at most one
//! reduction step away — so a cancelled phrase unwinds promptly and a
//! wall-clock watchdog is only ever a backstop, never the mechanism.
//!
//! [`Evaluator::with_fuel_cell`]: crate::Evaluator::with_fuel_cell

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::error::EvalError;

#[derive(Debug, Default)]
struct CellState {
    /// Fuel granted but not yet drawn by the evaluator.
    fuel: u64,
    /// The evaluator is parked inside [`FuelCell::request`].
    parked: bool,
    /// [`FuelCell::cancel`] was called; the next draw fails.
    cancelled: bool,
    /// [`FuelCell::finish`] was called; no more draws will happen.
    finished: bool,
    /// Total fuel ever drawn by the evaluator (monotone).
    drawn: u64,
}

/// What [`FuelCell::wait_quiescent`] observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quiescence {
    /// The evaluator consumed every granted unit and is parked
    /// waiting for the next slice.
    Parked,
    /// The evaluation finished ([`FuelCell::finish`] was called) —
    /// successfully or not; the result travels out of band.
    Finished,
    /// Neither happened within the timeout: the evaluator is still
    /// burning its slice (or is stuck in a non-ticking state — the
    /// caller's watchdog decides which).
    TimedOut,
}

/// A thread-safe fuel budget shared between one evaluation and one
/// scheduler. See the [module docs](self).
#[derive(Debug, Default)]
pub struct FuelCell {
    state: Mutex<CellState>,
    cv: Condvar,
}

impl FuelCell {
    /// A fresh cell with no fuel: an evaluator attached to it parks at
    /// its first tick until the scheduler grants a slice.
    #[must_use]
    pub fn new() -> Arc<FuelCell> {
        Arc::new(FuelCell::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CellState> {
        // The protected data is plain counters/flags, valid at every
        // instant; a panicking peer must not wedge the scheduler.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `n` fuel units and wakes a parked evaluator.
    pub fn grant(&self, n: u64) {
        let mut s = self.lock();
        s.fuel = s.fuel.saturating_add(n);
        drop(s);
        self.cv.notify_all();
    }

    /// Cancels the evaluation: the evaluator's next draw (at most one
    /// reduction step away) fails with [`EvalError::Cancelled`].
    /// Idempotent.
    pub fn cancel(&self) {
        let mut s = self.lock();
        s.cancelled = true;
        drop(s);
        self.cv.notify_all();
    }

    /// Marks the evaluation finished, waking a scheduler blocked in
    /// [`FuelCell::wait_quiescent`]. Called by the session host once
    /// the evaluation returned (either way). Idempotent.
    pub fn finish(&self) {
        let mut s = self.lock();
        s.finished = true;
        drop(s);
        self.cv.notify_all();
    }

    /// Rearms the cell for the next evaluation: fuel, flags, and the
    /// drawn tally all return to zero. Only call between evaluations.
    pub fn reset(&self) {
        let mut s = self.lock();
        *s = CellState::default();
        drop(s);
        self.cv.notify_all();
    }

    /// Total fuel the evaluator has drawn since the last
    /// [`FuelCell::reset`] — the scheduler's exact spent meter.
    #[must_use]
    pub fn drawn(&self) -> u64 {
        self.lock().drawn
    }

    /// Draws all currently granted fuel, parking the calling thread
    /// until some is available. Called by the evaluator only.
    ///
    /// # Errors
    ///
    /// [`EvalError::Cancelled`] once the cell is cancelled.
    pub fn request(&self) -> Result<u64, EvalError> {
        let mut s = self.lock();
        loop {
            if s.cancelled {
                // Leave `parked` false: a cancelled evaluation is
                // unwinding, not waiting.
                s.parked = false;
                return Err(EvalError::Cancelled);
            }
            if s.fuel > 0 {
                let take = s.fuel;
                s.fuel = 0;
                s.parked = false;
                s.drawn = s.drawn.saturating_add(take);
                return Ok(take);
            }
            s.parked = true;
            self.cv.notify_all(); // wake a scheduler waiting for quiescence
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until the evaluator is parked with zero fuel
    /// outstanding, the evaluation finished, or `timeout` elapsed.
    /// Called by the scheduler after a [`FuelCell::grant`].
    #[must_use]
    pub fn wait_quiescent(&self, timeout: Duration) -> Quiescence {
        let deadline = Instant::now() + timeout;
        let mut s = self.lock();
        loop {
            if s.finished {
                return Quiescence::Finished;
            }
            // Once cancelled, `parked` is transient — the evaluator is
            // about to wake, unwind, and finish. Reporting Parked here
            // would make a scheduler's watchdog misread cooperative
            // cancellation as a wedged host.
            if s.parked && s.fuel == 0 && !s.cancelled {
                return Quiescence::Parked;
            }
            let now = Instant::now();
            if now >= deadline {
                return Quiescence::TimedOut;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            s = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn grant_then_request_hands_over_all_fuel() {
        let cell = FuelCell::new();
        cell.grant(100);
        cell.grant(20);
        assert_eq!(cell.request().unwrap(), 120);
        assert_eq!(cell.drawn(), 120);
    }

    #[test]
    fn request_parks_until_granted() {
        let cell = FuelCell::new();
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || c2.request());
        // The evaluator thread parks; the scheduler observes it.
        assert_eq!(
            cell.wait_quiescent(Duration::from_secs(5)),
            Quiescence::Parked
        );
        cell.grant(7);
        assert_eq!(t.join().unwrap().unwrap(), 7);
    }

    #[test]
    fn cancel_fails_parked_and_future_requests() {
        let cell = FuelCell::new();
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || c2.request());
        assert_eq!(
            cell.wait_quiescent(Duration::from_secs(5)),
            Quiescence::Parked
        );
        cell.cancel();
        assert_eq!(t.join().unwrap(), Err(EvalError::Cancelled));
        // Sticky until reset.
        assert_eq!(cell.request(), Err(EvalError::Cancelled));
        cell.reset();
        cell.grant(1);
        assert_eq!(cell.request().unwrap(), 1);
    }

    #[test]
    fn finish_wakes_quiescence_waiters() {
        let cell = FuelCell::new();
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || {
            // Simulated evaluation: draw, "work", finish.
            c2.grant(5);
            let _ = c2.request().unwrap();
            c2.finish();
        });
        assert_eq!(
            cell.wait_quiescent(Duration::from_secs(5)),
            Quiescence::Finished
        );
        t.join().unwrap();
    }

    #[test]
    fn wait_quiescent_times_out_when_nothing_happens() {
        let cell = FuelCell::new();
        cell.grant(10); // outstanding fuel, nobody drawing
        assert_eq!(
            cell.wait_quiescent(Duration::from_millis(10)),
            Quiescence::TimedOut
        );
    }

    #[test]
    fn cancel_of_a_parked_evaluator_waits_for_finish_not_parked() {
        let cell = FuelCell::new();
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || {
            // Simulated host: park for fuel, observe cancellation,
            // unwind "slowly", then report finished.
            let r = c2.request();
            assert_eq!(r, Err(EvalError::Cancelled));
            thread::sleep(Duration::from_millis(50));
            c2.finish();
        });
        assert_eq!(
            cell.wait_quiescent(Duration::from_secs(5)),
            Quiescence::Parked
        );
        cell.cancel();
        // The cancelled-but-not-yet-finished window must read as
        // "still working", never as Parked — the watchdog would
        // otherwise abandon a host that is unwinding cooperatively.
        assert_eq!(
            cell.wait_quiescent(Duration::from_secs(5)),
            Quiescence::Finished
        );
        t.join().unwrap();
    }

    #[test]
    fn reset_clears_the_drawn_meter() {
        let cell = FuelCell::new();
        cell.grant(3);
        let _ = cell.request().unwrap();
        assert_eq!(cell.drawn(), 3);
        cell.reset();
        assert_eq!(cell.drawn(), 0);
    }
}
