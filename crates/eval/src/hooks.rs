//! Instrumentation hooks for the big-step evaluator.
//!
//! The BSP simulator (`bsml-bsp`) implements [`EvalHooks`] to charge
//! local work to the right processor and to account communication and
//! synchronization at `put` / `if‥at‥` — the three cost terms
//! `W + H·g + S·l` of the BSP model (paper §2).

use crate::value::Value;

/// Where a reduction step is happening.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Replicated global evaluation: every processor performs this
    /// work (BSML programs are SPMD — global expressions are evaluated
    /// identically everywhere).
    Global,
    /// Asynchronous local evaluation inside the component of a
    /// parallel vector held by this processor.
    OnProc(usize),
}

/// Callbacks invoked by [`crate::bigstep::Evaluator`].
///
/// All methods have no-op defaults; implement only what you need.
pub trait EvalHooks {
    /// One elementary reduction step was performed in `mode`.
    fn on_step(&mut self, mode: Mode) {
        let _ = mode;
    }

    /// `put` exchanged messages: `messages[j][i]` is what process `j`
    /// sends to process `i` (`Value::NoComm` for "nothing"). Called
    /// once per `put`, *before* the barrier; the callee is expected to
    /// account one superstep.
    fn on_put(&mut self, messages: &[Vec<Value>]) {
        let _ = messages;
    }

    /// `if‥at‥` synchronized on the boolean at process `at`.
    /// One superstep: the boolean is broadcast (a `(p−1)`-relation of
    /// one word) and a barrier occurs.
    fn on_ifat(&mut self, at: usize, chosen: bool) {
        let _ = (at, chosen);
    }

    /// A parallel vector was created by `mkpar` or transformed by
    /// `apply` (purely asynchronous — no communication).
    fn on_async_parallel(&mut self) {}
}

/// The do-nothing hooks used when no instrumentation is wanted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoHooks;

impl EvalHooks for NoHooks {}

/// Hooks that simply count reduction steps, splitting global from
/// per-processor work. Handy in tests and benchmarks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CountingHooks {
    /// Steps performed in [`Mode::Global`].
    pub global_steps: u64,
    /// Steps performed on each processor.
    pub local_steps: Vec<u64>,
    /// Number of `put` barriers.
    pub puts: u64,
    /// Number of `if‥at‥` barriers.
    pub ifats: u64,
    /// Number of asynchronous parallel operations (`mkpar` / `apply`).
    pub async_ops: u64,
}

impl CountingHooks {
    /// Counting hooks for a machine of `p` processors.
    #[must_use]
    pub fn new(p: usize) -> CountingHooks {
        CountingHooks {
            global_steps: 0,
            local_steps: vec![0; p],
            puts: 0,
            ifats: 0,
            async_ops: 0,
        }
    }

    /// Total number of synchronization barriers observed.
    #[must_use]
    pub fn supersteps(&self) -> u64 {
        self.puts + self.ifats
    }
}

impl EvalHooks for CountingHooks {
    fn on_step(&mut self, mode: Mode) {
        match mode {
            Mode::Global => self.global_steps += 1,
            Mode::OnProc(i) => {
                if let Some(slot) = self.local_steps.get_mut(i) {
                    *slot += 1;
                }
            }
        }
    }

    fn on_put(&mut self, _messages: &[Vec<Value>]) {
        self.puts += 1;
    }

    fn on_ifat(&mut self, _at: usize, _chosen: bool) {
        self.ifats += 1;
    }

    fn on_async_parallel(&mut self) {
        self.async_ops += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_hooks_accumulate() {
        let mut h = CountingHooks::new(2);
        h.on_step(Mode::Global);
        h.on_step(Mode::OnProc(1));
        h.on_step(Mode::OnProc(1));
        h.on_put(&[]);
        h.on_ifat(0, true);
        assert_eq!(h.global_steps, 1);
        assert_eq!(h.local_steps, vec![0, 2]);
        assert_eq!(h.supersteps(), 2);
    }

    #[test]
    fn counting_hooks_count_async_ops() {
        let mut h = CountingHooks::new(2);
        h.on_async_parallel();
        h.on_async_parallel();
        assert_eq!(h.async_ops, 2);
        // Async ops are communication-free: no superstep is charged.
        assert_eq!(h.supersteps(), 0);
    }

    #[test]
    fn out_of_range_proc_is_ignored() {
        let mut h = CountingHooks::new(1);
        h.on_step(Mode::OnProc(5));
        assert_eq!(h.local_steps, vec![0]);
    }

    #[test]
    fn no_hooks_is_a_unit() {
        let mut h = NoHooks;
        h.on_step(Mode::Global);
        h.on_put(&[]);
        h.on_ifat(0, false);
        h.on_async_parallel();
    }
}
