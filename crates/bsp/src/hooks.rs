//! The cost-charging [`EvalHooks`] implementation.

use bsml_eval::{EvalHooks, Mode, Value};
use bsml_obs::Telemetry;

use crate::cost::{Barrier, SuperstepRecord};

/// Evaluator hooks that segment execution into supersteps and measure
/// `w_i`, `h_i⁺`, `h_i⁻` per processor.
///
/// Global (replicated) reduction steps charge one unit of work to
/// *every* processor — BSML is SPMD: each processor evaluates the
/// global expression identically (paper §2). Local steps inside a
/// vector component charge only that component's processor. Each step
/// is counted once, a global one on one counter and a local one on its
/// processor's, and a superstep's `w_i` is formed as global plus
/// local when it closes.
#[derive(Clone, Debug)]
pub struct BspCostHooks {
    p: usize,
    /// Global steps of the open superstep.
    global: u64,
    /// The open superstep; its `work` holds local steps only.
    current: SuperstepRecord,
    finished: Vec<SuperstepRecord>,
    /// Global and local steps of the closed supersteps.
    global_steps: u64,
    local_steps: u64,
    /// `mkpar` and `apply` operations.
    async_ops: u64,
}

impl BspCostHooks {
    /// Hooks for a `p`-processor machine.
    #[must_use]
    pub fn new(p: usize) -> BspCostHooks {
        BspCostHooks {
            p,
            global: 0,
            current: fresh_record(p),
            finished: Vec::new(),
            global_steps: 0,
            local_steps: 0,
            async_ops: 0,
        }
    }

    /// Closes the trailing (barrier-free) superstep and returns the
    /// full trace.
    #[must_use]
    pub fn finish(mut self) -> Vec<SuperstepRecord> {
        self.close_superstep(Barrier::ProgramEnd);
        self.finished
    }

    /// Adds the run so far to the `eval.*` counters that
    /// [`crate::BspMachine::with_telemetry`] lists, skipping zero
    /// counts.
    pub(crate) fn add_eval_counters(&self, telemetry: &Telemetry) {
        let global = self.global_steps + self.global;
        let local = self.local_steps + self.current.work.iter().sum::<u64>();
        let (mut puts, mut ifats, mut put_words) = (0, 0, 0);
        for rec in &self.finished {
            match rec.barrier {
                Barrier::Put => {
                    puts += 1;
                    put_words += rec.sent.iter().sum::<u64>();
                }
                Barrier::IfAt => ifats += 1,
                Barrier::ProgramEnd => {}
            }
        }
        for (name, value) in [
            ("eval.fuel_ticks", global + local),
            ("eval.steps.global", global),
            ("eval.steps.local", local),
            ("eval.puts", puts),
            ("eval.ifats", ifats),
            ("eval.async_ops", self.async_ops),
            ("eval.put_words", put_words),
        ] {
            if value > 0 {
                telemetry.counter_add(name, value);
            }
        }
    }

    fn close_superstep(&mut self, barrier: Barrier) {
        let mut done = std::mem::replace(&mut self.current, fresh_record(self.p));
        self.global_steps += self.global;
        for w in &mut done.work {
            self.local_steps += *w;
            *w += self.global;
        }
        self.global = 0;
        done.barrier = barrier;
        self.finished.push(done);
    }
}

fn fresh_record(p: usize) -> SuperstepRecord {
    SuperstepRecord {
        work: vec![0; p],
        sent: vec![0; p],
        received: vec![0; p],
        barrier: Barrier::ProgramEnd,
    }
}

impl EvalHooks for BspCostHooks {
    fn on_step(&mut self, mode: Mode) {
        match mode {
            // Replicated global work, charged to every processor when
            // the superstep closes.
            Mode::Global => self.global += 1,
            Mode::OnProc(i) => {
                if let Some(w) = self.current.work.get_mut(i) {
                    *w += 1;
                }
            }
        }
    }

    fn on_put(&mut self, messages: &[Vec<Value>]) {
        // messages[j][i] is what j sends to i; self-messages stay in
        // local memory and do not count toward the h-relation.
        for (j, row) in messages.iter().enumerate() {
            for (i, v) in row.iter().enumerate() {
                if i == j {
                    continue;
                }
                let words = v.size_in_words();
                if words == 0 {
                    continue;
                }
                if let Some(out) = self.current.sent.get_mut(j) {
                    *out += words;
                }
                if let Some(inn) = self.current.received.get_mut(i) {
                    *inn += words;
                }
            }
        }
        self.close_superstep(Barrier::Put);
    }

    fn on_ifat(&mut self, at: usize, _chosen: bool) {
        // The deciding boolean (one word) is broadcast from `at` to
        // the other p−1 processors before the barrier.
        if let Some(out) = self.current.sent.get_mut(at) {
            *out += (self.p - 1) as u64;
        }
        for i in 0..self.p {
            if i != at {
                if let Some(inn) = self.current.received.get_mut(i) {
                    *inn += 1;
                }
            }
        }
        self.close_superstep(Barrier::IfAt);
    }

    fn on_async_parallel(&mut self) {
        self.async_ops += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_steps_charge_everyone() {
        let mut h = BspCostHooks::new(3);
        h.on_step(Mode::Global);
        h.on_step(Mode::OnProc(1));
        let trace = h.finish();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].work, vec![1, 2, 1]);
        assert_eq!(trace[0].barrier, Barrier::ProgramEnd);
    }

    #[test]
    fn put_measures_words_and_skips_self_and_nc() {
        let mut h = BspCostHooks::new(2);
        // proc 0 sends an int to proc 1; proc 1 sends nothing.
        let messages = vec![
            vec![Value::Int(7), Value::Int(9)],
            vec![Value::NoComm, Value::NoComm],
        ];
        h.on_put(&messages);
        let trace = h.finish();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].sent, vec![1, 0]); // self-message excluded
        assert_eq!(trace[0].received, vec![0, 1]);
        assert_eq!(trace[0].barrier, Barrier::Put);
    }

    #[test]
    fn ifat_broadcasts_one_word() {
        let mut h = BspCostHooks::new(4);
        h.on_ifat(2, true);
        let trace = h.finish();
        assert_eq!(trace[0].sent, vec![0, 0, 3, 0]);
        assert_eq!(trace[0].received, vec![1, 1, 0, 1]);
        assert_eq!(trace[0].barrier, Barrier::IfAt);
        assert_eq!(trace[0].max_h(), 3);
    }

    #[test]
    fn work_resets_per_superstep() {
        let mut h = BspCostHooks::new(1);
        h.on_step(Mode::Global);
        h.on_put(&[vec![Value::NoComm]]);
        h.on_step(Mode::Global);
        h.on_step(Mode::Global);
        let trace = h.finish();
        assert_eq!(trace[0].work, vec![1]);
        assert_eq!(trace[1].work, vec![2]);
    }
}
