//! Closed-form BSP costs for the standard-library algorithms, the
//! paper's equation (1) first.
//!
//! The experiments in `EXPERIMENTS.md` compare these predictions with
//! the costs *measured* by the simulator. Work terms are stated in
//! the paper's abstract units (one unit per elementary local
//! operation); absolute `W` never matches evaluator step counts, but
//! the communication (`H`) and synchronization (`S`) terms are exact.

use crate::cost::Cost;

/// Equation (1): direct broadcast of a value of `s` words from one
/// process to the `p−1` others,
/// `p + (p−1)·s·g + l`.
#[must_use]
pub fn bcast_direct(p: usize, s: u64) -> Cost {
    Cost::new(p as u64, (p as u64 - 1) * s, 1)
}

/// Binary-tree broadcast: `⌈log₂ p⌉` supersteps; in step `k` every
/// holder forwards one copy, so `h = s` per step:
/// `log p + s·⌈log₂ p⌉·g + ⌈log₂ p⌉·l`.
#[must_use]
pub fn bcast_log(p: usize, s: u64) -> Cost {
    let rounds = ceil_log2(p);
    Cost::new(rounds, s * rounds, rounds)
}

/// Two-phase broadcast (scatter then all-gather), the classic
/// BSP-optimal broadcast for large `s`:
/// `2·(p−1)·⌈s/p⌉·g + 2·l` communication.
#[must_use]
pub fn bcast_two_phase(p: usize, s: u64) -> Cost {
    let p64 = p as u64;
    let piece = s.div_ceil(p64);
    Cost::new(2 * p64, 2 * (p64 - 1) * piece, 2)
}

/// Total exchange (`put` where everyone sends `s` words to everyone
/// else): one superstep of an `(p−1)·s`-relation.
#[must_use]
pub fn total_exchange(p: usize, s: u64) -> Cost {
    Cost::new(p as u64, (p as u64 - 1) * s, 1)
}

/// One-step shift (each processor sends `s` words to its right
/// neighbour): a 1-relation superstep.
#[must_use]
pub fn shift(p: usize, s: u64) -> Cost {
    let h = if p > 1 { s } else { 0 };
    Cost::new(1, h, u64::from(p > 1))
}

/// `⌈log₂ p⌉` (0 for `p ≤ 1`).
#[must_use]
pub fn ceil_log2(p: usize) -> u64 {
    if p <= 1 {
        0
    } else {
        u64::from(usize::BITS - (p - 1).leading_zeros())
    }
}

/// The message size above which the two-phase broadcast beats the
/// direct one on a machine `(p, g, l)` — the crossover the paper's
/// cost model predicts. Returns `None` when two-phase never wins
/// (e.g. `p < 3` or `l` dominating for all `s ≤ cap`).
#[must_use]
pub fn bcast_crossover(p: usize, g: u64, l: u64, cap: u64) -> Option<u64> {
    (1..=cap).find(|&s| bcast_two_phase(p, s).time_gl(g, l) < bcast_direct(p, s).time_gl(g, l))
}

impl Cost {
    /// Prices the cost with explicit `g` and `l` (helper for formula
    /// tables that sweep machine parameters).
    #[must_use]
    pub fn time_gl(&self, g: u64, l: u64) -> u64 {
        self.work + self.h_relation * g + self.supersteps * l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn equation_1_shape() {
        // p + (p−1)·s·g + l
        let c = bcast_direct(8, 100);
        assert_eq!(c.work, 8);
        assert_eq!(c.h_relation, 700);
        assert_eq!(c.supersteps, 1);
        assert_eq!(c.time_gl(10, 1000), 8 + 7000 + 1000);
    }

    #[test]
    fn log_bcast_trades_h_for_s() {
        let direct = bcast_direct(64, 1);
        let log = bcast_log(64, 1);
        // Tiny message: direct moves 63 words in 1 superstep, log
        // moves 6 words in 6 supersteps.
        assert_eq!(direct.h_relation, 63);
        assert_eq!(log.h_relation, 6);
        assert_eq!(log.supersteps, 6);
        // With expensive barriers direct wins; with expensive words
        // log wins.
        assert!(direct.time_gl(1, 100_000) < log.time_gl(1, 100_000));
        assert!(log.time_gl(1_000, 1) < direct.time_gl(1_000, 1));
    }

    #[test]
    fn two_phase_beats_direct_for_large_messages() {
        let p = 16;
        let (g, l) = (10, 10_000);
        let s = 100_000;
        assert!(bcast_two_phase(p, s).time_gl(g, l) < bcast_direct(p, s).time_gl(g, l));
        // And loses for tiny messages (pays the extra barrier).
        assert!(bcast_two_phase(p, 1).time_gl(g, l) > bcast_direct(p, 1).time_gl(g, l));
    }

    #[test]
    fn crossover_exists_and_is_consistent() {
        let p = 16;
        let (g, l) = (10, 10_000);
        let s0 = bcast_crossover(p, g, l, 1_000_000).expect("crossover");
        assert!(s0 > 1);
        // Below: direct wins (or ties); above: two-phase wins.
        assert!(bcast_two_phase(p, s0 - 1).time_gl(g, l) >= bcast_direct(p, s0 - 1).time_gl(g, l));
        assert!(bcast_two_phase(p, s0).time_gl(g, l) < bcast_direct(p, s0).time_gl(g, l));
    }

    #[test]
    fn single_processor_communicates_nothing() {
        assert_eq!(bcast_direct(1, 100).h_relation, 0);
        assert_eq!(shift(1, 5), Cost::new(1, 0, 0));
        assert_eq!(bcast_log(1, 100).supersteps, 0);
    }

    #[test]
    fn total_exchange_and_scan() {
        assert_eq!(total_exchange(4, 2).h_relation, 6);
        assert_eq!(shift(4, 3), Cost::new(1, 3, 1));
    }
}
