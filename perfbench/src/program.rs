//! Seeded benchmark programs and their closed-form expected results.
//!
//! Every program has the same shape — local list work, then a direct
//! reduction, a logarithmic scan, a cyclic shift and a broadcast — so
//! its cost depends only on `p` and the list length `n`. The seed picks
//! the data (`a`, `b`) and the broadcast root, which move the values but
//! not the work, so runs with different seeds measure the same amount
//! of computation and communication.

use bsml_std::combinators::{
    prelude, BCAST_DIRECT_DEF, FOLD_PLUS_DEF, MAKE_LIST_DEF, REPLICATE_DEF, SCAN_PLUS_LOG_DEF,
    SHIFT_DEF, SUM_LIST_DEF,
};

/// SplitMix64: a tiny seeded generator, so inputs depend on the seed
/// alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// One benchmark input: a closed program for a `p`-processor machine
/// and what every backend must produce for it.
#[derive(Clone, Debug)]
pub struct Program {
    pub p: usize,
    pub source: String,
    /// The rendered result value, `<|v0, …, v(p-1)|>`.
    pub expected: String,
    /// Barriers the program crosses.
    pub supersteps: u64,
    /// Words sent between distinct processors over the whole run.
    pub words: u64,
}

/// Draws one program for `p` processors with `n`-element local lists.
pub fn generate(rng: &mut Rng, p: usize, n: usize) -> Program {
    let a = 1 + rng.below(97) as i64;
    let b = rng.below(1000) as i64;
    let root = rng.below(p as u64) as usize;
    let body = format!(
        "let local = apply (mkpar (fun i -> sum_list), mkpar (fun i -> make_list {n} ({a} * i + {b}))) in
         let total = fold_plus local in
         let moved = shift (scan_plus_log local) in
         let top = bcast {root} moved in
         apply (apply (apply (mkpar (fun i -> fun t -> fun m -> fun r -> t + 3 * m + r), total), moved), top)"
    );
    let source = prelude(
        &[
            REPLICATE_DEF,
            BCAST_DIRECT_DEF,
            SHIFT_DEF,
            FOLD_PLUS_DEF,
            SCAN_PLUS_LOG_DEF,
            MAKE_LIST_DEF,
            SUM_LIST_DEF,
        ],
        &body,
    );

    let n = n as i64;
    let local: Vec<i64> = (0..p as i64)
        .map(|i| n * (a * i + b) + n * (n - 1) / 2)
        .collect();
    let total: i64 = local.iter().sum();
    let prefix: Vec<i64> = local
        .iter()
        .scan(0, |acc, x| {
            *acc += x;
            Some(*acc)
        })
        .collect();
    let moved: Vec<i64> = (0..p).map(|i| prefix[(i + p - 1) % p]).collect();
    let top = moved[root];
    let values: Vec<String> = moved
        .iter()
        .map(|m| (total + 3 * m + top).to_string())
        .collect();

    let rounds: Vec<usize> = std::iter::successors(Some(1), |k| Some(k * 2))
        .take_while(|&k| k < p)
        .collect();
    let p64 = p as u64;
    Program {
        p,
        source,
        expected: format!("<|{}|>", values.join(", ")),
        // fold_plus, each scan round, shift, bcast.
        supersteps: 3 + rounds.len() as u64,
        words: p64 * (p64 - 1)
            + rounds.iter().map(|&k| p64 - k as u64).sum::<u64>()
            + p64
            + (p64 - 1),
    }
}
