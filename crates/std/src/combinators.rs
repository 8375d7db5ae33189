//! The combinator prelude: BSP collectives written in mini-BSML.
//!
//! Each `*_DEF` constant is one `let` binding (without the trailing
//! `in`); [`prelude`] chains the requested definitions in dependency
//! order in front of a program body.
//!
//! All combinators return parallel vectors (global values): the
//! paper's *(Let)* side condition `L(τ₂) ⇒ L(τ₁)` means a program
//! that binds one of these (global-typed) functions must itself end
//! in a global value — which BSP programs naturally do.

/// `replicate : α → α par` (paper §2.1).
pub const REPLICATE_DEF: &str = "let replicate = fun x -> mkpar (fun pid -> x)";

/// `bcast : int → α par → α par` — the paper's direct broadcast
/// (§2.1), cost `p + (p−1)·s·g + l` (equation (1)).
pub const BCAST_DIRECT_DEF: &str = "\
let bcast = fun n -> fun vec ->
  let tosend = apply (mkpar (fun i -> fun v -> fun dst ->
                        if i = n then v else nc ()),
                      vec) in
  let recv = put tosend in
  apply (recv, replicate n)";

/// `bcast_log : α par → α par` — binary-tree broadcast from process
/// 0 in `⌈log₂ p⌉` supersteps (cost `log p · (s·g + l)`).
pub const BCAST_LOG_DEF: &str = "\
let bcast_log = fun vec ->
  let state0 = apply (mkpar (fun i -> fun v -> (i = 0, v)), vec) in
  let rec go k st =
    if k >= bsp_p () then st else
    let msgs = put (apply (mkpar (fun i -> fun s -> fun dst ->
                             if fst s && dst = i + k then snd s else nc ()),
                           st)) in
    let probe = apply (msgs, mkpar (fun i -> i - k)) in
    let st2 = apply (apply (mkpar (fun i -> fun s -> fun m ->
                              if isnc m then s else (true, m)),
                            st),
                     probe) in
    go (k * 2) st2 in
  apply (mkpar (fun i -> fun s -> snd s), go 1 state0)";

/// `shift : α par → α par` — cyclic shift by one: process `i`'s value
/// moves to process `(i+1) mod p`; one 1-relation superstep.
pub const SHIFT_DEF: &str = "\
let shift = fun vec ->
  let msgs = put (apply (mkpar (fun i -> fun v -> fun dst ->
                           if dst = (i + 1) mod (bsp_p ()) then v else nc ()),
                         vec)) in
  apply (msgs, mkpar (fun i -> (i + (bsp_p ()) - 1) mod (bsp_p ())))";

/// `total_exchange : α par → (α list) par` — everyone receives
/// everyone's value, as a p-length list; one `(p−1)`-relation.
pub const TOTAL_EXCHANGE_DEF: &str = "\
let total_exchange = fun vec ->
  let msgs = put (apply (mkpar (fun i -> fun v -> fun dst -> v), vec)) in
  apply (mkpar (fun i -> fun f ->
           let rec collect j = if j >= bsp_p () then [] else f j :: collect (j + 1) in
           collect 0),
         msgs)";

/// `fold_plus : int par → int par` — replicated sum of all components
/// (direct: one total exchange, then local sums).
pub const FOLD_PLUS_DEF: &str = "\
let fold_plus = fun vec ->
  let msgs = put (apply (mkpar (fun i -> fun v -> fun dst -> v), vec)) in
  apply (mkpar (fun i -> fun f ->
           let rec sum j = if j >= bsp_p () then 0 else f j + sum (j + 1) in
           sum 0),
         msgs)";

/// `scan_plus : int par → int par` — inclusive prefix sums, direct
/// method: process `i` receives the values of `0‥i` and folds
/// locally; one superstep (cost shape of equation (1)).
pub const SCAN_PLUS_DEF: &str = "\
let scan_plus = fun vec ->
  let msgs = put (apply (mkpar (fun i -> fun v -> fun dst ->
                           if i <= dst then v else nc ()),
                         vec)) in
  apply (mkpar (fun i -> fun f ->
           let rec sum j = if j > i then 0 else f j + sum (j + 1) in
           sum 0),
         msgs)";

/// `scan_plus_log : int par → int par` — logarithmic prefix sums
/// (Hillis–Steele): `⌈log₂ p⌉` supersteps of 1-relations.
pub const SCAN_PLUS_LOG_DEF: &str = "\
let scan_plus_log = fun vec ->
  let rec go k st =
    if k >= bsp_p () then st else
    let msgs = put (apply (mkpar (fun i -> fun v -> fun dst ->
                             if dst = i + k then v else nc ()),
                           st)) in
    let probe = apply (msgs, mkpar (fun i -> i - k)) in
    let st2 = apply (apply (mkpar (fun i -> fun v -> fun m ->
                              if isnc m then v else v + m),
                            st),
                     probe) in
    go (k * 2) st2 in
  go 1 vec";

/// `parfun : (α → β) → α par → β par` — BSMLlib's pointwise map:
/// `apply` of a replicated function.
pub const PARFUN_DEF: &str = "\
let parfun = fun f -> fun v -> apply (replicate f, v)";

/// `rev_app : α list → α list → α list` — reverse-append, the
/// tail-recursive workhorse of the list helpers.
pub const REV_APP_DEF: &str = "\
let rec rev_app a b = match a with [] -> b | h :: t -> rev_app t (h :: b)";

/// `take : int → α list → α list` (tail-recursive via [`REV_APP_DEF`]).
pub const TAKE_DEF: &str = "\
let take = fun n -> fun xs ->
  let rec take_rev acc k ys =
    if k = 0 then acc else
    match ys with [] -> acc | h :: t -> take_rev (h :: acc) (k - 1) t in
  rev_app (take_rev [] n xs) []";

/// `drop : int → α list → α list`.
pub const DROP_DEF: &str = "\
let rec drop n xs =
  if n = 0 then xs else
  match xs with [] -> [] | h :: t -> drop (n - 1) t";

/// `length : α list → int` (tail-recursive).
pub const LENGTH_DEF: &str = "\
let length = fun xs ->
  let rec go acc ys = match ys with [] -> acc | h :: t -> go (acc + 1) t in
  go 0 xs";

/// `app2 : α list → α list → α list` — append, tail-recursive via two
/// reversals.
pub const APP2_DEF: &str = "\
let app2 = fun a -> fun b -> rev_app (rev_app a []) b";

/// `scatter : int → (int list) par → (int list) par` — the root's
/// list is split into `p` balanced chunks, chunk `k` delivered to
/// processor `k`; one superstep.
pub const SCATTER_DEF: &str = "\
let scatter = fun root -> fun xs_v ->
  let msgs = put (apply (mkpar (fun i -> fun xs -> fun dst ->
                    if i = root
                    then
                      let csz = (length xs + bsp_p () - 1) / bsp_p () in
                      take csz (drop (dst * csz) xs)
                    else nc ()),
                  xs_v)) in
  apply (msgs, replicate root)";

/// `gather : int → α par → (α list) par` — every value travels to
/// `root`, which ends with the list `[v₀; …; v_{p−1}]`; the other
/// processors end with `[]`. One superstep.
pub const GATHER_DEF: &str = "\
let gather = fun root -> fun v ->
  let msgs = put (apply (mkpar (fun i -> fun x -> fun dst ->
                    if dst = root then x else nc ()),
                  v)) in
  apply (mkpar (fun i -> fun f ->
           if i = root
           then
             let rec g j = if j >= bsp_p () then [] else f j :: g (j + 1) in
             g 0
           else []),
         msgs)";

/// `bcast_two_phase : int → (int list) par → (int list) par` — the
/// BSP-optimal broadcast for large payloads (Barnett et al. style):
/// scatter the root's list into chunks, then all-gather the chunks.
/// Two supersteps, `H ≈ 2·(p−1)·⌈s/p⌉` instead of `(p−1)·s`.
pub const BCAST_TWO_PHASE_DEF: &str = "\
let bcast_two_phase = fun root -> fun xs_v ->
  let chunks = scatter root xs_v in
  let msgs = put (apply (mkpar (fun i -> fun ch -> fun dst -> ch), chunks)) in
  apply (mkpar (fun i -> fun f ->
           let rec g j = if j >= bsp_p () then [] else app2 (f j) (g (j + 1)) in
           g 0),
         msgs)";

/// `make_list : int → int → int list` — a local helper building the
/// list `[seed; seed+1; …]` of a given length (payload generator for
/// the cost experiments).
pub const MAKE_LIST_DEF: &str = "\
let make_list = fun len -> fun seed ->
  let rec build acc j =
    if j = 0 then acc else build ((seed + j - 1) :: acc) (j - 1) in
  build [] len";

/// `sum_list : int list → int` — local list sum.
pub const SUM_LIST_DEF: &str = "\
let sum_list = fun xs ->
  let rec go acc ys = match ys with [] -> acc | h :: t -> go (acc + h) t in
  go 0 xs";

/// All definitions in dependency order.
pub const ALL_DEFS: [&str; 19] = [
    REPLICATE_DEF,
    PARFUN_DEF,
    BCAST_DIRECT_DEF,
    BCAST_LOG_DEF,
    SHIFT_DEF,
    TOTAL_EXCHANGE_DEF,
    FOLD_PLUS_DEF,
    SCAN_PLUS_DEF,
    SCAN_PLUS_LOG_DEF,
    REV_APP_DEF,
    TAKE_DEF,
    DROP_DEF,
    LENGTH_DEF,
    APP2_DEF,
    SCATTER_DEF,
    GATHER_DEF,
    BCAST_TWO_PHASE_DEF,
    MAKE_LIST_DEF,
    SUM_LIST_DEF,
];

/// Chains the given definitions (in the order given) in front of
/// `body`:
/// `let d₁ in let d₂ in … body`.
#[must_use]
pub fn prelude(defs: &[&str], body: &str) -> String {
    let mut out = String::new();
    for d in defs {
        out.push_str(d);
        out.push_str(" in\n");
    }
    out.push_str(body);
    out
}

/// The full prelude in front of `body`.
#[must_use]
pub fn with_full_prelude(body: &str) -> String {
    prelude(&ALL_DEFS, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsml_syntax::parse;

    #[test]
    fn every_definition_parses() {
        for def in ALL_DEFS {
            let src = format!("{def} in 0");
            parse(&src).unwrap_or_else(|e| panic!("{def}\n{}", e.render(&src)));
        }
    }

    #[test]
    fn full_prelude_parses_and_is_closed() {
        let src = with_full_prelude("mkpar (fun i -> i)");
        let e = parse(&src).unwrap_or_else(|err| panic!("{}", err.render(&src)));
        assert!(e.is_closed());
    }

    #[test]
    fn prelude_respects_order() {
        let src = prelude(&[REPLICATE_DEF], "replicate 1");
        assert!(src.starts_with("let replicate"));
        assert!(src.ends_with("replicate 1"));
    }
}
