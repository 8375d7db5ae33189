//! Deep inputs on Rust's default 2 MiB thread stack: the first rows of
//! the deep-input grid (ROADMAP item 1).
//!
//! Each row is parsed and inferred on a thread spawned with exactly
//! 2 MiB, in whatever build profile runs the test, so a debug build
//! checks the larger debug frames. A row that overflows the stack
//! aborts the whole test binary: overflow is not a panic. The
//! thresholds these rows sit under are recorded in ROADMAP item 1.
//! A parse-only row reads a chain of 5,000 lets, which the parser
//! reads in a loop. One more row serves a tenant that holds a long list: session hosts
//! run requests on a default 2 MiB thread.

use bsml_ast::ExprKind;
use bsml_bsp::BspParams;
use bsml_infer::infer;
use bsml_obs::Telemetry;
use bsml_serve::{Outcome, Server, ServerConfig};
use bsml_syntax::parse;

/// Rust's default stack for spawned threads, which host and rank
/// threads run user code on.
const STACK: usize = 2 << 20;

/// `0 + 1 + … + (n − 1)`: left-nested applications of `+`.
fn sum(n: usize) -> String {
    let terms: Vec<String> = (0..n).map(|i| i.to_string()).collect();
    terms.join(" + ")
}

/// `let x0 = 0 in let x1 = 1 in … x0`.
fn lets(n: usize) -> String {
    let binds: String = (0..n).map(|i| format!("let x{i} = {i} in ")).collect();
    format!("{binds}x0")
}

/// `[0; 1; …; n − 1]`: a right-nested chain of conses.
fn list(n: usize) -> String {
    let elems: Vec<String> = (0..n).map(|i| i.to_string()).collect();
    format!("[{}]", elems.join("; "))
}

/// Parses and infers `source` on a fresh 2 MiB thread, rendering the
/// type or the error.
fn typecheck(source: String) -> Result<String, String> {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(move || {
            let e = parse(&source).map_err(|err| err.to_string())?;
            infer(&e)
                .map(|inf| inf.ty.to_string())
                .map_err(|err| err.to_string())
        })
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("the checker does not panic")
}

#[test]
fn deep_inputs_typecheck_on_a_2_mib_stack() {
    // (input, source, type)
    let rows = [
        ("a 200-term sum", sum(200), "int"),
        ("300 nested lets", lets(300), "int"),
        ("a 300-element list literal", list(300), "int list"),
    ];
    for (input, source, ty) in rows {
        assert_eq!(typecheck(source), Ok(ty.to_string()), "{input}");
    }
}

#[test]
fn five_thousand_nested_lets_parse_on_a_2_mib_stack() {
    let depth = std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(|| {
            let e = parse(&lets(5000)).expect("the chain parses");
            let mut depth = 0;
            let mut cur = &e;
            while let ExprKind::Let(_, _, body) = &cur.kind {
                depth += 1;
                cur = body;
            }
            depth
        })
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("the parser does not panic");
    assert_eq!(depth, 5000);
}

#[test]
fn a_tenant_holding_a_ten_thousand_element_list_is_served() {
    let server = Server::start(
        ServerConfig::new(BspParams::new(2, 1, 10)).with_deadline(None),
        Telemetry::disabled(),
    );
    let run = |tenant: &str, source: &str| match server
        .submit(tenant, source)
        .expect("admitted")
        .wait()
        .outcome
    {
        Outcome::Done { rendered } => rendered.join("\n"),
        other => panic!("{source}: {other:?}"),
    };
    run(
        "lists",
        "let rec range acc n = if n = 0 then acc else range (n :: acc) (n - 1)",
    );
    run("lists", "let xs = range [] 10000");
    // Each request rolls back or commits without walking `xs`.
    assert_eq!(run("lists", "let k = 7"), "k : int = 7");
    assert_eq!(
        run("lists", "match xs with [] -> 0 | h :: t -> h"),
        "- : int = 1"
    );
    assert_eq!(run("lists", "k + 1"), "- : int = 8");
    assert_eq!(run("other", "2 + 2"), "- : int = 4");
    let _ = server.shutdown();
}
