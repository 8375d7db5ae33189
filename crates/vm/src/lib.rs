//! A bytecode compiler and abstract machine for mini-BSML.
//!
//! The paper's introduction sets the project goal: *"This environment
//! will contain a byte-code compiler for BSML"*, building on the
//! parallel abstract machine of reference \[5\] (itself descended from
//! the Data-Parallel Categorical Abstract Machine of reference \[3\]).
//! This crate is that substrate:
//!
//! * [`compile()`] lowers mini-BSML expressions to flat [`Instr`]
//!   sequences with de Bruijn variable resolution (no names at run
//!   time),
//! * [`Vm`] executes the bytecode with proper tail calls (recursive
//!   BSML functions run in constant frame space), the four parallel
//!   primitives executed lockstep exactly like the tree-walking
//!   evaluator.
//!
//! The VM is cross-validated against the big-step evaluator on the
//! whole standard library and on fuzzed programs (`tests/vm.rs` at
//! the workspace root).
//!
//! ```
//! use bsml_vm::{compile, Vm};
//! use bsml_syntax::parse;
//!
//! let e = parse("let rec fact n = if n = 0 then 1 else n * fact (n - 1) in fact 10")?;
//! let program = compile(&e)?;
//! let value = Vm::new(4).run(&program)?;
//! assert_eq!(value.to_string(), "3628800");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod compile;
pub mod machine;
pub mod value;

pub use compile::{compile, CodeRef, CompileError, Instr, Program};
pub use machine::{Vm, VmError};
pub use value::MValue;
