//! # at_check: static analysis for search-space specifications
//!
//! A compiler-style analyzer over [`SearchSpaceSpec`] and the
//! restriction DSL. It runs **before** any space is constructed and
//! reports problems the way `rustc` would: stable `AT0001`-style codes,
//! severities, source spans, caret snippets and `help:` suggestions.
//!
//! The analysis has three layers:
//!
//! 1. **Typechecking** against the parameter domains ([`diag`]):
//!    unknown variables with did-you-mean suggestions (AT0001),
//!    cross-type comparisons that can never hold (AT0002), exact float
//!    equality (AT0003), and possible division/modulo by zero (AT0004).
//! 2. **Abstract interpretation** over per-parameter value sets
//!    ([`absdom`]): every restriction is classified as a *tautology*
//!    (AT0006 — never rejects anything, can be dropped), a
//!    *contradiction* (AT0007 — the space is provably empty), or
//!    *contingent*; dead `and`/`or` operands are flagged (AT0005) and
//!    individually satisfiable but jointly unsatisfiable restriction
//!    pairs are found (AT0008).
//! 3. **Domain pre-pruning** evidence: for restrictions small enough to
//!    enumerate exactly, the per-parameter values that appear in *no*
//!    satisfying assignment — values the solve can drop up front without
//!    changing the resulting space.
//!
//! ## Soundness
//!
//! The abstract domain is a finite value set per node (widening to
//! `Top`), computed by running the *real* interpreter operations over
//! operand combinations — the abstraction cannot drift from the
//! semantics it describes. All claims are one-sided:
//!
//! - a **contradiction** verdict means `can_true` is provably false:
//!   no assignment satisfies the restriction (evaluation errors count
//!   as rejection, matching the pipeline's error→reject convention);
//! - a **tautology** verdict means the restriction provably evaluates
//!   truthily for every assignment, *and* can never error — dropping it
//!   leaves the constructed space code-for-code identical;
//! - everything else stays **contingent**; the analyzer never guesses.
//!
//! When the restriction scope grounds out below [`analyze::EXACT_CAP`]
//! assignments, the reference interpreter evaluates the restriction
//! once per assignment into a bitset truth table, and the verdict is
//! exact rather than abstract. AT0008 and the pre-pruning evidence are
//! read from the same tables: a pair is decided by projecting each
//! assignment of the joint scope into both tables, never by evaluating
//! either restriction again. AT0008 is still bounded by
//! [`analyze::EXACT_CAP`] on the joint scope; larger pairs are not
//! checked. `and`/`or`
//! chains are analyzed path-sensitively — each operand under the
//! refinement implied by the short-circuit path that reaches it — so the
//! pervasive guard idiom `luf == 0 or tile % luf == 0` analyzes without
//! a spurious division-by-zero warning.
//!
//! [`SearchSpaceSpec`]: at_searchspace::SearchSpaceSpec

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absdom;
pub mod analyze;
pub mod diag;

pub use absdom::{Abs, AbsVal};
pub use analyze::{check_spec, CheckReport, PrunableParam, Verdict};
pub use diag::{Code, Diagnostic, Severity};
