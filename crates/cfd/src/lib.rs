//! # cfd-model — conditional functional dependencies
//!
//! The dependency language of *"Propagating Functional Dependencies with
//! Conditions"* (VLDB 2008), i.e. the CFDs of Fan, Geerts, Jia,
//! Kementsietsidis \[8\]:
//!
//! * [`pattern::Pattern`] — pattern-tuple cells with the `≍` match relation,
//!   the `≤` order, and the `⊕` merge of §4.2;
//! * [`cfd::Cfd`] — normal-form CFDs `(X → A, tp)`, including plain FDs, the
//!   constant-column form `(A → A, (_ ‖ a))`, and the view-only
//!   domain-constraint form `(A → B, (x ‖ x))`;
//! * [`satisfy`] — satisfaction of CFDs by relation instances (the §2.1
//!   pairwise reference plus a columnar fast path);
//! * [`columnar`] — CFD checking over dictionary-encoded columnar
//!   relations: [`columnar::CodedCfd`] compiles pattern constants to dense
//!   codes and satisfaction becomes one hash-group-by pass over `u32`
//!   columns;
//! * [`chase`] — a generic CFD chase over instances with variables, shared
//!   by implication here and by the propagation procedures of
//!   `cfd-propagation`;
//! * [`implication`] — implication & consistency in both the
//!   infinite-domain setting (a two-tuple chase on Σ compiled to bitsets
//!   and interned constants) and the general setting (coNP via
//!   finite-domain instantiation);
//! * [`mincover`] — minimal covers (`MinCover` of \[8\]);
//! * [`fd`] — the classical FD toolbox (closure, implication, minimal
//!   covers, and the exponential closure-based projection cover used as the
//!   paper's baseline).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfd;
pub mod chase;
pub mod columnar;
mod compiled;
pub mod error;
pub mod fd;
pub mod implication;
pub mod mincover;
pub mod pattern;
pub mod satisfy;

pub use cfd::{Cfd, GeneralCfd, SourceCfd};
pub use error::CfdError;
pub use fd::Fd;
pub use pattern::Pattern;
