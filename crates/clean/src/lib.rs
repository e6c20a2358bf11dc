//! # cfd-clean — data cleaning with conditional functional dependencies
//!
//! CFDs were proposed for data cleaning (Fan, Geerts, Jia, Kementsietsidis
//! \[8\]), and data cleaning is the third motivating application of the
//! propagation paper (§1): once a propagation cover tells you which CFDs are
//! guaranteed on a view, the *remaining* dependencies still have to be
//! validated against the data. This crate is that validation machinery:
//!
//! * [`violations`] — batch violation detection in `O(|D|·|Σ|)` expected
//!   time over the dictionary-encoded columnar layer
//!   ([`cfd_relalg::columnar::ColumnarRelation`]): one hash-group-by pass
//!   per CFD over `u32` code columns, fanned out across threads for large
//!   workloads (the quadratic [`cfd_model::satisfy`] pair scan is kept as
//!   the semantic reference, and the seed's row-wise grouping survives as
//!   [`violations::detect_all_rowwise`], the benchmark baseline);
//! * [`sql`] — the SQL detection queries of \[8\] (one constant query plus
//!   one pair query per CFD), generated as text for offloading detection to
//!   an external RDBMS;
//! * [`delta`] — the persistent incremental engine: a [`DeltaDetector`]
//!   compiles Σ once, keeps LHS-group indexes over the mutable columnar
//!   store, and answers each batch of inserts/deletes with the exact
//!   [`ViolationDiff`] it caused in `O(|Δ|·|Σ|)` expected time (the
//!   paper's update-driven applications: view maintenance, warehouse
//!   cleaning under change);
//! * [`incremental`] — the legacy single-insert validator, now a thin
//!   wrapper over the delta engine (kept for its reject-only API);
//! * [`multistore`] — the cross-relation serving layer: many sharded
//!   relations behind one writer, one dictionary pool, and one epoch
//!   clock, with incremental CIND maintenance
//!   ([`cfd_cind::CindDelta`]) between them and a diff bus that streams
//!   CFD and CIND events per relation, per dependency, or per relation
//!   pair;
//! * [`matview`] — live materialized SPC views on the multistore: a
//!   [`MaterializedView`] is compiled once (predicates pushed down to
//!   interned codes through the transitive equality closure, one
//!   width-bounded factorized plan per atom) and
//!   maintained from each commit's applied row delta in `O(|Δ⋈|)` —
//!   derivation counts handle deletes — while its own [`DeltaDetector`]
//!   and
//!   [`cfd_cind::CindDelta`] keep the *view's* propagated-constraint
//!   violations incremental too;
//! * [`durable`] — durability for the multistore: an epoch-keyed
//!   write-ahead commit log with CRC-checksummed frames and dictionary
//!   growth records, columnar checkpoints of the shared pool plus every
//!   relation's live code rows, and crash recovery that replays the log
//!   tail through the normal apply path so detectors, CIND indexes, and
//!   materialized views rebuild exactly — tolerating torn final frames
//!   and turning every other corruption into a typed
//!   [`durable::RecoveryError`];
//! * [`replica`] — fault-tolerant log shipping over the durable layer:
//!   a [`replica::LogShipper`] serves checkpoint + WAL-frame streams
//!   keyed by epoch cursor, a [`replica::Follower`] replays them into
//!   its own cores, CIND indexes, and materialized views (epoch-pinned
//!   read snapshots, a queryable lag bound), and the transport seam
//!   ([`replica::ShipIo`]) swaps between an in-process channel, a Unix
//!   socket, and a fault injector — every partition, torn write, shed
//!   queue, or kill-9 answered with typed errors, jittered backoff, and
//!   cursor re-negotiation;
//! * [`repair()`] — a greedy equivalence-class repair that modifies
//!   right-hand-side cells until the instance satisfies the CFDs, reporting
//!   the cell-level cost.
//!
//! ```
//! use cfd_clean::{detect_all, repair};
//! use cfd_model::Cfd;
//! use cfd_relalg::{Relation, Value};
//!
//! // A → B, violated by (1,2)/(1,3).
//! let sigma = vec![Cfd::fd(&[0], 1).unwrap()];
//! let dirty: Relation = [
//!     vec![Value::int(1), Value::int(2)],
//!     vec![Value::int(1), Value::int(3)],
//!     vec![Value::int(2), Value::int(5)],
//! ]
//! .into_iter()
//! .collect();
//!
//! let violations = detect_all(&dirty, &sigma);
//! assert_eq!(violations.len(), 1);
//!
//! let fixed = repair(&dirty, &sigma, 4);
//! assert!(fixed.clean);
//! assert!(detect_all(&fixed.relation, &sigma).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod delta;
pub mod durable;
pub(crate) mod groupstate;
pub mod incremental;
pub mod matview;
pub mod multistore;
pub mod repair;
pub mod replica;
pub mod sharded;
pub mod sql;
pub mod violations;

pub use catalog::{CatalogError, CyclePolicy, RefreshStats, StackedViewSpec};
pub use delta::{DeltaDetector, UpdateBatch, ViolationDiff};
pub use durable::{
    checkpoint_bytes, recover_from_parts, DurableMultiStore, DurableOptions, FaultIo, FileIo,
    FrameError, FsyncPolicy, LogIo, MemIo, RecoveryError, RecoveryReport,
};
pub use incremental::InsertChecker;
pub use matview::{MaterializedView, ViewDelta, ViewSpec};
pub use multistore::{
    MultiCommit, MultiDiffFilter, MultiSnapshot, MultiStore, RelationSpec, ViewSnapshot,
};
pub use repair::{repair, repair_with_pool, RepairOutcome};
pub use replica::{
    follow_until_end, ChanShipIo, FaultShipIo, Follower, FollowerError, FollowerStats, LagBound,
    LogShipper, RetryPolicy, ShipError, ShipIo, ShipMsg, ShipOptions, ShipServerConn,
};
pub use sharded::{Commit, DiffFilter, GcStats, ShardedStore, Snapshot};
pub use sql::detection_sql;
pub use violations::{
    detect, detect_all, detect_all_columnar, detect_all_rowwise, detect_columnar, detect_rowwise,
    Violation, ViolationKind,
};
