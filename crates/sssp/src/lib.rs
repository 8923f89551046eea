//! # g500-sssp — delta-stepping SSSP at (simulated) extreme scale
//!
//! This crate is the reproduction of the paper's contribution: the Graph500
//! SSSP kernel (kernel 3) as an optimized distributed delta-stepping, plus
//! the direction-optimizing distributed BFS (kernel 2) it is paired with.
//!
//! Three implementations share semantics and are cross-validated:
//!
//! * [`seq`] — textbook sequential delta-stepping (Meyer & Sanders) with
//!   light/heavy edge phases; the readable reference.
//! * [`par`] — shared-memory parallel delta-stepping (a parallel scan
//!   against frozen distances, then an ordered commit); what runs *inside*
//!   one rank of the real machine's 390-core nodes.
//! * [`dist`] — the headline kernel: bulk-synchronous distributed
//!   delta-stepping over `simnet` with the extreme-scale optimization stack,
//!   each piece independently toggleable through [`OptConfig`] so the
//!   ablation experiments (T3, F6, F8) can isolate its effect:
//!   - **message coalescing** — per-destination aggregation of relaxation
//!     requests instead of one message per edge,
//!   - **update deduplication** ("on-chip sort") — outgoing requests are
//!     sorted by target and only the minimum per target is shipped,
//!   - **payload compression** — sorted targets are gap+varint coded,
//!   - **bucket fusion** — local cascading within a bucket plus fusing the
//!     long sparse tail of buckets into one Bellman-Ford-style phase,
//!   - **direction optimization** — per-iteration push/pull choice with a
//!     density heuristic, using the frontier-broadcast pull schedule,
//!   - **adaptive Δ** — bucket width chosen from the measured degree/weight
//!     profile instead of a magic constant.
//!
//! Two more distributed kernels run the same bucket epochs: [`dist2d`],
//! the 2D-partitioned rival, and [`multi`], the batched multi-source kernel
//! under the query-serving layer [`serve`]. All three hand their bucket
//! loop, crash recovery and bucket/superstep trace spans to one crate-
//! private driver (`epoch.rs`), and ship their updates through one
//! [`exchange`], generic over the untagged and lane-tagged record types of
//! [`codec`].
#![warn(missing_docs)]

pub mod bfs;
pub mod bucket;
pub mod codec;
pub mod config;
pub mod delta;
pub mod dist;
pub mod dist2d;
mod epoch;
pub mod exchange;
pub mod multi;
pub mod par;
pub mod seq;
pub mod serve;

pub use bfs::{distributed_bfs, BfsStats};
pub use bucket::BucketQueue;
pub use config::{Direction, OptConfig};
pub use delta::suggest_delta;
pub use dist::{distributed_delta_stepping, try_distributed_delta_stepping, SsspRunStats};
pub use dist2d::{Grid2DSssp, Sssp2DStats};
pub use multi::{
    batched_delta_stepping, try_batched_delta_stepping, BatchSpec, MultiDist, MultiStats,
};
pub use par::parallel_delta_stepping;
pub use seq::delta_stepping;
pub use serve::{
    triangle_bound, LandmarkSet, Lru, Query, QueryEngine, QueryOutcome, ServeConfig, ServeStats,
};
