//! # tossa-analysis — CFG analyses
//!
//! Program analyses shared by SSA construction, the out-of-SSA
//! translators, and the coalescing algorithms:
//!
//! * [`bitset::BitSet`] — dense typed bit sets, and the borrowed
//!   [`bitset::BitRow`]s the analyses' flat results answer queries with;
//! * [`domtree::DomTree`] — Cooper–Harvey–Kennedy dominators (plus a
//!   naive O(n²) reference used by tests);
//! * [`domfront::DomFrontiers`] — (iterated) dominance frontiers;
//! * [`loops::LoopInfo`] — natural loops and the inner-to-outer traversal
//!   of the paper's Algorithm 1;
//! * [`liveness`] — liveness with the paper's φ conventions, definition
//!   sites, and the exact live-after-def interference oracle;
//! * [`interference::InterferenceGraph`] — classic non-SSA interference
//!   with Chaitin's move exception and cheap vertex merging.

#![warn(missing_docs)]

pub mod bitset;
pub mod cache;
pub mod domfront;
pub mod domtree;
pub mod interference;
pub mod liveness;
pub mod loops;

pub use bitset::BitSet;
pub use cache::{AnalysisCache, StaleAnalysis};
pub use domfront::{DomFrontiers, IdfScratch};
pub use domtree::DomTree;
pub use interference::InterferenceGraph;
pub use liveness::{DefMap, DefSite, LiveAtDefs, Liveness};
pub use loops::LoopInfo;
