//! Optimal and near-optimal DAG scheduling via state-space search.
//!
//! This crate implements the contribution of Kwok & Ahmad, *"Optimal and
//! Near-Optimal Allocation of Precedence-Constrained Tasks to Parallel
//! Processors"* (ICPP'98):
//!
//! * [`astar`] — the serial **A\*** scheduler with the paper's cheap
//!   admissible cost function `f(s) = g(s) + h(s)` and the four state-space
//!   pruning techniques (processor isomorphism, priority ordering, node
//!   equivalence, upper-bound cost), each individually switchable through
//!   [`PruningConfig`];
//! * [`aeps`] — the approximate **Aε\*** scheduler (Pearl & Kim semi-
//!   admissible search) with a FOCAL list, guaranteeing a schedule length
//!   within `(1 + ε)` of optimal;
//! * [`bnb`] — a re-implementation of the **Chen & Yu branch-and-bound**
//!   baseline whose underestimate is evaluated by expensive explicit
//!   enumeration of the execution paths, used for the Table 1 comparison;
//! * [`exhaustive`] — brute-force enumeration for tiny problems, used by the
//!   tests to certify optimality of the search algorithms.
//!
//! All four are thin configurations over the unified [`engine`]: one generic
//! best-first run loop parameterised by a [`FrontierPolicy`], on top of an
//! arena-backed state store ([`StateArena`]) that keeps generated states as
//! parent + delta records instead of full clones.
//!
//! The entry point is [`SchedulingProblem`], which bundles the task graph,
//! the processor network and the precomputed level attributes:
//!
//! ```
//! use optsched_core::{AStarScheduler, SchedulingProblem};
//! use optsched_procnet::ProcNetwork;
//! use optsched_taskgraph::paper_example_dag;
//!
//! let problem = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
//! let result = AStarScheduler::new(&problem).run();
//! let schedule = result.schedule.expect("search completed");
//! assert_eq!(schedule.makespan(), 14); // Figure 4 of the paper
//! ```

#![warn(missing_docs)]

pub mod aeps;
pub mod astar;
pub mod bnb;
pub mod config;
pub mod engine;
pub mod exhaustive;
pub mod problem;
pub mod state;
pub mod stats;
pub mod wastar;

pub use aeps::AEpsScheduler;
pub use astar::AStarScheduler;
pub use bnb::ChenYuScheduler;
pub use config::{HeuristicKind, PruningConfig, SearchConfig, SearchLimits};
pub use engine::{DuplicateFilter, FrontierPolicy, StateArena};
pub use exhaustive::{exhaustive_optimal, ExhaustiveScheduler};
pub use wastar::WAStarScheduler;
pub use problem::{check_cost_ceiling, SchedulingProblem};
pub use state::{ChildDelta, SearchState};
pub use stats::{SearchOutcome, SearchResult, SearchStats};
