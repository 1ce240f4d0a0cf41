//! Target processor-network substrate for the `optsched` workspace.
//!
//! The target system is a set of processing elements (PEs) that do **not**
//! share memory; all communication is by message passing over an
//! interconnection network of a given topology (fully connected, ring, chain,
//! mesh, hypercube, star, or arbitrary).  Processors may be heterogeneous
//! (different speeds) but the communication links are homogeneous: a message
//! is transmitted with the same speed on every link, exactly as assumed in
//! Section 2 of Kwok & Ahmad (ICPP'98).
//!
//! The central type is [`ProcNetwork`], which stores the processor list, the
//! adjacency structure, all-pairs hop distances, and the communication model
//! used to turn a task-graph edge weight into an inter-processor
//! communication delay.
//!
//! ```
//! use optsched_procnet::{ProcNetwork, ProcId};
//!
//! let net = ProcNetwork::ring(3);
//! assert_eq!(net.num_procs(), 3);
//! assert!(net.interchangeable(ProcId(0), ProcId(1)));
//! assert_eq!(net.hops(ProcId(0), ProcId(2)), 1);
//! ```

#![warn(missing_docs)]

pub mod network;
pub mod topology;

pub use network::{CommModel, ProcId, ProcNetwork, Processor, MAX_PROCS};
pub use topology::Topology;
