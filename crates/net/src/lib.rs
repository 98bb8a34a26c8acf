//! Discrete-event peer-to-peer network simulation for `blockfed`.
//!
//! Models what the paper's three-VM private Ethereum network does physically:
//! point-to-point links with latency, jitter, bandwidth (so 21.2 MB model
//! payloads cost what they should) and per-edge packet loss — unicast drops
//! via [`LinkSpec::delay`], flood drops committed on the relay tree and
//! metered by [`net::FloodStats`]; topologies; gossip flooding with duplicate
//! suppression; and partition fault injection.
//!
//! # Examples
//!
//! ```
//! use blockfed_net::{LinkSpec, Network, NodeId, Topology};
//! use rand::SeedableRng;
//!
//! let net = Network::new(3, Topology::FullMesh, LinkSpec::lan());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let arrivals = net.flood(NodeId(0), 253_952, &mut rng);
//! assert_eq!(arrivals.len(), 2); // both other peers reached
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No function over 120 counted lines (threshold in the root clippy.toml).
#![warn(clippy::too_many_lines)]

pub mod gossip;
pub mod link;
pub mod net;
pub mod topology;

pub use gossip::{GossipMode, GossipTracker, ANNOUNCE_BYTES};
pub use link::{LinkError, LinkSpec};
pub use net::{FloodDelivery, FloodScratch, FloodStats, Network};
pub use topology::{NodeId, Topology};
