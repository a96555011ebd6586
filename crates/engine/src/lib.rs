//! # gp-engine — three simulated distributed graph engines
//!
//! The paper's partitioning strategies only matter *through* the engines
//! that execute on their partitions. This crate implements the three engine
//! designs the paper evaluates, over one shared substrate:
//!
//! * [`gas::SyncGas`] — PowerGraph (§5.1): synchronous
//!   Gather-Apply-Scatter with minor-step barriers; every mirror of an
//!   active vertex sends a partial aggregate to the master, and the master
//!   synchronizes every mirror after Apply. Network, memory and compute are
//!   therefore *linear in replication factor* — Figs 5.3–5.5.
//! * [`hybrid::HybridGas`] — PowerLyra (§6.1): differentiated
//!   processing. Low-degree vertices gather *locally*; only mirrors that
//!   actually hold gather-direction edges send partials. Strategies that
//!   co-locate gather-edges with masters (Hybrid, 1D-Target, partially 2D)
//!   beat the traffic their replication factor predicts — Figs 6.1, 8.3.
//! * [`pregel::Pregel`] — GraphX (§7.1): message passing over many
//!   partitions per machine, with vertex-attribute shipping, join overheads,
//!   per-iteration scheduling cost, and the executor-memory pressure model
//!   behind Fig 9.4.
//!
//! [`async_gas::AsyncGas`] models PowerGraph's asynchronous engine
//! (used by Simple Coloring), whose barrier-free execution makes its cost
//! deviate from the replication-factor trend (§5.4.1).
//!
//! Execution is *semantically* sequential and deterministic — vertex state
//! lives in one array, exactly as if every mirror were perfectly synced —
//! while network/memory/time are *accounted* against the distributed layout
//! described by the [`gp_partition::Assignment`].

pub mod async_gas;
pub(crate) mod comms_hook;
pub(crate) mod elastic_hook;
pub(crate) mod fault_hook;
pub mod gas;
pub mod hybrid;
pub mod pregel;
pub mod program;
pub mod replicas;
pub mod report;
pub(crate) mod sharding;
pub(crate) mod telemetry_hook;

pub use async_gas::AsyncGas;
pub use gas::SyncGas;
pub use gp_elastic::{ElasticConfig, ElasticPlan, ElasticRates, RepairPolicy};
pub use gp_net::{CommsConfig, RetryPolicy, SpeculationPolicy};
pub use gp_par::ParConfig;
pub use hybrid::HybridGas;
pub use pregel::{ExecutorMemoryModel, PlacementCase, Pregel, PregelConfig};
pub use program::{ApplyInfo, Direction, InitInfo, VertexProgram};
pub use replicas::ReplicaTable;
pub use report::{
    base_memory_per_machine, monitor_run, ComputeReport, EngineConfig, SuperstepStats,
};
