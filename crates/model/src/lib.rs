#![warn(missing_docs)]

//! # raft-model
//!
//! Analytic machinery behind RaftLib's continuous optimization (§3–4 of the
//! PMAM'15 paper):
//!
//! * [`queues`] — single-queue formulas: M/M/1, M/D/1, and the finite-buffer
//!   M/M/1/K (blocking probability drives buffer sizing);
//! * [`flow`] — the Beard & Chamberlain (MASCOTS'13) style flow model: push
//!   per-kernel service rates and selectivities through the streaming DAG to
//!   estimate steady-state application throughput;
//! * [`scaling`] — parallel-scaling predictor used for the Figure 10 modeled
//!   series: single-core rate + serial fraction + per-worker overhead +
//!   memory-bandwidth ceiling → throughput at k cores;
//! * [`sizing`] — buffer-capacity selection: branch-and-bound search over a
//!   black-box cost function, and analytic M/M/1/K sizing to hit a target
//!   blocking probability (the paper's two stated options);
//! * [`anneal`] — simulated annealing over integer parameter vectors, the
//!   search technique the paper pairs with the flow model for long-running
//!   application tuning;
//! * [`des`] — a discrete-event simulator of finite-buffer queueing
//!   networks with blocking-after-service: the ground truth the analytic
//!   formulas and the flow model are validated against.

pub mod anneal;
pub mod des;
pub mod flow;
pub mod queues;
pub mod scaling;
pub mod sizing;

pub use flow::{FlowGraph, FlowReport};
pub use queues::{MD1, MM1, MM1K};
pub use scaling::SystemModel;
