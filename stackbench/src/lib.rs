//! A seeded benchmark of the whole simulated stack — Converse core, AM
//! layer, LRTS machine layers over simulated uGNI and MPI, the Gemini
//! fabric — driven only through the runtime's public API.
//!
//! * [`gen`] turns the seed into workload inputs;
//! * [`msg`] is the app message format and its receiver-side checks;
//! * [`probe`] times the app / AM / Converse-send / machine-layer
//!   boundaries from outside the program;
//! * [`work`] holds the three workloads and runs one simulation;
//! * [`report`] turns repetitions into the benchmark's metrics;
//! * [`speed`] measures the host's speed so host times can be scaled
//!   to a reference host.

pub mod gen;
pub mod msg;
pub mod probe;
pub mod report;
pub mod speed;
pub mod work;
