//! Discrete-event simulation kernel used by the Gemini fabric model and the
//! Charm-like runtime driver.
//!
//! The kernel is deliberately tiny and allocation-light: a virtual clock in
//! nanoseconds ([`Time`]), a stable-ordered event queue ([`EventQueue`], a
//! monotone radix heap whose pops are amortised O(1) and whose memory
//! follows the pending set), a deterministic RNG ([`rng`]) so every
//! experiment is reproducible, and the statistics helpers ([`stats`]) the
//! benchmark harness uses to report the paper's tables and figures.
//!
//! # Quick example
//!
//! ```
//! use sim_core::{EventQueue, time};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(time::us(3), "later");
//! q.push(time::us(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (1_000, "sooner"));
//! ```

pub mod lazy;
pub mod parallel;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;

pub use lazy::{LazySlab, LazyVec};
pub use queue::EventQueue;
pub use rng::DetRng;
pub use time::Time;
