//! Shared discrete-event kernel for the Wrht simulators.
//!
//! Both substrate simulators — the optical grant loop in `optical-sim` and
//! the electrical incremental max-min engine in `electrical-sim` — are
//! event-ordered: they repeatedly ask "what happens next?" and advance a
//! simulated clock to that instant. Before this crate each simulator
//! hand-rolled that machinery (a private `EventQueue` on the optical side, an
//! inline next-event scan on the electrical side), which duplicated the
//! subtle parts: tie-breaking between simultaneous events, same-instant
//! coalescing, and monotonic-clock enforcement. This crate owns those
//! decisions once.
//!
//! # Design
//!
//! - **Typed payloads.** [`EventKernel<T>`] is generic over the event payload;
//!   each simulator brings its own event enum and the kernel never inspects
//!   it.
//! - **Monotonic clock.** The kernel's clock only moves forward.
//!   Scheduling an event before the current time is a typed error
//!   ([`KernelError::PastEvent`]) instead of a silent clock rewind.
//! - **Stable FIFO tie-breaking.** Events at the same timestamp pop in
//!   insertion order via per-event sequence numbers, so runs never depend on
//!   `BinaryHeap`'s unspecified tie order.
//! - **Batched same-instant extraction.** [`EventKernel::pop_batch`] returns
//!   every event scheduled at the next instant in one call, replacing ad-hoc
//!   `peek_time() == Some(now)` loops. The instant-equality contract is
//!   defined once, here: two events coalesce if and only if their scheduled
//!   `f64` times are **bit-identical** (after `-0.0` is normalized to `+0.0`
//!   at scheduling time). Times one ulp apart are distinct instants and pop
//!   in separate batches — callers that want mathematically-equal times to
//!   coalesce must compute them through the same float expression.
//! - **No cancellation.** The future-event list is one binary heap of
//!   `(time, seq, payload)` entries, and every scheduled event fires. A
//!   simulator that supersedes an event (the grant engine's fault abort,
//!   the fluid engine's re-solved completion instants) checks it when it
//!   pops and lets a stale one go.
//!
//! # Dependency lists
//!
//! Every engine releases a transfer's dependents when it settles, and
//! [`DepLists`] holds those lists for all of them in flat 32-bit stores,
//! with no list per transfer. What an entry means (a slot, a distance
//! between indices, a key) and what a released dependent does stay with
//! the engine.
//!
//! - **Blocks.** An injected batch with entries gets one block of
//!   compressed rows: row offsets, then the entries, in one `u32`
//!   allocation ([`DepLists::open`], then [`DepLists::fill`], which reads
//!   the batch's entries twice, to count and to place them; each row reads
//!   back in the order its entries came). The block
//!   keeps its batch's first key, so a member finds its row from its key
//!   ([`DepLists::row_of`]), and a count of members not settled yet. The
//!   last member to settle ([`DepLists::settle`]) frees the block's rows
//!   and puts its place on a free list for the next batch; a batch without
//!   entries allocates nothing.
//! - **Edge lists.** An entry filed after its key's batch was injected (a
//!   DAG streamed stage by stage) goes to a list of 32-bit edges in one
//!   pool ([`DepLists::append`]), kept in the order appended. A list is
//!   freed whole ([`DepLists::free`]), and freed edges are reused first.
//! - **Reading.** [`DepLists::walk`] reads a key's row, then its list; the
//!   cursor holds no borrow, so an engine can release each dependent as it
//!   reads it ([`DepLists::next_entry`]), and [`DepLists::entries`] reads
//!   it as an iterator. [`DepLists::row`] reads a key's row alone as a
//!   slice, in one lookup of its block.
//! - **The 32-bit bound.** Block and edge indices, block positions and row
//!   offsets are `u32`, and [`NIL`] means no block or the end of a list.
//!   [`DepLists::fits`] checks a batch's rows, entries and edges against
//!   that bound, so an engine can refuse a batch with a typed error before
//!   any state changes.
//!
//! # Who owns the clock
//!
//! The kernel does. Simulators read it via [`EventKernel::now`] and advance
//! it only by popping events; there is no `set_time`. Policy decisions that
//! are *not* time ordering — e.g. the electrical engine's `EPS`-tolerant
//! release promotion — stay in the simulators, layered on top of the kernel's
//! exact-time semantics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod deplists;
pub mod fault;
mod kernel;

pub use deplists::{DepLists, Walk, NIL};
pub use fault::{FaultError, FaultEvent, FaultKind, FaultLimits, FaultPolicy, FaultScript};
pub use kernel::{EventKernel, KernelError};
