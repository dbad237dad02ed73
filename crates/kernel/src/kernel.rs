//! The event kernel: monotonic clock, typed scheduling errors, and a
//! deterministic future-event list with batched same-instant extraction.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt;

/// Error returned when a schedule request violates the kernel's time contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelError {
    /// The requested time was NaN or infinite.
    NonFiniteTime {
        /// The offending timestamp.
        time: f64,
    },
    /// The requested time precedes the current clock; honoring it would
    /// rewind simulated time.
    PastEvent {
        /// The offending timestamp.
        time: f64,
        /// The clock value at the time of the request.
        now: f64,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonFiniteTime { time } => {
                write!(f, "event time must be finite, got {time}")
            }
            Self::PastEvent { time, now } => {
                write!(f, "cannot schedule into the past: {time} < {now}")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// Monotonic simulated clock: starts at zero and only moves forward;
/// [`SimClock::advance_to`] rejects non-finite targets and targets earlier
/// than the current time with a typed error instead of silently rewinding.
#[derive(Debug)]
struct SimClock {
    now: f64,
}

impl SimClock {
    fn new() -> Self {
        Self { now: 0.0 }
    }

    fn now(&self) -> f64 {
        self.now
    }

    fn advance_to(&mut self, time: f64) -> Result<(), KernelError> {
        self.now = check_time(time, self.now)?;
        Ok(())
    }
}

/// Validate and normalize an event timestamp against the current clock.
///
/// Negative zero is normalized to positive zero so that the bit-equality
/// coalescing contract treats `-0.0` and `+0.0` as the same instant (they
/// already compare equal under `==`).
fn check_time(time: f64, now: f64) -> Result<f64, KernelError> {
    if !time.is_finite() {
        return Err(KernelError::NonFiniteTime { time });
    }
    if time < now {
        return Err(KernelError::PastEvent { time, now });
    }
    // wrht-analyze: allow(r6, reason = "the -0.0 normalization site of the bit-equality coalescing contract; == is the one comparison that unifies the two zeros")
    Ok(if time == 0.0 { 0.0 } else { time })
}

/// Heap entry: an event's instant, its insertion sequence number and its
/// payload. Only `(time, seq)` is ordered.
#[derive(Debug)]
struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap on (time, seq). Times are finite with
        // -0.0 normalized at schedule time, so `total_cmp` coincides with
        // the IEEE order while being total by construction; the sequence
        // tie-break makes simultaneous events pop in insertion order
        // regardless of heap-internal churn.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic discrete-event scheduler with typed payloads.
///
/// See the crate-level docs for the full design contract. In short:
/// scheduling into the past is a typed error, simultaneous events pop in
/// insertion order, and [`EventKernel::pop_batch`] extracts every event at
/// the next instant (bit-identical `f64` times) in one call.
#[derive(Debug)]
pub struct EventKernel<T> {
    heap: BinaryHeap<Entry<T>>,
    clock: SimClock,
    next_seq: u64,
    processed: u64,
}

impl<T> Default for EventKernel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventKernel<T> {
    /// Empty kernel at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Empty kernel with room for `cap` pending events before reallocating.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(cap),
            clock: SimClock::new(),
            next_seq: 0,
            processed: 0,
        }
    }

    /// Return to an empty kernel at time zero with every counter reset,
    /// keeping the allocation: the kernel then behaves exactly like
    /// [`EventKernel::new`].
    pub fn clear(&mut self) {
        self.heap.clear();
        self.clock = SimClock::new();
        self.next_seq = 0;
        self.processed = 0;
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Total number of events popped (fired) so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// `-0.0` is normalized to `+0.0` so bit-equality batching has a single
    /// representation per instant.
    ///
    /// # Errors
    /// [`KernelError::NonFiniteTime`] if `time` is NaN or infinite;
    /// [`KernelError::PastEvent`] if `time` precedes the current clock.
    pub fn schedule_at(&mut self, time: f64, payload: T) -> Result<(), KernelError> {
        let time = check_time(time, self.clock.now())?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
        Ok(())
    }

    /// Schedule `payload` at `delay` after the current time.
    ///
    /// # Errors
    /// Same contract as [`EventKernel::schedule_at`] applied to
    /// `now + delay`: a NaN/overflowing delay is `NonFiniteTime`, a negative
    /// delay is `PastEvent`.
    pub fn schedule_in(&mut self, delay: f64, payload: T) -> Result<(), KernelError> {
        self.schedule_at(self.clock.now() + delay, payload)
    }

    /// Timestamp of the earliest pending event, without popping it.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        let Entry { time, payload, .. } = self.heap.pop()?;
        debug_assert!(
            time >= self.clock.now(),
            "heap produced a past event: {time} < {}",
            self.clock.now()
        );
        self.clock.now = time;
        self.processed += 1;
        Some((time, payload))
    }

    /// Pop **every** event scheduled at the next instant, appending
    /// payloads to `out` in insertion order, and advance the clock to that
    /// instant. Returns the instant, or `None` if no events are pending.
    ///
    /// Instant-equality contract: two events belong to the same batch if and
    /// only if their scheduled `f64` timestamps are bit-identical (`-0.0`
    /// was normalized to `+0.0` at scheduling time, and times are always
    /// finite, so bit-equality coincides with `==`). Timestamps one ulp
    /// apart are distinct instants and arrive in separate batches: callers
    /// that need mathematically-simultaneous events to coalesce must derive
    /// their timestamps through identical float expressions.
    pub fn pop_batch(&mut self, out: &mut Vec<T>) -> Option<f64> {
        let (time, first) = self.pop()?;
        out.push(first);
        while let Some(head) = self.heap.peek_mut() {
            if head.time.to_bits() != time.to_bits() {
                break;
            }
            out.push(PeekMut::pop(head).payload);
            self.processed += 1;
        }
        Some(time)
    }

    /// Snapshot every pending event as `(time, payload)`, ordered by
    /// `(time, insertion order)` — the exact order they would pop in.
    ///
    /// This is the checkpoint contract: re-scheduling the returned pairs in
    /// order into a fresh kernel (after [`EventKernel::fast_forward`] to the
    /// saved clock) reproduces pop and batch order exactly, because relative
    /// sequence order is all that tie-breaking observes.
    #[must_use]
    pub fn pending(&self) -> Vec<(f64, &T)> {
        let mut pending: Vec<&Entry<T>> = self.heap.iter().collect();
        pending.sort_unstable_by(|a, b| b.cmp(a));
        pending.into_iter().map(|e| (e.time, &e.payload)).collect()
    }

    /// Advance the clock to `time` without popping any event.
    ///
    /// Used when restoring a checkpoint: a fresh kernel starts at zero, the
    /// saved pending events are re-scheduled (all at times `>= time`), and
    /// the clock is fast-forwarded to the saved instant so subsequent
    /// schedule calls see the same past/future boundary as the original run.
    ///
    /// # Errors
    /// Non-finite targets and targets earlier than the current clock are
    /// typed errors, as for [`EventKernel::schedule_at`].
    pub fn fast_forward(&mut self, time: f64) -> Result<(), KernelError> {
        self.clock.advance_to(time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleared_kernel_behaves_like_a_new_one() {
        let run = |k: &mut EventKernel<u32>| {
            k.schedule_at(2.0, 1).unwrap();
            k.schedule_at(1.0, 2).unwrap();
            k.schedule_at(1.0, 3).unwrap();
            let popped: Vec<_> = std::iter::from_fn(|| k.pop()).collect();
            (popped, k.now(), k.events_processed())
        };
        let mut used = EventKernel::new();
        used.schedule_at(5.0, 9).unwrap();
        used.pop();
        used.schedule_at(7.0, 8).unwrap();
        used.clear();
        assert!(used.is_empty());
        assert_eq!((used.now(), used.events_processed()), (0.0, 0));
        assert_eq!(run(&mut used), run(&mut EventKernel::new()));
    }

    #[test]
    fn empty_kernel_pops_none() {
        let mut k: EventKernel<()> = EventKernel::new();
        assert!(k.pop().is_none());
        assert!(k.peek_time().is_none());
        let mut out = Vec::new();
        assert!(k.pop_batch(&mut out).is_none());
        assert!(out.is_empty());
        assert_eq!(k.now(), 0.0);
        assert_eq!(k.events_processed(), 0);
    }

    #[test]
    fn pops_in_time_order() {
        let mut k = EventKernel::new();
        k.schedule_at(3.0, "c").unwrap();
        k.schedule_at(1.0, "a").unwrap();
        k.schedule_at(2.0, "b").unwrap();
        let got: Vec<_> = std::iter::from_fn(|| k.pop()).map(|(_, p)| p).collect();
        assert_eq!(got, vec!["a", "b", "c"]);
        assert_eq!(k.events_processed(), 3);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut k = EventKernel::new();
        for i in 0..10 {
            k.schedule_at(5.0, i).unwrap();
        }
        let got: Vec<_> = std::iter::from_fn(|| k.pop()).map(|(_, p)| p).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shuffled_insertion_keeps_tie_order_bit_identical() {
        // Satellite regression: tied events must pop in insertion order no
        // matter how much unrelated heap churn reshapes the internal array.
        // A fixed-seed LCG drives the churn so the test is deterministic.
        let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as u32
        };
        let mut k = EventKernel::new();
        let mut expected = Vec::new();
        for i in 0..200u32 {
            // Interleave tied events at t=7.0 with churn at pseudo-random
            // earlier/later times, occasionally popping to re-heapify.
            match next() % 4 {
                0 => {
                    k.schedule_at(7.0, Some(i)).unwrap();
                    expected.push(i);
                }
                1 => {
                    // Early churn; clamp to `now` so it stays schedulable
                    // after churn pops have advanced the clock.
                    let t = (1.0 + f64::from(next() % 100) / 50.0).max(k.now());
                    k.schedule_at(t, None).unwrap();
                }
                2 => {
                    k.schedule_at(9.0 + f64::from(next() % 100) / 50.0, None)
                        .unwrap();
                }
                _ => {
                    // Churn pop, but never advance the clock past the tied
                    // instant (that would make later tied schedules invalid).
                    if k.peek_time().is_some_and(|t| t < 7.0) {
                        k.pop();
                    }
                }
            }
        }
        let mut got = Vec::new();
        while let Some((t, p)) = k.pop() {
            if let Some(i) = p {
                assert_eq!(t.to_bits(), 7.0f64.to_bits());
                got.push(i);
            }
        }
        assert!(!got.is_empty());
        assert_eq!(got, expected);
    }

    #[test]
    fn clock_advances_and_is_monotone() {
        let mut k = EventKernel::new();
        k.schedule_at(2.5, ()).unwrap();
        assert_eq!(k.now(), 0.0);
        k.pop();
        assert_eq!(k.now(), 2.5);
        k.schedule_in(1.0, ()).unwrap();
        k.schedule_at(2.5, ()).unwrap();
        let mut prev = k.now();
        while let Some((t, ())) = k.pop() {
            assert!(t >= prev, "clock went backwards: {t} < {prev}");
            assert_eq!(k.now(), t);
            prev = t;
        }
        assert_eq!(prev, 3.5);
    }

    #[test]
    fn scheduling_into_the_past_is_a_typed_error() {
        // Satellite regression: the old EventQueue panicked here and `pop`
        // could silently rewind `now`; the kernel reports a typed error.
        let mut k = EventKernel::new();
        k.schedule_at(2.0, ()).unwrap();
        k.pop();
        assert_eq!(
            k.schedule_at(1.0, ()),
            Err(KernelError::PastEvent {
                time: 1.0,
                now: 2.0
            })
        );
        assert_eq!(
            k.schedule_in(-0.5, ()),
            Err(KernelError::PastEvent {
                time: 1.5,
                now: 2.0
            })
        );
        // The failed schedule left no trace.
        assert!(k.is_empty());
        assert_eq!(k.now(), 2.0);
    }

    #[test]
    fn non_finite_time_is_a_typed_error() {
        let mut k = EventKernel::new();
        assert!(matches!(
            k.schedule_at(f64::NAN, ()),
            Err(KernelError::NonFiniteTime { .. })
        ));
        assert_eq!(
            k.schedule_at(f64::INFINITY, ()),
            Err(KernelError::NonFiniteTime {
                time: f64::INFINITY
            })
        );
        assert!(matches!(
            k.schedule_in(f64::NAN, ()),
            Err(KernelError::NonFiniteTime { .. })
        ));
    }

    #[test]
    fn sim_clock_rejects_rewind() {
        let mut c = SimClock::new();
        c.advance_to(3.0).unwrap();
        assert_eq!(c.now(), 3.0);
        assert_eq!(
            c.advance_to(2.0),
            Err(KernelError::PastEvent {
                time: 2.0,
                now: 3.0
            })
        );
        assert!(matches!(
            c.advance_to(f64::NEG_INFINITY),
            Err(KernelError::NonFiniteTime { .. })
        ));
        assert_eq!(c.now(), 3.0);
    }

    #[test]
    fn len_and_is_empty_track_live_events() {
        let mut k = EventKernel::new();
        assert!(k.is_empty());
        k.schedule_at(1.0, ()).unwrap();
        k.schedule_at(2.0, ()).unwrap();
        assert_eq!(k.len(), 2);
        k.pop();
        assert_eq!(k.len(), 1);
        k.pop();
        assert!(k.is_empty());
    }

    #[test]
    fn schedule_during_pop_interleaves_correctly() {
        // Events scheduled while draining (including at the current instant)
        // are honored; the classic "cascade" pattern of a simulator.
        let mut k = EventKernel::new();
        k.schedule_at(1.0, 0u32).unwrap();
        let mut fired = Vec::new();
        while let Some((t, gen)) = k.pop() {
            fired.push((t, gen));
            if gen < 3 {
                // Same-instant follow-up plus a strictly later one.
                k.schedule_at(t, gen + 1).unwrap();
                k.schedule_in(1.0, gen + 10).unwrap();
            }
            if fired.len() > 32 {
                panic!("runaway cascade");
            }
        }
        assert_eq!(&fired[..4], &[(1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3)]);
        assert_eq!(fired.len(), 4 + 3);
    }

    #[test]
    fn pop_batch_groups_by_bit_identical_time() {
        let mut k = EventKernel::new();
        // 0.1 + 0.2 is one ulp above 0.3: mathematically the same instant,
        // different bits -> distinct batches. This pins the documented
        // contract (and the old `peek_time() == Some(now)` behavior, which
        // also compared exactly).
        let near = 0.1_f64 + 0.2_f64;
        assert_ne!(near.to_bits(), 0.3_f64.to_bits());
        k.schedule_at(0.3, "exact-1").unwrap();
        k.schedule_at(near, "ulp").unwrap();
        k.schedule_at(0.15 + 0.15, "exact-2").unwrap(); // == 0.3 bit-exactly
        let mut out = Vec::new();
        assert_eq!(k.pop_batch(&mut out), Some(0.3));
        assert_eq!(out, vec!["exact-1", "exact-2"]);
        out.clear();
        assert_eq!(k.pop_batch(&mut out), Some(near));
        assert_eq!(out, vec!["ulp"]);
    }

    #[test]
    fn negative_zero_is_normalized() {
        let mut k = EventKernel::new();
        k.schedule_at(-0.0, "neg").unwrap();
        k.schedule_at(0.0, "pos").unwrap();
        let mut out = Vec::new();
        let t = k.pop_batch(&mut out).unwrap();
        assert_eq!(t.to_bits(), 0.0_f64.to_bits(), "-0.0 normalized to +0.0");
        assert_eq!(out, vec!["neg", "pos"]);
    }

    #[test]
    fn pending_snapshot_matches_pop_order_and_restores() {
        let mut k = EventKernel::new();
        k.schedule_at(2.0, "b1").unwrap();
        k.schedule_at(1.0, "a").unwrap();
        k.schedule_at(2.0, "b2").unwrap();
        k.pop(); // fire "a", clock at 1.0

        let snap: Vec<(f64, &str)> = k.pending().into_iter().map(|(t, p)| (t, *p)).collect();
        assert_eq!(snap, vec![(2.0, "b1"), (2.0, "b2")]);

        // Restore into a fresh kernel: fast-forward, re-schedule in order.
        let mut r = EventKernel::new();
        r.fast_forward(1.0).unwrap();
        assert_eq!(
            r.fast_forward(0.5),
            Err(KernelError::PastEvent {
                time: 0.5,
                now: 1.0
            })
        );
        for &(t, p) in &snap {
            r.schedule_at(t, p).unwrap();
        }
        let mut orig = Vec::new();
        let mut rest = Vec::new();
        let t1 = k.pop_batch(&mut orig);
        let t2 = r.pop_batch(&mut rest);
        assert_eq!(t1, t2);
        assert_eq!(orig, rest, "restored kernel must replay batch order");
    }

    #[test]
    fn burst_of_many_events_drains_in_order() {
        let mut k = EventKernel::new();
        let n = 10_000u64;
        for i in 0..n {
            // Deterministic scatter with many ties (time quantized to 1/16).
            let t = f64::from(u32::try_from(i * 7919 % 256).unwrap()) / 16.0;
            k.schedule_at(t, i).unwrap();
        }
        let mut prev_t = f64::NEG_INFINITY;
        let mut prev_seq_at_t = 0u64;
        let mut count = 0u64;
        while let Some((t, i)) = k.pop() {
            assert!(t >= prev_t);
            if t.to_bits() == prev_t.to_bits() {
                assert!(i > prev_seq_at_t, "ties must pop in insertion order");
            }
            prev_t = t;
            prev_seq_at_t = i;
            count += 1;
        }
        assert_eq!(count, n);
        assert_eq!(k.events_processed(), n);
    }
}
