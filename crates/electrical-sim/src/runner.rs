//! Barrier-stepped execution of collective schedules over the fluid model.
//!
//! All-reduce algorithms are expressed as sequences of steps; the runner
//! starts every transfer of a step simultaneously, waits for the slowest
//! (the barrier all-reduce implementations impose), adds a per-message host
//! overhead, and moves to the next step — mirroring how the paper times its
//! SimGrid baselines.

use crate::engine::FluidEngine;
use crate::error::{NetError, Result};
use crate::graph::Network;
use crate::maxmin::{progressive_fill, Fill};
use crate::sim::EngineFlow;
use serde::{Deserialize, Serialize};

/// One transfer inside a step (sizes in bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepTransfer {
    /// Source host.
    pub src: usize,
    /// Destination host.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
}

/// The barrier-stepped runner, one step at a time: the path of every
/// stepped electrical execution and of the barrier fast path of
/// dependency-aware ones.
///
/// A step's duration is the per-step overhead plus the makespan of its
/// non-empty transfers on the fluid engine, all released at once. One
/// shape of step has a closed form instead: when every payload route
/// latency `L` is bit-identical (and finite) and the routes are pairwise
/// link-disjoint (every ring, halving-doubling, recursive-doubling and
/// tree step on a star cluster), each flow is its own contention component.
/// The engine would then promote every flow in one pass (behind one shared
/// latency timer when `L > 0`), solve all of them in one progressive fill
/// and complete each at its first candidate, `(L + bytes/rate).max(L)`,
/// with nothing left to re-solve; the runner computes exactly that.
///
/// The placement half of the closed form — the routes, `L` and the fill's
/// rates — depends only on the step's ordered routing list, never on
/// bytes. So a step whose routing list equals the last placed step's
/// (every step of a ring all-reduce) reuses that placement and redoes only
/// each flow's finish. Any other step is routed once, straight into a
/// flat block of 32-bit link indices, and checked for link-disjointness.
/// A step the closed form does not cover (shared links, or a finish that
/// overflows) runs on the fluid engine and is not reused: the memo covers
/// exactly the closed form's steps. The runner keeps one engine and resets
/// it between such steps, so a run of them reuses the engine's per-link
/// and per-flow arrays instead of allocating, and returning to the OS, a
/// fresh set for every step.
///
/// A step that only permutes the last step's payloads among the same
/// transfers need not be read at all when the last step's closed form gave
/// every flow the same rate: each finish is then one function of bytes, so
/// the step's duration is the last one's. [`StepRunner::repeat`] returns
/// it, with the closed form's counters, for a caller that knows the step
/// is such a permutation.
///
/// Zero-byte transfers are legal: the fluid model itself rejects empty
/// flows, so they are skipped before solving, but a step that contains any
/// transfer — even only zero-byte ones — still pays the per-step overhead
/// (the launch happens regardless of payload). Only a literally empty step
/// costs nothing. This mirrors the optical substrate, which charges its
/// per-message overhead for zero-byte transfers too. Zero-byte transfers
/// are still routed, after the payload flows, so a malformed one fails the
/// step with the error a dependency-aware run of the same schedule
/// reports.
#[derive(Debug)]
pub struct StepRunner<'n> {
    net: &'n Network,
    overhead_s: f64,
    /// Routing list of the last placed step: `(src, dst, bytes > 0)` per
    /// transfer, in step order.
    key: Vec<(usize, usize, bool)>,
    /// Routes and latencies of its payload flows, in step order: flow `k`
    /// crosses the links `route_links[route_at[k]..route_at[k + 1]]`.
    route_links: Vec<u32>,
    route_at: Vec<u32>,
    latencies: Vec<f64>,
    /// Its closed-form placement: `None` when it has no payload flow (and
    /// no routes), or when the closed form does not apply (and the key is
    /// empty, so nothing is reused).
    fill: Option<DisjointFill>,
    /// The fluid engine of the steps the closed form does not cover, built
    /// on the first one.
    engine: Option<FluidEngine<'n>>,
    /// The last step's payload finishes, when recording.
    finishes: Option<Vec<f64>>,
    /// The last step's duration, when [`StepRunner::repeat`] may return
    /// it: the step ran in the closed form with bit-identical rates, had
    /// no zero-byte transfer and the runner does not record.
    repeatable: Option<f64>,
    /// Rate recomputations, solver work and events over the steps run.
    counters: (usize, usize, u64),
}

impl<'n> StepRunner<'n> {
    /// A runner over `net` that charges `per_message_overhead_s` per
    /// non-empty step.
    #[must_use]
    pub fn new(net: &'n Network, per_message_overhead_s: f64) -> Self {
        Self {
            net,
            overhead_s: per_message_overhead_s,
            key: Vec::new(),
            route_links: Vec::new(),
            route_at: vec![0],
            latencies: Vec::new(),
            fill: None,
            engine: None,
            finishes: None,
            repeatable: None,
            counters: (0, 0, 0),
        }
    }

    /// The runner, also recording each step's payload finishes
    /// ([`StepRunner::finishes`]).
    #[must_use]
    pub fn recording(mut self) -> Self {
        self.finishes = Some(Vec::new());
        self
    }

    /// The last step's payload (non-zero-byte) transfers' finishes, in step
    /// order: seconds after the step's overhead, so a step that starts at
    /// `t` delivers one at `(t + overhead) + finish`. Empty unless
    /// [`StepRunner::recording`].
    #[must_use]
    pub fn finishes(&self) -> &[f64] {
        self.finishes.as_deref().unwrap_or(&[])
    }

    /// Rate recomputations, progressive-filling work and events, summed
    /// over the steps run: the fluid engine's counters of each step's
    /// payload flows. A closed-form step counts what the engine would: one
    /// recomputation, the fill's work and one event per flow (two when the
    /// shared latency is positive: the timers, then the completions).
    #[must_use]
    pub fn counters(&self) -> (usize, usize, u64) {
        self.counters
    }

    /// Execute again a step that only permutes the last step's payloads
    /// among its transfers (the same `(src, dst)` list in the same order,
    /// the same byte counts in another order), without reading it: its
    /// duration, with the closed form's counters added as
    /// [`StepRunner::step`] adds them. `None` unless the last step ran in
    /// the closed form with bit-identical rates and no zero-byte transfer,
    /// on a runner that does not record: its duration was then the maximum
    /// of one function of bytes over the step's byte counts, and is the
    /// same for any permutation of them. On `None` the caller runs the step.
    pub fn repeat(&mut self) -> Option<f64> {
        let duration_s = self.repeatable?;
        self.fill.as_ref()?.count(&mut self.counters);
        Some(duration_s)
    }

    /// Execute one step and return its duration, seconds.
    pub fn step<I>(&mut self, transfers: I) -> Result<f64>
    where
        I: Iterator<Item = StepTransfer> + Clone,
    {
        self.repeatable = None;
        if let Some(finishes) = &mut self.finishes {
            finishes.clear();
        }
        if transfers.clone().next().is_none() {
            return Ok(0.0);
        }
        let placed = self.fits(transfers.clone());
        if !placed {
            self.place(transfers.clone())?;
        }
        let payload = transfers.clone().filter(|t| t.bytes > 0);
        let closed_form = match &self.fill {
            Some(fill) => payload
                .clone()
                .zip(&fill.rates)
                .try_fold(0.0f64, |m, (t, &rate)| {
                    Some(m.max(fill.finish(t.bytes, rate)?))
                }),
            None if self.latencies.is_empty() => Some(0.0),
            None => None,
        };
        let makespan_s = match (closed_form, &self.fill) {
            (Some(m), None) => m,
            (Some(m), Some(fill)) => {
                // Recorded in a pass of its own, so the loop above stays
                // the same for a runner that does not record. No finish
                // overflows here.
                if let Some(finishes) = &mut self.finishes {
                    let each = payload
                        .zip(&fill.rates)
                        .map(|(t, &r)| fill.finish(t.bytes, r));
                    finishes.extend(each.flatten());
                }
                fill.count(&mut self.counters);
                m
            }
            (None, _) => {
                // A step that needs the engine leaves no placement to
                // reuse. Its flows are released at 0, with no launch delay
                // and no deps, and the engine routes them into its own
                // arena.
                self.key.clear();
                let net = self.net;
                let engine = self.engine.get_or_insert_with(|| FluidEngine::new(net));
                engine.reset();
                let n = self.latencies.len();
                engine.inject_from(payload.map(|t| {
                    let flow = EngineFlow {
                        src: t.src,
                        dst: t.dst,
                        bytes: t.bytes,
                        release_s: 0.0,
                        delay_s: 0.0,
                        deps: Vec::new(),
                        job: 0,
                    };
                    (flow, std::iter::empty())
                }))?;
                while engine.step()?.is_some() {}
                if let Some(finishes) = &mut self.finishes {
                    finishes.extend((0..n).map(|i| engine.window(i).1));
                }
                self.counters.0 += engine.rate_recomputations();
                self.counters.1 += engine.solver_work();
                self.counters.2 += engine.events();
                engine.makespan_s()
            }
        };
        if !placed {
            for t in transfers.clone().filter(|t| t.bytes == 0) {
                self.net.route_with(t.src, t.dst, |_| {})?;
            }
            // Saved only once the step has fully succeeded, so a step that
            // failed is never taken as placed.
            if closed_form.is_some() {
                self.key
                    .extend(transfers.map(|t| (t.src, t.dst, t.bytes > 0)));
            }
        }
        let duration_s = self.overhead_s + makespan_s;
        let closed = closed_form.is_some() && self.fill.as_ref().is_some_and(|f| f.uniform);
        if closed && self.finishes.is_none() && self.latencies.len() == self.key.len() {
            self.repeatable = Some(duration_s);
        }
        Ok(duration_s)
    }

    /// Is the last placement the one of `transfers`' routing list?
    fn fits(&self, transfers: impl Iterator<Item = StepTransfer>) -> bool {
        let mut n = 0;
        for t in transfers {
            if self.key.get(n) != Some(&(t.src, t.dst, t.bytes > 0)) {
                return false;
            }
            n += 1;
        }
        n == self.key.len()
    }

    /// Route the payload flows of `transfers` in order and solve their
    /// closed-form placement, failing as the engine's injection and first
    /// solve would.
    fn place(&mut self, transfers: impl Iterator<Item = StepTransfer> + Clone) -> Result<()> {
        self.key.clear();
        self.route_links.clear();
        self.route_at.clear();
        self.route_at.push(0);
        self.latencies.clear();
        self.fill = None;
        let net = self.net;
        let wide = NetError::BadConfig("index overflows the stepped runner's 32-bit routes");
        if u32::try_from(net.links().len()).is_err() {
            return Err(wide);
        }
        let payload = transfers.filter(|t| t.bytes > 0);
        for t in payload.clone() {
            let start = self.route_links.len();
            // In range: the link count fits in 32 bits (checked above).
            net.route_with(t.src, t.dst, |l| self.route_links.push(l.0 as u32))?;
            self.latencies
                .push(net.flat_latency(&self.route_links[start..]));
            let end = u32::try_from(self.route_links.len()).map_err(|_| wide.clone())?;
            self.route_at.push(end);
        }
        let routes = (self.route_links.as_slice(), self.route_at.as_slice());
        self.fill = DisjointFill::solve(net, routes, &self.latencies, |k| {
            payload.clone().nth(k).map_or((0, 0), |t| (t.src, t.dst))
        })?;
        Ok(())
    }
}

/// The placement half of the closed form: its two preconditions, the one
/// progressive fill and its stall check. It reads routes and latencies
/// only, never bytes, so it holds for every flow list with the same
/// routes.
#[derive(Debug)]
struct DisjointFill {
    /// Instant every flow starts transmitting: the shared latency when it
    /// is positive, else 0.
    start_s: f64,
    /// Each flow's max-min rate, in flow order (finite and positive).
    rates: Vec<f64>,
    /// The fill's progressive-filling work.
    solver_work: usize,
    /// Whether every rate is bit-identical: every flow's finish is then one
    /// function of its bytes.
    uniform: bool,
}

impl DisjointFill {
    /// The fill of the flat routes `(links, at)` (flow `k` crosses
    /// `links[at[k]..at[k + 1]]`), or `None` when there is no route, a
    /// latency differs (in bits) or is not finite, or a link is crossed
    /// twice. A flow frozen at rate zero fails with
    /// [`NetError::StalledFlow`] naming `endpoints(k)`, as the engine's
    /// first solve does.
    fn solve(
        net: &Network,
        (route_links, route_at): (&[u32], &[u32]),
        latencies: &[f64],
        endpoints: impl Fn(usize) -> (usize, usize),
    ) -> Result<Option<Self>> {
        let Some(&lat) = latencies.first() else {
            return Ok(None);
        };
        if !lat.is_finite() || latencies.iter().any(|l| l.to_bits() != lat.to_bits()) {
            return Ok(None);
        }
        let mut links: Vec<usize> = route_links.iter().map(|&l| l as usize).collect();
        links.sort_unstable();
        if links.windows(2).any(|w| w[0] == w[1]) {
            return Ok(None);
        }
        // The engine's one solve: every listed link carries exactly one flow.
        let mut fill = Fill::new(net.links().len());
        for &l in &links {
            fill.remaining[l] = net.links()[l].capacity_bps;
            fill.active[l] = 1;
        }
        let ascending: Vec<usize> = (0..latencies.len()).collect();
        let mut rates = vec![0.0f64; latencies.len()];
        let mut solver_work = 0usize;
        progressive_fill(
            &links,
            &ascending,
            |f| &route_links[route_at[f] as usize..route_at[f + 1] as usize],
            &mut fill,
            &mut rates,
            &mut solver_work,
        );
        if let Some(k) = rates.iter().position(|&r| r.is_nan() || r <= 0.0) {
            let (src, dst) = endpoints(k);
            return Err(NetError::StalledFlow { src, dst });
        }
        // A positive pipe parks every flow until its timer; otherwise flows
        // start transmitting at once.
        let uniform = rates.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
        Ok(Some(Self {
            start_s: if lat > 0.0 { lat } else { 0.0 },
            rates,
            solver_work,
            uniform,
        }))
    }

    /// Count one step in this closed form as the engine would run it (see
    /// [`StepRunner::counters`]).
    fn count(&self, counters: &mut (usize, usize, u64)) {
        let flows = self.rates.len() as u64;
        counters.0 += 1;
        counters.1 += self.solver_work;
        counters.2 += if self.start_s > 0.0 { 2 * flows } else { flows };
    }

    /// The closed-form finish of a flow of `bytes` at `rate` (one of
    /// [`DisjointFill::rates`]), or `None` when it overflows to infinity
    /// and the engine must decide.
    fn finish(&self, bytes: u64, rate: f64) -> Option<f64> {
        let finish_s = (self.start_s + bytes as f64 / rate).max(self.start_s);
        (!finish_s.is_infinite()).then_some(finish_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use crate::sim::run_flows;
    use crate::topology::star_cluster;

    fn transfer(src: usize, dst: usize, bytes: u64) -> StepTransfer {
        StepTransfer { src, dst, bytes }
    }

    /// Each step's duration on one runner, in step order.
    fn step_times(net: &Network, steps: &[Vec<StepTransfer>], overhead_s: f64) -> Result<Vec<f64>> {
        let mut runner = StepRunner::new(net, overhead_s);
        steps
            .iter()
            .map(|step| runner.step(step.iter().copied()))
            .collect()
    }

    /// Run `steps` as the barrier fast path of a dependency-aware run does,
    /// one recorded runner step per stage: the makespan and every
    /// transfer's `(start, finish)` window.
    fn barrier_run(
        net: &Network,
        steps: &[Vec<StepTransfer>],
        overhead_s: f64,
    ) -> Result<(f64, Vec<(f64, f64)>)> {
        let mut runner = StepRunner::new(net, overhead_s).recording();
        let mut makespan_s = 0.0;
        let mut windows = Vec::new();
        for step in steps {
            let start_s = makespan_s;
            makespan_s += runner.step(step.iter().copied())?;
            let launched_s = start_s + overhead_s;
            let mut finishes = runner.finishes().iter();
            windows.extend(step.iter().map(|t| {
                let finish_s = match t.bytes {
                    0 => launched_s,
                    _ => launched_s + finishes.next().copied().unwrap_or(f64::NAN),
                };
                (start_s, finish_s)
            }));
        }
        Ok((makespan_s, windows))
    }

    #[test]
    fn steps_are_sequential_and_overhead_is_per_step() {
        let net = star_cluster(4, 1e9, 0.0);
        let steps = vec![
            vec![transfer(0, 1, 1_000_000)],
            vec![transfer(1, 2, 1_000_000)],
        ];
        let times = step_times(&net, &steps, 1e-6).unwrap();
        assert_eq!(times.len(), 2);
        assert!((times.iter().sum::<f64>() - (2e-3 + 2e-6)).abs() < 1e-9);
    }

    #[test]
    fn empty_steps_cost_nothing() {
        let net = star_cluster(4, 1e9, 0.0);
        let mut runner = StepRunner::new(&net, 1e-6).recording();
        assert_eq!(runner.step(std::iter::empty()).unwrap(), 0.0);
        assert!(runner.finishes().is_empty());
        assert_eq!(runner.counters(), (0, 0, 0));
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let net = star_cluster(4, 1e9, 0.0);
        assert!(step_times(&net, &[], 1e-6).unwrap().is_empty());
        let runner = StepRunner::new(&net, 1e-6);
        assert!(runner.finishes().is_empty());
        assert_eq!(runner.counters(), (0, 0, 0));
    }

    #[test]
    fn single_step_matches_flow_closed_form() {
        let net = star_cluster(4, 1e9, 0.0);
        let times = step_times(&net, &[vec![transfer(0, 1, 3_000_000)]], 1e-6).unwrap();
        assert_eq!(times.len(), 1);
        assert!((times[0] - (3e-3 + 1e-6)).abs() < 1e-9);
    }

    #[test]
    fn interior_empty_steps_keep_per_step_alignment() {
        // Campaign and differential consumers zip per-step times against
        // the schedule, so empty steps must keep their slot.
        let net = star_cluster(4, 1e9, 0.0);
        let steps = vec![vec![], vec![transfer(0, 1, 1_000_000)], vec![]];
        let times = step_times(&net, &steps, 1e-6).unwrap();
        assert_eq!(times.len(), 3);
        assert_eq!(times[0], 0.0);
        assert_eq!(times[2], 0.0);
        assert!((times[1] - (1e-3 + 1e-6)).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_transfers_are_skipped_but_pay_the_step_overhead() {
        let net = star_cluster(4, 1e9, 0.0);
        let mixed = vec![
            // Mixed step: the zero-byte transfer adds no serialization time.
            vec![transfer(0, 1, 0), transfer(2, 3, 1_000_000)],
            // All-zero step: the launch overhead is still paid.
            vec![transfer(1, 2, 0)],
        ];
        let times = step_times(&net, &mixed, 1e-6).unwrap();
        assert!((times[0] - (1e-3 + 1e-6)).abs() < 1e-9);
        assert!((times[1] - 1e-6).abs() < 1e-15);
    }

    /// Lower `steps` to the barrier-shaped engine flows (every transfer
    /// gated on the whole previous non-empty step), each charged the launch
    /// delay `delay_s`.
    fn barrier_flows(steps: &[Vec<StepTransfer>], delay_s: f64) -> Vec<EngineFlow> {
        let mut flows = Vec::new();
        let mut prev: Vec<usize> = Vec::new();
        for step in steps {
            let first = flows.len();
            for t in step {
                flows.push(EngineFlow {
                    src: t.src,
                    dst: t.dst,
                    bytes: t.bytes,
                    release_s: 0.0,
                    delay_s,
                    deps: prev.clone(),
                    job: 0,
                });
            }
            if !step.is_empty() {
                prev = (first..flows.len()).collect();
            }
        }
        flows
    }

    /// Run `flows` to idle on the event-driven fluid engine: the makespan
    /// and every flow's `(start, finish)` window.
    fn engine_run(net: &Network, flows: Vec<EngineFlow>) -> Result<(f64, Vec<(f64, f64)>)> {
        let n = flows.len();
        let mut eng = FluidEngine::new(net);
        eng.inject(&flows)?;
        while eng.step()?.is_some() {}
        Ok((eng.makespan_s(), (0..n).map(|i| eng.window(i)).collect()))
    }

    #[test]
    fn barrier_dag_matches_run_steps_bit_exactly() {
        // Recording the finishes changes no step time: the barrier
        // composition's makespan is the plain runner's left-fold total.
        let net = star_cluster(8, 1e9, 500e-9);
        let steps = vec![
            vec![transfer(0, 1, 1_000_000), transfer(0, 2, 700_000)],
            vec![],
            vec![transfer(2, 3, 2_000_000)],
        ];
        let total = step_times(&net, &steps, 5e-6)
            .unwrap()
            .iter()
            .fold(0.0, |sum, t| sum + t);
        let (makespan_s, windows) = barrier_run(&net, &steps, 5e-6).unwrap();
        assert_eq!(makespan_s.to_bits(), total.to_bits());
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[2].1.to_bits(), makespan_s.to_bits());
    }

    #[test]
    fn pipelined_dag_is_never_slower_than_the_barrier() {
        let net = star_cluster(8, 1e9, 0.0);
        let steps = vec![
            vec![transfer(0, 1, 1_000_000)],
            vec![transfer(2, 3, 1_000_000)],
        ];
        let (barrier_s, _) = barrier_run(&net, &steps, 0.0).unwrap();
        // Drop the cross-step edge: the two disjoint transfers overlap.
        let mut flows = barrier_flows(&steps, 0.0);
        flows[1].deps.clear();
        let (makespan_s, _) = engine_run(&net, flows).unwrap();
        assert!((makespan_s - 1e-3).abs() < 1e-12);
        assert!(makespan_s <= barrier_s);
    }

    #[test]
    fn event_driven_barrier_dag_agrees_with_fast_path() {
        let net = star_cluster(8, 1e9, 500e-9);
        let steps = vec![
            vec![transfer(0, 1, 1_000_000), transfer(2, 1, 500_000)],
            vec![transfer(1, 4, 1_500_000)],
        ];
        let (fast, _) = barrier_run(&net, &steps, 5e-6).unwrap();
        let (event, _) = engine_run(&net, barrier_flows(&steps, 5e-6)).unwrap();
        assert!(
            (fast - event).abs() / fast < 1e-9,
            "fast {fast} vs event {event}"
        );
    }

    #[test]
    fn dag_release_times_gate_transfers() {
        let net = star_cluster(4, 1e9, 0.0);
        let flows = vec![EngineFlow {
            release_s: 2e-3,
            ..barrier_flows(&[vec![transfer(0, 1, 1_000_000)]], 0.0)[0].clone()
        }];
        let (makespan_s, windows) = engine_run(&net, flows).unwrap();
        assert!((makespan_s - 3e-3).abs() < 1e-12);
        assert!((windows[0].0 - 2e-3).abs() < 1e-12);
    }

    /// Regression (review finding): with latency links and zero-byte
    /// gates, the fast path and the event engine must agree, every
    /// dependent's window must start at or after its dependency's finish,
    /// and no window may end past the makespan.
    #[test]
    fn zero_byte_gates_on_latency_links_keep_engines_and_causality_consistent() {
        let net = star_cluster(4, 1e9, 1e-6);
        let steps = vec![vec![transfer(0, 1, 0)], vec![transfer(1, 2, 1_000_000)]];
        for overhead in [0.0, 5e-6] {
            let fast = barrier_run(&net, &steps, overhead).unwrap();
            let event = engine_run(&net, barrier_flows(&steps, overhead)).unwrap();
            for (makespan_s, windows) in [&fast, &event] {
                assert!(
                    windows[1].0 >= windows[0].1 - 1e-15,
                    "dependent starts at {} before its gate finishes at {}",
                    windows[1].0,
                    windows[0].1
                );
                for &(_, finish) in windows {
                    assert!(finish <= makespan_s + 1e-15);
                }
            }
            let scale = fast.0.max(1e-30);
            assert!(
                (fast.0 - event.0).abs() / scale < 1e-9,
                "overhead {overhead}: fast {} vs event {}",
                fast.0,
                event.0
            );
        }
    }

    /// Regression (review finding): an unroutable zero-byte gate in a
    /// mixed stage must fail on the fast path exactly as it does in the
    /// event engine, not be silently accepted.
    #[test]
    fn fast_path_validates_zero_byte_routes_in_mixed_stages() {
        let net = star_cluster(4, 1e9, 0.0);
        // The second transfer is a self-flow: unroutable.
        let steps = vec![vec![transfer(0, 1, 1_000_000), transfer(2, 2, 0)]];
        let fast = barrier_run(&net, &steps, 0.0);
        let event = engine_run(&net, barrier_flows(&steps, 0.0));
        assert_eq!(fast.unwrap_err(), NetError::SelfFlow(2));
        assert_eq!(event.unwrap_err(), NetError::SelfFlow(2));
    }

    #[test]
    fn zero_byte_dag_transfers_gate_but_cost_only_overhead() {
        let net = star_cluster(4, 1e9, 0.0);
        let steps = vec![vec![transfer(0, 1, 0)], vec![transfer(1, 2, 1_000_000)]];
        let (makespan_s, _) = barrier_run(&net, &steps, 1e-6).unwrap();
        // Zero-byte gate completes after its 1 us launch; the dependent
        // pays its own launch then 1 ms of serialization.
        assert!((makespan_s - (2e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn the_runner_recovers_after_a_failed_engine_step() {
        use crate::graph::{Link, Router};
        // Host 0's uplink is dark. Two flows out of host 0 share it, so the
        // step runs on the engine and stalls mid-run; the engine's next
        // step must start from a clean state.
        let mut links = vec![
            Link {
                capacity_bps: 1e9,
                latency_s: 5e-7,
            };
            8
        ];
        links[0].capacity_bps = 0.0;
        let net = Network::from_parts(4, links, Router::Star);
        let stalled = [(0, 1), (0, 2)];
        let shared = [(1, 2), (1, 3), (2, 3)];
        let step = |pairs: &[(usize, usize)]| -> Vec<StepTransfer> {
            pairs
                .iter()
                .map(|&(src, dst)| transfer(src, dst, 1_000_000))
                .collect()
        };
        let mut runner = StepRunner::new(&net, 0.0);
        assert!(matches!(
            runner.step(step(&stalled).into_iter()),
            Err(NetError::StalledFlow { .. })
        ));
        let flows: Vec<FlowSpec> = shared
            .iter()
            .map(|&(src, dst)| FlowSpec::new(src, dst, 1_000_000))
            .collect();
        let want = run_flows(&net, &flows).unwrap().makespan_s;
        for _ in 0..2 {
            let got = runner.step(step(&shared).into_iter()).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn only_a_closed_form_step_of_payloads_on_a_plain_runner_repeats() {
        let net = star_cluster(4, 1e9, 0.0);
        let ring = |first: u64| -> Vec<StepTransfer> {
            (0..4)
                .map(|i| transfer(i, (i + 1) % 4, first + i as u64))
                .collect()
        };
        let mut plain = StepRunner::new(&net, 1e-6);
        let once = plain.step(ring(1_000).into_iter()).unwrap();
        let (recomputations, work, events) = plain.counters();
        assert_eq!(plain.repeat(), Some(once));
        assert_eq!(plain.counters(), (2 * recomputations, 2 * work, 2 * events));
        // A zero-byte transfer, or a recording runner, leaves nothing to
        // repeat: the step must be read.
        assert!(plain.step(ring(0).into_iter()).is_ok());
        assert_eq!(plain.repeat(), None);
        let mut recording = StepRunner::new(&net, 1e-6).recording();
        recording.step(ring(1_000).into_iter()).unwrap();
        assert_eq!(recording.repeat(), None);
    }

    #[test]
    fn parallel_transfers_within_a_step() {
        let net = star_cluster(4, 1e9, 0.0);
        let step = vec![transfer(0, 1, 1_000_000), transfer(2, 3, 1_000_000)];
        let times = step_times(&net, &[step], 0.0).unwrap();
        assert!((times[0] - 1e-3).abs() < 1e-9);
    }
}
