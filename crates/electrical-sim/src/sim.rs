//! The fluid (flow-level) event loop.
//!
//! Rates are recomputed at events (flow release, latency expiry or
//! completion); between events every flow progresses linearly at its
//! max-min fair rate. A flow first sits in a latency phase equal to the sum
//! of its route's link latencies, then competes for bandwidth.
//!
//! Since the kernel unification both engines run on
//! [`wrht_kernel::EventKernel`] — the same discrete-event scheduler the
//! optical substrate uses. Payloads are *lazy*: a flow's `remaining` bytes
//! and its single pending completion event are only touched when its
//! max-min rate actually changes bits, so an event costs work proportional
//! to the affected contention component, not to the number of flows in
//! flight.
//!
//! Two engines share this module:
//!
//! * [`run_flows`] — the production engine. Rates are re-solved
//!   **incrementally**: an event only re-runs progressive filling over the
//!   contention component (flows transitively sharing links) whose
//!   active-flow set actually changed; disjoint flows keep their rates and
//!   pending completion times. Because max-min components are independent,
//!   the resulting rates are bit-identical to a full re-solve. One shape
//!   skips the engine: when every release is 0, every route latency is
//!   bit-identical and the routes are pairwise link-disjoint (every ring,
//!   halving-doubling, recursive-doubling and tree step on a star
//!   cluster), each flow is its own component and the whole run has a
//!   closed form — one progressive fill, then each flow's first completion
//!   candidate. `run_flows` returns it directly, with the counters the
//!   engine would report.
//! * [`run_flows_full_resolve`] — the reference engine: every event
//!   re-runs the full progressive-filling solve over all links × flows
//!   (the pre-incremental behaviour). Kept for differential tests and the
//!   solver benchmarks.
//!
//! Both engines return a typed [`NetError::StalledFlow`] when a flow is
//! frozen at rate zero (its route crosses a zero-capacity link) instead of
//! looping or reporting an infinite/zero makespan.
//!
//! The incremental engine is [`crate::engine::FluidEngine`], which also
//! runs dependency-aware flows ([`EngineFlow`]): flows may declare
//! predecessor edges and are released the instant their last predecessor
//! completes.

use crate::engine::FluidEngine;
use crate::error::{NetError, Result};
use crate::flow::FlowSpec;
use crate::graph::{LinkId, Network};
use crate::maxmin::{maxmin_rates_counted, progressive_fill};
use serde::{Deserialize, Serialize};
use wrht_kernel::EventKernel;

/// Wake-up events of the fluid engines. `Release`/`Timer` only wake the
/// engine (promotion happens in the engine's own `EPS`-tolerant scan, so a
/// wake-up can arrive stale when its flow was promoted early). `Complete`
/// carries the *minimum* completion candidate of one contention component:
/// rescheduling per-flow on every rate change would push (and later lazily
/// discard) one heap entry per affected flow per solve — quadratic churn on
/// an incast — so each solve schedules a single event at the component's
/// earliest candidate instead, and the engine validates it on arrival
/// against the carrier flow's current candidate. Superseded entries simply
/// go stale in the heap; no event is ever cancelled.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Release(usize),
    Timer(usize),
    Complete(usize),
}

/// Completion information for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowOutcome {
    /// Time the flow was released.
    pub release_s: f64,
    /// Time the flow finished delivering its payload.
    pub finish_s: f64,
}

/// Result of a fluid run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Completion time of the last flow, seconds.
    pub makespan_s: f64,
    /// Per-flow outcomes in submission order.
    pub flows: Vec<FlowOutcome>,
    /// Number of rate solver invocations. The incremental engine invokes
    /// the solver once per event whose active-flow set changed, restricted
    /// to the affected contention component; the full-resolve reference
    /// invokes it once per event over everything.
    pub rate_recomputations: usize,
    /// Total progressive-filling work (link shares evaluated plus flow
    /// bottleneck tests, summed over rounds) — the complexity metric that
    /// shows the incremental engine's saving over a full re-solve.
    pub solver_work: usize,
    /// Discrete events processed by the shared kernel (release and latency
    /// wake-ups plus completions). Both engines run on the same event
    /// kernel, so this is the denominator of the events/sec benchmark.
    pub events: u64,
}

/// Absolute tolerance used for time comparisons (seconds) and residual
/// payload (bytes): events within `EPS` coincide and residues below `EPS`
/// complete.
pub const EPS: f64 = 1e-9;

/// One flow of the dependency-aware engine ([`crate::engine::FluidEngine`]):
/// a point-to-point transfer gated on its predecessors, an absolute release
/// time and a per-flow launch delay (protocol/launch overhead paid after the
/// gates open, before the latency pipe).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineFlow {
    /// Source host.
    pub src: usize,
    /// Destination host.
    pub dst: usize,
    /// Payload bytes. 0 is legal and makes the flow a pure control gate:
    /// it completes `delay_s` after its gates open — no latency phase, no
    /// bandwidth competition — mirroring the stepped runner, which
    /// charges zero-byte transfers nothing beyond the launch overhead.
    pub bytes: u64,
    /// Earliest release time, seconds.
    pub release_s: f64,
    /// Launch overhead paid once per flow, seconds.
    pub delay_s: f64,
    /// Indices of flows that must complete first (each `<` own index).
    pub deps: Vec<usize>,
    /// Tenant job the flow belongs to (0 for single-job runs). Drives the
    /// engine's per-job rate attribution
    /// ([`crate::engine::FluidEngine::job_rates`]).
    pub job: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) enum Phase {
    /// Waiting for predecessors to complete.
    Blocked,
    /// Predecessors done; waiting for its release time.
    Pending,
    /// In the launch-delay + latency pipe until the given time.
    Latency(f64),
    /// Transmitting; `remaining` bytes to go.
    Active,
    Done,
    /// Permanently failed by a fault (only under an installed fault
    /// script): terminal like `Done`, but with no completion instant.
    Failed,
}

/// Simulate `specs` over `net` and report completion times.
///
/// Rates are re-solved incrementally per contention component (see the
/// module docs); results are bit-identical to
/// [`run_flows_full_resolve`], with less solver work. Link-disjoint runs
/// (see the module docs) skip the engine: their result, counters
/// included, is computed directly.
pub fn run_flows(net: &Network, specs: &[FlowSpec]) -> Result<RunReport> {
    for s in specs {
        if s.bytes == 0 {
            return Err(NetError::EmptyFlow {
                src: s.src,
                dst: s.dst,
            });
        }
    }
    // Route every flow once, in flow order, so the first unroutable flow
    // fails the run exactly as the engine's injection would.
    let mut routes: Vec<Vec<LinkId>> = Vec::with_capacity(specs.len());
    let mut latencies: Vec<f64> = Vec::with_capacity(specs.len());
    for s in specs {
        let route = net.route(s.src, s.dst)?;
        latencies.push(net.path_latency(&route));
        routes.push(route);
    }
    if let Some(report) = link_disjoint_run(net, specs, &routes, &latencies)? {
        return Ok(report);
    }
    let mut eng = FluidEngine::new(net);
    let flows = specs.iter().map(|s| EngineFlow {
        src: s.src,
        dst: s.dst,
        bytes: s.bytes,
        release_s: s.release_s(),
        delay_s: 0.0,
        deps: Vec::new(),
        job: 0,
    });
    eng.admit(flows, routes, latencies);
    while eng.step()?.is_some() {}
    Ok(RunReport {
        makespan_s: eng.makespan_s(),
        flows: specs
            .iter()
            .enumerate()
            .map(|(i, s)| FlowOutcome {
                release_s: s.release_s(),
                finish_s: eng.window(i).1,
            })
            .collect(),
        rate_recomputations: eng.rate_recomputations(),
        solver_work: eng.solver_work(),
        events: eng.events(),
    })
}

/// The engine's exact result for one shape of run, computed without the
/// engine, or `None` for any other shape. The preconditions:
///
/// 1. every release is `0.0`;
/// 2. every route latency `L` is bit-identical (and finite);
/// 3. the routes are pairwise link-disjoint (no link is crossed twice).
///
/// Every ring, halving-doubling, recursive-doubling and tree step on a star
/// cluster qualifies. The engine then promotes every flow in one pass
/// (behind one shared latency timer when `L > 0`), solves all of them in
/// one progressive fill in which each flow is its own contention
/// component, and completes each flow at its first candidate,
/// `(L + bytes/rate).max(L)`, with nothing left to re-solve. So the run
/// reports one rate recomputation, that fill's solver work and `n` events
/// (`2n` when `L > 0`: the timers, then the completions). A stalled flow
/// fails the run as the engine's first solve does; a finish that
/// overflows to infinity is left to the engine.
fn link_disjoint_run(
    net: &Network,
    specs: &[FlowSpec],
    routes: &[Vec<LinkId>],
    latencies: &[f64],
) -> Result<Option<RunReport>> {
    if specs.iter().any(|s| s.release_s_ns != 0) {
        return Ok(None);
    }
    let Some(fill) = DisjointFill::solve(net, routes, latencies, |k| (specs[k].src, specs[k].dst))?
    else {
        return Ok(None);
    };
    let mut outcomes = Vec::with_capacity(specs.len());
    for (s, &rate) in specs.iter().zip(&fill.rates) {
        let Some(finish_s) = fill.finish(s.bytes, rate) else {
            return Ok(None);
        };
        outcomes.push(FlowOutcome {
            release_s: 0.0,
            finish_s,
        });
    }
    let n = specs.len() as u64;
    Ok(Some(RunReport {
        makespan_s: outcomes.iter().map(|f| f.finish_s).fold(0.0f64, f64::max),
        flows: outcomes,
        rate_recomputations: 1,
        solver_work: fill.solver_work,
        events: if fill.start_s > 0.0 { 2 * n } else { n },
    }))
}

/// The placement half of [`link_disjoint_run`]: preconditions 2 and 3,
/// the one progressive fill and its stall check. It reads routes and
/// latencies only, never bytes, so it holds for every flow list with the
/// same routes.
#[derive(Debug)]
pub(crate) struct DisjointFill {
    /// Instant every flow starts transmitting: the shared latency when it
    /// is positive, else 0.
    pub start_s: f64,
    /// Each flow's max-min rate, in flow order (finite and positive).
    pub rates: Vec<f64>,
    /// The fill's progressive-filling work.
    pub solver_work: usize,
}

impl DisjointFill {
    /// The fill of `routes`, or `None` when a latency differs (in bits) or
    /// is not finite, or a link is crossed twice. A flow frozen at rate
    /// zero fails with [`NetError::StalledFlow`] naming `endpoints(k)`.
    pub(crate) fn solve(
        net: &Network,
        routes: &[Vec<LinkId>],
        latencies: &[f64],
        endpoints: impl Fn(usize) -> (usize, usize),
    ) -> Result<Option<Self>> {
        let Some(&lat) = latencies.first() else {
            return Ok(None);
        };
        if !lat.is_finite() || latencies.iter().any(|l| l.to_bits() != lat.to_bits()) {
            return Ok(None);
        }
        let mut links: Vec<usize> = routes.iter().flatten().map(|l| l.0).collect();
        links.sort_unstable();
        if links.windows(2).any(|w| w[0] == w[1]) {
            return Ok(None);
        }
        // The engine's one solve: every listed link carries exactly one flow.
        let mut capacity = vec![0.0f64; net.links().len()];
        let mut active = vec![0usize; net.links().len()];
        for &l in &links {
            capacity[l] = net.links()[l].capacity_bps;
            active[l] = 1;
        }
        let ascending: Vec<usize> = (0..routes.len()).collect();
        let mut rates = vec![0.0f64; routes.len()];
        let mut solver_work = 0usize;
        progressive_fill(
            &links,
            &ascending,
            routes,
            &mut capacity,
            &mut active,
            &mut rates,
            &mut solver_work,
        );
        if let Some(k) = rates.iter().position(|&r| r.is_nan() || r <= 0.0) {
            let (src, dst) = endpoints(k);
            return Err(NetError::StalledFlow { src, dst });
        }
        // A positive pipe parks every flow until its timer; otherwise flows
        // start transmitting at once.
        Ok(Some(Self {
            start_s: if lat > 0.0 { lat } else { 0.0 },
            rates,
            solver_work,
        }))
    }

    /// The closed-form finish of a flow of `bytes` at `rate` (one of
    /// [`DisjointFill::rates`]), or `None` when it overflows to infinity
    /// and the engine must decide.
    pub(crate) fn finish(&self, bytes: u64, rate: f64) -> Option<f64> {
        let finish_s = (self.start_s + bytes as f64 / rate).max(self.start_s);
        (!finish_s.is_infinite()).then_some(finish_s)
    }
}

/// The pre-incremental reference engine: every event re-runs the full
/// progressive-filling solve over all links × flows. Used by differential
/// tests (its outcomes must match [`run_flows`] bit-exactly) and by the
/// `maxmin_incremental` benchmark as the cost baseline.
pub fn run_flows_full_resolve(net: &Network, specs: &[FlowSpec]) -> Result<RunReport> {
    let n = specs.len();
    if n == 0 {
        return Ok(RunReport {
            makespan_s: 0.0,
            flows: Vec::new(),
            rate_recomputations: 0,
            solver_work: 0,
            events: 0,
        });
    }

    // Validate and pre-route everything up front.
    let mut routes: Vec<Vec<LinkId>> = Vec::with_capacity(n);
    let mut latencies: Vec<f64> = Vec::with_capacity(n);
    for s in specs {
        if s.bytes == 0 {
            return Err(NetError::EmptyFlow {
                src: s.src,
                dst: s.dst,
            });
        }
        let route = net.route(s.src, s.dst)?;
        latencies.push(net.path_latency(&route));
        routes.push(route);
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum SimplePhase {
        Pending,
        Latency(f64),
        Active,
        Done,
    }

    let mut phase: Vec<SimplePhase> = vec![SimplePhase::Pending; n];
    let mut remaining: Vec<f64> = specs.iter().map(|s| s.bytes as f64).collect();
    let mut finish: Vec<f64> = vec![0.0; n];
    let mut rate = vec![0.0f64; n];
    let mut now = 0.0f64;
    let mut recomputations = 0usize;
    let mut solver_work = 0usize;

    // Same event-kernel discipline as the engine — lazy `remaining`,
    // candidates recomputed only when a flow's rate changes bits, and a
    // single pending `Complete` event at the earliest candidate (the full
    // solve treats all active flows as one component, so the global
    // minimum is the right granularity where the engine uses one event
    // per true component). Because max-min components are independent, the
    // full solve changes exactly the same rate bits at exactly the same
    // instants as the incremental component solve, which is what keeps the
    // two engines bit-identical.
    let mut kernel: EventKernel<Ev> = EventKernel::with_capacity(n);
    let mut release_scheduled = vec![false; n];
    let mut last_update = vec![0.0f64; n];
    let mut cand = vec![f64::INFINITY; n];
    let mut sched_cand = vec![f64::INFINITY; n];
    let mut batch: Vec<Ev> = Vec::new();

    loop {
        // Promote pending/latency flows whose timers expired.
        for i in 0..n {
            match phase[i] {
                SimplePhase::Pending if specs[i].release_s() <= now + EPS => {
                    let ready = now + latencies[i];
                    if latencies[i] > 0.0 {
                        phase[i] = SimplePhase::Latency(ready);
                        kernel
                            .schedule_at(ready, Ev::Timer(i))
                            .expect("latency expiry is ahead of the clock");
                    } else {
                        phase[i] = SimplePhase::Active;
                    }
                }
                SimplePhase::Latency(t) if t <= now + EPS => phase[i] = SimplePhase::Active,
                // Future release: schedule its wake-up exactly once.
                SimplePhase::Pending if !release_scheduled[i] => {
                    release_scheduled[i] = true;
                    kernel
                        .schedule_at(specs[i].release_s(), Ev::Release(i))
                        .expect("pending release is ahead of the clock");
                }
                _ => {}
            }
        }

        // Gather active flows and recompute ALL rates from scratch.
        let active_idx: Vec<usize> = (0..n)
            .filter(|&i| phase[i] == SimplePhase::Active)
            .collect();
        if !active_idx.is_empty() {
            recomputations += 1;
            let active_routes: Vec<Vec<LinkId>> =
                active_idx.iter().map(|&i| routes[i].clone()).collect();
            let rates = maxmin_rates_counted(net, &active_routes, &mut solver_work);
            for (k, &i) in active_idx.iter().enumerate() {
                if rates[k].is_nan() || rates[k] <= 0.0 {
                    return Err(NetError::StalledFlow {
                        src: specs[i].src,
                        dst: specs[i].dst,
                    });
                }
                if rates[k].to_bits() == rate[i].to_bits() {
                    continue;
                }
                remaining[i] -= rate[i] * (now - last_update[i]);
                last_update[i] = now;
                rate[i] = rates[k];
                cand[i] = if rate[i].is_finite() {
                    (now + remaining[i] / rate[i]).max(now)
                } else {
                    now
                };
            }
            let mut best = (f64::INFINITY, usize::MAX);
            for &i in &active_idx {
                if cand[i] < best.0 {
                    best = (cand[i], i);
                }
            }
            let (t, f) = best;
            if f != usize::MAX && sched_cand[f].to_bits() != t.to_bits() {
                sched_cand[f] = t;
                kernel
                    .schedule_at(t, Ev::Complete(f))
                    .expect("completion candidate is ahead of the clock");
            }
        }

        // Next batch of same-instant events; stale wake-ups (flows promoted
        // EPS-early) and superseded candidates only advance the kernel
        // clock. Same validation-on-pop as the engine.
        let batch_time = loop {
            batch.clear();
            match kernel.pop_batch(&mut batch) {
                None => break None,
                Some(t) => {
                    let mut live = false;
                    for ev in &batch {
                        match *ev {
                            Ev::Release(i) => live |= phase[i] == SimplePhase::Pending,
                            Ev::Timer(i) => {
                                live |= matches!(phase[i], SimplePhase::Latency(_));
                            }
                            Ev::Complete(i) => {
                                if sched_cand[i].to_bits() == t.to_bits() {
                                    sched_cand[i] = f64::INFINITY;
                                }
                                live |= phase[i] == SimplePhase::Active
                                    && cand[i].to_bits() == t.to_bits();
                            }
                        }
                    }
                    if live {
                        break Some(t);
                    }
                }
            }
        };
        let Some(next) = batch_time else {
            break; // All done (no dependencies, so the queue only drains).
        };

        // Completions by candidate, not by carrier (see the engine).
        batch.clear();
        for i in 0..n {
            if phase[i] == SimplePhase::Active && cand[i].to_bits() == next.to_bits() {
                remaining[i] = 0.0;
                phase[i] = SimplePhase::Done;
                finish[i] = next;
            }
        }
        now = next;

        if phase.iter().all(|&p| p == SimplePhase::Done) {
            break;
        }
    }

    let makespan = finish.iter().copied().fold(0.0f64, f64::max);
    Ok(RunReport {
        makespan_s: makespan,
        flows: specs
            .iter()
            .zip(&finish)
            .map(|(s, &f)| FlowOutcome {
                release_s: s.release_s(),
                finish_s: f,
            })
            .collect(),
        rate_recomputations: recomputations,
        solver_work,
        events: kernel.events_processed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ring, star_cluster};

    #[test]
    fn single_flow_latency_plus_serialization() {
        let net = star_cluster(2, 1e9, 1e-6);
        let r = run_flows(&net, &[FlowSpec::new(0, 1, 1_000_000)]).unwrap(); // 1 MB
                                                                             // 2 links of 1 us latency, then 1 MB at 1 GB/s = 1 ms.
        assert!((r.makespan_s - (2e-6 + 1e-3)).abs() < 1e-9);
    }

    #[test]
    fn sharing_doubles_completion() {
        let net = star_cluster(4, 1e9, 0.0);
        let specs = [
            FlowSpec::new(0, 1, 1_000_000),
            FlowSpec::new(0, 2, 1_000_000),
        ];
        let r = run_flows(&net, &specs).unwrap();
        assert!((r.makespan_s - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn freed_bandwidth_speeds_up_survivors() {
        let net = star_cluster(4, 1e9, 0.0);
        // Short and long flow share an uplink; after the short one finishes
        // the long one runs at full rate.
        let specs = [FlowSpec::new(0, 1, 500_000), FlowSpec::new(0, 2, 1_500_000)];
        let r = run_flows(&net, &specs).unwrap();
        // Phase 1: both at 0.5 GB/s until the short flow ends at t=1ms
        // (0.5 MB each transferred). Phase 2: 1.0 MB left at 1 GB/s = 1 ms.
        assert!((r.flows[0].finish_s - 1e-3).abs() < 1e-9);
        assert!((r.flows[1].finish_s - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn staggered_release() {
        let net = star_cluster(4, 1e9, 0.0);
        let specs = [
            FlowSpec::new(0, 1, 1_000_000),
            FlowSpec::released_at(0, 2, 1_000_000, 2e-3),
        ];
        let r = run_flows(&net, &specs).unwrap();
        // First finishes alone at 1 ms; second starts at 2 ms, alone, ends 3 ms.
        assert!((r.flows[0].finish_s - 1e-3).abs() < 1e-9);
        assert!((r.flows[1].finish_s - 3e-3).abs() < 1e-9);
    }

    #[test]
    fn ring_neighbor_exchange_is_contention_free() {
        let net = ring(8, 1e9, 0.0);
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::new(i, (i + 1) % 8, 1_000_000))
            .collect();
        let r = run_flows(&net, &specs).unwrap();
        assert!((r.makespan_s - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn empty_run() {
        let net = star_cluster(2, 1e9, 0.0);
        let r = run_flows(&net, &[]).unwrap();
        assert_eq!(r.makespan_s, 0.0);
    }

    #[test]
    fn zero_byte_flow_rejected() {
        let net = star_cluster(2, 1e9, 0.0);
        assert!(run_flows(&net, &[FlowSpec::new(0, 1, 0)]).is_err());
    }

    #[test]
    fn submitting_after_run_starts_fresh() {
        // Runs over one network are independent: a second run reports only
        // its own flows.
        let net = star_cluster(2, 1e9, 0.0);
        run_flows(&net, &[FlowSpec::new(0, 1, 1_000)]).unwrap();
        let r = run_flows(&net, &[FlowSpec::new(1, 0, 1_000)]).unwrap();
        assert_eq!(r.flows.len(), 1);
    }

    /// Satellite regression: a flow crossing a zero-capacity link is frozen
    /// at rate 0; the engine must fail typed instead of looping or
    /// reporting an infinite/zero makespan.
    #[test]
    fn zero_capacity_link_is_a_typed_stall() {
        let net = star_cluster(4, 0.0, 0.0);
        let err = run_flows(&net, &[FlowSpec::new(0, 1, 1_000)]).unwrap_err();
        assert_eq!(err, NetError::StalledFlow { src: 0, dst: 1 });
        let err = run_flows_full_resolve(&net, &[FlowSpec::new(0, 1, 1_000)]).unwrap_err();
        assert_eq!(err, NetError::StalledFlow { src: 0, dst: 1 });
    }

    /// The incremental engine must agree bit-exactly with the full-resolve
    /// reference — same makespan, same per-flow finishes — while doing no
    /// more solver work.
    #[test]
    fn incremental_matches_full_resolve_bit_exactly() {
        let net = star_cluster(8, 1e9, 500e-9);
        let specs: Vec<FlowSpec> = vec![
            FlowSpec::new(0, 1, 1_000_000),
            FlowSpec::new(0, 2, 700_000),
            FlowSpec::new(3, 4, 900_000),
            FlowSpec::released_at(5, 1, 400_000, 3e-4),
            FlowSpec::new(6, 7, 123_456),
        ];
        let a = run_flows(&net, &specs).unwrap();
        let b = run_flows_full_resolve(&net, &specs).unwrap();
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
        for (x, y) in a.flows.iter().zip(&b.flows) {
            assert_eq!(x.finish_s.to_bits(), y.finish_s.to_bits());
        }
        assert!(
            a.solver_work <= b.solver_work,
            "incremental {} vs full {}",
            a.solver_work,
            b.solver_work
        );
    }

    /// Disjoint components must not be re-solved when an unrelated flow
    /// completes.
    #[test]
    fn disjoint_completions_skip_unaffected_components() {
        let net = star_cluster(8, 1e9, 0.0);
        // Three disjoint pairs with different sizes: three completion
        // events, each only dirtying its own pair of links.
        let specs = vec![
            FlowSpec::new(0, 1, 1_000_000),
            FlowSpec::new(2, 3, 2_000_000),
            FlowSpec::new(4, 5, 3_000_000),
        ];
        let a = run_flows(&net, &specs).unwrap();
        let b = run_flows_full_resolve(&net, &specs).unwrap();
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
        // Full resolve solves 3 flows, then 2, then 1; incremental solves
        // each pair exactly once (at activation) and never again.
        assert!(
            a.solver_work < b.solver_work,
            "incremental {} vs full {}",
            a.solver_work,
            b.solver_work
        );
    }

    /// Inject `flows` into a fresh engine as one batch and step it to idle.
    fn engine_run(net: &Network, flows: Vec<EngineFlow>) -> Result<FluidEngine<'_>> {
        let mut eng = FluidEngine::new(net);
        eng.inject_owned(flows)?;
        while eng.step()?.is_some() {}
        Ok(eng)
    }

    #[test]
    fn dependency_chain_serializes_flows() {
        let net = star_cluster(4, 1e9, 0.0);
        let flows = vec![
            EngineFlow {
                src: 0,
                dst: 1,
                bytes: 1_000_000,
                release_s: 0.0,
                delay_s: 0.0,
                deps: vec![],
                job: 0,
            },
            EngineFlow {
                src: 1,
                dst: 2,
                bytes: 1_000_000,
                release_s: 0.0,
                delay_s: 0.0,
                deps: vec![0],
                job: 0,
            },
        ];
        let r = engine_run(&net, flows).unwrap();
        assert!((r.window(0).1 - 1e-3).abs() < 1e-12);
        assert!((r.window(1).0 - 1e-3).abs() < 1e-12);
        assert!((r.makespan_s() - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn zero_byte_engine_flow_gates_dependents() {
        let net = star_cluster(4, 1e9, 0.0);
        let flows = vec![
            EngineFlow {
                src: 0,
                dst: 1,
                bytes: 0,
                release_s: 1e-3,
                delay_s: 0.0,
                deps: vec![],
                job: 0,
            },
            EngineFlow {
                src: 1,
                dst: 2,
                bytes: 1_000_000,
                release_s: 0.0,
                delay_s: 0.0,
                deps: vec![0],
                job: 0,
            },
        ];
        let r = engine_run(&net, flows).unwrap();
        // The zero-byte flow completes instantly at its release; the
        // dependent starts right there.
        assert!((r.window(0).1 - 1e-3).abs() < 1e-12);
        assert!((r.window(1).0 - 1e-3).abs() < 1e-12);
        assert!((r.makespan_s() - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn forward_dependency_is_rejected() {
        let net = star_cluster(4, 1e9, 0.0);
        let flows = vec![EngineFlow {
            src: 0,
            dst: 1,
            bytes: 1,
            release_s: 0.0,
            delay_s: 0.0,
            deps: vec![0],
            job: 0,
        }];
        assert!(matches!(
            engine_run(&net, flows),
            Err(NetError::BadConfig(_))
        ));
    }

    #[test]
    fn launch_delay_shifts_the_flow() {
        let net = star_cluster(4, 1e9, 0.0);
        let flows = vec![EngineFlow {
            src: 0,
            dst: 1,
            bytes: 1_000_000,
            release_s: 0.0,
            delay_s: 5e-6,
            deps: vec![],
            job: 0,
        }];
        let r = engine_run(&net, flows).unwrap();
        assert!((r.makespan_s() - (5e-6 + 1e-3)).abs() < 1e-12);
    }
}
