//! The fluid (flow-level) event loop.
//!
//! Rates are recomputed at events (flow release, latency expiry or
//! completion); between events every flow progresses linearly at its
//! max-min fair rate. A flow first sits in a latency phase equal to the sum
//! of its route's link latencies, then competes for bandwidth.
//!
//! The fluid engine runs on [`wrht_kernel::EventKernel`] — the same
//! discrete-event scheduler the optical substrate uses. Payloads are
//! *lazy*: a flow's `remaining` bytes and its single pending completion
//! event are only touched when its max-min rate actually changes bits, so
//! an event costs work proportional to the affected contention component,
//! not to the number of flows in flight.
//!
//! [`run_flows`] steps that engine ([`crate::engine::FluidEngine`]) on a
//! plain flow set. Rates are re-solved **incrementally**: an event only
//! re-runs progressive filling over the contention component (flows
//! transitively sharing links) whose active-flow set actually changed;
//! disjoint flows keep their rates and pending completion times. Because
//! max-min components are independent, the resulting rates are
//! bit-identical to a full re-solve of every flow at every event, which the
//! electrical-sim test suite keeps as its reference. A flow frozen at rate
//! zero (its route crosses a zero-capacity link) fails the run with a typed
//! [`NetError::StalledFlow`] instead of looping or reporting an
//! infinite/zero makespan.
//!
//! The engine also runs dependency-aware flows ([`EngineFlow`]): flows may
//! declare predecessor edges and are released the instant their last
//! predecessor completes.

use crate::engine::FluidEngine;
use crate::error::{NetError, Result};
use crate::flow::FlowSpec;
use crate::graph::Network;
use serde::{Deserialize, Serialize};

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
    /// Number of rate solver invocations: one per event whose active-flow
    /// set changed, restricted to the affected contention component.
    pub rate_recomputations: usize,
    /// Total progressive-filling work (link shares evaluated plus flow
    /// bottleneck tests, summed over rounds) — the complexity metric that
    /// shows the incremental engine's saving over a full re-solve.
    pub solver_work: usize,
    /// Discrete events processed by the event kernel (release and latency
    /// wake-ups plus completions): the denominator of the events/sec
    /// benchmark.
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

/// Simulate `specs` over `net` on the fluid engine and report completion
/// times.
///
/// # Errors
/// [`NetError::EmptyFlow`] for a zero-byte flow, then the engine's
/// injection and run-time errors.
pub fn run_flows(net: &Network, specs: &[FlowSpec]) -> Result<RunReport> {
    if let Some(s) = specs.iter().find(|s| s.bytes == 0) {
        return Err(NetError::EmptyFlow {
            src: s.src,
            dst: s.dst,
        });
    }
    let mut eng = FluidEngine::new(net);
    eng.inject_from(specs.iter().map(|s| {
        let flow = EngineFlow {
            src: s.src,
            dst: s.dst,
            bytes: s.bytes,
            release_s: s.release_s(),
            delay_s: 0.0,
            deps: Vec::new(),
            job: 0,
        };
        (flow, std::iter::empty())
    }))?;
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
    }

    /// Inject `flows` into a fresh engine as one batch and step it to idle.
    fn engine_run(net: &Network, flows: Vec<EngineFlow>) -> Result<FluidEngine<'_>> {
        let mut eng = FluidEngine::new(net);
        eng.inject(&flows)?;
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
