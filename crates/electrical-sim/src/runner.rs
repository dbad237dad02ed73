//! Barrier-stepped execution of collective schedules over the fluid model.
//!
//! All-reduce algorithms are expressed as sequences of steps; the runner
//! starts every transfer of a step simultaneously, waits for the slowest
//! (the barrier all-reduce implementations impose), adds a per-message host
//! overhead, and moves to the next step — mirroring how the paper times its
//! SimGrid baselines.

use crate::engine::FluidEngine;
use crate::error::Result;
use crate::flow::FlowSpec;
use crate::graph::{LinkId, Network};
use crate::sim::{run_flows, DisjointFill, EngineFlow};
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

/// Timing report for a stepped collective run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SteppedReport {
    /// Total time, seconds.
    pub total_time_s: f64,
    /// Per-step durations, seconds.
    pub step_times_s: Vec<f64>,
}

/// Execute `steps` over `net`, paying `per_message_overhead_s` once per step
/// (protocol/launch cost, analogous to the optical per-message overhead).
///
/// Each step goes through one [`StepRunner::step`]; see there for the
/// closed form of link-disjoint steps (every ring, halving-doubling,
/// recursive-doubling and tree step on a star cluster), the reuse of a
/// repeated step's placement and the treatment of zero-byte transfers.
/// The total is the sequential sum of the per-step times.
pub fn run_steps(
    net: &Network,
    steps: &[Vec<StepTransfer>],
    per_message_overhead_s: f64,
) -> Result<SteppedReport> {
    let mut runner = StepRunner::new(net, per_message_overhead_s);
    let step_times = steps
        .iter()
        .map(|step| runner.step(step.iter().copied()))
        .collect::<Result<Vec<f64>>>()?;
    Ok(SteppedReport {
        total_time_s: step_times.iter().sum(),
        step_times_s: step_times,
    })
}

/// The barrier-stepped runner, one step at a time: the per-step path of
/// [`run_steps`] and of every stepped electrical execution.
///
/// A step's duration is the per-step overhead plus the makespan
/// [`run_flows`] computes for its non-empty transfers. The placement half
/// of that computation — the routes, the shared latency `L` and the
/// progressive-fill rates of the link-disjoint closed form — depends only
/// on the step's ordered routing list, never on bytes. So a step whose
/// routing list equals the last placed step's (every step of a ring
/// all-reduce) reuses that placement and redoes only each flow's
/// `(L + bytes/rate).max(L)`. Any other step is routed and checked for
/// link-disjointness once. A step the closed form does not cover (shared
/// links, or a finish that overflows) hands its routes to the fluid engine
/// and is not reused: the memo covers exactly the closed form's steps.
/// The runner keeps one engine and resets it between such steps, so a run
/// of them reuses the engine's per-link and per-flow arrays instead of
/// allocating, and returning to the OS, a fresh set for every step.
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
    /// Routes and latencies of its payload flows, in step order.
    routes: Vec<Vec<LinkId>>,
    latencies: Vec<f64>,
    /// Its closed-form placement: `None` when it has no payload flow (and
    /// no routes), or when the closed form does not apply (and the key is
    /// empty, so nothing is reused).
    fill: Option<DisjointFill>,
    /// The fluid engine of the steps the closed form does not cover, built
    /// on the first one.
    engine: Option<FluidEngine<'n>>,
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
            routes: Vec::new(),
            latencies: Vec::new(),
            fill: None,
            engine: None,
        }
    }

    /// Execute one step and return its duration, seconds.
    pub fn step<I>(&mut self, transfers: I) -> Result<f64>
    where
        I: Iterator<Item = StepTransfer> + Clone,
    {
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
            None if self.routes.is_empty() => Some(0.0),
            None => None,
        };
        let makespan_s = match closed_form {
            Some(m) => m,
            None => {
                // The engine consumes the routes, so a step that needs it
                // leaves no placement to reuse. Its flows are `run_flows`'
                // engine flows: released at 0, no launch delay, no deps.
                self.key.clear();
                let net = self.net;
                let engine = self.engine.get_or_insert_with(|| FluidEngine::new(net));
                engine.reset();
                let flows = payload.map(|t| EngineFlow {
                    src: t.src,
                    dst: t.dst,
                    bytes: t.bytes,
                    release_s: 0.0,
                    delay_s: 0.0,
                    deps: Vec::new(),
                    job: 0,
                });
                let routes = std::mem::take(&mut self.routes);
                let latencies = std::mem::take(&mut self.latencies);
                engine.admit(flows, routes, latencies);
                while engine.step()?.is_some() {}
                engine.makespan_s()
            }
        };
        if !placed {
            for t in transfers.clone().filter(|t| t.bytes == 0) {
                self.net.route(t.src, t.dst)?;
            }
            // Saved only once the step has fully succeeded, so a step that
            // failed is never taken as placed.
            if closed_form.is_some() {
                self.key
                    .extend(transfers.map(|t| (t.src, t.dst, t.bytes > 0)));
            }
        }
        Ok(self.overhead_s + makespan_s)
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
    /// closed-form placement, failing as [`run_flows`] would.
    fn place(&mut self, transfers: impl Iterator<Item = StepTransfer> + Clone) -> Result<()> {
        self.key.clear();
        self.routes.clear();
        self.latencies.clear();
        self.fill = None;
        let payload = transfers.filter(|t| t.bytes > 0);
        let flows = payload.clone().count();
        self.routes.reserve(flows);
        self.latencies.reserve(flows);
        for t in payload.clone() {
            let route = self.net.route(t.src, t.dst)?;
            self.latencies.push(self.net.path_latency(&route));
            self.routes.push(route);
        }
        self.fill = DisjointFill::solve(self.net, &self.routes, &self.latencies, |k| {
            payload.clone().nth(k).map_or((0, 0), |t| (t.src, t.dst))
        })?;
        Ok(())
    }
}

/// The barrier fast path of a dependency-aware schedule: a DAG whose every
/// transfer depends on exactly the whole previous non-empty stage, with no
/// release times. Each stage runs as one fluid solve, and stage times
/// compose exactly like [`run_steps`] — so such a DAG reproduces the
/// stepped runner's total **bit-exactly**. Feed the stages in order with
/// [`BarrierRun::stage`]; the fields accumulate over the stages fed.
#[derive(Debug)]
pub struct BarrierRun<'n> {
    net: &'n Network,
    overhead_s: f64,
    /// Completion time of the last stage: the left-fold sum of
    /// `overhead + stage makespan` over the non-empty stages, seconds.
    pub makespan_s: f64,
    /// Per transfer, in feed order: `(start, finish)`. `start` is its
    /// stage's start, before the launch overhead.
    pub windows: Vec<(f64, f64)>,
    /// Rate solver invocations, summed over the per-stage fluid runs.
    pub rate_recomputations: usize,
    /// Progressive-filling work units, summed likewise.
    pub solver_work: usize,
    /// Discrete events of the per-stage fluid runs, summed likewise.
    pub events: u64,
}

impl<'n> BarrierRun<'n> {
    /// An empty run over `net` that charges `per_message_overhead_s` once
    /// per non-empty stage.
    #[must_use]
    pub fn new(net: &'n Network, per_message_overhead_s: f64) -> Self {
        Self {
            net,
            overhead_s: per_message_overhead_s,
            makespan_s: 0.0,
            windows: Vec::new(),
            rate_recomputations: 0,
            solver_work: 0,
            events: 0,
        }
    }

    /// Run the next stage: its payload flows in one [`run_flows`] solve,
    /// then its zero-byte transfers, which are routed (and so validated) as
    /// every flow is, and finish after the launch alone — within the
    /// stage's overhead slot, so the next stage never starts before them.
    /// An empty stage costs nothing.
    pub fn stage(&mut self, transfers: &[StepTransfer]) -> Result<()> {
        if transfers.is_empty() {
            return Ok(());
        }
        let base = self.makespan_s;
        let first = self.windows.len();
        self.windows
            .resize(first + transfers.len(), (base, base + self.overhead_s));
        let payload: Vec<usize> = (0..transfers.len())
            .filter(|&k| transfers[k].bytes > 0)
            .collect();
        let specs: Vec<FlowSpec> = payload
            .iter()
            .map(|&k| FlowSpec::new(transfers[k].src, transfers[k].dst, transfers[k].bytes))
            .collect();
        let makespan_s = if specs.is_empty() {
            0.0
        } else {
            let report = run_flows(self.net, &specs)?;
            self.rate_recomputations += report.rate_recomputations;
            self.solver_work += report.solver_work;
            self.events += report.events;
            for (&k, outcome) in payload.iter().zip(&report.flows) {
                self.windows[first + k].1 = base + self.overhead_s + outcome.finish_s;
            }
            report.makespan_s
        };
        for t in transfers.iter().filter(|t| t.bytes == 0) {
            self.net.route(t.src, t.dst)?;
        }
        // The exact arithmetic of run_steps: each non-empty stage adds
        // fl(overhead + makespan) to a left-fold running total.
        self.makespan_s += self.overhead_s + makespan_s;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NetError;
    use crate::topology::star_cluster;

    #[test]
    fn steps_are_sequential_and_overhead_is_per_step() {
        let net = star_cluster(4, 1e9, 0.0);
        let steps = vec![
            vec![StepTransfer {
                src: 0,
                dst: 1,
                bytes: 1_000_000,
            }],
            vec![StepTransfer {
                src: 1,
                dst: 2,
                bytes: 1_000_000,
            }],
        ];
        let r = run_steps(&net, &steps, 1e-6).unwrap();
        assert_eq!(r.step_times_s.len(), 2);
        assert!((r.total_time_s - (2e-3 + 2e-6)).abs() < 1e-9);
    }

    #[test]
    fn empty_steps_cost_nothing() {
        let net = star_cluster(4, 1e9, 0.0);
        let r = run_steps(&net, &[vec![]], 1e-6).unwrap();
        assert_eq!(r.total_time_s, 0.0);
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let net = star_cluster(4, 1e9, 0.0);
        let r = run_steps(&net, &[], 1e-6).unwrap();
        assert_eq!(r.total_time_s, 0.0);
        assert!(r.step_times_s.is_empty());
    }

    #[test]
    fn single_step_matches_flow_closed_form() {
        let net = star_cluster(4, 1e9, 0.0);
        let steps = vec![vec![StepTransfer {
            src: 0,
            dst: 1,
            bytes: 3_000_000,
        }]];
        let r = run_steps(&net, &steps, 1e-6).unwrap();
        assert_eq!(r.step_times_s.len(), 1);
        assert!((r.total_time_s - (3e-3 + 1e-6)).abs() < 1e-9);
    }

    #[test]
    fn interior_empty_steps_keep_per_step_alignment() {
        // Campaign and differential consumers zip per-step times against
        // the schedule, so empty steps must keep their slot.
        let net = star_cluster(4, 1e9, 0.0);
        let steps = vec![
            vec![],
            vec![StepTransfer {
                src: 0,
                dst: 1,
                bytes: 1_000_000,
            }],
            vec![],
        ];
        let r = run_steps(&net, &steps, 1e-6).unwrap();
        assert_eq!(r.step_times_s.len(), 3);
        assert_eq!(r.step_times_s[0], 0.0);
        assert_eq!(r.step_times_s[2], 0.0);
        assert!((r.step_times_s[1] - (1e-3 + 1e-6)).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_transfers_are_skipped_but_pay_the_step_overhead() {
        let net = star_cluster(4, 1e9, 0.0);
        // Mixed step: the zero-byte transfer adds no serialization time.
        let mixed = vec![
            vec![
                StepTransfer {
                    src: 0,
                    dst: 1,
                    bytes: 0,
                },
                StepTransfer {
                    src: 2,
                    dst: 3,
                    bytes: 1_000_000,
                },
            ],
            // All-zero step: the launch overhead is still paid.
            vec![StepTransfer {
                src: 1,
                dst: 2,
                bytes: 0,
            }],
        ];
        let r = run_steps(&net, &mixed, 1e-6).unwrap();
        assert!((r.step_times_s[0] - (1e-3 + 1e-6)).abs() < 1e-9);
        assert!((r.step_times_s[1] - 1e-6).abs() < 1e-15);
    }

    fn transfer(src: usize, dst: usize, bytes: u64) -> StepTransfer {
        StepTransfer { src, dst, bytes }
    }

    /// Run `steps` on the barrier fast path, one stage per step.
    fn barrier_run<'n>(
        net: &'n Network,
        steps: &[Vec<StepTransfer>],
        overhead_s: f64,
    ) -> Result<BarrierRun<'n>> {
        let mut run = BarrierRun::new(net, overhead_s);
        for step in steps {
            run.stage(step)?;
        }
        Ok(run)
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
        eng.inject_owned(flows)?;
        while eng.step()?.is_some() {}
        Ok((eng.makespan_s(), (0..n).map(|i| eng.window(i)).collect()))
    }

    #[test]
    fn barrier_dag_matches_run_steps_bit_exactly() {
        let net = star_cluster(8, 1e9, 500e-9);
        let steps = vec![
            vec![transfer(0, 1, 1_000_000), transfer(0, 2, 700_000)],
            vec![],
            vec![transfer(2, 3, 2_000_000)],
        ];
        let stepped = run_steps(&net, &steps, 5e-6).unwrap();
        let fast = barrier_run(&net, &steps, 5e-6).unwrap();
        assert_eq!(fast.makespan_s.to_bits(), stepped.total_time_s.to_bits());
        assert_eq!(fast.windows.len(), 3);
    }

    #[test]
    fn pipelined_dag_is_never_slower_than_the_barrier() {
        let net = star_cluster(8, 1e9, 0.0);
        let steps = vec![
            vec![transfer(0, 1, 1_000_000)],
            vec![transfer(2, 3, 1_000_000)],
        ];
        let barrier = run_steps(&net, &steps, 0.0).unwrap();
        // Drop the cross-step edge: the two disjoint transfers overlap.
        let mut flows = barrier_flows(&steps, 0.0);
        flows[1].deps.clear();
        let (makespan_s, _) = engine_run(&net, flows).unwrap();
        assert!((makespan_s - 1e-3).abs() < 1e-12);
        assert!(makespan_s <= barrier.total_time_s);
    }

    #[test]
    fn event_driven_barrier_dag_agrees_with_fast_path() {
        let net = star_cluster(8, 1e9, 500e-9);
        let steps = vec![
            vec![transfer(0, 1, 1_000_000), transfer(2, 1, 500_000)],
            vec![transfer(1, 4, 1_500_000)],
        ];
        let fast = barrier_run(&net, &steps, 5e-6).unwrap();
        let (event, _) = engine_run(&net, barrier_flows(&steps, 5e-6)).unwrap();
        assert!(
            (fast.makespan_s - event).abs() / fast.makespan_s < 1e-9,
            "fast {} vs event {event}",
            fast.makespan_s
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
            for (makespan_s, windows) in [(fast.makespan_s, &fast.windows), (event.0, &event.1)] {
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
            let scale = fast.makespan_s.max(1e-30);
            assert!(
                (fast.makespan_s - event.0).abs() / scale < 1e-9,
                "overhead {overhead}: fast {} vs event {}",
                fast.makespan_s,
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
        assert_eq!(fast.unwrap_err(), crate::error::NetError::SelfFlow(2));
        assert_eq!(event.unwrap_err(), crate::error::NetError::SelfFlow(2));
    }

    #[test]
    fn zero_byte_dag_transfers_gate_but_cost_only_overhead() {
        let net = star_cluster(4, 1e9, 0.0);
        let steps = vec![vec![transfer(0, 1, 0)], vec![transfer(1, 2, 1_000_000)]];
        let fast = barrier_run(&net, &steps, 1e-6).unwrap();
        // Zero-byte gate completes after its 1 us launch; the dependent
        // pays its own launch then 1 ms of serialization.
        assert!((fast.makespan_s - (2e-6 + 1e-3)).abs() < 1e-12);
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
                .map(|&(src, dst)| StepTransfer {
                    src,
                    dst,
                    bytes: 1_000_000,
                })
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
    fn parallel_transfers_within_a_step() {
        let net = star_cluster(4, 1e9, 0.0);
        let step = vec![
            StepTransfer {
                src: 0,
                dst: 1,
                bytes: 1_000_000,
            },
            StepTransfer {
                src: 2,
                dst: 3,
                bytes: 1_000_000,
            },
        ];
        let r = run_steps(&net, &[step], 0.0).unwrap();
        assert!((r.total_time_s - 1e-3).abs() < 1e-9);
    }
}
