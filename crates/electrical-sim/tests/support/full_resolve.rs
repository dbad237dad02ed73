//! The full-resolve reference of the fluid model, kept as a test oracle.
//!
//! [`run_flows_full_resolve`] re-runs progressive filling over every link
//! and every active flow at each event, the behaviour before the fluid
//! engine learned to re-solve only the contention component an event
//! changed. Because max-min components are independent, both must give
//! the same rates at the same instants, so the incremental engine
//! (`electrical_sim::sim::run_flows`) must match this reference bit for
//! bit while doing no more solver work. The electrical-sim `full_resolve`
//! suite checks that, and the `maxmin_incremental` benchmark includes this
//! file to time both. The reference fills with the routine as it was before
//! the engine kept flat routes (`progressive_fill.rs`, next to this file),
//! so the engine's own routine is checked against an independent one.

#[path = "progressive_fill.rs"]
mod progressive_fill;

use electrical_sim::error::{NetError, Result};
use electrical_sim::flow::FlowSpec;
use electrical_sim::graph::{LinkId, Network};
use electrical_sim::sim::{FlowOutcome, RunReport, EPS};
use progressive_fill::maxmin_rates_counted;
use wrht_kernel::EventKernel;

/// Wake-up events of the reference engine, as in the fluid engine.
/// `Release`/`Timer` only wake the engine (promotion happens in its own
/// `EPS`-tolerant scan, so a wake-up can arrive stale when its flow was
/// promoted early). `Complete` carries the *minimum* completion candidate:
/// each solve schedules a single event at the earliest candidate, and the
/// engine validates it on arrival against the carrier flow's current
/// candidate. Superseded entries simply go stale in the heap; no event is
/// ever cancelled.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Release(usize),
    Timer(usize),
    Complete(usize),
}

/// The pre-incremental reference engine: every event re-runs the full
/// progressive-filling solve over all links × flows. Its outcomes must
/// match `run_flows`' bit for bit; the `maxmin_incremental` benchmark
/// times it as the cost baseline.
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
