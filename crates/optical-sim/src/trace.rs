//! Execution traces: per-transfer records of a stepped run, exportable as
//! JSON for timeline visualization or external analysis.

use crate::error::Result;
use crate::request::Transfer;
use crate::rwa::{Occupancy, Strategy};
use crate::sim::{RingSimulator, StepSchedule};
use crate::topology::Direction;
use crate::wavelength::Wavelength;
use serde::{Deserialize, Serialize};

/// One transfer's execution record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Step index in the schedule.
    pub step: usize,
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Resolved propagation direction.
    pub direction: Direction,
    /// Hop count of the lightpath.
    pub hops: usize,
    /// Wavelengths assigned (lane striping).
    pub lambdas: Vec<usize>,
    /// Transfer start time, seconds (steps are barriers).
    pub start_s: f64,
    /// Transfer finish time, seconds.
    pub finish_s: f64,
}

/// A full run trace.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunTrace {
    /// Entries in (step, submission) order.
    pub entries: Vec<TraceEntry>,
}

impl RunTrace {
    /// Total wall-clock span covered by the trace.
    #[must_use]
    pub fn makespan_s(&self) -> f64 {
        self.entries.iter().map(|e| e.finish_s).fold(0.0, f64::max)
    }

    /// Entries of one step.
    #[must_use]
    pub fn step(&self, step: usize) -> Vec<&TraceEntry> {
        self.entries.iter().filter(|e| e.step == step).collect()
    }

    /// Busiest wavelength (most transfer-seconds) and its load.
    ///
    /// Deterministic: candidates are compared in ascending wavelength-index
    /// order (a `BTreeMap`, not a hash map, so no `RandomState` order leaks
    /// into the answer), and on a tied load the *highest* wavelength index
    /// wins — the same answer on every run for the same trace.
    #[must_use]
    pub fn busiest_wavelength(&self) -> Option<(usize, f64)> {
        use std::collections::BTreeMap;
        let mut load: BTreeMap<usize, f64> = BTreeMap::new();
        for e in &self.entries {
            for &l in &e.lambdas {
                *load.entry(l).or_insert(0.0) += e.finish_s - e.start_s;
            }
        }
        // max_by keeps the LAST maximum; ascending key order makes that the
        // highest tied wavelength index.
        load.into_iter().max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Execute a stepped schedule while recording a full per-transfer trace.
///
/// Semantics are identical to [`RingSimulator::run_stepped`]; this exists
/// as a separate entry point so the hot path stays allocation-light.
pub fn run_stepped_traced(
    sim: &mut RingSimulator,
    schedule: &StepSchedule,
    strategy: Strategy,
) -> Result<(f64, RunTrace)> {
    let topo = sim.topology().clone();
    let config = sim.config().clone();
    let timing = config.timing();
    let mut trace = RunTrace::default();
    let mut clock = 0.0f64;

    for (index, step) in schedule.steps().iter().enumerate() {
        let mut occ = Occupancy::new(topo.nodes(), config.wavelengths);
        let mut duration = 0.0f64;
        for tr in step {
            let path = tr.resolve(&topo)?;
            let lambdas: Vec<Wavelength> = occ
                .assign(&path, tr.lanes, strategy)
                .map_err(|e| e.at_step(index))?;
            let t = timing.transfer_time(tr.bytes, tr.lanes, path.hops());
            trace.entries.push(TraceEntry {
                step: index,
                src: tr.src.0,
                dst: tr.dst.0,
                bytes: tr.bytes,
                direction: path.direction,
                hops: path.hops(),
                lambdas: lambdas.iter().map(|l| l.0).collect(),
                start_s: clock,
                finish_s: clock + t,
            });
            duration = duration.max(t);
        }
        clock += duration;
    }
    Ok((clock, trace))
}

/// Convenience: trace a single-step batch of transfers.
pub fn trace_step(
    sim: &mut RingSimulator,
    transfers: Vec<Transfer>,
    strategy: Strategy,
) -> Result<RunTrace> {
    let (_, trace) = run_stepped_traced(sim, &StepSchedule::from_steps(vec![transfers]), strategy)?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OpticalConfig;
    use crate::error::OpticalError;
    use crate::topology::NodeId;

    fn sim() -> RingSimulator {
        RingSimulator::new(
            OpticalConfig::new(8, 4)
                .with_lambda_bandwidth(1e9)
                .with_message_overhead(0.0)
                .with_hop_propagation(0.0),
        )
    }

    #[test]
    fn trace_matches_untraced_run() {
        let sched = StepSchedule::from_steps(vec![
            vec![Transfer::shortest(NodeId(0), NodeId(2), 1_000_000)],
            vec![Transfer::shortest(NodeId(2), NodeId(4), 2_000_000)],
        ]);
        let mut s = sim();
        let plain = s.run_stepped(&sched, Strategy::FirstFit).unwrap();
        let (total, trace) = run_stepped_traced(&mut s, &sched, Strategy::FirstFit).unwrap();
        assert!((total - plain.total_time_s).abs() < 1e-15);
        assert_eq!(trace.entries.len(), 2);
        assert!((trace.makespan_s() - total).abs() < 1e-15);
    }

    #[test]
    fn exhaustion_names_the_failing_step_like_run_stepped() {
        // Step 0 fits; step 1 nests five paths into one receiver, one more
        // than the ring's four wavelengths.
        let nested: Vec<Transfer> = (0..5)
            .map(|i| Transfer::directed(NodeId(i), NodeId(5), 100, Direction::Clockwise))
            .collect();
        let sched = StepSchedule::from_steps(vec![
            vec![Transfer::shortest(NodeId(0), NodeId(1), 100)],
            nested,
        ]);
        let expected = OpticalError::WavelengthsExhausted {
            available: 4,
            requested: 1,
            step: 1,
        };
        for strategy in [Strategy::FirstFit, Strategy::BestFit] {
            let mut s = sim();
            assert_eq!(s.run_stepped(&sched, strategy).unwrap_err(), expected);
            assert_eq!(
                run_stepped_traced(&mut s, &sched, strategy).unwrap_err(),
                expected
            );
        }
    }

    #[test]
    fn steps_are_barrier_aligned() {
        let sched = StepSchedule::from_steps(vec![
            vec![
                Transfer::shortest(NodeId(0), NodeId(1), 500_000),
                Transfer::shortest(NodeId(4), NodeId(5), 1_000_000),
            ],
            vec![Transfer::shortest(NodeId(1), NodeId(2), 100)],
        ]);
        let mut s = sim();
        let (_, trace) = run_stepped_traced(&mut s, &sched, Strategy::FirstFit).unwrap();
        // Second step starts only after the slowest first-step transfer.
        let step2 = trace.step(1);
        assert!((step2[0].start_s - 1e-3).abs() < 1e-12);
        // Within a step, all transfers share the start time.
        let step1 = trace.step(0);
        assert_eq!(step1[0].start_s, step1[1].start_s);
    }

    #[test]
    fn lambdas_are_recorded_per_lane() {
        let sched =
            StepSchedule::from_steps(vec![vec![
                Transfer::shortest(NodeId(0), NodeId(3), 1000).with_lanes(3)
            ]]);
        let mut s = sim();
        let (_, trace) = run_stepped_traced(&mut s, &sched, Strategy::FirstFit).unwrap();
        assert_eq!(trace.entries[0].lambdas, vec![0, 1, 2]);
        assert_eq!(trace.entries[0].hops, 3);
    }

    #[test]
    fn busiest_wavelength_accounts_duration() {
        let mut s = sim();
        let trace = trace_step(
            &mut s,
            vec![
                Transfer::shortest(NodeId(0), NodeId(1), 1_000_000), // lambda 0, 1 ms
                Transfer::shortest(NodeId(4), NodeId(5), 500_000),   // lambda 0 reused, 0.5 ms
            ],
            Strategy::FirstFit,
        )
        .unwrap();
        let (lambda, load) = trace.busiest_wavelength().unwrap();
        assert_eq!(lambda, 0);
        assert!((load - 1.5e-3).abs() < 1e-12);
    }

    #[test]
    fn busiest_wavelength_is_order_independent_and_tie_deterministic() {
        // Dyadic durations: every partial sum is exact, so any insertion
        // order must produce bit-identical loads.
        let entry = |lambda: usize, dur: f64| TraceEntry {
            step: 0,
            src: 0,
            dst: 1,
            bytes: 1,
            direction: Direction::Clockwise,
            hops: 1,
            lambdas: vec![lambda],
            start_s: 0.0,
            finish_s: dur,
        };
        // λ1 and λ3 tie at 0.75; λ0 trails at 0.5.
        let base = vec![
            entry(1, 0.5),
            entry(1, 0.25),
            entry(3, 0.25),
            entry(3, 0.5),
            entry(0, 0.5),
        ];
        let reference = RunTrace {
            entries: base.clone(),
        }
        .busiest_wavelength()
        .unwrap();
        // Ties break to the highest wavelength index.
        assert_eq!(reference.0, 3);
        assert_eq!(reference.1.to_bits(), 0.75f64.to_bits());
        // Every rotation (and the full reverse) of the entry order gives a
        // bit-identical answer.
        for rot in 0..base.len() {
            let mut perm = base.clone();
            perm.rotate_left(rot);
            let (l, s) = RunTrace { entries: perm }.busiest_wavelength().unwrap();
            assert_eq!((l, s.to_bits()), (reference.0, reference.1.to_bits()));
        }
        let mut rev = base;
        rev.reverse();
        let (l, s) = RunTrace { entries: rev }.busiest_wavelength().unwrap();
        assert_eq!((l, s.to_bits()), (reference.0, reference.1.to_bits()));
    }

    #[test]
    fn empty_schedule_traces_empty() {
        let mut s = sim();
        let (total, trace) =
            run_stepped_traced(&mut s, &StepSchedule::default(), Strategy::FirstFit).unwrap();
        assert_eq!(total, 0.0);
        assert!(trace.entries.is_empty());
        assert!(trace.busiest_wavelength().is_none());
    }

    #[test]
    fn trace_serializes() {
        let mut s = sim();
        let trace = trace_step(
            &mut s,
            vec![Transfer::shortest(NodeId(0), NodeId(1), 100)],
            Strategy::BestFit,
        )
        .unwrap();
        let json = serde_json::to_string(&trace).unwrap();
        let back: RunTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }
}
