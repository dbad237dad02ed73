//! Optical baselines: O-Ring and the classic collectives lowered to the
//! substrate IR.
//!
//! **O-Ring** is the paper's optical baseline: the classic ring all-reduce
//! run over the optical ring with a *single wavelength per transmission* —
//! exactly the deficiency Wrht is designed to fix.
//!
//! [`CollectiveSource`] lowers any classic collective one step at a time,
//! as a runner reaches each step; [`lower_collective_to_optical`] lowers a
//! materialized logical schedule.

use crate::error::Result;
use crate::substrate::{RunReport, Substrate};
use collectives::{Collective, Schedule, TransferSpec};
use optical_sim::request::Transfer;
use optical_sim::sim::{StepSchedule, StepSource};

/// One logical transfer in the substrate IR: a shortest path carrying
/// `bytes_per_elem` bytes per element on `lanes` wavelengths.
fn lower_transfer(t: &TransferSpec, bytes_per_elem: usize, lanes: usize) -> Transfer {
    Transfer::shortest(
        optical_sim::NodeId(t.src),
        optical_sim::NodeId(t.dst),
        (t.range.len() * bytes_per_elem) as u64,
    )
    .with_lanes(lanes)
}

/// Lower any logical collective schedule to the substrate IR: shortest
/// paths, `lanes` wavelengths per transfer, `bytes_per_elem` element width.
/// The resulting [`StepSchedule`] executes on any [`Substrate`] (the
/// electrical fabric ignores the optical-only routing fields).
#[must_use]
pub fn lower_collective_to_optical(
    schedule: &Schedule,
    bytes_per_elem: usize,
    lanes: usize,
) -> StepSchedule {
    let mut out = StepSchedule::default();
    for step in &schedule.steps {
        let transfers: Vec<Transfer> = step
            .transfers
            .iter()
            .filter(|t| !t.range.is_empty())
            .map(|t| lower_transfer(t, bytes_per_elem, lanes))
            .collect();
        out.push_step(transfers);
    }
    out
}

/// A classic collective lowered to the substrate IR one step at a time:
/// the same steps, transfer for transfer, as
/// `lower_collective_to_optical(&collective.schedule(n, elems),
/// bytes_per_elem, lanes)`, but each is written only when a runner reaches
/// it (by [`Collective::step`]). A stepped or pipelined run then holds one
/// step of transfers instead of all of them, and builds neither the
/// collective [`Schedule`] nor the [`StepSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveSource {
    /// The all-reduce algorithm.
    pub collective: Collective,
    /// Node count.
    pub n: usize,
    /// Elements per node buffer.
    pub elems: usize,
    /// Bytes per element.
    pub bytes_per_elem: usize,
    /// Wavelengths per transfer.
    pub lanes: usize,
}

impl CollectiveSource {
    /// Every step written out: the materialized [`StepSchedule`].
    #[must_use]
    pub fn collect(&self) -> StepSchedule {
        let mut buf = Vec::new();
        StepSchedule::from_steps(
            (0..self.step_count())
                .map(|k| self.step(k, &mut buf).to_vec())
                .collect(),
        )
    }
}

impl StepSource for CollectiveSource {
    fn step_count(&self) -> usize {
        self.collective.steps(self.n)
    }

    fn step<'a>(&'a self, index: usize, buf: &'a mut Vec<Transfer>) -> &'a [Transfer] {
        buf.clear();
        self.collective.step(self.n, self.elems, index, |t| {
            if !t.range.is_empty() {
                buf.push(lower_transfer(&t, self.bytes_per_elem, self.lanes));
            }
        });
        buf
    }

    /// The collective's own answer ([`Collective::permutes_previous`]):
    /// its ranges are then all non-empty, so the lowering keeps each one's
    /// transfer, endpoints and lanes and scales its length by
    /// `bytes_per_elem`.
    fn permutes_previous(&self, index: usize) -> bool {
        self.collective.permutes_previous(self.n, self.elems, index)
    }
}

/// The O-Ring schedule: ring all-reduce over `n` optical nodes, moving
/// `elems * bytes_per_elem` bytes in total, one wavelength per transfer.
#[must_use]
pub fn oring_schedule(n: usize, elems: usize, bytes_per_elem: usize) -> StepSchedule {
    CollectiveSource {
        collective: Collective::Ring,
        n,
        elems,
        bytes_per_elem,
        lanes: 1,
    }
    .collect()
}

/// Lower a logical collective schedule and execute it on `substrate` —
/// the one-call path every baseline measurement goes through.
pub fn run_collective(
    substrate: &mut dyn Substrate,
    schedule: &Schedule,
    bytes_per_elem: usize,
    lanes: usize,
) -> Result<RunReport> {
    substrate.execute(&lower_collective_to_optical(
        schedule,
        bytes_per_elem,
        lanes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::ring::ring_allreduce;
    use optical_sim::{OpticalConfig, RingSimulator, Strategy};

    #[test]
    fn oring_uses_one_wavelength() {
        let n = 16;
        let sched = oring_schedule(n, 1600, 4);
        let mut sim = RingSimulator::new(OpticalConfig::new(n, 8));
        let report = sim.run_stepped(&sched, Strategy::FirstFit).unwrap();
        assert_eq!(report.peak_wavelengths(), 1);
        assert_eq!(report.step_count(), 2 * (n - 1));
    }

    #[test]
    fn oring_time_matches_closed_form() {
        // T = 2(n-1) * (alpha + (S/n)/B + P) for divisible payloads.
        let n = 8;
        let elems = 8_000;
        let bpe = 4;
        let cfg = OpticalConfig::new(n, 4)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(1e-6)
            .with_hop_propagation(1e-8);
        let sched = oring_schedule(n, elems, bpe);
        let mut sim = RingSimulator::new(cfg);
        let t = sim
            .run_stepped(&sched, Strategy::FirstFit)
            .unwrap()
            .total_time_s;
        let chunk = (elems / n * bpe) as f64;
        let expected = (2 * (n - 1)) as f64 * (1e-6 + chunk / 1e9 + 1e-8);
        assert!(
            (t - expected).abs() / expected < 1e-9,
            "t={t} exp={expected}"
        );
    }

    #[test]
    fn lowering_skips_empty_ranges() {
        // Ring with more nodes than elements produces some empty chunks
        // which must not turn into zero-byte optical transfers.
        let sched = oring_schedule(8, 5, 4);
        let mut sim = RingSimulator::new(OpticalConfig::new(8, 2));
        sim.run_stepped(&sched, Strategy::FirstFit).unwrap();
    }

    #[test]
    fn lane_parameter_is_applied() {
        let logical = ring_allreduce(4, 400);
        let sched = lower_collective_to_optical(&logical, 4, 3);
        for step in sched.steps() {
            for t in step {
                assert_eq!(t.lanes, 3);
            }
        }
    }

    #[test]
    fn run_collective_agrees_across_substrates_on_matched_physics() {
        use crate::substrate::{ElectricalSubstrate, OpticalSubstrate};
        let n = 8;
        let sched = ring_allreduce(n, 8_000);
        let mut optical = OpticalSubstrate::new(
            OpticalConfig::new(n, 1)
                .with_lambda_bandwidth(1e9)
                .with_message_overhead(0.0)
                .with_hop_propagation(0.0),
        )
        .unwrap();
        let mut electrical =
            ElectricalSubstrate::new(electrical_sim::topology::ring(n, 1e9, 0.0), 0.0);
        let o = run_collective(&mut optical, &sched, 4, 1).unwrap();
        let e = run_collective(&mut electrical, &sched, 4, 1).unwrap();
        assert!((o.total_time_s - e.total_time_s).abs() / e.total_time_s < 1e-9);
    }

    #[test]
    fn run_collective_on_empty_schedule_is_zero() {
        use crate::substrate::OpticalSubstrate;
        let mut optical = OpticalSubstrate::new(OpticalConfig::new(4, 2)).unwrap();
        let report = run_collective(&mut optical, &ring_allreduce(1, 10), 4, 1).unwrap();
        assert_eq!(report.total_time_s, 0.0);
        assert_eq!(report.step_count(), 0);
    }
}
