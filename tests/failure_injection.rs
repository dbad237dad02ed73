//! Failure injection: invalid configurations and schedules must surface as
//! typed errors, never panics, across every crate boundary.

use collectives::ring::ring_allreduce;
use collectives::{Op, Schedule, Step, TransferSpec};
use electrical_sim::prelude::*;
use optical_sim::prelude::*;
use wrht_core::baselines::lower_collective_to_optical;
use wrht_core::dag::DepSchedule;
use wrht_core::fault::{FaultError, FaultKind, FaultPolicy, FaultScript};
use wrht_core::substrate::{ElectricalSubstrate, OpticalSubstrate, Substrate};
use wrht_core::{plan_and_simulate, WrhtError, WrhtParams};

#[test]
fn optical_rejects_bad_configurations() {
    assert!(RingSimulator::try_new(OpticalConfig::new(1, 4)).is_err());
    assert!(RingSimulator::try_new(OpticalConfig::new(8, 0)).is_err());
    assert!(
        RingSimulator::try_new(OpticalConfig::new(8, 4).with_lambda_bandwidth(f64::NAN)).is_err()
    );
}

#[test]
fn optical_rejects_bad_transfers_in_schedules() {
    let mut sim = RingSimulator::new(OpticalConfig::new(8, 4));
    // Node out of range.
    let bad = StepSchedule::from_steps(vec![vec![Transfer::shortest(NodeId(0), NodeId(99), 10)]]);
    assert!(matches!(
        sim.run_stepped(&bad, Strategy::FirstFit),
        Err(OpticalError::NodeOutOfRange { .. })
    ));
    // Self transfer.
    let bad = StepSchedule::from_steps(vec![vec![Transfer::shortest(NodeId(3), NodeId(3), 10)]]);
    assert!(matches!(
        sim.run_stepped(&bad, Strategy::FirstFit),
        Err(OpticalError::SelfTransfer(_))
    ));
    // Zero lanes.
    let bad = StepSchedule::from_steps(vec![vec![
        Transfer::shortest(NodeId(0), NodeId(1), 10).with_lanes(0)
    ]]);
    assert!(matches!(
        sim.run_stepped(&bad, Strategy::FirstFit),
        Err(OpticalError::ZeroLanes)
    ));
    // Wavelength exhaustion (nested senders exceed the budget).
    let nested: Vec<Transfer> = (0..6)
        .map(|i| Transfer::directed(NodeId(i), NodeId(6), 10, optical_sim::Direction::Clockwise))
        .collect();
    assert!(matches!(
        sim.run_stepped(&StepSchedule::from_steps(vec![nested]), Strategy::FirstFit),
        Err(OpticalError::WavelengthsExhausted { .. })
    ));
}

#[test]
fn electrical_rejects_bad_flows() {
    let net = star_cluster(4, 1e9, 0.0);
    assert!(matches!(
        net.route(0, 9),
        Err(NetError::HostOutOfRange { .. })
    ));
    assert!(matches!(
        run_flows(&net, &[FlowSpec::new(2, 2, 10)]),
        Err(NetError::SelfFlow(2))
    ));
}

#[test]
fn wrht_rejects_infeasible_requests() {
    let cfg = OpticalConfig::new(64, 2);
    // m = 63 needs 31 wavelengths.
    assert!(matches!(
        plan_and_simulate(&WrhtParams::fixed(64, 2, 63), &cfg, 1 << 20),
        Err(WrhtError::GroupSizeNeedsMoreWavelengths { .. })
    ));
    // m = 1 is never a tree.
    assert!(matches!(
        plan_and_simulate(&WrhtParams::fixed(64, 2, 1), &cfg, 1 << 20),
        Err(WrhtError::GroupSizeTooSmall(1))
    ));
}

#[test]
fn malformed_fault_scripts_surface_typed_errors() {
    let n = 8;
    let dag = DepSchedule::from_steps(&lower_collective_to_optical(&ring_allreduce(n, 64), 4, 1));
    let mut optical = OpticalSubstrate::new(OpticalConfig::new(n, 4)).expect("optical substrate");
    let mut electrical = ElectricalSubstrate::new(star_cluster(n, 1e9, 0.0), 0.0);
    let policy = FaultPolicy::Replan;

    // NaN timestamps are rejected with the event index, on both substrates.
    let nan = FaultScript::new().with(f64::NAN, FaultKind::NodeDown { node: 0 });
    assert!(matches!(
        optical.execute_dag_faulted(&dag, &nan, policy),
        Err(WrhtError::Fault(FaultError::BadTimestamp { index: 0, .. }))
    ));
    assert!(matches!(
        electrical.execute_dag_faulted(&dag, &nan, policy),
        Err(WrhtError::Fault(FaultError::BadTimestamp { index: 0, .. }))
    ));

    // A lane beyond the waveguide is an optical validation error; the
    // electrical substrate has no lanes to bound-check against.
    let wide = FaultScript::new().with(0.5, FaultKind::WavelengthDown { lane: 64 });
    assert!(matches!(
        optical.execute_dag_faulted(&dag, &wide, policy),
        Err(WrhtError::Fault(FaultError::LaneOutOfRange {
            lane: 64,
            wavelengths: 4,
            ..
        }))
    ));

    // Repairing a lane that never failed is malformed everywhere the
    // script is lane-aware.
    let phantom = FaultScript::new().with(0.5, FaultKind::WavelengthUp { lane: 1 });
    assert!(matches!(
        optical.execute_dag_faulted(&dag, &phantom, policy),
        Err(WrhtError::Fault(FaultError::UpWithoutDown { lane: 1, .. }))
    ));

    // Node indices are bounded on both substrates.
    let ghost = FaultScript::new().with(0.5, FaultKind::NodeDown { node: n + 3 });
    assert!(matches!(
        optical.execute_dag_faulted(&dag, &ghost, policy),
        Err(WrhtError::Fault(FaultError::NodeOutOfRange { .. }))
    ));
    assert!(matches!(
        electrical.execute_dag_faulted(&dag, &ghost, policy),
        Err(WrhtError::Fault(FaultError::NodeOutOfRange { .. }))
    ));

    // A rejected script must not poison the substrate: a clean run after
    // the errors is still fine.
    assert!(optical.execute_dag(&dag).is_ok());
    assert!(electrical.execute_dag(&dag).is_ok());
}

#[test]
fn schedule_validation_catches_structural_corruption() {
    let mut s = Schedule::new(4, 8, "corrupt");
    s.push_step(Step::new(vec![TransferSpec::new(0, 4, 0..8, Op::Copy)]));
    assert!(s.validate().is_err());

    let mut s = Schedule::new(4, 8, "corrupt");
    s.push_step(Step::new(vec![TransferSpec::new(0, 1, 5..99, Op::Copy)]));
    assert!(s.validate().is_err());

    let mut s = Schedule::new(4, 8, "corrupt");
    s.push_step(Step::new(vec![
        TransferSpec::new(0, 2, 0..4, Op::Copy),
        TransferSpec::new(1, 2, 3..6, Op::Copy),
    ]));
    assert!(s.validate().is_err());
}

#[test]
fn errors_format_without_panicking() {
    // Exercise Display on representative errors of each crate.
    let es: Vec<Box<dyn std::error::Error>> = vec![
        Box::new(OpticalError::RingTooSmall(1)),
        Box::new(NetError::NoRoute { src: 0, dst: 1 }),
        Box::new(WrhtError::NoFeasiblePlan {
            n: 4,
            wavelengths: 0,
        }),
    ];
    for e in es {
        assert!(!e.to_string().is_empty());
    }
}
