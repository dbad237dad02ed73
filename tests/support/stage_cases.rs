//! The random stage-structured step schedules of the closed-driver
//! differential suites (`tests/streamed_closed.rs`,
//! `tests/closed_summary.rs`), and the two flat fabrics they run on.
//!
//! The generator makes nodes sit idle for several stages (a streamed
//! source's horizon stays pinned), mixes in zero-byte transfers and equal
//! payloads, uses non-zero latencies, draws `n = 2` (often an exchange of
//! equal payloads every stage: a barrier-shaped pipelined DAG, which the
//! electrical fast path runs) and puts an out-of-range endpoint into a
//! late stage of some schedules.

use electrical_sim::topology::star_cluster;
use electrical_sim::Network;
use optical_sim::{NodeId, OpticalConfig, StepSchedule, Transfer};
use wrht_core::substrate::{ElectricalSubstrate, OpticalSubstrate};

/// xorshift64* draws for the schedule generator.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Payload sizes: zero-byte gates, repeated sizes (equal transfers
/// complete at one instant) and one large enough to outlive several
/// stages, so rates change under it and leave stale completion events.
const BYTES: [u64; 8] = [0, 0, 4_096, 4_096, 4_096, 10_000, 123_457, 1_000_003];

/// A random stage-structured schedule and the physics of the two fabrics
/// it runs on.
pub struct Case {
    pub steps: StepSchedule,
    pub optical: OpticalConfig,
    pub net: Network,
    pub overhead_s: f64,
}

impl Case {
    pub fn optical(&self) -> OpticalSubstrate {
        OpticalSubstrate::new(self.optical.clone()).expect("valid optical config")
    }

    pub fn electrical(&self) -> ElectricalSubstrate {
        ElectricalSubstrate::new(self.net.clone(), self.overhead_s)
    }
}

pub fn case(seed: u64) -> Case {
    let mut rng = Rng(seed | 1);
    let n = if rng.chance(25) { 2 } else { 3 + rng.below(8) };
    let stages = 1 + rng.below(12);
    // Each node sits out runs of stages: some from the start (the horizon
    // is unknown until every node took part), some in the middle (its
    // last step pins the horizon). Active nodes send one to three
    // transfers a stage.
    let idle: Vec<(usize, usize)> = (0..n)
        .map(|_| {
            let from = if rng.chance(30) { 0 } else { rng.below(stages) };
            (from, from + rng.below(5))
        })
        .collect();
    let exchange = n == 2 && rng.chance(60);
    let mut steps = Vec::with_capacity(stages);
    for stage in 0..stages {
        let mut step = Vec::new();
        if exchange {
            // Both nodes every stage, equal payloads: barrier-shaped.
            let bytes = BYTES[rng.below(BYTES.len())];
            step.push(Transfer::shortest(NodeId(0), NodeId(1), bytes));
            step.push(Transfer::shortest(NodeId(1), NodeId(0), bytes));
        } else {
            for (src, &(from, to)) in idle.iter().enumerate() {
                if (from..to).contains(&stage) || !rng.chance(70) {
                    continue;
                }
                for _ in 0..1 + rng.below(3) {
                    let dst = (src + 1 + rng.below(n - 1)) % n;
                    let bytes = BYTES[rng.below(BYTES.len())];
                    let lanes = 1 + rng.below(2);
                    step.push(
                        Transfer::shortest(NodeId(src), NodeId(dst), bytes).with_lanes(lanes),
                    );
                }
            }
        }
        steps.push(step);
    }
    if stages >= 3 && rng.chance(15) {
        // An endpoint past the last node, late in the schedule.
        let src = rng.below(n);
        let bad = if rng.chance(50) {
            Transfer::shortest(NodeId(src), NodeId(n), 4_096)
        } else {
            Transfer::shortest(NodeId(n), NodeId(src), 4_096)
        };
        steps[stages - 1 - rng.below(2)].push(bad);
    }
    Case {
        steps: StepSchedule::from_steps(steps),
        optical: OpticalConfig::new(n, 2 + rng.below(3))
            .with_lambda_bandwidth([1e9, 2.5e9][rng.below(2)])
            .with_message_overhead([0.0, 1e-6][rng.below(2)])
            .with_hop_propagation([0.0, 5e-9][rng.below(2)]),
        net: star_cluster(n, [1e9, 2.5e9][rng.below(2)], [0.0, 500e-9][rng.below(2)]),
        overhead_s: [0.0, 0.0, 2e-6][rng.below(3)],
    }
}
