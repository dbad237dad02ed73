//! Property tests for the event kernel: pop order must equal a stable sort
//! by `(time, seq)`, and batch boundaries must equal bit-equality grouping.

use proptest::prelude::*;
use wrht_kernel::EventKernel;

/// The two payload families the simulators multiplex through one kernel:
/// transfer completions and fault-script events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Payload {
    Completion(usize),
    Fault(usize),
}

/// A small pool of timestamps with deliberate ulp-neighbors so random event
/// sets exercise both exact ties and near-ties.
fn time_pool() -> Vec<f64> {
    let near = 0.1_f64 + 0.2_f64; // one ulp above 0.3
    vec![0.0, 0.3, near, 1.0, 1.5, 2.0, 2.0 + f64::EPSILON, 7.25]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pop_order_is_stable_sort_by_time_then_seq(picks in proptest::collection::vec(0usize..8, 1..64)) {
        let pool = time_pool();
        let mut kernel = EventKernel::new();
        let mut reference: Vec<(f64, usize)> = Vec::new();
        for (insert_idx, &p) in picks.iter().enumerate() {
            let t = pool[p];
            kernel.schedule_at(t, insert_idx).unwrap();
            reference.push((t, insert_idx));
        }
        // Stable sort on time alone: insertion order breaks ties, which is
        // exactly the (time, seq) contract.
        reference.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut got = Vec::new();
        let mut prev = f64::NEG_INFINITY;
        while let Some((t, payload)) = kernel.pop() {
            prop_assert!(t >= prev, "clock must be monotone: {} < {}", t, prev);
            prev = t;
            got.push((t, payload));
        }
        prop_assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(reference.iter()) {
            prop_assert_eq!(g.0.to_bits(), r.0.to_bits());
            prop_assert_eq!(g.1, r.1);
        }
    }

    #[test]
    fn pop_batch_boundaries_match_bit_equality(picks in proptest::collection::vec(0usize..8, 1..64)) {
        let pool = time_pool();
        let mut kernel = EventKernel::new();
        for (insert_idx, &p) in picks.iter().enumerate() {
            kernel.schedule_at(pool[p], insert_idx).unwrap();
        }
        // Reference: group the stable-sorted events by bit-identical time.
        let mut reference: Vec<(u64, usize)> =
            picks.iter().enumerate().map(|(i, &p)| (pool[p].to_bits(), i)).collect();
        reference.sort_by(|a, b| {
            f64::from_bits(a.0).partial_cmp(&f64::from_bits(b.0)).unwrap()
        });
        let mut batches: Vec<(u64, Vec<usize>)> = Vec::new();
        let mut out = Vec::new();
        while let Some(t) = kernel.pop_batch(&mut out) {
            batches.push((t.to_bits(), out.clone()));
            out.clear();
        }
        // Flattened batches == stable sort; batch boundaries == bit changes.
        let flat: Vec<(u64, usize)> = batches
            .iter()
            .flat_map(|(bits, payloads)| payloads.iter().map(move |&p| (*bits, p)))
            .collect();
        prop_assert_eq!(flat, reference);
        for w in batches.windows(2) {
            prop_assert!(w[0].0 != w[1].0, "adjacent batches must differ in time bits");
        }
        let processed: usize = batches.iter().map(|(_, p)| p.len()).sum();
        prop_assert_eq!(processed, picks.len());
        prop_assert_eq!(kernel.events_processed(), picks.len() as u64);
    }

    /// Same-instant coalescing contract: completions and faults scheduled at
    /// a bit-identical instant arrive in ONE batch, ordered by insertion
    /// sequence. The simulators do NOT rely on that intra-batch order for
    /// fault semantics — they two-pass each batch so completions always
    /// apply before same-instant faults — but the order itself must be
    /// deterministic so replays coalesce identically.
    #[test]
    fn same_instant_faults_and_completions_coalesce_in_seq_order(
        kinds in proptest::collection::vec(proptest::bool::ANY, 1..32),
        t_idx in 0usize..8,
    ) {
        let t = time_pool()[t_idx];
        let mut kernel = EventKernel::new();
        let mut inserted = Vec::new();
        for (i, &is_fault) in kinds.iter().enumerate() {
            let payload = if is_fault {
                Payload::Fault(i)
            } else {
                Payload::Completion(i)
            };
            kernel.schedule_at(t, payload).unwrap();
            inserted.push(payload);
        }
        let mut batch = Vec::new();
        let now = kernel.pop_batch(&mut batch).unwrap();
        prop_assert_eq!(now.to_bits(), t.to_bits());
        prop_assert_eq!(batch, inserted);
        let mut rest = Vec::new();
        prop_assert!(kernel.pop_batch(&mut rest).is_none());
        prop_assert!(rest.is_empty());
    }
}
