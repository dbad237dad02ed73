//! Property tests for the event kernel: pop order must equal a stable sort
//! by `(time, seq)`, and batch boundaries must equal bit-equality grouping.
//! The dependency-list store must read back what a `Vec<Vec<u32>>` model
//! holds.

use proptest::prelude::*;
use wrht_kernel::{DepLists, EventKernel, NIL};

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

/// SplitMix64, drawing one store operation's parameters from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// A live block of the model: its first key, unsettled members and rows.
struct ModelBlock {
    id: u32,
    first: u64,
    unsettled: u32,
    rows: Vec<Vec<u32>>,
}

/// Open a block for `rows` and fill it with their entries, the rows
/// interleaved at random and each in its own order.
fn fill(lists: &mut DepLists, rng: &mut Rng, first: u64, members: u32, rows: &[Vec<u32>]) -> u32 {
    let entries = rows.iter().map(Vec::len).sum();
    let id = lists.open(first, members, rows.len(), entries);
    let mut next = vec![0; rows.len()];
    let mut order = Vec::with_capacity(entries);
    for _ in 0..entries {
        let open: Vec<usize> = (0..rows.len())
            .filter(|&r| next[r] < rows[r].len())
            .collect();
        let r = open[rng.below(open.len())];
        order.push((r, rows[r][next[r]]));
        next[r] += 1;
    }
    lists.fill(id, || order.iter().copied());
    id
}

fn read(lists: &DepLists, block: u32, row: usize, list: u32) -> Vec<u32> {
    lists.entries(lists.walk(block, row, list)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random batches of rows, appends to later-batch edge lists, and
    /// settles and frees in random order, against a `Vec<Vec<u32>>` model:
    /// every row and list reads back in insertion order, a block is freed
    /// exactly when its last member settles and its place is reused first,
    /// freed edges are reused first, the bound check refuses exactly what
    /// would not fit in 32 bits, and nothing is held once every list is
    /// freed and every block has settled.
    #[test]
    fn dep_lists_read_back_what_a_model_holds(
        ops in proptest::collection::vec((0usize..4, 0u64..u64::MAX), 1..96),
    ) {
        let limit = NIL as usize;
        let mut lists = DepLists::new();
        let mut blocks: Vec<ModelBlock> = Vec::new();
        let mut freed: Vec<u32> = Vec::new();
        let (mut handles, mut model): (Vec<u32>, Vec<Vec<u32>>) = (Vec::new(), Vec::new());
        let (mut next_key, mut peak_blocks, mut peak_edges) = (0u64, 0, 0);
        for &(op, seed) in &ops {
            let mut rng = Rng(seed);
            match op {
                0 => {
                    let rows: Vec<Vec<u32>> = (0..1 + rng.below(5))
                        .map(|_| (0..rng.below(4)).map(|_| rng.next() as u32).collect())
                        .collect();
                    let entries: usize = rows.iter().map(Vec::len).sum();
                    let members = 1 + rng.below(4) as u32;
                    prop_assert!(lists.fits(rows.len(), entries, 0));
                    let allocated = lists.allocated().0;
                    let id = fill(&mut lists, &mut rng, next_key, members, &rows);
                    if entries == 0 {
                        prop_assert_eq!(id, NIL);
                        prop_assert_eq!(lists.allocated().0, allocated);
                        continue;
                    }
                    // A freed place is taken first, the last freed first.
                    match freed.pop() {
                        Some(reused) => prop_assert_eq!(id, reused),
                        None => prop_assert_eq!(id as usize, allocated),
                    }
                    blocks.push(ModelBlock { id, first: next_key, unsettled: members, rows });
                    next_key += u64::from(members);
                }
                1 if !blocks.is_empty() => {
                    let k = rng.below(blocks.len());
                    lists.settle(blocks[k].id);
                    blocks[k].unsettled -= 1;
                    if blocks[k].unsettled == 0 {
                        let gone = blocks.swap_remove(k);
                        for r in 0..gone.rows.len() {
                            prop_assert!(read(&lists, gone.id, r, NIL).is_empty());
                            prop_assert!(lists.row(gone.id, gone.first + r as u64).is_empty());
                        }
                        freed.push(gone.id);
                    }
                }
                2 => {
                    let i = rng.below(handles.len() + 1);
                    if i == handles.len() {
                        handles.push(NIL);
                        model.push(Vec::new());
                    }
                    prop_assert!(lists.fits(0, 0, 1));
                    let entry = rng.next() as u32;
                    lists.append(&mut handles[i], entry);
                    model[i].push(entry);
                }
                _ if !handles.is_empty() => {
                    let i = rng.below(handles.len());
                    lists.free(&mut handles[i]);
                    prop_assert_eq!(handles[i], NIL);
                    model[i].clear();
                }
                _ => {}
            }
            let held_edges: usize = model.iter().map(Vec::len).sum();
            peak_blocks = peak_blocks.max(blocks.len());
            peak_edges = peak_edges.max(held_edges);
            prop_assert_eq!(lists.held(), (blocks.len(), held_edges));
            prop_assert_eq!(lists.allocated(), (peak_blocks, peak_edges));
            for b in &blocks {
                for (r, row) in b.rows.iter().enumerate() {
                    prop_assert_eq!(&read(&lists, b.id, r, NIL), row);
                    prop_assert_eq!(lists.row(b.id, b.first + r as u64), &row[..]);
                }
                let last = b.first + u64::from(b.unsettled) - 1;
                prop_assert_eq!(lists.row_of(b.id, last), (last - b.first) as usize);
            }
            for (list, entries) in handles.iter().zip(&model) {
                prop_assert_eq!(&read(&lists, NIL, 0, *list), entries);
            }
            // A walk reads a row, then a list.
            if let (Some(b), Some(&list)) = (blocks.first(), handles.first()) {
                let both: Vec<u32> = b.rows[0].iter().chain(&model[0]).copied().collect();
                prop_assert_eq!(read(&lists, b.id, 0, list), both);
            }
            // The bound: a block's rows, offsets and entries, and every edge
            // counted as new, below `NIL`.
            let span = limit - 3 + rng.below(6);
            let rows = rng.below(span + 1);
            let edges = limit - peak_edges - 2 + rng.below(4);
            for (rows, entries, edges) in [(rows, span - rows, 0), (rows, 0, edges), (rows, 1, edges)] {
                let block = entries == 0 || rows + 1 + entries <= limit;
                prop_assert_eq!(lists.fits(rows, entries, edges), block && peak_edges + edges <= limit);
            }
            prop_assert!(!lists.fits(usize::MAX, 1, 0) && !lists.fits(0, 0, usize::MAX));
        }
        for b in blocks.drain(..) {
            for _ in 0..b.unsettled {
                lists.settle(b.id);
            }
        }
        for list in &mut handles {
            lists.free(list);
        }
        prop_assert_eq!(lists.held(), (0, 0));
    }
}
