//! The progressive-filling routine against its earlier form.
//!
//! The library's routine walks flat routes over a compacted list of the
//! flows still unfrozen, with scratch it reuses; the oracle
//! (`support/progressive_fill.rs`) is the routine as it was before, walking
//! per-flow route `Vec`s and a `frozen` flag per flow. Both must give every
//! flow the same rate bits and count the same solver work, on components
//! of 1 to 3,000 flows over routes of 1 to 6 links: equal capacities (so
//! shares tie exactly), capacities one ulp apart (near-ties), zero,
//! negative and NaN capacities, and empty routes.

#[path = "support/progressive_fill.rs"]
mod progressive_fill;

use electrical_sim::graph::{Link, LinkId, Network, Router};
use electrical_sim::maxmin::maxmin_rates_counted;
use proptest::prelude::*;

/// A capacity of kind `kind`: mostly one shared value (exact ties), its
/// neighbours one ulp away (near-ties), a few other magnitudes, and the
/// degenerate zero, negative and NaN.
fn capacity(kind: usize) -> f64 {
    let base = 1.25e9f64;
    match kind {
        0..=5 => base,
        6 => f64::from_bits(base.to_bits() + 1),
        7 => f64::from_bits(base.to_bits() - 1),
        8 => base / 3.0,
        9 => 2.5e10,
        10 => 125.0,
        11 => 0.0,
        12 => -1e9,
        _ => f64::NAN,
    }
}

fn network(kinds: &[usize]) -> Network {
    let links = kinds
        .iter()
        .map(|&k| Link {
            capacity_bps: capacity(k),
            latency_s: 0.0,
        })
        .collect();
    Network::from_parts(1, links, Router::Star)
}

/// Rates (as bits) and solver work of the library and of the oracle.
fn both(net: &Network, routes: &[Vec<LinkId>]) -> ((Vec<u64>, usize), (Vec<u64>, usize)) {
    let bits = |r: Vec<f64>| r.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let (mut new_work, mut old_work) = (0, 0);
    let new = maxmin_rates_counted(net, routes, &mut new_work);
    let old = progressive_fill::maxmin_rates_counted(net, routes, &mut old_work);
    ((bits(new), new_work), (bits(old), old_work))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random components: link capacities drawn from `capacity`, flows with
    /// routes of 1 to 6 links (a few empty), bit-identical to the oracle.
    #[test]
    fn the_fill_matches_the_oracle_bit_for_bit(
        kinds in proptest::collection::vec(0usize..14, 1..48),
        flows in proptest::collection::vec(
            (0usize..40, proptest::collection::vec(0usize..1_000, 1..7)),
            1..3_000,
        ),
        degenerate in 0usize..4,
    ) {
        // Most cases keep every capacity healthy, so fills run several
        // rounds; the rest mix in zero, negative and NaN links.
        let kinds: Vec<usize> = kinds
            .iter()
            .map(|&k| if degenerate == 0 { k } else { k % 11 })
            .collect();
        let net = network(&kinds);
        let n = kinds.len();
        let routes: Vec<Vec<LinkId>> = flows
            .iter()
            .map(|(empty, links)| {
                if *empty == 0 {
                    Vec::new()
                } else {
                    links.iter().map(|&l| LinkId(l % n)).collect()
                }
            })
            .collect();
        let (new, old) = both(&net, &routes);
        prop_assert_eq!(new, old);
    }
}

/// Hand-picked corners: exact ties across every link, one-ulp near-ties,
/// all-degenerate capacities, and routes that are all empty.
#[test]
fn corner_components_match_the_oracle() {
    let ties = network(&[0; 8]);
    let ring: Vec<Vec<LinkId>> = (0..8)
        .map(|i| vec![LinkId(i), LinkId((i + 1) % 8)])
        .collect();
    let near = network(&[0, 6, 7, 0, 6, 7]);
    let chains: Vec<Vec<LinkId>> = (0..6)
        .map(|i| (i..6).map(LinkId).collect())
        .chain((0..6).map(|i| vec![LinkId(i)]))
        .collect();
    let broken = network(&[11, 12, 13, 13]);
    let mixed = vec![
        vec![LinkId(0)],
        vec![LinkId(1), LinkId(2)],
        vec![LinkId(2), LinkId(3)],
        Vec::new(),
    ];
    let empty = vec![Vec::new(); 5];
    for (net, routes) in [
        (&ties, &ring),
        (&near, &chains),
        (&broken, &mixed),
        (&ties, &empty),
    ] {
        let (new, old) = both(net, routes);
        assert_eq!(new, old);
    }
}
