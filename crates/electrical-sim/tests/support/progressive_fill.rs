//! The progressive-filling routine as it was before the fluid engine kept
//! its routes in one flat block, kept as a test oracle.
//!
//! [`progressive_fill`] walks per-flow route `Vec`s and marks frozen
//! flows in a `frozen` vector it allocates on every call; the library's
//! routine walks flat routes over a compacted list of unfrozen flows. Both
//! must give the same rate bits and count the same solver work. The
//! electrical-sim `maxmin_oracle` suite checks that, and the full-resolve
//! reference (`full_resolve.rs`, next to this file) solves with it, so the
//! incremental engine is checked against the old routine, not against
//! itself.

use electrical_sim::graph::{LinkId, Network};

/// Relative tolerance for the per-link bottleneck tie test.
const REL_EPS: f64 = 1e-12;

/// Is `share` at (or numerically indistinguishable from) the bottleneck
/// share `best`? Compared with a **relative** epsilon scaled to the larger
/// of the two magnitudes, so links whose capacities span many orders of
/// magnitude (1 Kb/s next to 100 Gb/s) tie correctly: an absolute or
/// one-sided `best * (1 + eps)` threshold either misses ties on large
/// links (whose `remaining` carries absolute rounding error far above
/// `eps * best`) or overflows to infinity near `f64::MAX`.
#[inline]
fn at_bottleneck(share: f64, best: f64) -> bool {
    share <= best + REL_EPS * share.abs().max(best.abs())
}

/// Max-min fair rates of `routes` over every link of `net`, accumulating
/// the solver's work into `work`: the full solve, as
/// `electrical_sim::maxmin::maxmin_rates_counted` computed it with this
/// routine.
pub fn maxmin_rates_counted(net: &Network, routes: &[Vec<LinkId>], work: &mut usize) -> Vec<f64> {
    let n_flows = routes.len();
    let n_links = net.links().len();
    let mut remaining: Vec<f64> = net.links().iter().map(|l| l.capacity_bps).collect();
    let mut active_on_link: Vec<usize> = vec![0; n_links];
    // Which links each flow still counts on (all of them until frozen).
    for route in routes {
        for &l in route {
            active_on_link[l.0] += 1;
        }
    }
    let links: Vec<usize> = (0..n_links).collect();
    let flows: Vec<usize> = (0..n_flows).collect();
    let mut rate = vec![f64::INFINITY; n_flows];
    progressive_fill(
        &links,
        &flows,
        routes,
        &mut remaining,
        &mut active_on_link,
        &mut rate,
        work,
    );
    rate
}

/// Progressive filling over an explicit link/flow subset.
///
/// This is the solver core shared by the full solve
/// ([`maxmin_rates_counted`],
/// `links`/`flows` = everything) and the incremental event engine (a
/// contention component only). `remaining` and `active` are indexed by
/// global link id and must be pre-initialized for every link in `links`
/// (capacity and active-flow count); `rate` is indexed by global flow id
/// and is written for every flow in `flows` that freezes. The caller
/// guarantees every active flow crossing a listed link is itself listed —
/// the component property that makes a restricted solve exact.
///
/// `links` and `flows` must be ascending so a restricted solve visits its
/// subset in the same order the full solve would, keeping rates
/// bit-identical between the two.
pub fn progressive_fill(
    links: &[usize],
    flows: &[usize],
    routes: &[Vec<LinkId>],
    remaining: &mut [f64],
    active: &mut [usize],
    rate: &mut [f64],
    work: &mut usize,
) {
    debug_assert!(links.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(flows.windows(2).all(|w| w[0] < w[1]));
    let mut frozen = vec![false; flows.len()];
    let mut unfrozen = flows.len();

    while unfrozen > 0 {
        // Bottleneck share: smallest fair share among links with active
        // flows. All links at that share saturate simultaneously, so every
        // flow crossing any of them freezes this round — this keeps
        // symmetric workloads (e.g. ring steps) at one round total.
        let mut best_share = f64::INFINITY;
        for &l in links {
            // Every visited link is a unit of work — the full solve scans
            // all network links per round, the incremental solve only its
            // component's.
            *work += 1;
            if active[l] > 0 {
                let share = remaining[l] / active[l] as f64;
                if share < best_share {
                    best_share = share;
                }
            }
        }
        if best_share.is_infinite() {
            // Either the remaining flows cross no active link (empty
            // routes, which legitimately keep an infinite rate) or every
            // active link produced a NaN share (corrupt capacities). The
            // latter must not leak infinite rates: freeze those flows at
            // zero so the stall is detectable downstream.
            for (k, &f) in flows.iter().enumerate() {
                if !frozen[k] && routes[f].iter().any(|&l| active[l.0] > 0) {
                    rate[f] = 0.0;
                }
            }
            break;
        }
        let mut progressed = false;
        for (k, &f) in flows.iter().enumerate() {
            if frozen[k] {
                continue;
            }
            *work += 1;
            let bottlenecked = routes[f].iter().any(|&l| {
                active[l.0] > 0 && at_bottleneck(remaining[l.0] / active[l.0] as f64, best_share)
            });
            if !bottlenecked {
                continue;
            }
            frozen[k] = true;
            progressed = true;
            unfrozen -= 1;
            // Degenerate (negative) capacities clamp to a zero rate so the
            // stall is detectable instead of running the clock backwards.
            let r = best_share.max(0.0);
            rate[f] = r;
            for &l in &routes[f] {
                remaining[l.0] = (remaining[l.0] - r).max(0.0);
                active[l.0] -= 1;
            }
        }
        if !progressed {
            // Defensive numerical corner: the bottleneck link's own tie
            // test failed. Freeze every remaining flow at its current
            // per-link fair share (never the infinite sentinel) so
            // downstream time-to-finish stays finite, then stop.
            for (k, &f) in flows.iter().enumerate() {
                if frozen[k] {
                    continue;
                }
                let mut share = f64::INFINITY;
                for &l in &routes[f] {
                    if active[l.0] > 0 {
                        let s = remaining[l.0] / active[l.0] as f64;
                        share = if s.is_nan() || share.is_nan() {
                            f64::NAN
                        } else {
                            share.min(s)
                        };
                    }
                }
                if share.is_finite() {
                    rate[f] = share.max(0.0);
                } else if share.is_nan() {
                    rate[f] = 0.0;
                }
                // An infinite share (no active link left on the route)
                // keeps the latency-only infinite sentinel.
            }
            break;
        }
    }
}
