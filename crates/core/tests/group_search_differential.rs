//! Differential test of the group-size search.
//!
//! [`GroupSearch`] prices every candidate `(m, stop)` from its level walk's
//! per-level lanes and hop spans and builds only the winner's plan. The
//! oracle below is the search as it was: build every candidate plan with
//! `build_plan` or `candidate_plans`, price each with `predict_time_s` and
//! keep the first strictly cheaper one in ascending `m`, earliest stop
//! first (a fixed `m` keeps the cheapest of its plans). Both must choose
//! the same `m` and an equal plan, with a prediction equal bit for bit in
//! its total and in every step. `tests/golden/optimizer_choices.json` pins
//! the paper's grid up to n = 1024; this suite is the check past it.

use dnn_models::bucket::bucketize;
use optical_sim::OpticalConfig;
use proptest::prelude::*;
use proptest::rng::TestRng;
use std::ops::RangeInclusive;
use wrht_core::cost::{predict_time_s, CostBreakdown};
use wrht_core::error::Result;
use wrht_core::plan::{build_plan, candidate_plans, StopPolicy, WrhtPlan};
use wrht_core::{choose_group_size, plan_and_simulate, GroupSearch, WrhtError, WrhtParams};

/// One search result: the group size, its plan and the prediction.
type Choice = (usize, WrhtPlan, CostBreakdown);

/// Every candidate plan of the group sizes `sizes`, in search order, built
/// whole: a group size whose construction fails adds none.
fn oracle_candidates(params: &WrhtParams, sizes: RangeInclusive<usize>) -> Vec<(usize, WrhtPlan)> {
    let (n, w) = (params.n, params.wavelengths);
    sizes
        .flat_map(|m| {
            let plans = match params.stop_policy {
                StopPolicy::EarliestFeasible => build_plan(n, m, w).map(|p| vec![p]),
                StopPolicy::BestDepth => candidate_plans(n, m, w),
            };
            plans.unwrap_or_default().into_iter().map(move |p| (m, p))
        })
        .collect()
}

/// The old automatic scan over `candidates`: price each with
/// `predict_time_s`, keep the first strictly cheaper.
fn oracle_choose(
    params: &WrhtParams,
    candidates: &[(usize, WrhtPlan)],
    config: &OpticalConfig,
    bytes: u64,
) -> Result<Choice> {
    let mut best: Option<Choice> = None;
    for (m, plan) in candidates {
        let cost = predict_time_s(plan, config, bytes);
        if best
            .as_ref()
            .is_none_or(|(_, _, inc)| cost.total_s() < inc.total_s())
        {
            best = Some((*m, plan.clone(), cost));
        }
    }
    best.ok_or(WrhtError::NoFeasiblePlan {
        n: params.n,
        wavelengths: params.wavelengths,
    })
}

/// The old fixed-`m` choice of `plan_and_simulate`: the cheapest of `m`'s
/// plans under `min_by`, or the construction error.
fn oracle_fixed(
    params: &WrhtParams,
    m: usize,
    config: &OpticalConfig,
    bytes: u64,
) -> Result<Choice> {
    let best = oracle_candidates(params, m..=m)
        .into_iter()
        .map(|(_, plan)| plan)
        .min_by(|a, b| {
            let ca = predict_time_s(a, config, bytes).total_s();
            let cb = predict_time_s(b, config, bytes).total_s();
            ca.total_cmp(&cb)
        });
    let Some(plan) = best else {
        build_plan(params.n, m, params.wavelengths)?;
        return Err(WrhtError::NoFeasiblePlan {
            n: params.n,
            wavelengths: params.wavelengths,
        });
    };
    let cost = predict_time_s(&plan, config, bytes);
    Ok((m, plan, cost))
}

/// Bit-exact comparison of two search results.
fn same(got: &Result<Choice>, want: &Result<Choice>) -> std::result::Result<(), String> {
    let bits = |c: &CostBreakdown| {
        let mut v = vec![c.total_s(), c.reduce_s, c.alltoall_s, c.broadcast_s];
        v.extend(&c.per_step_s);
        v.iter().map(|t| t.to_bits()).collect::<Vec<u64>>()
    };
    match (got, want) {
        (Ok((gm, gp, gc)), Ok((wm, wp, wc))) => {
            if gm != wm {
                return Err(format!("m {gm} vs {wm}"));
            }
            if gp != wp {
                return Err(format!("plan {gp:?} vs {wp:?}"));
            }
            if bits(gc) != bits(wc) {
                return Err(format!("cost {gc:?} vs {wc:?}"));
            }
            Ok(())
        }
        (Err(g), Err(w)) if g == w => Ok(()),
        _ => Err(format!("{got:?} vs {want:?}")),
    }
}

/// One search input. `fixed` is `plan_and_simulate`'s `Fixed(m)`, `None`
/// the automatic search.
#[derive(Debug)]
struct Case {
    n: usize,
    w: usize,
    bytes: u64,
    policy: StopPolicy,
    fixed: Option<usize>,
}

/// Draws rings of 1–4096 nodes (2–4096 for a fixed `m`, which
/// `plan_and_simulate` runs on a substrate), budgets of 1–64 wavelengths,
/// payloads of 0 bytes, 1 byte or up to 4 GiB, either stop policy, and a
/// fixed `m` from 1 to `2w + 2` (so both ends are unusable) in a third of
/// the cases.
struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn sample(&self, rng: &mut TestRng) -> Case {
        let fixed = rng.below(3) == 0;
        let n = if fixed {
            2 + rng.below(4095) as usize
        } else {
            1 + rng.below(4096) as usize
        };
        let w = 1 + rng.below(64) as usize;
        let bytes = match rng.below(4) {
            0 => 0,
            1 => 1,
            2 => rng.below(1 << 20),
            _ => rng.below(1 << 32),
        };
        let policy = if rng.below(2) == 0 {
            StopPolicy::EarliestFeasible
        } else {
            StopPolicy::BestDepth
        };
        let fixed = fixed.then(|| 1 + rng.below(2 * w as u64 + 2) as usize);
        Case {
            n,
            w,
            bytes,
            policy,
            fixed,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn search_equals_building_every_candidate(c in Cases) {
        let config = OpticalConfig::new(c.n, c.w);
        match c.fixed {
            None => {
                let params = WrhtParams::auto(c.n, c.w).with_stop_policy(c.policy);
                let oracle = oracle_candidates(&params, 2..=params.max_group_size());
                let want = oracle_choose(&params, &oracle, &config, c.bytes);
                let got = choose_group_size(&params, &config, c.bytes);
                same(&got, &want)?;
            }
            Some(m) => {
                let params = WrhtParams::fixed(c.n, c.w, m).with_stop_policy(c.policy);
                let want = oracle_fixed(&params, m, &config, c.bytes);
                let got = plan_and_simulate(&params, &config, c.bytes)
                    .map(|o| (o.m, o.plan, o.predicted));
                same(&got, &want)?;
            }
        }
    }
}

/// The wrht-scale grid: n = 128…4096, w ∈ {16, 32, 64}, both stop policies,
/// each paper model's gradient plus 0 and 1 bytes. One search per cell
/// prices every size, as one call per size does and as the oracle does.
#[test]
fn search_equals_the_oracle_on_the_wrht_scale_grid() {
    let mut sizes: Vec<u64> = dnn_models::paper_models()
        .iter()
        .map(|m| m.gradient_bytes())
        .collect();
    sizes.extend([0, 1]);
    for n in [128usize, 256, 512, 1024, 2048, 4096] {
        for w in [16usize, 32, 64] {
            let config = OpticalConfig::new(n, w);
            for policy in [StopPolicy::EarliestFeasible, StopPolicy::BestDepth] {
                let params = WrhtParams::auto(n, w).with_stop_policy(policy);
                let oracle = oracle_candidates(&params, 2..=params.max_group_size());
                let search = GroupSearch::new(&params);
                for &bytes in &sizes {
                    let want = oracle_choose(&params, &oracle, &config, bytes);
                    let got = search.choose(&config, bytes);
                    let cell = format!("n={n} w={w} {policy:?} bytes={bytes}");
                    same(&got, &want).unwrap_or_else(|e| panic!("{cell}: {e}"));
                    let one_call = choose_group_size(&params, &config, bytes);
                    same(&got, &one_call).unwrap_or_else(|e| panic!("{cell}: {e}"));
                }
            }
        }
    }
}

/// One search per cell, priced for every bucket of a zoo model at 25 MiB
/// buckets and for their sum (as the tenancy, fault, stream and timeline
/// cells lower them), equals one call per size and the oracle.
#[test]
fn one_search_per_cell_equals_one_call_per_bucket() {
    for (n, w) in [(128usize, 16usize), (128, 64), (1024, 32)] {
        let config = OpticalConfig::new(n, w);
        for policy in [StopPolicy::EarliestFeasible, StopPolicy::BestDepth] {
            let params = WrhtParams::auto(n, w).with_stop_policy(policy);
            let oracle = oracle_candidates(&params, 2..=params.max_group_size());
            let search = GroupSearch::new(&params);
            for model in dnn_models::all_models() {
                let buckets = bucketize(&model.layers, 25 << 20);
                let total: u64 = buckets.iter().map(|b| b.bytes).sum();
                for bytes in buckets.iter().map(|b| b.bytes).chain([total]) {
                    let got = search.choose(&config, bytes);
                    let cell = format!("n={n} w={w} {policy:?} {} bytes={bytes}", model.name);
                    let one_call = choose_group_size(&params, &config, bytes);
                    same(&got, &one_call).unwrap_or_else(|e| panic!("{cell}: {e}"));
                    let want = oracle_choose(&params, &oracle, &config, bytes);
                    same(&got, &want).unwrap_or_else(|e| panic!("{cell}: {e}"));
                }
            }
        }
    }
}
