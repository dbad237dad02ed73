//! Differential oracle for summary runs of the closed driver.
//!
//! `Substrate::execute_closed` hands each transfer's window to a sink and
//! keeps none; a caller that reads only the summary (the campaign's
//! pipelined and mixed-parallelism cells, the isolated runs of tenancy and
//! streams) passes a sink that ignores them. These suites pin that such a
//! run equals the run that keeps every window — `execute_dag`, or
//! `execute_dag_jobs` under job arbitration — in the makespan's bits,
//! `peak_wavelength`, `events`, `rate_recomputations`, `solver_work`, the
//! per-job vectors and the error value, on the optical, electrical and
//! composed substrates, unarbitrated and arbitrated:
//!
//! * over random stage-structured DAGs (`tests/support/stage_cases.rs`),
//!   streamed and materialized, including the `n = 2` barrier-shaped
//!   pipelined DAGs that take the electrical fast path;
//! * over the pipelined lowerings of all five algorithms, and the lazy
//!   collective sources the campaign's pipelined cells run;
//! * over [`ParallelismSource`] against its collected form.
//!
//! On every clean run the sink sees each key exactly once: without a
//! table, a duplicate or missing completion is no longer overwritten or
//! left at its default. The last tests pin the driver's typed errors for a
//! completion key outside the injected transfers and for a source that
//! reads more transfers than its length.

#[path = "support/stage_cases.rs"]
mod stage_cases;

use collectives::Collective;
use electrical_sim::FluidEngine;
use optical_sim::{GrantEngine, StepSchedule, Strategy};
use proptest::prelude::*;
use serde::Value;
use stage_cases::{case, Case, Rng};
use wrht_bench::campaign::Algorithm;
use wrht_bench::config::{ExperimentConfig, SubstrateKind};
use wrht_bench::timeline::AllReduceLowering;
use wrht_core::dag::{DepReader, DepSchedule, DepSource, DepTransfer, PipelinedSource};
use wrht_core::engine::{run_closed, Completion, FabricEngine};
use wrht_core::error::{Result, WrhtError};
use wrht_core::fault::{FaultPolicy, FaultScript};
use wrht_core::hierarchy::{compose, HierSpec};
use wrht_core::parallelism::{lower_parallelism, ParallelismSource, ParallelismSpec, StageModel};
use wrht_core::substrate::{DagRunReport, ElectricalSubstrate, OpticalSubstrate, Substrate};
use wrht_core::tenancy::{JobArbitration, TenantDagRun};

/// One to three jobs with drawn ranks over `len` transfers; fair share or
/// not.
fn arbitration(rng: &mut Rng, len: usize) -> JobArbitration {
    let jobs = 1 + rng.below(3);
    JobArbitration {
        job_of: (0..len).map(|_| rng.below(jobs)).collect(),
        rank: (0..jobs).map(|_| rng.below(3) as u64).collect(),
        fair_share: rng.chance(50),
    }
}

/// The summary run of `dag`: the windows go to a sink that only counts
/// each key. Returns the run and, for a clean one, a complaint if a key
/// was not seen exactly once.
fn summary(
    sub: &mut dyn Substrate,
    dag: &dyn DepSource,
    arb: Option<&JobArbitration>,
) -> (Result<TenantDagRun>, Option<String>) {
    let mut seen = vec![0u32; dag.len()];
    let mut outside = None;
    let run = sub.execute_closed(dag, arb, &mut |key, _| match seen.get_mut(key) {
        Some(count) => *count += 1,
        None => outside = Some(key),
    });
    let complaint = match (&run, outside) {
        (_, Some(key)) => Some(format!("key {key} outside {} transfers", dag.len())),
        (Ok(_), None) => seen
            .iter()
            .position(|&count| count != 1)
            .map(|key| format!("key {key} seen {} times", seen[key])),
        (Err(_), None) => None,
    };
    (run, complaint)
}

/// Every pinned scalar of a run, floats as bits.
fn counters(r: &DagRunReport) -> (String, u64, usize, u64, usize, usize) {
    (
        r.substrate.clone(),
        r.makespan_s.to_bits(),
        r.peak_wavelength,
        r.events,
        r.rate_recomputations,
        r.solver_work,
    )
}

/// Every per-job value of a run, as bits.
fn per_job(run: &TenantDagRun) -> Vec<u64> {
    [
        &run.job_active_s,
        &run.job_service_bytes,
        &run.job_peak_rate_bps,
    ]
    .iter()
    .flat_map(|v| v.iter().map(|x| x.to_bits()))
    .collect()
}

/// The summary run of `dag` on `sub` against the run that keeps every
/// window: `execute_dag(dag)` unarbitrated, `execute_dag_jobs(whole, arb)`
/// arbitrated (`whole` is `dag` materialized).
fn differential(
    sub: &mut dyn Substrate,
    dag: &dyn DepSource,
    whole: &DepSchedule,
    arb: Option<&JobArbitration>,
) -> std::result::Result<(), String> {
    let (short, complaint) = summary(sub, dag, arb);
    if let Some(complaint) = complaint {
        return Err(format!("{}: {complaint}", sub.name()));
    }
    let full = match arb {
        None => sub.execute_dag(dag).map(|dag| TenantDagRun {
            dag,
            job_active_s: Vec::new(),
            job_service_bytes: Vec::new(),
            job_peak_rate_bps: Vec::new(),
        }),
        Some(arb) => sub.execute_dag_jobs(whole, arb),
    };
    let (s, f) = match (short, full) {
        (Ok(s), Ok(f)) => (s, f),
        (Err(s), Err(f)) if s == f => return Ok(()),
        (s, f) => return Err(format!("summary {s:?} vs full {f:?}")),
    };
    if !s.dag.transfers.is_empty() {
        return Err(format!("{}: the summary kept windows", s.dag.substrate));
    }
    if f.dag.transfers.len() != dag.len() {
        return Err(format!("{}: the full run lost windows", f.dag.substrate));
    }
    if counters(&s.dag) != counters(&f.dag) || per_job(&s) != per_job(&f) {
        return Err(format!(
            "summary {:?} vs full {:?}",
            counters(&s.dag),
            counters(&f.dag)
        ));
    }
    Ok(())
}

/// The multi-group composed substrates over `n` hosts, both fabric orders,
/// when `n` splits into groups of at least two.
fn composed_pair(case: &Case, n: usize) -> Vec<Box<dyn Substrate>> {
    let Some(size) = (2..n).find(|&size| n.is_multiple_of(size)) else {
        return Vec::new();
    };
    let spec = HierSpec::new(n / size, size).expect("valid hierarchy");
    let optical = |nodes| -> Box<dyn Substrate> {
        let config = case.optical.clone();
        Box::new(
            OpticalSubstrate::new(optical_sim::OpticalConfig { nodes, ..config })
                .expect("valid optical config"),
        )
    };
    let electrical = |nodes| -> Box<dyn Substrate> {
        Box::new(ElectricalSubstrate::new(
            electrical_sim::topology::star_cluster(nodes, 1e9, 500e-9),
            case.overhead_s,
        ))
    };
    [
        (optical(size), electrical(n)),
        (electrical(size), optical(n)),
    ]
    .into_iter()
    .map(|(intra, inter)| compose(spec, intra, inter).expect("valid composed substrate"))
    .collect()
}

/// A random case's streamed and materialized pipelined DAG on every
/// substrate, unarbitrated and arbitrated.
fn random_case(seed: u64) -> std::result::Result<(), String> {
    let case = case(seed);
    let mut rng = Rng(seed.rotate_left(17) | 1);
    let whole = DepSchedule::pipelined_from_steps(&case.steps);
    let streamed = PipelinedSource::new(&case.steps);
    let arb = arbitration(&mut rng, whole.len());
    let mut subs: Vec<Box<dyn Substrate>> =
        vec![Box::new(case.optical()), Box::new(case.electrical())];
    subs.extend(composed_pair(&case, case.optical.nodes));
    for sub in &mut subs {
        for arb in [None, Some(&arb)] {
            differential(&mut **sub, &streamed, &whole, arb)?;
            differential(&mut **sub, &whole, &whole, arb)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random stage-structured DAGs summarize bit-identically on every
    /// substrate, errors included.
    #[test]
    fn summary_runs_equal_full_runs(seed in 0u64..u64::MAX) {
        let checked = random_case(seed);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }
}

/// The generator reaches the shapes this oracle is meant to cover: the
/// electrical fast path, multi-group composed substrates and errors.
#[test]
fn generator_covers_the_fast_path_and_the_composed_substrate() {
    let (mut fast, mut composed, mut errors) = (0, 0, 0);
    for seed in 0..200u64 {
        let case = case(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let source = PipelinedSource::new(&case.steps);
        fast += usize::from(source.is_barrier_shaped() && source.len() > 2);
        composed += usize::from(!composed_pair(&case, case.optical.nodes).is_empty());
        errors += usize::from(case.electrical().execute_dag(&source).is_err());
    }
    assert!(
        fast > 10 && composed > 50 && errors > 10,
        "{fast} fast-path, {composed} composed, {errors} errors"
    );
}

/// The substrates a lowering of `n` hosts runs on: both flat fabrics and
/// the composed hierarchy of groups of `n / 4` hosts (optical rings inside,
/// the electrical star between).
fn substrates(cfg: &ExperimentConfig, n: usize) -> Vec<Box<dyn Substrate>> {
    let mut subs: Vec<Box<dyn Substrate>> = [SubstrateKind::Electrical, SubstrateKind::Optical]
        .into_iter()
        .map(|kind| {
            cfg.try_substrate(kind, n, Strategy::FirstFit)
                .expect("substrate")
        })
        .collect();
    let spec = HierSpec::new(4, n / 4).expect("valid hierarchy");
    subs.push(
        cfg.try_composed(spec, Strategy::FirstFit)
            .expect("composed"),
    );
    subs
}

/// The pipelined lowerings of all five algorithms at n ∈ {8, 32}, streamed
/// and materialized, summarize bit-identically on every substrate,
/// unarbitrated and over two jobs; so does the lazy source of each classic
/// collective.
#[test]
fn real_lowerings_summarize_bit_identically() {
    let cfg = ExperimentConfig::default();
    let bytes = 3 << 20;
    for n in [8, 32] {
        for algorithm in [
            Algorithm::Ring,
            Algorithm::RecursiveDoubling,
            Algorithm::HalvingDoubling,
            Algorithm::Tree,
            Algorithm::Wrht,
        ] {
            let (steps, _) = AllReduceLowering::new(&cfg, algorithm, n)
                .lower(bytes)
                .expect("lowering");
            let whole = DepSchedule::pipelined_from_steps(&steps);
            let arb = JobArbitration {
                job_of: (0..whole.len()).map(|i| i % 2).collect(),
                rank: vec![1, 0],
                fair_share: false,
            };
            let source = algorithm
                .collective()
                .map(|collective| cfg.collective(collective, n, bytes));
            let lazy = source.as_ref().map(|s| PipelinedSource::new(s));
            for mut sub in substrates(&cfg, n) {
                for arb in [None, Some(&arb)] {
                    let streamed = PipelinedSource::new(&steps);
                    let mut sources: Vec<&dyn DepSource> = vec![&streamed, &whole];
                    if let Some(lazy) = &lazy {
                        sources.push(lazy);
                    }
                    for dag in sources {
                        if let Err(e) = differential(&mut *sub, dag, &whole, arb) {
                            panic!("{algorithm:?} n={n} arbitrated {}: {e}", arb.is_some());
                        }
                    }
                }
            }
        }
    }
}

/// [`ParallelismSource`] summarizes as its collected form runs, on both
/// composed fabric orders (one-group shapes run the flat optical
/// substrate), unarbitrated and arbitrated.
#[test]
fn parallelism_sources_summarize_as_their_collected_form() {
    let cfg = ExperimentConfig::default();
    let mut rng = Rng(0x5EED);
    for (tp, pp, dp, moe, microbatches) in [
        (4, 1, 1, 0, 2),
        (2, 1, 4, 0, 2),
        (2, 2, 2, 0, 3),
        (2, 2, 2, 4, 2),
        (3, 2, 2, 6, 1),
    ] {
        let spec = ParallelismSpec::new(tp, pp, dp, moe, microbatches).expect("valid degrees");
        let model = StageModel::split(pp as u64 * (3 << 20), pp, 1 << 16);
        let source = ParallelismSource::new(&spec, &model).expect("source");
        let whole = lower_parallelism(&spec, &model).expect("lowering");
        let hier = spec.hier().expect("hierarchy");
        let arb = arbitration(&mut rng, whole.len());
        let kind = |kind, n| {
            cfg.try_substrate(kind, n, Strategy::FirstFit)
                .expect("substrate")
        };
        let (intra, inter) = (hier.group_size, hier.nodes());
        for (a, b) in [
            (SubstrateKind::Optical, SubstrateKind::Electrical),
            (SubstrateKind::Electrical, SubstrateKind::Optical),
        ] {
            let mut sub = compose(hier, kind(a, intra), kind(b, inter)).expect("composed");
            for arb in [None, Some(&arb)] {
                if let Err(e) = differential(&mut *sub, &source, &whole, arb) {
                    panic!("{spec:?} on {}: {e}", sub.name());
                }
            }
        }
    }
}

/// An engine that renumbers its first drained completion to one past the
/// last key injected so far: outside the injected transfers.
struct Misnumbered<E> {
    inner: E,
    injected: usize,
    renumbered: bool,
}

impl<E: FabricEngine> FabricEngine for Misnumbered<E> {
    fn peek_time(&self) -> Option<f64> {
        self.inner.peek_time()
    }

    fn add_job(&mut self, rank: u64) -> usize {
        self.inner.add_job(rank)
    }

    fn retire_job(&mut self, job: usize) {
        self.inner.retire_job(job);
    }

    fn set_faults(&mut self, script: &FaultScript, policy: FaultPolicy) -> Result<bool> {
        self.inner.set_faults(script, policy)
    }

    fn inject(
        &mut self,
        transfers: &[DepTransfer],
        first: usize,
        offset_s: f64,
        job: &dyn Fn(usize) -> usize,
    ) -> Result<()> {
        self.injected = first + transfers.len();
        self.inner.inject(transfers, first, offset_s, job)
    }

    fn frontier(&self) -> usize {
        self.inner.frontier()
    }

    fn step(&mut self) -> Result<Option<f64>> {
        self.inner.step()
    }

    fn drain(&mut self, out: &mut Vec<Completion>) {
        let from = out.len();
        self.inner.drain(out);
        if let Some(c) = out.get_mut(from).filter(|_| !self.renumbered) {
            c.key = self.injected;
            self.renumbered = true;
        }
    }

    fn events(&self) -> u64 {
        self.inner.events()
    }

    fn stall_diagnostic(&mut self) -> Result<()> {
        self.inner.stall_diagnostic()
    }

    fn first_impact_s(&self) -> Option<f64> {
        self.inner.first_impact_s()
    }

    fn snapshot(&self) -> Value {
        self.inner.snapshot()
    }
}

/// A completion key at or past the transfers injected so far is a typed
/// error on both engines: for a materialized DAG (a key past the schedule)
/// and for a streamed one (a key of the schedule not yet injected, which a
/// table sized by the schedule would have taken).
#[test]
fn a_key_outside_the_injected_transfers_is_a_typed_error() {
    let cfg = ExperimentConfig::default();
    let ring = cfg.collective(Collective::Ring, 64, 1 << 20);
    let whole = DepSchedule::pipelined_from_steps(&ring);
    let streamed = PipelinedSource::new(&ring);
    let want: WrhtError =
        optical_sim::OpticalError::BadConfig("completion key outside the schedule").into();
    let net = cfg.electrical(64);
    for (dag, inside) in [(&whole as &dyn DepSource, false), (&streamed, true)] {
        let mut grant = Misnumbered {
            inner: GrantEngine::new(&cfg.optical(64), Strategy::FirstFit, false, false)
                .expect("valid ring"),
            injected: 0,
            renumbered: false,
        };
        let optical = run_closed(&mut grant, dag, None, |c| panic!("{c:?} reached the sink"));
        assert_eq!(optical, Err(want.clone()));
        assert!(grant.renumbered);
        assert_eq!(grant.injected < dag.len(), inside);

        let mut fluid = Misnumbered {
            inner: FluidEngine::new(&net).with_launch_delay(cfg.electrical_step_overhead_s),
            injected: 0,
            renumbered: false,
        };
        let electrical = run_closed(&mut fluid, dag, None, |c| panic!("{c:?} reached the sink"));
        assert_eq!(electrical, Err(want.clone()));
        assert!(fluid.renumbered);
        assert_eq!(fluid.injected < dag.len(), inside);
    }
}

/// A source whose stages hold more transfers than its length.
struct Overlong<'a>(&'a DepSchedule);

impl DepSource for Overlong<'_> {
    fn len(&self) -> usize {
        self.0.len() - 1
    }

    fn stages(&self) -> Box<dyn DepReader + '_> {
        self.0.stages()
    }
}

/// A source that reads more transfers than its length is a typed error
/// before anything is injected past it, arbitrated or not (a job tag list
/// sized by the length has no tag for the extra transfer). A barrier-shaped
/// one takes the electrical fast path, which stops there too: its sink
/// never sees a key at or past the length.
#[test]
fn a_source_longer_than_its_length_is_a_typed_error() {
    let steps = StepSchedule::from_steps(vec![
        vec![optical_sim::Transfer::shortest(
            optical_sim::NodeId(0),
            optical_sim::NodeId(1),
            4_096,
        )],
        vec![optical_sim::Transfer::shortest(
            optical_sim::NodeId(1),
            optical_sim::NodeId(2),
            4_096,
        )],
    ]);
    let whole = DepSchedule::pipelined_from_steps(&steps);
    let source = Overlong(&whole);
    let arb = JobArbitration {
        job_of: vec![0; source.len()],
        rank: vec![0],
        fair_share: false,
    };
    let want: WrhtError =
        optical_sim::OpticalError::BadConfig("source reads more transfers than its length").into();
    let config = optical_sim::OpticalConfig::new(4, 2);
    for arb in [None, Some(&arb)] {
        let mut grant = GrantEngine::new(&config, Strategy::FirstFit, arb.is_some(), false)
            .expect("valid ring");
        assert_eq!(
            run_closed(&mut grant, &source, arb, |_| {}),
            Err(want.clone())
        );
        let mut sub = OpticalSubstrate::new(config.clone()).expect("valid ring");
        let run = sub.execute_closed(&source, arb, &mut |_, _| {});
        assert_eq!(run.map(|r| r.dag.makespan_s), Err(want.clone()));
    }
    let barrier = DepSchedule::from_steps(&steps);
    let source = Overlong(&barrier);
    assert!(source.is_barrier_shaped());
    let cfg = ExperimentConfig::small();
    let mut sub = ElectricalSubstrate::new(cfg.electrical(4), cfg.electrical_step_overhead_s);
    for arb in [None, Some(&arb)] {
        let mut keys = Vec::new();
        let run = sub.execute_closed(&source, arb, &mut |key, _| keys.push(key));
        assert_eq!(run.map(|r| r.dag.makespan_s), Err(want.clone()));
        assert!(keys.iter().all(|&k| k < source.len()), "{keys:?}");
    }
}
