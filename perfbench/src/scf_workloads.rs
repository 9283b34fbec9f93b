//! `dense-dz` and `sparse-chain`: one client runs SCFs to convergence
//! back to back on a prepared problem. No random input.

use crate::common::{
    check_energy, median, percentile, ratio, repeat_setup, scf_config, secs, RunOutput, Tally,
    TimedBuild, Verdict, TAU,
};
use crate::inputs;
use crate::layers::{self, BuildTotals, Collected};
use crate::refs::References;
use crate::spans::Spans;
use fock_repro::chem::{BasisSetKind, Molecule};
use fock_repro::core::autotune::TunedFamily;
use fock_repro::core::{
    autotuned, gtfock_builder, run_scf_on, AutoTuneConfig, AutoTunedBuild, AutoTuner, FockBuild,
    FockProblem, ScfResult, SchedulerOpts,
};
use fock_repro::distrt::{MachineParams, ProcessGrid};
use fock_repro::eri::CostModel;
use fock_repro::obs::Recorder;
use std::sync::Arc;
use std::time::Instant;

/// Fewest set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

pub struct ScfWorkload {
    name: &'static str,
    molecule: Molecule,
    kind: BasisSetKind,
    /// Incremental ΔD builds with periodic full rebuilds.
    incremental: bool,
    /// `AutoTunedBuild` (gtfock family) instead of plain `GtfockBuild`.
    autotune: bool,
    /// Run seconds per SCF: a run does `seconds / unit_s` SCFs, at
    /// least one.
    unit_s: f64,
}

pub fn dense_dz() -> ScfWorkload {
    let (molecule, kind) = inputs::dense_dz();
    ScfWorkload {
        name: "dense-dz",
        molecule,
        kind,
        incremental: false,
        autotune: false,
        unit_s: 6.0,
    }
}

pub fn sparse_chain() -> ScfWorkload {
    let (molecule, kind) = inputs::sparse_chain();
    ScfWorkload {
        name: "sparse-chain",
        molecule,
        kind,
        incremental: true,
        autotune: true,
        unit_s: 20.0,
    }
}

/// A 1×2 process grid: two compute threads.
fn opts() -> SchedulerOpts {
    SchedulerOpts::with_grid(ProcessGrid::new(1, 2))
}

/// One finished SCF.
struct ScfRun {
    wall: f64,
    builds: Vec<(Instant, f64)>,
    result: Result<ScfResult, String>,
    tuner: Option<Arc<AutoTunedBuild>>,
}

impl ScfWorkload {
    fn setup(&self) -> Result<Arc<FockProblem>, String> {
        let prob = FockProblem::new(
            self.molecule.clone(),
            self.kind,
            TAU,
            crate::common::ordering(),
        )?;
        prob.pairs();
        prob.one_electron();
        prob.gwh_guess();
        Ok(Arc::new(prob))
    }

    fn scf(&self, prob: &Arc<FockProblem>, recorder: Recorder) -> ScfRun {
        let (builder, tuner): (Arc<dyn FockBuild + Send + Sync>, _) = if self.autotune {
            let tuner = autotuned(AutoTuneConfig::gtfock(opts()));
            (tuner.clone(), Some(tuner))
        } else {
            (gtfock_builder(opts().gtfock()), None)
        };
        let timed = TimedBuild::new(builder);
        let cfg = scf_config(timed.clone(), self.incremental, recorder);
        let t0 = Instant::now();
        let result = run_scf_on(Arc::clone(prob), cfg).map_err(|e| e.to_string());
        let wall = secs(t0);
        ScfRun {
            wall,
            builds: timed.calls(),
            result,
            tuner,
        }
    }

    fn verdict(run: &ScfRun, reference: f64) -> Verdict {
        match &run.result {
            Ok(r) => check_energy(r.energy, r.converged, reference),
            Err(e) => Verdict::Unexplained(e.clone()),
        }
    }

    pub fn run(
        &self,
        refs: &References,
        seconds: f64,
        seed: u64,
        trace: bool,
    ) -> Result<RunOutput, String> {
        let reference = refs.get(&format!("{}/exact", self.name))?;
        let units = ((seconds / self.unit_s) as usize).max(1);
        if trace {
            return self.run_traced(reference, (units / 2).max(1), seed);
        }
        let (setup_s, prob) = repeat_setup(SETUP_REPS, || self.setup())?;

        let mut tally = Tally::default();
        let (mut walls, mut builds) = (Vec::new(), Vec::new());
        let mut completed = 0;
        for i in 0..units {
            let run = self.scf(&prob, Recorder::disabled());
            tally.add(
                &format!("{} scf {i}", self.name),
                Self::verdict(&run, reference),
            );
            completed += usize::from(run.result.is_ok());
            walls.push(run.wall);
            builds.extend(run.builds.iter().map(|b| b.1));
        }
        let mut out = Collected::default();
        out.set("setup_s", median(&setup_s), setup_s.len());
        out.set("scf_s", median(&walls), walls.len());
        out.set("fock_build_s.p50", median(&builds), builds.len());
        out.set(
            "jobs_per_s",
            ratio(completed as f64, walls.iter().sum()),
            walls.len(),
        );
        out.set("job_latency_s.p50", percentile(&walls, 0.5), walls.len());
        out.set("job_latency_s.p90", percentile(&walls, 0.9), walls.len());
        out.set("ok_frac", tally.ok_frac(), tally.attempted as usize);
        out.set("peak_rss_mb", crate::common::peak_rss_mb(), 1);
        Ok(RunOutput {
            tally,
            metrics: out.finish(&layers::end_to_end_names()),
        })
    }

    /// `units` untraced SCFs (the overhead baseline), then `units` traced
    /// ones whose reports, counters and spans give the per-layer metrics.
    fn run_traced(&self, reference: f64, units: usize, seed: u64) -> Result<RunOutput, String> {
        let mut spans = Spans::new();
        let mut out = Collected::default();
        let mut tally = Tally::default();

        let mut times = Vec::new();
        let mut prob = None;
        for r in 0..3 {
            let (p, t) = layers::traced_setup(&mut spans, self.molecule.clone(), self.kind, r)?;
            times.push(t);
            prob = Some(p);
        }
        layers::set_setup_metrics(&mut out, &times, false);
        let prob = prob.expect("at least one set-up");

        let (cost, t_cal) = spans.timed("eri.cost_calibrate", None, 0, || {
            CostModel::calibrate(&prob.basis, 1)
        });
        out.set("eri.cost_calibrate_s", t_cal, 1);
        let (_, t_sel) = spans.timed("des.select", None, 0, || {
            AutoTuner::new(TunedFamily::Gtfock, opts()).select(
                &prob,
                &cost,
                None,
                MachineParams::shared_memory(),
                2,
            )
        });
        out.set("des.select_s", t_sel, 1);

        let mut untraced = Vec::new();
        for i in 0..units {
            let run = self.scf(&prob, Recorder::disabled());
            tally.check_setup(
                &format!("{} untraced scf {i}", self.name),
                Self::verdict(&run, reference),
            );
            untraced.push(run.wall);
        }

        let rec = Recorder::enabled();
        let mut totals = BuildTotals::default();
        let (mut traced, mut iterations, mut nbuilds, mut driver) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut decisions = Vec::new();
        let mut last_fock = None;
        for i in 0..units {
            let t0 = Instant::now();
            let run = self.scf(&prob, rec.clone());
            let root = spans.record("scf", None, i as u64, t0, Instant::now());
            for (start, wall) in &run.builds {
                let end = *start + std::time::Duration::from_secs_f64(*wall);
                spans.record("core.fock_build", Some(root), i as u64, *start, end);
            }
            tally.add(
                &format!("{} scf {i}", self.name),
                Self::verdict(&run, reference),
            );
            traced.push(run.wall);
            driver.push(run.wall - run.builds.iter().map(|b| b.1).sum::<f64>());
            nbuilds.push(run.builds.len() as f64);
            if let Some(t) = &run.tuner {
                decisions.push(t.decisions().len() as f64);
            }
            if let Ok(res) = run.result {
                iterations.push(res.iterations as f64);
                res.reports.iter().for_each(|r| totals.add(r));
                last_fock = Some(res.fock);
            }
        }
        totals.set_metrics(&mut out);
        layers::set_class_metrics(&mut out, &rec.metrics_snapshot());
        out.set("scf.iterations", median(&iterations), iterations.len());
        out.set("scf.builds", median(&nbuilds), nbuilds.len());
        out.set("scf.driver_s", median(&driver), driver.len());
        out.set("autotune.decisions", median(&decisions), decisions.len());
        if let Some(fock) = &last_fock {
            layers::set_linalg_metrics(&mut out, &mut spans, &prob, fock);
        }
        layers::finish_trace(
            &mut out,
            &spans,
            self.name,
            seed,
            median(&untraced),
            median(&traced),
        );
        Ok(RunOutput {
            tally,
            metrics: out.finish(&layers::per_layer_names()),
        })
    }
}
