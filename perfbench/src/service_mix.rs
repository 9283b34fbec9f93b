//! `service-mix`: a closed loop of four clients over one `ScfService`
//! (2 runners, 2 pool workers). Each client submits a job, waits for its
//! outcome and submits the next, so four jobs are outstanding at a time.
//! The job stream is drawn from the workload seed.

use crate::common::{
    check_energy, median, percentile, ratio, repeat_setup, scf_config, secs, Rng, RunOutput, Tally,
    Verdict, ENERGY_TOL,
};
use crate::inputs::{self, SERVICE_BASIS, SERVICE_MOLECULES, VARIANTS};
use crate::layers::{self, BuildTotals, Collected};
use crate::refs::{df_key, exact_key, References};
use crate::spans::Spans;
use fock_repro::core::{df_builder, seq_builder, BuildReport};
use fock_repro::eri::AuxSpec;
use fock_repro::linalg::Mat;
use fock_repro::obs::Recorder;
use fock_repro::service::{JobOutcome, JobSpec, ScfService, ServiceConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Jobs outstanding at once: one per closed-loop client.
const CLIENTS: usize = 4;
/// Fewest set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Run seconds per round: a run does `seconds / ROUND_S` rounds, at
/// least one.
const ROUND_S: f64 = 10.0;
/// Jobs per molecule per round: one on a perturbed geometry, one with
/// `DfBuild`, the rest plain exact jobs on the base geometry.
const JOBS_PER_MOLECULE: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Job {
    mol: usize,
    /// 0 = base geometry, else a pinned perturbation.
    variant: usize,
    df: bool,
}

impl Job {
    fn spec(&self) -> JobSpec {
        let builder = if self.df {
            df_builder(AuxSpec::default())
        } else {
            seq_builder()
        };
        JobSpec::new(
            inputs::service_variant(self.mol, self.variant),
            SERVICE_BASIS,
            scf_config(builder, false, Recorder::disabled()),
        )
    }

    fn label(&self) -> String {
        let mut s = format!("{} v{}", SERVICE_MOLECULES[self.mol], self.variant);
        if self.df {
            s.push_str(" df");
        }
        s
    }
}

/// The job stream of a run. Per molecule, each round holds exactly one
/// perturbed job, one DF job and six plain jobs, so every seed gives the
/// same mix. A round is `JOBS_PER_MOLECULE` blocks of one job per
/// molecule, so arrivals stay mixed over time. The seed decides which
/// block gets each molecule's perturbed and DF job, the order within
/// each block, and which perturbation each perturbed job uses (distinct
/// within a run up to `VARIANTS` rounds, so each is a cache miss).
fn plan(seed: u64, rounds: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let mut blocks: Vec<Vec<Job>> = vec![Vec::new(); rounds * JOBS_PER_MOLECULE];
    for mol in 0..SERVICE_MOLECULES.len() {
        let mut variants: Vec<usize> = (1..=VARIANTS).collect();
        rng.shuffle(&mut variants);
        for r in 0..rounds {
            let plain = Job {
                mol,
                variant: 0,
                df: false,
            };
            let mut kinds = vec![plain; JOBS_PER_MOLECULE];
            kinds[0].variant = variants[r % VARIANTS];
            kinds[1].df = true;
            rng.shuffle(&mut kinds);
            for (k, job) in kinds.into_iter().enumerate() {
                blocks[r * JOBS_PER_MOLECULE + k].push(job);
            }
        }
    }
    for block in &mut blocks {
        rng.shuffle(block);
    }
    blocks.concat()
}

/// What the benchmark keeps of a finished job.
struct Finished {
    energy: f64,
    converged: bool,
    iterations: usize,
    queue_wait: f64,
    exec: f64,
    /// Per-iteration Fock-build wall time: the slowest worker's `t_fock`.
    builds: Vec<f64>,
    reports: Vec<BuildReport>,
}

impl Finished {
    fn from_outcome(out: JobOutcome) -> Finished {
        let res = out.result;
        Finished {
            energy: res.energy,
            converged: res.converged,
            iterations: res.iterations,
            queue_wait: out.queue_wait_secs,
            exec: out.exec_secs,
            builds: res
                .reports
                .iter()
                .map(|r| r.t_fock.iter().copied().fold(0.0, f64::max))
                .collect(),
            reports: res.reports,
        }
    }
}

struct Done {
    job: Job,
    submitted: Instant,
    latency: f64,
    outcome: Result<Finished, String>,
    rejected: bool,
}

struct Stream {
    wall: f64,
    done: Vec<Done>,
}

fn new_service(recorder: Recorder) -> ScfService {
    ScfService::new(
        ServiceConfig::default()
            .with_workers(2)
            .with_runners(2)
            .with_recorder(recorder),
    )
}

/// One exact job per base molecule, submitted together: fills the cache
/// a long-lived service keeps. Returns the outcomes in molecule order.
fn warm_up(svc: &ScfService) -> Vec<Result<JobOutcome, String>> {
    let handles: Vec<_> = (0..SERVICE_MOLECULES.len())
        .map(|mol| {
            let job = Job {
                mol,
                variant: 0,
                df: false,
            };
            svc.submit(job.spec()).map_err(|e| e.to_string())
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.and_then(|h| h.wait().map_err(|e| e.to_string())))
        .collect()
}

fn stream(svc: &ScfService, jobs: &[Job]) -> Stream {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(jobs.len()));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&job) = jobs.get(i) else { break };
                let spec = job.spec();
                let submitted = Instant::now();
                let (outcome, rejected) = match svc.submit(spec) {
                    Ok(handle) => (
                        handle
                            .wait()
                            .map(Finished::from_outcome)
                            .map_err(|e| e.to_string()),
                        false,
                    ),
                    Err(e) => (Err(e.to_string()), true),
                };
                let latency = secs(submitted);
                done.lock().expect("result log poisoned").push(Done {
                    job,
                    submitted,
                    latency,
                    outcome,
                    rejected,
                });
            });
        }
    });
    Stream {
        wall: secs(t0),
        done: done.into_inner().expect("result log poisoned"),
    }
}

/// Pinned references, looked up before any job runs.
struct Refs {
    exact: Vec<Vec<f64>>,
    df: Vec<f64>,
}

impl Refs {
    fn load(refs: &References) -> Result<Refs, String> {
        let n = SERVICE_MOLECULES.len();
        Ok(Refs {
            exact: (0..n)
                .map(|m| (0..=VARIANTS).map(|v| refs.get(&exact_key(m, v))).collect())
                .collect::<Result<_, _>>()?,
            df: (0..n)
                .map(|m| refs.get(&df_key(m)))
                .collect::<Result<_, _>>()?,
        })
    }

    /// A DF job must land on the standalone DF energy. One that lands on
    /// the exact energy instead was run by the service's exact pool
    /// builder: the recorded DF-routing defect.
    fn verdict(&self, job: &Job, outcome: &Result<Finished, String>) -> Verdict {
        let f = match outcome {
            Ok(f) => f,
            Err(e) => return Verdict::Unexplained(e.clone()),
        };
        let exact = self.exact[job.mol][job.variant];
        if !job.df {
            return check_energy(f.energy, f.converged, exact);
        }
        match check_energy(f.energy, f.converged, self.df[job.mol]) {
            Verdict::Ok => Verdict::Ok,
            _ if f.converged && (f.energy - exact).abs() <= ENERGY_TOL => {
                Verdict::Known("df_builder_swap")
            }
            other => other,
        }
    }
}

fn check_warm_up(tally: &mut Tally, refs: &Refs, outcomes: &[Result<JobOutcome, String>]) {
    for (mol, out) in outcomes.iter().enumerate() {
        let verdict = match out {
            Ok(o) => check_energy(o.result.energy, o.result.converged, refs.exact[mol][0]),
            Err(e) => Verdict::Unexplained(e.clone()),
        };
        tally.check_setup(&format!("warm-up {}", SERVICE_MOLECULES[mol]), verdict);
    }
}

fn tally_stream(tally: &mut Tally, refs: &Refs, s: &Stream) {
    for d in &s.done {
        tally.add(&d.job.label(), refs.verdict(&d.job, &d.outcome));
    }
}

fn finished(s: &Stream) -> impl Iterator<Item = &Finished> {
    s.done.iter().filter_map(|d| d.outcome.as_ref().ok())
}

pub fn run(refs: &References, seconds: f64, seed: u64, trace: bool) -> Result<RunOutput, String> {
    let refs = Refs::load(refs)?;
    let rounds = ((seconds / ROUND_S) as usize).max(1);
    if trace {
        return run_traced(&refs, plan(seed, (rounds / 2).max(1)), seed);
    }
    let jobs = plan(seed, rounds);
    let mut tally = Tally::default();
    let (setup_s, svc) = repeat_setup(SETUP_REPS, || {
        let s = new_service(Recorder::disabled());
        let warm = warm_up(&s);
        check_warm_up(&mut tally, &refs, &warm);
        Ok(s)
    })?;
    let s = stream(&svc, &jobs);
    svc.shutdown();
    tally_stream(&mut tally, &refs, &s);

    // SCF and build times are taken from the plain jobs of the largest
    // molecule: job costs form one cluster per molecule, and a median
    // over all jobs would fall between two clusters.
    let largest: Vec<&Finished> = s
        .done
        .iter()
        .filter(|d| d.job.mol == SERVICE_MOLECULES.len() - 1 && d.job.variant == 0 && !d.job.df)
        .filter_map(|d| d.outcome.as_ref().ok())
        .collect();
    let exec: Vec<f64> = largest.iter().map(|f| f.exec).collect();
    let builds: Vec<f64> = largest
        .iter()
        .flat_map(|f| f.builds.iter().copied())
        .collect();
    let latency: Vec<f64> = s
        .done
        .iter()
        .filter(|d| !d.rejected)
        .map(|d| d.latency)
        .collect();
    let completed = finished(&s).count();
    let mut out = Collected::default();
    out.set("setup_s", median(&setup_s), setup_s.len());
    out.set("scf_s", median(&exec), exec.len());
    out.set("fock_build_s.p50", median(&builds), builds.len());
    out.set("jobs_per_s", ratio(completed as f64, s.wall), completed);
    out.set(
        "job_latency_s.p50",
        percentile(&latency, 0.5),
        latency.len(),
    );
    out.set(
        "job_latency_s.p90",
        percentile(&latency, 0.9),
        latency.len(),
    );
    out.set("ok_frac", tally.ok_frac(), tally.attempted as usize);
    out.set("peak_rss_mb", crate::common::peak_rss_mb(), 1);
    Ok(RunOutput {
        tally,
        metrics: out.finish(&layers::end_to_end_names()),
    })
}

/// The same job list on an untraced service (the overhead baseline) and
/// then on a service with an enabled recorder.
fn run_traced(refs: &Refs, jobs: Vec<Job>, seed: u64) -> Result<RunOutput, String> {
    let mut spans = Spans::new();
    let mut out = Collected::default();
    let mut tally = Tally::default();

    // Set-up layers of the base molecules, as the cache builds them.
    let mut times = Vec::new();
    let mut largest = None;
    for mol in 0..SERVICE_MOLECULES.len() {
        let m = inputs::service_molecule(mol);
        let (p, t) = layers::traced_setup(&mut spans, m, SERVICE_BASIS, mol as u64)?;
        times.push(t);
        largest = Some(p);
    }
    layers::set_setup_metrics(&mut out, &times, true);

    let svc = new_service(Recorder::disabled());
    check_warm_up(&mut tally, refs, &warm_up(&svc));
    let base = stream(&svc, &jobs);
    svc.shutdown();
    for d in &base.done {
        tally.check_setup(&d.job.label(), refs.verdict(&d.job, &d.outcome));
    }

    let rec = Recorder::enabled();
    let svc = new_service(rec.clone());
    let warm = warm_up(&svc);
    check_warm_up(&mut tally, refs, &warm);
    let before = svc.cache_stats();
    let s = stream(&svc, &jobs);
    let after = svc.cache_stats();
    svc.shutdown();
    tally_stream(&mut tally, refs, &s);

    for (i, d) in s.done.iter().enumerate() {
        let root = spans.record(
            "service.job",
            None,
            i as u64,
            d.submitted,
            d.submitted + Duration::from_secs_f64(d.latency),
        );
        if let Ok(f) = &d.outcome {
            let started = d.submitted + Duration::from_secs_f64(f.queue_wait);
            spans.record(
                "service.queue_wait",
                Some(root),
                i as u64,
                d.submitted,
                started,
            );
            spans.record(
                "scf",
                Some(root),
                i as u64,
                started,
                started + Duration::from_secs_f64(f.exec),
            );
        }
    }

    let fin: Vec<&Finished> = finished(&s).collect();
    let col = |f: &dyn Fn(&Finished) -> f64| fin.iter().map(|x| f(x)).collect::<Vec<f64>>();
    let waits = col(&|f| f.queue_wait);
    let builds: Vec<f64> = fin.iter().flat_map(|f| f.builds.iter().copied()).collect();
    out.set(
        "service.queue_wait_s.p50",
        percentile(&waits, 0.5),
        waits.len(),
    );
    out.set(
        "service.queue_wait_s.p90",
        percentile(&waits, 0.9),
        waits.len(),
    );
    out.set("service.exec_s.p50", median(&col(&|f| f.exec)), fin.len());
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.set(
        "service.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        (hits + misses) as usize,
    );
    out.set("pool.build_s.p50", median(&builds), builds.len());
    let rejected = s.done.iter().filter(|d| d.rejected).count();
    out.set("service.rejected", rejected as f64, s.done.len());
    out.set(
        "scf.iterations",
        median(&col(&|f| f.iterations as f64)),
        fin.len(),
    );
    out.set(
        "scf.builds",
        median(&col(&|f| f.builds.len() as f64)),
        fin.len(),
    );
    out.set(
        "scf.driver_s",
        median(&col(&|f| f.exec - f.builds.iter().sum::<f64>())),
        fin.len(),
    );
    let mut totals = BuildTotals::default();
    fin.iter()
        .flat_map(|f| &f.reports)
        .for_each(|r| totals.add(r));
    totals.set_metrics(&mut out);
    layers::set_class_metrics(&mut out, &rec.metrics_snapshot());

    // Dense linear algebra on the largest molecule's converged warm-up.
    let fock: Option<Mat> = warm
        .into_iter()
        .last()
        .and_then(|w| w.ok())
        .map(|w| w.result.fock);
    if let (Some(prob), Some(fock)) = (largest, fock) {
        layers::set_linalg_metrics(&mut out, &mut spans, &prob, &fock);
    }
    layers::finish_trace(&mut out, &spans, "service-mix", seed, base.wall, s.wall);
    Ok(RunOutput {
        tally,
        metrics: out.finish(&layers::per_layer_names()),
    })
}
