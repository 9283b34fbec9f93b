//! Shared pieces: the SCF settings every workload uses, the seeded RNG,
//! order statistics, the reference check, the timing builder wrapper and
//! the metric/result types the workloads fill in.

use fock_repro::chem::reorder::ShellOrdering;
use fock_repro::core::scf::ScfGuess;
use fock_repro::core::{BuildError, BuildOutcome, FockBuild, FockProblem, ScfConfig};
use fock_repro::obs::Recorder;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schwarz screening tolerance: the `ScfConfig` default that `run_scf`
/// and `ScfService` run with.
pub const TAU: f64 = 1e-11;

/// Largest distance, in hartree, between an energy and its reference.
pub const ENERGY_TOL: f64 = 1e-8;

/// The paper's spatial cell ordering.
pub fn ordering() -> ShellOrdering {
    ShellOrdering::cells_default()
}

/// The SCF settings of every workload: default τ, cell ordering, DIIS and
/// the GWH guess; incremental ΔD builds only when asked.
pub fn scf_config(
    builder: Arc<dyn FockBuild + Send + Sync>,
    incremental: bool,
    recorder: Recorder,
) -> ScfConfig {
    ScfConfig::builder()
        .tau(TAU)
        .ordering(ordering())
        .diis(true)
        .guess(ScfGuess::Gwh)
        .incremental(incremental)
        .fock_builder(builder)
        .recorder(recorder)
        .build()
}

/// splitmix64: small, seedable and good enough to draw workload inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile (`q` in (0, 1]); 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Why an operation failed, for attribution.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Ok,
    /// A failure caused by a recorded program defect (named).
    Known(&'static str),
    /// Anything else: makes the run incorrect.
    Unexplained(String),
}

/// Check one SCF outcome against its pinned reference.
pub fn check_energy(energy: f64, converged: bool, reference: f64) -> Verdict {
    if !converged {
        Verdict::Unexplained(format!("not converged (E = {energy:.10})"))
    } else if (energy - reference).abs() > ENERGY_TOL {
        Verdict::Unexplained(format!(
            "E = {energy:.10} misses reference {reference:.10} by {:.2e}",
            (energy - reference).abs()
        ))
    } else {
        Verdict::Ok
    }
}

/// Tally of checked operations.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub known: Vec<(&'static str, u64)>,
    pub unexplained: Vec<String>,
}

impl Tally {
    pub fn add(&mut self, what: &str, verdict: Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Ok => {}
            Verdict::Known(cause) => {
                self.failed += 1;
                match self.known.iter_mut().find(|(c, _)| *c == cause) {
                    Some((_, n)) => *n += 1,
                    None => self.known.push((cause, 1)),
                }
            }
            Verdict::Unexplained(msg) => {
                self.failed += 1;
                self.unexplained.push(format!("{what}: {msg}"));
            }
        }
    }

    /// An operation outside the measured stream (warm-up, overhead
    /// baseline): not counted in `attempted`, but an unexplained failure
    /// still makes the run incorrect.
    pub fn check_setup(&mut self, what: &str, verdict: Verdict) {
        if let Verdict::Unexplained(msg) = verdict {
            self.unexplained.push(format!("{what} (set-up): {msg}"));
        }
    }

    pub fn ok_frac(&self) -> f64 {
        1.0 - ratio(self.failed as f64, self.attempted as f64)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single measurement or count).
    pub samples: usize,
}

pub fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// Everything one run produces.
pub struct RunOutput {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

/// Wraps a builder and reads the clock around each `build` call; the
/// only instrumentation of an untraced run.
pub struct TimedBuild {
    inner: Arc<dyn FockBuild + Send + Sync>,
    calls: Mutex<Vec<(Instant, f64)>>,
}

impl TimedBuild {
    pub fn new(inner: Arc<dyn FockBuild + Send + Sync>) -> Arc<TimedBuild> {
        Arc::new(TimedBuild {
            inner,
            calls: Mutex::new(Vec::new()),
        })
    }

    /// Start and wall seconds of every build so far.
    pub fn calls(&self) -> Vec<(Instant, f64)> {
        self.calls.lock().expect("timing log poisoned").clone()
    }
}

impl FockBuild for TimedBuild {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn build(
        &self,
        prob: &FockProblem,
        d: &[f64],
        rec: &Recorder,
    ) -> Result<BuildOutcome, BuildError> {
        let t0 = Instant::now();
        let out = self.inner.build(prob, d, rec);
        let dt = secs(t0);
        self.calls
            .lock()
            .expect("timing log poisoned")
            .push((t0, dt));
        out
    }

    fn aux_key(&self) -> Option<(u8, u64)> {
        self.inner.aux_key()
    }
}

/// Run a set-up at least `min_reps` times and until `SETUP_BUDGET_S`
/// seconds have passed (at most `MAX_SETUP_REPS` times); returns the
/// seconds of each and the last result, earlier ones being dropped.
pub fn repeat_setup<T>(
    min_reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    const SETUP_BUDGET_S: f64 = 2.0;
    const MAX_SETUP_REPS: usize = 50;
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < min_reps || (secs(start) < SETUP_BUDGET_S && times.len() < MAX_SETUP_REPS) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(secs(t0));
    }
    Ok((times, last.expect("at least one set-up")))
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
