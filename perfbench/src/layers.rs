//! Metric names and the per-layer measurements of the traced run.
//!
//! Every workload reports every metric of both lists; a per-layer metric
//! of a layer the workload does not run reads 0.

use crate::common::{median, metric, ratio, Metric, TAU};
use crate::spans::Spans;
use fock_repro::chem::reorder::reorder;
use fock_repro::chem::{BasisInstance, BasisSetKind, Molecule};
use fock_repro::core::scf::{density_from_fock, DensityMethod};
use fock_repro::core::{BuildReport, FockProblem, CLASS_METRIC_PREFIX};
use fock_repro::eri::Screening;
use fock_repro::linalg::eig::inverse_sqrt;
use fock_repro::linalg::Mat;
use fock_repro::obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::Arc;

/// End-to-end metrics (untraced run), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("scf_s", "s"),
    ("fock_build_s.p50", "s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_s.p50", "s"),
    ("job_latency_s.p90", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// ERI quartet classes whose kernel time is reported per quartet, as
/// angular-momentum multisets: `sssp` sums the `eri.class.*` counters of
/// `sssp`, `ssps`, `spss` and `psss`. With s, p and d shells these 15
/// cover all kernel time but the scalar fallback's.
pub const CLASSES: &[&str] = &[
    "ssss", "sssp", "sspp", "sppp", "pppp", "sssd", "sspd", "sppd", "pppd", "ssdd", "spdd", "ppdd",
    "sddd", "pddd", "dddd",
];

/// Per-layer metrics (traced run), with units, excluding the per-class
/// kernel times, which follow [`CLASSES`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("chem.basis_s", "s"),
    ("eri.screening_s", "s"),
    ("eri.pairdata_s", "s"),
    ("eri.pairdata_bytes", "bytes"),
    ("eri.quartets", "count"),
    ("eri.quartets_per_s", "1/s"),
    ("eri.kernel_ns_per_quartet", "ns"),
    ("eri.cost_calibrate_s", "s"),
    ("screen.density_skipped", "count"),
    ("screen.kept_ratio", "ratio"),
    ("core.t_comp_frac", "ratio"),
    ("core.load_balance", "ratio"),
    ("core.steals", "count"),
    ("core.one_electron_s", "s"),
    ("core.gwh_s", "s"),
    ("scf.iterations", "count"),
    ("scf.builds", "count"),
    ("scf.driver_s", "s"),
    ("linalg.density_from_fock_s", "s"),
    ("linalg.inverse_sqrt_s", "s"),
    ("ga.bytes", "bytes"),
    ("ga.calls", "count"),
    ("ga.retries", "count"),
    ("autotune.decisions", "count"),
    ("des.select_s", "s"),
    ("service.queue_wait_s.p50", "s"),
    ("service.queue_wait_s.p90", "s"),
    ("service.exec_s.p50", "s"),
    ("service.cache_hit_ratio", "ratio"),
    ("pool.build_s.p50", "s"),
    ("service.rejected", "count"),
    ("obs.overhead_frac", "ratio"),
];

pub fn class_metric_name(code: &str) -> String {
    format!("eri.class.{code}.ns_per_quartet")
}

/// Metric values a run has measured, keyed by name.
#[derive(Default)]
pub struct Collected(BTreeMap<String, (f64, usize)>);

impl Collected {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.0.insert(name.to_string(), (value, samples));
    }

    /// The full list in `names` order; metrics not measured read 0 with
    /// 0 samples. Panics on a measured name missing from the list.
    pub fn finish(mut self, names: &[(String, &'static str)]) -> Vec<Metric> {
        let out = names
            .iter()
            .map(|(name, unit)| {
                let (v, n) = self.0.remove(name).unwrap_or((0.0, 0));
                metric(name, v, unit, n)
            })
            .collect();
        assert!(self.0.is_empty(), "unlisted metrics: {:?}", self.0.keys());
        out
    }
}

pub fn end_to_end_names() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    names.extend(CLASSES.iter().map(|c| (class_metric_name(c), "ns")));
    names
}

/// Seconds of each step of one traced problem set-up.
pub struct SetupTimes {
    pub basis: f64,
    pub screening: f64,
    pub pairdata: f64,
    pub pairdata_bytes: usize,
    pub one_electron: f64,
    pub gwh: f64,
}

/// Build a problem through the same public calls `FockProblem::new`
/// makes, then `pairs()`, `one_electron()` and `gwh_guess()`, with a span
/// around each.
pub fn traced_setup(
    spans: &mut Spans,
    mol: Molecule,
    kind: BasisSetKind,
    run: u64,
) -> Result<(Arc<FockProblem>, SetupTimes), String> {
    let root = spans.begin("setup", None, run);
    let p = Some(root);
    let (basis, t_basis) = spans.timed("chem.basis", p, run, || {
        BasisInstance::new(mol, kind).map(|b| reorder(&b, crate::common::ordering()))
    });
    let basis = basis?;
    let (screening, t_scr) =
        spans.timed("eri.screening", p, run, || Screening::compute(&basis, TAU));
    let (prob, _) = spans.timed("core.from_parts", p, run, || {
        FockProblem::from_parts(basis, screening, TAU)
    });
    let (bytes, t_pairs) = spans.timed("eri.pairdata", p, run, || prob.pairs().bytes());
    let (_, t_one) = spans.timed("core.one_electron", p, run, || {
        prob.one_electron();
    });
    let (_, t_gwh) = spans.timed("core.gwh", p, run, || {
        prob.gwh_guess();
    });
    spans.end(root);
    let times = SetupTimes {
        basis: t_basis,
        screening: t_scr,
        pairdata: t_pairs,
        pairdata_bytes: bytes,
        one_electron: t_one,
        gwh: t_gwh,
    };
    Ok((Arc::new(prob), times))
}

/// Record the medians of several traced set-ups (or, with `sum`, the
/// per-step sums over distinct problems).
pub fn set_setup_metrics(out: &mut Collected, times: &[SetupTimes], sum: bool) {
    let agg = |f: &dyn Fn(&SetupTimes) -> f64| {
        let v: Vec<f64> = times.iter().map(f).collect();
        if sum {
            v.iter().sum()
        } else {
            median(&v)
        }
    };
    let n = times.len();
    out.set("chem.basis_s", agg(&|t| t.basis), n);
    out.set("eri.screening_s", agg(&|t| t.screening), n);
    out.set("eri.pairdata_s", agg(&|t| t.pairdata), n);
    out.set("eri.pairdata_bytes", agg(&|t| t.pairdata_bytes as f64), n);
    out.set("core.one_electron_s", agg(&|t| t.one_electron), n);
    out.set("core.gwh_s", agg(&|t| t.gwh), n);
}

/// Median seconds of `reps` calls of `f`, each inside a span.
pub fn median_timed(spans: &mut Spans, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|r| spans.timed(name, None, r as u64, &mut f).1)
        .collect();
    median(&v)
}

/// Time the two dense linear-algebra steps of the SCF driver on a
/// problem and its converged Fock matrix.
pub fn set_linalg_metrics(out: &mut Collected, spans: &mut Spans, prob: &FockProblem, fock: &Mat) {
    const REPS: usize = 5;
    let one = prob.one_electron();
    let nocc = prob.basis.molecule.nocc();
    let t = median_timed(spans, "linalg.inverse_sqrt", REPS, || {
        std::hint::black_box(inverse_sqrt(&one.s, 1e-10));
    });
    out.set("linalg.inverse_sqrt_s", t, REPS);
    let t = median_timed(spans, "linalg.density_from_fock", REPS, || {
        std::hint::black_box(density_from_fock(
            fock,
            &one.x,
            nocc,
            DensityMethod::Diagonalize,
        ));
    });
    out.set("linalg.density_from_fock_s", t, REPS);
}

/// Sums over the `BuildReport`s of a traced run.
#[derive(Default)]
pub struct BuildTotals {
    builds: usize,
    quartets: u64,
    density_skipped: u64,
    t_comp: f64,
    t_fock: f64,
    load_balance: Vec<f64>,
    steals: u64,
    ga_bytes: u64,
    ga_calls: u64,
    ga_retries: u64,
}

impl BuildTotals {
    pub fn add(&mut self, r: &BuildReport) {
        let comm = r.comm_total();
        self.builds += 1;
        self.quartets += r.total_quartets();
        self.density_skipped += r.total_density_skipped();
        self.t_comp += r.t_comp.iter().sum::<f64>();
        self.t_fock += r.t_fock.iter().sum::<f64>();
        self.load_balance.push(r.load_balance());
        self.steals += r.total_steals();
        self.ga_bytes += comm.total_bytes();
        self.ga_calls += comm.total_calls();
        self.ga_retries += r.ga_retries();
    }

    pub fn set_metrics(&self, out: &mut Collected) {
        let n = self.builds;
        let q = self.quartets as f64;
        out.set("eri.quartets", q, n);
        out.set("eri.quartets_per_s", ratio(q, self.t_comp), n);
        out.set("screen.density_skipped", self.density_skipped as f64, n);
        out.set(
            "screen.kept_ratio",
            ratio(q, q + self.density_skipped as f64),
            n,
        );
        out.set("core.t_comp_frac", ratio(self.t_comp, self.t_fock), n);
        out.set("core.load_balance", median(&self.load_balance), n);
        out.set("core.steals", self.steals as f64, n);
        out.set("ga.bytes", self.ga_bytes as f64, n);
        out.set("ga.calls", self.ga_calls as f64, n);
        out.set("ga.retries", self.ga_retries as f64, n);
    }
}

/// The momentum multiset of an ordered class code (`psss` -> `sssp`).
fn multiset(code: &str) -> String {
    let mut ls: Vec<usize> = code.chars().filter_map(|c| "spd".find(c)).collect();
    ls.sort_unstable();
    ls.iter().map(|&l| ["s", "p", "d"][l]).collect()
}

/// Per-class kernel ns per quartet from the recorder's existing
/// `eri.class.*` counters; also prints each class's share of kernel time.
pub fn set_class_metrics(out: &mut Collected, snap: &MetricsSnapshot) {
    let mut classes: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let (mut total_ns, mut total_q) = (0, 0);
    for (name, &ns) in &snap.counters {
        let Some(code) = name
            .strip_prefix(CLASS_METRIC_PREFIX)
            .and_then(|s| s.strip_prefix('.'))
            .and_then(|s| s.strip_suffix(".ns"))
        else {
            continue;
        };
        let quartets = snap.counter(&format!("{CLASS_METRIC_PREFIX}.{code}.quartets"));
        total_ns += ns;
        total_q += quartets;
        if code.len() == 4 {
            let e = classes.entry(multiset(code)).or_default();
            e.0 += ns;
            e.1 += quartets;
        }
    }
    out.set(
        "eri.kernel_ns_per_quartet",
        ratio(total_ns as f64, total_q as f64),
        total_q as usize,
    );
    let mut by_ns: Vec<(&String, &(u64, u64))> = classes.iter().collect();
    by_ns.sort_by_key(|(_, (ns, _))| std::cmp::Reverse(*ns));
    let mut cumulative = 0;
    for (code, &(ns, q)) in by_ns {
        cumulative += ns;
        let per = ratio(ns as f64, q as f64);
        println!(
            "class {code}: {q} quartets, {per:.1} ns/quartet, cumulative {:.1}% of kernel ns",
            100.0 * ratio(cumulative as f64, total_ns as f64)
        );
        out.set(&class_metric_name(code), per, q as usize);
    }
}

/// `obs.overhead_frac` and the trace file.
pub fn finish_trace(
    out: &mut Collected,
    spans: &Spans,
    workload: &str,
    seed: u64,
    untraced: f64,
    traced: f64,
) {
    out.set("obs.overhead_frac", ratio(traced - untraced, untraced), 2);
    for (layer, t) in spans.self_time_by_layer() {
        println!("self time {layer}: {t:.6} s");
    }
    let dir = std::path::Path::new("perfbench").join("traces");
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans.to_json())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
