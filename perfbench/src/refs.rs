//! Pinned reference energies and the `pin` command that produces them.
//!
//! Every key maps to a converged SCF energy in hartree, computed with the
//! same settings the workloads use (`common::scf_config`, full builds):
//! `exact` keys with the sequential reference builder `SeqBuild`, `df`
//! keys with a standalone `DfBuild` (default auxiliary spec).

use crate::common::scf_config;
use crate::inputs::{self, SERVICE_BASIS, SERVICE_MOLECULES, VARIANTS};
use fock_repro::chem::{BasisSetKind, Molecule};
use fock_repro::core::{df_builder, run_scf, seq_builder, FockBuild};
use fock_repro::eri::AuxSpec;
use fock_repro::obs::Recorder;
use std::collections::BTreeMap;
use std::sync::Arc;

const PINNED: &str = include_str!("../references.tsv");

pub struct References(BTreeMap<String, f64>);

impl References {
    pub fn pinned() -> Result<References, String> {
        let mut map = BTreeMap::new();
        for line in PINNED.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('\t')
                .ok_or_else(|| format!("malformed reference line {line:?}"))?;
            let energy = value
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("reference {key}: {e}"))?;
            map.insert(key.to_string(), energy);
        }
        Ok(References(map))
    }

    pub fn get(&self, key: &str) -> Result<f64, String> {
        self.0
            .get(key)
            .copied()
            .ok_or_else(|| format!("no pinned reference energy for {key}"))
    }
}

pub fn exact_key(index: usize, variant: usize) -> String {
    format!("service-mix/{}/v{variant}/exact", SERVICE_MOLECULES[index])
}

pub fn df_key(index: usize) -> String {
    format!("service-mix/{}/v0/df", SERVICE_MOLECULES[index])
}

fn energy(
    mol: Molecule,
    kind: BasisSetKind,
    builder: Arc<dyn FockBuild + Send + Sync>,
) -> Result<f64, String> {
    let res = run_scf(mol, kind, scf_config(builder, false, Recorder::disabled()))
        .map_err(|e| e.to_string())?;
    if !res.converged {
        return Err(format!(
            "reference SCF did not converge: E = {}",
            res.energy
        ));
    }
    Ok(res.energy)
}

/// Compute every reference and return them as the `references.tsv` text.
pub fn pin() -> Result<String, String> {
    let mut out = String::from(
        "# Reference energies (hartree) for the perfbench correctness check.\n\
         # exact: SeqBuild, full builds; df: standalone DfBuild(AuxSpec::default()).\n\
         # Both with the workloads' SCF settings (tau 1e-11, cell ordering, DIIS, GWH).\n\
         # Regenerate from the repository root with:\n\
         #   cargo run --release --offline --manifest-path perfbench/Cargo.toml -- pin > perfbench/references.tsv\n",
    );
    let mut push = |key: String, e: f64| {
        eprintln!("{key}\t{e}");
        out.push_str(&format!("{key}\t{e}\n"));
    };
    for (name, (mol, kind)) in [
        ("dense-dz", inputs::dense_dz()),
        ("sparse-chain", inputs::sparse_chain()),
    ] {
        push(format!("{name}/exact"), energy(mol, kind, seq_builder())?);
    }
    for index in 0..SERVICE_MOLECULES.len() {
        for variant in 0..=VARIANTS {
            let mol = inputs::service_variant(index, variant);
            push(
                exact_key(index, variant),
                energy(mol, SERVICE_BASIS, seq_builder())?,
            );
        }
        let df = df_builder(AuxSpec::default());
        let mol = inputs::service_molecule(index);
        push(df_key(index), energy(mol, SERVICE_BASIS, df)?);
    }
    Ok(out)
}
