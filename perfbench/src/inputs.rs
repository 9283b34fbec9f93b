//! Workload inputs: the two SCF molecules and the service-mix molecule
//! set with its pinned geometry perturbations.

use crate::common::Rng;
use fock_repro::chem::{generators, BasisSetKind, Molecule};

/// `dense-dz`: ethane, cc-pVDZ (d shells, nearly every quartet kept).
pub fn dense_dz() -> (Molecule, BasisSetKind) {
    (generators::linear_alkane(2), BasisSetKind::CcPvdz)
}

/// `sparse-chain`: linear dodecane C12H26, STO-3G (s/p only, 1-D chain).
pub fn sparse_chain() -> (Molecule, BasisSetKind) {
    (generators::linear_alkane(12), BasisSetKind::Sto3g)
}

/// The service-mix molecules, all in STO-3G.
pub const SERVICE_MOLECULES: [&str; 6] = ["H2", "H2O", "CH4", "C2H6", "C3H8", "C4H10"];
pub const SERVICE_BASIS: BasisSetKind = BasisSetKind::Sto3g;

/// Perturbed geometries pinned per molecule (variant 0 is the base).
pub const VARIANTS: usize = 8;

/// Largest displacement of one coordinate in a perturbed geometry, bohr.
const MAX_SHIFT: f64 = 0.05;

pub fn service_molecule(index: usize) -> Molecule {
    match SERVICE_MOLECULES[index] {
        "H2" => generators::hydrogen(1.4),
        "H2O" => generators::water(),
        _ => generators::linear_alkane(index - 1),
    }
}

/// Variant `variant` of service molecule `index`: every coordinate moved
/// by a fixed pseudo-random shift of at most `MAX_SHIFT` bohr. Fixed
/// per (index, variant), so each variant has a pinned reference energy;
/// the workload seed only chooses which variants a run uses.
pub fn service_variant(index: usize, variant: usize) -> Molecule {
    let mut mol = service_molecule(index);
    if variant > 0 {
        let mut rng = Rng::new(0x5EED_0000 + (index * 100 + variant) as u64);
        for atom in &mut mol.atoms {
            atom.pos.x += (2.0 * rng.unit() - 1.0) * MAX_SHIFT;
            atom.pos.y += (2.0 * rng.unit() - 1.0) * MAX_SHIFT;
            atom.pos.z += (2.0 * rng.unit() - 1.0) * MAX_SHIFT;
        }
    }
    mol
}
