//! Brute-force answers and answer comparison.
//!
//! A query answer is reduced to `(id, log_density bits)` pairs; two
//! answers agree when those pairs are identical — the `tree_vs_scan`
//! contract that every index path returns what a scan over the same
//! objects computes, bit for bit.

use gauss_storage::PageStore;
use gauss_tree::{ReadView, TreeError};
use pfv::combine::log_joint;
use pfv::{log_sum_exp, CombineMode, Pfv};

/// One query of the rotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryKind {
    /// k-most-likely identification.
    Mliq(usize),
    /// Threshold identification with threshold `θ`.
    Tiq(f64),
}

/// Probability bound width requested from TIQ.
pub const TIQ_ACCURACY: f64 = 1e-3;

/// A comparable answer: `(id, log_density.to_bits())` in answer order
/// (k-MLIQ) or ascending id order (TIQ).
pub type Answer = Vec<(u64, u64)>;

/// Runs `kind` on `view` and reduces the result to an [`Answer`].
///
/// # Errors
/// Whatever the query returns.
pub fn run_query<S: PageStore, V: ReadView<S>>(
    view: &V,
    q: &Pfv,
    kind: QueryKind,
) -> Result<Answer, TreeError> {
    match kind {
        QueryKind::Mliq(k) => Ok(view
            .k_mliq(q, k)?
            .iter()
            .map(|h| (h.id, h.log_density.to_bits()))
            .collect()),
        QueryKind::Tiq(theta) => {
            let mut a: Answer = view
                .tiq(q, theta, TIQ_ACCURACY)?
                .iter()
                .map(|h| (h.id, h.log_density.to_bits()))
                .collect();
            a.sort_unstable();
            Ok(a)
        }
    }
}

/// Scan answer over `db`.
#[must_use]
pub fn scan(mode: CombineMode, db: &[(u64, Pfv)], q: &Pfv, kind: QueryKind) -> Answer {
    let dens: Vec<f64> = db.iter().map(|(_, v)| log_joint(mode, v, q)).collect();
    match kind {
        QueryKind::Mliq(k) => {
            let mut order: Vec<usize> = (0..db.len()).collect();
            order.sort_by(|&a, &b| dens[b].total_cmp(&dens[a]).then(db[a].0.cmp(&db[b].0)));
            order
                .into_iter()
                .take(k)
                .map(|i| (db[i].0, dens[i].to_bits()))
                .collect()
        }
        QueryKind::Tiq(theta) => {
            let denom = log_sum_exp(&dens);
            let mut hits: Vec<(u64, u64)> = db
                .iter()
                .zip(&dens)
                .filter(|(_, &d)| (d - denom).exp() >= theta)
                .map(|((id, _), &d)| (*id, d.to_bits()))
                .collect();
            hits.sort_unstable();
            hits
        }
    }
}

/// Whether a TIQ member set may legitimately differ from the scan's: an
/// object whose scan probability lies within float noise of `θ` can fall
/// on either side.
#[must_use]
pub fn tiq_edge_ids(mode: CombineMode, db: &[(u64, Pfv)], q: &Pfv, theta: f64) -> Vec<u64> {
    let dens: Vec<f64> = db.iter().map(|(_, v)| log_joint(mode, v, q)).collect();
    let denom = log_sum_exp(&dens);
    db.iter()
        .zip(&dens)
        .filter(|(_, &d)| ((d - denom).exp() - theta).abs() < 1e-9)
        .map(|((id, _), _)| *id)
        .collect()
}

/// Whether `got` agrees with the scan answer `want`, ignoring only TIQ
/// members listed in `edge`.
#[must_use]
pub fn agrees(got: &Answer, want: &Answer, edge: &[u64]) -> bool {
    if edge.is_empty() {
        return got == want;
    }
    let strip = |a: &Answer| -> Answer {
        a.iter()
            .filter(|(id, _)| !edge.contains(id))
            .copied()
            .collect()
    };
    strip(got) == strip(want)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(m: f64) -> Pfv {
        Pfv::new(vec![m, m], vec![0.1, 0.2]).unwrap()
    }

    #[test]
    fn scan_ranks_and_thresholds() {
        let db: Vec<(u64, Pfv)> = (0..10).map(|i| (i, v(i as f64 * 0.1))).collect();
        let q = v(0.31);
        let top = scan(CombineMode::Convolution, &db, &q, QueryKind::Mliq(2));
        assert_eq!(top.iter().map(|p| p.0).collect::<Vec<_>>(), vec![3, 4]);
        let all = scan(CombineMode::Convolution, &db, &q, QueryKind::Tiq(1e-12));
        assert_eq!(all.len(), 10);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(agrees(&all, &all, &[]));
        assert!(!agrees(&all[1..].to_vec(), &all, &[]));
        assert!(agrees(&all[1..].to_vec(), &all, &[0]));
    }
}
