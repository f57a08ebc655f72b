//! Inter-annotator agreement statistics.
//!
//! The paper's quality evaluation (§II-C1) reports **Fleiss' kappa** over
//! the 30 % triple-annotated subset (4,384 samples, κ = 0.7206). Fleiss'
//! kappa generalizes Cohen's kappa to any fixed number of raters per item;
//! it is implemented here against its standard formulation (Fleiss 1971).

use rsd_common::{Result, RsdError};

/// Fleiss' kappa for `items[i][k]` = count of raters assigning item `i` to
/// category `k`. Every item must have the same total number of raters
/// (≥ 2) and at least one item is required.
///
/// Returns κ ∈ [-1, 1]; exactly 1.0 for perfect agreement. If expected
/// agreement is 1 (all raters always choose one category), agreement is
/// trivially perfect and 1.0 is returned.
pub fn fleiss_kappa(items: &[Vec<u64>]) -> Result<f64> {
    if items.is_empty() {
        return Err(RsdError::data("fleiss_kappa: no items"));
    }
    let n_cats = items[0].len();
    if n_cats < 2 {
        return Err(RsdError::data("fleiss_kappa: need at least 2 categories"));
    }
    let n_raters: u64 = items[0].iter().sum();
    if n_raters < 2 {
        return Err(RsdError::data("fleiss_kappa: need at least 2 raters"));
    }
    let n_items = items.len() as f64;
    let n = n_raters as f64;

    let mut category_totals = vec![0.0f64; n_cats];
    let mut p_bar_sum = 0.0f64;

    for (idx, item) in items.iter().enumerate() {
        if item.len() != n_cats {
            return Err(RsdError::data(format!(
                "fleiss_kappa: item {idx} has {} categories, expected {n_cats}",
                item.len()
            )));
        }
        let total: u64 = item.iter().sum();
        if total != n_raters {
            return Err(RsdError::data(format!(
                "fleiss_kappa: item {idx} has {total} ratings, expected {n_raters}"
            )));
        }
        let mut agree = 0.0;
        for (&c, cat_total) in item.iter().zip(category_totals.iter_mut()) {
            let c = c as f64;
            agree += c * (c - 1.0);
            *cat_total += c;
        }
        p_bar_sum += agree / (n * (n - 1.0));
    }

    let p_bar = p_bar_sum / n_items;
    let p_e: f64 = category_totals
        .iter()
        .map(|&t| {
            let p_j = t / (n_items * n);
            p_j * p_j
        })
        .sum();

    if (1.0 - p_e).abs() < 1e-12 {
        // All mass on a single category: agreement is trivially perfect.
        return Ok(1.0);
    }
    Ok((p_bar - p_e) / (1.0 - p_e))
}

/// Convenience: build the Fleiss count table from per-rater label vectors
/// (`raters[r][i]` = category chosen by rater `r` for item `i`).
pub fn fleiss_kappa_from_raters(raters: &[Vec<usize>], n_cats: usize) -> Result<f64> {
    if raters.len() < 2 {
        return Err(RsdError::data("need at least 2 raters"));
    }
    let n_items = raters[0].len();
    if raters.iter().any(|r| r.len() != n_items) {
        return Err(RsdError::data("raters labelled different item counts"));
    }
    if n_items == 0 {
        return Err(RsdError::data("no items"));
    }
    let mut items = vec![vec![0u64; n_cats]; n_items];
    for rater in raters {
        for (i, &label) in rater.iter().enumerate() {
            if label >= n_cats {
                return Err(RsdError::data(format!("label {label} out of range")));
            }
            items[i][label] += 1;
        }
    }
    fleiss_kappa(&items)
}

/// Verbal interpretation bands for kappa (Landis & Koch) — used in audit
/// output ("0.7206 reflects a really good level of agreement").
pub fn interpret_kappa(kappa: f64) -> &'static str {
    match kappa {
        k if k < 0.0 => "poor",
        k if k < 0.2 => "slight",
        k if k < 0.4 => "fair",
        k if k < 0.6 => "moderate",
        k if k < 0.8 => "substantial",
        _ => "almost perfect",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleiss_textbook_example() {
        // Fleiss (1971)-style worked example, 14 raters, 5 categories.
        let items: Vec<Vec<u64>> = vec![
            vec![0, 0, 0, 0, 14],
            vec![0, 2, 6, 4, 2],
            vec![0, 0, 3, 5, 6],
            vec![0, 3, 9, 2, 0],
            vec![2, 2, 8, 1, 1],
            vec![7, 7, 0, 0, 0],
            vec![3, 2, 6, 3, 0],
            vec![2, 5, 3, 2, 2],
            vec![6, 5, 2, 1, 0],
            vec![0, 2, 2, 3, 7],
        ];
        let k = fleiss_kappa(&items).unwrap();
        assert!((k - 0.2099).abs() < 0.001, "got {k}");
    }

    #[test]
    fn perfect_agreement_is_one() {
        let items = vec![vec![3, 0], vec![0, 3], vec![3, 0]];
        assert!((fleiss_kappa(&items).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_category_degenerate_is_one() {
        let items = vec![vec![3, 0], vec![3, 0]];
        assert_eq!(fleiss_kappa(&items).unwrap(), 1.0);
    }

    #[test]
    fn validation_errors() {
        assert!(fleiss_kappa(&[]).is_err());
        assert!(fleiss_kappa(&[vec![2]]).is_err()); // one category
        assert!(fleiss_kappa(&[vec![1, 0]]).is_err()); // one rater
        assert!(fleiss_kappa(&[vec![2, 1], vec![1, 1]]).is_err()); // uneven raters
        assert!(fleiss_kappa(&[vec![2, 1], vec![1, 1, 1]]).is_err()); // ragged
    }

    #[test]
    fn from_raters_matches_table_form() {
        let raters = vec![vec![0, 1, 2, 0], vec![0, 1, 1, 0], vec![0, 1, 2, 1]];
        let k1 = fleiss_kappa_from_raters(&raters, 3).unwrap();
        let items = vec![vec![3, 0, 0], vec![0, 3, 0], vec![0, 1, 2], vec![2, 1, 0]];
        let k2 = fleiss_kappa(&items).unwrap();
        assert!((k1 - k2).abs() < 1e-12);
    }

    #[test]
    fn interpretation_bands() {
        assert_eq!(interpret_kappa(-0.1), "poor");
        assert_eq!(interpret_kappa(0.1), "slight");
        assert_eq!(interpret_kappa(0.3), "fair");
        assert_eq!(interpret_kappa(0.5), "moderate");
        assert_eq!(interpret_kappa(0.7206), "substantial");
        assert_eq!(interpret_kappa(0.9), "almost perfect");
    }
}
