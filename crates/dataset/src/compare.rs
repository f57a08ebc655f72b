//! Table II: comparison with prior suicide-risk datasets.
//!
//! The prior-dataset rows are facts quoted from the paper's Table II; the
//! "Ours" row is *computed* from a built dataset so the table regenerates
//! honestly from whatever was actually constructed.

use serde::{Deserialize, Serialize};

use crate::record::Rsd15k;

/// Risk-level annotation granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Granularity {
    /// Each post is labelled independently.
    Post,
    /// Context-aware user-level labels.
    User,
    /// Both post- and user-level labels.
    PostAndUser,
}

impl Granularity {
    /// Table II display string.
    pub fn display(self) -> &'static str {
        match self {
            Granularity::Post => "Post",
            Granularity::User => "User",
            Granularity::PostAndUser => "Post, User",
        }
    }
}

/// One row of Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetComparisonRow {
    /// Dataset name.
    pub name: String,
    /// Source platform(s).
    pub source: String,
    /// Post count (`None` = not published).
    pub posts: Option<usize>,
    /// User count (`None` = not published / no user structure).
    pub users: Option<usize>,
    /// Annotation granularity.
    pub granularity: Granularity,
    /// Fine-grained suicide-risk levels? (4-level C-SSRS-style)
    pub fine_grained: bool,
    /// Fully manual annotation by trained experts?
    pub fully_manual: bool,
    /// Publicly available under regulations, without contacting authors?
    pub available: bool,
}

/// The eight prior-work rows of Table II, as published.
pub(crate) fn prior_datasets() -> Vec<DatasetComparisonRow> {
    let row = |name: &str,
               source: &str,
               posts: Option<usize>,
               users: Option<usize>,
               granularity: Granularity,
               fine_grained: bool,
               fully_manual: bool,
               available: bool| DatasetComparisonRow {
        name: name.to_string(),
        source: source.to_string(),
        posts,
        users,
        granularity,
        fine_grained,
        fully_manual,
        available,
    };
    vec![
        row(
            "Suicide and Depression Detection (Kaggle)",
            "Reddit",
            Some(236_258),
            None,
            Granularity::Post,
            false,
            false,
            true,
        ),
        row(
            "Suicidal Ideation Detection in Online User Content",
            "Reddit, Twitter",
            Some(7_098 + 10_288),
            None,
            Granularity::Post,
            false,
            false,
            false,
        ),
        row(
            "Latent Suicide Risk Detection on Microblog",
            "Tree Hole, Weibo",
            Some(744_031),
            Some(7_329),
            Granularity::User,
            false,
            true,
            false,
        ),
        row(
            "Suicidal Ideation in Twitter",
            "Twitter",
            Some(34_306),
            Some(32_558),
            Granularity::Post,
            false,
            true,
            false,
        ),
        row(
            "Suicide Risk via Online Postings",
            "Reddit",
            None,
            Some(934),
            Granularity::User,
            true,
            false, // mainly crowdsourcing
            true,
        ),
        row(
            "CLPsych2019",
            "Reddit",
            None,
            Some(621),
            Granularity::User,
            true,
            false, // mainly crowdsourcing
            true,
        ),
        row(
            "Knowledge-aware Assessment of Suicide Risk",
            "Reddit",
            Some(15_755),
            Some(500),
            Granularity::User,
            true,
            true,
            false,
        ),
        row(
            "Suicide risk level and trigger detection",
            "Reddit",
            Some(3_998),
            Some(500),
            Granularity::PostAndUser,
            true,
            true,
            true,
        ),
    ]
}

/// Compute the "Ours" row from an actually-built dataset.
pub(crate) fn ours_row(dataset: &Rsd15k) -> DatasetComparisonRow {
    DatasetComparisonRow {
        name: "Ours (RSD-15K)".to_string(),
        source: "Reddit".to_string(),
        posts: Some(dataset.n_posts()),
        users: Some(dataset.n_users()),
        granularity: Granularity::PostAndUser,
        fine_grained: true,
        fully_manual: true,
        available: true,
    }
}

/// The full Table II: prior rows plus the computed "Ours" row.
pub fn comparison_table(dataset: &Rsd15k) -> Vec<DatasetComparisonRow> {
    let mut rows = prior_datasets();
    rows.push(ours_row(dataset));
    rows
}

/// Render one row in a fixed-width layout.
pub fn render_row(row: &DatasetComparisonRow) -> String {
    let fmt_opt = |v: Option<usize>| match v {
        Some(n) => n.to_string(),
        None => "-".to_string(),
    };
    format!(
        "{:<48} {:<17} {:>8} {:>7}  {:<10} {:^4} {:^6} {:^5}",
        row.name,
        row.source,
        fmt_opt(row.posts),
        fmt_opt(row.users),
        row.granularity.display(),
        if row.fine_grained { "yes" } else { "no" },
        if row.fully_manual { "yes" } else { "no" },
        if row.available { "yes" } else { "no" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_fixtures::tiny;

    #[test]
    fn eight_prior_rows() {
        assert_eq!(prior_datasets().len(), 8);
    }

    #[test]
    fn ours_is_computed_not_hardcoded() {
        let d = tiny();
        let row = ours_row(&d);
        assert_eq!(row.posts, Some(5));
        assert_eq!(row.users, Some(2));
        assert!(row.fine_grained && row.fully_manual && row.available);
        assert_eq!(row.granularity, Granularity::PostAndUser);
    }

    #[test]
    fn only_two_rows_have_both_granularities() {
        let d = tiny();
        let both = comparison_table(&d)
            .iter()
            .filter(|r| r.granularity == Granularity::PostAndUser)
            .count();
        assert_eq!(both, 2, "paper: ours + Li et al. [3]");
    }

    #[test]
    fn rendering_is_stable() {
        let d = tiny();
        for row in comparison_table(&d) {
            let s = render_row(&row);
            assert!(s.contains(&row.source));
        }
        let kaggle = &prior_datasets()[0];
        assert!(render_row(kaggle).contains("236258"));
        let clpsych = &prior_datasets()[5];
        assert!(render_row(clpsych).contains('-'), "unpublished post count");
    }
}
