//! The four-level suicide-risk taxonomy.
//!
//! Adapted (in the paper) from the Columbia Suicide Severity Rating Scale;
//! the four labels and their definitions are quoted from §II-B1:
//!
//! * **Indicator** — no suicidal risk by the author: third-party references,
//!   explicit denial of intent, or concern for someone else.
//! * **Ideation** — suicidal thoughts or desires without concrete action,
//!   passive or active, including unrealistic methods.
//! * **Behavior** — preparatory acts beyond verbalization: acquiring means,
//!   writing a note, preparing for death, or non-fatal self-harm.
//! * **Attempt** — a previous self-inflicted act intended to result in
//!   death that did not succeed.
//!
//! The ordinal ordering `Indicator < Ideation < Behavior < Attempt` matches
//! clinical severity and is what Fig. 4 ("risk level distribution") and the
//! escalation analyses assume.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use rsd_common::RsdError;

/// One of the four RSD-15K risk levels, ordered by clinical severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RiskLevel {
    /// No suicidal risk expressed by the author (abbreviated **IN**).
    Indicator,
    /// Suicidal thoughts or desires without concrete action (**ID**).
    Ideation,
    /// Preparatory acts or self-harm (**BR**).
    Behavior,
    /// A previous suicide attempt (**AT**).
    Attempt,
}

impl RiskLevel {
    /// All levels in severity order.
    pub const ALL: [RiskLevel; 4] = [
        RiskLevel::Indicator,
        RiskLevel::Ideation,
        RiskLevel::Behavior,
        RiskLevel::Attempt,
    ];

    /// Number of classes in the taxonomy.
    pub const COUNT: usize = 4;

    /// Stable class index in `0..4` (severity order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`RiskLevel::index`].
    pub fn from_index(idx: usize) -> Result<Self, RsdError> {
        Self::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| RsdError::data(format!("risk level index out of range: {idx}")))
    }

    /// Full label as used in Table I ("Indicator", "Ideation", ...).
    pub fn name(self) -> &'static str {
        match self {
            RiskLevel::Indicator => "Indicator",
            RiskLevel::Ideation => "Ideation",
            RiskLevel::Behavior => "Behavior",
            RiskLevel::Attempt => "Attempt",
        }
    }

    /// Two-letter abbreviation as used in Tables II–IV (IN/ID/BR/AT).
    pub fn abbrev(self) -> &'static str {
        match self {
            RiskLevel::Indicator => "IN",
            RiskLevel::Ideation => "ID",
            RiskLevel::Behavior => "BR",
            RiskLevel::Attempt => "AT",
        }
    }
}

impl fmt::Display for RiskLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for RiskLevel {
    type Err = RsdError;

    /// Parses full names, abbreviations, and lowercase variants.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "indicator" | "in" => Ok(RiskLevel::Indicator),
            "ideation" | "id" => Ok(RiskLevel::Ideation),
            "behavior" | "behaviour" | "br" => Ok(RiskLevel::Behavior),
            "attempt" | "at" => Ok(RiskLevel::Attempt),
            other => Err(RsdError::data(format!("unknown risk level: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for level in RiskLevel::ALL {
            assert_eq!(RiskLevel::from_index(level.index()).unwrap(), level);
        }
        assert!(RiskLevel::from_index(4).is_err());
    }

    #[test]
    fn severity_order() {
        assert!(RiskLevel::Indicator < RiskLevel::Ideation);
        assert!(RiskLevel::Ideation < RiskLevel::Behavior);
        assert!(RiskLevel::Behavior < RiskLevel::Attempt);
    }

    #[test]
    fn parse_all_spellings() {
        assert_eq!(
            "Indicator".parse::<RiskLevel>().unwrap(),
            RiskLevel::Indicator
        );
        assert_eq!("ID".parse::<RiskLevel>().unwrap(), RiskLevel::Ideation);
        assert_eq!(
            "behaviour".parse::<RiskLevel>().unwrap(),
            RiskLevel::Behavior
        );
        assert_eq!(" at ".parse::<RiskLevel>().unwrap(), RiskLevel::Attempt);
        assert!("severe".parse::<RiskLevel>().is_err());
    }

    #[test]
    fn display_and_abbrev() {
        assert_eq!(RiskLevel::Behavior.to_string(), "Behavior");
        assert_eq!(RiskLevel::Behavior.abbrev(), "BR");
    }
}
