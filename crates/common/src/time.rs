//! Civil-time arithmetic over Unix epoch seconds.
//!
//! The RSD-15K corpus spans January 2020 – December 2021 and the paper's
//! baselines consume calendar-derived features (hour-of-day, weekday,
//! night-posting flags, month periodicity). This module implements the
//! minimal proleptic-Gregorian calendar math required — the classic
//! `days_from_civil` / `civil_from_days` algorithms (Howard Hinnant) — so the
//! workspace needs no external date dependency.
//!
//! All timestamps are UTC. The paper's features are timezone-agnostic
//! (relative patterns, not local clocks), so UTC is a faithful basis.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Seconds since the Unix epoch (1970-01-01T00:00:00Z). May be negative.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct Timestamp(pub i64);

/// Day of week. `Monday` is 0 to match ISO-8601 ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Weekday {
    /// ISO weekday 1.
    Monday,
    /// ISO weekday 2.
    Tuesday,
    /// ISO weekday 3.
    Wednesday,
    /// ISO weekday 4.
    Thursday,
    /// ISO weekday 5.
    Friday,
    /// ISO weekday 6.
    Saturday,
    /// ISO weekday 7.
    Sunday,
}

impl Weekday {
    /// Index in `0..7`, Monday = 0.
    pub fn index(self) -> usize {
        self as usize
    }

    /// True for Saturday and Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }

    /// Weekday from an index in `0..7` (Monday = 0). Panics out of range.
    pub fn from_index(idx: usize) -> Self {
        match idx {
            0 => Weekday::Monday,
            1 => Weekday::Tuesday,
            2 => Weekday::Wednesday,
            3 => Weekday::Thursday,
            4 => Weekday::Friday,
            5 => Weekday::Saturday,
            6 => Weekday::Sunday,
            _ => panic!("weekday index out of range: {idx}"),
        }
    }
}

/// A broken-down UTC civil date-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CivilDateTime {
    /// Gregorian year, e.g. 2020.
    pub year: i32,
    /// Month in `1..=12`.
    pub month: u8,
    /// Day of month in `1..=31`.
    pub day: u8,
    /// Hour in `0..=23`.
    pub hour: u8,
    /// Minute in `0..=59`.
    pub minute: u8,
    /// Second in `0..=59`.
    pub second: u8,
}

/// Number of days from 1970-01-01 to `year-month-day` in the proleptic
/// Gregorian calendar. Negative for dates before the epoch.
fn days_from_civil(year: i32, month: u8, day: u8) -> i64 {
    let y = i64::from(year) - i64::from(month <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(month);
    let d = i64::from(day);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m as u8, d as u8)
}

impl CivilDateTime {
    /// Construct, validating ranges.
    pub fn new(year: i32, month: u8, day: u8, hour: u8, minute: u8, second: u8) -> Option<Self> {
        if !(1..=12).contains(&month) || hour > 23 || minute > 59 || second > 59 {
            return None;
        }
        if day == 0 || day > days_in_month(year, month) {
            return None;
        }
        Some(CivilDateTime {
            year,
            month,
            day,
            hour,
            minute,
            second,
        })
    }

    /// Convert to a [`Timestamp`].
    pub fn to_timestamp(self) -> Timestamp {
        let days = days_from_civil(self.year, self.month, self.day);
        Timestamp(
            days * 86_400
                + i64::from(self.hour) * 3_600
                + i64::from(self.minute) * 60
                + i64::from(self.second),
        )
    }
}

impl fmt::Display for CivilDateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
            self.year, self.month, self.day, self.hour, self.minute, self.second
        )
    }
}

/// Days in `month` of `year`, accounting for leap years.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Gregorian leap-year rule.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

impl Timestamp {
    /// Seconds in one hour.
    pub const HOUR: i64 = 3_600;
    /// Seconds in one day.
    pub const DAY: i64 = 86_400;
    /// Seconds in one (7-day) week.
    pub const WEEK: i64 = 7 * 86_400;

    /// Build a timestamp from civil components (UTC). `None` if invalid.
    pub fn from_ymd_hms(
        year: i32,
        month: u8,
        day: u8,
        hour: u8,
        minute: u8,
        second: u8,
    ) -> Option<Self> {
        CivilDateTime::new(year, month, day, hour, minute, second).map(CivilDateTime::to_timestamp)
    }

    /// Midnight UTC of the given civil date. `None` if invalid.
    pub fn from_ymd(year: i32, month: u8, day: u8) -> Option<Self> {
        Self::from_ymd_hms(year, month, day, 0, 0, 0)
    }

    /// Break down into a civil UTC date-time.
    pub fn to_civil(self) -> CivilDateTime {
        let days = self.0.div_euclid(86_400);
        let secs = self.0.rem_euclid(86_400);
        let (year, month, day) = civil_from_days(days);
        CivilDateTime {
            year,
            month,
            day,
            hour: (secs / 3_600) as u8,
            minute: ((secs % 3_600) / 60) as u8,
            second: (secs % 60) as u8,
        }
    }

    /// Hour of day in `0..24` (UTC).
    pub fn hour(self) -> u8 {
        (self.0.rem_euclid(86_400) / 3_600) as u8
    }

    /// Day of week. The epoch (1970-01-01) was a Thursday.
    pub fn weekday(self) -> Weekday {
        let days = self.0.div_euclid(86_400);
        // 1970-01-01 is Thursday => index 3 with Monday = 0.
        Weekday::from_index(((days + 3).rem_euclid(7)) as usize)
    }

    /// True between 22:00 (inclusive) and 06:00 (exclusive) UTC — the
    /// "night posting" window used by the paper's temporal features.
    pub fn is_night(self) -> bool {
        !(6..22).contains(&self.hour())
    }

    /// True on Saturday or Sunday.
    pub fn is_weekend(self) -> bool {
        self.weekday().is_weekend()
    }

    /// Signed difference `self - other` in fractional days.
    pub fn days_since(self, other: Timestamp) -> f64 {
        (self.0 - other.0) as f64 / 86_400.0
    }

    /// Add a (possibly negative) number of seconds.
    pub fn plus_seconds(self, secs: i64) -> Timestamp {
        Timestamp(self.0 + secs)
    }

    /// Fraction of the day elapsed, in `[0, 1)`.
    pub fn day_fraction(self) -> f64 {
        self.0.rem_euclid(86_400) as f64 / 86_400.0
    }

    /// Calendar month index since year 0 (`year * 12 + month - 1`). Useful
    /// for bucketing posts by month.
    pub fn month_index(self) -> i64 {
        let c = self.to_civil();
        i64::from(c.year) * 12 + i64::from(c.month) - 1
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_civil().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_thursday_midnight() {
        let t = Timestamp(0);
        let c = t.to_civil();
        assert_eq!((c.year, c.month, c.day), (1970, 1, 1));
        assert_eq!((c.hour, c.minute, c.second), (0, 0, 0));
        assert_eq!(t.weekday(), Weekday::Thursday);
    }

    #[test]
    fn known_dates_round_trip() {
        // 2020-01-01T00:00:00Z = 1577836800 (Wednesday)
        let t = Timestamp::from_ymd(2020, 1, 1).unwrap();
        assert_eq!(t.0, 1_577_836_800);
        assert_eq!(t.weekday(), Weekday::Wednesday);
        // 2021-12-31T23:59:59Z = 1640995199 (Friday)
        let t = Timestamp::from_ymd_hms(2021, 12, 31, 23, 59, 59).unwrap();
        assert_eq!(t.0, 1_640_995_199);
        assert_eq!(t.weekday(), Weekday::Friday);
    }

    #[test]
    fn leap_day_2020_valid() {
        assert!(Timestamp::from_ymd(2020, 2, 29).is_some());
        assert!(Timestamp::from_ymd(2021, 2, 29).is_none());
        assert!(Timestamp::from_ymd(2100, 2, 29).is_none());
        assert!(Timestamp::from_ymd(2000, 2, 29).is_some());
    }

    #[test]
    fn invalid_components_rejected() {
        assert!(Timestamp::from_ymd(2020, 0, 1).is_none());
        assert!(Timestamp::from_ymd(2020, 13, 1).is_none());
        assert!(Timestamp::from_ymd(2020, 4, 31).is_none());
        assert!(Timestamp::from_ymd_hms(2020, 4, 30, 24, 0, 0).is_none());
        assert!(Timestamp::from_ymd_hms(2020, 4, 30, 0, 60, 0).is_none());
    }

    #[test]
    fn night_window() {
        let t = Timestamp::from_ymd_hms(2020, 6, 15, 23, 0, 0).unwrap();
        assert!(t.is_night());
        let t = Timestamp::from_ymd_hms(2020, 6, 15, 5, 59, 59).unwrap();
        assert!(t.is_night());
        let t = Timestamp::from_ymd_hms(2020, 6, 15, 6, 0, 0).unwrap();
        assert!(!t.is_night());
        let t = Timestamp::from_ymd_hms(2020, 6, 15, 21, 59, 59).unwrap();
        assert!(!t.is_night());
    }

    #[test]
    fn weekend_detection() {
        // 2020-06-13 was a Saturday.
        let t = Timestamp::from_ymd(2020, 6, 13).unwrap();
        assert!(t.is_weekend());
        assert_eq!(t.weekday(), Weekday::Saturday);
        let t = Timestamp::from_ymd(2020, 6, 15).unwrap();
        assert!(!t.is_weekend());
        assert_eq!(t.weekday(), Weekday::Monday);
    }

    #[test]
    fn negative_timestamps_work() {
        // 1969-12-31T23:59:59Z
        let t = Timestamp(-1);
        let c = t.to_civil();
        assert_eq!((c.year, c.month, c.day), (1969, 12, 31));
        assert_eq!((c.hour, c.minute, c.second), (23, 59, 59));
        assert_eq!(t.hour(), 23);
    }

    #[test]
    fn month_index_advances() {
        let jan = Timestamp::from_ymd(2020, 1, 15).unwrap();
        let feb = Timestamp::from_ymd(2020, 2, 15).unwrap();
        let jan21 = Timestamp::from_ymd(2021, 1, 15).unwrap();
        assert_eq!(feb.month_index() - jan.month_index(), 1);
        assert_eq!(jan21.month_index() - jan.month_index(), 12);
    }

    #[test]
    fn display_is_iso8601() {
        let t = Timestamp::from_ymd_hms(2020, 3, 7, 9, 5, 2).unwrap();
        assert_eq!(t.to_string(), "2020-03-07T09:05:02Z");
    }

    #[test]
    fn day_fraction_bounds() {
        let t = Timestamp::from_ymd_hms(2020, 3, 7, 12, 0, 0).unwrap();
        assert!((t.day_fraction() - 0.5).abs() < 1e-9);
        let t = Timestamp::from_ymd(2020, 3, 7).unwrap();
        assert_eq!(t.day_fraction(), 0.0);
    }

    #[test]
    fn exhaustive_round_trip_2020_2021() {
        // Every day in the corpus window round-trips.
        let mut t = Timestamp::from_ymd(2020, 1, 1).unwrap();
        let end = Timestamp::from_ymd(2022, 1, 1).unwrap();
        let mut count = 0;
        while t < end {
            let c = t.to_civil();
            assert_eq!(c.to_timestamp(), t, "round trip failed at {t}");
            t = t.plus_seconds(Timestamp::DAY);
            count += 1;
        }
        assert_eq!(count, 366 + 365);
    }
}
