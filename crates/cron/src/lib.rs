//! Cron substrate for the distributed controller.
//!
//! Inca's distributed controller is "a Perl daemon with built-in cron
//! capability" (§3.1.3): the frequency of execution for a reporter is
//! expressed as a cron table entry, configurable per reporter. To spread
//! load, "reporters are scheduled to run at random times during their
//! period" — an hourly reporter might run at the 20th minute of every
//! hour, another at the 31st.
//!
//! This crate provides the two pieces that behaviour needs:
//!
//! * [`expr::CronExpr`] — classic 5-field cron expressions (minute,
//!   hour, day-of-month, month, day-of-week) with lists, ranges and
//!   steps, and each expression's next fire after a given time, which
//!   the controller's wake-up heap drives,
//! * [`offset::Frequency`] — the *period* abstraction
//!   (every-N-minutes/hourly/daily/weekly) plus deterministic random
//!   offset assignment within the period.

pub mod expr;
pub mod offset;

pub use expr::{CronError, CronExpr, Field};
pub use offset::Frequency;
