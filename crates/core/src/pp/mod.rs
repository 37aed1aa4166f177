//! Pipeline parallelism: schedules, timing simulation, and balanced
//! layer assignment (§3.1).

pub mod balance;
pub mod schedule;
pub mod sim;

pub use balance::{BalancePolicy, StageAssignment};
pub use schedule::{PpOp, PpSchedule, ScheduleError, ScheduleKind};
pub use sim::TableCosts;
