//! The five workloads. Each module's head says what runs in its timed
//! region and why it was chosen.

pub mod archive;
pub mod daemon;
pub mod pipeline;
pub mod timetravel;
