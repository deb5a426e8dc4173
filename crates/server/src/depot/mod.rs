//! The depot: "Inca's facility for data management, caching and
//! archiving. The design of the depot was driven by the need to require
//! very little administration" (§3.2.2).

pub mod archive;
pub mod cache;
#[allow(clippy::module_inception)]
pub mod depot;
pub(crate) mod memo;
pub mod rope;
