//! The paper's 2004 designs that production no longer runs, kept for
//! the exhibits that measure them and as test oracles.
//!
//! * [`depot::cache`] — the depot cache of §3.2.2: **one XML document
//!   updated by streaming parse** ([`XmlCache`]). Every insert and
//!   every query streams the whole document, so insert time grows with
//!   cache size (§5.2, Figure 9). The production depot caches on
//!   `inca-server`'s `RopeCache`, which renders the same bytes; its
//!   tests hold it to this cache byte for byte, and the paper depot of
//!   `inca-core` (`experiments::paper_depot`) times it for Figure 9
//!   and Table 4.
//!
//! This crate depends on no production crate but `inca-xml` and
//! `inca-report`, so `inca-server` can take it as a dev-dependency.

#![deny(missing_docs)]

pub mod depot {
    //! The paper's depot, as far as its exhibits and oracles need it.
    pub mod cache;
}

pub use depot::cache::XmlCache;
#[cfg(debug_assertions)]
pub use depot::cache::streamed_bytes;
