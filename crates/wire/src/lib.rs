//! Wire protocols between Inca components.
//!
//! Two hops carry reports in the paper's architecture (§3.1.3, §3.2.1):
//!
//! 1. **distributed controller → centralized controller**: a plain TCP
//!    connection carrying the report and its branch identifier. Here
//!    that is a length-prefixed frame ([`frame`]) around an XML client
//!    message ([`message`]).
//! 2. **centralized controller → depot**: a "Web services interface".
//!    The 2004 implementation used SOAP/Axis, and §5.2.2 measures the
//!    envelope-unpacking cost growing with report size. [`envelope`]
//!    reproduces that interface: body mode escapes and embeds the
//!    report (unpacking must unescape and re-parse it — the measured
//!    cost), while attachment mode implements the paper's proposed
//!    optimization of shipping the report as a raw attachment.
//!    [`binframe`] goes one step further than the paper: a
//!    length-prefixed binary section format whose decoder *borrows*
//!    the report bytes out of the payload (zero copy), negotiated per
//!    frame against the XML envelope by a magic byte no XML document
//!    can start with ([`EnvelopeView::decode`] handles mixed traffic).
//!
//! [`allowlist`] implements the centralized controller's host check:
//! "it checks the host against a list of hostnames to see whether it
//! should accept the connection".
//!
//! This crate is pure codec — no I/O, no clocks — which is what lets
//! the server instrument both hops: envelope-unpack time lands in the
//! `inca_depot_unpack_seconds` histogram and decode failures in
//! `inca_controller_rejected_total{reason="decode"}` (see
//! `docs/OBSERVABILITY.md` at the repository root).

#![deny(missing_docs)]

pub mod allowlist;
pub mod binframe;
pub mod envelope;
pub mod frame;
pub mod message;

pub use allowlist::HostAllowlist;
pub use binframe::{
    decode_binary, encode_binary, is_binary_frame, put_section, BinaryFrame, SectionReader,
    BINARY_MAGIC, BINARY_VERSION, SECTION_ADDRESS, SECTION_REPORT, SECTION_TRACE,
};
pub use envelope::{Envelope, EnvelopeMode, EnvelopeView};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use message::{ClientMessage, ServerResponse, WireError};
