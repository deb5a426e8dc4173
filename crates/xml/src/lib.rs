//! Minimal XML substrate for inca-rs.
//!
//! The Inca framework (SC 2004) is built around XML everywhere: reporters
//! emit XML reports, the centralized controller wraps them in XML
//! envelopes, and the depot caches all current data in a **single XML
//! document** that is stream-parsed (SAX) on every update — a design
//! decision the paper measures directly (§3.2.2, §5.2.2, Figure 9).
//!
//! Because that SAX-on-one-file design is itself a measured artifact of
//! the paper, this crate implements the XML machinery from scratch rather
//! than pulling in an external parser:
//!
//! * [`tokenizer`] — a pull tokenizer over a UTF-8 string,
//! * [`sax`] — SAX-style event dispatch built on the tokenizer,
//! * [`tree`] — a lightweight owned element tree for when a DOM is
//!   genuinely needed (small documents: specs, agreements),
//! * [`writer`] — serialization with correct escaping,
//! * [`path`] — Inca *path addressing* (`value, statistic=lowerBound,
//!   metric=bandwidth`) used to locate data inside open-schema report
//!   bodies,
//! * [`escape`] — text/attribute escaping primitives,
//! * [`skim`] — a structural well-formedness skim (one tokenizer pass,
//!   no tree) for the binary wire fast path.
//!
//! Only the XML subset Inca needs is supported: elements, attributes,
//! text, CDATA, comments, processing instructions and the XML
//! declaration. DTDs and namespaces-aware processing are out of scope
//! (the 2004 system did not rely on them either).

pub mod error;
pub mod escape;
pub mod path;
pub mod sax;
pub mod skim;
pub mod tokenizer;
pub mod tree;
pub mod writer;

pub use error::{XmlError, XmlResult};
pub use skim::skim_balanced;
pub use path::{resolve_steps, IncaPath, PathStep, StepRef};
pub use sax::{SaxDriver, SaxHandler};
pub use tokenizer::{Attribute, Token, Tokenizer};
pub use tree::{Element, Node};
pub use writer::XmlWriter;
