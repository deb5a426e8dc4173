//! The uniform report footer.
//!
//! "The footer contains an exit status indicating success or failure; if
//! a failure is reported, a brief error message is required" (§3.1.2).

use inca_xml::{Element, XmlError, XmlResult};

/// Success or failure of a reporter run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitStatus {
    /// The reporter ran to completion.
    Completed,
    /// The reporter failed (the footer must carry an error message).
    Failed,
}

impl ExitStatus {
    /// Textual form used in the XML (`completed` / `failed`).
    pub fn as_str(self) -> &'static str {
        match self {
            ExitStatus::Completed => "completed",
            ExitStatus::Failed => "failed",
        }
    }

    /// Whether this is [`ExitStatus::Completed`].
    pub fn is_success(self) -> bool {
        matches!(self, ExitStatus::Completed)
    }
}

/// The footer of a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footer {
    /// Exit status of the run.
    pub status: ExitStatus,
    /// Error message; required when `status` is `Failed`.
    pub error_message: Option<String>,
}

impl Footer {
    /// A successful footer.
    pub fn completed() -> Self {
        Footer { status: ExitStatus::Completed, error_message: None }
    }

    /// A failed footer with the required error message.
    pub fn failed(message: impl Into<String>) -> Self {
        Footer { status: ExitStatus::Failed, error_message: Some(message.into()) }
    }

    /// Validates the spec rule that failures carry a message.
    pub fn validate(&self) -> XmlResult<()> {
        if self.status == ExitStatus::Failed
            && self.error_message.as_deref().is_none_or(|m| m.trim().is_empty())
        {
            return Err(XmlError::Constraint {
                message: "failed reports must include a non-empty error message".into(),
            });
        }
        Ok(())
    }

    /// Serializes as the `<footer>` element.
    pub fn to_element(&self) -> Element {
        let mut footer =
            Element::new("footer").child(Element::with_text("exitStatus", self.status.as_str()));
        if let Some(msg) = &self.error_message {
            footer.push_child(Element::with_text("errorMessage", msg));
        }
        footer
    }

    /// Parses a `<footer>` element, enforcing the error-message rule.
    pub fn from_element(e: &Element) -> XmlResult<Footer> {
        if e.name != "footer" {
            return Err(XmlError::Constraint {
                message: format!("expected <footer>, found <{}>", e.name),
            });
        }
        let status_text = e.child_text("exitStatus").ok_or_else(|| XmlError::Constraint {
            message: "footer is missing <exitStatus>".into(),
        })?;
        let status = match status_text.as_str() {
            "completed" => ExitStatus::Completed,
            "failed" => ExitStatus::Failed,
            other => {
                return Err(XmlError::Constraint {
                    message: format!("unknown exit status {other:?}"),
                })
            }
        };
        let footer = Footer { status, error_message: e.child_text("errorMessage") };
        footer.validate()?;
        Ok(footer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_roundtrip() {
        let f = Footer::completed();
        assert_eq!(Footer::from_element(&f.to_element()).unwrap(), f);
    }

    #[test]
    fn failed_roundtrip() {
        let f = Footer::failed("gatekeeper did not answer on port 2119");
        let parsed = Footer::from_element(&f.to_element()).unwrap();
        assert_eq!(parsed, f);
        assert!(!parsed.status.is_success());
    }

    #[test]
    fn failure_requires_message() {
        let f = Footer { status: ExitStatus::Failed, error_message: None };
        assert!(f.validate().is_err());
        let f = Footer { status: ExitStatus::Failed, error_message: Some("  ".into()) };
        assert!(f.validate().is_err());
        assert!(Footer::from_element(&f.to_element()).is_err());
    }

    #[test]
    fn success_message_optional() {
        let f = Footer { status: ExitStatus::Completed, error_message: Some("warning".into()) };
        assert!(f.validate().is_ok());
    }

    #[test]
    fn unknown_status_rejected() {
        let e = Element::new("footer").child(Element::with_text("exitStatus", "maybe"));
        assert!(Footer::from_element(&e).is_err());
    }

    #[test]
    fn missing_status_rejected() {
        assert!(Footer::from_element(&Element::new("footer")).is_err());
    }

    #[test]
    fn status_strings() {
        assert_eq!(ExitStatus::Completed.as_str(), "completed");
        assert_eq!(ExitStatus::Failed.as_str(), "failed");
        assert!(ExitStatus::Completed.is_success());
    }
}
