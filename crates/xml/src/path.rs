//! Inca path addressing of open-schema report bodies.
//!
//! The reporter specification keeps the body schema open but requires
//! every repeated branch to carry a unique `<ID>` child. With that rule
//! in place, any piece of data can be located by a *path* written
//! leaf-first, exactly as in the paper's example (§3.1.2, Figure 2):
//!
//! ```text
//! value, statistic=lowerBound, metric=bandwidth
//! ```
//!
//! reads "the `<value>` inside the `<statistic>` whose ID is
//! `lowerBound`, inside the `<metric>` whose ID is `bandwidth`". A step
//! is a tag name with an optional `=id` constraint that is checked
//! against the element's `<ID>` child (or, as a fallback, an `id`
//! attribute).

use std::fmt;
use std::str::FromStr;

use crate::error::{XmlError, XmlResult};
use crate::tree::Element;

/// One step of an [`IncaPath`]: a tag name plus optional ID constraint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathStep {
    /// Element tag name the step matches.
    pub name: String,
    /// Required branch ID, if the step is of the `name=id` form.
    pub id: Option<String>,
}

impl PathStep {
    /// Creates a step matching any element with the given tag name.
    pub fn named(name: impl Into<String>) -> Self {
        PathStep { name: name.into(), id: None }
    }

    /// Creates a step matching `name` whose branch ID equals `id`.
    pub fn with_id(name: impl Into<String>, id: impl Into<String>) -> Self {
        PathStep { name: name.into(), id: Some(id.into()) }
    }

    /// Whether `element` satisfies this step.
    pub fn matches(&self, element: &Element) -> bool {
        step_matches(element, self.borrowed())
    }

    /// The step as borrowed parts, the form [`resolve_steps`] takes.
    pub fn borrowed(&self) -> StepRef<'_> {
        (&self.name, self.id.as_deref())
    }
}

/// One borrowed path step: a tag name plus optional branch-ID
/// constraint — a [`PathStep`] without the owned strings.
pub type StepRef<'s> = (&'s str, Option<&'s str>);

fn step_matches(element: &Element, (name, id): StepRef<'_>) -> bool {
    if element.name != name {
        return false;
    }
    match id {
        None => true,
        Some(want) => {
            element.branch_id().as_deref() == Some(want) || element.attribute("id") == Some(want)
        }
    }
}

/// Resolves borrowed steps given **root-first** (the reverse of an
/// [`IncaPath`]'s written order) against `root`: what
/// [`IncaPath::resolve`] does, for callers whose step IDs vary per
/// lookup and who would otherwise format and parse a path each time.
pub fn resolve_steps<'a>(root: &'a Element, rootward: &[StepRef<'_>]) -> Option<&'a Element> {
    let (first, rest) = rootward.split_first()?;
    if step_matches(root, *first) {
        if rest.is_empty() {
            return Some(root);
        }
        if let Some(found) = descend(root, rest) {
            return Some(found);
        }
    }
    // The root-most step may match anywhere below.
    root.child_elements().find_map(|c| resolve_steps(c, rootward))
}

fn descend<'a>(element: &'a Element, steps: &[StepRef<'_>]) -> Option<&'a Element> {
    let (next, rest) = steps.split_first()?;
    for child in element.child_elements() {
        if step_matches(child, *next) {
            if rest.is_empty() {
                return Some(child);
            }
            if let Some(found) = descend(child, rest) {
                return Some(found);
            }
        }
    }
    None
}

impl fmt::Display for PathStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.id {
            Some(id) => write!(f, "{}={}", self.name, id),
            None => write!(f, "{}", self.name),
        }
    }
}

/// A leaf-first path into an open-schema XML body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IncaPath {
    /// Steps as written: leaf first, root-most last.
    steps: Vec<PathStep>,
}

impl IncaPath {
    /// Builds a path from leaf-first steps.
    pub fn new(steps: Vec<PathStep>) -> Self {
        IncaPath { steps }
    }

    /// The steps, leaf first.
    pub fn steps(&self) -> &[PathStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the path has no steps (matches nothing).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Resolves the path against `root`, returning the first matching
    /// element in document order.
    ///
    /// The root-most step may match `root` itself or any descendant;
    /// each subsequent (leaf-ward) step must match a child of the
    /// previous match. This mirrors how the depot's query interface
    /// drills into a cached report.
    pub fn resolve<'a>(&self, root: &'a Element) -> Option<&'a Element> {
        // Walk root-ward step first: reverse the leaf-first order.
        let rootward: Vec<StepRef<'_>> = self.steps.iter().rev().map(PathStep::borrowed).collect();
        resolve_steps(root, &rootward)
    }

    /// Resolves the path and returns the matched element's text.
    pub fn resolve_text(&self, root: &Element) -> XmlResult<String> {
        self.resolve(root)
            .map(Element::text)
            .ok_or_else(|| XmlError::PathNotFound { path: self.to_string() })
    }
}

impl fmt::Display for IncaPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered: Vec<String> = self.steps.iter().map(PathStep::to_string).collect();
        write!(f, "{}", rendered.join(", "))
    }
}

impl FromStr for IncaPath {
    type Err = XmlError;

    /// Parses the textual form, e.g. `value, statistic=lowerBound,
    /// metric=bandwidth`. Whitespace around separators is ignored.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.trim().is_empty() {
            return Err(XmlError::InvalidPath { message: "empty path".into() });
        }
        let mut steps = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(XmlError::InvalidPath {
                    message: format!("empty step in path {s:?}"),
                });
            }
            let step = match part.split_once('=') {
                Some((name, id)) => {
                    let (name, id) = (name.trim(), id.trim());
                    if name.is_empty() || id.is_empty() {
                        return Err(XmlError::InvalidPath {
                            message: format!("malformed step {part:?}"),
                        });
                    }
                    PathStep::with_id(name, id)
                }
                None => PathStep::named(part),
            };
            steps.push(step);
        }
        Ok(IncaPath::new(steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body() -> Element {
        Element::parse(
            "<body>\
               <metric><ID>bandwidth</ID>\
                 <statistic><ID>upperBound</ID><value>998.67</value><units>Mbps</units></statistic>\
                 <statistic><ID>lowerBound</ID><value>984.99</value><units>Mbps</units></statistic>\
               </metric>\
               <metric><ID>latency</ID>\
                 <statistic><ID>mean</ID><value>1.2</value></statistic>\
               </metric>\
             </body>",
        )
        .unwrap()
    }

    #[test]
    fn parse_paper_example() {
        let p: IncaPath = "value, statistic=lowerBound, metric=bandwidth".parse().unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.steps()[0], PathStep::named("value"));
        assert_eq!(p.steps()[1], PathStep::with_id("statistic", "lowerBound"));
        assert_eq!(p.steps()[2], PathStep::with_id("metric", "bandwidth"));
    }

    #[test]
    fn display_roundtrip() {
        let text = "value, statistic=lowerBound, metric=bandwidth";
        let p: IncaPath = text.parse().unwrap();
        assert_eq!(p.to_string(), text);
        let p2: IncaPath = p.to_string().parse().unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn resolves_paper_example() {
        let p: IncaPath = "value, statistic=lowerBound, metric=bandwidth".parse().unwrap();
        assert_eq!(p.resolve_text(&body()).unwrap(), "984.99");
    }

    #[test]
    fn resolves_other_branch() {
        let p: IncaPath = "value, statistic=upperBound, metric=bandwidth".parse().unwrap();
        assert_eq!(p.resolve_text(&body()).unwrap(), "998.67");
        let p: IncaPath = "value, statistic=mean, metric=latency".parse().unwrap();
        assert_eq!(p.resolve_text(&body()).unwrap(), "1.2");
    }

    #[test]
    fn borrowed_steps_resolve_like_the_parsed_path() {
        let root = body();
        let steps =
            [("metric", Some("bandwidth")), ("statistic", Some("lowerBound")), ("value", None)];
        assert_eq!(resolve_steps(&root, &steps).unwrap().text(), "984.99");
        assert!(resolve_steps(&root, &[("metric", Some("jitter")), ("value", None)]).is_none());
        assert!(resolve_steps(&root, &[]).is_none());
    }

    #[test]
    fn single_step_path_finds_descendant() {
        let p: IncaPath = "units".parse().unwrap();
        assert_eq!(p.resolve_text(&body()).unwrap(), "Mbps");
    }

    #[test]
    fn missing_path_errors() {
        let p: IncaPath = "value, statistic=p99, metric=bandwidth".parse().unwrap();
        assert!(matches!(p.resolve_text(&body()), Err(XmlError::PathNotFound { .. })));
    }

    #[test]
    fn id_attribute_fallback() {
        let root = Element::parse("<a><b id=\"x\"><v>1</v></b><b id=\"y\"><v>2</v></b></a>")
            .unwrap();
        let p: IncaPath = "v, b=y".parse().unwrap();
        assert_eq!(p.resolve_text(&root).unwrap(), "2");
    }

    #[test]
    fn rootmost_step_can_match_root_itself() {
        let root = body();
        let p: IncaPath = "body".parse().unwrap();
        assert_eq!(p.resolve(&root).unwrap().name, "body");
    }

    #[test]
    fn empty_and_malformed_paths_rejected() {
        assert!("".parse::<IncaPath>().is_err());
        assert!("a,,b".parse::<IncaPath>().is_err());
        assert!("a, =x".parse::<IncaPath>().is_err());
        assert!("a, b=".parse::<IncaPath>().is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let p: IncaPath = "  value ,statistic = lowerBound ,  metric=bandwidth ".parse().unwrap();
        assert_eq!(p.resolve_text(&body()).unwrap(), "984.99");
    }

    #[test]
    fn empty_path_resolves_to_none() {
        let p = IncaPath::new(vec![]);
        assert!(p.is_empty());
        assert!(p.resolve(&body()).is_none());
    }

    #[test]
    fn first_match_in_document_order() {
        // Without an ID constraint, the first statistic wins.
        let p: IncaPath = "value, statistic, metric=bandwidth".parse().unwrap();
        assert_eq!(p.resolve_text(&body()).unwrap(), "998.67");
    }
}
