//! The machine-readable service agreement.
//!
//! §4.1: "In order to visualize resource compliance to the TeraGrid
//! Hosting Environment, a machine-readable version of the service
//! agreement was formatted in XML. A resource's status is divided into
//! three categories: Grid, Development, and Cluster." The agreement
//! lists the required packages with version constraints per category,
//! the required default-environment variables, SoftEnv keys, and
//! services.

use std::str::FromStr;

use inca_xml::{Element, XmlError, XmlResult};

use crate::version_req::VersionReq;

/// The status-page category a requirement belongs to (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Grid middleware requirements.
    Grid,
    /// Development library requirements.
    Development,
    /// Cluster-level requirements.
    Cluster,
}

impl Category {
    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Grid => "Grid",
            Category::Development => "Development",
            Category::Cluster => "Cluster",
        }
    }

    /// All categories in status-page order.
    pub fn all() -> [Category; 3] {
        [Category::Grid, Category::Development, Category::Cluster]
    }
}

impl FromStr for Category {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "Grid" => Ok(Category::Grid),
            "Development" => Ok(Category::Development),
            "Cluster" => Ok(Category::Cluster),
            other => Err(format!("unknown category {other:?}")),
        }
    }
}

/// One required package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageRequirement {
    /// Package name.
    pub name: String,
    /// Category it is reported under.
    pub category: Category,
    /// Acceptable versions.
    pub version: VersionReq,
    /// Whether the package's unit tests must also pass.
    pub require_unit_tests: bool,
}

/// One required environment variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvVarRequirement {
    /// Variable name.
    pub name: String,
    /// Required exact value, or `None` for presence only.
    pub expected: Option<String>,
}

/// The full agreement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Agreement {
    /// The VO this agreement belongs to.
    pub vo: String,
    /// Agreement version (the Figure 4 page says "2.0").
    pub version: String,
    /// Required packages.
    pub packages: Vec<PackageRequirement>,
    /// Required default-environment variables.
    pub env_vars: Vec<EnvVarRequirement>,
    /// Required SoftEnv keys.
    pub softenv_keys: Vec<String>,
    /// Required services (by the reporter-visible service id:
    /// `gram`, `gridftp`, `ssh`, `srb`).
    pub services: Vec<String>,
}

impl Agreement {
    /// An empty agreement.
    pub fn new(vo: impl Into<String>, version: impl Into<String>) -> Agreement {
        Agreement { vo: vo.into(), version: version.into(), ..Default::default() }
    }

    /// Number of individual requirements (the paper verifies "over
    /// 900 pieces of data" across ten resources).
    pub fn requirement_count(&self) -> usize {
        self.packages.len() + self.env_vars.len() + self.softenv_keys.len() + self.services.len()
    }

    /// The TeraGrid Hosting Environment agreement matching the CTSS
    /// software stack of the simulated VO.
    pub fn teragrid() -> Agreement {
        let mut a = Agreement::new("teragrid", "2.0");
        let grid: &[(&str, &str)] = &[
            ("globus", ">=2.4.0"),
            ("condor-g", ">=6.6.0"),
            ("gridftp", ">=2.4.0"),
            ("srb", ">=3.2.0"),
            ("gsi-openssh", ">=3.4"),
            ("myproxy", ">=1.14"),
            ("gpt", ">=3.1"),
        ];
        let dev: &[(&str, &str)] = &[
            ("mpich", "1.2.x"),
            ("mpich-g2", "1.2.x"),
            ("atlas", ">=3.6.0"),
            ("hdf4", "*"),
            ("hdf5", ">=1.6.0"),
            ("blas", "*"),
            ("gcc", ">=3.2.0"),
            ("intel-compilers", ">=8.0"),
            ("python", ">=2.3"),
        ];
        let cluster: &[(&str, &str)] = &[("pbs", "*"), ("softenv", ">=1.4.0")];
        for (list, category) in
            [(grid, Category::Grid), (dev, Category::Development), (cluster, Category::Cluster)]
        {
            for (name, req) in list {
                a.packages.push(PackageRequirement {
                    name: name.to_string(),
                    category,
                    version: req.parse().expect("static requirement parses"),
                    require_unit_tests: true,
                });
            }
        }
        for var in
            ["TG_CLUSTER_HOME", "TG_CLUSTER_SCRATCH", "TG_APPS_PREFIX", "GLOBUS_LOCATION"]
        {
            a.env_vars.push(EnvVarRequirement { name: var.to_string(), expected: None });
        }
        for key in ["@teragrid-basic", "+globus", "+srb", "+mpich", "+hdf5"] {
            a.softenv_keys.push(key.to_string());
        }
        for svc in ["gram", "gridftp", "ssh", "srb"] {
            a.services.push(svc.to_string());
        }
        a
    }

    /// Serializes the agreement XML.
    pub fn to_xml(&self) -> String {
        let mut root = Element::new("serviceAgreement")
            .attr("vo", &self.vo)
            .attr("version", &self.version);
        for p in &self.packages {
            root.push_child(
                Element::new("package")
                    .attr("name", &p.name)
                    .attr("category", p.category.as_str())
                    .attr("unitTests", if p.require_unit_tests { "true" } else { "false" })
                    .child(Element::with_text("versionRequired", p.version.to_string())),
            );
        }
        for v in &self.env_vars {
            let mut e = Element::new("envVar").attr("name", &v.name);
            if let Some(val) = &v.expected {
                e = e.attr("value", val);
            }
            root.push_child(e);
        }
        for k in &self.softenv_keys {
            root.push_child(Element::new("softenvKey").attr("name", k));
        }
        for s in &self.services {
            root.push_child(Element::new("service").attr("kind", s));
        }
        root.to_pretty_xml()
    }

    /// Parses an agreement XML document.
    pub fn parse(xml: &str) -> XmlResult<Agreement> {
        let root = Element::parse(xml)?;
        if root.name != "serviceAgreement" {
            return Err(XmlError::Constraint {
                message: format!("expected <serviceAgreement>, found <{}>", root.name),
            });
        }
        let vo = root.attribute("vo").unwrap_or("unknown").to_string();
        let version = root.attribute("version").unwrap_or("1.0").to_string();
        let mut a = Agreement::new(vo, version);
        for p in root.find_children("package") {
            let name = p
                .attribute("name")
                .ok_or_else(|| XmlError::Constraint {
                    message: "<package> missing name".into(),
                })?
                .to_string();
            let category: Category = p
                .attribute("category")
                .unwrap_or("Grid")
                .parse()
                .map_err(|e| XmlError::Constraint { message: e })?;
            let version: VersionReq = p
                .child_text("versionRequired")
                .unwrap_or_else(|| "*".to_string())
                .parse()
                .map_err(|e| XmlError::Constraint { message: e })?;
            let require_unit_tests = p.attribute("unitTests").is_none_or(|v| v == "true");
            a.packages.push(PackageRequirement { name, category, version, require_unit_tests });
        }
        for v in root.find_children("envVar") {
            let name = v
                .attribute("name")
                .ok_or_else(|| XmlError::Constraint { message: "<envVar> missing name".into() })?
                .to_string();
            a.env_vars.push(EnvVarRequirement {
                name,
                expected: v.attribute("value").map(str::to_string),
            });
        }
        for k in root.find_children("softenvKey") {
            let name = k
                .attribute("name")
                .ok_or_else(|| XmlError::Constraint {
                    message: "<softenvKey> missing name".into(),
                })?
                .to_string();
            a.softenv_keys.push(name);
        }
        for s in root.find_children("service") {
            let kind = s
                .attribute("kind")
                .ok_or_else(|| XmlError::Constraint { message: "<service> missing kind".into() })?
                .to_string();
            a.services.push(kind);
        }
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teragrid_agreement_shape() {
        let a = Agreement::teragrid();
        assert_eq!(a.vo, "teragrid");
        assert_eq!(a.packages.len(), 18, "one requirement per CTSS package");
        assert!(a.requirement_count() > 25);
        assert!(a.packages.iter().any(|p| p.name == "globus" && p.category == Category::Grid));
        assert!(a.packages.iter().any(|p| p.name == "mpich" && p.category == Category::Development));
        assert!(a.packages.iter().any(|p| p.name == "pbs" && p.category == Category::Cluster));
    }

    #[test]
    fn xml_roundtrip() {
        let a = Agreement::teragrid();
        let parsed = Agreement::parse(&a.to_xml()).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn parse_rejects_wrong_root() {
        assert!(Agreement::parse("<notAgreement/>").is_err());
    }

    #[test]
    fn parse_defaults() {
        let xml = r#"<serviceAgreement vo="v" version="1"><package name="x"/></serviceAgreement>"#;
        let a = Agreement::parse(xml).unwrap();
        assert_eq!(a.packages[0].category, Category::Grid);
        assert_eq!(a.packages[0].version, VersionReq::Any);
        assert!(a.packages[0].require_unit_tests);
    }

    #[test]
    fn parse_rejects_bad_category() {
        let xml = r#"<serviceAgreement vo="v" version="1"><package name="x" category="Quantum"/></serviceAgreement>"#;
        assert!(Agreement::parse(xml).is_err());
    }

    #[test]
    fn env_var_with_expected_value() {
        let mut a = Agreement::new("v", "1");
        a.env_vars.push(EnvVarRequirement {
            name: "GLOBUS_LOCATION".into(),
            expected: Some("/usr/globus".into()),
        });
        let parsed = Agreement::parse(&a.to_xml()).unwrap();
        assert_eq!(parsed.env_vars[0].expected.as_deref(), Some("/usr/globus"));
    }

    #[test]
    fn category_parse() {
        assert_eq!("Grid".parse::<Category>().unwrap(), Category::Grid);
        assert!("grid".parse::<Category>().is_err());
        assert_eq!(Category::all().len(), 3);
    }
}
