//! The workload registry: one lookup path for built-in Table 1 nets and
//! user-supplied `.ffnet` files.
//!
//! A [`WorkloadRegistry`] is the single lookup path: it resolves a workload
//! *reference* — a built-in name (case- and hyphen-insensitive, with
//! aliases), a path to a `.ffnet` file, or a bare name found as
//! `<dir>/<name>.ffnet` in a registered search directory — uniformly to
//! a validated [`Network`].
//!
//! # Example
//!
//! ```
//! use flexsim_model::registry::WorkloadRegistry;
//!
//! let reg = WorkloadRegistry::new();
//! assert_eq!(reg.resolve("lenet5").unwrap().name(), "LeNet-5");
//! assert!(reg.resolve("no-such-net").is_err());
//! ```

use crate::ffnet::{self, FfnetError};
use crate::layer::Layer;
use crate::network::Network;
use crate::workloads;
use std::fmt;
use std::path::{Path, PathBuf};

/// Where a registry entry comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadSource {
    /// Compiled-in constructor (Table 1 and the Section 4 demos).
    Builtin,
    /// A `.ffnet` file on disk.
    File(PathBuf),
}

/// One resolvable workload: its canonical name, accepted aliases, and
/// source.
#[derive(Clone, Debug)]
pub struct WorkloadEntry {
    /// Canonical display name (`"LeNet-5"`, or the `.ffnet` `name`).
    pub name: String,
    /// Extra names [`WorkloadRegistry::resolve`] accepts for it.
    pub aliases: Vec<&'static str>,
    /// Built-in constructor or file path.
    pub source: WorkloadSource,
}

/// Why a workload reference failed to resolve.
#[derive(Clone, Debug)]
pub enum WorkloadError {
    /// The name matched no built-in and no registered `.ffnet` file.
    UnknownName {
        /// The reference as given.
        name: String,
        /// Every name that would have resolved.
        available: Vec<String>,
    },
    /// The path could not be read.
    Io {
        /// The path as given.
        path: PathBuf,
        /// The OS error text.
        message: String,
    },
    /// The file was read but is not a valid `.ffnet` network.
    Parse {
        /// The path as given.
        path: PathBuf,
        /// The parser/graph diagnostic.
        error: FfnetError,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::UnknownName { name, available } => write!(
                f,
                "unknown workload `{name}`; available: {} — or pass a path to a .ffnet file",
                available.join(", ")
            ),
            WorkloadError::Io { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            WorkloadError::Parse { path, error } => {
                write!(f, "{}:{error}", path.display())
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Resolves workload references to [`Network`]s.
#[derive(Clone, Debug, Default)]
pub struct WorkloadRegistry {
    search_dirs: Vec<PathBuf>,
}

/// The compiled-in nets: `(canonical, aliases, constructor)`. Order is
/// the paper's Table 1 order followed by the demonstration nets.
type Builtin = (&'static str, &'static [&'static str], fn() -> Network);

const BUILTINS: &[Builtin] = &[
    ("PV", &[], workloads::pv),
    ("FR", &[], workloads::fr),
    ("LeNet-5", &["lenet"], workloads::lenet5),
    ("HG", &[], workloads::hg),
    ("AlexNet", &[], workloads::alexnet),
    ("VGG-11", &["vgg"], workloads::vgg11),
    ("LeNet-5-full", &["lenet5full"], workloads::lenet5_full),
    (
        "Section4-example",
        &["paper-example", "example"],
        workloads::paper_example,
    ),
    ("chained-toy", &["toy"], workloads::chained_toy),
];

/// Canonical key for name matching: lowercase, hyphens/underscores
/// dropped.
fn key(name: &str) -> String {
    name.chars()
        .filter(|c| *c != '-' && *c != '_')
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

impl WorkloadRegistry {
    /// A registry of the built-in workloads only.
    pub fn new() -> WorkloadRegistry {
        WorkloadRegistry::default()
    }

    /// Adds a directory whose `*.ffnet` files become resolvable by bare
    /// name and appear in [`WorkloadRegistry::entries`]. Missing
    /// directories are allowed (they contribute nothing).
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.search_dirs.push(dir.into());
        self
    }

    /// The registered search directories.
    pub fn search_dirs(&self) -> &[PathBuf] {
        &self.search_dirs
    }

    /// Lists every resolvable workload: built-ins in Table 1 order,
    /// then `.ffnet` files per search directory in lexicographic order.
    pub fn entries(&self) -> Vec<WorkloadEntry> {
        let mut out: Vec<WorkloadEntry> = BUILTINS
            .iter()
            .map(|(name, aliases, _)| WorkloadEntry {
                name: (*name).to_owned(),
                aliases: aliases.to_vec(),
                source: WorkloadSource::Builtin,
            })
            .collect();
        for dir in &self.search_dirs {
            let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "ffnet"))
                .collect();
            files.sort();
            for path in files {
                let stem = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                out.push(WorkloadEntry {
                    name: stem,
                    aliases: Vec::new(),
                    source: WorkloadSource::File(path),
                });
            }
        }
        out
    }

    /// Resolves a reference — built-in name, alias, `.ffnet` path, or
    /// bare file stem from a search directory — to a [`Network`].
    ///
    /// # Errors
    ///
    /// [`WorkloadError::UnknownName`] when nothing matches (listing
    /// what would), [`WorkloadError::Io`]/[`WorkloadError::Parse`] when
    /// a file reference fails.
    pub fn resolve(&self, reference: &str) -> Result<Network, WorkloadError> {
        // Explicit file references first: a .ffnet suffix or a path
        // separator means "this is a file", so its errors are reported
        // as file errors rather than falling back to name lookup.
        if reference.ends_with(".ffnet") || reference.contains('/') {
            return load_ffnet(Path::new(reference));
        }
        let want = key(reference);
        for (name, aliases, build) in BUILTINS {
            if key(name) == want || aliases.iter().any(|a| key(a) == want) {
                return Ok(build());
            }
        }
        for entry in self.entries() {
            if let WorkloadSource::File(path) = &entry.source {
                if key(&entry.name) == want {
                    return load_ffnet(path);
                }
            }
        }
        Err(WorkloadError::UnknownName {
            name: reference.to_owned(),
            available: self.entries().into_iter().map(|e| e.name).collect(),
        })
    }
}

/// Reads and parses one `.ffnet` file.
fn load_ffnet(path: &Path) -> Result<Network, WorkloadError> {
    let text = std::fs::read_to_string(path).map_err(|e| WorkloadError::Io {
        path: path.to_owned(),
        message: e.to_string(),
    })?;
    ffnet::parse_network(&text).map_err(|error| WorkloadError::Parse {
        path: path.to_owned(),
        error,
    })
}

/// Total trained parameter words in a network (conv kernels and FC
/// weights; the model has no bias terms).
pub fn param_count(net: &Network) -> u64 {
    net.layers()
        .iter()
        .map(|l| match l {
            Layer::Conv(c) => (c.m() * c.n() * c.k() * c.k()) as u64,
            Layer::Fc(fc) => (fc.inputs() * fc.outputs()) as u64,
            Layer::Pool(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_names_and_aliases_resolve() {
        let reg = WorkloadRegistry::new();
        assert_eq!(reg.resolve("alexnet").unwrap().name(), "AlexNet");
        assert_eq!(reg.resolve("LeNet-5").unwrap().name(), "LeNet-5");
        assert_eq!(reg.resolve("lenet").unwrap().name(), "LeNet-5");
        assert_eq!(reg.resolve("vgg").unwrap().name(), "VGG-11");
        assert_eq!(reg.resolve("toy").unwrap().name(), "chained-toy");
        assert_eq!(
            reg.resolve("paper_example").unwrap().name(),
            "Section4-example"
        );
    }

    #[test]
    fn unknown_name_lists_the_available_set() {
        let err = WorkloadRegistry::new().resolve("resnet50").unwrap_err();
        match err {
            WorkloadError::UnknownName { available, .. } => {
                assert!(available.iter().any(|n| n == "AlexNet"));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = WorkloadRegistry::new()
            .resolve("/nonexistent/net.ffnet")
            .unwrap_err();
        assert!(matches!(err, WorkloadError::Io { .. }), "{err}");
    }

    #[test]
    fn param_count_counts_kernels_and_fc_weights() {
        let net = workloads::lenet5();
        // C1: 6*1*5*5 = 150, C3: 16*6*5*5 = 2400, pool: 0.
        assert_eq!(param_count(&net), 2550);
    }

    #[test]
    fn entries_lead_with_table1() {
        let names: Vec<String> = WorkloadRegistry::new()
            .entries()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(
            &names[..6],
            &["PV", "FR", "LeNet-5", "HG", "AlexNet", "VGG-11"]
        );
    }
}
