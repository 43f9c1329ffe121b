//! Graph storage, generation, IO, and statistics for FlashMob-RS.
//!
//! This crate provides every graph-side substrate the FlashMob paper
//! depends on:
//!
//! * [`csr::Csr`] — the standard Compressed Sparse Row layout used by all
//!   engines for general (irregular-degree) vertex ranges.
//! * [`regular::FixedDegreeSlab`] — the row rule FlashMob uses for
//!   uniform-degree low-degree partitions (Section 4.2, "DS allows
//!   FlashMob to exploit ... simpler indexing"): a row's start in the
//!   CSR is computed, not read from the offsets.
//! * [`relabel`] — degree-descending vertex relabeling via O(|V| + D)
//!   counting sort (Section 4.1, "Vertex ordering"; Section 5.2 reports
//!   7.7 s for the 6.6B-edge YahooWeb graph).
//! * [`builder::GraphBuilder`] — edge-list accumulation with optional
//!   deduplication and symmetrization.
//! * [`synth`] — synthetic generators: configuration-model power-law
//!   graphs, R-MAT, regular rings, stars, paths, completes.
//! * [`presets`] — scaled-down analogs of the paper's five evaluation
//!   graphs (Table 4) plus the cache-sized toy graphs of Figure 1.
//! * [`stats`] — the degree-percentile bucket machinery behind Table 2,
//!   the diameter estimate and the weak component count of `fmwalk stats`.
//! * [`io`] — text edge-list parsing and a compact binary format.
//! * [`mem`] — huge-page advice for the big arrays, the workspace's one
//!   foreign call.
//! * [`prefetch`] — the workspace's one software-prefetch hint.

pub mod bloom;
pub mod builder;
pub mod csr;
pub mod io;
pub mod mem;
pub mod prefetch;
pub mod presets;
pub mod regular;
pub mod relabel;
pub mod stats;
pub mod synth;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use regular::FixedDegreeSlab;

/// Vertex identifier.
///
/// `u32` covers every graph in the paper's evaluation except raw YahooWeb
/// (720M vertices still fits); it halves walker-array traffic relative to
/// `u64`, which is exactly the compactness the paper's shuffle stage
/// depends on.
pub type VertexId = u32;

/// Errors produced by graph construction and IO.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a vertex ID outside `[0, |V|)`.
    VertexOutOfRange {
        /// The offending vertex ID.
        vid: u64,
        /// The number of vertices in the graph.
        vertex_count: u64,
    },
    /// The graph would exceed the `VertexId` address space.
    TooManyVertices(u64),
    /// A text edge list failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Binary format corruption.
    Format(String),
    /// An underlying IO failure.
    Io(std::io::Error),
    /// An IO failure with the file (and, when known, offset) attached.
    IoAt {
        /// The file being read or written.
        path: std::path::PathBuf,
        /// Byte offset of the failed access, when known.
        offset: Option<u64>,
        /// The underlying IO error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vid, vertex_count } => {
                write!(f, "vertex {vid} out of range (|V| = {vertex_count})")
            }
            GraphError::TooManyVertices(n) => {
                write!(f, "{n} vertices exceed the u32 vertex ID space")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Format(m) => write!(f, "bad binary graph: {m}"),
            GraphError::Io(e) => write!(f, "io error: {e}"),
            GraphError::IoAt {
                path,
                offset,
                source,
            } => match offset {
                Some(off) => write!(
                    f,
                    "io error at {} (offset {off}): {source}",
                    path.display()
                ),
                None => write!(f, "io error at {}: {source}", path.display()),
            },
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            GraphError::IoAt { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

impl GraphError {
    /// Attaches a file path (and optional byte offset) to an IO error.
    pub fn io_at(
        path: impl Into<std::path::PathBuf>,
        offset: Option<u64>,
        source: std::io::Error,
    ) -> Self {
        GraphError::IoAt {
            path: path.into(),
            offset,
            source,
        }
    }

    /// The underlying `io::Error`, if this is an IO failure.
    pub fn io_source(&self) -> Option<&std::io::Error> {
        match self {
            GraphError::Io(e) => Some(e),
            GraphError::IoAt { source, .. } => Some(source),
            _ => None,
        }
    }
}
