//! The four workloads and everything pinned about them.
//!
//! A workload is one (input file, algorithm, episode size) triple.  The
//! graphs are fixed -- `--seed` drives walker placement and RNG only --
//! and every constant that a result depends on (episode size, corpus
//! length, calibration size, reference calibration time, fingerprints,
//! golden digests) lives in this file so that a later PR that changes
//! one of them shows up as a one-line diff here.

use fm_graph::presets::{AnalogScale, PaperGraph};

/// Seed used when `--seed` is not given; golden digests are pinned for it.
pub const DEFAULT_SEED: u64 = 1;

/// Graph scale: `Bench` is what `BENCHMARK.json` measures, `Test` is the
/// 0.4 % analog used by `fmbench smoke` and the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Test,
}

impl Scale {
    pub fn tag(self) -> &'static str {
        match self {
            Scale::Bench => "bench",
            Scale::Test => "test",
        }
    }

    pub fn analog(self) -> AnalogScale {
        match self {
            Scale::Bench => AnalogScale::Bench,
            Scale::Test => AnalogScale::Test,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// On-disk format of a workload's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Binary CSR (`fm_graph::io::save_binary`).
    Fmg1,
    /// Text edge list, one `src dst` pair per line.
    Text,
}

impl Format {
    pub fn extension(self) -> &'static str {
        match self {
            Format::Fmg1 => "fmg1",
            Format::Text => "txt",
        }
    }
}

/// The walk a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    DeepWalk,
    Node2Vec { p: f64, q: f64 },
}

/// The calibration kernel a workload's samples are divided by: the one
/// that does its kind of work (see `calib`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calib {
    /// `calib::walk` over the workload's own CSR.
    Walk,
    /// `calib::parse_build` over a prefix of the workload's own text file.
    ParseBuild,
}

/// Pinned identity of an input file: graph shape plus a hash of the
/// file's bytes (see `inputs::file_fnv`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub vertices: u64,
    pub edges: u64,
    pub fnv: u64,
}

/// One benchmark workload.  Arrays indexed `[bench, test]`.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub graph: PaperGraph,
    pub format: Format,
    pub algo: Algo,
    /// Walkers per episode are `|V| / walker_div`.
    pub walker_div: usize,
    /// Steps per walker per episode.
    pub steps: usize,
    /// Episodes in the workload's corpus (`E` in `e2e_s`): as many of
    /// this workload's episodes as make the corpus the issue sized --
    /// ten episodes of its larger episode.
    pub corpus_episodes: usize,
    /// Out of core: the graph is written as FMDISK1 during set-up and
    /// walked by `flashmob::oocore` under a budget of a quarter of the
    /// file; otherwise the in-memory engine walks it.
    pub out_of_core: bool,
    /// `WalkOutput::paths()` is materialised inside the timed episode.
    pub materialise_paths: bool,
    pub calib: Calib,
    /// Size of one calibration sample, about 0.4 s on the reference host
    /// at bench scale: walker-steps of a walk, bytes of text of a
    /// parse-and-build.
    pub calib_size: [u64; 2],
    /// Seconds one calibration sample took on the reference host: the
    /// `C_ref` that turns raw times into reference-host times.
    pub calib_ref_s: [f64; 2],
    /// Share of an episode measured from outside that `RunStats`' own
    /// clock does not cover, beyond the tiling tolerance: `WalkOutput::new`
    /// clones the relabeling after that clock stops, which is 2.7 % of
    /// `txt_dw_yt`'s four-step episode and below the tolerance elsewhere.
    pub episode_untimed_share: f64,
    pub fingerprint: [Fingerprint; 2],
    /// Episode digest for `DEFAULT_SEED`.
    pub golden: [u64; 2],
}

impl Workload {
    pub fn input_name(&self, scale: Scale) -> String {
        format!(
            "{}-{}.{}",
            self.graph.tag(),
            scale.tag(),
            self.format.extension()
        )
    }

    pub fn walkers(&self, vertices: usize) -> usize {
        (vertices / self.walker_div).max(1)
    }

    pub fn calib_size(&self, scale: Scale) -> u64 {
        self.calib_size[scale.index()]
    }

    pub fn calib_ref_s(&self, scale: Scale) -> f64 {
        self.calib_ref_s[scale.index()]
    }

    pub fn fingerprint(&self, scale: Scale) -> Fingerprint {
        self.fingerprint[scale.index()]
    }

    pub fn golden(&self, scale: Scale) -> u64 {
        self.golden[scale.index()]
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const YH: [Fingerprint; 2] = [
    Fingerprint {
        vertices: 3_000_000,
        edges: 27_677_668,
        fnv: 0x3f1e_4ad8_3c1a_0e2f,
    },
    Fingerprint {
        vertices: 12_000,
        edges: 110_968,
        fnv: 0x7401_f76b_262d_42fa,
    },
];

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dw_yh",
        why: "Headline case: DeepWalk on the YH analog, working set past the LLC; time is sample (PS/DS/ring) plus shuffle, and the node2vec probe and out-of-core I/O do nothing.",
        graph: PaperGraph::YahooWeb,
        format: Format::Fmg1,
        algo: Algo::DeepWalk,
        walker_div: 2,
        steps: 12,
        corpus_episodes: 27,
        out_of_core: false,
        materialise_paths: false,
        calib: Calib::Walk,
        calib_size: [2_350_000, 400_000],
        calib_ref_s: [0.400, 0.0055],
        episode_untimed_share: 0.0,
        fingerprint: YH,
        golden: [0xd4f0_d46a_be74_4ebf, 0x5862_2282_7002_67c3],
    },
    Workload {
        name: "n2v_tw",
        why: "node2vec p=2 q=0.5 on the hub-heavy TW analog: rejection proposals, bloom and binary-search connectivity probes on long hub lists dominate; first-order sampling and shuffle are a minor share.",
        graph: PaperGraph::Twitter,
        format: Format::Fmg1,
        algo: Algo::Node2Vec { p: 2.0, q: 0.5 },
        walker_div: 32,
        steps: 7,
        corpus_episodes: 57,
        out_of_core: false,
        materialise_paths: false,
        calib: Calib::Walk,
        calib_size: [2_450_000, 400_000],
        calib_ref_s: [0.400, 0.0055],
        episode_untimed_share: 0.0,
        fingerprint: [
            Fingerprint { vertices: 1_150_000, edges: 40_144_768, fnv: 0x23c3_4ab5_97c4_7d86 },
            Fingerprint { vertices: 4_600, edges: 171_526, fnv: 0x5c71_fb02_8392_ddec },
        ],
        golden: [0xe935_dbec_e3ce_c709, 0xc77e_f8f9_5b92_d11c],
    },
    Workload {
        name: "ooc_n2v_yh",
        why: "dw_yh's graph, n2v_tw's algorithm, out of core: FMDISK1 written in set-up, bi-block node2vec at a quarter-file budget; block loads, pair scheduling and parking do the work (page-cache reads).",
        graph: PaperGraph::YahooWeb,
        format: Format::Fmg1,
        algo: Algo::Node2Vec { p: 2.0, q: 0.5 },
        walker_div: 16,
        steps: 4,
        corpus_episodes: 30,
        out_of_core: true,
        materialise_paths: false,
        calib: Calib::Walk,
        calib_size: [2_350_000, 400_000],
        calib_ref_s: [0.400, 0.0055],
        episode_untimed_share: 0.0,
        fingerprint: YH,
        golden: [0x840c_18b0_40d0_de17, 0x7c3d_9bd6_0a7c_0b78],
    },
    Workload {
        name: "txt_dw_yt",
        why: "Set-up dominated: text edge-list parse, relabel and plan of the YT analog, then a short DeepWalk with paths materialised; a change that speeds sampling by moving work into set-up loses here.",
        graph: PaperGraph::Youtube,
        format: Format::Text,
        algo: Algo::DeepWalk,
        walker_div: 2,
        steps: 4,
        corpus_episodes: 1,
        out_of_core: false,
        materialise_paths: true,
        calib: Calib::ParseBuild,
        calib_size: [200_000_000, 1_000_000],
        calib_ref_s: [0.350, 0.0008],
        episode_untimed_share: 0.03,
        fingerprint: [
            Fingerprint { vertices: 2_800_000, edges: 12_140_374, fnv: 0x1f8b_cc6c_b6a1_f3d2 },
            Fingerprint { vertices: 11_200, edges: 50_580, fnv: 0x67a7_82e9_df2e_70a0 },
        ],
        golden: [0xc7b8_132d_c1bc_9f1d, 0x6a54_3006_f97b_def9],
    },
];
