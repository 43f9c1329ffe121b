//! Graph IO: text edge lists and a compact binary format.
//!
//! The text parser accepts the `src dst [weight]` format used by SNAP and
//! the Laboratory for Web Algorithmics exports (the paper's data sources).
//! Its grammar is stated in bytes, not characters:
//!
//! * a *line* ends at `\n` (0x0A) or at the end of the input;
//! * *separators* are space, tab, CR, VT and FF (0x20, 0x09, 0x0D, 0x0B,
//!   0x0C), so CRLF files and a lone CR inside a line need no special case;
//! * a line that holds only separators, or whose first other byte is `#` or
//!   `%`, is skipped whatever bytes follow (a comment need not be UTF-8);
//! * any other line starts with two *ids* — an optional `+`, then one or
//!   more ASCII digits, value at most `u32::MAX` — each ended by a
//!   separator or the end of the line; what follows the second id is
//!   ignored.  Every other byte in those two columns is a
//!   [`GraphError::Parse`] carrying the 1-based line number.
//!
//! The binary format is a straightforward little-endian CSR dump so that the
//! analog graphs used by the benchmark harness can be generated once and
//! reloaded without parsing.

use std::io::{BufRead, ErrorKind, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::{GraphError, VertexId};

const MAGIC: &[u8; 4] = b"FMG1";

/// Options controlling text edge-list parsing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParseOptions {
    /// Mirror each edge (treat the input as undirected).
    pub symmetric: bool,
    /// Drop duplicate edges after symmetrization.
    pub dedup: bool,
    /// Drop self-loops.
    pub drop_self_loops: bool,
    /// Renumber vertices densely, removing isolated IDs.
    pub compact: bool,
}

/// Parses a text edge list from any reader.
///
/// Blank lines and lines starting with `#` or `%` are skipped.  A third
/// column, if present, is ignored (weights in text inputs are not
/// round-tripped; use the binary format for weighted graphs).  The module
/// documentation states the grammar.
///
/// The scan runs in the reader's own buffer, one `fill_buf` chunk at a
/// time; only the line that straddles two chunks is copied (into `carry`),
/// so no more than a chunk and a line of the input is held at once.
pub fn parse_edge_list<R: BufRead>(mut reader: R, opts: ParseOptions) -> Result<Csr, GraphError> {
    let mut builder = GraphBuilder::new();
    let mut carry: Vec<u8> = Vec::new();
    let mut line = 0usize;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if chunk.is_empty() {
            break;
        }
        let len = chunk.len();
        let mut rest = chunk;
        if !carry.is_empty() {
            // A line is open: it ends at this chunk's first newline.
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                carry.extend_from_slice(rest);
                reader.consume(len);
                continue;
            };
            carry.extend_from_slice(&rest[..nl]);
            scan_lines(&carry, &mut line, &mut builder)?;
            carry.clear();
            rest = &rest[nl + 1..];
        }
        let whole = rest
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |nl| nl + 1);
        scan_lines(&rest[..whole], &mut line, &mut builder)?;
        carry.extend_from_slice(&rest[whole..]);
        reader.consume(len);
    }
    scan_lines(&carry, &mut line, &mut builder)?;
    builder
        .symmetric(opts.symmetric)
        .dedup(opts.dedup)
        .drop_self_loops(opts.drop_self_loops)
        .compact(opts.compact)
        .build()
}

/// Space, tab, CR, VT or FF: what separates columns and pads lines.
#[inline]
fn is_separator(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0B | 0x0C)
}

/// Scans the lines of `bytes` — each ended by `\n` or by the end of the
/// slice — into `out`, counting them in `line`.
fn scan_lines(bytes: &[u8], line: &mut usize, out: &mut GraphBuilder) -> Result<(), GraphError> {
    let skip_separators = |mut at: usize| {
        while bytes.get(at).copied().is_some_and(is_separator) {
            at += 1;
        }
        at
    };
    let mut at = 0;
    while at < bytes.len() {
        *line += 1;
        at = skip_separators(at);
        match bytes.get(at) {
            None => break,
            Some(b'\n') => {
                at += 1;
                continue;
            }
            Some(b'#' | b'%') => {}
            Some(_) => {
                let (s, end) = scan_id(bytes, at, *line)?;
                let (t, end) = scan_id(bytes, skip_separators(end), *line)?;
                out.add_edge(s, t);
                at = end;
            }
        }
        at = bytes[at..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |nl| at + nl + 1);
    }
    Ok(())
}

/// Whether `b` ends an id: a separator, a newline or the end of the slice.
#[inline]
fn ends_id(b: Option<&u8>) -> bool {
    b.is_none_or(|&b| b == b'\n' || is_separator(b))
}

/// Scans the id that starts at `bytes[at]`; returns it with the index of
/// the separator, newline or end of slice that ends it.
#[inline]
fn scan_id(bytes: &[u8], at: usize, line: usize) -> Result<(VertexId, usize), GraphError> {
    if let Some(found) = scan_short_id(bytes, at) {
        return Ok(found);
    }
    let mut end = at + usize::from(bytes.get(at) == Some(&b'+'));
    let digits = end;
    let mut value = 0u64;
    while let Some(digit) = bytes
        .get(end)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
    {
        value = value * 10 + u64::from(digit);
        if value > u64::from(VertexId::MAX) {
            break;
        }
        end += 1;
    }
    if end > digits && ends_id(bytes.get(end)) {
        // `value` passed the range check after every digit.
        return Ok((value as VertexId, end));
    }
    Err(bad_id(bytes, at, line))
}

/// [`scan_id`] for the common id — one to eight digits with eight bytes
/// left in the slice — without a branch per digit, whose outcome the
/// varying id lengths of a real edge list make unpredictable.  `None`
/// hands everything else, errors included, to the digit loop.
#[inline]
fn scan_short_id(bytes: &[u8], at: usize) -> Option<(VertexId, usize)> {
    const LANES: u64 = 0x0101_0101_0101_0101;
    let word = *bytes.get(at..)?.first_chunk::<8>()?;
    // First byte of the id in the lowest lane; digits become 0..=9.
    let lanes = u64::from_le_bytes(word) ^ (LANES * u64::from(b'0'));
    // The top bit of a lane is set where its byte is not a digit.
    let other = (((lanes & (LANES * 0x7F)) + LANES * 0x76) | lanes) & (LANES * 0x80);
    let len = (other.trailing_zeros() / 8) as usize;
    if len == 0 || !ends_id(bytes.get(at + len)) {
        return None;
    }
    // Shift the digits to the top lanes (zeros lead), then add
    // neighbouring lanes pairwise: 2, 4 and 8 digits per lane.
    let lanes = lanes << (64 - 8 * len);
    let lanes = (lanes.wrapping_mul(10 * (1 << 8) + 1) >> 8) & 0x00FF_00FF_00FF_00FF;
    let lanes = (lanes.wrapping_mul(100 * (1 << 16) + 1) >> 16) & 0x0000_FFFF_0000_FFFF;
    let value = lanes.wrapping_mul(10_000 * (1 << 32) + 1) >> 32;
    Some((value as VertexId, at + len))
}

/// The error for the column at `bytes[at]`, which is not an id.
#[cold]
fn bad_id(bytes: &[u8], at: usize, line: usize) -> GraphError {
    let token = bytes[at..]
        .split(|&b| b == b'\n' || is_separator(b))
        .next()
        .unwrap_or_default();
    let message = if token.is_empty() {
        "expected two vertex IDs".into()
    } else {
        format!(
            "bad vertex id {:?}: want digits, at most {}",
            String::from_utf8_lossy(token),
            VertexId::MAX
        )
    };
    GraphError::Parse { line, message }
}

/// Attaches `path` to a bare IO error; other errors pass through.
fn at_path(path: &Path) -> impl Fn(GraphError) -> GraphError + '_ {
    move |e| match e {
        GraphError::Io(source) => GraphError::io_at(path, None, source),
        other => other,
    }
}

/// Reads a text edge list from a file.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P, opts: ParseOptions) -> Result<Csr, GraphError> {
    let path = path.as_ref();
    let file =
        std::fs::File::open(path).map_err(|e| GraphError::io_at(path, None, e))?;
    parse_edge_list(std::io::BufReader::with_capacity(CHUNK_BYTES, file), opts)
        .map_err(at_path(path))
}

/// Writes a graph as a text edge list (one `src dst` pair per line).
pub fn write_edge_list<W: Write>(graph: &Csr, mut writer: W) -> Result<(), GraphError> {
    for (s, t) in graph.edges() {
        writeln!(writer, "{s} {t}")?;
    }
    Ok(())
}

/// Encodes a graph into the binary CSR format.
pub fn encode_binary(graph: &Csr) -> Vec<u8> {
    let weighted = graph.is_weighted();
    let mut buf = Vec::with_capacity(
        4 + 1 + 16 + (graph.vertex_count() + 1) * 8 + graph.edge_count() * 4,
    );
    buf.extend_from_slice(MAGIC);
    buf.push(weighted as u8);
    buf.extend_from_slice(&(graph.vertex_count() as u64).to_le_bytes());
    buf.extend_from_slice(&(graph.edge_count() as u64).to_le_bytes());
    for &o in graph.offsets() {
        buf.extend_from_slice(&(o as u64).to_le_bytes());
    }
    for &t in graph.targets() {
        buf.extend_from_slice(&t.to_le_bytes());
    }
    if weighted {
        for v in 0..graph.vertex_count() {
            for &w in graph.edge_weights(v as VertexId).expect("weighted") {
                buf.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
    buf
}

/// Bytes of the binary format before the offsets array.
const HEADER_BYTES: u64 = 21;

/// Bytes per read: the text reader's buffer and the binary decoder's
/// staging buffer.
const CHUNK_BYTES: usize = 1 << 16;

/// Decodes a graph from the binary CSR format.
pub fn decode_binary(data: &[u8]) -> Result<Csr, GraphError> {
    decode(data, data.len() as u64)
}

/// The one binary decoder: reads a graph from `input`, which holds `len`
/// bytes.  The header's counts are checked against `len` before anything
/// is allocated for them, so no allocation exceeds the input's length.
fn decode<R: Read>(mut input: R, len: u64) -> Result<Csr, GraphError> {
    if len < HEADER_BYTES {
        return Err(GraphError::Format("truncated header".into()));
    }
    if &read_array::<_, 4>(&mut input)? != MAGIC {
        return Err(GraphError::Format("bad magic".into()));
    }
    let weighted = match read_array(&mut input)? {
        [0] => false,
        [1] => true,
        [b] => return Err(GraphError::Format(format!("bad weight flag {b}"))),
    };
    let vcount64 = u64::from_le_bytes(read_array(&mut input)?);
    let ecount64 = u64::from_le_bytes(read_array(&mut input)?);
    // Checked arithmetic: a hostile header can carry counts whose byte
    // size overflows, which with wrapping math would pass the length
    // check and then over-allocate below.
    let need = vcount64
        .checked_add(1)
        .and_then(|v| v.checked_mul(8))
        .and_then(|v| {
            let per_edge = if weighted { 8u64 } else { 4u64 };
            ecount64.checked_mul(per_edge).and_then(|e| v.checked_add(e))
        })
        .filter(|&n| n <= usize::MAX as u64)
        .ok_or_else(|| {
            GraphError::Format(format!(
                "header counts overflow: {vcount64} vertices, {ecount64} edges"
            ))
        })?;
    let have = len - HEADER_BYTES;
    if have < need {
        return Err(GraphError::Format(format!(
            "need {need} payload bytes, have {have}"
        )));
    }
    // Both counts are below `need`, which fits `usize`.
    let (vcount, ecount) = (vcount64 as usize, ecount64 as usize);
    let mut staging = vec![0u8; CHUNK_BYTES];
    let offsets = read_words(&mut input, &mut staging, vcount + 1, |b| {
        u64::from_le_bytes(b) as usize
    })?;
    let targets = read_words(&mut input, &mut staging, ecount, u32::from_le_bytes)?;
    let weights = if weighted {
        Some(read_words(
            &mut input,
            &mut staging,
            ecount,
            f32::from_le_bytes,
        )?)
    } else {
        None
    };
    Csr::from_parts(offsets, targets, weights)
}

/// Reads the next `N` bytes of `input`.
fn read_array<R: Read, const N: usize>(input: &mut R) -> std::io::Result<[u8; N]> {
    let mut bytes = [0u8; N];
    input.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// Reads `count` little-endian `N`-byte words through `staging`.
fn read_words<R: Read, T, const N: usize>(
    input: &mut R,
    staging: &mut [u8],
    count: usize,
    word: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, GraphError> {
    let mut words = Vec::with_capacity(count);
    while words.len() < count {
        let take = (count - words.len()).min(staging.len() / N);
        let bytes = &mut staging[..take * N];
        input.read_exact(bytes)?;
        words.extend(bytes.as_chunks().0.iter().map(|&w| word(w)));
    }
    Ok(words)
}

/// Saves a graph to a binary file.
pub fn save_binary<P: AsRef<Path>>(graph: &Csr, path: P) -> Result<(), GraphError> {
    let path = path.as_ref();
    let bytes = encode_binary(graph);
    let mut f =
        std::fs::File::create(path).map_err(|e| GraphError::io_at(path, None, e))?;
    f.write_all(&bytes)
        .map_err(|e| GraphError::io_at(path, None, e))?;
    Ok(())
}

/// Loads a graph from a binary file.
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<Csr, GraphError> {
    let path = path.as_ref();
    let file =
        std::fs::File::open(path).map_err(|e| GraphError::io_at(path, None, e))?;
    let len = file
        .metadata()
        .map_err(|e| GraphError::io_at(path, None, e))?
        .len();
    decode(file, len).map_err(at_path(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    /// The line-based parser this module had before the byte scanner,
    /// kept as the model the scanner is held equal to.
    fn model_parse<R: BufRead>(reader: R, opts: ParseOptions) -> Result<Csr, GraphError> {
        let mut builder = GraphBuilder::new();
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            let s = model_vid(parts.next(), idx + 1)?;
            let t = model_vid(parts.next(), idx + 1)?;
            builder.add_edge(s, t);
        }
        builder
            .symmetric(opts.symmetric)
            .dedup(opts.dedup)
            .drop_self_loops(opts.drop_self_loops)
            .compact(opts.compact)
            .build()
    }

    fn model_vid(tok: Option<&str>, line: usize) -> Result<VertexId, GraphError> {
        let tok = tok.ok_or_else(|| GraphError::Parse {
            line,
            message: "expected two vertex IDs".into(),
        })?;
        tok.parse::<VertexId>().map_err(|e| GraphError::Parse {
            line,
            message: format!("bad vertex id {tok:?}: {e}"),
        })
    }

    /// What two decoders must agree on: the graph, or the error — for a
    /// parse error its line, not its wording.
    fn verdict(result: Result<Csr, GraphError>) -> Result<Csr, String> {
        result.map_err(|e| match e {
            GraphError::Parse { line, .. } => format!("parse error at line {line}"),
            other => other.to_string(),
        })
    }

    /// The LCG the seeded inputs of this module are drawn from.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    /// One byte per `read`, and an `Interrupted` before each.
    struct Stutter<'a> {
        data: &'a [u8],
        interrupt: bool,
    }

    impl Read for Stutter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = self.data.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// A seeded edge list over the whole grammar: mostly edges among a
    /// few small ids (so the clean-up options have work), in every
    /// spelling the parser accepts, and now and then a line it rejects.
    fn random_edge_list(next: &mut impl FnMut() -> u64) -> Vec<u8> {
        const SEPARATORS: [&str; 8] = [" ", " ", "\t", "  ", " \t ", "\r", "\x0b", "\x0c"];
        const SKIPPED: [&str; 9] = ["", "  ", "\t", "# c", "%c", "  # 1 2", "#", "#1 2", "\x0c"];
        const REJECTED: [&str; 16] = [
            "4294967296 1",
            "1 4294967296",
            "18446744073709551616 1",
            "1 99999999999999999999",
            "1 2x",
            "1x 2",
            "x",
            "12",
            "12 ",
            "++7 1",
            "+ 1",
            "-1 2",
            "1 -2",
            "1 #",
            "1\x002 3",
            "0x1 2",
        ];
        fn id(pick: &mut impl FnMut(usize) -> usize) -> String {
            let value = if pick(4) == 0 { pick(2000) } else { pick(12) };
            match pick(12) {
                0 => format!("+{value}"),
                1 => format!("{value:08}"),
                2 => format!("{value:010}"),
                3 => format!("{value:021}"),
                _ => value.to_string(),
            }
        }
        let mut pick = |n: usize| (next() % n as u64) as usize;
        let mut text = String::new();
        let lines = pick(40);
        for k in 0..lines {
            match pick(25) {
                0 => text.push_str(REJECTED[pick(REJECTED.len())]),
                1..=4 => text.push_str(SKIPPED[pick(SKIPPED.len())]),
                shape => {
                    let (s, t) = (id(&mut pick), id(&mut pick));
                    let sep = SEPARATORS[pick(SEPARATORS.len())];
                    text.push_str(&match shape {
                        5 => format!(" {s}{sep}{t}"),
                        6 => format!("{s}{sep}{t}  "),
                        7 => format!("{s}{sep}{t} 0.5"),
                        8 => format!("{s}{sep}{t}\tx y z"),
                        9 => format!("{s}{sep}{t} # c"),
                        10 => format!("{s}{sep}{t}\r3 4"),
                        _ => format!("{s}{sep}{t}"),
                    });
                }
            }
            if k + 1 < lines || pick(2) == 0 {
                text.push_str(if pick(3) == 0 { "\r\n" } else { "\n" });
            }
        }
        text.into_bytes()
    }

    #[test]
    fn scanner_equals_line_model_on_every_chunking() {
        let mut next = lcg(0x5eed_0017);
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..320u32 {
            let text = random_edge_list(&mut next);
            // Every combination of the four options comes round.
            let opts = ParseOptions {
                symmetric: case & 1 != 0,
                dedup: case & 2 != 0,
                drop_self_loops: case & 4 != 0,
                compact: case & 8 != 0,
            };
            let want = verdict(model_parse(&text[..], opts));
            match want {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
            let shown = String::from_utf8_lossy(&text);
            assert_eq!(verdict(parse_edge_list(&text[..], opts)), want, "{shown:?}");
            // Small buffers put every token and newline on a boundary.
            for capacity in [1, 2, 3, 7, 64, 8192] {
                let reader = std::io::BufReader::with_capacity(capacity, &text[..]);
                let got = verdict(parse_edge_list(reader, opts));
                assert_eq!(got, want, "capacity {capacity}: {shown:?}");
            }
            let stutter = Stutter {
                data: &text,
                interrupt: false,
            };
            let reader = std::io::BufReader::with_capacity(64, stutter);
            assert_eq!(
                verdict(parse_edge_list(reader, opts)),
                want,
                "stutter: {shown:?}"
            );
        }
        assert!(
            accepted > 50 && rejected > 50,
            "{accepted} accepted, {rejected} rejected"
        );
    }

    #[test]
    fn ids_of_every_length_scan_like_str_parse() {
        let mut next = lcg(17);
        for digits in 1..=21usize {
            for case in 0..300 {
                // Half the long ids lead with zeros, so some are in range.
                let zeros = if case % 2 == 0 {
                    digits.saturating_sub(1 + case % 11)
                } else {
                    0
                };
                let mut token = String::from(if case % 7 == 0 { "+" } else { "" });
                for k in 0..digits {
                    let digit = if k < zeros { 0 } else { (next() % 10) as u8 };
                    token.push(char::from(b'0' + digit));
                }
                let want = token.parse::<VertexId>().ok();
                // With and without the eight bytes the word read needs.
                for follow in ["", " ", "\n", "\t1234567", "\r\n12345678"] {
                    let text = format!("{token}{follow}");
                    let got = scan_id(text.as_bytes(), 0, 1).ok();
                    assert_eq!(got, want.map(|v| (v, token.len())), "{text:?}");
                }
                for follow in ["x", "x        ", "+", "\0       ", "\u{a0}      "] {
                    let text = format!("{token}{follow}");
                    assert!(scan_id(text.as_bytes(), 0, 1).is_err(), "{text:?}");
                }
            }
        }
    }

    #[test]
    fn largest_id_is_an_id_and_the_next_is_not() {
        // Accepted as an id; it is the vertex count it implies that is not.
        let text = "4294967295 0\n".as_bytes();
        let got = parse_edge_list(text, ParseOptions::default()).unwrap_err();
        assert!(
            matches!(got, GraphError::TooManyVertices(4294967296)),
            "{got}"
        );
        assert_eq!(
            verdict(Err(got)),
            verdict(model_parse(text, ParseOptions::default()))
        );
        for text in ["0 1\n4294967296 0\n", "0 1\n0 04294967296"] {
            let got = parse_edge_list(text.as_bytes(), ParseOptions::default());
            assert!(matches!(got, Err(GraphError::Parse { line: 2, .. })));
            let want = model_parse(text.as_bytes(), ParseOptions::default());
            assert_eq!(verdict(got), verdict(want));
        }
    }

    #[test]
    fn bytes_that_are_not_utf8_are_comment_text_or_a_parse_error() {
        // In a comment they are skipped like any other byte ...
        let text = b"0 1\n# caf\xe9 \xff\xfe\n1 0\n";
        let g = parse_edge_list(&text[..], ParseOptions::default()).unwrap();
        assert_eq!(g.edge_count(), 2);
        // ... after the two ids likewise ...
        let text = b"0 1 \xff\n1 0\n";
        let g = parse_edge_list(&text[..], ParseOptions::default()).unwrap();
        assert_eq!(g.edge_count(), 2);
        // ... and in an id they are a malformed line, never an IO error.
        for text in [
            &b"0 1\n1 \xff0\n"[..],
            b"0 1\n\xc3\xa9 1\n",
            b"0 1\n1\xc2\xa00\n",
        ] {
            let err = parse_edge_list(text, ParseOptions::default()).unwrap_err();
            assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
            assert!(err.io_source().is_none());
        }
    }

    #[test]
    fn parse_basic_edge_list() {
        let text = "# comment\n0 1\n1 2\n\n% another comment\n2 0\n";
        let g = parse_edge_list(text.as_bytes(), ParseOptions::default()).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn parse_with_options() {
        let text = "5 7\n7 5\n5 5\n";
        let opts = ParseOptions {
            symmetric: true,
            dedup: true,
            drop_self_loops: true,
            compact: true,
        };
        let g = parse_edge_list(text.as_bytes(), opts).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn parse_third_column_ignored() {
        let text = "0 1 0.5\n1 0 2.0\n";
        let g = parse_edge_list(text.as_bytes(), ParseOptions::default()).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(!g.is_weighted());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "0 1\nnot numbers\n";
        let err = parse_edge_list(text.as_bytes(), ParseOptions::default()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn parse_missing_column() {
        let err = parse_edge_list("42\n".as_bytes(), ParseOptions::default()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn text_roundtrip() {
        let g = synth::power_law(100, 2.0, 1, 20, 5);
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = parse_edge_list(&out[..], ParseOptions::default()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_roundtrip_unweighted() {
        let g = synth::rmat(6, 4, 0.57, 0.19, 0.19, 2);
        let bytes = encode_binary(&g);
        let g2 = decode_binary(&bytes).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_roundtrip_weighted() {
        let g = Csr::from_parts(vec![0, 2, 3], vec![1, 1, 0], Some(vec![1.0, 2.5, -3.0])).unwrap();
        let bytes = encode_binary(&g);
        let g2 = decode_binary(&bytes).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = synth::cycle(4);
        let bytes = encode_binary(&g);
        assert!(decode_binary(&bytes[..10]).is_err());
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(decode_binary(&bad).is_err());
        bad = bytes.to_vec();
        bad[4] = 7; // bad weight flag
        assert!(decode_binary(&bad).is_err());
    }

    #[test]
    fn binary_rejects_oversized_counts_without_allocating() {
        // A header claiming u64::MAX vertices must fail cleanly: with
        // wrapping arithmetic the byte-size computation overflows, the
        // length check passes, and decoding panics or over-allocates.
        let g = synth::cycle(4);
        let mut bytes = encode_binary(&g);
        bytes[5..13].copy_from_slice(&u64::MAX.to_le_bytes()); // vcount
        assert!(matches!(decode_binary(&bytes), Err(GraphError::Format(_))));
        let mut bytes = encode_binary(&g);
        bytes[13..21].copy_from_slice(&(u64::MAX / 2).to_le_bytes()); // ecount
        assert!(matches!(decode_binary(&bytes), Err(GraphError::Format(_))));
    }

    #[test]
    fn binary_rejects_every_truncation() {
        let g = synth::power_law(40, 2.0, 1, 8, 3);
        let bytes = encode_binary(&g);
        for len in 0..bytes.len() {
            assert!(
                decode_binary(&bytes[..len]).is_err(),
                "truncation to {len} bytes must not decode"
            );
        }
    }

    /// ~50 seeded mutations of an encoded graph's header.
    fn mutated_headers(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut next = lcg(0x9e37_79b9_7f4a_7c15);
        (0..50)
            .map(|_| {
                let mut m = bytes.to_vec();
                let header_len = 21.min(m.len());
                match next() % 3 {
                    0 => {
                        // Flip one random header byte.
                        let i = (next() as usize) % header_len;
                        m[i] ^= 1 << (next() % 8);
                    }
                    1 => {
                        // Overwrite a count field with a random u64.
                        let field = if next().is_multiple_of(2) { 5 } else { 13 };
                        let v = next() | (next() << 31);
                        m[field..field + 8].copy_from_slice(&v.to_le_bytes());
                    }
                    _ => {
                        // Truncate somewhere inside the header or payload.
                        let len = (next() as usize) % m.len();
                        m.truncate(len);
                    }
                }
                m
            })
            .collect()
    }

    #[test]
    fn fuzz_corrupt_headers_never_panic() {
        // Every outcome must be a clean Err or a structurally valid Csr —
        // never a panic or a wild allocation.
        let g = synth::power_law(60, 2.0, 1, 12, 11);
        for (case, m) in mutated_headers(&encode_binary(&g)).iter().enumerate() {
            // Ok is acceptable only if the mutation was semantically
            // neutral and the graph still validates.
            if let Ok(decoded) = decode_binary(m) {
                assert!(
                    decoded.vertex_count() <= g.vertex_count() + 1,
                    "case {case}"
                );
            }
        }
    }

    /// A scratch file of this test run, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join("fm_graph_io_test");
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir.join(format!("{name}-{}", std::process::id())))
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    fn weighted(g: &Csr) -> Csr {
        let weights = (0..g.edge_count()).map(|e| e as f32 * 0.25 - 3.0).collect();
        Csr::from_parts(g.offsets().to_vec(), g.targets().to_vec(), Some(weights)).unwrap()
    }

    #[test]
    fn file_and_slice_decoders_give_the_same_verdict() {
        let scratch = Scratch::new("verdict.bin");
        let agree = |bytes: &[u8], what: &str| {
            std::fs::write(&scratch.0, bytes).unwrap();
            let (file, slice) = (load_binary(&scratch.0), decode_binary(bytes));
            assert_eq!(verdict(file), verdict(slice), "{what}");
        };
        let g = weighted(&synth::power_law(40, 2.0, 1, 8, 3));
        let bytes = encode_binary(&g);
        for len in 0..=bytes.len() {
            agree(&bytes[..len], &format!("truncation to {len} bytes"));
        }
        let bytes = encode_binary(&synth::power_law(60, 2.0, 1, 12, 11));
        for (case, m) in mutated_headers(&bytes).iter().enumerate() {
            agree(m, &format!("mutation {case}"));
        }
    }

    #[test]
    fn counts_are_checked_against_the_input_before_allocating() {
        // 100 bytes cannot hold what these headers claim.  Were the claim
        // believed, reserving for it would abort the process (capacity
        // overflow or a refused allocation) before any test could fail.
        let scratch = Scratch::new("claim.bin");
        for (vcount, ecount) in [
            (4u64, u64::MAX / 2),
            (4, 1 << 40),
            (1 << 40, 4),
            (u64::MAX, 0),
        ] {
            let mut bytes = encode_binary(&synth::cycle(4));
            bytes.resize(100, 0);
            bytes[5..13].copy_from_slice(&vcount.to_le_bytes());
            bytes[13..21].copy_from_slice(&ecount.to_le_bytes());
            std::fs::write(&scratch.0, &bytes).unwrap();
            for result in [decode_binary(&bytes), load_binary(&scratch.0)] {
                assert!(
                    matches!(result, Err(GraphError::Format(_))),
                    "{vcount} {ecount}"
                );
            }
        }
    }

    #[test]
    fn weighted_roundtrip_spans_many_staging_chunks() {
        let g = weighted(&synth::power_law(20_000, 2.0, 2, 20, 3));
        assert!(g.vertex_count() * 8 > 2 * CHUNK_BYTES && g.edge_count() * 4 > 2 * CHUNK_BYTES);
        let scratch = Scratch::new("weighted.bin");
        save_binary(&g, &scratch.0).unwrap();
        assert_eq!(load_binary(&scratch.0).unwrap(), g);
        assert_eq!(decode_binary(&encode_binary(&g)).unwrap(), g);
    }

    #[test]
    fn io_errors_carry_paths() {
        let missing = std::path::Path::new("/nonexistent/fm-graph-io-test/g.bin");
        let err = load_binary(missing).unwrap_err();
        match &err {
            GraphError::IoAt { path, .. } => assert_eq!(path, missing),
            other => panic!("expected IoAt, got {other}"),
        }
        assert!(err.to_string().contains("/nonexistent/fm-graph-io-test/g.bin"));
        assert!(err.io_source().is_some());
        // A directory opens but does not read: the error of a read that
        // fails after the open names the file too.
        let dir = std::env::temp_dir();
        for err in [
            read_edge_list_file(&dir, ParseOptions::default()).unwrap_err(),
            load_binary(&dir).unwrap_err(),
        ] {
            assert!(
                matches!(&err, GraphError::IoAt { path, .. } if *path == dir),
                "{err}"
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let g = synth::power_law(50, 2.0, 1, 10, 8);
        let dir = std::env::temp_dir().join("fm_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        save_binary(&g, &path).unwrap();
        let g2 = load_binary(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(path).ok();
    }
}
