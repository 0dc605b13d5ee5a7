//! Append-only bench history and the regression sentinel.
//!
//! Every `BENCH_*.json` writer funnels through [`write_bench_json`]: the
//! document is written to its usual path *and* appended, wrapped in a
//! provenance envelope (host fingerprint, git sha and whether the tree
//! was dirty, unix time), to the
//! history directory — `$NONCTG_BENCH_HISTORY`, defaulting to
//! `BENCH_history/`. `nonctg-regress` then compares the newest entry's
//! metrics against the trailing median of the older ones with a
//! noise-aware tolerance, so CI can fail on real slowdowns without
//! flaking on scheduler jitter.
//!
//! The crate stays dependency-free, so this module carries a small
//! recursive-descent JSON reader ([`parse_json`]) for its own envelopes
//! and for tests that need to round-trip exported documents.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A parsed JSON value (objects keep key order).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean value, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset; numbers are read
/// as `f64` (all the harness ever writes).
pub fn parse_json(src: &str) -> Result<Value, String> {
    let mut p = JsonParser { bytes: src.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the full UTF-8 scalar, not just one byte.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| format!("bad utf-8 at byte {}", self.pos))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Schema version stamped into every history envelope.
pub const HISTORY_SCHEMA_VERSION: u32 = 1;

/// History directory: `$NONCTG_BENCH_HISTORY` when set, else
/// `BENCH_history/` in the working directory.
pub fn history_dir() -> PathBuf {
    std::env::var_os("NONCTG_BENCH_HISTORY")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_history"))
}

fn hostname() -> String {
    fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown".into())
}

/// Stdout of a successful `git` command, or `None`.
fn git(args: &[&str]) -> Option<Vec<u8>> {
    std::process::Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| o.stdout)
}

fn git_sha() -> String {
    git(&["rev-parse", "--short", "HEAD"])
        .and_then(|o| String::from_utf8(o).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over byte chunks.
fn fnv1a<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in chunks.into_iter().flatten() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Whether the checkout differs from `HEAD` (tracked changes or
/// untracked files), and a hash of how: FNV-1a over
/// `git status --porcelain` and `git diff HEAD`, so two runs from the
/// same edits share a hash. `None` outside a git checkout.
fn git_tree_state() -> Option<(bool, String)> {
    let status = git(&["status", "--porcelain"])?;
    let diff = git(&["diff", "HEAD", "--binary"])?;
    Some((!status.is_empty(), format!("{:016x}", fnv1a([&status[..], &diff[..]]))))
}

/// Write a bench document to `out_path` **and** append a wrapped copy
/// to the history directory. The envelope records when, where, and at
/// which commit the numbers were taken; the document itself is embedded
/// verbatim under `"payload"`. Returns the history entry's path.
///
/// History file names sort by run order (`<bench>-<index>-<unixtime>`),
/// so readers can rely on lexicographic order.
pub fn write_bench_json(bench: &str, out_path: &Path, body: &str) -> std::io::Result<PathBuf> {
    if let Some(dir) = out_path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    fs::write(out_path, body)?;

    let dir = history_dir();
    fs::create_dir_all(&dir)?;
    let index = fs::read_dir(&dir)?
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with(&format!("{bench}-"))
        })
        .count();
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut doc = String::new();
    let _ = writeln!(doc, "{{");
    let _ = writeln!(doc, "  \"schema_version\": {HISTORY_SCHEMA_VERSION},");
    let _ = writeln!(doc, "  \"bench\": \"{bench}\",");
    let _ = writeln!(doc, "  \"unix_time\": {unix},");
    let _ = writeln!(
        doc,
        "  \"host\": {{\"name\": \"{}\", \"threads\": {threads}, \"arch\": \"{}\", \"os\": \"{}\"}},",
        hostname(),
        std::env::consts::ARCH,
        std::env::consts::OS
    );
    let _ = writeln!(doc, "  \"git_sha\": \"{}\",", git_sha());
    match git_tree_state() {
        Some((dirty, hash)) => {
            let _ = writeln!(doc, "  \"dirty\": {dirty},");
            let _ = writeln!(doc, "  \"diff_hash\": \"{hash}\",");
        }
        None => {
            let _ = writeln!(doc, "  \"dirty\": null,");
            let _ = writeln!(doc, "  \"diff_hash\": null,");
        }
    }
    let _ = writeln!(doc, "  \"payload\": {}", body.trim_end());
    let _ = writeln!(doc, "}}");
    let entry = dir.join(format!("{bench}-{index:05}-{unix}.json"));
    fs::write(&entry, doc)?;
    Ok(entry)
}

/// One history entry, parsed.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// Bench name from the envelope.
    pub bench: String,
    /// Capture time (unix seconds).
    pub unix_time: f64,
    /// Short commit id (or `"unknown"` outside a checkout).
    pub git_sha: String,
    /// Whether the tree had uncommitted changes; `None` outside a
    /// checkout and in entries written before the envelope recorded it.
    pub dirty: Option<bool>,
    /// Hash of those changes (see `dirty`), when recorded.
    pub diff_hash: Option<String>,
    /// The wrapped bench document.
    pub payload: Value,
    /// Entry file path.
    pub path: PathBuf,
}

/// Load every parseable history entry for `bench` from `dir`, oldest
/// first (file-name order, which encodes run order).
pub fn load_history(dir: &Path, bench: &str) -> Vec<HistoryEntry> {
    let mut names: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(rd) => rd
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .map(|n| {
                        let n = n.to_string_lossy();
                        n.starts_with(&format!("{bench}-")) && n.ends_with(".json")
                    })
                    .unwrap_or(false)
            })
            .collect(),
        Err(_) => return Vec::new(),
    };
    names.sort();
    names
        .into_iter()
        .filter_map(|path| {
            let doc = parse_json(&fs::read_to_string(&path).ok()?).ok()?;
            Some(HistoryEntry {
                bench: doc.get("bench")?.as_str()?.to_string(),
                unix_time: doc.get("unix_time")?.as_f64()?,
                git_sha: doc.get("git_sha")?.as_str()?.to_string(),
                dirty: doc.get("dirty").and_then(Value::as_bool),
                diff_hash: doc.get("diff_hash").and_then(Value::as_str).map(str::to_string),
                payload: doc.get("payload")?.clone(),
                path,
            })
        })
        .collect()
}

/// Extract the lower-is-better scalar metrics a bench payload exposes.
///
/// `pack` payloads give one `pack/<shape>/<payload-label>` metric per
/// result row (`seconds_per_pack`); other payloads give none.
pub fn metrics_of(payload: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(entries) = payload.get("results").and_then(Value::as_array) {
        for e in entries {
            let (Some(shape), Some(label), Some(secs)) = (
                e.get("shape").and_then(Value::as_str),
                e.get("payload").and_then(Value::as_str),
                e.get("seconds_per_pack").and_then(Value::as_f64),
            ) else {
                continue;
            };
            out.push((format!("pack/{shape}/{label}"), secs));
        }
    }
    out
}

/// One detected slowdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Metric name (see [`metrics_of`]).
    pub metric: String,
    /// Newest entry's value.
    pub newest: f64,
    /// Median of the trailing baseline entries.
    pub median: f64,
    /// Threshold the newest value exceeded.
    pub allowed: f64,
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Compare the last metric set against the trailing ones.
///
/// For each metric in the newest set with at least two baseline
/// observations, the allowed ceiling is
/// `median + max(tol_frac * median, 3 * MAD)` — the MAD term keeps a
/// noisy metric from flagging on its own jitter, the fractional term
/// keeps a perfectly quiet metric from flagging on femtosecond drift.
/// Fewer than two baseline entries (cold history) detects nothing.
pub fn detect_regressions(runs: &[Vec<(String, f64)>], tol_frac: f64) -> Vec<Regression> {
    let Some((newest, baseline)) = runs.split_last() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (metric, value) in newest {
        let mut base: Vec<f64> = baseline
            .iter()
            .filter_map(|run| {
                run.iter().find(|(m, _)| m == metric).map(|&(_, v)| v)
            })
            .collect();
        if base.len() < 2 {
            continue;
        }
        base.sort_by(f64::total_cmp);
        let m = median(&base);
        let mut devs: Vec<f64> = base.iter().map(|v| (v - m).abs()).collect();
        devs.sort_by(f64::total_cmp);
        let mad = median(&devs);
        let allowed = m + (tol_frac * m).max(3.0 * mad);
        if *value > allowed {
            out.push(Regression { metric: metric.clone(), newest: *value, median: m, allowed });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse_json(
            r#"{"a": [1, 2.5, -3e-2], "b": {"c": "x\ny", "d": true, "e": null}, "f": "π"}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-0.03));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Value::Null));
        assert_eq!(v.get("f").unwrap().as_str(), Some("π"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{\"a\": 1} x").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn parses_unicode_escape() {
        let v = parse_json(r#""aéb""#).unwrap();
        assert_eq!(v.as_str(), Some("aéb"));
    }

    fn run(vals: &[(&str, f64)]) -> Vec<(String, f64)> {
        vals.iter().map(|&(m, v)| (m.to_string(), v)).collect()
    }

    #[test]
    fn detects_injected_slowdown() {
        let runs = vec![
            run(&[("pack/vector/1024", 1.00)]),
            run(&[("pack/vector/1024", 1.02)]),
            run(&[("pack/vector/1024", 0.99)]),
            run(&[("pack/vector/1024", 1.50)]),
        ];
        let regs = detect_regressions(&runs, 0.20);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "pack/vector/1024");
        assert!((regs[0].median - 1.00).abs() < 1e-12);
    }

    #[test]
    fn quiet_history_passes() {
        let runs = vec![
            run(&[("m", 1.00)]),
            run(&[("m", 1.01)]),
            run(&[("m", 0.99)]),
            run(&[("m", 1.05)]),
        ];
        assert!(detect_regressions(&runs, 0.20).is_empty());
    }

    #[test]
    fn noisy_metric_widens_tolerance() {
        // Baseline noise of +-50%: a 1.6 reading is within 3*MAD even
        // though it exceeds median * 1.2.
        let runs = vec![
            run(&[("m", 0.50)]),
            run(&[("m", 1.50)]),
            run(&[("m", 1.00)]),
            run(&[("m", 1.60)]),
        ];
        assert!(detect_regressions(&runs, 0.20).is_empty());
    }

    #[test]
    fn cold_history_detects_nothing() {
        let runs = vec![run(&[("m", 1.0)]), run(&[("m", 9.9)])];
        assert!(detect_regressions(&runs, 0.20).is_empty());
        assert!(detect_regressions(&[], 0.20).is_empty());
    }

    #[test]
    fn metrics_of_pack_only() {
        let pack = parse_json(
            r#"{"results": [
                {"shape": "strided", "payload": "1KB", "seconds_per_pack": 1e-6},
                {"shape": "subarray", "payload": "1MB", "seconds_per_pack": 2e-6}
            ]}"#,
        )
        .unwrap();
        let m = metrics_of(&pack);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].0, "pack/strided/1KB");

        // A datapath payload (old ones carried a ping-pong section) has
        // no sentinel metrics.
        let dp = parse_json(r#"{"pingpong": {"monolithic_s": 0.5, "chunked_s": 0.3}}"#).unwrap();
        assert!(metrics_of(&dp).is_empty());
    }

    #[test]
    fn old_envelopes_without_tree_state_still_load() {
        let dir = std::env::temp_dir().join(format!("nonctg-hist-old-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let old = r#"{"schema_version": 1, "bench": "pack", "unix_time": 5,
            "host": {"name": "h", "threads": 2, "arch": "x86_64", "os": "linux"},
            "git_sha": "abc1234", "payload": {"results": []}}"#;
        fs::write(dir.join("pack-00000-5.json"), old).unwrap();
        let hist = load_history(&dir, "pack");
        assert_eq!(hist.len(), 1);
        assert_eq!((hist[0].git_sha.as_str(), hist[0].dirty), ("abc1234", None));
        assert_eq!(hist[0].diff_hash, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("nonctg-hist-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        std::env::set_var("NONCTG_BENCH_HISTORY", &dir);
        let out = dir.join("BENCH_demo.json");
        write_bench_json("demo", &out, "{\"entries\": []}\n").unwrap();
        write_bench_json("demo", &out, "{\"entries\": []}\n").unwrap();
        let hist = load_history(&dir, "demo");
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].bench, "demo");
        assert!(hist[0].payload.get("entries").is_some());
        assert!(hist[0].path < hist[1].path);
        // The envelope records the tree state whenever git can tell.
        let raw = parse_json(&fs::read_to_string(&hist[0].path).unwrap()).unwrap();
        assert_eq!(hist[0].dirty, raw.get("dirty").and_then(Value::as_bool));
        if let Some(hash) = &hist[0].diff_hash {
            assert_eq!(hash.len(), 16);
            assert_eq!(hist[0].diff_hash, hist[1].diff_hash, "same tree, same hash");
        }
        std::env::remove_var("NONCTG_BENCH_HISTORY");
        let _ = fs::remove_dir_all(&dir);
    }
}
