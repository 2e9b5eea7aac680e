//! The persistent on-disk verdict store.
//!
//! The paper's staged proofs (`⊢o`/`⊢i`/`⊢r`) discharge many structurally
//! identical VCs across programs *and across runs*: re-verifying the §5
//! corpus in CI re-proves exactly the goals the previous run already
//! proved. The in-memory verdict cache of
//! [`DischargeEngine`](crate::engine::DischargeEngine) captures the
//! within-run reuse; this module captures the across-run reuse by
//! persisting the cache to disk and reloading it at session start, so a
//! warm re-verification discharges previously-proved goals with zero
//! solver invocations.
//!
//! # Keys and fingerprints
//!
//! Entries are keyed by the [`GoalKey`] — the canonical s-expression
//! rendering of the interned, α-normalized
//! [`BTerm`](relaxed_smt::ast::BTerm) goal (see
//! [`relaxed_smt::intern`]). Encoding restarts bound-variable numbering
//! per goal (see the engine docs) and interning normalizes binder names
//! away, so the key is a *structural* identity: two occurrences of the
//! same obligation, in different programs or different runs — even under
//! α-renaming — map to the same key.
//!
//! A verdict is only as reusable as the configuration that produced it,
//! so the file carries a [`fingerprint`] of everything that can
//! invalidate one:
//!
//! * the cache **format version** ([`FORMAT_VERSION`]) — the file layout
//!   itself;
//! * the **encoder version** ([`ENCODER_VERSION`]) — a changed lowering
//!   re-keys every goal;
//! * the **solver version** ([`SOLVER_VERSION`](relaxed_smt::SOLVER_VERSION))
//!   — a behavioral solver change (a soundness fix, a new preprocessing
//!   pass) must not replay verdicts the old solver produced;
//! * the solver **budgets** (`max_conflicts`, `branch_budget`) — a
//!   budget-starved `Unknown` under one budget may be `Valid` under a
//!   larger one, so verdicts must not travel between budget settings.
//!
//! The worker count, the `incremental` session grouping, and the
//! `prefilter` static analysis layer are deliberately **excluded**:
//! verdicts are scheduling-independent (the engine's determinism
//! guarantee) and the incremental/prefilter paths are verdict-equivalent
//! by construction, so caches are shared freely across all of those
//! schedules. A fingerprint mismatch yields an empty (cold) cache rather
//! than an error.
//!
//! # File format
//!
//! A dependency-free, append-friendly JSON-lines log:
//!
//! ```json
//! {"format":1,"fingerprint":"format=1;encoder=2;solver=4;conflicts=200000;branch=20000"}
//! {"goal":"(<= (v |x|) (v |x|))","verdict":"valid"}
//! {"goal":"(>= (v |x|) 5)","verdict":"invalid","model":{"x":"0"}}
//! {"goal":"...","verdict":"unknown","reason":"conflict budget exhausted"}
//! ```
//!
//! The first record is the header; every later record is one verdict
//! (later duplicates of a key win, which makes plain appends valid).
//! Model values are JSON strings so `i128` counterexample witnesses
//! survive exactly. Loading is corruption-tolerant: a line that fails to
//! parse is skipped and reported as a [`CacheWarning`] instead of
//! poisoning the run. [`persist`] compacts by atomically rewriting the
//! whole file (unique temp file + rename), so concurrent sessions on the
//! same path may race but can never corrupt it.

use crate::encode::ENCODER_VERSION;
use crate::engine::DischargeConfig;
use relaxed_smt::{Model, Validity};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the on-disk file layout. Bumping it invalidates every
/// existing cache file (the header check fails closed into a cold start).
pub const FORMAT_VERSION: u32 = 1;

/// The canonical identity of an encoded goal — the verdict-cache key,
/// in memory and on disk.
///
/// Produced by [`GoalKey::of`] by interning the goal into a hash-consing
/// arena ([`relaxed_smt::intern`]) and rendering the root node as a
/// canonical s-expression: the rendering is injective on the solver AST
/// (so distinct goals never collide), α-invariant (binder names
/// normalize to de Bruijn indices, so renamed-but-identical obligations
/// share one key), and independent of Rust's `Debug` formatting. The
/// inner string is private: the only way to observe a key is through
/// [`GoalKey::as_str`]/[`GoalKey::render`], so every cache record and
/// shard frame goes through the one canonical renderer.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GoalKey(String);

impl GoalKey {
    /// The key of an encoded goal.
    pub fn of(goal: &relaxed_smt::ast::BTerm) -> GoalKey {
        GoalKey(relaxed_smt::intern::canonical_key(goal))
    }

    /// The rendered key text (what the `goal` field of a cache record
    /// holds).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Rebuilds a key from its on-disk rendering ([`GoalKey::render`]) —
    /// the crate-internal inverse the cache loader and the depmap loader
    /// share. Never exposed publicly: outside this crate the only way to
    /// obtain a key is [`GoalKey::of`], so foreign text can never pose as
    /// a canonical key.
    pub(crate) fn parse(rendered: &str) -> GoalKey {
        GoalKey(rendered.to_string())
    }

    /// The explicit on-disk rendering of this key.
    ///
    /// Currently identical to [`GoalKey::as_str`]; it exists as a
    /// separate, versioned entry point so the wire format can evolve
    /// independently of the in-memory identity. Any change to this
    /// rendering must bump [`ENCODER_VERSION`] (or [`FORMAT_VERSION`]) so
    /// stale cached verdicts are never replayed.
    pub fn render(&self) -> String {
        self.0.clone()
    }
}

/// The configuration fingerprint a cache file is valid for.
///
/// See the [module docs](self) for what is folded in (format, encoder,
/// solver budgets) and what is deliberately left out (worker count).
pub fn fingerprint(config: &DischargeConfig) -> String {
    format!(
        "format={FORMAT_VERSION};encoder={ENCODER_VERSION};solver={};conflicts={};branch={}",
        relaxed_smt::SOLVER_VERSION,
        config.max_conflicts,
        config.branch_budget
    )
}

/// A non-fatal problem encountered while loading or persisting a cache
/// file. Loading never panics and never fails the session: bad input
/// degrades to a (partially) cold cache plus warnings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheWarning {
    /// 1-based line number the warning refers to; `0` for whole-file
    /// conditions (unreadable file, header mismatch).
    pub line: usize,
    /// What went wrong, and what the loader did about it.
    pub message: String,
}

impl fmt::Display for CacheWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "verdict cache: {}", self.message)
        } else {
            write!(f, "verdict cache line {}: {}", self.line, self.message)
        }
    }
}

/// The outcome of [`load`]: the usable entries plus everything that had
/// to be skipped to get them.
#[derive(Debug, Default)]
pub struct LoadedCache {
    /// Verdicts keyed by goal (later duplicates in the file win).
    pub entries: HashMap<GoalKey, Validity>,
    /// Skipped lines and whole-file conditions, in file order.
    pub warnings: Vec<CacheWarning>,
    /// Whether a well-formed header matching the requested fingerprint
    /// was read (`false` for missing/empty files, bad headers, and
    /// mismatches). Only a compatible store may later be caught up
    /// incrementally with [`load_tail`]; anything else must re-run the
    /// full fingerprint-checked [`load`].
    pub compatible: bool,
}

/// Loads the verdict cache at `path`, keeping only entries recorded under
/// exactly `fingerprint`.
///
/// A missing file is a clean cold start (no warnings). An unreadable
/// file, a bad header, or a format/fingerprint mismatch yields an empty
/// cache with one explanatory warning. Individually corrupt lines are
/// skipped with one warning each; every well-formed line around them is
/// still used.
pub fn load(path: &Path, fingerprint: &str) -> LoadedCache {
    let mut out = LoadedCache::default();
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return out,
        Err(e) => {
            out.warnings.push(CacheWarning {
                line: 0,
                message: format!("unreadable ({e}); starting cold"),
            });
            return out;
        }
    };

    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let Some((header_at, header_line)) = lines.next() else {
        return out; // empty file: clean cold start
    };
    match parse_header(header_line) {
        Err(reason) => {
            out.warnings.push(CacheWarning {
                line: header_at + 1,
                message: format!("bad header ({reason}); starting cold"),
            });
            return out;
        }
        Ok((format, file_fingerprint)) => {
            if format != FORMAT_VERSION {
                out.warnings.push(CacheWarning {
                    line: header_at + 1,
                    message: format!(
                        "format version {format} (this build writes {FORMAT_VERSION}); starting cold"
                    ),
                });
                return out;
            }
            if file_fingerprint != fingerprint {
                out.warnings.push(CacheWarning {
                    line: header_at + 1,
                    message: format!(
                        "fingerprint mismatch (file {file_fingerprint:?}, session {fingerprint:?}); starting cold"
                    ),
                });
                return out;
            }
        }
    }
    out.compatible = true;
    for (i, line) in lines {
        match parse_entry(line) {
            Ok((key, verdict)) => {
                out.entries.insert(key, verdict);
            }
            Err(reason) => out.warnings.push(CacheWarning {
                line: i + 1,
                message: format!("skipped ({reason})"),
            }),
        }
    }
    out
}

/// Atomically rewrites the cache file at `path` with a header for
/// `fingerprint` followed by `entries`, one record per line.
///
/// The write goes to a process-unique temp file in the same directory,
/// then renames over `path` — concurrent sessions persisting to the same
/// path can interleave (last writer wins) but can never leave a torn
/// file. Parent directories are created as needed. Returns the number of
/// entries written.
pub fn persist<'a>(
    path: &Path,
    fingerprint: &str,
    entries: impl IntoIterator<Item = (&'a GoalKey, &'a Validity)>,
) -> io::Result<u64> {
    let mut body = String::new();
    body.push_str(&render_header(fingerprint));
    body.push('\n');
    let mut count = 0u64;
    for (key, verdict) in entries {
        render_entry(&mut body, key, verdict);
        body.push('\n');
        count += 1;
    }

    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    // A unique temp name per (process, persist call): concurrent writers
    // never collide on the staging file, and `rename` is atomic within a
    // filesystem.
    static PERSIST_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = PERSIST_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut staged_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "verdicts.jsonl".into());
    staged_name.push(format!(".{}.{seq}.tmp", std::process::id()));
    let staged = path.with_file_name(staged_name);
    let result = (|| {
        let mut file = fs::File::create(&staged)?;
        file.write_all(body.as_bytes())?;
        file.sync_all()?;
        fs::rename(&staged, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&staged);
    }
    result.map(|()| count)
}

/// Loads only the records starting at byte offset `from` of the cache
/// file at `path` — the incremental companion of [`load`] for
/// append-only growth: a reader that already merged the first `from`
/// bytes (of the **same file generation** — rewrites swap the inode, so
/// callers must detect them and fall back to a full [`load`]) parses
/// just the appended tail instead of the whole store.
///
/// No header or fingerprint check happens here (the header lives at byte
/// 0 and was validated by the full load that produced `from`). The first
/// tail line may be torn — `from` can have been recorded while a
/// concurrent append was mid-write — and is then skipped with a warning,
/// like any corrupt line. A missing or shrunken file yields an empty
/// result; the caller's generation check handles it.
pub fn load_tail(path: &Path, from: u64) -> LoadedCache {
    use std::io::{Read, Seek};
    let mut out = LoadedCache::default();
    let mut file = match fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return out,
        Err(e) => {
            out.warnings.push(CacheWarning {
                line: 0,
                message: format!("unreadable ({e}); tail skipped"),
            });
            return out;
        }
    };
    let mut bytes = Vec::new();
    let read = file
        .seek(io::SeekFrom::Start(from))
        .and_then(|_| file.read_to_end(&mut bytes));
    if let Err(e) = read {
        out.warnings.push(CacheWarning {
            line: 0,
            message: format!("unreadable tail at byte {from} ({e}); skipped"),
        });
        return out;
    }
    // Lossy decode: `from` may split a multi-byte character of a torn
    // record; the mangled line fails to parse and is skipped like any
    // other corruption.
    let text = String::from_utf8_lossy(&bytes);
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match parse_entry(line) {
            Ok((key, verdict)) => {
                out.entries.insert(key, verdict);
            }
            Err(reason) => out.warnings.push(CacheWarning {
                line: 0,
                message: format!("skipped tail record after byte {from} ({reason})"),
            }),
        }
    }
    out
}

/// Appends `entries` to the cache file at `path`, writing the header for
/// `fingerprint` first when the file is new or empty. Returns the number
/// of entries appended.
///
/// Appending is the **lost-update-free** flush: unlike [`persist`], which
/// rewrites the whole file from one process's snapshot (concurrent
/// rewriters race, last writer wins), an append can never drop another
/// process's entries — later duplicates of a key win on [`load`], which
/// is exactly the appender's merge semantics. This is how shard workers
/// publish verdicts incrementally (see [`crate::shard`]). Two processes
/// creating the same file simultaneously can both write a header; the
/// loader treats the second header line as a corrupt record and skips it
/// with a warning, which is harmless.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn append<'a>(
    path: &Path,
    fingerprint: &str,
    entries: impl IntoIterator<Item = (&'a GoalKey, &'a Validity)>,
) -> io::Result<u64> {
    let mut body = String::new();
    let mut count = 0u64;
    for (key, verdict) in entries {
        render_entry(&mut body, key, verdict);
        body.push('\n');
        count += 1;
    }
    if count == 0 {
        return Ok(0);
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if file.metadata()?.len() == 0 {
        let mut header = render_header(fingerprint);
        header.push('\n');
        header.push_str(&body);
        body = header;
    }
    // One write call for the whole batch: concurrent appenders interleave
    // at record granularity at worst, and a torn tail is exactly what the
    // corruption-tolerant loader skips.
    file.write_all(body.as_bytes())?;
    file.sync_all()?;
    Ok(count)
}

/// Renders a JSON string literal with the escapes RFC 8259 requires —
/// the one escaper behind the cache records, the `CorpusReport` JSON
/// rendering, and the bench harness's `BENCHJSON` lines.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn render_header(fingerprint: &str) -> String {
    format!(
        "{{\"format\":{FORMAT_VERSION},\"fingerprint\":{}}}",
        json_string(fingerprint)
    )
}

fn render_entry(out: &mut String, key: &GoalKey, verdict: &Validity) {
    out.push_str("{\"goal\":");
    out.push_str(&json_string(&key.render()));
    out.push(',');
    render_verdict(out, verdict);
    out.push('}');
}

/// Writes the `"verdict":...` field group of `verdict` — shared between
/// the cache records above and the shard protocol's result frames
/// ([`crate::shard`]), so a verdict has exactly one wire rendering.
pub(crate) fn render_verdict(out: &mut String, verdict: &Validity) {
    match verdict {
        Validity::Valid => out.push_str("\"verdict\":\"valid\""),
        Validity::Unknown(reason) => {
            out.push_str("\"verdict\":\"unknown\",\"reason\":");
            out.push_str(&json_string(reason));
        }
        Validity::Invalid(model) => {
            out.push_str("\"verdict\":\"invalid\",\"model\":{");
            for (i, (name, value)) in model.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(name));
                out.push(':');
                // Model values ride as strings: i128 witnesses must
                // survive exactly, including through JSON tooling that
                // narrows numbers to doubles.
                out.push_str(&json_string(&value.to_string()));
            }
            out.push('}');
        }
    }
}

fn parse_header(line: &str) -> Result<(u32, String), String> {
    let record = parse_json(line)?;
    let fields = record.as_object()?;
    let format = match get(fields, "format") {
        Some(Json::Int(n)) => u32::try_from(*n).map_err(|_| format!("format {n} out of range"))?,
        Some(_) => return Err("non-integer `format`".to_string()),
        None => return Err("missing `format`".to_string()),
    };
    let fingerprint = match get(fields, "fingerprint") {
        Some(Json::Str(s)) => s.clone(),
        Some(_) => return Err("non-string `fingerprint`".to_string()),
        None => return Err("missing `fingerprint`".to_string()),
    };
    Ok((format, fingerprint))
}

fn parse_entry(line: &str) -> Result<(GoalKey, Validity), String> {
    let record = parse_json(line)?;
    let fields = record.as_object()?;
    let goal = match get(fields, "goal") {
        Some(Json::Str(s)) => GoalKey(s.clone()),
        Some(_) => return Err("non-string `goal`".to_string()),
        None => return Err("missing `goal`".to_string()),
    };
    Ok((goal, parse_verdict(fields)?))
}

/// Reads the `"verdict":...` field group written by [`render_verdict`]
/// back out of a parsed record — the inverse shared with the shard
/// protocol.
pub(crate) fn parse_verdict(fields: &[(String, Json)]) -> Result<Validity, String> {
    let verdict = match get(fields, "verdict") {
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return Err("non-string `verdict`".to_string()),
        None => return Err("missing `verdict`".to_string()),
    };
    let verdict = match verdict {
        "valid" => Validity::Valid,
        "unknown" => {
            let reason = match get(fields, "reason") {
                Some(Json::Str(s)) => s.clone(),
                Some(_) => return Err("non-string `reason`".to_string()),
                None => String::new(),
            };
            Validity::Unknown(reason)
        }
        "invalid" => {
            let model = match get(fields, "model") {
                Some(Json::Obj(pairs)) => pairs,
                Some(_) => return Err("non-object `model`".to_string()),
                None => return Err("missing `model`".to_string()),
            };
            let mut values: Vec<(String, i128)> = Vec::with_capacity(model.len());
            for (name, value) in model {
                let n = match value {
                    Json::Str(s) => s
                        .parse::<i128>()
                        .map_err(|_| format!("non-integer model value {s:?}"))?,
                    Json::Int(n) => *n,
                    _ => return Err("non-scalar value in `model`".to_string()),
                };
                values.push((name.clone(), n));
            }
            Validity::Invalid(values.into_iter().collect::<Model>())
        }
        other => return Err(format!("unknown verdict {other:?}")),
    };
    Ok(verdict)
}

pub(crate) fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

// ---- a minimal JSON reader for the writer above ----
//
// Deliberately just the subset this crate writes — objects, arrays,
// strings, integers — so the cache (and the shard protocol built on the
// same conventions) stays dependency-free. Anything else on a line is a
// parse error, which the loader treats as corruption (skip + warn).

/// A parsed value of the crate's minimal JSON dialect (see
/// [`parse_json`]).
#[derive(Debug)]
pub enum Json {
    /// A string literal.
    Str(String),
    /// An integer (the dialect has no floats).
    Int(i128),
    /// An object, fields in input order.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
}

impl Json {
    /// The value's fields, or an error when it is not an object.
    ///
    /// # Errors
    ///
    /// Returns a description when the value is not an object.
    pub fn as_object(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            _ => Err("record is not an object".to_string()),
        }
    }

    /// The value's items, or an error when it is not an array.
    ///
    /// # Errors
    ///
    /// Returns a description when the value is not an array.
    pub fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err("value is not an array".to_string()),
        }
    }
}

/// Parses one value of the minimal JSON dialect this crate writes —
/// objects, arrays, strings, integers; no floats, booleans, or nulls.
/// Public so consumers (tests, the `verify_corpus --trace` validator)
/// can check the crate's own JSON artifacts without a serde
/// dependency.
///
/// # Errors
///
/// Returns a position-annotated description of the first syntax error.
pub fn parse_json(line: &str) -> Result<Json, String> {
    let chars: Vec<char> = line.chars().collect();
    let mut at = 0usize;
    let value = parse_value(&chars, &mut at)?;
    skip_ws(&chars, &mut at);
    if at != chars.len() {
        return Err(format!("trailing content at column {}", at + 1));
    }
    Ok(value)
}

fn skip_ws(chars: &[char], at: &mut usize) {
    while chars.get(*at).is_some_and(|c| c.is_ascii_whitespace()) {
        *at += 1;
    }
}

fn parse_value(chars: &[char], at: &mut usize) -> Result<Json, String> {
    skip_ws(chars, at);
    match chars.get(*at) {
        Some('{') => parse_object(chars, at),
        Some('[') => parse_array(chars, at),
        Some('"') => Ok(Json::Str(parse_string(chars, at)?)),
        Some(c) if *c == '-' || c.is_ascii_digit() => parse_int(chars, at),
        Some(c) => Err(format!("unexpected {c:?} at column {}", *at + 1)),
        None => Err("unexpected end of line".to_string()),
    }
}

fn parse_array(chars: &[char], at: &mut usize) -> Result<Json, String> {
    *at += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(chars, at);
    if chars.get(*at) == Some(&']') {
        *at += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(chars, at)?);
        skip_ws(chars, at);
        match chars.get(*at) {
            Some(',') => *at += 1,
            Some(']') => {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at column {}", *at + 1)),
        }
    }
}

fn parse_object(chars: &[char], at: &mut usize) -> Result<Json, String> {
    *at += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(chars, at);
    if chars.get(*at) == Some(&'}') {
        *at += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(chars, at);
        let key = parse_string(chars, at)?;
        skip_ws(chars, at);
        if chars.get(*at) != Some(&':') {
            return Err(format!("expected ':' at column {}", *at + 1));
        }
        *at += 1;
        let value = parse_value(chars, at)?;
        fields.push((key, value));
        skip_ws(chars, at);
        match chars.get(*at) {
            Some(',') => *at += 1,
            Some('}') => {
                *at += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at column {}", *at + 1)),
        }
    }
}

fn parse_string(chars: &[char], at: &mut usize) -> Result<String, String> {
    if chars.get(*at) != Some(&'"') {
        return Err(format!("expected string at column {}", *at + 1));
    }
    *at += 1;
    let mut out = String::new();
    loop {
        match chars.get(*at) {
            None => return Err("unterminated string".to_string()),
            Some('"') => {
                *at += 1;
                return Ok(out);
            }
            Some('\\') => {
                *at += 1;
                match chars.get(*at) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let hex: String = chars
                            .get(*at + 1..*at + 5)
                            .ok_or("truncated \\u escape")?
                            .iter()
                            .collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        out.push(
                            char::from_u32(code).ok_or(format!("bad \\u code point {code:#x}"))?,
                        );
                        *at += 4;
                    }
                    Some(c) => return Err(format!("bad escape \\{c}")),
                    None => return Err("unterminated escape".to_string()),
                }
                *at += 1;
            }
            Some(c) => {
                out.push(*c);
                *at += 1;
            }
        }
    }
}

fn parse_int(chars: &[char], at: &mut usize) -> Result<Json, String> {
    let start = *at;
    if chars.get(*at) == Some(&'-') {
        *at += 1;
    }
    while chars.get(*at).is_some_and(char::is_ascii_digit) {
        *at += 1;
    }
    let text: String = chars[start..*at].iter().collect();
    text.parse::<i128>()
        .map(Json::Int)
        .map_err(|_| format!("bad integer {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxed_smt::ast::ITerm;
    use std::path::PathBuf;

    fn temp_file(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "relaxed-cache-unit-{}-{tag}-{}.jsonl",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_entries() -> Vec<(GoalKey, Validity)> {
        let valid = GoalKey::of(&ITerm::var("x").le(ITerm::var("x")));
        let invalid = GoalKey::of(&ITerm::var("x").ge(ITerm::Const(5)));
        let unknown = GoalKey::of(&ITerm::var("y").le(ITerm::Const(0)));
        // An i128 witness beyond i64: exact round-trip is the point.
        let model: Model = [("x".to_string(), i128::from(i64::MAX) * 40)]
            .into_iter()
            .collect();
        vec![
            (valid, Validity::Valid),
            (invalid, Validity::Invalid(model)),
            (
                unknown,
                Validity::Unknown("weird \"quoted\"\nreason".to_string()),
            ),
        ]
    }

    #[test]
    fn round_trips_all_verdict_kinds_exactly() {
        let path = temp_file("roundtrip");
        let entries = sample_entries();
        let written = persist(&path, "fp", entries.iter().map(|(k, v)| (k, v))).unwrap();
        assert_eq!(written, 3);
        let loaded = load(&path, "fp");
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
        assert_eq!(loaded.entries.len(), 3);
        for (key, verdict) in &entries {
            assert_eq!(loaded.entries.get(key), Some(verdict), "{key:?}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_clean_cold_start() {
        let loaded = load(&temp_file("missing"), "fp");
        assert!(loaded.entries.is_empty());
        assert!(loaded.warnings.is_empty());
    }

    #[test]
    fn fingerprint_mismatch_yields_empty_cache_with_warning() {
        let path = temp_file("fingerprint");
        let entries = sample_entries();
        persist(&path, "fp-old", entries.iter().map(|(k, v)| (k, v))).unwrap();
        let loaded = load(&path, "fp-new");
        assert!(loaded.entries.is_empty());
        assert_eq!(loaded.warnings.len(), 1);
        assert!(
            loaded.warnings[0]
                .to_string()
                .contains("fingerprint mismatch"),
            "{}",
            loaded.warnings[0]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn store_from_previous_solver_version_loads_cold_with_warning() {
        let config = DischargeConfig::default();
        let current = fingerprint(&config);
        let solver = relaxed_smt::SOLVER_VERSION;
        let old = current.replace(
            &format!(";solver={solver};"),
            &format!(";solver={};", solver - 1),
        );
        assert_ne!(
            old, current,
            "the fingerprint must carry the solver version"
        );
        let path = temp_file("old-solver");
        let entries = sample_entries();
        persist(&path, &old, entries.iter().map(|(k, v)| (k, v))).unwrap();
        let loaded = load(&path, &current);
        assert!(
            loaded.entries.is_empty(),
            "old-solver verdicts must not replay"
        );
        assert_eq!(loaded.warnings.len(), 1, "{:?}", loaded.warnings);
        assert!(loaded.warnings[0]
            .to_string()
            .contains("fingerprint mismatch"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn format_version_mismatch_yields_empty_cache() {
        let path = temp_file("format");
        std::fs::write(&path, "{\"format\":999,\"fingerprint\":\"fp\"}\n").unwrap();
        let loaded = load(&path, "fp");
        assert!(loaded.entries.is_empty());
        assert!(loaded.warnings[0]
            .to_string()
            .contains("format version 999"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_lines_are_skipped_and_reported() {
        let path = temp_file("corrupt");
        let entries = sample_entries();
        persist(&path, "fp", entries.iter().map(|(k, v)| (k, v))).unwrap();
        // Simulate a torn append and stray garbage.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.insert_str(text.find('\n').unwrap() + 1, "not json at all\n");
        text.push_str("{\"goal\":\"trunc");
        std::fs::write(&path, text).unwrap();
        let loaded = load(&path, "fp");
        assert_eq!(loaded.entries.len(), 3, "good lines survive");
        assert_eq!(loaded.warnings.len(), 2, "{:?}", loaded.warnings);
        assert!(loaded.warnings[0].to_string().contains("line 2"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_header_is_cold_not_fatal() {
        let path = temp_file("header");
        std::fs::write(&path, "\u{0}\u{1}binary garbage\nmore\n").unwrap();
        let loaded = load(&path, "fp");
        assert!(loaded.entries.is_empty());
        assert_eq!(loaded.warnings.len(), 1);
        assert!(loaded.warnings[0].to_string().contains("bad header"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appended_duplicate_keys_later_wins() {
        let path = temp_file("append");
        let key = GoalKey::of(&ITerm::var("x").le(ITerm::var("x")));
        persist(&path, "fp", [(&key, &Validity::Unknown("old".to_string()))]).unwrap();
        // Plain append, as a crash-interrupted compaction would leave it.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let mut extra = String::new();
        render_entry(&mut extra, &key, &Validity::Valid);
        text.push_str(&extra);
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let loaded = load(&path, "fp");
        assert_eq!(loaded.entries.get(&key), Some(&Validity::Valid));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_tracks_budgets_but_not_workers() {
        let base = DischargeConfig::default();
        let more_workers = DischargeConfig {
            workers: base.workers + 7,
            ..base.clone()
        };
        assert_eq!(fingerprint(&base), fingerprint(&more_workers));
        let other_budget = DischargeConfig {
            max_conflicts: base.max_conflicts + 1,
            ..base
        };
        assert_ne!(fingerprint(&base), fingerprint(&other_budget));
    }

    #[test]
    fn goal_keys_are_structural() {
        let a = GoalKey::of(&ITerm::var("x").le(ITerm::Const(1)));
        let b = GoalKey::of(&ITerm::var("x").le(ITerm::Const(1)));
        let c = GoalKey::of(&ITerm::var("x").le(ITerm::Const(2)));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "(<= (v |x|) 1)");
        assert_eq!(a.render(), a.as_str());
    }

    #[test]
    fn goal_keys_are_alpha_invariant() {
        // ∀x. x ≤ y and ∀z. z ≤ y are the same obligation.
        let a = GoalKey::of(&ITerm::var("x").le(ITerm::var("y")).forall("x"));
        let b = GoalKey::of(&ITerm::var("z").le(ITerm::var("y")).forall("z"));
        assert_eq!(a, b);
        // Renaming the free variable is a different obligation.
        let c = GoalKey::of(&ITerm::var("x").le(ITerm::var("w")).forall("x"));
        assert_ne!(a, c);
    }

    #[test]
    fn parser_rejects_trailing_content_and_bad_escapes() {
        assert!(parse_json("{\"a\":1} extra").is_err());
        assert!(parse_json("{\"a\":").is_err());
        assert!(parse_json("true").is_err());
        assert!(parse_json("[1").is_err());
        assert!(parse_json("{\"a\":\"\\q\"}").is_err());
        assert!(parse_json("{\"a\":\"\\u12\"}").is_err());
        // \u escapes round-trip (the writer emits them for control chars).
        let Json::Obj(fields) = parse_json("{\"a\":\"\\u0041\\n\"}").unwrap() else {
            panic!("expected object");
        };
        let Json::Str(s) = &fields[0].1 else {
            panic!("expected string");
        };
        assert_eq!(s, "A\n");
    }

    #[test]
    fn append_creates_with_header_then_extends_without() {
        let path = temp_file("append-grow");
        let entries = sample_entries();
        let (first, rest) = entries.split_at(1);
        assert_eq!(
            append(&path, "fp", first.iter().map(|(k, v)| (k, v))).unwrap(),
            1
        );
        assert_eq!(
            append(&path, "fp", rest.iter().map(|(k, v)| (k, v))).unwrap(),
            2
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.matches("\"format\"").count(),
            1,
            "exactly one header: {text}"
        );
        let loaded = load(&path, "fp");
        assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
        assert_eq!(loaded.entries.len(), 3);
        assert_eq!(
            append(&path, "fp", []).unwrap(),
            0,
            "empty batch is a no-op"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_from_two_writers_never_drop_each_other() {
        // The lost-update property persist() cannot give: writer B never
        // saw writer A's entry, yet A's entry survives B's flush.
        let path = temp_file("append-union");
        let a = (
            GoalKey::of(&ITerm::var("a").le(ITerm::Const(1))),
            Validity::Valid,
        );
        let b = (
            GoalKey::of(&ITerm::var("b").le(ITerm::Const(2))),
            Validity::Valid,
        );
        append(&path, "fp", [(&a.0, &a.1)]).unwrap();
        append(&path, "fp", [(&b.0, &b.1)]).unwrap();
        let loaded = load(&path, "fp");
        assert_eq!(loaded.entries.len(), 2);
        assert!(loaded.entries.contains_key(&a.0));
        assert!(loaded.entries.contains_key(&b.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parser_reads_arrays() {
        // Arrays carry the shard protocol's per-stage verdict lists.
        let Json::Obj(fields) = parse_json("{\"a\":[1,{\"b\":\"c\"},[]]}").unwrap() else {
            panic!("expected object");
        };
        let items = fields[0].1.as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert!(matches!(items[0], Json::Int(1)));
        assert!(items[1].as_object().is_ok());
        assert!(items[2].as_array().unwrap().is_empty());
        assert!(parse_json("{\"a\":1}").unwrap().as_array().is_err());
    }
}
