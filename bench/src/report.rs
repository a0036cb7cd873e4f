//! What a run measured, and how it is printed.
//!
//! The last line of standard output is one JSON object with exactly
//! the keys `correct`, `attempted`, `failed` and `metrics`; everything
//! before it is the human-readable table. Values are printed with all
//! their digits.

use crate::spec::{self, quote, MetricSpec};
use crate::stats::Summary;
use crate::Config;
use qr_obs::trace::TraceEvent;
use std::collections::BTreeMap;
use std::io::Write as _;

/// Failure messages kept verbatim; the rest are only counted.
const MAX_MESSAGES: usize = 20;

/// Accumulates one run's checks, timings and metric values.
#[derive(Debug)]
pub struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    /// Verified operations attempted.
    pub attempted: u64,
    /// Of those, failed (a wrong output, a refusal, an error).
    pub failed: u64,
    messages: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    timings: Vec<(String, Summary, &'static str)>,
}

impl Run {
    /// An empty accumulator for `cfg`'s workload.
    pub fn new(cfg: &Config) -> Run {
        Run {
            workload: cfg.workload.clone(),
            seed: cfg.seed,
            trace: cfg.trace,
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
            values: BTreeMap::new(),
            timings: Vec::new(),
        }
    }

    /// Counts one verified operation; a failed one is reported with
    /// workload and seed (the caller names the sweep).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = format!("FAILED [{} seed {}] {}", self.workload, self.seed, what());
            eprintln!("{line}");
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(line);
            }
        }
        ok
    }

    /// Counts the operation that produced `result`, returning its
    /// value when it succeeded.
    pub fn ok<T>(
        &mut self,
        result: qr_common::Result<T>,
        what: impl FnOnce() -> String,
    ) -> Option<T> {
        match result {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{}: {e}", what()));
                None
            }
        }
    }

    /// Adds the checks another accumulator made (on a client thread).
    pub fn absorb(&mut self, other: Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_MESSAGES.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }

    /// Sets a metric's value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            spec::END_TO_END
                .iter()
                .chain(spec::PER_LAYER.iter())
                .any(|m| m.name == name),
            "`{name}` is not in the spec"
        );
        self.values.insert(name, value);
    }

    /// The value set for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Keeps a timing's distribution for the human-readable table.
    pub fn timing(&mut self, label: &str, samples: &[f64], unit: &'static str) {
        self.timings
            .push((label.to_string(), Summary::of(samples), unit));
    }

    /// Whether every operation succeeded and every metric this kind of
    /// run must report has a usable value.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.missing().is_empty()
    }

    fn reported(&self) -> &'static [MetricSpec] {
        if self.trace {
            &spec::PER_LAYER
        } else {
            &spec::END_TO_END
        }
    }

    /// Metrics this run must report but has no finite value for (an
    /// end-to-end metric must also not be 0).
    pub fn missing(&self) -> Vec<&'static str> {
        self.reported()
            .iter()
            .filter(|m| match self.values.get(m.name) {
                None => !self.trace,
                Some(v) => !v.is_finite() || (!self.trace && *v == 0.0),
            })
            .map(|m| m.name)
            .collect()
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of the run's kind (a
    /// per-layer metric the workload never touched reads 0).
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .reported()
            .iter()
            .map(|m| {
                let v = self
                    .values
                    .get(m.name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    v,
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The line appended to `<out>/results.jsonl`: the result object's
    /// fields plus what identifies the run and which metrics are exact.
    pub fn record_json(&self) -> String {
        let exact: Vec<String> = self
            .reported()
            .iter()
            .filter(|m| m.exact)
            .map(|m| quote(m.name))
            .collect();
        let body = self.json();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"exact\": [{}], {}",
            quote(&self.workload),
            self.seed,
            u8::from(self.trace),
            exact.join(", "),
            &body[1..]
        )
    }

    /// The human-readable table: every metric by name with its unit,
    /// then the timing distributions, then the failures.
    pub fn table(&self) -> String {
        let kind = if self.trace {
            "per-layer (traced run)"
        } else {
            "end-to-end (untraced run)"
        };
        let mut out = format!("== {} · seed {} · {kind}\n", self.workload, self.seed);
        for m in self.reported() {
            let v = self.values.get(m.name).copied().unwrap_or(0.0);
            let tag = if m.exact { "  (exact)" } else { "" };
            out.push_str(&format!("  {:<34} {:>16.4} {}{tag}\n", m.name, v, m.unit));
        }
        if !self.timings.is_empty() {
            out.push_str(
                "  -- timings: median [p25..p75] highest supported percentile, sample count\n",
            );
            for (label, s, unit) in &self.timings {
                out.push_str(&format!("  {:<34} {}\n", label, s.render(unit)));
            }
        }
        out.push_str(&format!(
            "  attempted {} · failed {}\n",
            self.attempted, self.failed
        ));
        for name in self.missing() {
            out.push_str(&format!("  MISSING {name}\n"));
        }
        for line in &self.messages {
            out.push_str(&format!("  {line}\n"));
        }
        out
    }
}

/// Appends the run's record to `<out>/results.jsonl`.
///
/// # Errors
///
/// Returns the I/O error.
pub fn append_record(cfg: &Config, run: &Run) -> std::io::Result<()> {
    std::fs::create_dir_all(&cfg.out)?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(cfg.out.join("results.jsonl"))?;
    writeln!(file, "{}", run.record_json())
}

/// Writes the traced run's spans as a framed journal and its self-time
/// table as text, both named after workload and seed.
///
/// # Errors
///
/// Returns the I/O error.
pub fn write_trace(cfg: &Config, events: &[TraceEvent]) -> std::io::Result<()> {
    std::fs::create_dir_all(&cfg.out)?;
    let stem = format!("{}-seed{}", cfg.workload, cfg.seed);
    std::fs::write(
        cfg.out.join(format!("{stem}.spans.qrt")),
        qr_obs::trace::to_bytes(events),
    )?;
    let table = crate::spans::self_times(events);
    std::fs::write(
        cfg.out.join(format!("{stem}.selftime.txt")),
        crate::spans::render(&table),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A minimal JSON reader for the tests: enough to prove the emitted
    /// text is well formed and to pull the metric names out.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub(crate) fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub(crate) fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                _ => Vec::new(),
            }
        }
    }

    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos)?;
        ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at {pos}"));
        }
        Ok(v)
    }

    fn ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        ws(b, pos);
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at {pos}", c as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    ws(b, pos);
                    let Json::Str(key) = string(b, pos)? else {
                        unreachable!()
                    };
                    expect(b, pos, b':')?;
                    fields.push((key, value(b, pos)?));
                    ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(value(b, pos)?);
                    ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at {pos}")),
                    }
                }
            }
            Some(b'"') => string(b, pos),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len() && (b[*pos].is_ascii_digit() || b"+-.eE".contains(&b[*pos])) {
                    *pos += 1;
                }
                std::str::from_utf8(&b[start..*pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(Json::Str(out));
                }
                Some(b'\\') => {
                    let esc = *b.get(*pos + 1).ok_or("dangling escape")?;
                    *pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(b.get(*pos..*pos + 4).ok_or("short \\u")?)
                                    .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u")?);
                            *pos += 4;
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    *pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn cfg(trace: bool) -> Config {
        Config {
            workload: "pipeline_compute".into(),
            seed: 3,
            seconds: 1.0,
            trace,
            quick: true,
            out: "unused".into(),
        }
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys_and_every_metric() {
        for trace in [false, true] {
            let mut run = Run::new(&cfg(trace));
            run.check(true, String::new);
            for m in spec::END_TO_END.iter().chain(spec::PER_LAYER.iter()) {
                run.set(m.name, 1.25);
            }
            let parsed = parse(&run.json()).expect("emitted JSON parses");
            assert_eq!(parsed.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
            let expected: Vec<&str> = if trace {
                spec::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                spec::END_TO_END.iter().map(|m| m.name).collect()
            };
            let metrics = parsed.get("metrics").unwrap();
            assert_eq!(metrics.keys(), expected);
            for name in expected {
                let m = metrics.get(name).unwrap();
                assert_eq!(m.keys(), ["value", "unit"]);
                assert_eq!(m.get("value"), Some(&Json::Num(1.25)));
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            }
            let record = parse(&run.record_json()).expect("record parses");
            assert_eq!(record.get("seed"), Some(&Json::Num(3.0)));
            assert!(matches!(record.get("exact"), Some(Json::Arr(a)) if !a.is_empty()));
        }
    }

    #[test]
    fn a_failure_or_a_zero_end_to_end_metric_is_not_correct() {
        let mut run = Run::new(&cfg(false));
        run.check(true, String::new);
        for m in &spec::END_TO_END {
            run.set(m.name, 2.0);
        }
        assert!(run.correct());
        run.set("ops_per_s", 0.0);
        assert_eq!(run.missing(), ["ops_per_s"]);
        assert!(!run.correct());
        run.set("ops_per_s", 2.0);
        assert!(run
            .ok::<()>(Err(qr_common::QrError::InvalidConfig("x".into())), || "op"
                .into())
            .is_none());
        assert_eq!((run.attempted, run.failed), (2, 1));
        assert!(!run.correct());
        assert_eq!(
            parse(&run.json()).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
        assert!(run.table().contains("FAILED [pipeline_compute seed 3] op"));
    }

    #[test]
    fn spec_json_parses_with_exactly_the_contract_keys() {
        let parsed = parse(&spec::benchmark_json()).expect("BENCHMARK.json parses");
        assert_eq!(
            parsed.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let Some(Json::Arr(e2e)) = parsed.get("end_to_end") else {
            panic!()
        };
        for m in e2e {
            assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        }
        let Some(Json::Arr(layers)) = parsed.get("per_layer") else {
            panic!()
        };
        for m in layers {
            assert_eq!(m.keys(), ["name", "unit", "better"]);
        }
        let Some(Json::Arr(workloads)) = parsed.get("workloads") else {
            panic!()
        };
        for w in workloads {
            assert_eq!(w.keys(), ["name", "why"]);
        }
    }
}
