//! The metrics registry: counters, gauges and fixed-bucket histograms
//! with quantile readout, rendered as a Prometheus-style text
//! exposition.
//!
//! A [`Registry`] is plain data with one owner. Whoever counts holds it
//! by `&mut` and updates a series in place; a second thread that counts
//! fills its own registry and hands it over, and the owner folds it in
//! with [`Registry::merge`]. No series is shared, so no value can be
//! read back by code that did not count it.

use std::collections::BTreeMap;
use std::time::Instant;

/// A monotonically increasing counter.
#[derive(Debug, Default, Clone)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A value that can go up and down.
#[derive(Debug, Default, Clone)]
pub struct Gauge {
    value: i64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&mut self, v: i64) {
        self.value = v;
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value
    }
}

/// Default buckets for latency-in-microseconds histograms: 10 µs to 10 s.
pub const LATENCY_US: &[u64] =
    &[10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
        500_000, 1_000_000, 2_500_000, 10_000_000];

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets are cumulative at render time (Prometheus `le` semantics);
/// internally each slot counts one bucket, with a final implicit `+Inf`
/// slot. Quantiles are estimated by linear interpolation inside the
/// bucket where the rank falls.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<u64>, // bounds.len() + 1 slots; last is +Inf
    sum: u64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bucket bounds must strictly increase");
        Histogram { bounds: bounds.to_vec(), buckets: vec![0; bounds.len() + 1], sum: 0, count: 0 }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Records `n` observations of `v`.
    pub fn observe_n(&mut self, v: u64, n: u64) {
        let slot = self.bounds.partition_point(|&b| b < v);
        self.buckets[slot] += n;
        self.sum += v * n;
        self.count += n;
    }

    /// Records the microseconds elapsed since `start`.
    pub fn observe_since(&mut self, start: Instant) {
        self.observe(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Estimates quantile `q` in `[0, 1]` by linear interpolation inside
    /// the covering bucket (0 when empty). The top (`+Inf`) bucket
    /// reports its lower bound — the largest finite boundary.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let top = *self.bounds.last().expect("nonempty bounds") as f64;
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let next = cumulative + c;
            if (next as f64) >= rank && c > 0 {
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let Some(&upper) = self.bounds.get(i) else { return top };
                let into = (rank - cumulative as f64) / c as f64;
                return lower as f64 + into * (upper - lower) as f64;
            }
            cumulative = next;
        }
        top
    }

    /// Cumulative `(le_bound, count)` pairs, ending with the `+Inf`
    /// bucket (`None` bound).
    fn cumulative(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        self.buckets.iter().enumerate().scan(0u64, |running, (i, &slot)| {
            *running += slot;
            Some((self.bounds.get(i).copied(), *running))
        })
    }
}

/// Label pairs attached to one series, sorted by key.
type LabelSet = Vec<(String, String)>;

#[derive(Debug, Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Series {
    fn kind(&self) -> &str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Family {
    help: String,
    series: BTreeMap<LabelSet, Series>,
}

/// A named collection of metric families.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    families: BTreeMap<String, Family>,
}

/// Whether `set` holds exactly the pairs of `labels`, in any order.
fn same_labels(set: &LabelSet, labels: &[(&str, &str)]) -> bool {
    set.len() == labels.len() && labels.iter().all(|&(k, v)| set.iter().any(|(sk, sv)| sk == k && sv == v))
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The series `name{labels}`, made by `make` on first use.
    fn series(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> &mut Series {
        if !self.families.contains_key(name) {
            let family = Family { help: help.to_string(), series: BTreeMap::new() };
            self.families.insert(name.to_string(), family);
        }
        let family = self.families.get_mut(name).expect("inserted above");
        if !family.series.keys().any(|set| same_labels(set, labels)) {
            let mut key: LabelSet =
                labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
            key.sort();
            family.series.insert(key, make());
        }
        let found = family.series.iter_mut().find(|(set, _)| same_labels(set, labels));
        found.map(|(_, series)| series).expect("inserted above")
    }

    /// Registers (or finds) a counter series.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different type — a
    /// naming bug, caught by any test touching the family.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> &mut Counter {
        match self.series(name, help, labels, || Series::Counter(Counter::default())) {
            Series::Counter(c) => c,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Registers (or finds) a gauge series.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different type.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> &mut Gauge {
        match self.series(name, help, labels, || Series::Gauge(Gauge::default())) {
            Series::Gauge(g) => g,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Registers (or finds) a histogram series with the given bucket
    /// bounds (bounds are fixed by the first registration).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different type, or
    /// if `bounds` is empty or not strictly increasing.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> &mut Histogram {
        match self.series(name, help, labels, || Series::Histogram(Histogram::new(bounds))) {
            Series::Histogram(h) => h,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Folds `other` into this registry: counters and histogram buckets
    /// add, a gauge takes `other`'s value, and a series only `other` has
    /// is adopted.
    ///
    /// # Panics
    ///
    /// Panics if a family has different types in the two registries, or
    /// a histogram different bounds.
    pub fn merge(&mut self, other: Registry) {
        for (name, family) in other.families {
            let mine = self
                .families
                .entry(name)
                .or_insert_with(|| Family { help: family.help, series: BTreeMap::new() });
            for (labels, theirs) in family.series {
                let Some(ours) = mine.series.get_mut(&labels) else {
                    mine.series.insert(labels, theirs);
                    continue;
                };
                match (ours, theirs) {
                    (Series::Counter(a), Series::Counter(b)) => a.add(b.get()),
                    (Series::Gauge(a), Series::Gauge(b)) => a.set(b.get()),
                    (Series::Histogram(a), Series::Histogram(b)) if a.bounds == b.bounds => {
                        a.buckets.iter_mut().zip(&b.buckets).for_each(|(x, y)| *x += y);
                        a.sum += b.sum;
                        a.count += b.count;
                    }
                    (ours, theirs) => panic!(
                        "cannot merge a {} into a {} series",
                        theirs.kind(),
                        ours.kind()
                    ),
                }
            }
        }
    }

    /// Renders the Prometheus-style text exposition: `# HELP`/`# TYPE`
    /// per family, one sample line per series, and for histograms the
    /// cumulative `_bucket{le=...}` series, `_sum`, `_count`, and
    /// p50/p95/p99 quantile samples.
    ///
    /// Output ordering is deterministic (families and label sets are
    /// B-tree sorted); *values* of wall-clock families are not.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let kind = family.series.values().next().map_or("counter", Series::kind);
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => out.push_str(&sample(name, labels, &[], c.get())),
                    Series::Gauge(g) => out.push_str(&sample(name, labels, &[], g.get())),
                    Series::Histogram(h) => {
                        for (bound, cum) in h.cumulative() {
                            let le = bound.map_or_else(|| "+Inf".to_string(), |b| b.to_string());
                            let bucket = format!("{name}_bucket");
                            out.push_str(&sample(&bucket, labels, &[("le", &le)], cum));
                        }
                        out.push_str(&sample(&format!("{name}_sum"), labels, &[], h.sum()));
                        out.push_str(&sample(&format!("{name}_count"), labels, &[], h.count()));
                        for (q, tag) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                            let value = format!("{:.1}", h.quantile(q));
                            out.push_str(&sample(name, labels, &[("quantile", tag)], value));
                        }
                    }
                }
            }
        }
        out
    }
}

fn sample(
    name: &str,
    labels: &LabelSet,
    extra: &[(&str, &str)],
    value: impl std::fmt::Display,
) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    pairs.extend(extra.iter().map(|(k, v)| format!("{k}=\"{v}\"")));
    if pairs.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{}}} {value}\n", pairs.join(","))
    }
}

/// Summary of a parsed exposition (see [`parse_exposition`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Exposition {
    /// `(family name, declared type)` pairs, in order of appearance.
    pub families: Vec<(String, String)>,
    /// Total sample lines.
    pub samples: usize,
}

impl Exposition {
    /// Whether a family of the given name was declared.
    pub fn has_family(&self, name: &str) -> bool {
        self.families.iter().any(|(n, _)| n == name)
    }
}

/// Validates a text exposition: every non-comment line must parse as
/// `name{labels} value`, every sample must belong to a `# TYPE`-declared
/// family, and every value must be a finite number.
///
/// This is the checker behind `quickrec stats --metrics` and the CI
/// scrape step.
///
/// # Errors
///
/// Returns a line-numbered description of the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut families: Vec<(String, String)> = Vec::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                return Err(format!("line {lineno}: malformed TYPE comment"));
            };
            if !["counter", "gauge", "histogram", "summary"].contains(&kind) {
                return Err(format!("line {lineno}: unknown metric type `{kind}`"));
            }
            families.push((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free-form comment
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample has no value"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {lineno}: unparsable sample value `{value}`"))?;
        if !value.is_finite() {
            return Err(format!("line {lineno}: non-finite sample value"));
        }
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {lineno}: unterminated label set"));
                }
                name
            }
            None => series,
        };
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {lineno}: invalid metric name `{name}`"));
        }
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        if !families.iter().any(|(n, _)| n == base || n == name) {
            return Err(format!("line {lineno}: sample `{name}` has no TYPE declaration"));
        }
        samples += 1;
    }
    Ok(Exposition { families, samples })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut reg = Registry::new();
        let c = reg.counter("t_jobs_total", "jobs", &[("kind", "record")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) resolves to the same series.
        reg.counter("t_jobs_total", "jobs", &[("kind", "record")]).inc();
        assert_eq!(reg.counter("t_jobs_total", "jobs", &[("kind", "record")]).get(), 6);
        let g = reg.gauge("t_queue_depth", "depth", &[]);
        g.set(7);
        g.set(4);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn label_order_does_not_split_a_series() {
        let mut reg = Registry::new();
        reg.counter("t_pairs_total", "x", &[("a", "1"), ("b", "2")]).inc();
        reg.counter("t_pairs_total", "x", &[("b", "2"), ("a", "1")]).inc();
        assert!(reg.render().contains("t_pairs_total{a=\"1\",b=\"2\"} 2"));
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let mut reg = Registry::new();
        let h = reg.histogram("t_lat_us", "latency", &[], &[10, 100, 1000, 10_000]);
        for v in [5u64, 50, 50, 50, 500, 500, 5000, 20_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 5 + 150 + 1000 + 5000 + 20_000);
        let p50 = h.quantile(0.5);
        assert!((10.0..=100.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= 1000.0, "p99 {p99}");
        // +Inf bucket clamps to the top finite bound.
        assert!(h.quantile(1.0) <= 10_000.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let mut reg = Registry::new();
        let h = reg.histogram("t_empty", "x", &[], LATENCY_US);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collision_panics() {
        let mut reg = Registry::new();
        reg.counter("t_collide", "x", &[]);
        reg.gauge("t_collide", "x", &[]);
    }

    #[test]
    fn merge_adds_counts_and_adopts_new_series() {
        let mut loop_owned = Registry::new();
        loop_owned.counter("t_done_total", "x", &[("kind", "a")]).add(2);
        loop_owned.histogram("t_size", "x", &[], &[10, 100]).observe(5);
        let mut job = Registry::new();
        job.counter("t_done_total", "x", &[("kind", "a")]).add(3);
        job.counter("t_done_total", "x", &[("kind", "b")]).inc();
        job.histogram("t_size", "x", &[], &[10, 100]).observe_n(50, 2);
        job.gauge("t_depth", "x", &[]).set(9);
        loop_owned.merge(job);
        assert_eq!(loop_owned.counter("t_done_total", "x", &[("kind", "a")]).get(), 5);
        assert_eq!(loop_owned.counter("t_done_total", "x", &[("kind", "b")]).get(), 1);
        assert_eq!(loop_owned.gauge("t_depth", "x", &[]).get(), 9);
        let h = loop_owned.histogram("t_size", "x", &[], &[10, 100]);
        assert_eq!((h.count(), h.sum()), (3, 105));
        assert!(loop_owned.render().contains("t_size_bucket{le=\"10\"} 1"));
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn merging_a_kind_collision_panics() {
        let mut a = Registry::new();
        a.counter("t_collide", "x", &[]);
        let mut b = Registry::new();
        b.gauge("t_collide", "x", &[]);
        a.merge(b);
    }

    #[test]
    fn render_parses_and_orders_deterministically() {
        let mut reg = Registry::new();
        reg.counter("t_b_total", "second", &[("enc", "delta")]).add(3);
        reg.counter("t_b_total", "second", &[("enc", "raw")]).add(1);
        reg.counter("t_a_total", "first", &[]).inc();
        reg.gauge("t_depth", "queue", &[]).set(-2);
        let h = reg.histogram("t_lat_us", "lat", &[("op", "put")], &[10, 100]);
        h.observe(5);
        h.observe(5000);
        let text = reg.render();
        let text2 = reg.render();
        assert_eq!(text, text2, "render must be stable");
        let a = text.find("t_a_total").unwrap();
        let b = text.find("t_b_total").unwrap();
        assert!(a < b, "families sorted by name");
        assert!(text.contains("t_b_total{enc=\"delta\"} 3"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("quantile=\"0.95\""));
        assert!(text.contains("t_depth -2"));
        let parsed = parse_exposition(&text).expect("own render must parse");
        assert!(parsed.has_family("t_lat_us"));
        assert_eq!(parsed.families.len(), 4);
        assert!(parsed.samples >= 10);
    }

    #[test]
    fn parser_rejects_damage() {
        assert!(parse_exposition("# TYPE x counter\nx notanumber").is_err());
        assert!(parse_exposition("x 1").is_err(), "sample without TYPE");
        assert!(parse_exposition("# TYPE x widget\nx 1").is_err(), "unknown type");
        assert!(parse_exposition("# TYPE x counter\nx{le=\"5\" 1").is_err(), "broken labels");
        assert!(parse_exposition("").unwrap().samples == 0);
    }
}
