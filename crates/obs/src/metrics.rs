//! A small metrics registry — counters, gauges and log₂ histograms — with
//! a JSON-lines snapshot exporter.
//!
//! The registry is how a run's quantitative shape (per-filter hit counts,
//! cascade depth, control-plane bytes, classify-to-action latency) gets
//! out of the engines and into something diffable: `to_jsonl()` emits one
//! sorted JSON object per metric, so two runs can be compared with plain
//! `diff`.

use std::collections::BTreeMap;
use std::fmt;

use vw_packet::codec::{Reader, Writer};
use vw_packet::ParseError;
use vw_trace::json_string;

/// A fixed-size log₂-bucketed histogram of `u64` observations.
///
/// Bucket `i` holds values whose bit length is `i` (bucket 0 holds the
/// value 0), so the whole `u64` range fits in 65 buckets with no
/// allocation per observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observation, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the observations, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `true` if nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at percentile `p` (in `[0, 100]`), or 0 if empty.
    ///
    /// Resolution is the histogram's: the rank-`⌈p/100·count⌉`
    /// observation is located in its log₂ bucket and the **bucket upper
    /// bound** is returned (bucket 0 → 0, bucket *i* → `2^i − 1`),
    /// clamped to the largest observation actually seen. The estimate is
    /// therefore conservative — never below the true percentile, and at
    /// most one power of two above it — which is the right bias for
    /// regression gates ("p99 got worse" is never reported as better by
    /// bucketing).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // ceil(p/100 * count), computed in f64 (count and rank both fit
        // comfortably below 2^53 for any realistic run), at least rank 1.
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one: buckets, count and sum add;
    /// min/max take the tighter envelope. Merging an empty histogram is a
    /// no-op; merging *into* an empty one copies `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Appends an exact binary serialization of this histogram to `w`.
    ///
    /// Layout (in the writer's byte order; every user is little-endian):
    /// `count u64, sum u128, min u64 (raw, including the `u64::MAX` empty
    /// sentinel), max u64, nonzero-bucket count u8, then (bucket index
    /// u8, bucket count u64) pairs`. The encoding exists so external
    /// stores (the `vw-serve` checkpoint log) can round-trip a histogram
    /// bit-for-bit; [`Histogram::decode_from`] inverts it.
    pub fn encode_into(&self, w: &mut Writer<'_>) {
        w.u64(self.count);
        w.u128(self.sum);
        w.u64(self.min);
        w.u64(self.max);
        let nonzero = self.buckets.iter().enumerate().filter(|(_, &n)| n > 0);
        w.len8(nonzero.clone().count());
        for (i, &n) in nonzero {
            w.u8(i as u8);
            w.u64(n);
        }
    }

    /// Decodes a histogram written by [`Histogram::encode_into`].
    ///
    /// # Errors
    ///
    /// On truncation, an out-of-range or empty bucket, bucket indices that
    /// do not strictly increase, or bucket counts that do not sum to
    /// `count` (the bytes come from checkpoint logs and telemetry deltas).
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Histogram, ParseError> {
        let mut h = Histogram {
            count: r.u64()?,
            sum: r.u128()?,
            min: r.u64()?,
            max: r.u64()?,
            ..Histogram::default()
        };
        // The least index the next bucket may take, and the counts so far.
        let (mut next, mut total) = (0, 0u64);
        r.list8(9, |r| {
            let i = usize::from(r.u8()?);
            match (h.buckets.get_mut(i), r.u64()?) {
                (Some(slot), n) if n > 0 && i >= next => {
                    *slot = n;
                    next = i + 1;
                    total = total
                        .checked_add(n)
                        .ok_or_else(|| ParseError::new("histogram bucket counts overflow"))?;
                }
                _ => return Err(ParseError::new("bad histogram bucket")),
            }
            Ok(())
        })?;
        if total != h.count {
            return Err(ParseError::new("histogram buckets disagree with its count"));
        }
        Ok(h)
    }

    /// Non-empty buckets as `(bucket_floor, count)` pairs, where
    /// `bucket_floor` is the smallest value the bucket can hold.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
            .collect()
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time signed value.
    Gauge(i64),
    /// A distribution of `u64` observations (boxed: a [`Histogram`] is
    /// ~0.5 KiB of buckets, far larger than the scalar variants).
    Histogram(Box<Histogram>),
}

/// A named collection of metrics, keyed by dotted path
/// (e.g. `node1.filter_hits.udp_data`).
///
/// Iteration order is the key's lexicographic order, which makes the
/// JSONL snapshot stable and diff-friendly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The series `name`, created from `init` on first use. The key is
    /// allocated only then: the daemon bumps existing series under its
    /// metrics mutex for every decoded frame.
    fn series(&mut self, name: &str, init: fn() -> Metric) -> &mut Metric {
        if self.entries.contains_key(name) {
            self.entries.get_mut(name).expect("just seen")
        } else {
            self.entries.entry(name.to_string()).or_insert_with(init)
        }
    }

    /// Adds `delta` to the counter `name`, creating it at 0 first.
    /// Panics if `name` is registered as a different metric kind.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        match self.series(name, || Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            other => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    /// Sets the gauge `name`, creating it if needed.
    /// Panics if `name` is registered as a different metric kind.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        match self.series(name, || Metric::Gauge(0)) {
            Metric::Gauge(v) => *v = value,
            other => panic!("metric {name:?} is not a gauge: {other:?}"),
        }
    }

    /// Records one observation into the histogram `name`, creating it if
    /// needed. Panics if `name` is registered as a different metric kind.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.series(name, || Metric::Histogram(Box::default())) {
            Metric::Histogram(h) => h.observe(value),
            other => panic!("metric {name:?} is not a histogram: {other:?}"),
        }
    }

    /// Stores an already-populated histogram under `name`, replacing any
    /// previous entry.
    pub fn insert_histogram(&mut self, name: &str, histogram: Histogram) {
        self.entries
            .insert(name.to_string(), Metric::Histogram(Box::new(histogram)));
    }

    /// The counter's value, if `name` is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The gauge's value, if `name` is a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.entries.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram, if `name` is a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.entries.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// All metrics in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Snapshot as JSON lines: one object per metric, keys sorted, so two
    /// snapshots can be compared with `diff`.
    ///
    /// Shapes:
    /// ```json
    /// {"name":"node1.classified","type":"counter","value":7}
    /// {"name":"node1.drops","type":"gauge","value":-1}
    /// {"name":"node1.cascade_depth","type":"histogram","count":3,"sum":9,"min":1,"max":5,"mean":3.0,"buckets":[[1,2],[4,1]]}
    /// ```
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.entries {
            out.push_str("{\"name\":");
            json_string(&mut out, name);
            match metric {
                Metric::Counter(v) => {
                    out.push_str(&format!(",\"type\":\"counter\",\"value\":{v}"));
                }
                Metric::Gauge(v) => {
                    out.push_str(&format!(",\"type\":\"gauge\",\"value\":{v}"));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"buckets\":[",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.mean(),
                    ));
                    for (i, (floor, n)) in h.nonzero_buckets().iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{floor},{n}]"));
                    }
                    out.push(']');
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Snapshot in the Prometheus text exposition format (version 0.0.4):
    /// one `# TYPE` header per metric, histograms expanded into
    /// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
    /// Dotted metric names become underscore-separated (Prometheus names
    /// may not contain `.`); keys keep the registry's sorted order.
    ///
    /// ```text
    /// # TYPE node1_classified counter
    /// node1_classified 7
    /// # TYPE node1_cascade_depth histogram
    /// node1_cascade_depth_bucket{le="1"} 2
    /// node1_cascade_depth_bucket{le="7"} 3
    /// node1_cascade_depth_bucket{le="+Inf"} 3
    /// node1_cascade_depth_sum 9
    /// node1_cascade_depth_count 3
    /// ```
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (key, metric) in &self.entries {
            let (base, labels) = split_labels(key);
            let name = prometheus_name(base);
            let labels = render_labels(labels);
            // Labeled series of the same family sort adjacent (the key
            // prefix is shared), so one `# TYPE` header covers them all.
            let new_family = name != last_family;
            if new_family {
                last_family.clone_from(&name);
            }
            match metric {
                Metric::Counter(v) => {
                    if new_family {
                        out.push_str(&format!("# TYPE {name} counter\n"));
                    }
                    out.push_str(&format!("{name}{labels} {v}\n"));
                }
                Metric::Gauge(v) => {
                    if new_family {
                        out.push_str(&format!("# TYPE {name} gauge\n"));
                    }
                    out.push_str(&format!("{name}{labels} {v}\n"));
                }
                Metric::Histogram(h) => {
                    if new_family {
                        out.push_str(&format!("# TYPE {name} histogram\n"));
                    }
                    // A histogram's bucket series carry `le` alongside any
                    // key labels: `{campaign="x",le="7"}`.
                    let with = |extra: &str| -> String {
                        match (labels.is_empty(), extra.is_empty()) {
                            (true, true) => String::new(),
                            (true, false) => format!("{{{extra}}}"),
                            (false, true) => labels.clone(),
                            (false, false) => {
                                format!("{{{},{extra}}}", &labels[1..labels.len() - 1])
                            }
                        }
                    };
                    let mut cumulative = 0u64;
                    for (i, n) in h.buckets.iter().enumerate() {
                        if *n == 0 {
                            continue;
                        }
                        cumulative += n;
                        // Log₂ bucket `i` holds values of bit length `i`,
                        // so its inclusive upper bound is `2^i - 1`. The
                        // last bucket's bound (u64::MAX) is left to the
                        // mandatory +Inf series.
                        if i < 64 {
                            let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                with(&format!("le=\"{upper}\""))
                            ));
                        }
                    }
                    out.push_str(&format!(
                        "{name}_bucket{} {}\n{name}_sum{labels} {}\n{name}_count{labels} {}\n",
                        with("le=\"+Inf\""),
                        h.count(),
                        h.sum(),
                        h.count()
                    ));
                }
            }
        }
        out
    }

    /// Folds every metric of `other` into this registry: counters add,
    /// gauges overwrite (last writer wins), histograms merge bucketwise;
    /// entries missing here are copied in. This is how per-worker
    /// registries collapse into the daemon's global one without the
    /// workers ever sharing a lock on the hot path.
    ///
    /// Panics if the same name is registered as different kinds on the
    /// two sides — that's a programming error, same as the single-name
    /// accessors.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, metric) in &other.entries {
            match self.entries.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(metric.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    match (slot.get_mut(), metric) {
                        (Metric::Counter(a), Metric::Counter(b)) => *a += b,
                        (Metric::Gauge(a), Metric::Gauge(b)) => *a = *b,
                        (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(b),
                        (mine, theirs) => {
                            panic!("metric {name:?} kind mismatch: {mine:?} vs {theirs:?}")
                        }
                    }
                }
            }
        }
    }

    /// Removes the metric `name` (with or without labels). Returns `true`
    /// if an entry was removed. Used by the daemon to retire per-campaign
    /// series when a campaign is forgotten.
    pub fn remove(&mut self, name: &str) -> bool {
        self.entries.remove(name).is_some()
    }

    /// Encodes the entries of `self` that are **new or changed** relative
    /// to `prev`, plus tombstones for entries `prev` has but `self`
    /// doesn't, as a compact binary delta. Applying the result to a copy
    /// of `prev` with [`MetricsRegistry::apply_delta`] reproduces `self`
    /// exactly.
    ///
    /// Layout (little-endian): `entry count u32`, then per entry a tag
    /// byte (`0` counter, `1` gauge, `2` histogram, `0xFF` removed), the
    /// key as `len u16 + bytes`, and the value (`u64` / `i64` /
    /// [`Histogram::encode_into`]; removed entries carry no value).
    /// Values are absolute, not arithmetic diffs — a delta is "these
    /// series changed, here are their new states", which keeps a dropped
    /// delta recoverable by the next one.
    ///
    /// # Panics
    ///
    /// If a key is longer than its `u16` prefix can say (65 535 bytes).
    pub fn encode_delta_from(&self, prev: &MetricsRegistry) -> Vec<u8> {
        // The count leads the entries, so they are encoded first.
        let mut body = Vec::new();
        let mut w = Writer::le(&mut body);
        let mut count = 0;
        for (name, metric) in &self.entries {
            if prev.entries.get(name) == Some(metric) {
                continue;
            }
            count += 1;
            match metric {
                Metric::Counter(v) => {
                    w.u8(0);
                    w.str16(name);
                    w.u64(*v);
                }
                Metric::Gauge(v) => {
                    w.u8(1);
                    w.str16(name);
                    w.i64(*v);
                }
                Metric::Histogram(h) => {
                    w.u8(2);
                    w.str16(name);
                    h.encode_into(&mut w);
                }
            }
        }
        for name in prev.entries.keys() {
            if !self.entries.contains_key(name) {
                count += 1;
                w.u8(0xFF);
                w.str16(name);
            }
        }
        let mut out = Vec::with_capacity(4 + body.len());
        let mut w = Writer::le(&mut out);
        w.len32(count);
        w.bytes(&body);
        out
    }

    /// Applies a delta produced by [`MetricsRegistry::encode_delta_from`]
    /// to this registry. Returns `None` (leaving the registry in a
    /// partially-applied state) on truncation, invalid UTF-8, unknown
    /// tags or trailing bytes — callers treating the delta as untrusted
    /// wire input should discard the registry on failure.
    pub fn apply_delta(&mut self, bytes: &[u8]) -> Option<()> {
        // Each entry is at least tag + empty key = 3 bytes.
        let entries = |r: &mut Reader<'_>| {
            r.list32(3, |r| {
                let tag = r.u8()?;
                let name = r.str16()?;
                let metric = match tag {
                    0 => Metric::Counter(r.u64()?),
                    1 => Metric::Gauge(r.i64()?),
                    2 => Metric::Histogram(Box::new(Histogram::decode_from(r)?)),
                    0xFF => {
                        self.entries.remove(&name);
                        return Ok(());
                    }
                    _ => return Err(ParseError::new("unknown delta tag")),
                };
                self.entries.insert(name, metric);
                Ok(())
            })
        };
        Reader::le(bytes).whole(entries).ok().map(drop)
    }
}

/// Maps a registry key to a valid Prometheus metric name: `[a-zA-Z0-9_:]`
/// pass through, everything else (dots included) becomes `_`, and a
/// leading digit gets a `_` prefix.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid = c.is_ascii_alphabetic() || c == '_' || c == ':' || c.is_ascii_digit();
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if valid { c } else { '_' });
    }
    out
}

/// Builds a labeled registry key: `base|k1=v1,k2=v2` (labels sorted by
/// the caller's order, conventionally already sorted). The registry
/// treats the whole string as the key — two label sets are two series —
/// while [`MetricsRegistry::to_prometheus`] renders the suffix as
/// `{k1="v1",k2="v2"}`. Label *values* may contain anything except the
/// `|` and `,` separators; keys should be bare identifiers.
pub fn labeled_key(base: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::from(base);
    for (i, (k, v)) in labels.iter().enumerate() {
        out.push(if i == 0 { '|' } else { ',' });
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out
}

/// Splits a registry key into `(base, label_suffix)` at the first `|`.
fn split_labels(key: &str) -> (&str, &str) {
    match key.split_once('|') {
        Some((base, labels)) => (base, labels),
        None => (key, ""),
    }
}

/// Renders a `k1=v1,k2=v2` suffix as `{k1="v1",k2="v2"}` with label
/// values escaped per the Prometheus text format (`\\`, `\"`, `\n`).
/// Returns the empty string for an empty suffix.
fn render_labels(suffix: &str) -> String {
    if suffix.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, pair) in suffix.split(',').enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.push_str(&prometheus_name(k));
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 3, 8, 1023] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1036);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1023);
        let buckets = h.nonzero_buckets();
        // 0 → bucket floor 0; 1,1 → floor 1; 3 → floor 2; 8 → floor 8; 1023 → floor 512.
        assert_eq!(buckets, vec![(0, 1), (1, 2), (2, 1), (8, 1), (512, 1)]);
    }

    #[test]
    fn histogram_extremes() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.nonzero_buckets(), vec![(1u64 << 63, 1)]);
        let empty = Histogram::new();
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.mean(), 0.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn percentiles_use_bucket_upper_bounds_clamped_to_max() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        // Rank 50 → value 50 → bucket of bit length 6 → upper bound 63.
        assert_eq!(h.percentile(50.0), 63);
        // Rank 90 → value 90 → bucket upper bound 127, clamped to max 100.
        assert_eq!(h.percentile(90.0), 100);
        assert_eq!(h.percentile(99.0), 100);
        // p=0 still resolves rank 1 (value 1 → upper bound 1).
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 100);
    }

    #[test]
    fn percentile_edge_buckets() {
        let mut h = Histogram::new();
        h.observe(0);
        assert_eq!(h.percentile(50.0), 0, "bucket 0 holds exactly the value 0");
        h.observe(u64::MAX);
        assert_eq!(h.percentile(1.0), 0);
        assert_eq!(h.percentile(100.0), u64::MAX);
        // A single mid-range observation: upper bound clamps to it.
        let mut one = Histogram::new();
        one.observe(1000);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(one.percentile(p), 1000);
        }
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        let empty = Histogram::new();
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(empty.percentile(p), 0);
        }
    }

    #[test]
    fn merge_adds_buckets_and_tracks_envelope() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 2, 3] {
            a.observe(v);
        }
        for v in [100u64, 200] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 306);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 200);
        assert_eq!(a.percentile(100.0), 200);
        // Merge must agree with observing everything into one histogram.
        let mut c = Histogram::new();
        for v in [1u64, 2, 3, 100, 200] {
            c.observe(v);
        }
        assert_eq!(a, c);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = Histogram::new();
        a.observe(7);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before, "merging an empty histogram changes nothing");
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before, "merging into empty copies the other side");
        let mut both = Histogram::new();
        both.merge(&Histogram::new());
        assert!(both.is_empty());
        assert_eq!(both.min(), 0);
    }

    #[test]
    fn registry_kinds_and_lookup() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("a.hits", 2);
        reg.add_counter("a.hits", 3);
        reg.set_gauge("a.depth", -4);
        reg.observe("a.lat", 100);
        assert_eq!(reg.counter("a.hits"), Some(5));
        assert_eq!(reg.gauge("a.depth"), Some(-4));
        assert_eq!(reg.histogram("a.lat").unwrap().count(), 1);
        assert_eq!(reg.counter("a.depth"), None);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn jsonl_is_sorted_and_parseable_shape() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("z.last", 1);
        reg.add_counter("a.first", 7);
        reg.observe("m.mid", 3);
        let out = reg.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"name\":\"a.first\""));
        assert!(lines[1].starts_with("{\"name\":\"m.mid\""));
        assert!(lines[2].starts_with("{\"name\":\"z.last\""));
        assert_eq!(
            lines[0],
            "{\"name\":\"a.first\",\"type\":\"counter\",\"value\":7}"
        );
        assert!(lines[1].contains("\"type\":\"histogram\""));
        assert!(lines[1].contains("\"buckets\":[[2,1]]"));
        for line in &lines {
            // Crude structural sanity: balanced braces/brackets, no raw newlines.
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn jsonl_escapes_names() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("weird\"name\\with\nstuff", 1);
        let out = reg.to_jsonl();
        assert!(out.contains("weird\\\"name\\\\with\\nstuff"));
    }

    #[test]
    fn prometheus_golden_output() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("node1.classified", 7);
        reg.set_gauge("node1.queue.depth", -2);
        for v in [1u64, 1, 5] {
            reg.observe("node1.cascade_depth", v);
        }
        let golden = "\
# TYPE node1_cascade_depth histogram
node1_cascade_depth_bucket{le=\"1\"} 2
node1_cascade_depth_bucket{le=\"7\"} 3
node1_cascade_depth_bucket{le=\"+Inf\"} 3
node1_cascade_depth_sum 7
node1_cascade_depth_count 3
# TYPE node1_classified counter
node1_classified 7
# TYPE node1_queue_depth gauge
node1_queue_depth -2
";
        assert_eq!(reg.to_prometheus(), golden);
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_inf() {
        let mut reg = MetricsRegistry::new();
        reg.observe("lat", 0);
        reg.observe("lat", u64::MAX);
        let out = reg.to_prometheus();
        assert!(out.contains("lat_bucket{le=\"0\"} 1\n"));
        // The u64::MAX observation lands in bucket 64, surfaced only via +Inf.
        assert!(out.contains("lat_bucket{le=\"+Inf\"} 2\n"));
        assert!(out.contains(&format!("lat_sum {}\n", u64::MAX as u128)));
        assert!(out.contains("lat_count 2\n"));
    }

    #[test]
    fn prometheus_name_sanitization() {
        assert_eq!(prometheus_name("a.b-c.d"), "a_b_c_d");
        assert_eq!(prometheus_name("0start"), "_0start");
        assert_eq!(prometheus_name("ok_name:x9"), "ok_name:x9");
    }

    #[test]
    fn histogram_codec_round_trips_exactly() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 3, 8, 1023, u64::MAX] {
            h.observe(v);
        }
        let mut buf = vec![0xAA]; // leading bytes the codec appends after
        h.encode_into(&mut Writer::le(&mut buf));
        buf.extend_from_slice(&[0xBB, 0xCC]); // trailing bytes left unread
        let mut r = Reader::le(&buf[1..]);
        let back = Histogram::decode_from(&mut r).expect("decodes");
        assert_eq!(back, h);
        assert_eq!(r.remaining(), 2, "decode stops exactly after the histogram");

        // The empty histogram round-trips too (min sentinel preserved).
        let empty = Histogram::new();
        let mut buf = Vec::new();
        empty.encode_into(&mut Writer::le(&mut buf));
        let back = Histogram::decode_from(&mut Reader::le(&buf)).expect("decodes");
        assert_eq!(back, empty);
        assert_eq!(back.min(), 0);
        assert!(back.is_empty());
    }

    #[test]
    fn histogram_decode_rejects_truncation_and_bad_buckets() {
        let mut h = Histogram::new();
        h.observe(7);
        let mut buf = Vec::new();
        h.encode_into(&mut Writer::le(&mut buf));
        for cut in 0..buf.len() {
            assert!(
                Histogram::decode_from(&mut Reader::le(&buf[..cut])).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // Bucket index past the array is rejected, not a panic.
        let idx_at = buf.len() - 9;
        let mut bad = buf.clone();
        bad[idx_at] = 65;
        assert!(Histogram::decode_from(&mut Reader::le(&bad)).is_err());
    }

    /// An encoded histogram of the observations 4 and 5 (sum 9, both in
    /// bucket 3), with its count and bucket list as given.
    fn forged(count: u64, buckets: &[(u8, u64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = Writer::le(&mut buf);
        w.u64(count);
        w.u128(9);
        w.u64(4);
        w.u64(5);
        w.len8(buckets.len());
        for &(i, n) in buckets {
            w.u8(i);
            w.u64(n);
        }
        buf
    }

    #[test]
    fn histogram_decode_rejects_a_repeated_bucket_index() {
        let honest = forged(2, &[(3, 2)]);
        assert!(Histogram::decode_from(&mut Reader::le(&honest)).is_ok());
        // The second record for bucket 3 would overwrite the first.
        let repeated = forged(2, &[(3, 1), (3, 1)]);
        assert!(Histogram::decode_from(&mut Reader::le(&repeated)).is_err());
    }

    #[test]
    fn histogram_decode_rejects_a_count_its_buckets_disagree_with() {
        let wrong = forged(3, &[(3, 2)]);
        assert!(Histogram::decode_from(&mut Reader::le(&wrong)).is_err());
    }

    #[test]
    fn merge_from_folds_all_kinds() {
        let mut a = MetricsRegistry::new();
        a.add_counter("c", 3);
        a.set_gauge("g", 1);
        a.observe("h", 10);
        let mut b = MetricsRegistry::new();
        b.add_counter("c", 4);
        b.set_gauge("g", -9);
        b.observe("h", 20);
        b.add_counter("only_b", 1);
        a.merge_from(&b);
        assert_eq!(a.counter("c"), Some(7));
        assert_eq!(a.gauge("g"), Some(-9), "gauge takes the merged-in value");
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.counter("only_b"), Some(1));
        // Merging an empty registry is a no-op.
        let before = a.clone();
        a.merge_from(&MetricsRegistry::new());
        assert_eq!(a, before);
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn merge_from_panics_on_kind_mismatch() {
        let mut a = MetricsRegistry::new();
        a.add_counter("x", 1);
        let mut b = MetricsRegistry::new();
        b.set_gauge("x", 1);
        a.merge_from(&b);
    }

    #[test]
    fn labeled_keys_render_as_prometheus_labels() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter(&labeled_key("sweep.total", &[("campaign", "night-01")]), 16);
        reg.add_counter(&labeled_key("sweep.total", &[("campaign", "day-02")]), 8);
        reg.set_gauge(
            &labeled_key("build.info", &[("version", "1.0"), ("arch", "x86")]),
            1,
        );
        let out = reg.to_prometheus();
        assert!(out.contains("sweep_total{campaign=\"night-01\"} 16\n"));
        assert!(out.contains("sweep_total{campaign=\"day-02\"} 8\n"));
        assert!(out.contains("build_info{version=\"1.0\",arch=\"x86\"} 1\n"));
        // One TYPE header per family, not per labeled series.
        assert_eq!(out.matches("# TYPE sweep_total counter").count(), 1);
    }

    #[test]
    fn labeled_histogram_merges_le_into_label_set() {
        let mut reg = MetricsRegistry::new();
        reg.observe(&labeled_key("wall_ns", &[("campaign", "x")]), 5);
        let out = reg.to_prometheus();
        assert!(
            out.contains("wall_ns_bucket{campaign=\"x\",le=\"7\"} 1\n"),
            "missing merged label set in:\n{out}"
        );
        assert!(out.contains("wall_ns_sum{campaign=\"x\"} 5\n"));
        assert!(out.contains("wall_ns_count{campaign=\"x\"} 1\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter(&labeled_key("m", &[("name", "a\"b\\c")]), 1);
        let out = reg.to_prometheus();
        assert!(out.contains("m{name=\"a\\\"b\\\\c\"} 1\n"), "got:\n{out}");
    }

    #[test]
    fn delta_round_trips_changes_and_tombstones() {
        let mut prev = MetricsRegistry::new();
        prev.add_counter("stable", 1);
        prev.add_counter("bumped", 5);
        prev.set_gauge("gone", 9);
        let mut cur = prev.clone();
        cur.remove("gone");
        cur.add_counter("bumped", 2);
        cur.observe("fresh.hist", 100);
        cur.set_gauge("fresh.gauge", -3);

        let delta = cur.encode_delta_from(&prev);
        let mut rebuilt = prev.clone();
        rebuilt.apply_delta(&delta).expect("applies");
        assert_eq!(rebuilt, cur);

        // Unchanged entries don't travel: the delta is smaller than a
        // full snapshot would be.
        let full = cur.encode_delta_from(&MetricsRegistry::new());
        assert!(delta.len() < full.len());

        // No changes → a header-only delta that applies as a no-op.
        let empty = cur.encode_delta_from(&cur);
        assert_eq!(empty.len(), 4);
        let mut same = cur.clone();
        same.apply_delta(&empty).expect("applies");
        assert_eq!(same, cur);
    }

    #[test]
    fn delta_from_empty_is_a_full_snapshot() {
        let mut cur = MetricsRegistry::new();
        cur.add_counter("a", 1);
        cur.observe("b", 7);
        let delta = cur.encode_delta_from(&MetricsRegistry::new());
        let mut rebuilt = MetricsRegistry::new();
        rebuilt.apply_delta(&delta).expect("applies");
        assert_eq!(rebuilt, cur);
    }

    /// Encode and decode share one key rule, the `u16` prefix: a key the
    /// encoder accepts is a key the decoder accepts.
    #[test]
    fn delta_round_trips_a_5000_byte_key() {
        let mut cur = MetricsRegistry::new();
        cur.add_counter(&"k".repeat(5000), 7);
        let mut rebuilt = MetricsRegistry::new();
        rebuilt
            .apply_delta(&cur.encode_delta_from(&MetricsRegistry::new()))
            .expect("applies");
        assert_eq!(rebuilt, cur);
    }

    #[test]
    fn apply_delta_rejects_garbage() {
        let mut cur = MetricsRegistry::new();
        cur.add_counter("a", 1);
        cur.set_gauge("g", 2);
        cur.observe("h", 3);
        let good = cur.encode_delta_from(&MetricsRegistry::new());
        for cut in 0..good.len() {
            let mut reg = MetricsRegistry::new();
            assert!(
                reg.apply_delta(&good[..cut]).is_none(),
                "truncation at {cut} must fail"
            );
        }
        // Trailing junk is strict-framing rejected.
        let mut extra = good.clone();
        extra.push(0);
        assert!(MetricsRegistry::new().apply_delta(&extra).is_none());
        // Unknown tag byte.
        let mut bad = good.clone();
        bad[4] = 7;
        assert!(MetricsRegistry::new().apply_delta(&bad).is_none());
        // A count that can't fit the buffer is rejected up front.
        let mut huge = good.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(MetricsRegistry::new().apply_delta(&huge).is_none());
    }

    #[test]
    fn snapshots_diff_cleanly() {
        let mut a = MetricsRegistry::new();
        a.add_counter("x", 1);
        let mut b = a.clone();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        b.add_counter("x", 1);
        assert_ne!(a.to_jsonl(), b.to_jsonl());
    }
}
