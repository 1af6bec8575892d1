//! Metric catalog, quartiles and the hand-written JSON the run prints.

/// End-to-end metrics: printed by every untraced run (`--trace 0`), from
/// untraced passes only. Each is nonzero on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("windows_per_s", "1/s"),
];

/// Per-layer metrics: printed by every traced run (`--trace 1`), in this
/// order. A layer the workload never calls reports 0. The last block holds
/// the workload-scoped end-to-end figures, taken from the traced run's
/// untraced passes.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.step_ns", "ns"),
    ("sim.ns_per_instr", "ns"),
    ("sim.instrs", "count"),
    ("sim.cycles", "count"),
    ("sim.windows", "count"),
    ("sim.events_scheduled", "count"),
    ("sim.ready_pushes", "count"),
    ("sim.l1d_misses", "count"),
    ("sim.l2_misses", "count"),
    ("sim.dram_activations", "count"),
    ("attacks.build_ns", "ns"),
    ("featurize.ns", "ns"),
    ("featurize.rows", "count"),
    ("featurize.stats_ns", "ns"),
    ("collect.fit_ns", "ns"),
    ("collect.emit_ns", "ns"),
    ("collect.windows_simulated", "count"),
    ("collect.samples", "count"),
    ("collect.useful_ratio", "ratio"),
    ("score.ns", "ns"),
    ("score.rows", "count"),
    ("score.full_drains", "count"),
    ("score.tail_drains", "count"),
    ("secure.ns", "ns"),
    ("secure.switches", "count"),
    ("secure.instrs", "count"),
    ("fleet.build_ns", "ns"),
    ("fleet.self_ns", "ns"),
    ("gan.train_ns", "ns"),
    ("gan.augment_ns", "ns"),
    ("gan.params", "count"),
    ("gan.epochs", "count"),
    ("gan.samples", "count"),
    ("engineer.ns", "ns"),
    ("detector.train_ns", "ns"),
    ("detector.tune_ns", "ns"),
    ("detector.train_samples", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("sim_mips", "Minstr/s"),
    ("verdict_p50_us", "us"),
    ("verdict_p99_us", "us"),
    ("verdict_samples", "count"),
    ("detect_tpr", "ratio"),
    ("detect_fpr", "ratio"),
    ("secure_duty", "ratio"),
    ("error_rate", "ratio"),
];

/// Unit of a workload-scoped figure, from the catalog.
pub fn figure_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so the header's spreads read like
/// the ones computed over whole runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        ld => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// One reported metric: its median and quartiles over the run's passes.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Metrics in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, values: &[f64], unit: &'static str) {
        let (q1, median, q3) = quartiles(values);
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            median,
            q1,
            q3,
            n: values.len(),
        });
    }

    pub fn push_one(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, &[value], unit);
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// `{"name": {"value": median, "unit": ...}}` for every catalog entry,
    /// in catalog order; an entry this run did not measure reads 0.
    pub fn values_json(&self, catalog: &[(&str, &str)]) -> String {
        let mut obj = Json::object();
        for &(name, unit) in catalog {
            let value = self.get(name).map_or(0.0, |m| m.median);
            obj = obj.raw(
                name,
                &Json::object()
                    .num("value", value)
                    .str("unit", unit)
                    .finish(),
            );
        }
        obj.finish()
    }

    /// `{"name": {"unit", "median", "q1", "q3", "n"}}` for the header.
    pub fn quartiles_json(&self) -> String {
        let mut obj = Json::object();
        for m in &self.0 {
            obj = obj.raw(
                &m.name,
                &Json::object()
                    .str("unit", m.unit)
                    .num("median", m.median)
                    .num("q1", m.q1)
                    .num("q3", m.q3)
                    .num("n", m.n as f64)
                    .finish(),
            );
        }
        obj.finish()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal JSON object builder; numbers keep every digit `f64` holds.
pub struct Json(Vec<String>);

impl Json {
    pub fn object() -> Self {
        Json(Vec::new())
    }

    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.0.push(format!("{}:{}", quote(key), value));
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        let v = quote(value);
        self.raw(key, &v)
    }

    /// Non-finite values have no JSON form; they cannot arise from the
    /// measured quantities and are written as `null` if they ever do.
    pub fn num(self, key: &str, value: f64) -> Self {
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.raw(key, &v)
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    /// The catalogs and `BENCHMARK.json` name the same metrics with the
    /// same units, so a run always prints exactly what the file declares.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let k = entry.find(&format!("\"{key}\"")).expect("key present");
                        let rest = &entry[k + key.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |catalog: &[(&str, &str)]| -> Vec<(String, String)> {
            catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(END_TO_END));
        assert_eq!(declared("per_layer"), own(PER_LAYER));
    }
}
