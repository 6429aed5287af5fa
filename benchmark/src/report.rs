//! What one run found, and how it is printed.

use std::collections::BTreeMap;

use simpim_obs::Json;

use crate::spec::{self, Metric};

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that failed, other than single operations.
    pub problems: Vec<String>,
    /// Free-form lines for the human reader.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    /// A value with the number of samples it was computed from.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, Some(samples)));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.0)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// One line per metric: name, value, unit, clock, sample count.
    pub fn table(&self, metrics: &[Metric]) -> String {
        let mut out = String::new();
        for m in metrics {
            let (v, n) = self.values.get(m.name).copied().unwrap_or((0.0, None));
            let samples = n.map_or(String::new(), |n| format!("n={n}"));
            out.push_str(&format!(
                "{:<30} {:>16.6} {:<6} {:<8} {}\n",
                m.name,
                v,
                m.unit,
                m.clock.name(),
                samples
            ));
        }
        out
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the last holding exactly `metrics`.
    pub fn result_line(&self, metrics: &[Metric]) -> String {
        let entries = metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(self.get(m.name))),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(entries)),
        ])
        .to_string()
    }
}

/// The metric list a run with this `--trace` value prints.
pub fn metrics_for(trace: bool) -> &'static [Metric] {
    if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    }
}
