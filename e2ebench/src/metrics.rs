//! Named metric values as a run reports them.

use std::collections::BTreeMap;

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub samples: usize,
}

/// A run's metrics by name.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.0.insert(name.to_owned(), Metric { value, samples });
    }
}
