//! Minimal wall-clock benchmarking harness.
//!
//! The workspace builds offline, so criterion is unavailable; this module
//! provides the subset the repo needs — auto-calibrated iteration counts,
//! best-of-N timing to suppress scheduler noise, and a JSON report writer
//! (`BENCH_*.json`) so every PR leaves a machine-readable perf record.

use snn_json::Json;
use std::time::Instant;

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (stable key for trend tracking).
    pub name: String,
    /// Nanoseconds per iteration (best sample).
    pub ns_per_iter: f64,
    /// Iterations per timed sample.
    pub iters: u64,
    /// Median per-iteration time across samples (p50; equals the best
    /// sample when only one sample was taken).
    pub p50_ns: f64,
    /// Tail per-iteration time across samples (p99 by nearest-rank; the
    /// worst sample for small sample counts).
    pub p99_ns: f64,
    /// Number of timed samples the percentiles were taken over.
    pub samples: u32,
}

impl Measurement {
    /// Iterations per second implied by the measurement.
    pub fn per_second(&self) -> f64 {
        if self.ns_per_iter > 0.0 {
            1e9 / self.ns_per_iter
        } else {
            f64::INFINITY
        }
    }
}

/// Runs `f` repeatedly and returns the best-sample time per iteration.
///
/// Calibrates the iteration count so one sample takes ≈`budget_ms`, then
/// takes `samples` samples and keeps the minimum (the standard way to
/// estimate the noise-free cost of a CPU-bound kernel).
pub fn bench_with<F: FnMut()>(name: &str, budget_ms: f64, samples: u32, mut f: F) -> Measurement {
    // Warm up and calibrate.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        if elapsed >= budget_ms.min(5.0) || iters >= 1 << 30 {
            let target = (iters as f64 * budget_ms / elapsed.max(1e-3)).ceil();
            iters = (target as u64).clamp(1, 1 << 30);
            break;
        }
        iters *= 2;
    }
    let mut times = Vec::with_capacity(samples.max(1) as usize);
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        times.push(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    let best = times.iter().copied().fold(f64::INFINITY, f64::min);
    times.sort_by(f64::total_cmp);
    Measurement {
        name: name.to_string(),
        ns_per_iter: best,
        iters,
        p50_ns: percentile(&times, 50.0),
        p99_ns: percentile(&times, 99.0),
        samples: times.len() as u32,
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`bench_with`] with the default budget (50 ms/sample, 3 samples).
pub fn bench<F: FnMut()>(name: &str, f: F) -> Measurement {
    bench_with(name, 50.0, 3, f)
}

/// Collects measurements and extra scalar metrics into a `BENCH_*.json`
/// report.
#[derive(Debug, Default)]
pub struct Report {
    measurements: Vec<Measurement>,
    metrics: Vec<(String, f64)>,
    notes: Vec<(String, String)>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs a benchmark, prints a one-line summary, and records it.
    pub fn run<F: FnMut()>(&mut self, name: &str, f: F) -> &Measurement {
        let m = bench(name, f);
        println!("{:<44} {:>12.0} ns/iter", m.name, m.ns_per_iter);
        self.measurements.push(m);
        self.measurements.last().expect("just pushed")
    }

    /// Records a derived scalar metric (speedups, scaling efficiencies…).
    pub fn metric(&mut self, name: &str, value: f64) {
        println!("{name:<44} {value:>12.3}");
        self.metrics.push((name.to_string(), value));
    }

    /// Records a string annotation (artifact paths, provenance) into the
    /// report's `notes` object.
    pub fn note(&mut self, name: &str, value: &str) {
        println!("{name:<44} {value}");
        self.notes.push((name.to_string(), value.to_string()));
    }

    /// Looks up a recorded measurement by name.
    pub fn get(&self, name: &str) -> Option<&Measurement> {
        self.measurements.iter().find(|m| m.name == name)
    }

    /// Renders the report as a JSON value, stamped with the `host` that
    /// produced it (hostname, OS, architecture, core count and git
    /// revision) so a committed row can be traced to its machine.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("host", host_json()),
            (
                "benchmarks",
                Json::Arr(
                    self.measurements
                        .iter()
                        .map(|m| {
                            Json::obj(vec![
                                ("name", Json::from(m.name.as_str())),
                                ("ns_per_iter", Json::from(m.ns_per_iter)),
                                ("iters", Json::from(m.iters as usize)),
                                ("p50_ns", Json::from(m.p50_ns)),
                                ("p99_ns", Json::from(m.p99_ns)),
                                ("samples", Json::from(m.samples as usize)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Obj(
                    self.notes
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the report to `path` as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().pretty() + "\n")?;
        println!("wrote {path}");
        Ok(())
    }
}

/// [`snn_obs::provenance::host_info`] as a JSON object: the `host` stamp
/// every `BENCH_*.json` carries.
pub fn host_json() -> Json {
    let host = snn_obs::provenance::host_info();
    Json::obj(vec![
        ("hostname", Json::from(host.hostname.as_str())),
        ("os", Json::from(host.os)),
        ("arch", Json::from(host.arch)),
        ("cores", Json::from(host.cores)),
        (
            "git_revision",
            host.git_revision.as_deref().map_or(Json::Null, Json::from),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let mut x = 0u64;
        let m = bench_with("noop-ish", 1.0, 2, || {
            x = x.wrapping_add(1);
            std::hint::black_box(x);
        });
        assert!(m.ns_per_iter >= 0.0 && m.ns_per_iter.is_finite());
        assert!(m.iters >= 1);
        assert!(m.per_second() > 0.0);
        // Percentiles bracket the best-of-N sample.
        assert_eq!(m.samples, 2);
        assert!(m.p50_ns >= m.ns_per_iter);
        assert!(m.p99_ns >= m.p50_ns);
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 99.0), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn report_roundtrip() {
        let mut r = Report::new();
        r.run("spin", || {
            std::hint::black_box(42u64);
        });
        r.metric("speedup", 3.5);
        r.note("manifest", "/tmp/run.manifest.jsonl");
        let j = r.to_json();
        assert!(j.get("benchmarks").unwrap().as_array().unwrap().len() == 1);
        assert_eq!(
            j.get("metrics").unwrap().get("speedup").unwrap().as_f64(),
            Some(3.5)
        );
        let bench = &j.get("benchmarks").unwrap().as_array().unwrap()[0];
        assert!(bench.get("p50_ns").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            j.get("notes")
                .unwrap()
                .get("manifest")
                .and_then(Json::as_str),
            Some("/tmp/run.manifest.jsonl")
        );
        assert!(r.get("spin").is_some());
        assert!(r.get("missing").is_none());
    }

    #[test]
    fn report_is_stamped_with_host_provenance() {
        let j = Report::new().to_json();
        let host = j.get("host").expect("host object");
        for key in ["hostname", "os", "arch", "cores", "git_revision"] {
            assert!(host.get(key).is_some(), "missing host.{key}");
        }
        assert!(host.get("cores").unwrap().as_f64().unwrap() >= 1.0);
    }
}
