//! The result line: end-to-end metrics from a timed window, per-module
//! metrics from a traced run, and the host block printed beside them.

use crate::measure::{self, Cpu};
use std::fmt::Write as _;
use std::time::Instant;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one benchmark run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every request passed its output check.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed or did not pass their check.
    pub failed: u64,
    /// End-to-end or per-module metrics.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result. Values keep every digit Rust's shortest
    /// round-trip formatting gives; a non-finite value makes the run
    /// incorrect (JSON cannot carry it) and is written as `null`.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Raw observations of one closed-loop timed window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that completed and passed their output check.
    pub ok: u64,
    /// Process CPU time spent inside the window.
    pub cpu: Cpu,
    /// Consecutive slices of the window, see [`Slicer`].
    pub slices: Vec<Slice>,
}

/// A run of consecutive completions within a window.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Wall time from the previous slice's end (or the window's start).
    pub wall_s: f64,
    /// Units of work completed (requests, or samples for `infer`).
    pub work: f64,
    /// Process CPU time spent in the slice, in milliseconds.
    pub cpu_ms: f64,
    /// Wall time of each request completed in the slice, in
    /// milliseconds.
    pub latencies_ms: Vec<f64>,
}

/// Cuts a window into slices of `per` completions, so throughput and
/// CPU per request are medians over slices: a stall on the shared host
/// moves one slice, not the run's figure.
#[derive(Debug)]
pub struct Slicer {
    per: usize,
    open: Slice,
    since: Instant,
    cpu: f64,
    slices: Vec<Slice>,
}

impl Slicer {
    /// Starts the first slice now.
    pub fn new(per: usize) -> Slicer {
        Slicer {
            per,
            open: Slice::default(),
            since: Instant::now(),
            cpu: measure::process_cpu_ms(),
            slices: Vec::new(),
        }
    }

    /// Records one completed request that did `work` units of work and
    /// took `latency_ms`.
    pub fn complete(&mut self, work: f64, latency_ms: f64) {
        self.open.work += work;
        self.open.latencies_ms.push(latency_ms);
        if self.open.latencies_ms.len() == self.per {
            self.close();
        }
    }

    fn close(&mut self) {
        let cpu = measure::process_cpu_ms();
        self.open.wall_s = self.since.elapsed().as_secs_f64();
        self.open.cpu_ms = cpu - self.cpu;
        self.slices.push(std::mem::take(&mut self.open));
        self.since = Instant::now();
        self.cpu = cpu;
    }

    /// Closes a partly filled last slice and returns every slice.
    pub fn finish(mut self) -> Vec<Slice> {
        if !self.open.latencies_ms.is_empty() {
            self.close();
        }
        self.slices
    }
}

impl Window {
    /// Every request latency of the window, in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.slices
            .iter()
            .flat_map(|s| s.latencies_ms.iter().copied())
            .collect()
    }

    /// Median over slices of work completed per second.
    pub fn throughput(&self) -> f64 {
        let rates: Vec<f64> = self.slices.iter().map(|s| s.work / s.wall_s).collect();
        measure::median(&rates)
    }

    /// Median over slices of CPU milliseconds per completed request.
    pub fn cpu_ms_per_op(&self) -> f64 {
        let per: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.cpu_ms / s.latencies_ms.len() as f64)
            .collect();
        measure::median(&per)
    }

    /// The window cut down to its fastest `share` of slices (at least
    /// one), ranked by work per second. Counts and process CPU stay
    /// those of the whole window.
    pub fn fastest(&self, share: f64) -> Window {
        let mut slices = self.slices.clone();
        slices.sort_by(|a, b| (b.work / b.wall_s).total_cmp(&(a.work / a.wall_s)));
        slices.truncate(fast_count(slices.len(), share));
        Window {
            slices,
            ..self.clone()
        }
    }

    /// One line of whole-window figures, for stderr beside the result.
    pub fn describe(&self) -> String {
        let lat = self.latencies_ms();
        let work: f64 = self.slices.iter().map(|s| s.work).sum();
        let wall: f64 = self.slices.iter().map(|s| s.wall_s).sum();
        format!(
            "whole window {:.2}/s, p50 {:.3} ms, p90 {:.3} ms over {} requests in {} slices",
            work / wall,
            measure::median(&lat),
            measure::quantile(&lat, 0.9),
            lat.len(),
            self.slices.len()
        )
    }
}

/// Slices that make up the fastest `share` of `n` slices, at least one.
pub fn fast_count(n: usize, share: f64) -> usize {
    ((n as f64 * share).ceil() as usize).clamp(n.min(1), n)
}

/// Minimum completed requests a window's timings come from: the p90
/// needs at least ten samples beyond it.
pub const MIN_REQUESTS: usize = 100;

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
///
/// `setup_s` is the median over the run's set-up repetitions;
/// `final_top1` and `compression_x` are the workload's quality figures.
pub fn end_to_end(setup_s: &[f64], w: &Window, final_top1: f64, compression_x: f64) -> Vec<Metric> {
    let latencies = w.latencies_ms();
    vec![
        metric("setup_s", measure::median(setup_s), "s"),
        metric("throughput_per_s", w.throughput(), "1/s"),
        metric("latency_ms_p50", measure::median(&latencies), "ms"),
        metric("latency_ms_p90", measure::quantile(&latencies, 0.9), "ms"),
        metric(
            "ok_ratio",
            w.ok as f64 / w.attempted.max(1) as f64,
            "fraction",
        ),
        metric("peak_rss_mb", measure::peak_rss_mb(), "MiB"),
        metric("cpu_ms_per_op", w.cpu_ms_per_op(), "ms"),
        metric("final_top1", final_top1, "fraction"),
        metric("compression_x", compression_x, "x"),
    ]
}

/// The host block: what the numbers were measured on. Printed on its
/// own stdout line before the result.
pub fn host_json(daemon_workers: usize) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let rayon_env = std::env::var("RAYON_NUM_THREADS").ok();
    let kernel_threads = ccq_tensor::par::num_threads();
    let mut flags = Vec::new();
    if kernel_threads > cpus {
        flags.push(format!("kernel threads {kernel_threads} > {cpus} cpus"));
    }
    if daemon_workers > cpus {
        flags.push(format!("daemon workers {daemon_workers} > {cpus} cpus"));
    }
    format!(
        "{{\"host\": {{\"cpus\": {cpus}, \"rayon_num_threads\": {}, \"kernel_threads\": {kernel_threads}, \
         \"features\": \"default (parallel)\", \"daemon_workers\": {daemon_workers}, \
         \"oversubscribed\": [{}]}}}}",
        rayon_env.map_or("null".to_string(), |v| format!("\"{}\"", v.escape_default())),
        flags
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("a", 1.25, "ms"), metric("b", 2.0, "s")],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn fastest_keeps_the_quickest_slices_and_the_window_counts() {
        let slice = |wall_s: f64, lat: f64| Slice {
            wall_s,
            work: 10.0,
            cpu_ms: wall_s * 1e3,
            latencies_ms: vec![lat; 2],
        };
        let w = Window {
            attempted: 8,
            ok: 8,
            cpu: Cpu::default(),
            slices: vec![
                slice(2.0, 9.0),
                slice(1.0, 1.0),
                slice(4.0, 5.0),
                slice(3.0, 7.0),
            ],
        };
        let f = w.fastest(0.5);
        assert_eq!(f.latencies_ms(), vec![1.0, 1.0, 9.0, 9.0]);
        assert_eq!((f.attempted, f.ok), (8, 8));
        assert_eq!(f.throughput(), 5.0);
        assert_eq!(w.fastest(0.01).slices.len(), 1);
        assert_eq!(fast_count(0, 0.1), 0);
        assert_eq!(fast_count(41, 0.1), 5);
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let r = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![metric("a", f64::NAN, "ms")],
        };
        assert!(r.to_json().starts_with("{\"correct\": false"));
        assert!(r.to_json().contains("null"));
    }
}
