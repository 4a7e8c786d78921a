//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment has no network access, so the workspace vendors
//! the subset of the criterion API its benches use: [`Criterion`],
//! [`BenchmarkGroup`] with `sample_size` / `bench_function` /
//! `bench_with_input`, [`BenchmarkId`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros. Instead of criterion's statistical engine it
//! reports min / mean / max over `sample_size` timed samples, each sample
//! auto-scaled to run for roughly a millisecond.
//!
//! `--test` (what `cargo bench -- --test` passes) runs every benchmark
//! body exactly once and reports nothing, so CI can smoke-test benches
//! without paying measurement time. All other flags cargo forwards (e.g.
//! `--bench`, filter strings) are accepted and ignored.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level harness handle.
pub struct Criterion {
    test_mode: bool,
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            test_mode: false,
            default_sample_size: 10,
        }
    }
}

impl Criterion {
    /// Apply command-line arguments (`--test` is the only one honored).
    pub fn configure_from_args(mut self) -> Self {
        self.test_mode = std::env::args().any(|a| a == "--test");
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Benchmark a single closure outside any group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.default_sample_size;
        run_one(self.test_mode, name, sample_size, &mut f);
        self
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Benchmark `f` under `name` within this group.
    pub fn bench_function<F>(&mut self, name: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name);
        let n = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        run_one(self.criterion.test_mode, &full, n, &mut f);
        self
    }

    /// Benchmark `f` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        let n = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        run_one(self.criterion.test_mode, &full, n, &mut |b| f(b, input));
        self
    }

    /// End the group (report separator).
    pub fn finish(self) {
        if !self.criterion.test_mode {
            println!();
        }
    }
}

/// A benchmark identifier: function name plus a parameter rendering.
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }

    /// Parameter-only id (for single-function groups).
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            function: String::new(),
            parameter: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.function.is_empty() {
            write!(f, "{}", self.parameter)
        } else {
            write!(f, "{}/{}", self.function, self.parameter)
        }
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] runs the measured body.
pub struct Bencher {
    mode: BenchMode,
    samples: Vec<Duration>,
}

enum BenchMode {
    /// `--test`: run the body once, collect nothing.
    Once,
    /// Timed run: `sample_size` samples of `iters_per_sample` iterations.
    Timed { sample_size: usize },
}

impl Bencher {
    /// Run the benchmark body (once in `--test` mode, timed otherwise).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        match self.mode {
            BenchMode::Once => {
                std::hint::black_box(body());
            }
            BenchMode::Timed { sample_size } => {
                // calibrate: scale iterations to ~1ms per sample, capped
                let t0 = Instant::now();
                std::hint::black_box(body());
                let once = t0.elapsed().max(Duration::from_nanos(1));
                let iters = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 10_000)
                    as usize;
                self.samples.clear();
                for _ in 0..sample_size {
                    let t = Instant::now();
                    for _ in 0..iters {
                        std::hint::black_box(body());
                    }
                    self.samples.push(t.elapsed() / iters as u32);
                }
            }
        }
    }
}

fn run_one(test_mode: bool, name: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) {
    if test_mode {
        let mut b = Bencher {
            mode: BenchMode::Once,
            samples: Vec::new(),
        };
        f(&mut b);
        println!("test {name} ... ok");
        return;
    }
    let mut b = Bencher {
        mode: BenchMode::Timed { sample_size },
        samples: Vec::new(),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{name:<48} (no samples)");
        return;
    }
    let min = b.samples.iter().min().expect("nonempty");
    let max = b.samples.iter().max().expect("nonempty");
    let mean = b.samples.iter().sum::<Duration>() / b.samples.len() as u32;
    println!(
        "{name:<48} time: [{} {} {}]",
        fmt_duration(*min),
        fmt_duration(mean),
        fmt_duration(*max)
    );
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", d.as_secs_f64() * 1e3)
    } else if ns >= 1_000 {
        format!("{:.3} µs", d.as_secs_f64() * 1e6)
    } else {
        format!("{ns} ns")
    }
}

/// Re-export matching criterion's (deprecated) `criterion::black_box`.
pub use std::hint::black_box;

/// Bundle benchmark functions into a group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Generate `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $( $group(&mut c); )+
        }
    };
}
