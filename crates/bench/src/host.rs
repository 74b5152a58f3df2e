//! Everything the harness reads from the host: wall clock, environment,
//! arguments and worker threads. Each read is an item-level waiver of
//! `clippy.toml`'s rules, and this module holds them all.
//!
//! Wall time leaves this module only as an opaque [`HostSecs`], which can
//! be displayed and nothing else: no accessor, no conversion, no
//! arithmetic. So the compiler, not a lint, keeps a host time out of a
//! digest, a result file or a sort key. A host time cannot reach the
//! sanitizer:
//!
//! ```compile_fail
//! # use skyrise::sim::Sanitizer;
//! # use skyrise_bench::host::Stopwatch;
//! let wall = Stopwatch::start().elapsed();
//! Sanitizer::new().observe("wall", wall);
//! ```
//!
//! nor become a number on the way there:
//!
//! ```compile_fail
//! # use skyrise_bench::host::Stopwatch;
//! let nanos: u64 = Stopwatch::start().elapsed().into();
//! ```
//!
//! while a summary line can show it:
//!
//! ```
//! # use skyrise_bench::host::Stopwatch;
//! let wall = Stopwatch::start().elapsed();
//! assert!(format!("{wall:.1}").ends_with('s'));
//! ```

use std::fmt;
use std::time::Instant;

/// A wall-clock duration on the host, for a human to read. It implements
/// [`Display`](fmt::Display) (seconds, honouring the precision, with an
/// `s` suffix) and nothing that yields a number.
#[derive(Debug, Clone, Copy)]
pub struct HostSecs(f64);

impl fmt::Display for HostSecs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)?;
        f.write_str("s")
    }
}

/// Measures host wall time from its start.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start measuring now.
    #[expect(
        clippy::disallowed_methods,
        reason = "the harness times itself for its summary lines"
    )]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Wall time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> HostSecs {
        HostSecs(self.0.elapsed().as_secs_f64())
    }
}

/// The value of environment variable `name`, if set and valid Unicode.
#[expect(
    clippy::disallowed_methods,
    reason = "harness configuration (SKYRISE_RESULTS, SKYRISE_FULL), resolved once by its callers"
)]
pub fn env_var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The process's arguments after the program name.
#[expect(
    clippy::disallowed_methods,
    reason = "the CLI shell reads its arguments"
)]
pub fn args() -> impl Iterator<Item = String> {
    std::env::args().skip(1)
}

/// One per available hardware thread (at least one).
#[expect(
    clippy::disallowed_methods,
    reason = "the default worker count of the parallel harness"
)]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `worker` on `threads` OS threads at once and return when all have.
/// A panic on any thread propagates once the others are done.
#[expect(
    clippy::disallowed_methods,
    reason = "the parallel harness runs whole experiments, each single-threaded, side by side"
)]
pub fn on_threads(threads: usize, worker: impl Fn() + Sync) {
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(&worker);
        }
    });
}
