//! Time slices, CPU pinning and spread-out set-ups for the measured loops.
//!
//! On a small shared host the program does not run at one speed: another
//! tenant's load on a sibling hardware thread or the shared caches slows
//! whole stretches of a few hundred milliseconds by up to 60%, on either
//! core, while the stretches between them run at one steady speed. So the
//! loops cut a run into slices of [`SLICE`], tag every op with its slice,
//! and the end-to-end figures come from the quietest slices (see
//! [`crate::report::EndToEnd::metrics`]).
//!
//! Each slice runs on one core: the whole process (all its threads) moves
//! to the next core at every slice, so a run samples every core. Pinning
//! goes through util-linux `taskset`, waited for at once; where it is
//! missing or there is one core, nothing is pinned.
//!
//! At the start of every slice the workload's set-up runs once more and
//! is timed, so `setup_s` is a median over set-ups spread across the
//! whole run rather than a burst at its start that one slow stretch could
//! cover.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Length of one slice.
const SLICE: Duration = Duration::from_millis(250);

type SetupFn = Box<dyn FnMut() -> Result<(), String>>;

pub struct Pinner {
    cores: usize,
    core: usize,
    slice: usize,
    since: Option<Instant>,
    setup: SetupFn,
    /// Wall seconds of every timed set-up.
    pub setup_s: Vec<f64>,
}

/// Restrict every thread of this process to the CPU list `cpus`.
fn taskset(cpus: &str) -> bool {
    Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

impl Pinner {
    /// Pin to core 0 when there is more than one core and pinning works.
    /// `setup` is the workload's set-up; its result is dropped.
    pub fn new(setup: impl FnMut() -> Result<(), String> + 'static) -> Pinner {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cores = if n > 1 && taskset("0") { n } else { 1 };
        Pinner {
            cores,
            core: 0,
            slice: 0,
            since: None,
            setup: Box::new(setup),
            setup_s: Vec::new(),
        }
    }

    /// The slice the next ops belong to. Call between ops; once the
    /// current slice had its time, moves to the next core, times one
    /// set-up and starts a new slice.
    pub fn tick(&mut self) -> Result<usize, String> {
        if self.since.is_some_and(|t| t.elapsed() < SLICE) {
            return Ok(self.slice);
        }
        if self.since.is_some() {
            self.slice += 1;
            let next = (self.core + 1) % self.cores;
            if self.cores > 1 && taskset(&next.to_string()) {
                self.core = next;
            }
        }
        let t0 = Instant::now();
        (self.setup)()?;
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.since = Some(Instant::now());
        Ok(self.slice)
    }

    /// Allow every core again.
    pub fn release(&mut self) {
        if self.cores > 1 {
            taskset(&format!("0-{}", self.cores - 1));
        }
    }
}
