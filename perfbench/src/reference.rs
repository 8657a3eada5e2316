//! The host-speed reference: a fixed kernel of the benchmark's own, timed
//! between the iterations of an untraced run.
//!
//! A shared 2-core host was seen to switch between speeds about 1.4x apart
//! for minutes at a time, longer than one run, so runs of the same code
//! spread by up to a third of their median. The reference kernel shares no code
//! with the program under test: a change to the program moves the
//! workload's time and not the kernel's, while a change of host speed
//! moves both. The untraced run reports every timing scaled by
//! [`NOMINAL_S`] over the kernel's mean time in that run, i.e. as if the
//! kernel had taken exactly [`NOMINAL_S`]; it prints the raw figures too.
//! The kernel runs in child processes (this binary, given [`FLAG`]), so
//! its memory never counts in the workload's peak, and as many at once as
//! the workload has workers, so it loads the host's cores as the workload
//! does.
//!
//! The kernel mixes the kinds of work the simulator does and the host
//! slows unevenly: dependent loads over a random cycle larger than L2,
//! another within L2, integer mixing, small heap allocations in a
//! `BTreeMap`, and updates to a `HashMap`. Over eight 20-second runs of
//! the `ledger-commit` workload, the run-to-run spread of its time over the
//! kernel's was about a sixth of the raw spread.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The flag that makes this binary run the kernel instead of a workload:
/// `perfbench --reference-kernel <seconds>`.
pub const FLAG: &str = "--reference-kernel";

/// What one kernel run takes, as the scaled timings assume: about its
/// time on the 2-core host these figures come from, in its faster mode.
pub const NOMINAL_S: f64 = 0.25;

/// After each iteration the kernel runs for this share of the iteration's
/// time, so that the host speed is sampled in proportion to the time the
/// workload ran.
pub const SHARE: f64 = 0.25;

/// Mean time of the reference kernel over a run.
#[derive(Default)]
pub struct Reference {
    seconds: f64,
    runs: u64,
}

impl Reference {
    /// Time kernel runs in `children` child processes at once, as many as
    /// the workload has workers, each until its runs cover `seconds`, at
    /// least one; wait for every child to end.
    pub fn sample(&mut self, children: usize, seconds: f64) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
        let mut started = Vec::new();
        let mut error = None;
        for _ in 0..children {
            let spawn = Command::new(&exe)
                .args([FLAG, &seconds.to_string()])
                .stdout(Stdio::piped())
                .spawn();
            match spawn {
                Ok(child) => started.push(child),
                Err(e) => {
                    error = Some(format!("cannot start the reference kernel: {e}"));
                    break;
                }
            }
        }
        for child in started {
            let report = child
                .wait_with_output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| parse_report(&String::from_utf8_lossy(&out.stdout)));
            match report {
                Some((runs, seconds)) => {
                    self.runs += runs;
                    self.seconds += seconds;
                }
                None => error = error.or(Some("the reference kernel failed".to_string())),
            }
        }
        error.map_or(Ok(()), Err)
    }

    /// Mean seconds per kernel run; `None` before the first sample.
    pub fn mean_s(&self) -> Option<f64> {
        (self.runs > 0).then(|| self.seconds / self.runs as f64)
    }

    /// Kernel runs so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }
}

/// The factor that scales a time measured in a run whose kernel took
/// `kernel_s` to the nominal host speed: [`NOMINAL_S`] over `kernel_s`.
pub fn scale(kernel_s: f64) -> f64 {
    NOMINAL_S / kernel_s
}

/// The child side of [`Reference::sample`]: run the kernel until the runs
/// cover `seconds` (the argument after [`FLAG`]), at least once, and print
/// `<runs> <seconds>`.
pub fn serve(seconds: Option<String>) -> Result<(), String> {
    let wanted: f64 = seconds
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
        .ok_or(format!("{FLAG} needs a number of seconds"))?;
    let (mut runs, mut spent) = (0u64, 0.0);
    while runs == 0 || spent < wanted {
        let t = Instant::now();
        kernel();
        spent += t.elapsed().as_secs_f64();
        runs += 1;
    }
    println!("{runs} {spent}");
    Ok(())
}

/// Parse the child's `<runs> <seconds>` line.
fn parse_report(text: &str) -> Option<(u64, f64)> {
    let mut fields = text.split_whitespace();
    let runs = fields.next()?.parse().ok().filter(|r| *r > 0)?;
    let seconds = fields.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?;
    fields.next().is_none().then_some((runs, seconds))
}

/// A random single cycle over `n` slots (Sattolo's algorithm, xorshift
/// draws), so following it from any slot visits every slot.
fn cycle(n: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    next
}

/// Follow `steps` links of a cycle; return where it ends.
fn chase(next: &[u32], steps: usize) -> usize {
    let mut at = 0usize;
    for _ in 0..steps {
        at = next[at] as usize;
    }
    at
}

/// One run of the reference kernel. Everything it allocates is freed
/// before it returns.
pub fn kernel() {
    let big = cycle(1 << 21);
    black_box(chase(&big, 1_000_000));
    drop(big);
    let small = cycle(1 << 17);
    black_box(chase(&small, 3_000_000));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..20_000_000u64 {
        h = (h ^ i).wrapping_mul(0x0100_0000_01b3).rotate_left(7);
    }
    black_box(h);
    let mut tree = BTreeMap::new();
    for i in 0..200_000u64 {
        tree.insert(
            i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 50_000,
            vec![i as u8; 64],
        );
    }
    black_box(tree.len());
    let mut map: HashMap<u64, [u8; 32], BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..300_000u64 {
        map.insert(
            i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 100_000,
            [i as u8; 32],
        );
    }
    black_box(map.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_visits_every_slot_once() {
        let next = cycle(1000);
        let mut seen = vec![false; next.len()];
        let mut at = 0;
        for _ in 0..next.len() {
            assert!(!seen[at]);
            seen[at] = true;
            at = next[at] as usize;
        }
        assert_eq!(at, 0);
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn the_scale_is_nominal_over_measured() {
        assert_eq!(scale(NOMINAL_S), 1.0);
        assert_eq!(scale(2.0 * NOMINAL_S), 0.5);
        assert_eq!(Reference::default().mean_s(), None);
    }

    #[test]
    fn the_child_report_is_runs_then_seconds() {
        assert_eq!(parse_report("3 0.91\n"), Some((3, 0.91)));
        assert_eq!(parse_report("0 0.91"), None);
        assert_eq!(parse_report("3 0"), None);
        assert_eq!(parse_report("3"), None);
        assert_eq!(parse_report("3 0.9 7"), None);
        assert_eq!(parse_report(""), None);
    }
}
