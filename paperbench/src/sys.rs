//! Host facts and process plumbing: resource usage, the run record
//! (commit, toolchain, cores), where the release binaries live, and a
//! work directory inside the checkout.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Environment variables that change what a spawned simulator binary
/// does (worker count, fault injection, store keying). Every child is
/// started without them, and sweeps get `--jobs` explicitly.
const SCRUBBED_ENV: [&str; 3] = ["LEAKY_SWEEP_JOBS", "LEAKY_FAULTS", "LEAKY_STORE_EPOCH"];

/// Worker threads every sweep runs with: the 2-core machine the bounds
/// were set on. Passed as `--jobs` on the command line, never inherited.
pub const JOBS: usize = 2;

/// A command for one of the repository's release binaries, with the
/// behaviour-changing environment removed.
pub fn command(bin_dir: &Path, name: &str) -> Command {
    let mut cmd = Command::new(bin_dir.join(name));
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    cmd
}

/// `$CARGO_TARGET_DIR`, or `target` when the variable is unset.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// The release binaries' directory, `<target>/release`.
///
/// # Errors
///
/// Fails when `leaky_sweep` is not there, i.e. the repository was not
/// built in release mode first.
pub fn release_bin_dir() -> Result<PathBuf, String> {
    let dir = target_dir().join("release");
    if !dir.join("leaky_sweep").is_file() {
        return Err(format!(
            "{} has no leaky_sweep: build the workspace with `cargo build --release` first",
            dir.display()
        ));
    }
    Ok(dir)
}

/// A fresh, empty work directory under the target directory (inside
/// the checkout), removed again by [`WorkDir`]'s `Drop`.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<target>/paperbench-work/<tag>-<pid>`, emptied first.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = target_dir()
            .join("paperbench-work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// CPU time and peak resident memory, from `getrusage(2)`.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system seconds.
    pub cpu_s: f64,
    /// Peak resident set size, in MiB.
    pub max_rss_mb: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
/// which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux (`#[repr(C)]`, same field sizes
    // and order), and `who` is one of the two constants the call accepts.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage with a valid `who` cannot fail");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        max_rss_mb: ru.maxrss as f64 / 1024.0,
    }
}

/// This process's usage (all threads).
pub fn self_usage() -> Usage {
    rusage(RUSAGE_SELF)
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns this process's free heap memory to the system, then resets
/// its peak resident memory to the current size
/// (`/proc/self/clear_refs`), so that a later [`self_usage`] reports
/// the peak since now.
///
/// # Errors
///
/// Fails when the kernel does not offer the reset.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: glibc's `malloc_trim` only releases memory no allocation
    // holds; any `pad` is valid.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS: /proc/self/clear_refs: {e}"))
}

/// Usage of every child this process has waited for.
pub fn children_usage() -> Usage {
    rusage(RUSAGE_CHILDREN)
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(str::to_string)
}

/// The checked-out commit, or `unknown` outside a git checkout;
/// `--git-dir` keeps git from searching the directories above it.
pub fn git_commit() -> String {
    first_line(Command::new("git").args(["--git-dir=.git", "rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run record printed with every run: commit, toolchain, cores.
pub fn run_record() -> String {
    let commit = git_commit();
    let rustc =
        first_line(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("commit={commit} rustc=\"{rustc}\" nproc={nproc} jobs={JOBS}")
}
