//! Confining the whole process — cluster and generator — to one core
//! while the closed loop runs.
//!
//! Spread over two vCPUs, a back-to-back exchange hands over between
//! its client and server halves through cross-core wake-ups whose cost
//! on a shared VM swings with the host's load: the same code measured
//! minutes apart differed by a third. On one core the loop is bound by
//! the work of a request alone.

use std::mem::size_of;

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: one bit per core, 1024 cores.
type Mask = [u64; 16];

fn os_err(call: &str) -> String {
    format!("{call}: {}", std::io::Error::last_os_error())
}

/// Every thread of this process on the cores of `mask`. Threads started
/// later inherit the mask of the thread that starts them.
fn apply(mask: &Mask) -> Result<(), String> {
    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for task in tasks.flatten() {
        let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<i32>().ok())
        else {
            continue;
        };
        // SAFETY: `mask` is a live bitmap of `size_of::<Mask>()` bytes.
        // A thread that exited since the listing fails with ESRCH, which
        // is ignored like the thread itself.
        let rc = unsafe { sched_setaffinity(tid, size_of::<Mask>(), mask.as_ptr()) };
        if rc != 0 && std::io::Error::last_os_error().raw_os_error() != Some(3) {
            return Err(os_err("sched_setaffinity"));
        }
    }
    Ok(())
}

/// The process pinned to one core until dropped, which restores every
/// thread to the cores the process had before.
pub struct Pinned {
    before: Mask,
    /// The core.
    pub core: usize,
}

impl Pinned {
    /// Pin every thread of the process to the core the caller runs on.
    pub fn to_current_core() -> Result<Pinned, String> {
        let mut before: Mask = [0; 16];
        // SAFETY: `before` is a writable bitmap of the size passed; pid 0
        // is the calling thread.
        if unsafe { sched_getaffinity(0, size_of::<Mask>(), before.as_mut_ptr()) } < 0 {
            return Err(os_err("sched_getaffinity"));
        }
        // SAFETY: no arguments; returns a core number or -1.
        let core =
            usize::try_from(unsafe { sched_getcpu() }).map_err(|_| os_err("sched_getcpu"))?;
        let mut one: Mask = [0; 16];
        *one.get_mut(core / 64)
            .ok_or_else(|| format!("core {core} beyond the affinity mask"))? = 1 << (core % 64);
        let pinned = Pinned { before, core };
        // Twice: a thread started during the first pass from a thread
        // not yet pinned is caught by the second.
        apply(&one)?;
        apply(&one)?;
        Ok(pinned)
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        let _ = apply(&self.before);
    }
}
