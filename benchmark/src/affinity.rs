//! CPU affinity of the calling thread, inherited by every thread it
//! spawns afterwards.
//!
//! The simulation engine sequences its rank threads one at a time, so a
//! full program never has two runnable threads. Left unpinned on a
//! multi-core host, every rank hand-off may wake the peer on another
//! core, and one SEQ run takes 0.33 s or 3.1 s depending on where the
//! scheduler put the threads. Pinning removes that lottery from the
//! numbers; `fx.handoff_unpinned_ns` still reports it.

use std::io;

/// Words of a `cpu_set_t`: glibc fixes it at 1024 bits.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the
    // `size_of_val(&mask)` bytes passed as its length, and pid 0 names
    // the calling thread; the kernel writes at most that many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restrict the calling thread to `cpus`.
pub fn set_cpus(cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        let word = mask.get_mut(cpu / 64).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cpu {cpu} out of range"),
            )
        })?;
        *word |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the `size_of_val(&mask)`
    // bytes passed as its length, which the kernel only reads; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_and_restores_the_mask() {
        // Affinity is per thread: a scratch thread keeps the test
        // harness's own threads unpinned.
        std::thread::spawn(|| {
            let all = allowed_cpus().unwrap();
            assert!(!all.is_empty());
            let last = *all.last().unwrap();
            set_cpus(&[last]).unwrap();
            assert_eq!(allowed_cpus().unwrap(), vec![last]);
            set_cpus(&all).unwrap();
            assert_eq!(allowed_cpus().unwrap(), all);
            assert!(set_cpus(&[MASK_WORDS * 64]).is_err());
        })
        .join()
        .unwrap();
    }
}
