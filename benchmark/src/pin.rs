//! Thread placement for the served loops. Where the scheduler puts the
//! client next to the server, a woken client runs on the server's CPU,
//! sends its next request before the server's poll loop goes idle, and a
//! round trip drops from ~175 µs (the idle sleep) to ~20 µs. Which happens
//! depends on the load on the other CPU, so a run's latency would depend
//! on its neighbours. The served loops pin the client and the server to
//! different CPUs, as a remote client would be.

#[cfg(target_os = "linux")]
mod sys {
    /// A `cpu_set_t` of 1024 CPUs, the glibc size.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
}

/// Slots of the served loops' client and server threads.
pub const CLIENT: usize = 0;
pub const SERVER: usize = 1;

/// The CPUs this process may run on, lowest first; empty where unknown.
/// Read once, by the first `pin` call, before it pins anything.
fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(read_allowed_cpus)
}

#[cfg(target_os = "linux")]
fn read_allowed_cpus() -> Vec<usize> {
    let mut set: sys::CpuSet = [0; 16];
    // SAFETY: pid 0 names the calling thread, and `set` is a writable
    // buffer of exactly the size passed.
    let ok = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&set), &mut set) } == 0;
    if !ok {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

#[cfg(not(target_os = "linux"))]
fn read_allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Pin the calling thread to the `slot`-th allowed CPU (wrapping). Does
/// nothing when fewer than two CPUs are allowed: there is no placement to
/// choose.
pub fn pin(slot: usize) {
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return;
    }
    #[cfg(target_os = "linux")]
    {
        let cpu = cpus[slot % cpus.len()];
        let mut set: sys::CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: pid 0 names the calling thread, and `set` is a valid
        // cpu set of exactly the size passed. A failure leaves the
        // placement to the scheduler, which is harmless.
        unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&set), &set) };
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_calling_thread_is_allowed_somewhere() {
        if cfg!(target_os = "linux") {
            assert!(!super::allowed_cpus().is_empty());
        }
    }
}
