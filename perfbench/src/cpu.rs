//! Process CPU time, the clock every timing metric is read from.
//!
//! On a shared 2-vCPU virtual machine (Intel Xeon), the wall time of
//! identical work ranged from 5.0 s to 6.6 s between runs while user+sys
//! time stayed within 3%: the difference was hypervisor steal, which the
//! guest kernel leaves out of a process's CPU time. CPU time sums every
//! thread of the process, so the engine's worker threads count too.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU time through clock_gettime on 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used so far, over all its threads.
pub fn now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked above), which is all
    // `clock_gettime` writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds `f` used, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = now();
    let r = f();
    (r, now() - start)
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_time_advances_with_work() {
        let (sum, secs) = super::timed(|| {
            (0..20_000_000u64).fold(0u64, |a, x| std::hint::black_box(a.wrapping_add(x * x)))
        });
        std::hint::black_box(sum);
        assert!(secs > 0.0);
    }
}
