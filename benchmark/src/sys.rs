//! What the harness asks the operating system: CPU time, peak memory
//! from `/proc`, one CPU to stay on and a thread to keep it awake, the
//! host fingerprint, and `ppoll` for the open-loop generator.

use std::os::fd::RawFd;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// User plus system CPU time this process has used, in seconds, off the
/// process's CPU-time clock: `/proc/self/stat` counts in 10 ms ticks,
/// which is 2% of a half-second window.
pub fn process_cpu_seconds() -> f64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID) as f64 / 1e9
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `repr(C)` value laid out as
    // 64-bit Linux's `struct timespec`, which the call fills in.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks are always there");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A thread of the lowest scheduling class (`SCHED_IDLE`) that spins, so
/// that the CPU never goes idle while it lives: it runs only when nothing
/// else wants the CPU and is put aside the moment anything does. The open
/// loop needs it: between two requests the CPU would halt, and on a guest
/// leaving the halt goes through the hypervisor, which costs more than the
/// request and varies with the host. Stops and is joined when dropped.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    /// The spinner's own CPU time, as it last published it.
    cpu_ns: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> std::io::Result<Self> {
        let (stop, cpu_ns) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicU64::new(0)),
        );
        let (classed, is_classed) = mpsc::channel();
        let thread = {
            let (stop, cpu_ns) = (Arc::clone(&stop), Arc::clone(&cpu_ns));
            std::thread::spawn(move || {
                const SCHED_IDLE: i32 = 5;
                let priority: i32 = 0;
                // SAFETY: pid 0 names the calling thread; `priority` is a
                // live `int`, which is all of Linux's `struct sched_param`.
                let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) };
                let verdict = if rc == 0 {
                    Ok(())
                } else {
                    Err(std::io::Error::last_os_error())
                };
                let give_up = verdict.is_err();
                let _ = classed.send(verdict);
                while !give_up && !stop.load(Ordering::Relaxed) {
                    for _ in 0..1_000 {
                        std::hint::spin_loop();
                    }
                    cpu_ns.store(cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID), Ordering::Relaxed);
                }
            })
        };
        let awake = Self {
            stop,
            cpu_ns,
            thread: Some(thread),
        };
        is_classed
            .recv()
            .unwrap_or_else(|_| Err(std::io::Error::other("the spinner died")))?;
        Ok(awake)
    }

    /// CPU time the spinner has used so far, in seconds: to be taken off
    /// the process's, which includes it. At most one turn of its loop
    /// (microseconds) behind.
    pub fn cpu_seconds(&self) -> f64 {
        self.cpu_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The spinner has nothing to panic about; nothing to pass on.
            let _ = thread.join();
        }
    }
}

/// Linux's `cpu_set_t`: one bit for each of 1024 CPUs.
type CpuSet = [u64; 16];

/// Keep this thread, and every thread it starts from now on, on one CPU:
/// the highest-numbered one it may run on (device interrupts tend to land
/// on the lowest). Returns that CPU's number.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, aligned 128-byte buffer and the size passed
    // is its size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = set
        .iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)
        .ok_or_else(|| std::io::Error::other("no CPU to run on"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the set is only read.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kib / 1024.0
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers were taken: printed with every report, because none
/// of them means anything without it.
pub fn fingerprint(nproc: usize) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_owned());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("kernel", kernel),
        ("rustc", first_line_of("rustc", &["-V"])),
        // "unknown" in the driver's checkout, which is not a repository.
        ("commit", first_line_of("git", &["rev-parse", "HEAD"])),
    ]
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Sleep until `fd` has bytes to read or `timeout` has passed, whichever
/// is first; true when readable. `ppoll` and not `poll`, because the
/// open-loop generator's next send is usually less than a millisecond
/// away. A signal or error reads as "not readable": the caller's loop
/// consults the clock again either way.
pub fn wait_readable(fd: RawFd, timeout: Duration) -> bool {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly aligned `repr(C)` values
    // laid out as Linux's `struct pollfd` and (64-bit) `struct timespec`;
    // `nfds` is 1, matching the single `pfd`; a null signal mask is
    // allowed and leaves the mask unchanged.
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    n > 0 && pfd.revents != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn proc_readers_give_plausible_numbers() {
        let t0 = process_cpu_seconds();
        assert!(t0 >= 0.0);
        assert!(peak_rss_mib() > 0.5);
        assert!(fingerprint(2).iter().any(|(k, _)| *k == "kernel"));
    }

    #[test]
    fn cpu_time_advances_with_work() {
        // Process-wide, so other tests' threads add to it: a floor only.
        let t0 = process_cpu_seconds();
        let mut x = 1u64;
        let started = std::time::Instant::now();
        while started.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let worked = process_cpu_seconds() - t0;
        assert!(worked > 0.01, "30 ms of spinning cost {worked} s of CPU");
    }

    #[test]
    fn the_spinner_uses_the_idle_cpu_and_says_how_much() {
        let awake = KeepAwake::start().unwrap();
        // It runs only when the other tests leave a CPU idle.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while awake.cpu_seconds() == 0.0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let spun = awake.cpu_seconds();
        assert!(spun > 0.0, "the spinner never ran");
        assert!(spun <= process_cpu_seconds());
        drop(awake);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_new_threads_inherit_it() {
        // On a thread of its own, so that the other tests keep their CPUs.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().unwrap();
            assert_eq!(available_parallelism(), 1);
            let child =
                std::thread::spawn(move || (pin_to_one_cpu().unwrap(), available_parallelism()));
            assert_eq!(child.join().unwrap(), (cpu, 1));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn wait_readable_sees_data_and_times_out_without() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        assert!(!wait_readable(b.as_raw_fd(), Duration::from_millis(2)));
        a.write_all(b"x").unwrap();
        assert!(wait_readable(b.as_raw_fd(), Duration::from_secs(5)));
    }
}
