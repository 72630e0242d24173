//! Process readers: CPU-time clocks, and from `/proc` the memory high-water
//! marks and the process tree of the processes under test.

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    pub state: char,
    pub ppid: i32,
}

/// Parses a `/proc/<pid>/stat` line.  The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from its last `)`.
pub fn parse_stat(line: &str) -> Option<Stat> {
    let after = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `fields[0]` is field 3 (state), `fields[1]` field 4 (ppid).
    Some(Stat {
        state: fields.first()?.chars().next()?,
        ppid: fields.get(1)?.parse().ok()?,
    })
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), in bytes.
pub fn status_bytes(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        let mut words = value.split_whitespace();
        let kb: u64 = words.next()?.parse().ok()?;
        (words.next() == Some("kB")).then_some(kb * 1024)
    })
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

pub fn stat(pid: u32) -> Option<Stat> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// The CPU-time clocks of a set of live processes (all their threads), read
/// to the nanosecond.  The kernel charges a process only the time it ran,
/// not the time the host took from the virtual CPU (steal), so CPU time
/// does not move with the host's load the way wall time does.
#[derive(Debug, Clone)]
pub struct CpuClock {
    clocks: Vec<(u32, i32)>,
}

impl CpuClock {
    pub fn new(pids: &[u32]) -> Result<Self, String> {
        let clocks = pids
            .iter()
            .map(|&pid| {
                let mut clock = 0;
                // SAFETY: the call writes one integer through a pointer to a
                // live local.
                match unsafe { clock_getcpuclockid(pid as i32, &mut clock) } {
                    0 => Ok((pid, clock)),
                    errno => Err(format!("CPU clock of process {pid}: error {errno}")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(CpuClock { clocks })
    }

    /// CPU time the processes have spent so far, in nanoseconds.
    pub fn ns(&self) -> Result<u64, String> {
        self.clocks.iter().try_fold(0, |sum, &(pid, clock)| {
            let mut time = Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            };
            // SAFETY: the call writes one `struct timespec` (two 64-bit
            // fields on the 64-bit Linux ABIs) through a pointer to a live
            // local of that layout.
            if unsafe { clock_gettime(clock, &mut time) } != 0 {
                return Err(format!("CPU clock of process {pid} is gone"));
            }
            Ok(sum + time.tv_sec as u64 * 1_000_000_000 + time.tv_nsec as u64)
        })
    }
}

/// CPU time per unit of work over consecutive windows of a closed loop.
/// Each window is charged the CPU time the clock counts across it, divided
/// by the units of work (updates, queries) it completed; the run reports
/// the median window, so a burst of interference moves one window, not
/// the run.
#[derive(Debug)]
pub struct CpuWindows {
    clock: CpuClock,
    last: (u64, u64),
    per_unit_ns: Vec<f64>,
}

impl CpuWindows {
    /// Opens the first window with `units` already done.
    pub fn start(clock: CpuClock, units: u64) -> Result<Self, String> {
        let now = clock.ns()?;
        Ok(CpuWindows {
            clock,
            last: (now, units),
            per_unit_ns: Vec::new(),
        })
    }

    /// Closes the window at `units` done in all, and opens the next.
    pub fn mark(&mut self, units: u64) -> Result<(), String> {
        let now = self.clock.ns()?;
        self.close(now, units);
        Ok(())
    }

    fn close(&mut self, now: u64, units: u64) {
        let (then, done) = self.last;
        if units > done {
            self.per_unit_ns
                .push(now.saturating_sub(then) as f64 / (units - done) as f64);
        }
        self.last = (now, units);
    }

    /// The median window's CPU nanoseconds per unit (NaN without one).
    pub fn median_ns_per_unit(&self) -> f64 {
        crate::stats::median(&self.per_unit_ns).unwrap_or(f64::NAN)
    }
}

/// A `kB` field of the live process's status, in bytes.
pub fn memory(pid: u32, field: &str) -> Option<u64> {
    status_bytes(
        &std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
        field,
    )
}

/// Whether `pid` has ended: gone, or a zombie awaiting its reaper.
pub fn ended(pid: u32) -> bool {
    stat(pid).is_none_or(|s| s.state == 'Z' || s.state == 'X')
}

/// Direct children of `pid`, found by scanning every process's parent.
pub fn children(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut children: Vec<u32> = entries
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&child| stat(child).is_some_and(|s| s.ppid == pid as i32))
        .collect();
    children.sort_unstable();
    children
}

/// Resets this process's `VmHWM` to its current resident size, so a later
/// `VmHWM` reading covers only what happened after the reset.
pub fn reset_own_high_water() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_survives_spaces_and_parens_in_the_command_name() {
        let line = "4242 (knw (worker) 2) S 4200 4242 4242 0 -1 4194560 912 0 0 0 \
                    157 43 0 0 20 0 3 0 1234 10485760 512 18446744073709551615";
        let stat = parse_stat(line).expect("valid stat line");
        assert_eq!(
            stat,
            Stat {
                state: 'S',
                ppid: 4200,
            }
        );
        assert_eq!(parse_stat("4242 (cut) S"), None);
    }

    #[test]
    fn reads_this_process() {
        let stat = stat(std::process::id()).expect("own stat");
        assert_eq!(stat.ppid, std::os::unix::process::parent_id() as i32);
        assert!(!ended(std::process::id()));
        assert!(ended(u32::MAX), "no such process");
        assert!(memory(std::process::id(), "VmHWM").expect("own VmHWM") > 0);
    }

    #[test]
    fn cpu_clock_counts_busy_time_and_not_sleep() {
        let mut sleeper = std::process::Command::new("sleep")
            .arg("10")
            .spawn()
            .expect("spawn sleep");
        let asleep = CpuClock::new(&[sleeper.id()]).expect("child's clock");
        let own = CpuClock::new(&[std::process::id()]).expect("own clock");
        let (a0, o0) = (asleep.ns().expect("readable"), own.ns().expect("readable"));
        let busy = std::time::Instant::now();
        while busy.elapsed() < std::time::Duration::from_millis(50) {
            std::hint::black_box(0);
        }
        let (a1, o1) = (asleep.ns().expect("readable"), own.ns().expect("readable"));
        sleeper.kill().expect("kill sleep");
        sleeper.wait().expect("reap sleep");
        assert!(a1 - a0 < 5_000_000, "asleep: {} ns", a1 - a0);
        assert!(o1 - o0 >= 40_000_000, "busy: {} ns", o1 - o0);
        assert!(asleep.ns().is_err(), "a reaped process has no clock");
    }

    #[test]
    fn cpu_windows_report_the_median_window_per_unit() {
        let clock = CpuClock::new(&[std::process::id()]).expect("own clock");
        let mut windows = CpuWindows::start(clock, 0).expect("readable");
        windows.last = (1_000, 0);
        windows.close(2_000, 10); // 100 ns per unit
        windows.close(2_000, 10); // no unit done: no window
        windows.close(12_000, 20); // a burst: 1,000 ns per unit
        windows.close(14_000, 30); // 200 ns per unit
        assert_eq!(windows.per_unit_ns.len(), 3);
        assert_eq!(windows.median_ns_per_unit(), 200.0);
        windows.mark(31).expect("readable");
        assert_eq!(windows.per_unit_ns.len(), 4);
    }

    #[test]
    fn status_fields_are_bytes() {
        let status =
            "Name:\tknw-worker\nVmPeak:\t  20000 kB\nVmHWM:\t    1536 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(status_bytes(status, "VmHWM"), Some(1536 * 1024));
        assert_eq!(status_bytes(status, "VmRSS"), Some(1024 * 1024));
        assert_eq!(status_bytes(status, "VmSwap"), None);
        assert_eq!(status_bytes("VmHWM:\t12 pages\n", "VmHWM"), None);
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let cpuinfo =
            "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Example CPU @ 2.0GHz\n\
                       processor\t: 1\nmodel name\t: Other\n";
        assert_eq!(cpu_model(cpuinfo).as_deref(), Some("Example CPU @ 2.0GHz"));
        assert_eq!(cpu_model("processor : 0\n"), None);
    }
}
