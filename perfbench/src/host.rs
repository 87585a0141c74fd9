//! Host and size record printed with every result (Linux `/proc` and
//! `/sys`; fields read as unknown elsewhere).

use std::fs;

/// CPU seconds this process has run, summed over all its threads, live
/// and exited (`CLOCK_PROCESS_CPUTIME_ID`). Time a thread spends blocked
/// or waiting for a CPU is not counted.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Not available off 64-bit Linux: a NaN makes the run refuse to print
/// a result.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    f64::NAN
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Size of the last-level (L3) cache in bytes.
pub fn l3_bytes() -> Option<u64> {
    let text = fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let t = text.trim();
    let (num, mult) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1024),
        'M' => (&t[..t.len() - 1], 1024 * 1024),
        _ => (t, 1),
    };
    Some(num.parse::<u64>().ok()? * mult)
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One JSON line describing the host and the workload's size:
/// `footprint_bytes` is `DeviceState::footprint_bytes` of one device,
/// set against the L3 size.
pub fn record(workload: &str, elem_bytes: usize, field_bytes: u64, footprint_bytes: u64) -> String {
    let l3 = l3_bytes();
    let ratio = l3.map_or("null".to_string(), |l| {
        format!("{:?}", footprint_bytes as f64 / l as f64)
    });
    format!(
        "{{\"host\": {{\"workload\": \"{workload}\", \"nproc\": {}, \"cpu\": \"{}\", \"l3_mib\": {}, \"simd_native\": {}, \"elem_bytes\": {elem_bytes}, \"bytes_per_field\": {field_bytes}, \"footprint_bytes\": {footprint_bytes}, \"footprint_over_l3\": {ratio}, \"byte_rates\": \"computed from analytic counts, not measured\"}}}}",
        nproc(),
        cpu_model().replace('"', "'"),
        l3.map_or("null".to_string(), |l| (l / (1024 * 1024)).to_string()),
        numerics::simd::lanes_native(),
    )
}
