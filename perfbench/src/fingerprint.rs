//! Machine and build fingerprint stamped on every result.

use crate::summary::json_str;

/// Where and how a result was measured.
#[must_use]
pub fn fingerprint(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cache = |level: &str| {
        (0..8)
            .find_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
                (read("level")?.trim() == level && read("type")?.trim() != "Instruction")
                    .then(|| read("size"))
                    .flatten()
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"nproc\": {nproc}, \"cpu\": {}, \"l2\": {}, \"l3\": {}, \"rustc\": {}, \"commit\": {}, \"profile\": {}}}",
        json_str(workload),
        json_str(&cpu),
        json_str(&cache("2")),
        json_str(&cache("3")),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_COMMIT")),
        json_str(env!("PERFBENCH_PROFILE")),
    )
}
