//! Run metadata and process-level measurements.

use std::path::Path;

/// Compiler version the benchmark was built with.
pub const RUSTC: &str = env!("AIRBENCH_RUSTC");
/// Target triple the benchmark was built for.
pub const TARGET: &str = env!("AIRBENCH_TARGET");

/// Logical CPUs available to the process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out in `root`, read from `.git` without running
/// git; `"unknown"` when `root` is not a git checkout.
#[must_use]
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Minimal JSON string escaping for metadata values.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_json() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn missing_git_dir_reads_unknown() {
        assert_eq!(
            git_commit(Path::new("no-such-checkout-for-this-test")),
            "unknown"
        );
    }
}
