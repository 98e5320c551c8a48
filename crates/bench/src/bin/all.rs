//! Run every table/figure harness in sequence (pass --quick through).
//!
//! With `--json <path>`, every child binary additionally writes its
//! metrics-registry snapshot to a part file, and the part files are
//! stitched into one `{"figures": {<bin>: {...}}}` document at `<path>` —
//! the benchmark-trajectory artifact committed as `BENCH_<date>.json`.

use pacman_bench::BenchOpts;
use std::process::Command;

const TARGETS: &[&str] = &[
    "fig11",
    "table1",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "table2",
    "table3",
    "fig_restart",
    "fig_failover",
    "fig_space",
    "obs_overhead",
    "fig_read",
    "fig_alloc",
    "fig_latency",
];

fn main() {
    let opts = BenchOpts::from_args();
    let json_out = BenchOpts::json_path();
    let me = std::env::current_exe().expect("current exe");
    let dir = me.parent().expect("bin dir");
    let mut parts: Vec<(String, String)> = Vec::new();
    for &target in TARGETS {
        let mut cmd = Command::new(dir.join(target));
        if opts.quick {
            cmd.arg("--quick");
        }
        if opts.trace {
            cmd.arg("--trace");
        }
        let part_path = json_out.as_ref().map(|p| format!("{p}.{target}.part.json"));
        if let Some(part) = &part_path {
            cmd.arg("--json").arg(part);
        }
        println!();
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("spawn {target}: {e}"));
        assert!(status.success(), "{target} failed");
        if let Some(part) = part_path {
            let text = std::fs::read_to_string(&part)
                .unwrap_or_else(|e| panic!("{target} wrote no metrics JSON at {part}: {e}"));
            let _ = std::fs::remove_file(&part);
            parts.push((target.to_string(), text));
        }
    }
    if let Some(path) = json_out {
        let unix_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        // Each part file is already a rendered JSON object; stitch them
        // verbatim under a "figures" map rather than re-parsing.
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"unix_secs\": {unix_secs},\n"));
        out.push_str(&format!("  \"quick\": {},\n", opts.quick));
        out.push_str("  \"figures\": {\n");
        for (i, (name, text)) in parts.iter().enumerate() {
            let sep = if i + 1 < parts.len() { "," } else { "" };
            out.push_str(&format!("    \"{name}\": {}{sep}\n", text.trim_end()));
        }
        out.push_str("  }\n}\n");
        std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nmerged benchmark JSON written to {path}");
    }
}
