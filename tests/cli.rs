//! The `distfl` binary end to end: its stdout, not just its exit code.

use std::path::PathBuf;
use std::process::Command;

fn distfl(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_distfl")).args(args).output().expect("distfl runs");
    assert!(
        out.status.success(),
        "distfl {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("distfl-cli-stdout-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The metricity check runs at every size: a metric instance with more
/// than 40,000 cells still reports its defect under `info` and gets the
/// metric baselines' rows under `evaluate`.
#[test]
fn large_metric_instances_are_checked_and_get_the_metric_baselines() {
    let file = scratch_file("large_metric.fl");
    let path = file.to_str().unwrap();
    distfl(&["generate", "euclidean", "-m", "21", "-n", "1905", "--seed", "4", "-o", path]);

    let info = distfl(&["info", path]);
    assert!(info.contains("links          : 40005"), "{info}");
    assert!(info.contains("metric defect  : 0.000000"), "{info}");

    let table = distfl(&["evaluate", path]);
    assert!(table.contains("jain-vazirani"), "{table}");
    assert!(table.contains("mettu-plaxton"), "{table}");
    std::fs::remove_file(&file).unwrap();
}

/// A non-metric instance gets the defect line but no metric baselines.
#[test]
fn non_metric_instances_skip_the_metric_baselines() {
    let file = scratch_file("uniform.fl");
    let path = file.to_str().unwrap();
    distfl(&["generate", "uniform", "-m", "6", "-n", "30", "--seed", "2", "-o", path]);

    let info = distfl(&["info", path]);
    let defect_line = info.lines().find(|l| l.starts_with("metric defect")).expect("defect line");
    let defect: f64 = defect_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(defect > 0.0, "{info}");

    let table = distfl(&["evaluate", path]);
    assert!(!table.contains("jain-vazirani"), "{table}");
    assert!(!table.contains("mettu-plaxton"), "{table}");
    std::fs::remove_file(&file).unwrap();
}
